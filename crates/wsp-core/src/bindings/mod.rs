//! The two concrete bindings of the paper's Section IV — the standard
//! HTTP/UDDI implementation and the P2PS implementation — plus tests
//! showing that the same application code drives both, and that
//! components mix across bindings (a P2PS peer using the UDDI locator).

pub mod http_uddi;
pub mod p2ps;

pub use http_uddi::{HttpUddiBinding, HttpUddiConfig};
pub use p2ps::{P2psBinding, P2psConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::BindingKind;
    use crate::events::{CollectingListener, EventBus, ServerPhase};
    use crate::peer::Peer;
    use crate::query::ServiceQuery;
    use std::sync::Arc;
    use std::time::Duration;
    use wsp_p2ps::{PeerConfig, PeerId, ThreadNetwork};
    use wsp_uddi::Registry;
    use wsp_wsdl::{ServiceDescriptor, Value};

    fn echo_handler() -> Arc<dyn wsp_wsdl::ServiceHandler> {
        Arc::new(|_op: &str, args: &[Value]| Ok(args[0].clone()))
    }

    const INBOUND_THEN_OUTBOUND: [ServerPhase; 2] = [ServerPhase::Inbound, ServerPhase::Outbound];

    fn server_phases(listener: &CollectingListener) -> Vec<ServerPhase> {
        let seen = listener.server_messages.read();
        seen.iter().map(|e| e.phase).collect()
    }

    /// Figure 3: deploy → publish → locate → invoke over HTTP/UDDI.
    #[test]
    fn figure3_http_uddi_lifecycle() {
        let registry = Registry::new();
        let provider_binding =
            HttpUddiBinding::with_local_registry(registry.clone(), EventBus::new());
        let provider = Peer::with_binding(&provider_binding);
        // The application listens at the root of the tree, whatever bus
        // the binding was built around.
        let listener = CollectingListener::new();
        provider.add_listener(listener.clone());
        // Container-less: no HTTP server until the first deploy.
        assert!(!provider_binding.host_running());
        provider
            .server()
            .deploy_and_publish(ServiceDescriptor::echo(), echo_handler())
            .unwrap();
        assert!(provider_binding.host_running());

        let consumer = Peer::with_binding(&HttpUddiBinding::with_local_registry(
            registry,
            EventBus::new(),
        ));
        let service = consumer
            .client()
            .locate_one(&ServiceQuery::by_name("Echo"))
            .unwrap();
        assert_eq!(service.kind, BindingKind::HttpUddi);
        let result = consumer
            .client()
            .invoke(&service, "echoString", &[Value::string("over http")])
            .unwrap();
        assert_eq!(result, Value::string("over http"));

        // The provider saw the request either side of the engine.
        assert_eq!(server_phases(&listener), INBOUND_THEN_OUTBOUND);
    }

    fn p2ps_pair() -> (Peer, P2psBinding, Peer, P2psBinding) {
        let network = ThreadNetwork::new();
        let rv = network.spawn(PeerConfig::rendezvous(PeerId(0x100)));
        let provider_peer = network.spawn(PeerConfig::ordinary(PeerId(0x1)));
        let consumer_peer = network.spawn(PeerConfig::ordinary(PeerId(0x2)));
        provider_peer.add_neighbour(rv.id(), true);
        consumer_peer.add_neighbour(rv.id(), true);
        rv.add_neighbour(provider_peer.id(), false);
        rv.add_neighbour(consumer_peer.id(), false);
        // The rendezvous peer thread must outlive the test: leak it.
        std::mem::forget(rv);

        let provider_binding =
            P2psBinding::new(provider_peer, EventBus::new(), P2psConfig::default());
        let consumer_binding =
            P2psBinding::new(consumer_peer, EventBus::new(), P2psConfig::default());
        let provider = Peer::with_binding(&provider_binding);
        let consumer = Peer::with_binding(&consumer_binding);
        (provider, provider_binding, consumer, consumer_binding)
    }

    /// Figure 4: the identical application steps over P2PS.
    #[test]
    fn figure4_p2ps_lifecycle() {
        let (provider, _pb, consumer, _cb) = p2ps_pair();
        let listener = CollectingListener::new();
        provider.add_listener(listener.clone());
        provider
            .server()
            .deploy_and_publish(ServiceDescriptor::echo(), echo_handler())
            .unwrap();
        std::thread::sleep(Duration::from_millis(150)); // advert propagation

        let service = consumer
            .client()
            .locate_one(&ServiceQuery::by_name("Echo"))
            .unwrap();
        assert_eq!(service.kind, BindingKind::P2ps);
        assert!(service.endpoint.starts_with("p2ps://"));
        let result = consumer
            .client()
            .invoke(&service, "echoString", &[Value::string("over pipes")])
            .unwrap();
        assert_eq!(result, Value::string("over pipes"));

        // The provider saw the request either side of the engine.
        assert_eq!(server_phases(&listener), INBOUND_THEN_OUTBOUND);
    }

    /// C6: binding composition — a peer invoking over P2PS while
    /// locating through UDDI, because the provider published to both.
    #[test]
    fn mixed_binding_uddi_locator_p2ps_invoker() {
        let (provider, provider_binding, consumer, _cb) = p2ps_pair();
        let registry = Registry::new();

        // Provider deploys on P2PS, then *additionally* publishes its
        // P2PS endpoint into the UDDI registry (the paper: "a P2PS
        // Server could use the UDDI conversant ServicePublisher").
        let deployed = provider
            .server()
            .deploy_and_publish(ServiceDescriptor::echo(), echo_handler())
            .unwrap();
        let _ = provider_binding; // host side set up
        let uddi = wsp_uddi::UddiClient::direct(registry.clone());
        uddi.save_service(
            &wsp_uddi::BusinessService::new("", "wspeer", deployed.name()).with_binding(
                wsp_uddi::BindingTemplate::new("", deployed.primary_endpoint().unwrap()),
            ),
        )
        .unwrap();

        // Consumer: UDDI locator answers with a p2ps:// endpoint; the
        // registry cannot serve `?wsdl` for pipes, so the locator falls
        // back to... nothing — instead the consumer locates via UDDI
        // *keys* and retargets. Here we check the key mixed-mode path
        // the paper names: locate via UDDI, invoke via P2PS.
        let records = uddi
            .locate(&ServiceQuery::by_name("Echo").to_uddi())
            .unwrap();
        assert_eq!(records.len(), 1);
        let endpoint = records[0].bindings[0].access_point.clone();
        assert!(endpoint.starts_with("p2ps://"));

        // Build the located service from the deployed WSDL (the
        // definition pipe would serve the same document).
        let service = crate::endpoint::LocatedService::new(
            deployed.wsdl.clone(),
            endpoint,
            BindingKind::P2ps,
        );
        std::thread::sleep(Duration::from_millis(100));
        let result = consumer
            .client()
            .invoke(&service, "echoString", &[Value::string("mixed mode")])
            .unwrap();
        assert_eq!(result, Value::string("mixed mode"));
    }
}
