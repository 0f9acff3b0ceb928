//! The paper's central claim (C1): identical application code drives
//! vastly different substrates. One generic application function runs
//! against both bindings; the assertions never mention the substrate.

use std::sync::Arc;
use wsp_core::bindings::HttpUddiBinding;
use wsp_core::{EventBus, Peer, ServiceQuery};
use wsp_integration_tests::{
    calc_descriptor, calc_handler, locate_until_found, p2ps_star, p2ps_wspeer,
};
use wsp_uddi::Registry;
use wsp_wsdl::Value;

/// The application, written once against the WSPeer API. It has no idea
/// whether HTTP/UDDI or P2PS sits underneath. `settle` returns once the
/// published service can be found.
fn application(provider: &Peer, consumer: &Peer, settle: impl FnOnce()) -> Value {
    provider
        .server()
        .deploy_and_publish(calc_descriptor(), calc_handler())
        .expect("deploy+publish");
    settle();
    let service = consumer
        .client()
        .locate_one(&ServiceQuery::by_name("Calc"))
        .expect("locate");
    consumer
        .client()
        .invoke(&service, "add", &[Value::Double(19.0), Value::Double(23.0)])
        .expect("invoke")
}

#[test]
fn same_code_over_http_uddi() {
    let registry = Registry::new();
    let provider = Peer::with_binding(&HttpUddiBinding::with_local_registry(
        registry.clone(),
        EventBus::new(),
    ));
    let consumer = Peer::with_binding(&HttpUddiBinding::with_local_registry(
        registry,
        EventBus::new(),
    ));
    assert_eq!(
        application(&provider, &consumer, || ()),
        Value::Double(42.0)
    );
}

#[test]
fn same_code_over_p2ps() {
    let (_network, _rv, mut peers) = p2ps_star(3);
    let (provider, _pb) = p2ps_wspeer(peers.pop().unwrap());
    let (consumer, _cb) = p2ps_wspeer(peers.pop().unwrap());
    let (probe, _probe_binding) = p2ps_wspeer(peers.pop().unwrap());
    // The advert has reached the rendezvous once another peer finds it.
    let settle = || {
        locate_until_found(&probe, &ServiceQuery::by_name("Calc"));
    };
    assert_eq!(
        application(&provider, &consumer, settle),
        Value::Double(42.0)
    );
}

/// C6 in the other direction from the bindings::tests version: a P2PS
/// *server* using the UDDI-conversant ServicePublisher, so HTTP-world
/// clients can find P2PS-world services.
#[test]
fn p2ps_server_with_uddi_publisher() {
    let registry = Registry::new();
    let (_network, _rv, mut peers) = p2ps_star(2);
    let (provider, _pb) = p2ps_wspeer(peers.pop().unwrap());
    let (consumer, _cb) = p2ps_wspeer(peers.pop().unwrap());

    // Replace the provider's publisher with the UDDI one, exactly as
    // the paper suggests ("a P2PS Server could use the UDDI conversant
    // ServicePublisher").
    let uddi_binding = HttpUddiBinding::with_local_registry(registry.clone(), EventBus::new());
    provider
        .server()
        .set_publisher(wsp_core::Binding::publisher(&uddi_binding));

    let deployed = provider
        .server()
        .deploy_and_publish(calc_descriptor(), calc_handler())
        .unwrap();
    assert!(deployed.primary_endpoint().unwrap().starts_with("p2ps://"));

    // The record is in UDDI with a p2ps:// access point.
    let uddi = wsp_uddi::UddiClient::direct(registry);
    let records = uddi
        .locate(&ServiceQuery::by_name("Calc").to_uddi())
        .unwrap();
    assert_eq!(records.len(), 1);
    let endpoint = records[0].bindings[0].access_point.clone();
    assert!(endpoint.starts_with("p2ps://"), "{endpoint}");

    // A consumer that knows the WSDL (e.g. via the registry's tModel or
    // the definition pipe) can invoke over P2PS.
    let service =
        wsp_core::LocatedService::new(deployed.wsdl.clone(), endpoint, wsp_core::BindingKind::P2ps);
    let sum = consumer
        .client()
        .invoke(&service, "add", &[Value::Double(1.0), Value::Double(2.0)])
        .unwrap();
    assert_eq!(sum, Value::Double(3.0));
}

/// A dual-homed provider: deployed on both substrates at once; clients
/// on either side find and invoke it through their own mechanisms.
#[test]
fn provider_serves_both_worlds_simultaneously() {
    let registry = Registry::new();
    let (_network, _rv, mut peers) = p2ps_star(2);
    let (p2ps_provider, _pb) = p2ps_wspeer(peers.pop().unwrap());
    let (p2ps_consumer, _cb) = p2ps_wspeer(peers.pop().unwrap());
    let http_binding = HttpUddiBinding::with_local_registry(registry.clone(), EventBus::new());
    let http_provider = Peer::with_binding(&http_binding);

    let handler = calc_handler();
    // Same descriptor + handler deployed through both bindings.
    p2ps_provider
        .server()
        .deploy_and_publish(calc_descriptor(), handler.clone())
        .unwrap();
    http_provider
        .server()
        .deploy_and_publish(calc_descriptor(), handler)
        .unwrap();

    // HTTP-side client.
    let http_consumer = Peer::with_binding(&HttpUddiBinding::with_local_registry(
        registry,
        EventBus::new(),
    ));
    let via_http = http_consumer
        .client()
        .locate_one(&ServiceQuery::by_name("Calc"))
        .unwrap();
    assert_eq!(
        http_consumer
            .client()
            .invoke(&via_http, "add", &[Value::Double(2.0), Value::Double(2.0)])
            .unwrap(),
        Value::Double(4.0)
    );

    // P2PS-side client.
    let via_p2ps = locate_until_found(&p2ps_consumer, &ServiceQuery::by_name("Calc"));
    assert_eq!(
        p2ps_consumer
            .client()
            .invoke(&via_p2ps, "add", &[Value::Double(3.0), Value::Double(3.0)])
            .unwrap(),
        Value::Double(6.0)
    );
    assert_ne!(via_http.endpoint, via_p2ps.endpoint);

    // The advert cache records into the one registry, so after a P2PS
    // lookup the HTTP host's `/metrics` shows its series.
    let port = http_binding
        .host_port()
        .expect("deployment launched the host");
    let metrics = wsp_http::http_call("127.0.0.1", port, wsp_http::Request::get("/metrics"))
        .expect("metrics endpoint");
    for series in ["advert_cache_hits ", "advert_cache_misses "] {
        assert!(metrics.body_str().contains(series), "no {series}line");
    }
}

/// Stateful object exposed through BOTH bindings shares one state.
#[test]
fn shared_stateful_object_across_bindings() {
    use wsp_core::StatefulService;
    let registry = Registry::new();
    let (_network, _rv, mut peers) = p2ps_star(2);
    let (p2ps_provider, _pb) = p2ps_wspeer(peers.pop().unwrap());
    let (p2ps_consumer, _cb) = p2ps_wspeer(peers.pop().unwrap());
    let http_provider = Peer::with_binding(&HttpUddiBinding::with_local_registry(
        registry.clone(),
        EventBus::new(),
    ));

    let counter = Arc::new(std::sync::atomic::AtomicI64::new(0));
    let descriptor = wsp_wsdl::ServiceDescriptor::new("Counter", "urn:wspeer:counter")
        .operation(wsp_wsdl::OperationDef::new("bump").returns(wsp_wsdl::XsdType::Int));
    let handler = StatefulService::wrapping(counter.clone())
        .operation("bump", |c, _| {
            Ok(Value::Int(
                c.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1,
            ))
        })
        .into_handler();

    p2ps_provider
        .server()
        .deploy_and_publish(descriptor.clone(), handler.clone())
        .unwrap();
    http_provider
        .server()
        .deploy_and_publish(descriptor, handler)
        .unwrap();

    let http_consumer = Peer::with_binding(&HttpUddiBinding::with_local_registry(
        registry,
        EventBus::new(),
    ));
    let via_http = http_consumer
        .client()
        .locate_one(&ServiceQuery::by_name("Counter"))
        .unwrap();
    let via_p2ps = locate_until_found(&p2ps_consumer, &ServiceQuery::by_name("Counter"));

    assert_eq!(
        http_consumer
            .client()
            .invoke(&via_http, "bump", &[])
            .unwrap(),
        Value::Int(1)
    );
    assert_eq!(
        p2ps_consumer
            .client()
            .invoke(&via_p2ps, "bump", &[])
            .unwrap(),
        Value::Int(2)
    );
    assert_eq!(
        http_consumer
            .client()
            .invoke(&via_http, "bump", &[])
            .unwrap(),
        Value::Int(3)
    );
}
