//! The root of the interface tree: a WSPeer `Peer` is simultaneously a
//! service provider and a service consumer (Figure 2).

use crate::client::Client;
use crate::components::Binding;
use crate::dispatch::{Dispatcher, DispatcherConfig};
use crate::events::{EventBus, PeerMessageListener};
use crate::server::Server;
use std::sync::Arc;

/// A service-oriented peer: one `Client`, one `Server`, one event bus,
/// one [`Dispatcher`].
///
/// All events fired anywhere in the tree propagate here; applications
/// implement [`PeerMessageListener`] and register with
/// [`Peer::add_listener`]. All work submitted anywhere in the tree —
/// client calls, binding request serving — runs on the one shared
/// dispatch core, visible through [`Peer::dispatcher`].
pub struct Peer {
    client: Arc<Client>,
    server: Arc<Server>,
    events: EventBus,
    dispatcher: Arc<Dispatcher>,
}

impl Peer {
    /// An empty peer — plug components in before use.
    pub fn new() -> Peer {
        Peer::with_event_bus(EventBus::new())
    }

    /// A peer firing into an existing bus — one the application has
    /// already registered listeners on, or shares between peers.
    pub fn with_event_bus(events: EventBus) -> Peer {
        Peer::with_parts(events, Dispatcher::new(DispatcherConfig::default()))
    }

    /// Full control: an existing bus *and* an existing dispatch core
    /// (e.g. one sized for a benchmark, or shared across peers).
    pub fn with_parts(events: EventBus, dispatcher: Arc<Dispatcher>) -> Peer {
        Peer {
            client: Client::with_dispatcher(events.clone(), dispatcher.clone()),
            server: Server::with_dispatcher(events.clone(), dispatcher.clone()),
            events,
            dispatcher,
        }
    }

    /// A peer wired to one substrate. Figures 3 and 4 differ *only* in
    /// the binding handed to this constructor.
    pub fn with_binding(binding: &dyn Binding) -> Peer {
        let peer = Peer::new();
        peer.attach(binding);
        peer
    }

    /// Plug a binding's four components into the tree. May be called
    /// again (or per-component setters used) to re-bind at runtime.
    /// Hands the binding the server's hosting core (and with it the
    /// shared dispatcher) via [`Binding::on_attach`].
    pub fn attach(&self, binding: &dyn Binding) {
        self.client.set_locator(binding.locator());
        self.client.add_invoker(binding.invoker());
        self.server.set_deployer(binding.deployer());
        self.server.set_publisher(binding.publisher());
        binding.on_attach(self.server.hosting());
    }

    /// The shared dispatch core for this peer's whole tree.
    pub fn dispatcher(&self) -> &Arc<Dispatcher> {
        &self.dispatcher
    }

    pub fn client(&self) -> &Arc<Client> {
        &self.client
    }

    /// The per-endpoint circuit-breaker registry maintained by this
    /// peer's client (see `wsp_core::health`).
    pub fn health(&self) -> &Arc<crate::health::EndpointHealth> {
        self.client.health()
    }

    /// The process-wide telemetry registry this peer's dispatch core,
    /// client and bindings record into (see `wsp_core::telemetry`).
    /// Process-wide because correlation tokens are process-unique: one
    /// trace reconstructs a call across every peer in the process.
    pub fn telemetry(&self) -> &'static crate::telemetry::Telemetry {
        crate::telemetry::global()
    }

    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Register an application listener for all five event kinds.
    pub fn add_listener(&self, listener: Arc<dyn PeerMessageListener>) {
        self.events.add_listener(listener);
    }

    /// The shared event bus every node of the tree fires into.
    pub fn events(&self) -> &EventBus {
        &self.events
    }
}

impl Default for Peer {
    fn default() -> Self {
        Peer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::CollectingListener;

    #[test]
    fn peer_shares_one_bus_across_the_tree() {
        let peer = Peer::new();
        let listener = CollectingListener::new();
        peer.add_listener(listener.clone());
        assert_eq!(peer.events().listener_count(), 1);
        // Client and Server fire into the same bus; their unit tests
        // cover the firing, here we check the wiring identity.
        peer.events()
            .fire_deployment(&crate::events::DeploymentMessageEvent {
                service: "S".into(),
                endpoints: vec![],
            });
        assert_eq!(listener.deployments.read().len(), 1);
    }

    #[test]
    fn peer_shares_one_dispatcher_across_the_tree() {
        let peer = Peer::new();
        assert!(Arc::ptr_eq(peer.dispatcher(), peer.client().dispatcher()));
        assert!(Arc::ptr_eq(peer.dispatcher(), peer.server().dispatcher()));
        // Work submitted through the client shows up in the peer's stats.
        let handle = peer.dispatcher().submit(|| 1 + 1).unwrap();
        assert_eq!(handle.wait(), 2);
        assert_eq!(peer.dispatcher().stats().submitted, 1);
    }
}
