//! The event model: WSPeer is "essentially an asynchronous, event
//! driven system in which components subscribe to events and are
//! notified when and if responses are returned" (Section III).
//!
//! The five event kinds mirror the paper's `PeerMessageListener`
//! interface verbatim: discovery, publish, client, server and
//! deployment messages. Every node of the interface tree fires into the
//! same [`EventBus`], which propagates to listeners registered at the
//! `Peer` root.
//!
//! Delivery is **non-blocking with respect to the listener set**: the
//! bus snapshots the listeners before invoking any of them, so a
//! listener may call [`EventBus::add_listener`] (or fire further
//! events) from inside its callback without deadlocking the bus. Each
//! listener is panic-isolated — one throwing listener neither kills
//! the delivering thread nor starves the listeners after it. Callbacks
//! run on the firing thread, before `fire_*` returns (as the paper's
//! Java listeners do); [`crate::Dispatcher::flush`] is the barrier for
//! events fired from pool workers.

use crate::endpoint::LocatedService;
use crate::error::WspError;
use parking_lot::RwLock;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use wsp_soap::Envelope;
use wsp_wsdl::Value;

/// Fired by the `ServiceLocator` when discovery completes or fails.
#[derive(Debug, Clone)]
pub struct DiscoveryMessageEvent {
    /// The correlation token of the locate call (matches the
    /// `CallHandle` token for dispatcher-routed locates).
    pub token: u64,
    pub result: Result<Vec<LocatedService>, WspError>,
}

/// Fired by the `ServicePublisher` after a publish attempt.
#[derive(Debug, Clone)]
pub struct PublishMessageEvent {
    pub service: String,
    /// Where the description was made available (registry key, advert
    /// address, …).
    pub result: Result<String, WspError>,
}

/// Fired by the `Invocation` machinery when a response (or failure)
/// comes back for an asynchronous call.
#[derive(Debug, Clone)]
pub struct ClientMessageEvent {
    /// The correlation token of the invoke call (matches the
    /// `CallHandle` token for dispatcher-routed invokes).
    pub token: u64,
    pub service: String,
    pub operation: String,
    pub result: Result<Value, WspError>,
}

/// Which side of the messaging engine a server message was observed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerPhase {
    /// The raw request, before the engine processes it — the
    /// application may handle it directly (Section III, point 2).
    Inbound,
    /// The response, after the engine produced it.
    Outbound,
}

/// Fired by the `Server` for traffic through hosted services.
#[derive(Debug, Clone)]
pub struct ServerMessageEvent {
    pub service: String,
    pub phase: ServerPhase,
    pub envelope: Envelope,
}

/// Fired by the `ServiceDeployer` when a service is (un)deployed.
#[derive(Debug, Clone)]
pub struct DeploymentMessageEvent {
    pub service: String,
    /// Endpoint URIs now serving the service; empty on undeploy.
    pub endpoints: Vec<String>,
}

/// What a resilience event reports (see [`ResilienceMessageEvent`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResilienceAction {
    /// One transport attempt failed; `will_retry` says whether the
    /// policy grants another.
    AttemptFailed {
        attempt: u32,
        error: String,
        will_retry: bool,
    },
    /// A retryable failure re-resolved via the locator and the next
    /// attempt targets `to` instead of the event's `endpoint`.
    FailedOver { to: String },
    /// The endpoint's circuit breaker tripped (closed → open, or a
    /// failed half-open probe re-opening).
    BreakerTripped,
    /// A half-open probe attempt was admitted against the endpoint.
    BreakerProbe,
    /// A successful probe closed the endpoint's breaker.
    BreakerRecovered,
    /// The per-call deadline expired; no further attempts.
    DeadlineExceeded { after_attempts: u32 },
}

/// Fired by the resilience layer in [`crate::Client`] so applications
/// observe degradation asynchronously — every failed attempt, breaker
/// trip/probe/recovery, failover and deadline expiry, correlated to
/// the invoke call by `token` (Section II's asynchronous interaction
/// with unreliable peers, applied to failure reporting).
#[derive(Debug, Clone)]
pub struct ResilienceMessageEvent {
    /// The correlation token of the invoke call.
    pub token: u64,
    pub service: String,
    /// The endpoint the action concerns (for `FailedOver`, the one
    /// being abandoned).
    pub endpoint: String,
    pub action: ResilienceAction,
}

/// Phase of a host's graceful-drain lifecycle (see
/// [`LifecycleMessageEvent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecyclePhase {
    /// The host stopped accepting new work; in-flight work continues.
    DrainStarted,
    /// Every admitted request finished inside the drain deadline.
    DrainCompleted,
    /// The drain deadline passed with work still in flight; the host
    /// stopped anyway (the only path that drops admitted work besides
    /// an abrupt `shutdown_now`).
    DrainTimedOut,
}

/// Fired by hosts and servers as they drain and stop — the
/// observability half of graceful shutdown, so an application (or an
/// overload episode's trace) can tell a clean drain from a drop.
#[derive(Debug, Clone)]
pub struct LifecycleMessageEvent {
    /// What is draining: a host address (`http://0.0.0.0:8080`) or a
    /// service name for per-service undeploy drains.
    pub subject: String,
    pub phase: LifecyclePhase,
    /// Requests still in flight when the phase was entered.
    pub in_flight: usize,
}

/// The paper's five-method listener interface. All methods default to
/// no-ops so applications implement only what they subscribe to.
#[allow(unused_variables)]
pub trait PeerMessageListener: Send + Sync {
    fn on_discovery(&self, event: &DiscoveryMessageEvent) {}
    fn on_publish(&self, event: &PublishMessageEvent) {}
    fn on_client_message(&self, event: &ClientMessageEvent) {}
    fn on_server_message(&self, event: &ServerMessageEvent) {}
    fn on_deployment(&self, event: &DeploymentMessageEvent) {}
    /// Resilience extension (beyond the paper's five): degradation
    /// signals from the retry/breaker/failover machinery.
    fn on_resilience(&self, event: &ResilienceMessageEvent) {}
    /// Lifecycle extension: drain/shutdown progress of hosts and
    /// services.
    fn on_lifecycle(&self, event: &LifecycleMessageEvent) {}
}

#[derive(Default)]
struct BusInner {
    listeners: RwLock<Vec<Arc<dyn PeerMessageListener>>>,
    listener_panics: AtomicUsize,
}

/// The event fan-out shared by every node in the interface tree.
/// Cloning shares the listener set (events "propagate upwards to the
/// root of the interface tree").
#[derive(Clone, Default)]
pub struct EventBus {
    inner: Arc<BusInner>,
}

impl EventBus {
    pub fn new() -> Self {
        EventBus::default()
    }

    /// Register an application listener. Safe to call from inside a
    /// listener callback; the new listener sees subsequent events.
    pub fn add_listener(&self, listener: Arc<dyn PeerMessageListener>) {
        self.inner.listeners.write().push(listener);
    }

    pub fn listener_count(&self) -> usize {
        self.inner.listeners.read().len()
    }

    /// How many listener callbacks have panicked (and been isolated)
    /// over the bus's lifetime.
    pub fn listener_panics(&self) -> usize {
        self.inner.listener_panics.load(Ordering::SeqCst)
    }

    /// Snapshot the listener set, then hand each listener to `call`
    /// outside any bus lock, isolating panics. The snapshot is what
    /// makes re-entrant listeners (firing events or adding listeners
    /// from a callback) safe.
    fn deliver(&self, call: impl Fn(&dyn PeerMessageListener)) {
        let snapshot: Vec<Arc<dyn PeerMessageListener>> = self.inner.listeners.read().clone();
        for listener in snapshot {
            if catch_unwind(AssertUnwindSafe(|| call(&*listener))).is_err() {
                self.inner.listener_panics.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    /// Build an event and deliver it — only if a listener is registered
    /// to see it. The events fired once per call carry deep copies (a
    /// decoded result, a located service's whole WSDL, an envelope), so
    /// with nobody listening they are not built at all.
    fn fire_with<E>(&self, event: impl FnOnce() -> E, call: impl Fn(&dyn PeerMessageListener, &E)) {
        if self.listener_count() > 0 {
            let event = event();
            self.deliver(|l| call(l, &event));
        }
    }

    pub fn fire_discovery(&self, event: impl FnOnce() -> DiscoveryMessageEvent) {
        self.fire_with(event, |l, e| l.on_discovery(e));
    }

    pub fn fire_publish(&self, event: impl FnOnce() -> PublishMessageEvent) {
        self.fire_with(event, |l, e| l.on_publish(e));
    }

    pub fn fire_client(&self, event: impl FnOnce() -> ClientMessageEvent) {
        self.fire_with(event, |l, e| l.on_client_message(e));
    }

    pub fn fire_server(&self, event: &ServerMessageEvent) {
        self.deliver(|l| l.on_server_message(event));
    }

    /// [`EventBus::fire_server`] for the request path, where building
    /// the event means deep-cloning an envelope: `event` is only called
    /// if a listener is registered to see the result.
    pub fn fire_server_with(&self, event: impl FnOnce() -> ServerMessageEvent) {
        self.fire_with(event, |l, e| l.on_server_message(e));
    }

    pub fn fire_deployment(&self, event: &DeploymentMessageEvent) {
        self.deliver(|l| l.on_deployment(event));
    }

    pub fn fire_resilience(&self, event: &ResilienceMessageEvent) {
        self.deliver(|l| l.on_resilience(event));
    }

    pub fn fire_lifecycle(&self, event: &LifecycleMessageEvent) {
        self.deliver(|l| l.on_lifecycle(event));
    }
}

/// A listener that records everything — used by tests and examples to
/// observe the asynchronous flows.
#[derive(Default)]
pub struct CollectingListener {
    pub discoveries: RwLock<Vec<DiscoveryMessageEvent>>,
    pub publishes: RwLock<Vec<PublishMessageEvent>>,
    pub client_messages: RwLock<Vec<ClientMessageEvent>>,
    pub server_messages: RwLock<Vec<ServerMessageEvent>>,
    pub deployments: RwLock<Vec<DeploymentMessageEvent>>,
    pub resilience: RwLock<Vec<ResilienceMessageEvent>>,
    pub lifecycle: RwLock<Vec<LifecycleMessageEvent>>,
}

impl CollectingListener {
    pub fn new() -> Arc<Self> {
        Arc::new(CollectingListener::default())
    }

    /// Total events observed.
    pub fn total(&self) -> usize {
        self.discoveries.read().len()
            + self.publishes.read().len()
            + self.client_messages.read().len()
            + self.server_messages.read().len()
            + self.deployments.read().len()
            + self.resilience.read().len()
            + self.lifecycle.read().len()
    }

    /// The discovery event carrying `token`, if it has arrived.
    pub fn discovery_for(&self, token: u64) -> Option<DiscoveryMessageEvent> {
        self.discoveries
            .read()
            .iter()
            .find(|e| e.token == token)
            .cloned()
    }

    /// The client-message event carrying `token`, if it has arrived.
    pub fn client_message_for(&self, token: u64) -> Option<ClientMessageEvent> {
        self.client_messages
            .read()
            .iter()
            .find(|e| e.token == token)
            .cloned()
    }

    /// All resilience events for call `token`, in fire order.
    pub fn resilience_for(&self, token: u64) -> Vec<ResilienceMessageEvent> {
        self.resilience
            .read()
            .iter()
            .filter(|e| e.token == token)
            .cloned()
            .collect()
    }
}

impl PeerMessageListener for CollectingListener {
    fn on_discovery(&self, event: &DiscoveryMessageEvent) {
        self.discoveries.write().push(event.clone());
    }

    fn on_publish(&self, event: &PublishMessageEvent) {
        self.publishes.write().push(event.clone());
    }

    fn on_client_message(&self, event: &ClientMessageEvent) {
        self.client_messages.write().push(event.clone());
    }

    fn on_server_message(&self, event: &ServerMessageEvent) {
        self.server_messages.write().push(event.clone());
    }

    fn on_deployment(&self, event: &DeploymentMessageEvent) {
        self.deployments.write().push(event.clone());
    }

    fn on_resilience(&self, event: &ResilienceMessageEvent) {
        self.resilience.write().push(event.clone());
    }

    fn on_lifecycle(&self, event: &LifecycleMessageEvent) {
        self.lifecycle.write().push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listeners_receive_fired_events() {
        let bus = EventBus::new();
        let listener = CollectingListener::new();
        bus.add_listener(listener.clone());
        bus.fire_deployment(&DeploymentMessageEvent {
            service: "Echo".into(),
            endpoints: vec!["http://h/Echo".into()],
        });
        bus.fire_publish(|| PublishMessageEvent {
            service: "Echo".into(),
            result: Ok("uuid:svc-1".into()),
        });
        assert_eq!(listener.deployments.read().len(), 1);
        assert_eq!(listener.publishes.read().len(), 1);
        assert_eq!(listener.total(), 2);
    }

    #[test]
    fn cloned_bus_shares_listeners() {
        let bus = EventBus::new();
        let cloned = bus.clone();
        let listener = CollectingListener::new();
        bus.add_listener(listener.clone());
        assert_eq!(cloned.listener_count(), 1);
        cloned.fire_discovery(|| DiscoveryMessageEvent {
            token: 1,
            result: Ok(vec![]),
        });
        assert_eq!(listener.discoveries.read().len(), 1);
    }

    #[test]
    fn multiple_listeners_all_notified() {
        let bus = EventBus::new();
        let a = CollectingListener::new();
        let b = CollectingListener::new();
        bus.add_listener(a.clone());
        bus.add_listener(b.clone());
        bus.fire_client(|| ClientMessageEvent {
            token: 9,
            service: "Echo".into(),
            operation: "echoString".into(),
            result: Ok(Value::string("hi")),
        });
        assert_eq!(a.client_messages.read().len(), 1);
        assert_eq!(b.client_messages.read().len(), 1);
    }

    #[test]
    fn resilience_events_reach_listeners_in_order() {
        let bus = EventBus::new();
        let listener = CollectingListener::new();
        bus.add_listener(listener.clone());
        let fire = |action: ResilienceAction| {
            bus.fire_resilience(&ResilienceMessageEvent {
                token: 7,
                service: "Echo".into(),
                endpoint: "http://a/Echo".into(),
                action,
            });
        };
        fire(ResilienceAction::AttemptFailed {
            attempt: 1,
            error: "transport failed: refused".into(),
            will_retry: true,
        });
        fire(ResilienceAction::BreakerTripped);
        fire(ResilienceAction::FailedOver {
            to: "http://b/Echo".into(),
        });
        let seen = listener.resilience_for(7);
        assert_eq!(seen.len(), 3);
        assert!(matches!(
            seen[0].action,
            ResilienceAction::AttemptFailed { attempt: 1, .. }
        ));
        assert_eq!(seen[1].action, ResilienceAction::BreakerTripped);
        assert!(listener.resilience_for(8).is_empty());
        assert_eq!(listener.total(), 3);
    }

    #[test]
    fn lifecycle_events_reach_listeners() {
        let bus = EventBus::new();
        let listener = CollectingListener::new();
        bus.add_listener(listener.clone());
        bus.fire_lifecycle(&LifecycleMessageEvent {
            subject: "http://0.0.0.0:9000".into(),
            phase: LifecyclePhase::DrainStarted,
            in_flight: 3,
        });
        bus.fire_lifecycle(&LifecycleMessageEvent {
            subject: "http://0.0.0.0:9000".into(),
            phase: LifecyclePhase::DrainCompleted,
            in_flight: 0,
        });
        let seen = listener.lifecycle.read();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].phase, LifecyclePhase::DrainStarted);
        assert_eq!(seen[1].phase, LifecyclePhase::DrainCompleted);
        assert_eq!(listener.total(), 2);
    }

    #[test]
    fn default_listener_methods_are_noops() {
        struct OnlyDiscovery;
        impl PeerMessageListener for OnlyDiscovery {}
        let bus = EventBus::new();
        bus.add_listener(Arc::new(OnlyDiscovery));
        // Firing other kinds must not panic.
        bus.fire_server(&ServerMessageEvent {
            service: "S".into(),
            phase: ServerPhase::Inbound,
            envelope: Envelope::empty(),
        });
    }

    fn deployment(service: &str) -> DeploymentMessageEvent {
        DeploymentMessageEvent {
            service: service.into(),
            endpoints: vec![],
        }
    }

    #[test]
    fn reentrant_listener_can_add_listeners_and_fire_events() {
        // Before the snapshot rework this deadlocked: delivery held the
        // listener read lock while the callback needed the write lock.
        struct Reentrant {
            bus: EventBus,
            seen: CollectingListener,
        }
        impl PeerMessageListener for Reentrant {
            fn on_deployment(&self, event: &DeploymentMessageEvent) {
                self.seen.on_deployment(event);
                if event.service == "first" {
                    self.bus.add_listener(CollectingListener::new());
                    self.bus.fire_publish(|| PublishMessageEvent {
                        service: event.service.clone(),
                        result: Ok("nested".into()),
                    });
                }
            }
            fn on_publish(&self, event: &PublishMessageEvent) {
                self.seen.on_publish(event);
            }
        }
        let bus = EventBus::new();
        let listener = Arc::new(Reentrant {
            bus: bus.clone(),
            seen: CollectingListener::default(),
        });
        bus.add_listener(listener.clone());
        bus.fire_deployment(&deployment("first"));
        assert_eq!(listener.seen.deployments.read().len(), 1);
        assert_eq!(
            listener.seen.publishes.read().len(),
            1,
            "nested fire delivered"
        );
        assert_eq!(bus.listener_count(), 2, "listener added from a callback");
    }

    #[test]
    fn panicking_listener_is_isolated() {
        struct Bomb;
        impl PeerMessageListener for Bomb {
            fn on_deployment(&self, _: &DeploymentMessageEvent) {
                panic!("listener bug");
            }
        }
        let bus = EventBus::new();
        let after = CollectingListener::new();
        bus.add_listener(Arc::new(Bomb));
        bus.add_listener(after.clone());
        bus.fire_deployment(&deployment("S"));
        bus.fire_deployment(&deployment("T"));
        assert_eq!(
            after.deployments.read().len(),
            2,
            "listeners after the bomb still run"
        );
        assert_eq!(bus.listener_panics(), 2);
    }

    fn server_event(service: &str) -> ServerMessageEvent {
        ServerMessageEvent {
            service: service.into(),
            phase: ServerPhase::Inbound,
            envelope: wsp_soap::Envelope::request(wsp_xml::Element::new("urn:t", "op")),
        }
    }

    /// The per-call events (client, discovery, publish) deep-copy their
    /// results: with no listener the closure that would is not run.
    #[test]
    fn per_call_events_are_not_built_for_nobody() {
        let bus = EventBus::new();
        let built = std::cell::Cell::new(0);
        let fire_all = || {
            bus.fire_client(|| {
                built.set(built.get() + 1);
                ClientMessageEvent {
                    token: 1,
                    service: "S".into(),
                    operation: "op".into(),
                    result: Ok(Value::Null),
                }
            });
            bus.fire_discovery(|| {
                built.set(built.get() + 1);
                DiscoveryMessageEvent {
                    token: 1,
                    result: Ok(vec![]),
                }
            });
            bus.fire_publish(|| {
                built.set(built.get() + 1);
                PublishMessageEvent {
                    service: "S".into(),
                    result: Ok("key".into()),
                }
            });
        };
        fire_all();
        assert_eq!(built.get(), 0, "no listener, nothing to build");

        let listener = CollectingListener::new();
        bus.add_listener(listener.clone());
        fire_all();
        assert_eq!(built.get(), 3);
        assert_eq!(listener.total(), 3);
    }

    #[test]
    fn lazy_server_event_is_not_built_for_nobody_in_immediate_mode() {
        let bus = EventBus::new();
        let built = std::cell::Cell::new(0);
        let build = || {
            built.set(built.get() + 1);
            server_event("S")
        };
        bus.fire_server_with(build);
        assert_eq!(built.get(), 0, "no listener, nothing to build");

        let listener = CollectingListener::new();
        bus.add_listener(listener.clone());
        bus.fire_server_with(build);
        assert_eq!(built.get(), 1);
        assert_eq!(listener.server_messages.read().len(), 1);
    }
}
