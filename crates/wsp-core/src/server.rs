//! The server side of the interface tree: deployment and publication.

use crate::components::{ServiceDeployer, ServicePublisher};
use crate::dispatch::Dispatcher;
use crate::endpoint::DeployedService;
use crate::error::WspError;
use crate::events::{
    DeploymentMessageEvent, EventBus, LifecycleMessageEvent, LifecyclePhase, PublishMessageEvent,
};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use wsp_wsdl::{ServiceDescriptor, ServiceHandler};

/// The `Server` node: owns pluggable [`ServiceDeployer`] and
/// [`ServicePublisher`] components and tracks what this peer hosts.
///
/// There is no container here: the application deploys descriptors and
/// handlers at runtime, "in effect allowing the component to become its
/// own container" (Section III, point 2).
pub struct Server {
    deployer: RwLock<Option<Arc<dyn ServiceDeployer>>>,
    publisher: RwLock<Option<Arc<dyn ServicePublisher>>>,
    deployed: RwLock<HashMap<String, DeployedService>>,
    events: EventBus,
    dispatcher: Arc<Dispatcher>,
}

impl Server {
    /// A standalone server with its own default-sized dispatcher.
    /// Inside a [`crate::Peer`] the dispatcher is shared instead — see
    /// [`Server::with_dispatcher`].
    pub fn new(events: EventBus) -> Arc<Server> {
        Server::with_dispatcher(events, Dispatcher::with_defaults())
    }

    pub fn with_dispatcher(events: EventBus, dispatcher: Arc<Dispatcher>) -> Arc<Server> {
        Arc::new(Server {
            deployer: RwLock::new(None),
            publisher: RwLock::new(None),
            deployed: RwLock::new(HashMap::new()),
            events,
            dispatcher,
        })
    }

    /// The dispatch core shared with the rest of the peer's tree;
    /// deployed request handling submitted by bindings runs here.
    pub fn dispatcher(&self) -> &Arc<Dispatcher> {
        &self.dispatcher
    }

    pub fn set_deployer(&self, deployer: Arc<dyn ServiceDeployer>) {
        *self.deployer.write() = Some(deployer);
    }

    pub fn set_publisher(&self, publisher: Arc<dyn ServicePublisher>) {
        *self.publisher.write() = Some(publisher);
    }

    /// Deploy a service: generate its description, create an
    /// addressable endpoint, and start answering. Fires a
    /// [`DeploymentMessageEvent`].
    pub fn deploy(
        &self,
        descriptor: ServiceDescriptor,
        handler: Arc<dyn ServiceHandler>,
    ) -> Result<DeployedService, WspError> {
        let deployer = self
            .deployer
            .read()
            .clone()
            .ok_or_else(|| WspError::Deploy("no ServiceDeployer plugged in".into()))?;
        let deployed = deployer.deploy(descriptor, handler)?;
        self.deployed
            .write()
            .insert(deployed.name().to_owned(), deployed.clone());
        self.events.fire_deployment(&DeploymentMessageEvent {
            service: deployed.name().to_owned(),
            endpoints: deployed.endpoints.clone(),
        });
        Ok(deployed)
    }

    /// Publish a deployed service's description to the network. Fires a
    /// [`PublishMessageEvent`].
    pub fn publish(&self, service: &str) -> Result<String, WspError> {
        let publisher = self
            .publisher
            .read()
            .clone()
            .ok_or_else(|| WspError::Publish("no ServicePublisher plugged in".into()))?;
        let deployed = self
            .deployed
            .read()
            .get(service)
            .cloned()
            .ok_or_else(|| WspError::Publish(format!("{service:?} is not deployed")))?;
        let result = publisher.publish(&deployed);
        self.events.fire_publish(&PublishMessageEvent {
            service: service.to_owned(),
            result: result.clone(),
        });
        result
    }

    /// Deploy then publish in one step — the common path in Figures 3
    /// and 4.
    pub fn deploy_and_publish(
        &self,
        descriptor: ServiceDescriptor,
        handler: Arc<dyn ServiceHandler>,
    ) -> Result<DeployedService, WspError> {
        let deployed = self.deploy(descriptor, handler)?;
        self.publish(deployed.name())?;
        Ok(deployed)
    }

    /// Take a service down: withdraw the publication and remove the
    /// endpoint. True if it was deployed. Fires a deployment event with
    /// no endpoints.
    pub fn undeploy(&self, service: &str) -> bool {
        let existed = self.deployed.write().remove(service).is_some();
        if !existed {
            return false;
        }
        if let Some(publisher) = self.publisher.read().clone() {
            publisher.unpublish(service);
        }
        if let Some(deployer) = self.deployer.read().clone() {
            deployer.undeploy(service);
        }
        self.events.fire_deployment(&DeploymentMessageEvent {
            service: service.to_owned(),
            endpoints: vec![],
        });
        true
    }

    /// Drain-mode undeploy: withdraw the publication and the endpoint
    /// first — no *new* work can arrive — then wait (helping run jobs)
    /// for everything already submitted to the shared dispatcher to
    /// finish, up to `drain_deadline`. Nothing admitted is dropped;
    /// plain [`undeploy`](Server::undeploy) remains the abrupt path.
    ///
    /// Fires [`LifecycleMessageEvent`]s around the wait
    /// (`DrainStarted`, then `DrainCompleted` or `DrainTimedOut`) in
    /// addition to the usual no-endpoint deployment event. Returns
    /// `true` when the service existed *and* the dispatcher went idle
    /// inside the deadline.
    pub fn undeploy_graceful(&self, service: &str, drain_deadline: Duration) -> bool {
        if !self.undeploy(service) {
            return false;
        }
        let stats = self.dispatcher.stats();
        self.events.fire_lifecycle(&LifecycleMessageEvent {
            subject: service.to_owned(),
            phase: LifecyclePhase::DrainStarted,
            in_flight: stats.in_flight + stats.queue_depth,
        });
        let drained = self.dispatcher.flush_within(drain_deadline);
        let remaining = self.dispatcher.stats();
        self.events.fire_lifecycle(&LifecycleMessageEvent {
            subject: service.to_owned(),
            phase: if drained {
                LifecyclePhase::DrainCompleted
            } else {
                LifecyclePhase::DrainTimedOut
            },
            in_flight: remaining.in_flight + remaining.queue_depth,
        });
        drained
    }

    /// The services this peer currently hosts.
    pub fn deployed_services(&self) -> Vec<DeployedService> {
        self.deployed.read().values().cloned().collect()
    }

    pub fn deployed_service(&self, name: &str) -> Option<DeployedService> {
        self.deployed.read().get(name).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::CollectingListener;
    use wsp_wsdl::{Value, WsdlDocument};

    struct StubDeployer;
    impl ServiceDeployer for StubDeployer {
        fn deploy(
            &self,
            descriptor: ServiceDescriptor,
            _handler: Arc<dyn ServiceHandler>,
        ) -> Result<DeployedService, WspError> {
            let endpoint = format!("test://here/{}", descriptor.name);
            let wsdl = WsdlDocument::new(descriptor.clone(), vec![]);
            Ok(DeployedService {
                descriptor,
                endpoints: vec![endpoint],
                wsdl,
            })
        }
        fn undeploy(&self, _service: &str) -> bool {
            true
        }
        fn kind(&self) -> &'static str {
            "stub"
        }
    }

    struct StubPublisher;
    impl ServicePublisher for StubPublisher {
        fn publish(&self, service: &DeployedService) -> Result<String, WspError> {
            Ok(format!("published:{}", service.name()))
        }
        fn unpublish(&self, _service: &str) -> bool {
            true
        }
        fn kind(&self) -> &'static str {
            "stub"
        }
    }

    fn echo_handler() -> Arc<dyn ServiceHandler> {
        Arc::new(|_op: &str, args: &[Value]| Ok(args.first().cloned().unwrap_or(Value::Null)))
    }

    fn wired_server() -> (Arc<Server>, Arc<CollectingListener>) {
        let events = EventBus::new();
        let listener = CollectingListener::new();
        events.add_listener(listener.clone());
        let server = Server::new(events);
        server.set_deployer(Arc::new(StubDeployer));
        server.set_publisher(Arc::new(StubPublisher));
        (server, listener)
    }

    #[test]
    fn deploy_tracks_and_fires() {
        let (server, listener) = wired_server();
        let deployed = server
            .deploy(ServiceDescriptor::echo(), echo_handler())
            .unwrap();
        assert_eq!(deployed.endpoints, vec!["test://here/Echo"]);
        assert_eq!(server.deployed_services().len(), 1);
        assert_eq!(listener.deployments.read().len(), 1);
        assert_eq!(listener.deployments.read()[0].endpoints.len(), 1);
    }

    #[test]
    fn publish_requires_prior_deploy() {
        let (server, listener) = wired_server();
        assert!(matches!(server.publish("Ghost"), Err(WspError::Publish(_))));
        server
            .deploy(ServiceDescriptor::echo(), echo_handler())
            .unwrap();
        assert_eq!(server.publish("Echo").unwrap(), "published:Echo");
        assert_eq!(listener.publishes.read().len(), 1);
    }

    #[test]
    fn deploy_and_publish_combined() {
        let (server, listener) = wired_server();
        server
            .deploy_and_publish(ServiceDescriptor::echo(), echo_handler())
            .unwrap();
        assert_eq!(listener.deployments.read().len(), 1);
        assert_eq!(listener.publishes.read().len(), 1);
    }

    #[test]
    fn undeploy_cleans_up_and_fires() {
        let (server, listener) = wired_server();
        server
            .deploy(ServiceDescriptor::echo(), echo_handler())
            .unwrap();
        assert!(server.undeploy("Echo"));
        assert!(!server.undeploy("Echo"));
        assert!(server.deployed_services().is_empty());
        let deployments = listener.deployments.read();
        assert_eq!(deployments.len(), 2);
        assert!(deployments[1].endpoints.is_empty());
    }

    #[test]
    fn graceful_undeploy_drains_and_fires_lifecycle_events() {
        let (server, listener) = wired_server();
        server
            .deploy(ServiceDescriptor::echo(), echo_handler())
            .unwrap();
        // Leave some slow work on the dispatcher: drain must outwait it.
        let ran = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = ran.clone();
        server
            .dispatcher()
            .execute(move || {
                std::thread::sleep(Duration::from_millis(30));
                flag.store(true, std::sync::atomic::Ordering::SeqCst);
            })
            .unwrap();
        assert!(server.undeploy_graceful("Echo", Duration::from_secs(5)));
        assert!(
            ran.load(std::sync::atomic::Ordering::SeqCst),
            "queued work finished before drain returned"
        );
        let lifecycle = listener.lifecycle.read();
        assert_eq!(lifecycle.len(), 2);
        assert_eq!(lifecycle[0].phase, LifecyclePhase::DrainStarted);
        assert_eq!(lifecycle[1].phase, LifecyclePhase::DrainCompleted);
        assert_eq!(lifecycle[1].in_flight, 0);
    }

    #[test]
    fn graceful_undeploy_times_out_on_stuck_work() {
        let (server, listener) = wired_server();
        server
            .deploy(ServiceDescriptor::echo(), echo_handler())
            .unwrap();
        // Work that outlives any reasonable drain deadline.
        let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let hold = gate.clone();
        server
            .dispatcher()
            .execute(move || {
                while !hold.load(std::sync::atomic::Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
            .unwrap();
        assert!(!server.undeploy_graceful("Echo", Duration::from_millis(40)));
        assert_eq!(
            listener.lifecycle.read().last().unwrap().phase,
            LifecyclePhase::DrainTimedOut
        );
        gate.store(true, std::sync::atomic::Ordering::SeqCst);
        server.dispatcher().flush();
    }

    #[test]
    fn graceful_undeploy_of_missing_service_is_false() {
        let (server, listener) = wired_server();
        assert!(!server.undeploy_graceful("Ghost", Duration::from_millis(10)));
        assert!(listener.lifecycle.read().is_empty());
    }

    #[test]
    fn missing_components_error() {
        let server = Server::new(EventBus::new());
        assert!(matches!(
            server.deploy(ServiceDescriptor::echo(), echo_handler()),
            Err(WspError::Deploy(_))
        ));
    }
}
