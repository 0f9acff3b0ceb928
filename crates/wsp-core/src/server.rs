//! The server side of the interface tree: deployment, publication and
//! the hosting pipeline.
//!
//! Everything about hosting that does not depend on the substrate lives
//! here, once per peer: the table of [`HostedService`]s, the admission
//! gate, and the pipeline every request to a hosted service runs
//! through — [`Hosting::admit`] at the edge, then [`Hosting::serve`].
//! A [`ServiceDeployer`] only carries: it names the port, and opens and
//! closes the endpoint that maps its wire to those two calls.

use crate::components::{ServiceDeployer, ServicePublisher};
use crate::dispatch::Dispatcher;
use crate::endpoint::DeployedService;
use crate::error::WspError;
use crate::events::{
    DeploymentMessageEvent, EventBus, LifecycleMessageEvent, LifecyclePhase, PublishMessageEvent,
    ServerMessageEvent, ServerPhase,
};
use crate::overload::{
    DeadlineScope, KeyedAdmissionController, KeyedAdmissionPermit, KeyedLoadShedPolicy,
    ANONYMOUS_TENANT,
};
use crate::telemetry::{self, CorrelationScope, Histogram};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt::Write;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use wsp_soap::codec::SoapError;
use wsp_soap::{Envelope, HeaderBlock, MessageHeaders};
use wsp_wsdl::{
    MessageEngine, Port, ServiceDescriptor, ServiceHandler, TypedRequest, WsdlDocument,
};
use wsp_xml::Element;

/// One deployment: the contract, the engine bound to its handler, and
/// the description rendered once. Built by [`Server::deploy`], kept in
/// the peer's one service table, and handed to the deployer's endpoint
/// to be served through [`Hosting::serve`].
pub struct HostedService {
    deployed: DeployedService,
    engine: MessageEngine,
    wsdl_xml: String,
    wsdl_element: OnceLock<Element>,
}

impl HostedService {
    fn new(descriptor: ServiceDescriptor, handler: Arc<dyn ServiceHandler>, port: Port) -> Self {
        let endpoint = port.location.clone();
        let wsdl = WsdlDocument::new(descriptor.clone(), vec![port]);
        HostedService {
            wsdl_xml: wsdl.to_xml(),
            wsdl_element: OnceLock::new(),
            engine: MessageEngine::new(descriptor.clone(), handler),
            deployed: DeployedService {
                descriptor,
                endpoints: vec![endpoint],
                wsdl,
            },
        }
    }

    pub fn name(&self) -> &str {
        self.deployed.name()
    }

    /// The handle the application got back from [`Server::deploy`].
    pub fn deployed(&self) -> &DeployedService {
        &self.deployed
    }

    /// The WSDL document as served at `endpoint?wsdl`.
    pub fn wsdl_xml(&self) -> &str {
        &self.wsdl_xml
    }

    /// The same document as a tree, for substrates that ship it inside
    /// an envelope (the P2PS definition pipe). Read back from
    /// [`Self::wsdl_xml`] on first use, so both forms are one document.
    pub fn wsdl_element(&self) -> &Element {
        self.wsdl_element
            .get_or_init(|| wsp_xml::parse(&self.wsdl_xml).expect("generated WSDL is well-formed"))
    }
}

/// A request as the substrate hands it to [`Hosting::serve`].
#[allow(clippy::large_enum_variant)] // moved once; a box would be an allocation per request
pub enum Incoming<'a> {
    /// The envelope's XML as it came off the wire.
    Xml(&'a str),
    /// Already read, by a substrate that had to see the headers first,
    /// from the XML beside it (which a listener is shown).
    Read(TypedRequest, &'a str),
}

/// What serving one request produced.
pub enum Served {
    /// The operation's response: wire bytes in a pooled buffer, written
    /// from the envelope the application saw or (typed) without one.
    Reply(Vec<u8>),
    /// A SOAP fault: the engine's (unknown operation, bad argument, the
    /// handler's own) or, for a request that did not decode, the codec's.
    Fault(Vec<u8>),
    /// A one-way operation: nothing goes back.
    OneWay,
}

impl Served {
    /// The SOAP-over-HTTP status of this outcome, which is also what
    /// the `server.response` span reports on every substrate.
    pub fn status(&self) -> u16 {
        match self {
            Served::Reply(_) => 200,
            Served::Fault(_) => 500,
            Served::OneWay => 202,
        }
    }

    /// What to send back, if anything.
    pub fn into_bytes(self) -> Option<Vec<u8>> {
        match self {
            Served::Reply(bytes) | Served::Fault(bytes) => Some(bytes),
            Served::OneWay => None,
        }
    }
}

/// The hosting core of one peer: its service table, its admission gate
/// and the pipeline requests run through, against the peer's own bus
/// and dispatcher. The [`Server`] owns it; bindings are handed it
/// ([`crate::Binding::on_attach`], [`ServiceDeployer::open`]) and may
/// keep it — it holds no component, so there is no cycle.
pub struct Hosting {
    events: EventBus,
    dispatcher: Arc<Dispatcher>,
    /// One gate for everything this peer hosts, whatever carried the
    /// request here. A host is one tenant: every request is admitted
    /// against the [`ANONYMOUS_TENANT`] slot.
    admission: RwLock<KeyedAdmissionController>,
    services: RwLock<HashMap<String, Arc<HostedService>>>,
    serve_us: Arc<Histogram>,
}

impl Hosting {
    pub(crate) fn new(events: EventBus, dispatcher: Arc<Dispatcher>) -> Arc<Hosting> {
        Arc::new(Hosting {
            events,
            dispatcher,
            admission: RwLock::new(KeyedAdmissionController::new(
                KeyedLoadShedPolicy::unlimited(),
            )),
            services: RwLock::new(HashMap::new()),
            serve_us: telemetry::global().histogram("server.serve_us"),
        })
    }

    /// The peer's dispatch core: a substrate that receives requests on
    /// a thread it must not block runs [`Hosting::serve`] here.
    pub fn dispatcher(&self) -> &Arc<Dispatcher> {
        &self.dispatcher
    }

    /// The deployment called `name`, if this peer hosts one.
    pub fn service(&self, name: &str) -> Option<Arc<HostedService>> {
        self.services.read().get(name).cloned()
    }

    /// The edge of the pipeline: record the request's arrival and ask
    /// the gate — in-flight cap, the dispatcher's queue depth, an
    /// already-expired `deadline`. The permit spans the serve (RAII); a
    /// shed is [`WspError::Overloaded`] with the retry hint, for the
    /// substrate to put on its wire.
    pub fn admit(
        &self,
        service: &HostedService,
        correlation: u64,
        deadline: Option<Instant>,
    ) -> Result<KeyedAdmissionPermit, WspError> {
        let registry = telemetry::global();
        let name = service.name();
        registry.span(
            correlation,
            "server.request",
            format_args!("service={name}"),
        );
        self.admission
            .read()
            .try_admit_at(ANONYMOUS_TENANT, self.dispatcher.queue_depth(), deadline)
            .inspect_err(|error| {
                registry.span(
                    correlation,
                    "server.shed",
                    format_args!("service={name} error={error}"),
                );
            })
    }

    /// Read a request to `service` off the wire — one reader, whoever
    /// listens. `foreign` sees every header block that is not a
    /// WS-Addressing header the engine reads, once. A request the engine
    /// refuses still carries the headers it was read under, so a
    /// substrate that routes replies by them (P2PS `ReplyTo`) routes its
    /// fault; `Err` is a document that is not a SOAP envelope at all.
    pub fn read(
        &self,
        service: &HostedService,
        xml: &str,
        foreign: &mut dyn FnMut(&HeaderBlock),
    ) -> Result<TypedRequest, SoapError> {
        service.engine.read_request(xml, foreign)
    }

    /// Serve one admitted request. Everything fired or invoked from
    /// here runs under the caller's correlation token (one id
    /// reconstructs the round trip) and what is left of its budget (a
    /// nested call inherits it); the application sees the request
    /// before the engine and the response after it (Section III,
    /// point 2). A substrate that addresses replies itself passes its
    /// headers as `readdress`: they replace the engine's on what comes
    /// back, after the application has seen the engine's.
    pub fn serve(
        &self,
        service: &HostedService,
        request: Incoming<'_>,
        readdress: Option<&MessageHeaders>,
        correlation: u64,
        deadline: Option<Instant>,
        permit: KeyedAdmissionPermit,
    ) -> Served {
        let _permit = permit;
        let _correlation = CorrelationScope::enter(correlation);
        let _deadline = DeadlineScope::enter(deadline);
        let registry = telemetry::global();
        let started = Instant::now();
        let name = service.name();
        let (request, xml) = match request {
            Incoming::Read(request, xml) => (request, xml),
            Incoming::Xml(xml) => match self.read(service, xml, &mut |_| {}) {
                Ok(request) => (request, xml),
                Err(e) => {
                    registry.span(
                        correlation,
                        "server.fault",
                        format_args!("service={name} error={e}"),
                    );
                    return Served::Fault(Envelope::fault(e.to_fault()).to_xml_bytes());
                }
            },
        };
        let served = self.answer(service, &request, xml, readdress);
        self.serve_us.record_micros(started.elapsed());
        registry.span(
            correlation,
            "server.response",
            format_args!("service={name} status={}", served.status()),
        );
        served
    }

    /// The engine, the application shown the message either side of it
    /// when it listens: the request as parsed from `xml`, the response
    /// as parsed from the bytes the engine wrote under its own headers —
    /// and written a second time under `readdress`, if there is one, for
    /// the wire. Nobody listening, nothing is parsed and the response is
    /// written once.
    fn answer(
        &self,
        service: &HostedService,
        request: &TypedRequest,
        xml: &str,
        readdress: Option<&MessageHeaders>,
    ) -> Served {
        let (engine, name) = (&service.engine, service.name());
        let view = |phase, xml: &str| ServerMessageEvent {
            service: name.to_owned(),
            phase,
            envelope: Envelope::from_xml(xml).expect("what the engine read or wrote parses"),
        };
        self.events
            .fire_server_with(|| view(ServerPhase::Inbound, xml));
        let Some(outcome) = engine.call(request) else {
            return Served::OneWay;
        };
        let watched = self.events.listener_count() > 0;
        let mut bytes = wsp_xml::BufPool::global().take();
        let first = if watched { None } else { readdress };
        let fault = engine.write_response(request, &outcome, first, &mut bytes);
        if watched {
            let written = std::str::from_utf8(&bytes).expect("writer output is UTF-8");
            self.events
                .fire_server(&view(ServerPhase::Outbound, written));
            if let Some(headers) = readdress {
                bytes.clear();
                engine.write_response(request, &outcome, Some(headers), &mut bytes);
            }
        }
        match fault {
            true => Served::Fault(bytes),
            false => Served::Reply(bytes),
        }
    }

    /// The peer-level `/metrics` gauges: the gate and the dispatcher.
    pub fn render_gauges(&self, out: &mut String) {
        let admission = self.admission.read();
        let stats = self.dispatcher.stats();
        for (name, value) in [
            ("admission_in_flight", admission.total_in_flight()),
            ("admission_draining", admission.is_draining() as usize),
            ("dispatch_submitted", stats.submitted as usize),
            ("dispatch_completed", stats.completed as usize),
            ("dispatch_failed", stats.failed as usize),
            ("dispatch_cancelled", stats.cancelled as usize),
            ("dispatch_shed", stats.shed as usize),
            ("dispatch_queue_depth", stats.queue_depth),
            ("dispatch_in_flight", stats.in_flight),
            ("dispatch_pending_calls", stats.pending_calls),
            ("dispatch_workers", stats.workers),
        ] {
            // Infallible: writing to a `String`.
            let _ = writeln!(out, "{name} {value}");
        }
    }
}

/// The `Server` node: owns pluggable [`ServiceDeployer`] and
/// [`ServicePublisher`] components and hosts what this peer deploys.
///
/// There is no container here: the application deploys descriptors and
/// handlers at runtime, "in effect allowing the component to become its
/// own container" (Section III, point 2).
pub struct Server {
    deployer: RwLock<Option<Arc<dyn ServiceDeployer>>>,
    publisher: RwLock<Option<Arc<dyn ServicePublisher>>>,
    hosting: Arc<Hosting>,
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
            hosting: Hosting::new(events, dispatcher),
        })
    }

    /// The dispatch core shared with the rest of the peer's tree;
    /// deployed request handling submitted by bindings runs here.
    pub fn dispatcher(&self) -> &Arc<Dispatcher> {
        self.hosting.dispatcher()
    }

    /// The hosting core bindings serve through.
    pub fn hosting(&self) -> &Arc<Hosting> {
        &self.hosting
    }

    pub fn set_deployer(&self, deployer: Arc<dyn ServiceDeployer>) {
        *self.deployer.write() = Some(deployer);
    }

    pub fn set_publisher(&self, publisher: Arc<dyn ServicePublisher>) {
        *self.publisher.write() = Some(publisher);
    }

    /// Install the admission limits for everything this peer hosts
    /// (default [`KeyedLoadShedPolicy::unlimited`]) — the server-side
    /// mirror of [`crate::Client::set_resilience_policy`]. Requests
    /// already admitted keep their permits against the previous gate.
    pub fn set_load_shed_policy(&self, policy: KeyedLoadShedPolicy) {
        *self.hosting.admission.write() = KeyedAdmissionController::new(policy);
    }

    /// Deploy a service: generate its description, create an
    /// addressable endpoint, and start answering. Fires a
    /// [`DeploymentMessageEvent`]. Deploying a name again replaces the
    /// deployment — the new handler answers from then on.
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
        let port = deployer.port(&descriptor.name)?;
        let service = Arc::new(HostedService::new(descriptor, handler, port));
        self.hosting
            .services
            .write()
            .insert(service.name().to_owned(), service.clone());
        deployer.open(&self.hosting, &service);
        let deployed = service.deployed().clone();
        self.hosting
            .events
            .fire_deployment(&DeploymentMessageEvent {
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
        let hosted = self
            .hosting
            .service(service)
            .ok_or_else(|| WspError::Publish(format!("{service:?} is not deployed")))?;
        let result = publisher.publish(hosted.deployed());
        self.hosting.events.fire_publish(|| PublishMessageEvent {
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
        let existed = self.hosting.services.write().remove(service).is_some();
        if !existed {
            return false;
        }
        if let Some(publisher) = self.publisher.read().clone() {
            publisher.unpublish(service);
        }
        if let Some(deployer) = self.deployer.read().clone() {
            deployer.close(service);
        }
        self.hosting
            .events
            .fire_deployment(&DeploymentMessageEvent {
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
        let stats = self.dispatcher().stats();
        self.hosting.events.fire_lifecycle(&LifecycleMessageEvent {
            subject: service.to_owned(),
            phase: LifecyclePhase::DrainStarted,
            in_flight: stats.in_flight + stats.queue_depth,
        });
        let drained = self.dispatcher().flush_within(drain_deadline);
        let remaining = self.dispatcher().stats();
        self.hosting.events.fire_lifecycle(&LifecycleMessageEvent {
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
        let services = self.hosting.services.read();
        services.values().map(|s| s.deployed().clone()).collect()
    }

    pub fn deployed_service(&self, name: &str) -> Option<DeployedService> {
        self.hosting.service(name).map(|s| s.deployed().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::CollectingListener;
    use wsp_soap::typed::Rule;
    use wsp_wsdl::{proxy, TransportKind, Value};

    /// A substrate with no wire: it names `test://` ports and carries
    /// nothing, so the tests below drive the pipeline by hand.
    struct StubDeployer;
    impl ServiceDeployer for StubDeployer {
        fn port(&self, service: &str) -> Result<Port, WspError> {
            Ok(Port {
                name: format!("{service}StubPort"),
                transport: TransportKind::Http,
                location: format!("test://here/{service}"),
            })
        }
        fn open(&self, _hosting: &Arc<Hosting>, _service: &Arc<HostedService>) {}
        fn close(&self, _service: &str) {}
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

    /// One echo request through `admit` + `serve`, as a substrate
    /// would drive them.
    fn echo_through(server: &Server, request: Incoming<'_>) -> Served {
        let hosting = server.hosting();
        let service = hosting.service("Echo").expect("deployed");
        let permit = hosting.admit(&service, 0, None).expect("admitted");
        hosting.serve(&service, request, None, 0, None, permit)
    }

    /// What the client reads of `served`, an answer to `operation` of
    /// `descriptor`.
    fn answered(served: Served, descriptor: &ServiceDescriptor, operation: &str) -> Reply {
        let bytes = served.into_bytes().expect("an answer");
        let xml = std::str::from_utf8(&bytes).expect("UTF-8");
        proxy::read_response(descriptor, operation, xml)
    }

    type Reply = Result<Value, wsp_wsdl::ProxyError>;

    fn echoed(served: Served) -> Reply {
        answered(served, &ServiceDescriptor::echo(), "echoString")
    }

    fn echo_request(text: &str) -> String {
        let descriptor = ServiceDescriptor::echo();
        let args = [Value::string(text)];
        let request = proxy::encode_request(&descriptor, "test://here/Echo", "echoString", &args);
        request.unwrap().to_xml()
    }

    #[test]
    fn pipeline_shows_the_application_both_sides_of_the_engine() {
        let (server, listener) = wired_server();
        server
            .deploy(ServiceDescriptor::echo(), echo_handler())
            .unwrap();
        let request = echo_request("hi");
        let hosting = server.hosting();
        let service = hosting.service("Echo").unwrap();
        let read = hosting.read(&service, &request, &mut |_| {}).unwrap();
        // Off the wire and already read are the same request.
        for incoming in [Incoming::Xml(&request), Incoming::Read(read, &request)] {
            let served = echo_through(&server, incoming);
            assert_eq!(served.status(), 200);
            assert_eq!(echoed(served), Ok(Value::string("hi")));
        }
        let seen = listener.server_messages.read();
        let phases: Vec<ServerPhase> = seen.iter().map(|e| e.phase).collect();
        assert_eq!(
            phases,
            [
                ServerPhase::Inbound,
                ServerPhase::Outbound,
                ServerPhase::Inbound,
                ServerPhase::Outbound
            ]
        );
        // The views: the request as it came, the response as written.
        assert_eq!(seen[0].envelope, Envelope::from_xml(&request).unwrap());
        let response = seen[1].envelope.payload().expect("a result");
        assert_eq!(response.find_local("return").unwrap().text(), "hi");
    }

    #[test]
    fn undecodable_request_is_a_fault_and_reaches_neither_listener_nor_engine() {
        let (server, listener) = wired_server();
        server
            .deploy(ServiceDescriptor::echo(), echo_handler())
            .unwrap();
        let served = echo_through(&server, Incoming::Xml("<probe/>"));
        assert_eq!(served.status(), 500);
        assert!(matches!(
            echoed(served),
            Err(wsp_wsdl::ProxyError::Fault(_))
        ));
        assert!(listener.server_messages.read().is_empty());
    }

    /// One reader whoever listens: a listener watches, it does not
    /// steer. A request that breaks a shape rule earns that rule's fault
    /// either way, and the listener sees it and its answer.
    #[test]
    fn with_nobody_listening_the_request_is_read_typed() {
        let server = Server::new(EventBus::new());
        server.set_deployer(Arc::new(StubDeployer));
        server
            .deploy(ServiceDescriptor::echo(), echo_handler())
            .unwrap();
        let request = echo_request("hi");
        let odd = request.replacen("<env:Body>", "<env:Header/><env:Body>", 1);
        let listener = CollectingListener::new();
        for watched in [false, true] {
            if watched {
                server.hosting().events.add_listener(listener.clone());
            }
            let served = echo_through(&server, Incoming::Xml(&request));
            assert_eq!(echoed(served), Ok(Value::string("hi")));
            let refused = echo_through(&server, Incoming::Xml(&odd));
            assert_eq!(refused.status(), 500);
            let Err(wsp_wsdl::ProxyError::Fault(fault)) = echoed(refused) else {
                panic!("a second Header is refused");
            };
            assert_eq!(Rule::of(&fault), Some(Rule::Repeated), "{fault}");
        }
        assert_eq!(listener.server_messages.read().len(), 4);
    }

    /// A block outside WS-Addressing is shown to `foreign` once: here a
    /// P2PS request carrying the propagated deadline whose parameters
    /// arrive out of declaration order — a shape the engine reads.
    #[test]
    fn a_foreign_block_is_shown_once() {
        use wsp_p2ps::{request_headers, with_reply_pipe, PeerId, PipeAdvertisement};
        use wsp_wsdl::{OperationDef, XsdType};
        let descriptor = ServiceDescriptor::new("Pair", "urn:wspeer:test:pair").operation(
            OperationDef::new("join")
                .input("a", XsdType::String)
                .input("b", XsdType::String)
                .returns(XsdType::String),
        );
        let server = Server::new(EventBus::new());
        server.set_deployer(Arc::new(StubDeployer));
        let join = |_op: &str, args: &[Value]| {
            let [a, b] = [&args[0], &args[1]].map(|v| v.as_str().unwrap_or_default().to_owned());
            Ok(Value::string(a + &b))
        };
        server.deploy(descriptor.clone(), Arc::new(join)).unwrap();
        let args = [Value::string("x"), Value::string("y")];
        let request = proxy::encode_request(&descriptor, "test://here/Pair", "join", &args);
        let mut payload = request.unwrap().payload().unwrap().clone();
        payload.children_mut().reverse();
        let mut request = Envelope::request(payload);
        let budget = Element::build("", crate::overload::DEADLINE_SOAP_HEADER).text("250");
        request.add_header(HeaderBlock::new(budget.finish()));
        let target = PipeAdvertisement::new(PeerId(0xAA), Some("Pair".into()), "join");
        let reply = PipeAdvertisement::new(PeerId(0xBB), None, "return-1");
        request.set_addressing(with_reply_pipe(request_headers(&target), &reply));
        let xml = request.to_xml();

        let hosting = server.hosting();
        let service = hosting.service("Pair").unwrap();
        let mut shown = 0;
        let mut foreign = |block: &HeaderBlock| {
            shown += usize::from(crate::overload::deadline_in(&block.element).is_some());
        };
        let read = hosting.read(&service, &xml, &mut foreign).unwrap();
        assert_eq!(shown, 1, "the deadline block, once");
        let permit = hosting.admit(&service, 0, None).unwrap();
        let served = hosting.serve(&service, Incoming::Read(read, &xml), None, 0, None, permit);
        assert_eq!(
            answered(served, &descriptor, "join"),
            Ok(Value::string("xy"))
        );
    }

    #[test]
    fn one_gate_for_the_peer_and_its_policy_is_the_servers() {
        let (server, _listener) = wired_server();
        server
            .deploy(ServiceDescriptor::echo(), echo_handler())
            .unwrap();
        let hosting = server.hosting();
        let service = hosting.service("Echo").unwrap();
        // Default: unlimited.
        drop(hosting.admit(&service, 0, None).unwrap());
        server.set_load_shed_policy(KeyedLoadShedPolicy::bounded(1, usize::MAX));
        let held = hosting.admit(&service, 0, None).unwrap();
        let shed = hosting.admit(&service, 0, None).unwrap_err();
        assert!(matches!(shed, WspError::Overloaded { .. }), "{shed:?}");
        drop(held);
        hosting
            .admit(&service, 0, None)
            .expect("the permit came back");
    }

    #[test]
    fn redeploy_replaces_the_hosted_service_and_undeploy_empties_the_table() {
        let (server, _listener) = wired_server();
        server
            .deploy(ServiceDescriptor::echo(), echo_handler())
            .unwrap();
        server
            .deploy(
                ServiceDescriptor::echo(),
                Arc::new(|_op: &str, _args: &[Value]| Ok(Value::string("second"))),
            )
            .unwrap();
        let request = echo_request("first");
        let reply = echoed(echo_through(&server, Incoming::Xml(&request)));
        assert_eq!(reply, Ok(Value::string("second")));
        assert_eq!(server.deployed_services().len(), 1);
        assert!(server.undeploy("Echo"));
        assert!(server.hosting().service("Echo").is_none());
        assert!(server.deployed_service("Echo").is_none());
    }
}
