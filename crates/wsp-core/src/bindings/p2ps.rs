//! The P2PS implementation (paper Section IV.B, Figures 4–6): services
//! deployed as pipe collections, published as XML adverts, discovered
//! by rendezvous flooding, and invoked with SOAP over unidirectional
//! pipes using WS-Addressing `ReplyTo` return pipes.
//!
//! One operation = one pipe, matching the paper's
//! `p2ps://id/echo#echostring` scheme; every service additionally
//! carries the *definition pipe* from which its WSDL is retrieved.
//!
//! # Threading
//!
//! The binding owns no thread. It installs a delivery sink on its
//! [`ThreadPeer`] (holding a `Weak` back-reference, so the peer handle
//! and the binding do not keep each other alive), and everything the
//! peer delivers reaches [`on_peer_event`] on the thread that stepped
//! the peer's machine — in practice the peer's inbox thread:
//!
//! * **provider**: the inbox thread decodes the request and passes
//!   admission control; the handler runs on the dispatcher (so
//!   queue-depth shedding, deadlines and nested calls behave as on any
//!   other binding) and the worker sends the reply itself;
//! * **consumer**: the inbox thread correlates the response and
//!   completes the caller's `CallHandle`.
//!
//! One request/response is caller → provider inbox → worker → consumer
//! inbox → caller. The sink is entered with no peer lock held, so it
//! may send (the busy-fault reply of a shed request goes out from
//! inside the delivery); it never waits on anything the inbox thread
//! would have to produce.

use crate::components::{Binding, Invoker, ServiceDeployer, ServiceLocator, ServicePublisher};
use crate::dispatch::{Completer, Dispatcher};
use crate::endpoint::{BindingKind, DeployedService, LocatedService};
use crate::error::WspError;
use crate::events::{EventBus, ServerMessageEvent, ServerPhase};
use crate::overload::{
    self, DeadlineScope, KeyedAdmissionController, KeyedLoadShedPolicy, ANONYMOUS_TENANT,
};
use crate::query::ServiceQuery;
use crate::telemetry;
use crossbeam_channel::{unbounded, Sender};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};
use wsp_p2ps::{
    decode_request, encode_response, P2psUri, PipeAdvertisement, ReceivedRequest, RpcCorrelator,
    ServiceAdvertisement, ThreadPeer, ThreadPeerEvent, DEFINITION_PIPE, P2PS_NS,
};
use wsp_soap::{Envelope, HeaderBlock};
use wsp_wsdl::{
    proxy, MessageEngine, Port, ServiceDescriptor, ServiceHandler, TransportKind, Value,
    WsdlDocument,
};

/// Timing knobs of the P2PS binding.
#[derive(Debug, Clone)]
pub struct P2psConfig {
    /// How long a locate call collects query hits before returning —
    /// P2P discovery has no single authoritative answer, so the locator
    /// gathers what the network returns within this window.
    pub discovery_window: Duration,
    /// How long to wait for a response on a return pipe.
    pub request_timeout: Duration,
    /// Admission-control limits for requests this peer hosts over
    /// pipes. Default is unlimited, the historical behaviour.
    pub load_shed: KeyedLoadShedPolicy,
}

impl Default for P2psConfig {
    fn default() -> Self {
        P2psConfig {
            discovery_window: Duration::from_millis(300),
            request_timeout: Duration::from_secs(5),
            load_shed: KeyedLoadShedPolicy::unlimited(),
        }
    }
}

struct Shared {
    peer: ThreadPeer,
    config: P2psConfig,
    events: EventBus,
    /// Gate on every hosted-service request arriving over a pipe (one
    /// tenant: the [`ANONYMOUS_TENANT`] slot).
    admission: KeyedAdmissionController,
    engines: RwLock<HashMap<String, Arc<MessageEngine>>>,
    wsdls: RwLock<HashMap<String, String>>,
    published: RwLock<HashMap<String, ServiceAdvertisement>>,
    correlator: Mutex<RpcCorrelator>,
    /// Outstanding pipe requests, completed from the peer's delivery
    /// sink when the correlated response arrives on the return pipe.
    /// Tokens come from the dispatcher, so they share one space with
    /// client calls.
    pending_requests: Mutex<HashMap<u64, Completer<Envelope>>>,
    pending_queries: Mutex<HashMap<u64, Sender<Vec<ServiceAdvertisement>>>>,
    /// The peer's shared dispatch core, installed by `on_attach`; a
    /// standalone binding lazily creates a default one.
    dispatcher: RwLock<Option<Arc<Dispatcher>>>,
    /// Cached telemetry handles for the per-request path (the lookup
    /// by name takes the registry lock and allocates the key).
    roundtrip_us: Arc<telemetry::Histogram>,
    unknown_pipe: Arc<telemetry::Counter>,
}

impl Shared {
    /// The dispatcher all binding work runs on: whatever `on_attach`
    /// installed, else a lazily-created default for standalone use.
    fn dispatcher_handle(&self) -> Arc<Dispatcher> {
        if let Some(dispatcher) = self.dispatcher.read().clone() {
            return dispatcher;
        }
        let mut slot = self.dispatcher.write();
        if let Some(dispatcher) = slot.clone() {
            return dispatcher;
        }
        let dispatcher = Dispatcher::with_defaults();
        *slot = Some(dispatcher.clone());
        dispatcher
    }
}

/// The P2PS binding. Construct with a spawned [`ThreadPeer`] that has
/// no delivery sink yet: the binding installs its own, which routes
/// the peer's events to hosted services (server side, served on the
/// dispatcher's pool) and outstanding calls (client side, completed
/// through the correlation table).
#[derive(Clone)]
pub struct P2psBinding {
    shared: Arc<Shared>,
}

impl P2psBinding {
    pub fn new(peer: ThreadPeer, events: EventBus, config: P2psConfig) -> Self {
        let admission = KeyedAdmissionController::new(config.load_shed.clone());
        let shared = Arc::new_cyclic(|weak: &Weak<Shared>| {
            let binding = weak.clone();
            let installed = peer.set_sink(Box::new(move |event| {
                if let Some(shared) = binding.upgrade() {
                    on_peer_event(&shared, event);
                }
            }));
            assert!(installed, "the peer handed to a binding has no sink yet");
            Shared {
                peer,
                config,
                events,
                admission,
                engines: RwLock::new(HashMap::new()),
                wsdls: RwLock::new(HashMap::new()),
                published: RwLock::new(HashMap::new()),
                correlator: Mutex::new(RpcCorrelator::new()),
                pending_requests: Mutex::new(HashMap::new()),
                pending_queries: Mutex::new(HashMap::new()),
                dispatcher: RwLock::new(None),
                roundtrip_us: telemetry::global().histogram("p2ps.roundtrip_us"),
                unknown_pipe: telemetry::global().counter("p2ps.unknown_pipe"),
            }
        });
        P2psBinding { shared }
    }

    /// This peer's logical id.
    pub fn peer_id(&self) -> wsp_p2ps::PeerId {
        self.shared.peer.id()
    }

    /// Wire this peer to a neighbour (its rendezvous, usually).
    pub fn add_neighbour(&self, peer: wsp_p2ps::PeerId, rendezvous: bool) {
        self.shared.peer.add_neighbour(peer, rendezvous);
    }

    /// Requests sent from this peer whose response has neither arrived
    /// nor been given up on.
    pub fn outstanding_requests(&self) -> usize {
        self.shared.correlator.lock().pending()
    }

    /// True if `pipe` is open on this peer — a hosted service's pipe, or
    /// the return pipe of a request still in flight.
    pub fn has_open_pipe(&self, pipe: &PipeAdvertisement) -> bool {
        self.shared.peer.has_pipe(pipe)
    }
}

impl Binding for P2psBinding {
    fn kind(&self) -> &'static str {
        "p2ps"
    }

    fn locator(&self) -> Arc<dyn ServiceLocator> {
        Arc::new(P2psLocator {
            shared: self.shared.clone(),
        })
    }

    fn invoker(&self) -> Arc<dyn Invoker> {
        Arc::new(P2psInvoker {
            shared: self.shared.clone(),
        })
    }

    fn deployer(&self) -> Arc<dyn ServiceDeployer> {
        Arc::new(P2psDeployer {
            shared: self.shared.clone(),
        })
    }

    fn publisher(&self) -> Arc<dyn ServicePublisher> {
        Arc::new(P2psPublisher {
            shared: self.shared.clone(),
        })
    }

    fn on_attach(&self, dispatcher: &Arc<Dispatcher>) {
        // Adopt the peer's shared dispatcher (replacing any lazily
        // created default).
        *self.shared.dispatcher.write() = Some(dispatcher.clone());
    }
}

// --- delivery sink ------------------------------------------------------------

/// Everything the peer delivers, on the thread that stepped its
/// machine (see the module docs). Must not block on the inbox thread.
fn on_peer_event(shared: &Arc<Shared>, event: ThreadPeerEvent) {
    match event {
        ThreadPeerEvent::QueryResult { token, adverts } => {
            if let Some(tx) = shared.pending_queries.lock().get(&token) {
                let _ = tx.send(adverts);
            }
        }
        ThreadPeerEvent::PipeDelivery { pipe, payload, .. } => {
            if pipe.service.is_some() {
                // Hosted-service traffic: decoded once here so
                // admission sees the propagated deadline, admitted (or
                // shed) before it is queued, then served on the worker
                // pool so the inbox never blocks on a handler.
                if let Some(received) = decode_request(&payload) {
                    admit_and_serve(shared, pipe, received);
                }
            } else {
                // A return pipe: correlate with an outstanding call
                // and complete its handle.
                let correlated = shared.correlator.lock().accept_response(&payload);
                if let Some((token, envelope)) = correlated {
                    let completer = shared.pending_requests.lock().remove(&token);
                    if let Some(completer) = completer {
                        completer.complete(envelope);
                    }
                }
            }
        }
        // Typically a response that arrived after its caller timed out
        // and closed the return pipe.
        ThreadPeerEvent::UnknownPipe { .. } => shared.unknown_pipe.incr(),
        ThreadPeerEvent::Pong { .. } => {}
    }
}

/// Admission-control gate for one hosted-service request: admitted work
/// runs on the pool under its propagated deadline (expired deadlines
/// are shed again at dequeue); a shed answers immediately with the
/// `wsp:overloaded` busy fault and its retry hint.
fn admit_and_serve(shared: &Arc<Shared>, pipe: PipeAdvertisement, received: ReceivedRequest) {
    let dispatcher = shared.dispatcher_handle();
    let deadline = overload::deadline_from_envelope(&received.envelope);
    // Definition-pipe reads are exempt: they are cheap metadata, and an
    // overloaded provider must stay discoverable so consumers back off
    // against it rather than treating it as departed.
    let permit = if pipe.name == DEFINITION_PIPE {
        None
    } else {
        match shared.admission.try_admit_at(
            ANONYMOUS_TENANT,
            dispatcher.stats().queue_depth,
            deadline,
        ) {
            Ok(permit) => Some(permit),
            Err(error) => {
                let reason =
                    overload::busy_fault_reason(error.retry_after_hint().unwrap_or_default());
                let busy = Envelope::fault(wsp_soap::Fault::receiver(reason));
                if let Some((reply_pipe, wire)) = encode_response(&received, busy) {
                    shared.peer.send_pipe(reply_pipe, wire);
                }
                return;
            }
        }
    };
    // Shared with the job only so the request survives a refused
    // submit: a dispatcher that is gone (shut down) serves inline.
    let request = Arc::new((pipe, received));
    let (job_shared, job_request) = (shared.clone(), request.clone());
    let submitted = dispatcher.execute_with_deadline(deadline, move || {
        let _permit = permit;
        serve_request(&job_shared, &job_request.0, &job_request.1);
    });
    if submitted.is_err() {
        let _deadline = DeadlineScope::enter(deadline);
        serve_request(shared, &request.0, &request.1);
    }
}

/// Server side of Figure 6: answer a request that arrived on one of our
/// service pipes.
fn serve_request(shared: &Shared, pipe: &PipeAdvertisement, received: &ReceivedRequest) {
    let service = pipe.service.as_deref().expect("checked by caller");

    let response = if pipe.name == DEFINITION_PIPE {
        // Serve the WSDL from the definition pipe.
        shared.wsdls.read().get(service).map(|xml| {
            let body = wsp_xml::parse(xml).expect("stored WSDL is well-formed");
            Envelope::request(body)
        })
    } else {
        let engine = shared.engines.read().get(service).cloned();
        match engine {
            Some(engine) => {
                shared.events.fire_server_with(|| ServerMessageEvent {
                    service: service.to_owned(),
                    phase: ServerPhase::Inbound,
                    envelope: received.envelope.clone(),
                });
                let response = engine.process(&received.envelope);
                if let Some(response) = &response {
                    shared.events.fire_server_with(|| ServerMessageEvent {
                        service: service.to_owned(),
                        phase: ServerPhase::Outbound,
                        envelope: response.clone(),
                    });
                }
                response
            }
            None => Some(Envelope::fault(wsp_soap::Fault::receiver(format!(
                "service {service:?} is not deployed on this peer"
            )))),
        }
    };

    if let Some(response) = response {
        if let Some((reply_pipe, wire)) = encode_response(received, response) {
            shared.peer.send_pipe(reply_pipe, wire);
        }
    }
}

// --- pipe request/response (Figure 5) ---------------------------------------

fn request_over_pipe(
    shared: &Shared,
    target: PipeAdvertisement,
    mut envelope: Envelope,
) -> Result<Envelope, WspError> {
    let dispatcher = shared.dispatcher_handle();
    let token = dispatcher.next_token();
    // Deadline propagation: ship the remaining budget as a SOAP header
    // and cap the response wait at it.
    let mut request_timeout = shared.config.request_timeout;
    if let Some(deadline) = overload::current_deadline() {
        match overload::remaining_ms(deadline) {
            Some(ms) => {
                envelope.add_header(HeaderBlock::new(
                    wsp_xml::Element::build("", overload::DEADLINE_SOAP_HEADER)
                        .text(ms.to_string())
                        .finish(),
                ));
                request_timeout = request_timeout.min(Duration::from_millis(ms));
            }
            None => {
                return Err(WspError::Timeout {
                    what: "deadline expired before send",
                    millis: 0,
                });
            }
        }
    }
    let registry = telemetry::global();
    let started = Instant::now();
    if registry.is_enabled() {
        // Spans land under the *caller's* correlation (the invoking
        // job), with the pipe's own correlator token in the detail.
        registry.span(
            telemetry::current_correlation(),
            "p2ps.request",
            format_args!(
                "pipe={}#{} rpc_token={token}",
                target.service.as_deref().unwrap_or(""),
                target.name
            ),
        );
    }
    // Step 1-2: create a return pipe and its advertisement.
    let return_pipe = shared.peer.open_pipe(None);
    // Register the call in the correlation table; the delivery sink
    // completes it when the response arrives.
    let (handle, completer) = dispatcher.register::<Envelope>(token);
    shared.pending_requests.lock().insert(token, completer);
    // Step 3-5: serialise the advert into ReplyTo and send the request.
    let wire = shared
        .correlator
        .lock()
        .encode_request(token, &target, &return_pipe, envelope);
    shared.peer.send_pipe(target, wire);
    // Step 6: await the response (helping the pool while waiting, so a
    // worker making a nested call still serves incoming requests).
    let result = handle.wait_timeout(request_timeout);
    shared.pending_requests.lock().remove(&token);
    // Closing the return pipe abandons any request still correlated to
    // it: on the timeout path the response never arrived, and without
    // this the MessageID → token entry leaked forever.
    shared.correlator.lock().pipe_closed(&return_pipe);
    shared.peer.close_pipe(return_pipe);
    match result {
        Ok(envelope) => {
            if registry.is_enabled() {
                shared.roundtrip_us.record_micros(started.elapsed());
                registry.span(
                    telemetry::current_correlation(),
                    "p2ps.response",
                    format_args!("rpc_token={token}"),
                );
            }
            // A `wsp:overloaded` receiver fault is a shed, not an
            // application fault: surface it as `Overloaded` so the
            // retry loop honours the server's hint without counting
            // the endpoint as unhealthy.
            if let Some(fault) = envelope.fault_body() {
                if let Some(hint) = overload::parse_busy_fault(&fault.reason) {
                    if registry.is_enabled() {
                        registry.span(
                            telemetry::current_correlation(),
                            "p2ps.shed",
                            format_args!("rpc_token={token}"),
                        );
                    }
                    return Err(WspError::Overloaded {
                        retry_after_ms: hint,
                    });
                }
            }
            Ok(envelope)
        }
        Err(handle) => {
            handle.cancel();
            if registry.is_enabled() {
                registry.span(
                    telemetry::current_correlation(),
                    "p2ps.timeout",
                    format_args!("rpc_token={token}"),
                );
            }
            Err(WspError::Timeout {
                what: "pipe request",
                millis: request_timeout.as_millis() as u64,
            })
        }
    }
}

// --- deployer ----------------------------------------------------------------

struct P2psDeployer {
    shared: Arc<Shared>,
}

fn advert_for(descriptor: &ServiceDescriptor, peer: wsp_p2ps::PeerId) -> ServiceAdvertisement {
    let mut advert = ServiceAdvertisement::new(descriptor.name.clone(), peer);
    for op in &descriptor.operations {
        advert = advert.with_pipe(op.name.clone());
    }
    advert = advert.with_definition_pipe();
    for (key, value) in &descriptor.properties {
        advert = advert.with_attribute(key.clone(), value.clone());
    }
    advert
}

impl ServiceDeployer for P2psDeployer {
    fn deploy(
        &self,
        descriptor: ServiceDescriptor,
        handler: Arc<dyn ServiceHandler>,
    ) -> Result<DeployedService, WspError> {
        let advert = advert_for(&descriptor, self.shared.peer.id());
        let endpoint = advert.uri().address();
        let wsdl = WsdlDocument::new(
            descriptor.clone(),
            vec![Port {
                name: format!("{}P2psPort", descriptor.name),
                transport: TransportKind::P2ps,
                location: endpoint.clone(),
            }],
        );
        self.shared.engines.write().insert(
            descriptor.name.clone(),
            Arc::new(MessageEngine::new(descriptor.clone(), handler)),
        );
        self.shared
            .wsdls
            .write()
            .insert(descriptor.name.clone(), wsdl.to_xml());
        // Open the pipes locally; announcement is publish's job.
        self.shared.peer.register(advert);
        Ok(DeployedService {
            descriptor,
            endpoints: vec![endpoint],
            wsdl,
        })
    }

    fn undeploy(&self, service: &str) -> bool {
        let existed = self.shared.engines.write().remove(service).is_some();
        self.shared.wsdls.write().remove(service);
        self.shared.peer.unpublish(service);
        existed
    }

    fn kind(&self) -> &'static str {
        "p2ps"
    }
}

// --- publisher -----------------------------------------------------------------

struct P2psPublisher {
    shared: Arc<Shared>,
}

impl ServicePublisher for P2psPublisher {
    fn publish(&self, service: &DeployedService) -> Result<String, WspError> {
        if !self.shared.engines.read().contains_key(service.name()) {
            return Err(WspError::Publish(format!(
                "{} is not deployed on this peer",
                service.name()
            )));
        }
        let advert = advert_for(&service.descriptor, self.shared.peer.id());
        let location = advert.uri().address();
        self.shared
            .published
            .write()
            .insert(service.name().to_owned(), advert.clone());
        self.shared.peer.publish(advert);
        Ok(location)
    }

    fn unpublish(&self, service: &str) -> bool {
        let existed = self.shared.published.write().remove(service).is_some();
        if existed {
            self.shared.peer.unpublish(service);
        }
        existed
    }

    fn kind(&self) -> &'static str {
        "p2ps"
    }
}

// --- locator ---------------------------------------------------------------------

struct P2psLocator {
    shared: Arc<Shared>,
}

impl ServiceLocator for P2psLocator {
    fn locate(&self, query: &ServiceQuery) -> Result<Vec<LocatedService>, WspError> {
        let token = self.shared.dispatcher_handle().next_token();
        let registry = telemetry::global();
        let discovery_started = Instant::now();
        if registry.is_enabled() {
            registry.counter("p2ps.discovery.queries").incr();
            registry.span(
                telemetry::current_correlation(),
                "p2ps.discovery",
                format_args!("query_token={token}"),
            );
        }
        let (tx, rx) = unbounded();
        self.shared.pending_queries.lock().insert(token, tx);
        self.shared.peer.query(token, query.to_p2ps());

        // Collect hits for the discovery window — or, for a capped
        // query, until that many distinct services have answered.
        let cap = match query.max_results {
            0 => usize::MAX,
            n => n,
        };
        let deadline = Instant::now() + self.shared.config.discovery_window;
        let mut adverts: Vec<ServiceAdvertisement> = Vec::new();
        while adverts.len() < cap {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                break;
            };
            let Ok(batch) = rx.recv_timeout(remaining) else {
                break;
            };
            for advert in batch {
                if !adverts
                    .iter()
                    .any(|a| a.peer == advert.peer && a.name == advert.name)
                {
                    adverts.push(advert);
                }
            }
        }
        adverts.truncate(cap);
        self.shared.pending_queries.lock().remove(&token);

        // Retrieve each hit's WSDL through its definition pipe.
        let mut found = Vec::new();
        for advert in adverts {
            let Some(definition_pipe) = advert.definition_pipe() else {
                continue;
            };
            let get = Envelope::request(wsp_xml::Element::new(P2PS_NS, "GetDefinition"));
            let Ok(response) = request_over_pipe(&self.shared, definition_pipe.clone(), get) else {
                continue; // provider vanished mid-discovery
            };
            let Some(defs) = response.payload() else {
                continue;
            };
            let Ok(wsdl) = WsdlDocument::from_element(defs) else {
                continue;
            };
            found.push(LocatedService::new(
                wsdl,
                advert.uri().address(),
                BindingKind::P2ps,
            ));
        }
        if registry.is_enabled() {
            // Full discovery round trip: flood window plus the WSDL
            // retrievals over definition pipes.
            registry
                .histogram("p2ps.discovery.rtt_us")
                .record_micros(discovery_started.elapsed());
            registry
                .counter("p2ps.discovery.hits")
                .add(found.len() as u64);
        }
        Ok(found)
    }

    fn kind(&self) -> &'static str {
        "p2ps"
    }
}

// --- invoker ----------------------------------------------------------------------

struct P2psInvoker {
    shared: Arc<Shared>,
}

impl Invoker for P2psInvoker {
    fn invoke(
        &self,
        service: &LocatedService,
        operation: &str,
        args: &[Value],
    ) -> Result<Value, WspError> {
        let uri = P2psUri::parse(&service.endpoint).map_err(|e| WspError::Invoke(e.to_string()))?;
        // One pipe per operation: the fragment is the operation name.
        let target = PipeAdvertisement::new(uri.peer, uri.service, operation.to_owned());
        let descriptor = &service.wsdl.descriptor;
        let envelope = proxy::encode_request(descriptor, &service.endpoint, operation, args)?;
        let expects_response = descriptor
            .find_operation(operation)
            .map(|op| op.expects_response())
            .unwrap_or(true);
        if !expects_response {
            // One-way: no return pipe, fire and forget.
            let mut envelope = envelope;
            envelope.set_addressing(wsp_p2ps::request_headers(&target));
            self.shared.peer.send_pipe(target, envelope.to_xml());
            return Ok(Value::Null);
        }
        let response = request_over_pipe(&self.shared, target, envelope)?;
        Ok(proxy::decode_response(descriptor, operation, &response)?)
    }

    fn handles(&self, endpoint: &str) -> bool {
        endpoint.starts_with("p2ps://")
    }

    fn kind(&self) -> &'static str {
        "p2ps"
    }
}
