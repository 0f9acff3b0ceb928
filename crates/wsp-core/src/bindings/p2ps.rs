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
//! peer delivers reaches `on_peer_event` on the thread that stepped
//! the peer's machine: the sending peer's thread when this peer was
//! idle, else this peer's inbox thread (see `wsp_p2ps::thread_driver`).
//! Either way the sink runs as an inbox thread would, under
//! correlation 0 and no deadline scope, so a caller's context never
//! leaks into a provider's admission, job or spans:
//!
//! * **provider**: the delivering thread — mostly the consumer's
//!   caller — reads the request ([`Hosting::read`]) and takes it to the
//!   edge of the peer's hosting pipeline ([`Hosting::admit`]); the rest
//!   ([`Hosting::serve`], handler included, then the reply) runs in a
//!   worker's slot of the dispatcher, so shedding, deadlines and nested
//!   calls behave as on any other binding: a caller that brought its
//!   request to an idle peer, names a return pipe and runs no job
//!   itself serves it once the delivery is over, in an idle worker's
//!   lent slot (`thread_driver::serve_after`); any other request is
//!   queued, or answered with the busy fault if the queue is full;
//! * **consumer**: the delivering thread reads the response once: its
//!   `RelatesTo` names the call, whose own reader decodes the body in
//!   the same pass, and the caller's `CallHandle` is completed with it.
//!
//! An echo to an idle provider is caller → caller: no thread is woken.
//! Any other wake-up a delivery gives — the caller a response
//! completes, the worker a request is queued for — is the dispatcher's,
//! which defers it through `thread_driver::after_release` until the
//! delivering thread has let go of its last peer (the driver's wake
//! rule). A handler that panics fails its job and answers its caller
//! with a `soap:Receiver` fault.
//! The sink is entered with no peer lock held, so it may send (the
//! busy-fault reply of a shed request goes out from inside the
//! delivery); it runs no handler inside a delivery, and never waits on
//! anything its sender or an inbox thread would have to produce.

use crate::components::{Binding, Invoker, ServiceDeployer, ServiceLocator, ServicePublisher};
use crate::dispatch::{Completer, Dispatcher};
use crate::endpoint::{BindingKind, DeployedService, LocatedService};
use crate::error::WspError;
use crate::events::EventBus;
use crate::overload::{self, Deadline, DeadlineScope};
use crate::query::ServiceQuery;
use crate::server::{HostedService, Hosting, Incoming};
use crate::telemetry::{self, clock, CorrelationScope};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Weak};
use std::time::Duration;
use wsp_p2ps::{
    decode_request, encode_response, thread_driver, P2psUri, PipeAdvertisement, RpcCorrelator,
    ServiceAdvertisement, ThreadPeer, ThreadPeerEvent, DEFINITION_PIPE, P2PS_NS,
};
use wsp_soap::typed::{read_envelope_with, Payload};
use wsp_soap::{Envelope, Fault, HeaderBlock, MessageHeaders, SoapError};
use wsp_wsdl::{proxy, Port, ProxyError, ServiceDescriptor, TransportKind, Value, WsdlDocument};
use wsp_xml::Element;

/// Timing knobs of the P2PS binding.
#[derive(Debug, Clone)]
pub struct P2psConfig {
    /// How long a locate call collects query hits — P2P discovery has
    /// no single authoritative answer, so an uncapped `locate` gathers
    /// what the network returns within this window. For `locate_first`
    /// and a capped query it bounds the wait for hits: they return once
    /// they have located the services they asked for.
    pub discovery_window: Duration,
    /// How long to wait for a response on a return pipe, else
    /// [`WspError::Timeout`]. A request its caller serves itself is timed
    /// when the handler returns: it runs on the caller's thread, so a
    /// handler blocking on what its caller holds blocks the caller too.
    pub request_timeout: Duration,
}

impl Default for P2psConfig {
    fn default() -> Self {
        P2psConfig {
            discovery_window: Duration::from_millis(300),
            request_timeout: Duration::from_secs(5),
        }
    }
}

/// Where a response goes: the return pipe and addressing of [`encode_response`].
type Route = Option<(PipeAdvertisement, MessageHeaders)>;

/// The retry hint of a request shed because the dispatcher's queue was full.
const QUEUE_FULL_RETRY: Duration = Duration::from_millis(100);

struct Shared {
    peer: ThreadPeer,
    config: P2psConfig,
    published: RwLock<HashMap<String, ServiceAdvertisement>>,
    correlator: Mutex<RpcCorrelator>,
    /// Outstanding pipe requests, completed from the peer's delivery
    /// sink when the correlated response arrives on the return pipe.
    /// Tokens come from the dispatcher, so they share one space with
    /// client calls. Each call brings the reader of the body it
    /// expects: the sink reads a response once, and what completes the
    /// call is the decoded value.
    pending_requests: Mutex<HashMap<u64, Arc<dyn PendingCall>>>,
    pending_queries: Mutex<HashMap<u64, Sender<Vec<ServiceAdvertisement>>>>,
    /// The peer's hosting core — where pipe requests for hosted
    /// services are looked up and served, and whose dispatcher all
    /// binding work runs on — installed by `on_attach`; a standalone
    /// binding lazily creates a default one.
    hosting: RwLock<Option<Arc<Hosting>>>,
    /// Cached telemetry handles for the per-call paths (the lookup by
    /// name takes the registry lock and allocates the key).
    roundtrip_us: Arc<telemetry::Histogram>,
    unknown_pipe: Arc<telemetry::Counter>,
    served_inline: Arc<telemetry::Counter>,
    discovery_queries: Arc<telemetry::Counter>,
    discovery_hits: Arc<telemetry::Counter>,
    discovery_rtt_us: Arc<telemetry::Histogram>,
}

impl Shared {
    /// Whatever `on_attach` installed, else a lazily-created default
    /// for standalone use.
    fn hosting(&self) -> Arc<Hosting> {
        if let Some(hosting) = self.hosting.read().clone() {
            return hosting;
        }
        self.hosting
            .write()
            .get_or_insert_with(|| Hosting::new(EventBus::new(), Dispatcher::with_defaults()))
            .clone()
    }

    /// Send `response` where [`encode_response`] routes it: down the
    /// return pipe its request named, if it named one.
    fn reply(&self, route: Route, mut response: Envelope) {
        if let Some((reply_pipe, headers)) = route {
            response.set_addressing(headers);
            self.peer.send_pipe(reply_pipe, response.to_xml());
        }
    }

    /// Answer a shed request with the busy fault and its retry hint.
    fn shed(&self, route: Route, retry_after: Duration) {
        let busy = Fault::receiver(overload::busy_fault_reason(retry_after));
        self.reply(route, Envelope::fault(busy));
    }
}

/// The P2PS binding. Construct with a spawned [`ThreadPeer`] that has
/// no delivery sink yet: the binding installs its own, which routes
/// the peer's events to hosted services (server side, served in the
/// dispatcher's worker slots) and outstanding calls (client side,
/// completed through the correlation table).
#[derive(Clone)]
pub struct P2psBinding {
    shared: Arc<Shared>,
}

impl P2psBinding {
    /// `_events` is unused: hosted-service events fire into the bus of
    /// the `Peer` the binding is attached to (see
    /// [`crate::bindings::HttpUddiBinding::new`]).
    pub fn new(peer: ThreadPeer, _events: EventBus, config: P2psConfig) -> Self {
        let registry = telemetry::global();
        let shared = Arc::new_cyclic(|weak: &Weak<Shared>| {
            let binding = weak.clone();
            let installed = peer.set_sink(Box::new(move |event| {
                // A delivery may run on another peer's thread (a caller
                // or a worker): serve it in the context an inbox thread
                // has, with no caller's correlation or deadline in it.
                let _correlation = CorrelationScope::enter(0);
                let _deadline = DeadlineScope::enter(None);
                if let Some(shared) = binding.upgrade() {
                    on_peer_event(&shared, event);
                }
            }));
            assert!(installed, "the peer handed to a binding has no sink yet");
            Shared {
                peer,
                config,
                published: RwLock::new(HashMap::new()),
                correlator: Mutex::new(RpcCorrelator::new()),
                pending_requests: Mutex::new(HashMap::new()),
                pending_queries: Mutex::new(HashMap::new()),
                hosting: RwLock::new(None),
                roundtrip_us: registry.histogram("p2ps.roundtrip_us"),
                unknown_pipe: registry.counter("p2ps.unknown_pipe"),
                served_inline: registry.counter("p2ps.served_inline"),
                discovery_queries: registry.counter("p2ps.discovery.queries"),
                discovery_hits: registry.counter("p2ps.discovery.hits"),
                discovery_rtt_us: registry.histogram("p2ps.discovery.rtt_us"),
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

    /// Discovery queries from this peer still collecting hits.
    pub fn outstanding_queries(&self) -> usize {
        self.shared.pending_queries.lock().len()
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

    fn on_attach(&self, hosting: &Arc<Hosting>) {
        // Adopt the peer's hosting core (replacing any lazily created
        // default).
        *self.shared.hosting.write() = Some(hosting.clone());
    }
}

/// A pipe carries text; what the writers fill is a byte buffer.
fn wire_text(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("writer output is UTF-8")
}

// --- delivery sink ------------------------------------------------------------

/// Everything the peer delivers, on the thread that stepped its
/// machine (see the module docs). Must not block on its sender or on
/// the inbox thread.
fn on_peer_event(shared: &Arc<Shared>, event: ThreadPeerEvent) {
    match event {
        ThreadPeerEvent::QueryResult { token, adverts } => {
            if let Some(tx) = shared.pending_queries.lock().get(&token) {
                let _ = tx.send(adverts);
            }
        }
        ThreadPeerEvent::PipeDelivery { pipe, payload, .. } => {
            if pipe.service.is_some() {
                // Hosted-service traffic: read once here so admission
                // sees the propagated deadline, admitted (or shed)
                // before it is served, never inside the delivery.
                admit_and_serve(shared, pipe, payload);
            } else {
                deliver_response(shared, &payload);
            }
        }
        // Typically a response that arrived after its caller timed out
        // and closed the return pipe.
        ThreadPeerEvent::UnknownPipe { .. } => shared.unknown_pipe.incr(),
        ThreadPeerEvent::Pong { .. } => {}
    }
}

/// A message on a return pipe, read once: its `RelatesTo` names the
/// call it answers, whose reader decodes the body in the same pass. The
/// call is settled and completed only once the whole envelope has read —
/// with the value, or with the fault a broken shape rule earned. A
/// message that is no envelope, or that answers no outstanding call, is
/// ignored (its body passed over). No lock is held while a body is read.
fn deliver_response(shared: &Shared, payload: &str) {
    let mut answered = None;
    let read = read_envelope_with(payload, &mut |_| {}, |headers, body| {
        answered = awaiting(shared, headers);
        match &answered {
            Some((_, call)) => call.read(body).map(|()| true),
            None => Ok(false),
        }
    });
    let Ok((headers, read)) = read else {
        return;
    };
    // A header that broke a rule ended the read before the body.
    let Some((token, call)) = answered.or_else(|| awaiting(shared, &headers)) else {
        return;
    };
    let refused = match read {
        Ok(false) => return,
        Ok(true) => None,
        Err(fault) => Some(fault),
    };
    if shared.correlator.lock().settle(token) {
        shared.pending_requests.lock().remove(&token);
        call.complete(refused);
    }
}

/// The outstanding call a response under `headers` answers, with its
/// token.
fn awaiting(shared: &Shared, headers: &MessageHeaders) -> Option<(u64, Arc<dyn PendingCall>)> {
    let token = shared
        .correlator
        .lock()
        .awaiting(headers.relates_to.as_deref()?)?;
    let call = shared.pending_requests.lock().get(&token)?.clone();
    Some((token, call))
}

/// Server side of Figure 6, in the binding's two steps: the edge of
/// the hosting pipeline here, on the delivering thread — a shed answers
/// immediately with the `wsp:overloaded` busy fault and its retry hint —
/// and the serve in a worker's slot, under the propagated deadline
/// (shed again if it has expired by then), sending the reply: after the
/// delivery on a caller that brought it, else on the pool. No queued
/// job is run here: a request that finds the queue full is shed too.
fn admit_and_serve(shared: &Arc<Shared>, pipe: PipeAdvertisement, payload: String) {
    let hosting = shared.hosting();
    let name = pipe.service.as_deref().expect("checked by caller");
    let definition = pipe.name == DEFINITION_PIPE;
    // The first deadline block among the headers that are not
    // WS-Addressing's.
    let mut budget = None;
    let mut foreign = |block: &HeaderBlock| {
        budget = budget.or_else(|| Deadline::in_block(&block.element));
    };
    let service = match hosting.service(name) {
        Some(service) if !definition => service,
        // No engine to read a body for: the headers say where to answer.
        hosted => {
            let Some(headers) = decode_request(&payload, &mut foreign) else {
                return;
            };
            let route = encode_response(&headers);
            let Some(service) = hosted else {
                if !definition {
                    let fault = format!("service {name:?} is not deployed on this peer");
                    shared.reply(route, Envelope::fault(Fault::receiver(fault)));
                }
                return;
            };
            // Definition-pipe reads are exempt from the gate: they are
            // cheap metadata, and an overloaded provider must stay
            // discoverable so consumers back off against it rather than
            // treating it as departed. They run no application code, so
            // a full queue has them answered here.
            let read = (shared.clone(), service, route);
            let queued = (hosting.dispatcher()).try_execute(budget.flatten(), read, send_wsdl);
            if let Err(read) = queued {
                send_wsdl(read);
            }
            return;
        }
    };
    // A request that does not read as an envelope is dropped.
    let Ok(request) = hosting.read(&service, &payload, &mut foreign) else {
        return;
    };
    let deadline = budget.flatten();
    let route = encode_response(&request.headers);
    // Pipes carry no correlation token (yet): the serve is traced
    // under id 0, as an HTTP request without the header is.
    let correlation = 0;
    let permit = match hosting.admit(&service, correlation, deadline) {
        Ok(permit) => permit,
        Err(error) => return shared.shed(route, error.retry_after_hint().unwrap_or_default()),
    };
    let (job_shared, job_hosting) = (shared.clone(), hosting.clone());
    let serve = move |route: Route| {
        let readdress = route.as_ref().map(|(_, headers)| headers);
        let request = Incoming::Read(request, &payload);
        let served = catch_unwind(AssertUnwindSafe(|| {
            job_hosting.serve(&service, request, readdress, correlation, deadline, permit)
        }));
        let bytes = match served {
            Ok(served) => served.into_bytes(),
            // The caller hears of the failure now, not at its timeout;
            // the job still fails.
            Err(panic) => {
                let failed = Fault::receiver(format!("service {} failed", service.name()));
                job_shared.reply(route, Envelope::fault(failed));
                resume_unwind(panic);
            }
        };
        if let (Some(bytes), Some((reply_pipe, _))) = (bytes, route) {
            job_shared.peer.send_pipe(reply_pipe, wire_text(bytes));
        }
    };
    // The caller's own request, with a worker free: served by it.
    let after = route.is_some() && thread_driver::may_serve_after();
    if let Some(lent) = after.then(|| hosting.dispatcher().try_lend()).flatten() {
        shared.served_inline.incr();
        return thread_driver::serve_after(move || lent.run(deadline, || serve(route)));
    }
    let queued =
        (hosting.dispatcher()).try_execute(deadline, (route, serve), |(route, serve)| serve(route));
    if let Err((route, unserved)) = queued {
        drop(unserved); // the permit, before the fault goes out
        shared.shed(route, QUEUE_FULL_RETRY);
    }
}

/// Answer a definition-pipe read with the service's WSDL.
fn send_wsdl((shared, service, route): (Arc<Shared>, Arc<HostedService>, Route)) {
    shared.reply(route, Envelope::request(service.wsdl_element().clone()));
}

// --- pipe request/response (Figure 5) ---------------------------------------

/// A pipe call awaiting its response, as the delivery sink sees it: the
/// reader of the body the call expects, and the caller's handle.
trait PendingCall: Send + Sync {
    /// Read the body of a response to the call with the call's reader,
    /// keeping the value for [`PendingCall::complete`].
    fn read(&self, body: Payload<'_, '_>) -> Result<(), SoapError>;
    /// Complete the caller's handle with the value read, or with the
    /// fault the envelope was `refused` with.
    fn complete(&self, refused: Option<Fault>);
}

/// The [`PendingCall`] of a call whose response body `R` reads as a `T`.
struct PipeCall<T, R> {
    read: R,
    value: Mutex<Option<T>>,
    completer: Mutex<Option<Completer<Result<T, Fault>>>>,
}

impl<T, R> PendingCall for PipeCall<T, R>
where
    T: Send + 'static,
    R: Fn(Payload<'_, '_>) -> Result<T, SoapError> + Send + Sync,
{
    fn read(&self, body: Payload<'_, '_>) -> Result<(), SoapError> {
        let value = (self.read)(body)?;
        *self.value.lock() = Some(value);
        Ok(())
    }

    fn complete(&self, refused: Option<Fault>) {
        let value = self.value.lock().take();
        let Some(read) = refused.map(Err).or(value.map(Ok)) else {
            return;
        };
        if let Some(completer) = self.completer.lock().take() {
            completer.complete(read);
        }
    }
}

/// One request down `target`, and its response as `read` decoded its
/// body on the thread that delivered it — or the fault the response was
/// refused with — with the call's correlator token (for the caller's
/// spans). `write` renders the request: leading header blocks, then
/// addressing.
fn request_over_pipe<T: Send + 'static>(
    shared: &Shared,
    target: PipeAdvertisement,
    write: impl FnOnce(&[Element], &MessageHeaders) -> Result<Vec<u8>, WspError>,
    read: impl Fn(Payload<'_, '_>) -> Result<T, SoapError> + Send + Sync + 'static,
) -> Result<(u64, Result<T, Fault>), WspError> {
    let hosting = shared.hosting();
    let dispatcher = hosting.dispatcher();
    let token = dispatcher.next_token();
    // Deadline propagation: ship the remaining budget as a SOAP header
    // and cap the response wait at it.
    let mut request_timeout = shared.config.request_timeout;
    let mut leading = Vec::new();
    let budget = overload::current_deadline().map(|at| Deadline(at).budget_ms());
    if let Some(ms) = budget.transpose()? {
        let budget = Element::build("", overload::DEADLINE_SOAP_HEADER).text(ms.to_string());
        leading.push(budget.finish());
        request_timeout = request_timeout.min(Duration::from_millis(ms));
    }
    let registry = telemetry::global();
    let started = clock::now();
    // Spans land under the *caller's* correlation (the invoking job),
    // with the pipe's own correlator token in the detail.
    registry.span_with(telemetry::current_correlation(), "p2ps.request", |d| {
        let service = target.service.as_deref().unwrap_or("");
        d.push("pipe=").push(service).push("#").push(&target.name);
        d.push(" rpc_token=").push_u64(token);
    });
    // Step 1-2: create a return pipe and its advertisement.
    let return_pipe = shared.peer.open_pipe(None);
    // Register the call, and the reader of its response, in the
    // correlation table; the delivery sink completes it when the
    // response arrives.
    let (handle, completer) = dispatcher.register(token);
    let call = Arc::new(PipeCall {
        read,
        value: Mutex::new(None),
        completer: Mutex::new(Some(completer)),
    });
    shared.pending_requests.lock().insert(token, call);
    // Step 3-5: serialise the advert into ReplyTo and send the request.
    let headers = (shared.correlator.lock()).encode_request(token, &target, &return_pipe);
    let due = Deadline::after(request_timeout);
    let result = write(&leading, &headers).map(|wire| {
        shared.peer.send_pipe(target, wire_text(wire));
        // Step 6: await the response (helping the pool while waiting,
        // so a worker making a nested call still serves incoming
        // requests). An answer this thread served itself past the
        // bound is a timeout, as it is from a worker.
        if due.expired() {
            return Err(handle);
        }
        handle.wait_timeout(due.remaining())
    });
    shared.pending_requests.lock().remove(&token);
    // Closing the return pipe abandons any request still correlated to
    // it: on the timeout path the response never arrived, and without
    // this the MessageID → token entry leaked forever.
    shared.correlator.lock().pipe_closed(&return_pipe);
    shared.peer.close_pipe(return_pipe);
    match result? {
        Ok(read) => {
            if registry.is_enabled() {
                shared.roundtrip_us.record_since(started);
                registry.span_with(telemetry::current_correlation(), "p2ps.response", |d| {
                    d.push("rpc_token=").push_u64(token);
                });
            }
            Ok((token, read))
        }
        Err(handle) => {
            handle.cancel();
            registry.span(
                telemetry::current_correlation(),
                "p2ps.timeout",
                format_args!("rpc_token={token}"),
            );
            Err(WspError::Timeout {
                what: "pipe request",
                millis: request_timeout.as_millis() as u64,
            })
        }
    }
}

/// What the response to request `token` refused the call with. A
/// `wsp:overloaded` fault is a shed, not an application fault: it
/// surfaces as `Overloaded`, so the retry loop honours the server's hint
/// without counting the endpoint unhealthy.
fn refusal(token: u64, error: ProxyError) -> WspError {
    let busy = match &error {
        ProxyError::Fault(fault) => overload::parse_busy_fault(&fault.reason),
        _ => None,
    };
    let Some(hint) = busy else {
        return error.into();
    };
    telemetry::global().span(
        telemetry::current_correlation(),
        "p2ps.shed",
        format_args!("rpc_token={token}"),
    );
    WspError::Overloaded {
        retry_after_ms: hint,
    }
}

/// The WSDL a definition pipe answers with: a document by nature, read
/// as a tree.
fn read_definition(body: Payload<'_, '_>) -> Result<WsdlDocument, SoapError> {
    let Payload::Element(reader) = body else {
        return Err(Fault::sender("no definition").into());
    };
    let wsdl = reader.read_subtree()?;
    WsdlDocument::from_element(&wsdl).map_err(|e| Fault::sender(e.to_string()).into())
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
    fn port(&self, service: &str) -> Result<Port, WspError> {
        let advert = ServiceAdvertisement::new(service, self.shared.peer.id());
        Ok(Port {
            name: format!("{service}P2psPort"),
            transport: TransportKind::P2ps,
            location: advert.uri().address(),
        })
    }

    fn open(&self, hosting: &Arc<Hosting>, service: &Arc<HostedService>) {
        self.shared
            .hosting
            .write()
            .get_or_insert_with(|| hosting.clone());
        // Open the pipes locally; announcement is publish's job. What
        // arrives on them finds `service` in the hosting core's table.
        let descriptor = &service.deployed().descriptor;
        let advert = advert_for(descriptor, self.shared.peer.id());
        self.shared.peer.register(advert);
    }

    fn close(&self, service: &str) {
        self.shared.peer.unpublish(service);
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
        let advert = advert_for(&service.descriptor, self.shared.peer.id());
        let definition_pipe = advert.definition_pipe().expect("advert_for adds it");
        if !self.shared.peer.has_pipe(definition_pipe) {
            return Err(WspError::Publish(format!(
                "{} is not deployed on this peer",
                service.name()
            )));
        }
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

impl P2psLocator {
    /// Flood `query` and resolve its hits through their definition
    /// pipes, each as it arrives and in arrival order, until `cap`
    /// services are located or the discovery window has closed and every
    /// advert taken while it was open has been tried. The pending query
    /// goes on return; hits that arrive for it later are dropped.
    fn discover(&self, query: &ServiceQuery, cap: usize) -> Vec<LocatedService> {
        let shared = &self.shared;
        let token = shared.hosting().dispatcher().next_token();
        let discovery_started = clock::now();
        shared.discovery_queries.incr();
        telemetry::global().span(
            telemetry::current_correlation(),
            "p2ps.discovery",
            format_args!("query_token={token}"),
        );
        let (tx, rx) = channel();
        shared.pending_queries.lock().insert(token, tx);
        shared.peer.query(token, query.to_p2ps());

        let window = Deadline::after(shared.config.discovery_window);
        // Distinct adverts in arrival order, the first `tried` of them
        // resolved (or given up on) already.
        let mut adverts: Vec<ServiceAdvertisement> = Vec::new();
        let mut tried = 0;
        let mut found = Vec::new();
        while found.len() < cap {
            // While the window is open, take what has arrived, waiting
            // for more only when there is nothing left to try.
            let open = Some(window.remaining()).filter(|left| !left.is_zero());
            let batch = match open {
                Some(remaining) if tried == adverts.len() => rx.recv_timeout(remaining).ok(),
                Some(_) => rx.try_recv().ok(),
                // The window has closed: take no more hits, but try
                // every one that came while it was open.
                None => {
                    shared.pending_queries.lock().remove(&token);
                    rx.try_recv().ok()
                }
            };
            if let Some(batch) = batch {
                for advert in batch {
                    if !adverts
                        .iter()
                        .any(|a| a.peer == advert.peer && a.name == advert.name)
                    {
                        adverts.push(advert);
                    }
                }
                continue;
            }
            let Some(advert) = adverts.get(tried) else {
                break; // the window closed with nothing left to try
            };
            tried += 1;
            found.extend(resolve(shared, advert));
        }
        shared.pending_queries.lock().remove(&token);
        // Full discovery round trip: the flood plus the WSDL retrievals
        // over definition pipes.
        shared.discovery_rtt_us.record_since(discovery_started);
        shared.discovery_hits.add(found.len() as u64);
        found
    }
}

/// The located service behind `advert`: its WSDL, retrieved through its
/// definition pipe. None for a provider that vanished mid-discovery, or
/// answered garbage.
fn resolve(shared: &Shared, advert: &ServiceAdvertisement) -> Option<LocatedService> {
    let definition_pipe = advert.definition_pipe()?;
    let get = |leading: &[Element], headers: &MessageHeaders| {
        let mut get = Envelope::request(Element::new(P2PS_NS, "GetDefinition"));
        for block in leading {
            get.add_header(HeaderBlock::new(block.clone()));
        }
        get.set_addressing(headers.clone());
        Ok(get.to_xml_bytes())
    };
    let answered = request_over_pipe(shared, definition_pipe.clone(), get, read_definition);
    let Ok((_, Ok(wsdl))) = answered else {
        return None;
    };
    let endpoint = advert.uri().address();
    Some(LocatedService::new(wsdl, endpoint, BindingKind::P2ps))
}

impl ServiceLocator for P2psLocator {
    /// Every service that answers within the discovery window — or, for
    /// a query capped at `max_results`, the first that many located.
    fn locate(&self, query: &ServiceQuery) -> Result<Vec<LocatedService>, WspError> {
        let cap = match query.max_results {
            0 => usize::MAX,
            n => n,
        };
        Ok(self.discover(query, cap))
    }

    /// The first service located, as soon as it is: the window bounds
    /// the wait for hits, it is not waited out.
    fn locate_first(&self, query: &ServiceQuery) -> Result<Option<LocatedService>, WspError> {
        Ok(self.discover(query, 1).pop())
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
        let op = proxy::check_request(descriptor, operation, args)?;
        // Straight to bytes, as over HTTP; `check_request` has passed.
        let write = |leading: &[Element], headers: &MessageHeaders| {
            let mut wire = wsp_xml::BufPool::global().take();
            proxy::write_request(descriptor, leading, headers, operation, args, &mut wire)?;
            Ok(wire)
        };
        if !op.expects_response() {
            // One-way: no return pipe, fire and forget.
            let wire = write(&[], &wsp_p2ps::request_headers(&target))?;
            self.shared.peer.send_pipe(target, wire_text(wire));
            return Ok(Value::Null);
        }
        let reader = proxy::ResponseReader::new(descriptor, op);
        let read = move |body: Payload<'_, '_>| reader.read(body);
        let (token, read) = request_over_pipe(&self.shared, target, write, read)?;
        proxy::response_value(read).map_err(|e| refusal(token, e))
    }

    fn handles(&self, endpoint: &str) -> bool {
        endpoint.starts_with("p2ps://")
    }

    fn kind(&self) -> &'static str {
        "p2ps"
    }
}
