//! The client side of the interface tree: discovery and invocation.
//!
//! There is exactly **one** invocation pipeline. Every call — locate or
//! invoke — is one job accounted by the shared [`Dispatcher`] under a
//! correlation token: the asynchronous methods queue it and return the
//! [`CallHandle`]; the synchronous methods run the very same job on the
//! calling thread ([`Dispatcher::run_with_token`]), since a caller that
//! would only wait has no use for a worker. Either way the token is the
//! one carried by the matching [`DiscoveryMessageEvent`] /
//! [`ClientMessageEvent`], so callers can pair results delivered
//! through events with the calls they made.

use crate::components::{Invoker, ServiceLocator};
use crate::dispatch::{CallHandle, Dispatcher};
use crate::endpoint::LocatedService;
use crate::error::WspError;
use crate::events::{
    ClientMessageEvent, DiscoveryMessageEvent, EventBus, ResilienceAction, ResilienceMessageEvent,
};
use crate::health::{Admission, EndpointHealth, ProbeGuard};
use crate::overload::{self, DeadlineScope};
use crate::query::{QueryExpr, ServiceQuery};
use crate::resilience::ResiliencePolicy;
use crate::telemetry;
use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsp_wsdl::Value;

/// The `Client` node: owns a pluggable [`ServiceLocator`] and a set of
/// [`Invoker`]s (one per reachable endpoint scheme), and fires
/// discovery/client events into the shared bus.
///
/// Both synchronous and asynchronous forms are offered; the paper's
/// position is that WSPeer "allows synchronous discovery and
/// invocation, \[but\] is essentially an asynchronous, event driven
/// system" — here both forms are the same job with the same token,
/// events and accounting; only the thread that runs it differs.
pub struct Client {
    locator: RwLock<Option<Arc<dyn ServiceLocator>>>,
    invokers: RwLock<Vec<Arc<dyn Invoker>>>,
    events: EventBus,
    dispatcher: Arc<Dispatcher>,
    /// Default per-call policy; [`ResiliencePolicy::none`] preserves
    /// the legacy single-attempt behaviour.
    policy: RwLock<ResiliencePolicy>,
    /// Per-endpoint circuit breakers, shared across all this client's
    /// calls (and visible via [`crate::Peer::health`]).
    health: Arc<EndpointHealth>,
    /// Cached end-to-end invoke latency histogram (covers the whole
    /// retry/failover loop; no-op while telemetry is disabled).
    invoke_us: Arc<telemetry::Histogram>,
    /// Attempt counters by endpoint label (at most
    /// [`MAX_ENDPOINT_LABELS`] + `other`), resolved once per label so
    /// the steady-state attempt path never formats a name or takes the
    /// registry lock.
    attempt_counters: Arc<AttemptCounters>,
}

impl Client {
    /// A standalone client with its own default-sized dispatcher.
    /// Inside a [`crate::Peer`] the dispatcher is shared instead — see
    /// [`Client::with_dispatcher`].
    pub fn new(events: EventBus) -> Arc<Client> {
        Client::with_dispatcher(events, Dispatcher::with_defaults())
    }

    pub fn with_dispatcher(events: EventBus, dispatcher: Arc<Dispatcher>) -> Arc<Client> {
        Arc::new(Client {
            locator: RwLock::new(None),
            invokers: RwLock::new(Vec::new()),
            events,
            dispatcher,
            policy: RwLock::new(ResiliencePolicy::none()),
            health: Arc::new(EndpointHealth::default()),
            invoke_us: telemetry::global().histogram("client.invoke_us"),
            attempt_counters: Arc::new(RwLock::new(std::collections::HashMap::new())),
        })
    }

    /// The dispatch core this client submits every call to.
    pub fn dispatcher(&self) -> &Arc<Dispatcher> {
        &self.dispatcher
    }

    /// The per-endpoint health registry consulted before each attempt.
    pub fn health(&self) -> &Arc<EndpointHealth> {
        &self.health
    }

    /// Install the default [`ResiliencePolicy`] applied by
    /// [`Client::invoke`]/[`Client::invoke_async`]. Calls already
    /// submitted keep the policy they captured.
    pub fn set_resilience_policy(&self, policy: ResiliencePolicy) {
        *self.policy.write() = policy;
    }

    /// The current default policy.
    pub fn resilience_policy(&self) -> ResiliencePolicy {
        self.policy.read().clone()
    }

    /// Plug in (or replace) the locator — e.g. swap the UDDI locator
    /// for a P2PS one without the application changing.
    pub fn set_locator(&self, locator: Arc<dyn ServiceLocator>) {
        *self.locator.write() = Some(locator);
    }

    /// Add an invoker. Several can coexist; dispatch is by endpoint
    /// scheme.
    pub fn add_invoker(&self, invoker: Arc<dyn Invoker>) {
        self.invokers.write().push(invoker);
    }

    pub fn locator_kind(&self) -> Option<&'static str> {
        self.locator.read().as_ref().map(|l| l.kind())
    }

    /// Wrap a submission failure (shut-down dispatcher) as an
    /// already-failed handle so the async API stays infallible.
    fn failed_handle<T: Send + 'static>(
        &self,
        token: u64,
        error: WspError,
    ) -> CallHandle<Result<T, WspError>> {
        let (handle, completer) = self.dispatcher.register(token);
        completer.complete(Err(error));
        handle
    }

    /// The locate job, shared by the queued and the caller-run form.
    fn locate_job(&self, token: u64) -> impl Fn(&ServiceQuery) -> LocateResult + Send + 'static {
        let locator = self.locator.read().clone();
        let events = self.events.clone();
        move |query| {
            let registry = telemetry::global();
            if registry.is_enabled() {
                registry.span(token, "client.locate", format_args!("query={query:?}"));
            }
            let result = match &locator {
                Some(locator) => locator.locate(query),
                None => Err(WspError::Locate("no ServiceLocator plugged in".into())),
            };
            events.fire_discovery(|| DiscoveryMessageEvent {
                token,
                result: result.clone(),
            });
            result
        }
    }

    /// Asynchronous discovery: submits to the dispatcher and returns a
    /// [`CallHandle`] immediately. The result also arrives as a
    /// [`DiscoveryMessageEvent`] carrying the handle's token.
    pub fn locate_async(&self, query: ServiceQuery) -> CallHandle<LocateResult> {
        let token = self.dispatcher.next_token();
        let job = self.locate_job(token);
        match self
            .dispatcher
            .submit_with_token(token, move || job(&query))
        {
            Ok(handle) => handle,
            Err(e) => self.failed_handle(token, e),
        }
    }

    /// Synchronous discovery: the [`Client::locate_async`] job, run on
    /// the calling thread. Fires a [`DiscoveryMessageEvent`] as well as
    /// returning the result.
    pub fn locate(&self, query: &ServiceQuery) -> LocateResult {
        let token = self.dispatcher.next_token();
        let job = self.locate_job(token);
        self.dispatcher.run_with_token(token, || job(query))?
    }

    /// Rich discovery (the paper's "more complex queries"): push a sound
    /// base query down to the binding's native search, then refine the
    /// results against the full expression using each service's name and
    /// the discovery properties carried in its WSDL.
    pub fn locate_where(&self, expr: &QueryExpr) -> Result<Vec<LocatedService>, WspError> {
        let candidates = self.locate(&expr.base_query())?;
        Ok(candidates
            .into_iter()
            .filter(|s| expr.matches(s.name(), &s.descriptor().properties))
            .collect())
    }

    /// Convenience: the first match, or an error.
    pub fn locate_one(&self, query: &ServiceQuery) -> Result<LocatedService, WspError> {
        self.locate(query)?
            .into_iter()
            .next()
            .ok_or_else(|| WspError::Locate(format!("no service matches {query:?}")))
    }

    /// Asynchronous invocation: submits to the dispatcher and returns a
    /// [`CallHandle`] immediately. Completion also arrives as a
    /// [`ClientMessageEvent`] carrying the handle's token. This is the
    /// mode "needed within a P2P environment" where nodes are
    /// unreliable. Applies the client's default [`ResiliencePolicy`].
    pub fn invoke_async(
        &self,
        service: LocatedService,
        operation: impl Into<String>,
        args: Vec<Value>,
    ) -> CallHandle<Result<Value, WspError>> {
        self.invoke_async_with_policy(service, operation, args, self.resilience_policy())
    }

    /// Asynchronous invocation under an explicit per-call policy: the
    /// job retries transient failures with jittered exponential
    /// backoff, consults the endpoint's circuit breaker before every
    /// attempt, fails over to the next matching endpoint via the
    /// locator, and stops at the policy's deadline. Degradation is
    /// surfaced as [`ResilienceMessageEvent`]s carrying the handle's
    /// token.
    pub fn invoke_async_with_policy(
        &self,
        service: LocatedService,
        operation: impl Into<String>,
        args: Vec<Value>,
        policy: ResiliencePolicy,
    ) -> CallHandle<Result<Value, WspError>> {
        let token = self.dispatcher.next_token();
        let operation = operation.into();
        let job = self.invoke_job(token, policy);
        match self
            .dispatcher
            .submit_with_token(token, move || job.run(&service, &operation, &args))
        {
            Ok(handle) => handle,
            Err(e) => self.failed_handle(token, e),
        }
    }

    /// Synchronous invocation: the [`Client::invoke_async`] job — the
    /// same validated, event-firing pipeline, not a separate path — run
    /// on the calling thread.
    pub fn invoke(
        &self,
        service: &LocatedService,
        operation: &str,
        args: &[Value],
    ) -> Result<Value, WspError> {
        self.invoke_with_policy(service, operation, args, self.resilience_policy())
    }

    /// Synchronous invocation under an explicit per-call policy.
    pub fn invoke_with_policy(
        &self,
        service: &LocatedService,
        operation: &str,
        args: &[Value],
        policy: ResiliencePolicy,
    ) -> Result<Value, WspError> {
        let token = self.dispatcher.next_token();
        let job = self.invoke_job(token, policy);
        self.dispatcher
            .run_with_token(token, || job.run(service, operation, args))?
    }

    /// Everything one invocation captures from the client, taken at the
    /// call — so the policy deadline counts from here, queued or not.
    fn invoke_job(&self, token: u64, policy: ResiliencePolicy) -> InvokeJob {
        InvokeJob {
            deadline: policy.deadline.map(|d| Instant::now() + d),
            policy,
            health: self.health.clone(),
            invokers: self.invokers.read().clone(),
            locator: self.locator.read().clone(),
            events: self.events.clone(),
            attempt_counters: self.attempt_counters.clone(),
            invoke_us: self.invoke_us.clone(),
            token,
        }
    }
}

type LocateResult = Result<Vec<LocatedService>, WspError>;
type AttemptCounters = RwLock<std::collections::HashMap<String, Arc<telemetry::Counter>>>;

/// Most endpoints one client gives a `client.attempts{endpoint=…}`
/// series of their own. Endpoints come out of registry records, and a
/// host that redeploys mints a new one each time, so the label must not
/// grow with every endpoint ever called: the first 64 are named, the
/// rest share `endpoint=other` (the bound PR 10 put on tenants).
const MAX_ENDPOINT_LABELS: usize = 64;
const OTHER_ENDPOINT: &str = "other";

/// Per-endpoint attempt count — every admission request, including
/// ones the breaker rejects without touching the wire, so breaker
/// effectiveness is visible. Handles are cached per label: steady
/// state is a read lock + incr, no name formatting, no registry lock.
fn count_attempt(counters: &AttemptCounters, registry: &telemetry::Telemetry, endpoint: &str) {
    {
        let cached = counters.read();
        // `other` exists only once every label is taken.
        let known = cached.get(endpoint).or_else(|| cached.get(OTHER_ENDPOINT));
        if let Some(counter) = known {
            counter.incr();
            return;
        }
    }
    let mut cached = counters.write();
    let label = if cached.len() < MAX_ENDPOINT_LABELS {
        endpoint
    } else {
        OTHER_ENDPOINT
    };
    cached
        .entry(label.to_owned())
        .or_insert_with(|| registry.counter(format!("client.attempts{{endpoint={label}}}")))
        .incr();
}

/// One invocation, whichever thread runs it: the resilient attempt
/// loop, the latency sample, the error span and the client event.
struct InvokeJob {
    policy: ResiliencePolicy,
    health: Arc<EndpointHealth>,
    invokers: Vec<Arc<dyn Invoker>>,
    locator: Option<Arc<dyn ServiceLocator>>,
    events: EventBus,
    attempt_counters: Arc<AttemptCounters>,
    invoke_us: Arc<telemetry::Histogram>,
    token: u64,
    deadline: Option<Instant>,
}

impl InvokeJob {
    fn run(
        &self,
        service: &LocatedService,
        operation: &str,
        args: &[Value],
    ) -> Result<Value, WspError> {
        let registry = telemetry::global();
        let started = Instant::now();
        let attempts = ResilientAttempts {
            policy: &self.policy,
            health: &self.health,
            invokers: &self.invokers,
            locator: self.locator.as_ref(),
            events: &self.events,
            attempt_counters: &self.attempt_counters,
            token: self.token,
            deadline: self.deadline,
        };
        let result = attempts.run(service, operation, args);
        self.invoke_us.record_micros(started.elapsed());
        if registry.is_enabled() {
            if let Err(error) = &result {
                registry.span(
                    self.token,
                    "client.error",
                    format_args!("endpoint={} error={error}", service.endpoint),
                );
            }
        }
        self.events.fire_client(|| ClientMessageEvent {
            token: self.token,
            service: service.name().to_owned(),
            operation: operation.to_owned(),
            result: result.clone(),
        });
        result
    }
}

/// The retry/failover loop one invoke job runs through. Borrowed
/// context keeps the dispatched closure small.
struct ResilientAttempts<'a> {
    policy: &'a ResiliencePolicy,
    health: &'a EndpointHealth,
    invokers: &'a [Arc<dyn Invoker>],
    locator: Option<&'a Arc<dyn ServiceLocator>>,
    events: &'a EventBus,
    attempt_counters: &'a AttemptCounters,
    token: u64,
    deadline: Option<Instant>,
}

impl ResilientAttempts<'_> {
    fn fire(&self, service: &LocatedService, action: ResilienceAction) {
        let registry = telemetry::global();
        if registry.is_enabled() {
            let stage = match &action {
                ResilienceAction::AttemptFailed { .. } => "resilience.attempt_failed",
                ResilienceAction::FailedOver { .. } => "resilience.failed_over",
                ResilienceAction::BreakerTripped => "resilience.breaker_tripped",
                ResilienceAction::BreakerProbe => "resilience.breaker_probe",
                ResilienceAction::BreakerRecovered => "resilience.breaker_recovered",
                ResilienceAction::DeadlineExceeded { .. } => "resilience.deadline_exceeded",
            };
            match &action {
                ResilienceAction::BreakerTripped => registry.counter("breaker.trips").incr(),
                ResilienceAction::BreakerProbe => registry.counter("breaker.probes").incr(),
                ResilienceAction::BreakerRecovered => registry.counter("breaker.recoveries").incr(),
                _ => {}
            }
            registry.span(
                self.token,
                stage,
                format_args!("endpoint={} action={action:?}", service.endpoint),
            );
        }
        self.events.fire_resilience(&ResilienceMessageEvent {
            token: self.token,
            service: service.name().to_owned(),
            endpoint: service.endpoint.clone(),
            action,
        });
    }

    /// One transport attempt against the current endpoint, gated by its
    /// circuit breaker.
    fn attempt(
        &self,
        service: &LocatedService,
        operation: &str,
        args: &[Value],
    ) -> Result<Value, WspError> {
        let registry = telemetry::global();
        if registry.is_enabled() {
            count_attempt(self.attempt_counters, registry, &service.endpoint);
        }
        let breaker = self.health.breaker(&service.endpoint);
        let admission = breaker.try_acquire(Instant::now());
        if admission == Admission::Rejected {
            return Err(WspError::CircuitOpen {
                endpoint: service.endpoint.clone(),
            });
        }
        // If this attempt is the half-open probe, guard it: a panic in
        // the invoker (or any path that skips the outcome report below)
        // must not strand the probe slot — the guard's Drop routes a
        // ProbeAborted event and the breaker re-opens for a fresh
        // cooldown.
        let mut probe_guard = None;
        if admission == Admission::Probe {
            self.fire(service, ResilienceAction::BreakerProbe);
            probe_guard = Some(ProbeGuard::arm(breaker.clone()));
        }
        let result = match self.invokers.iter().find(|i| i.handles(&service.endpoint)) {
            Some(invoker) => {
                // Scope the call deadline to the attempt so the
                // transport can put the remaining budget on the wire
                // (X-WSP-Deadline / SOAP header). The effective
                // deadline is the tighter of this call's own deadline
                // and any inherited one — a handler making a nested
                // outbound call cannot outlive its caller's budget.
                let effective = match (self.deadline, overload::current_deadline()) {
                    (Some(own), Some(inherited)) => Some(own.min(inherited)),
                    (own, inherited) => own.or(inherited),
                };
                let _deadline = DeadlineScope::enter(effective);
                invoker.invoke(service, operation, args)
            }
            None => Err(WspError::NoBindingFor {
                scheme: service
                    .endpoint
                    .split("://")
                    .next()
                    .unwrap_or("?")
                    .to_owned(),
            }),
        };
        match &result {
            Ok(_) => {
                if let Some(guard) = probe_guard.take() {
                    guard.disarm();
                }
                if breaker.on_success(Instant::now()) {
                    self.fire(service, ResilienceAction::BreakerRecovered);
                }
            }
            Err(e) if e.counts_against_endpoint() => {
                if let Some(guard) = probe_guard.take() {
                    guard.disarm();
                }
                if breaker.on_failure(Instant::now()) {
                    self.fire(service, ResilienceAction::BreakerTripped);
                }
            }
            // Non-counting errors report no outcome: a still-armed
            // probe guard drops here and aborts the probe.
            Err(_) => {}
        }
        result
    }

    /// On a retryable failure, re-resolve through the locator and pick
    /// the next matching endpoint not yet tried and not circuit-open.
    fn failover_target(
        &self,
        service: &LocatedService,
        operation: &str,
        tried: &[String],
    ) -> Option<LocatedService> {
        let locator = self.locator?;
        let candidates = locator
            .locate(&ServiceQuery::by_name(service.name()))
            .ok()?;
        let now = Instant::now();
        candidates.into_iter().find(|c| {
            c.endpoint != service.endpoint
                && !tried.contains(&c.endpoint)
                && c.has_operation(operation)
                && self.invokers.iter().any(|i| i.handles(&c.endpoint))
                && self.health.is_admitting(&c.endpoint, now)
        })
    }

    fn run(
        &self,
        first: &LocatedService,
        operation: &str,
        args: &[Value],
    ) -> Result<Value, WspError> {
        // The endpoint in use: the caller's until a failover replaces it.
        let mut failover: Option<LocatedService> = None;
        let mut service = first;
        if !service.has_operation(operation) {
            return Err(WspError::NoSuchOperation {
                service: service.name().to_owned(),
                operation: operation.to_owned(),
            });
        }
        // Jitter is deterministic per (policy seed, call token), so a
        // rerun of the same call sequence reproduces its delays.
        let mut rng = StdRng::seed_from_u64(self.policy.jitter_seed ^ self.token);
        let mut tried: Vec<String> = Vec::new();
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            let error = match self.attempt(service, operation, args) {
                Ok(value) => {
                    let registry = telemetry::global();
                    if registry.is_enabled() {
                        // One closing span per call instead of a
                        // start/end pair: at microsecond invoke scale a
                        // second span per call is a measurable slice of
                        // the E10 overhead budget, and the resilience
                        // spans already narrate multi-attempt calls.
                        // Push-built detail: `core::fmt` dispatch alone
                        // costs more than the rest of the record.
                        registry.span_with(self.token, "client.ok", |d| {
                            d.push("service=")
                                .push(service.name())
                                .push(" operation=")
                                .push(operation)
                                .push(" endpoint=")
                                .push(&service.endpoint)
                                .push(" attempts=")
                                .push_u64(attempt as u64);
                        });
                    }
                    return Ok(value);
                }
                Err(e) => e,
            };
            let will_retry = self.policy.is_retryable(&error) && attempt < self.policy.max_attempts;
            self.fire(
                service,
                ResilienceAction::AttemptFailed {
                    attempt,
                    error: error.to_string(),
                    will_retry,
                },
            );
            if !will_retry {
                return Err(error);
            }
            if !tried.contains(&service.endpoint) {
                tried.push(service.endpoint.clone());
            }
            if let Some(next) = self.failover_target(service, operation, &tried) {
                self.fire(
                    service,
                    ResilienceAction::FailedOver {
                        to: next.endpoint.clone(),
                    },
                );
                service = failover.insert(next);
            }
            let delay = self
                .policy
                .backoff_before(attempt + 1)
                .map(|d| self.policy.jittered(d, &mut rng))
                .unwrap_or(Duration::ZERO);
            // Transient-with-hint: an overloaded server's Retry-After
            // is a floor under our own schedule — retrying sooner than
            // the server asked would feed the very overload it is
            // shedding.
            let delay = match error.retry_after_hint() {
                Some(hint) => delay.max(hint),
                None => delay,
            };
            if let Some(deadline) = self.deadline {
                if Instant::now() + delay >= deadline {
                    self.fire(
                        service,
                        ResilienceAction::DeadlineExceeded {
                            after_attempts: attempt,
                        },
                    );
                    let millis = self
                        .policy
                        .deadline
                        .map(|d| d.as_millis() as u64)
                        .unwrap_or(0);
                    return Err(WspError::Timeout {
                        what: "call deadline",
                        millis,
                    });
                }
            }
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::BindingKind;
    use crate::events::CollectingListener;
    use wsp_wsdl::{ServiceDescriptor, WsdlDocument};

    struct FixedLocator(Vec<LocatedService>);
    impl ServiceLocator for FixedLocator {
        fn locate(&self, _query: &ServiceQuery) -> Result<Vec<LocatedService>, WspError> {
            Ok(self.0.clone())
        }
        fn kind(&self) -> &'static str {
            "fixed"
        }
    }

    struct EchoInvoker;
    impl Invoker for EchoInvoker {
        fn invoke(
            &self,
            _service: &LocatedService,
            _operation: &str,
            args: &[Value],
        ) -> Result<Value, WspError> {
            Ok(args.first().cloned().unwrap_or(Value::Null))
        }
        fn handles(&self, endpoint: &str) -> bool {
            endpoint.starts_with("test://")
        }
        fn kind(&self) -> &'static str {
            "test"
        }
    }

    fn test_service() -> LocatedService {
        LocatedService::new(
            WsdlDocument::new(ServiceDescriptor::echo(), vec![]),
            "test://somewhere/Echo",
            BindingKind::HttpUddi,
        )
    }

    fn wired_client() -> (Arc<Client>, Arc<CollectingListener>) {
        let events = EventBus::new();
        let listener = CollectingListener::new();
        events.add_listener(listener.clone());
        let client = Client::new(events);
        client.set_locator(Arc::new(FixedLocator(vec![test_service()])));
        client.add_invoker(Arc::new(EchoInvoker));
        (client, listener)
    }

    #[test]
    fn locate_fires_event_and_returns() {
        let (client, listener) = wired_client();
        let found = client.locate(&ServiceQuery::by_name("Echo")).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(listener.discoveries.read().len(), 1);
    }

    #[test]
    fn locate_without_locator_errors() {
        let client = Client::new(EventBus::new());
        assert!(matches!(
            client.locate(&ServiceQuery::any()),
            Err(WspError::Locate(_))
        ));
    }

    #[test]
    fn invoke_dispatches_by_scheme() {
        let (client, listener) = wired_client();
        let service = client.locate_one(&ServiceQuery::by_name("Echo")).unwrap();
        let out = client
            .invoke(&service, "echoString", &[Value::string("hello")])
            .unwrap();
        assert_eq!(out, Value::string("hello"));
        assert_eq!(listener.client_messages.read().len(), 1);
    }

    #[test]
    fn invoke_unknown_scheme_errors() {
        let (client, _) = wired_client();
        let mut service = test_service();
        service.endpoint = "gopher://old/Echo".into();
        let err = client
            .invoke(&service, "echoString", &[Value::string("x")])
            .unwrap_err();
        assert!(matches!(err, WspError::NoBindingFor { scheme } if scheme == "gopher"));
    }

    #[test]
    fn invoke_unknown_operation_errors() {
        let (client, _) = wired_client();
        let service = test_service();
        let err = client.invoke(&service, "fly", &[]).unwrap_err();
        assert!(matches!(err, WspError::NoSuchOperation { .. }));
    }

    #[test]
    fn async_paths_fire_events() {
        let (client, listener) = wired_client();
        let locate_handle = client.locate_async(ServiceQuery::by_name("Echo"));
        let invoke_handle =
            client.invoke_async(test_service(), "echoString", vec![Value::string("async")]);
        // Deterministic barrier: both jobs (and the events they fire)
        // complete before flush returns — no poll-and-sleep loop.
        client.dispatcher().flush();
        let discovery = listener
            .discovery_for(locate_handle.token())
            .expect("discovery event carries the handle's token");
        assert_eq!(discovery.result.unwrap().len(), 1);
        let client_event = listener
            .client_message_for(invoke_handle.token())
            .expect("client event carries the handle's token");
        assert_eq!(
            client_event.result.as_ref().unwrap(),
            &Value::string("async")
        );
        assert_eq!(invoke_handle.wait().unwrap(), Value::string("async"));
    }

    #[test]
    fn invoke_returns_correlation_token_to_caller() {
        let (client, listener) = wired_client();
        let handle = client.invoke_async(test_service(), "echoString", vec![Value::string("t")]);
        let token = handle.token();
        assert_eq!(handle.wait().unwrap(), Value::string("t"));
        let event = listener
            .client_message_for(token)
            .expect("event matched by returned token");
        assert_eq!(event.operation, "echoString");
    }

    #[test]
    fn failed_invocations_complete_handle_and_fire_event() {
        let (client, listener) = wired_client();
        let handle = client.invoke_async(test_service(), "fly", vec![]);
        let token = handle.token();
        assert!(matches!(
            handle.wait(),
            Err(WspError::NoSuchOperation { .. })
        ));
        let event = listener
            .client_message_for(token)
            .expect("error still fires an event");
        assert!(event.result.is_err());
    }

    /// Fails with a transport error for the first `failures` calls,
    /// then echoes. Counts invocations.
    struct FlakyInvoker {
        failures: u32,
        calls: std::sync::atomic::AtomicU32,
    }
    impl FlakyInvoker {
        fn new(failures: u32) -> Self {
            FlakyInvoker {
                failures,
                calls: std::sync::atomic::AtomicU32::new(0),
            }
        }
    }
    impl Invoker for FlakyInvoker {
        fn invoke(
            &self,
            _service: &LocatedService,
            _operation: &str,
            args: &[Value],
        ) -> Result<Value, WspError> {
            let n = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if n < self.failures {
                Err(WspError::Transport("connection reset".into()))
            } else {
                Ok(args.first().cloned().unwrap_or(Value::Null))
            }
        }
        fn handles(&self, endpoint: &str) -> bool {
            endpoint.starts_with("test://")
        }
        fn kind(&self) -> &'static str {
            "flaky"
        }
    }

    fn service_at(endpoint: &str) -> LocatedService {
        LocatedService::new(
            WsdlDocument::new(ServiceDescriptor::echo(), vec![]),
            endpoint,
            BindingKind::HttpUddi,
        )
    }

    /// A fast-retrying policy: no real sleeps, no deadline.
    fn instant_policy(max_attempts: u32) -> ResiliencePolicy {
        ResiliencePolicy::retrying(max_attempts).with_backoff(Duration::ZERO, 1.0, Duration::ZERO)
    }

    #[test]
    fn retry_policy_recovers_from_transient_failures() {
        let events = EventBus::new();
        let listener = CollectingListener::new();
        events.add_listener(listener.clone());
        let client = Client::new(events);
        let flaky = Arc::new(FlakyInvoker::new(2));
        client.add_invoker(flaky.clone());
        let handle = client.invoke_async_with_policy(
            test_service(),
            "echoString",
            vec![Value::string("again")],
            instant_policy(5),
        );
        let token = handle.token();
        assert_eq!(handle.wait().unwrap(), Value::string("again"));
        assert_eq!(flaky.calls.load(std::sync::atomic::Ordering::SeqCst), 3);
        client.dispatcher().flush();
        let seen = listener.resilience_for(token);
        assert_eq!(seen.len(), 2, "one event per failed attempt");
        for (i, event) in seen.iter().enumerate() {
            assert!(matches!(
                &event.action,
                ResilienceAction::AttemptFailed { attempt, will_retry: true, .. }
                    if *attempt == (i + 1) as u32
            ));
        }
    }

    #[test]
    fn default_policy_keeps_single_attempt_semantics() {
        let events = EventBus::new();
        let client = Client::new(events);
        let flaky = Arc::new(FlakyInvoker::new(1));
        client.add_invoker(flaky.clone());
        let err = client
            .invoke(&test_service(), "echoString", &[Value::string("x")])
            .unwrap_err();
        assert!(matches!(err, WspError::Transport(_)));
        assert_eq!(flaky.calls.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        struct BadArgInvoker;
        impl Invoker for BadArgInvoker {
            fn invoke(
                &self,
                _service: &LocatedService,
                _operation: &str,
                _args: &[Value],
            ) -> Result<Value, WspError> {
                Err(WspError::Invoke("malformed argument".into()))
            }
            fn handles(&self, endpoint: &str) -> bool {
                endpoint.starts_with("test://")
            }
            fn kind(&self) -> &'static str {
                "bad"
            }
        }
        let events = EventBus::new();
        let listener = CollectingListener::new();
        events.add_listener(listener.clone());
        let client = Client::new(events);
        client.add_invoker(Arc::new(BadArgInvoker));
        let handle = client.invoke_async_with_policy(
            test_service(),
            "echoString",
            vec![],
            instant_policy(5),
        );
        let token = handle.token();
        assert!(matches!(handle.wait(), Err(WspError::Invoke(_))));
        client.dispatcher().flush();
        let seen = listener.resilience_for(token);
        assert_eq!(seen.len(), 1);
        assert!(matches!(
            &seen[0].action,
            ResilienceAction::AttemptFailed {
                will_retry: false,
                ..
            }
        ));
    }

    #[test]
    fn consecutive_failures_trip_the_breaker() {
        // One endpoint, no failover targets: the breaker's threshold
        // (3) trips mid-call and the final attempt is rejected at the
        // breaker, not on the wire.
        let events = EventBus::new();
        let listener = CollectingListener::new();
        events.add_listener(listener.clone());
        let client = Client::new(events);
        let flaky = Arc::new(FlakyInvoker::new(u32::MAX));
        client.add_invoker(flaky.clone());
        let handle = client.invoke_async_with_policy(
            test_service(),
            "echoString",
            vec![Value::string("x")],
            instant_policy(4),
        );
        let token = handle.token();
        let err = handle.wait().unwrap_err();
        assert!(matches!(err, WspError::CircuitOpen { .. }));
        assert_eq!(
            flaky.calls.load(std::sync::atomic::Ordering::SeqCst),
            3,
            "fourth attempt never reached the wire"
        );
        client.dispatcher().flush();
        let actions = listener.resilience_for(token);
        assert!(actions
            .iter()
            .any(|e| matches!(e.action, ResilienceAction::BreakerTripped)));
    }

    #[test]
    fn panicking_probe_reopens_the_breaker_instead_of_stranding_it() {
        // Trip the breaker with transport failures, wait out a short
        // cooldown, then have the half-open probe attempt panic inside
        // the invoker. The ProbeGuard must route ProbeAborted so the
        // breaker re-opens with the probe slot free — not stay wedged
        // with probe_in_flight=true rejecting every future caller.
        use std::sync::atomic::{AtomicU32, Ordering};
        struct TripThenPanicInvoker {
            calls: AtomicU32,
        }
        impl Invoker for TripThenPanicInvoker {
            fn invoke(
                &self,
                _service: &LocatedService,
                _operation: &str,
                _args: &[Value],
            ) -> Result<Value, WspError> {
                let n = self.calls.fetch_add(1, Ordering::SeqCst);
                if n < 3 {
                    Err(WspError::Transport("down".into()))
                } else {
                    panic!("probe attempt exploded");
                }
            }
            fn handles(&self, endpoint: &str) -> bool {
                endpoint.starts_with("test://")
            }
            fn kind(&self) -> &'static str {
                "trip-then-panic"
            }
        }
        let client = Client::new(EventBus::new());
        client.health().set_config(crate::BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(50),
        });
        client.add_invoker(Arc::new(TripThenPanicInvoker {
            calls: AtomicU32::new(0),
        }));
        let service = test_service();
        // Three failing attempts trip the breaker.
        let handle = client.invoke_async_with_policy(
            service.clone(),
            "echoString",
            vec![],
            instant_policy(3),
        );
        assert!(handle.wait().is_err());
        let breaker = client.health().breaker(&service.endpoint);
        assert_eq!(breaker.state(Instant::now()), crate::BreakerState::Open);
        std::thread::sleep(Duration::from_millis(60));
        // The probe attempt panics; the waiter re-panics with it.
        let handle = client.invoke_async(service.clone(), "echoString", vec![]);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle.wait()));
        assert!(unwound.is_err(), "poisoned handle re-panics the waiter");
        // The guard freed the probe slot and re-opened the breaker.
        assert!(!breaker.probe_in_flight(), "probe slot must not strand");
        assert_eq!(breaker.state(Instant::now()), crate::BreakerState::Open);
        // After a fresh cooldown the breaker admits a new probe.
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(breaker.try_acquire(Instant::now()), Admission::Probe);
    }

    #[test]
    fn retryable_failure_fails_over_to_next_endpoint() {
        // Endpoint A always fails at the transport; endpoint B echoes.
        // The locator advertises both, so attempt 2 lands on B.
        struct SplitInvoker;
        impl Invoker for SplitInvoker {
            fn invoke(
                &self,
                service: &LocatedService,
                _operation: &str,
                args: &[Value],
            ) -> Result<Value, WspError> {
                if service.endpoint.contains("primary") {
                    Err(WspError::Transport("unreachable".into()))
                } else {
                    Ok(args.first().cloned().unwrap_or(Value::Null))
                }
            }
            fn handles(&self, endpoint: &str) -> bool {
                endpoint.starts_with("test://")
            }
            fn kind(&self) -> &'static str {
                "split"
            }
        }
        let events = EventBus::new();
        let listener = CollectingListener::new();
        events.add_listener(listener.clone());
        let client = Client::new(events);
        client.add_invoker(Arc::new(SplitInvoker));
        let primary = service_at("test://primary/Echo");
        let backup = service_at("test://backup/Echo");
        client.set_locator(Arc::new(FixedLocator(vec![primary.clone(), backup])));
        let handle = client.invoke_async_with_policy(
            primary,
            "echoString",
            vec![Value::string("over")],
            instant_policy(3),
        );
        let token = handle.token();
        assert_eq!(handle.wait().unwrap(), Value::string("over"));
        client.dispatcher().flush();
        let actions = listener.resilience_for(token);
        assert!(
            actions.iter().any(|e| matches!(
                &e.action,
                ResilienceAction::FailedOver { to } if to == "test://backup/Echo"
            )),
            "failover event names the new endpoint: {actions:?}"
        );
    }

    #[test]
    fn deadline_bounds_the_retry_loop() {
        let events = EventBus::new();
        let listener = CollectingListener::new();
        events.add_listener(listener.clone());
        let client = Client::new(events);
        client.add_invoker(Arc::new(FlakyInvoker::new(u32::MAX)));
        // Backoff (20ms per retry) blows through a 30ms deadline well
        // before the attempt budget is spent.
        let policy = ResiliencePolicy::retrying(50)
            .with_backoff(Duration::from_millis(20), 1.0, Duration::from_millis(20))
            .with_jitter(0.0)
            .with_deadline(Duration::from_millis(30));
        let handle = client.invoke_async_with_policy(
            test_service(),
            "echoString",
            vec![Value::string("x")],
            policy,
        );
        let token = handle.token();
        let err = handle.wait().unwrap_err();
        assert!(
            matches!(
                err,
                WspError::Timeout {
                    what: "call deadline",
                    millis: 30
                }
            ),
            "got {err:?}"
        );
        client.dispatcher().flush();
        let actions = listener.resilience_for(token);
        assert!(actions
            .iter()
            .any(|e| matches!(e.action, ResilienceAction::DeadlineExceeded { .. })));
    }

    /// Sheds the first `sheds` calls with `Overloaded` (hint attached),
    /// then echoes.
    struct SheddingInvoker {
        sheds: u32,
        hint_ms: u64,
        calls: std::sync::atomic::AtomicU32,
    }
    impl Invoker for SheddingInvoker {
        fn invoke(
            &self,
            _service: &LocatedService,
            _operation: &str,
            args: &[Value],
        ) -> Result<Value, WspError> {
            let n = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if n < self.sheds {
                Err(WspError::Overloaded {
                    retry_after_ms: Some(self.hint_ms),
                })
            } else {
                Ok(args.first().cloned().unwrap_or(Value::Null))
            }
        }
        fn handles(&self, endpoint: &str) -> bool {
            endpoint.starts_with("test://")
        }
        fn kind(&self) -> &'static str {
            "shedding"
        }
    }

    #[test]
    fn overloaded_is_retried_and_hint_floors_the_backoff() {
        let client = Client::new(EventBus::new());
        let invoker = Arc::new(SheddingInvoker {
            sheds: 1,
            hint_ms: 60,
            calls: std::sync::atomic::AtomicU32::new(0),
        });
        client.add_invoker(invoker.clone());
        // Zero own backoff: any observed delay is the server's hint.
        let started = Instant::now();
        let out = client
            .invoke_with_policy(
                &test_service(),
                "echoString",
                &[Value::string("hinted")],
                instant_policy(3),
            )
            .unwrap();
        assert_eq!(out, Value::string("hinted"));
        assert_eq!(invoker.calls.load(std::sync::atomic::Ordering::SeqCst), 2);
        assert!(
            started.elapsed() >= Duration::from_millis(60),
            "retry must wait out the server's 60ms hint, took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn overload_sheds_do_not_trip_the_breaker() {
        let events = EventBus::new();
        let listener = CollectingListener::new();
        events.add_listener(listener.clone());
        let client = Client::new(events);
        client.add_invoker(Arc::new(SheddingInvoker {
            sheds: 3, // would trip a threshold-3 breaker if sheds counted
            hint_ms: 0,
            calls: std::sync::atomic::AtomicU32::new(0),
        }));
        let handle = client.invoke_async_with_policy(
            test_service(),
            "echoString",
            vec![Value::string("alive")],
            instant_policy(5),
        );
        let token = handle.token();
        assert_eq!(
            handle.wait().unwrap(),
            Value::string("alive"),
            "the 4th attempt must reach the wire, not an open breaker"
        );
        client.dispatcher().flush();
        let actions = listener.resilience_for(token);
        assert!(
            !actions
                .iter()
                .any(|e| matches!(e.action, ResilienceAction::BreakerTripped)),
            "polite sheds must not blacklist a healthy endpoint: {actions:?}"
        );
    }

    #[test]
    fn attempts_run_inside_a_deadline_scope() {
        // The transport must be able to read the call's remaining
        // budget (to serialise it on the wire) via current_deadline().
        struct DeadlineProbe {
            seen: Arc<parking_lot::Mutex<Vec<Option<Instant>>>>,
        }
        impl Invoker for DeadlineProbe {
            fn invoke(
                &self,
                _service: &LocatedService,
                _operation: &str,
                _args: &[Value],
            ) -> Result<Value, WspError> {
                self.seen.lock().push(overload::current_deadline());
                Ok(Value::Null)
            }
            fn handles(&self, endpoint: &str) -> bool {
                endpoint.starts_with("test://")
            }
            fn kind(&self) -> &'static str {
                "probe"
            }
        }
        let client = Client::new(EventBus::new());
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        client.add_invoker(Arc::new(DeadlineProbe { seen: seen.clone() }));
        client
            .invoke_with_policy(
                &test_service(),
                "echoString",
                &[],
                ResiliencePolicy::none().with_deadline(Duration::from_secs(5)),
            )
            .unwrap();
        client.invoke(&test_service(), "echoString", &[]).unwrap();
        let seen = seen.lock();
        assert_eq!(seen.len(), 2);
        assert!(
            seen[0].is_some(),
            "a policy deadline is visible to the transport"
        );
        assert!(seen[1].is_none(), "no deadline, no scope");
    }

    /// Records what a job can observe from inside: the correlation id
    /// it runs under and the deadline scoped around the attempt.
    #[derive(Default)]
    struct Probe {
        correlations: parking_lot::Mutex<Vec<u64>>,
        deadlines: parking_lot::Mutex<Vec<Option<Instant>>>,
    }
    impl Invoker for Probe {
        fn invoke(
            &self,
            _service: &LocatedService,
            _operation: &str,
            args: &[Value],
        ) -> Result<Value, WspError> {
            self.correlations
                .lock()
                .push(telemetry::current_correlation());
            self.deadlines.lock().push(overload::current_deadline());
            Ok(args.first().cloned().unwrap_or(Value::Null))
        }
        fn handles(&self, endpoint: &str) -> bool {
            endpoint.starts_with("test://")
        }
        fn kind(&self) -> &'static str {
            "probe"
        }
    }

    #[test]
    fn sync_and_async_forms_fire_the_same_event_under_the_call_token() {
        let events = EventBus::new();
        let listener = CollectingListener::new();
        events.add_listener(listener.clone());
        let client = Client::new(events);
        let probe = Arc::new(Probe::default());
        client.add_invoker(probe.clone());
        client.set_locator(Arc::new(FixedLocator(vec![test_service()])));

        let before = client.dispatcher().stats();
        let sync = client.invoke(&test_service(), "echoString", &[Value::string("same")]);
        let after_sync = client.dispatcher().stats();
        let handle = client.invoke_async(test_service(), "echoString", vec![Value::string("same")]);
        let async_token = handle.token();
        let asynchronous = handle.wait();
        let after_async = client.dispatcher().stats();
        assert_eq!(sync.unwrap(), asynchronous.unwrap());

        // Each job ran under its call's token, and its event carries it.
        let ran_under = probe.correlations.lock().clone();
        assert_eq!(ran_under.len(), 2);
        assert_eq!(ran_under[1], async_token);
        assert_ne!(ran_under[0], ran_under[1]);
        let sync_event = listener
            .client_message_for(ran_under[0])
            .expect("the synchronous call fired its event under its token");
        let async_event = listener.client_message_for(async_token).unwrap();
        assert_eq!(sync_event.service, async_event.service);
        assert_eq!(sync_event.operation, async_event.operation);
        assert_eq!(
            sync_event.result.as_ref().unwrap(),
            async_event.result.as_ref().unwrap()
        );
        assert_eq!(listener.client_messages.read().len(), 2, "one event each");

        // And the books moved the same way.
        let moved = |a: &crate::DispatcherStats, b: &crate::DispatcherStats| {
            (
                b.submitted - a.submitted,
                b.completed - a.completed,
                b.failed - a.failed,
                b.cancelled - a.cancelled,
                b.pending_calls,
            )
        };
        assert_eq!(moved(&before, &after_sync), (1, 1, 0, 0, 0));
        assert_eq!(moved(&after_sync, &after_async), (1, 1, 0, 0, 0));

        // Discovery likewise: one event per locate, either form.
        let found = client.locate(&ServiceQuery::by_name("Echo")).unwrap();
        let handle = client.locate_async(ServiceQuery::by_name("Echo"));
        let token = handle.token();
        assert_eq!(handle.wait().unwrap().len(), found.len());
        assert_eq!(listener.discoveries.read().len(), 2);
        assert!(listener.discovery_for(token).is_some());
    }

    #[test]
    fn policy_deadline_counts_from_the_call_in_both_forms() {
        let budget = Duration::from_secs(5);
        let policy = ResiliencePolicy::none().with_deadline(budget);
        let dispatcher = Dispatcher::new(crate::DispatcherConfig {
            workers: 1,
            queue_capacity: 8,
        });
        let client = Client::with_dispatcher(EventBus::new(), dispatcher);
        let probe = Arc::new(Probe::default());
        client.add_invoker(probe.clone());

        // Asynchronous: the only worker is held for a while, so the job
        // starts well after the call — its deadline must not move.
        let held = Duration::from_millis(60);
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let blocker = client
            .dispatcher()
            .submit(move || gate.recv().unwrap())
            .unwrap();
        let called = Instant::now();
        let handle =
            client.invoke_async_with_policy(test_service(), "echoString", vec![], policy.clone());
        let returned = Instant::now();
        std::thread::sleep(held);
        release.send(()).unwrap();
        blocker.wait();
        handle.wait().unwrap();
        let seen = probe.deadlines.lock()[0].expect("deadline scoped");
        assert!(
            seen >= called + budget && seen <= returned + budget,
            "deadline counted from the call, not from the job's start {held:?} later"
        );

        // Synchronous: the call is the job's start.
        let called = Instant::now();
        client
            .invoke_with_policy(&test_service(), "echoString", &[], policy)
            .unwrap();
        let returned = Instant::now();
        let seen = probe.deadlines.lock()[1].expect("deadline scoped");
        assert!(seen >= called + budget && seen <= returned + budget);
    }

    #[test]
    fn replacing_locator_at_runtime() {
        let (client, _) = wired_client();
        assert_eq!(client.locator_kind(), Some("fixed"));
        struct EmptyLocator;
        impl ServiceLocator for EmptyLocator {
            fn locate(&self, _q: &ServiceQuery) -> Result<Vec<LocatedService>, WspError> {
                Ok(vec![])
            }
            fn kind(&self) -> &'static str {
                "empty"
            }
        }
        client.set_locator(Arc::new(EmptyLocator));
        assert_eq!(client.locator_kind(), Some("empty"));
        assert!(client.locate(&ServiceQuery::any()).unwrap().is_empty());
    }
}
