//! The standard implementation (paper Section IV.A, Figure 3): SOAP
//! over HTTP(G), WSDL served at `endpoint?wsdl`, publish/find through a
//! UDDI registry, and a container-less HTTP host that is "only launched
//! once the application has deployed a service".

use crate::components::{Binding, Invoker, ServiceDeployer, ServiceLocator, ServicePublisher};
use crate::dispatch::Dispatcher;
use crate::endpoint::{BindingKind, DeployedService, LocatedService};
use crate::error::WspError;
use crate::events::{EventBus, ServerMessageEvent, ServerPhase};
use crate::health::{Admission, BreakerConfig, BreakerState, EndpointHealth};
use crate::overload::{
    self, DeadlineScope, KeyedAdmissionController, KeyedLoadShedPolicy, ANONYMOUS_TENANT,
};
use crate::query::{properties_to_uddi_categories, ServiceQuery};
use crate::telemetry::{self, CorrelationScope, Counter, Histogram};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};
use wsp_http::{
    guard_router, ConnectionPool, HttpUri, HttpgCredential, Request, Response, ServerConfig,
    TcpServer, DEFAULT_CLIENT_TIMEOUT,
};
use wsp_soap::Envelope;
use wsp_uddi::{BindingTemplate, BusinessService, TModel, UddiClient};
use wsp_wsdl::{
    proxy, MessageEngine, Port, ServiceDescriptor, ServiceHandler, TransportKind, Value,
    WsdlDocument,
};

/// Wire header carrying the caller's correlation token; the serving
/// peer adopts it so client- and server-side spans share one trace id.
pub const CORRELATION_HEADER: &str = "X-WSP-Correlation";

/// Configuration of the standard binding.
#[derive(Clone)]
pub struct HttpUddiConfig {
    /// TCP port of the lightweight host (0 = ephemeral).
    pub port: u16,
    /// Business key under which services are published.
    pub business: String,
    /// When set, the host requires HTTPG tokens and endpoints use the
    /// `httpg://` scheme (the Globus-style authenticated transport).
    pub httpg: Option<HttpgCredential>,
    /// Reuse TCP connections across invocations (keep-alive pool, the
    /// default). `false` restores the paper-era connection-per-call
    /// behaviour — every request says `Connection: close` — which E7
    /// keeps as its ablation row.
    pub keep_alive: bool,
    /// Admission-control limits for requests served by this host.
    /// Default is unlimited, the historical behaviour.
    pub load_shed: KeyedLoadShedPolicy,
    /// Transport tunables for the lightweight host (read deadlines,
    /// connection cap, drain deadline).
    pub server: ServerConfig,
}

impl Default for HttpUddiConfig {
    fn default() -> Self {
        HttpUddiConfig {
            port: 0,
            business: "wspeer".into(),
            httpg: None,
            keep_alive: true,
            load_shed: KeyedLoadShedPolicy::unlimited(),
            server: ServerConfig::default(),
        }
    }
}

struct Shared {
    config: HttpUddiConfig,
    uddi: UddiClient,
    host: Mutex<Option<TcpServer>>,
    /// service name → UDDI service key (for unpublish).
    published: RwLock<HashMap<String, String>>,
    pool: ConnectionPool,
    events: EventBus,
    /// Gate on every POST the host serves: in-flight cap, queue-depth
    /// cap (against the shared dispatcher's queue) and expired-deadline
    /// shedding. A host is one tenant: everything is admitted against
    /// the [`ANONYMOUS_TENANT`] slot.
    admission: KeyedAdmissionController,
    /// The peer's shared dispatch core, installed by `on_attach`; used
    /// to fan WSDL retrieval out during discovery.
    dispatcher: RwLock<Option<Arc<Dispatcher>>>,
    /// Per-registry-endpoint circuit breakers: a dead or flapping
    /// registry stops being hammered while the breaker cools down.
    registry_health: EndpointHealth,
    publish_series: OpSeries,
    unpublish_series: OpSeries,
    locate_series: OpSeries,
}

/// The telemetry series of one registry operation — `<op>` counts
/// answered calls, `<op>.errors` failed ones, `<op>.rtt_us` times the
/// answered ones — looked up once per binding, so a publish or locate
/// neither formats a name nor takes the telemetry registry's lock.
struct OpSeries {
    ok: Arc<Counter>,
    errors: Arc<Counter>,
    rtt_us: Arc<Histogram>,
}

impl OpSeries {
    fn named(op: &str) -> OpSeries {
        let registry = telemetry::global();
        OpSeries {
            ok: registry.counter(op),
            errors: registry.counter(format!("{op}.errors")),
            rtt_us: registry.histogram(format!("{op}.rtt_us")),
        }
    }
}

impl Shared {
    /// Launch the host lazily — deployment, not construction, starts
    /// the server (the paper's container-less behaviour). The host
    /// always carries a plain-text `/metrics` route exposing the
    /// process-wide telemetry registry plus this binding's pool and
    /// dispatcher gauges.
    fn ensure_host(self: &Arc<Self>) -> Result<(String, u16), WspError> {
        let mut host = self.host.lock();
        if host.is_none() {
            let router = wsp_http::Router::new();
            if let Some(credential) = &self.config.httpg {
                guard_router(&router, credential.clone());
            }
            router.deploy_internal("metrics", metrics_handler(Arc::downgrade(self)));
            let server =
                TcpServer::launch_with(self.config.port, router, self.config.server.clone())
                    .map_err(|e| WspError::Deploy(format!("cannot launch HTTP host: {e}")))?;
            *host = Some(server);
        }
        let server = host.as_ref().expect("just ensured");
        Ok(("127.0.0.1".to_owned(), server.port()))
    }

    fn scheme(&self) -> &'static str {
        if self.config.httpg.is_some() {
            "httpg"
        } else {
            "http"
        }
    }

    fn transport(&self) -> TransportKind {
        if self.config.httpg.is_some() {
            TransportKind::Httpg
        } else {
            TransportKind::Http
        }
    }

    /// Issue an HTTP(G) request to an absolute endpoint URI. `timeout`
    /// caps the read wait below the default 10 s — used by deadline
    /// propagation so a call never outlives its remaining budget.
    fn call(
        &self,
        endpoint: &str,
        mut request: Request,
        timeout: Option<Duration>,
    ) -> Result<Response, WspError> {
        let uri = HttpUri::parse(endpoint).map_err(|e| WspError::Invoke(e.to_string()))?;
        if uri.is_httpg() {
            let credential = self
                .config
                .httpg
                .as_ref()
                .ok_or_else(|| WspError::NoBindingFor {
                    scheme: "httpg".into(),
                })?;
            credential.apply(&mut request);
        }
        if !self.config.keep_alive {
            request.headers.set("Connection", "close");
        }
        let timeout = timeout
            .unwrap_or(DEFAULT_CLIENT_TIMEOUT)
            .min(DEFAULT_CLIENT_TIMEOUT);
        // Wire-level failures are `Transport`: the resilience layer may
        // retry them or fail over, unlike semantic `Invoke` errors.
        self.pool
            .call_with_timeout(&uri.host, uri.port, request, timeout)
            .map_err(|e| WspError::Transport(e.to_string()))
    }
}

/// One registry interaction: admission through the registry's circuit
/// breaker, one call, and the outcome recorded in the operation's
/// telemetry series that `/metrics` exports.
fn registry_call<T>(
    shared: &Shared,
    series: &OpSeries,
    call: impl FnOnce() -> Result<T, wsp_uddi::UddiError>,
) -> Result<T, WspError> {
    let endpoint = shared.uddi.endpoint_hint().unwrap_or("uddi:anonymous");
    let breaker = shared.registry_health.breaker(endpoint);
    let started = Instant::now();
    if matches!(breaker.try_acquire(started), Admission::Rejected) {
        series.errors.incr();
        return Err(WspError::Transport(format!(
            "registry {endpoint} circuit breaker open"
        )));
    }
    match call() {
        Ok(value) => {
            breaker.on_success(Instant::now());
            series.ok.incr();
            series.rtt_us.record_micros(started.elapsed());
            Ok(value)
        }
        Err(wsp_uddi::UddiError::Transport(why)) => {
            breaker.on_failure(Instant::now());
            series.errors.incr();
            Err(WspError::Transport(why))
        }
        Err(other) => {
            // The registry answered; the error is semantic, not a
            // liveness signal — the breaker records a success.
            breaker.on_success(Instant::now());
            series.errors.incr();
            Err(WspError::Invoke(other.to_string()))
        }
    }
}

/// The `/metrics` route: the process-wide telemetry registry rendered
/// as plain text, followed by connection-pool and dispatcher gauges
/// owned by this binding. Holds only a `Weak` so an undeployed binding
/// can drop even while its host lingers.
fn metrics_handler(shared: Weak<Shared>) -> wsp_http::HttpHandler {
    Arc::new(move |_request: &Request| {
        let mut extra = String::new();
        if let Some(shared) = shared.upgrade() {
            let pool = shared.pool.stats();
            extra.push_str(&format!("http_pool_hits {}\n", pool.hits));
            extra.push_str(&format!("http_pool_misses {}\n", pool.misses));
            extra.push_str(&format!("http_pool_retired {}\n", pool.retired));
            extra.push_str(&format!("http_pool_retries {}\n", pool.retries));
            extra.push_str(&format!("http_pool_idle {}\n", shared.pool.idle_count()));
            extra.push_str(&format!(
                "admission_in_flight {}\n",
                shared.admission.total_in_flight()
            ));
            extra.push_str(&format!(
                "admission_draining {}\n",
                shared.admission.is_draining() as u8
            ));
            let open = shared
                .registry_health
                .snapshot(Instant::now())
                .iter()
                .filter(|(_, state)| *state != BreakerState::Closed)
                .count();
            extra.push_str(&format!("registry_breakers_open {open}\n"));
            let dispatcher = shared.dispatcher.read().clone();
            if let Some(dispatcher) = dispatcher {
                let stats = dispatcher.stats();
                extra.push_str(&format!("dispatch_submitted {}\n", stats.submitted));
                extra.push_str(&format!("dispatch_completed {}\n", stats.completed));
                extra.push_str(&format!("dispatch_failed {}\n", stats.failed));
                extra.push_str(&format!("dispatch_cancelled {}\n", stats.cancelled));
                extra.push_str(&format!("dispatch_shed {}\n", stats.shed));
                extra.push_str(&format!("dispatch_queue_depth {}\n", stats.queue_depth));
                extra.push_str(&format!("dispatch_in_flight {}\n", stats.in_flight));
                extra.push_str(&format!("dispatch_pending_calls {}\n", stats.pending_calls));
                extra.push_str(&format!("dispatch_workers {}\n", stats.workers));
            }
        }
        Response::ok(
            "text/plain; charset=utf-8",
            telemetry::render_metrics_with(telemetry::global(), &extra),
        )
    })
}

/// The HTTP/UDDI binding: plug into a [`crate::Peer`] and the peer
/// becomes a standard Web service node.
#[derive(Clone)]
pub struct HttpUddiBinding {
    shared: Arc<Shared>,
}

impl HttpUddiBinding {
    pub fn new(uddi: UddiClient, events: EventBus, config: HttpUddiConfig) -> Self {
        let admission = KeyedAdmissionController::new(config.load_shed.clone());
        HttpUddiBinding {
            shared: Arc::new(Shared {
                uddi,
                host: Mutex::new(None),
                published: RwLock::new(HashMap::new()),
                pool: ConnectionPool::new(),
                events,
                admission,
                dispatcher: RwLock::new(None),
                registry_health: EndpointHealth::new(BreakerConfig::default()),
                publish_series: OpSeries::named("registry.publish"),
                unpublish_series: OpSeries::named("registry.unpublish"),
                locate_series: OpSeries::named("registry.locate"),
                config,
            }),
        }
    }

    /// Against a registry reachable over HTTP.
    pub fn with_registry_uri(uri: &str, events: EventBus) -> Self {
        HttpUddiBinding::new(UddiClient::http(uri), events, HttpUddiConfig::default())
    }

    /// Against an in-process registry (tests, single-process demos).
    pub fn with_local_registry(registry: wsp_uddi::Registry, events: EventBus) -> Self {
        HttpUddiBinding::new(
            UddiClient::direct(registry),
            events,
            HttpUddiConfig::default(),
        )
    }

    /// The host's port, if it has been launched.
    pub fn host_port(&self) -> Option<u16> {
        self.shared.host.lock().as_ref().map(|s| s.port())
    }

    /// Has deployment launched the host yet?
    pub fn host_running(&self) -> bool {
        self.shared.host.lock().is_some()
    }

    /// Counters of this binding's client connection pool (the
    /// `http_pool_*` gauges of `/metrics`): `misses` is the number of
    /// TCP connections it has opened.
    pub fn pool_stats(&self) -> wsp_http::pool::PoolStats {
        self.shared.pool.stats()
    }
}

impl Binding for HttpUddiBinding {
    fn kind(&self) -> &'static str {
        "http-uddi"
    }

    fn locator(&self) -> Arc<dyn ServiceLocator> {
        Arc::new(UddiLocator {
            shared: self.shared.clone(),
        })
    }

    fn invoker(&self) -> Arc<dyn Invoker> {
        Arc::new(HttpInvoker {
            shared: self.shared.clone(),
        })
    }

    fn deployer(&self) -> Arc<dyn ServiceDeployer> {
        Arc::new(HttpDeployer {
            shared: self.shared.clone(),
        })
    }

    fn publisher(&self) -> Arc<dyn ServicePublisher> {
        Arc::new(UddiPublisher {
            shared: self.shared.clone(),
        })
    }

    fn on_attach(&self, dispatcher: &Arc<Dispatcher>) {
        *self.shared.dispatcher.write() = Some(dispatcher.clone());
    }
}

// --- deployer --------------------------------------------------------------

struct HttpDeployer {
    shared: Arc<Shared>,
}

impl ServiceDeployer for HttpDeployer {
    fn deploy(
        &self,
        descriptor: ServiceDescriptor,
        handler: Arc<dyn ServiceHandler>,
    ) -> Result<DeployedService, WspError> {
        let (host, port) = self.shared.ensure_host()?;
        let scheme = self.shared.scheme();
        let endpoint = format!("{scheme}://{host}:{port}/{}", descriptor.name);
        let wsdl = WsdlDocument::new(
            descriptor.clone(),
            vec![Port {
                name: format!("{}Port", descriptor.name),
                transport: self.shared.transport(),
                location: endpoint.clone(),
            }],
        );
        let wsdl_xml = wsdl.to_xml();
        let engine = MessageEngine::new(descriptor.clone(), handler);
        let events = self.shared.events.clone();
        let service_name = descriptor.name.clone();
        // `Weak`: the router (inside the host, inside `Shared`) holds
        // this handler, so a strong `Arc<Shared>` here would be a cycle.
        let shared = Arc::downgrade(&self.shared);

        let http_handler: wsp_http::HttpHandler = Arc::new(move |request: &Request| {
            match request.method {
                wsp_http::Method::Get => {
                    // `?wsdl` (and plain GET) serve the description.
                    Response::ok("text/xml; charset=utf-8", wsdl_xml.clone())
                }
                wsp_http::Method::Post => {
                    // Adopt the caller's correlation token (if any) for
                    // every span and event fired while serving this
                    // request — one id reconstructs the full round trip.
                    let correlation = request
                        .headers
                        .get(CORRELATION_HEADER)
                        .and_then(|v| v.trim().parse().ok())
                        .unwrap_or(0u64);
                    let _scope = CorrelationScope::enter(correlation);
                    let registry = telemetry::global();
                    let serve_started = Instant::now();
                    if registry.is_enabled() {
                        registry.span(
                            correlation,
                            "server.request",
                            format_args!("service={service_name}"),
                        );
                    }
                    // Deadline propagation: the wire carries *remaining
                    // budget* (clock-skew safe); re-anchor it locally.
                    let deadline = overload::deadline_from_headers(&request.headers);
                    // Admission control: gate on in-flight count, the
                    // shared dispatcher's queue depth and an
                    // already-expired deadline. The permit spans the
                    // whole serve (RAII).
                    let _permit = match shared.upgrade() {
                        Some(shared) => {
                            let queue_depth = shared
                                .dispatcher
                                .read()
                                .as_ref()
                                .map(|d| d.stats().queue_depth)
                                .unwrap_or(0);
                            match shared.admission.try_admit_at(
                                ANONYMOUS_TENANT,
                                queue_depth,
                                deadline,
                            ) {
                                Ok(permit) => Some(permit),
                                Err(error) => {
                                    if registry.is_enabled() {
                                        registry.span(
                                            correlation,
                                            "server.shed",
                                            format_args!("service={service_name} error={error}"),
                                        );
                                    }
                                    return overload::shed_response(&error);
                                }
                            }
                        }
                        None => None, // binding gone; serve best-effort
                    };
                    // Anything the handler invokes downstream inherits
                    // what is left of the caller's budget.
                    let _deadline = DeadlineScope::enter(deadline);
                    let envelope = match Envelope::from_xml(&request.body_str()) {
                        Ok(envelope) => envelope,
                        Err(e) => {
                            if registry.is_enabled() {
                                registry.span(
                                    correlation,
                                    "server.fault",
                                    format_args!("service={service_name} error={e}"),
                                );
                            }
                            let fault = Envelope::fault(e.to_fault());
                            let mut r = Response::new(500, "Internal Server Error");
                            r.headers
                                .set("Content-Type", wsp_soap::constants::CONTENT_TYPE);
                            r.body = fault.to_xml_bytes();
                            return r;
                        }
                    };
                    // The application sees the request before the engine
                    // (Section III, point 2).
                    events.fire_server_with(|| ServerMessageEvent {
                        service: service_name.clone(),
                        phase: ServerPhase::Inbound,
                        envelope: envelope.clone(),
                    });
                    match engine.process(&envelope) {
                        Some(response) => {
                            events.fire_server_with(|| ServerMessageEvent {
                                service: service_name.clone(),
                                phase: ServerPhase::Outbound,
                                envelope: response.clone(),
                            });
                            let status = if response.fault_body().is_some() {
                                500
                            } else {
                                200
                            };
                            let mut r = Response::new(
                                status,
                                if status == 200 {
                                    "OK"
                                } else {
                                    "Internal Server Error"
                                },
                            );
                            r.headers
                                .set("Content-Type", wsp_soap::constants::CONTENT_TYPE);
                            r.body = response.to_xml_bytes();
                            if registry.is_enabled() {
                                registry
                                    .histogram("server.serve_us")
                                    .record_micros(serve_started.elapsed());
                                registry.span(
                                    correlation,
                                    "server.response",
                                    format_args!("service={service_name} status={status}"),
                                );
                            }
                            r
                        }
                        None => {
                            if registry.is_enabled() {
                                registry
                                    .histogram("server.serve_us")
                                    .record_micros(serve_started.elapsed());
                                registry.span(
                                    correlation,
                                    "server.response",
                                    format_args!("service={service_name} status=202"),
                                );
                            }
                            Response::new(202, "Accepted") // one-way
                        }
                    }
                }
                _ => Response::bad_request("SOAP endpoints accept GET (?wsdl) and POST"),
            }
        });

        let host_guard = self.shared.host.lock();
        host_guard
            .as_ref()
            .expect("host launched above")
            .router()
            .deploy(&descriptor.name, http_handler);
        Ok(DeployedService {
            descriptor,
            endpoints: vec![endpoint],
            wsdl,
        })
    }

    fn undeploy(&self, service: &str) -> bool {
        self.shared
            .host
            .lock()
            .as_ref()
            .map(|h| h.router().undeploy(service))
            .unwrap_or(false)
    }

    fn kind(&self) -> &'static str {
        "http"
    }
}

// --- publisher -------------------------------------------------------------

struct UddiPublisher {
    shared: Arc<Shared>,
}

impl ServicePublisher for UddiPublisher {
    fn publish(&self, service: &DeployedService) -> Result<String, WspError> {
        let endpoint = service
            .primary_endpoint()
            .ok_or_else(|| WspError::Publish("service has no endpoint".into()))?;
        // The tmodel + service pair is one logical registry publish,
        // counted once.
        let saved = registry_call(&self.shared, &self.shared.publish_series, || {
            let tmodel = self.shared.uddi.save_tmodel(
                &TModel::new("", format!("{} WSDL", service.name()))
                    .with_overview(format!("{endpoint}?wsdl")),
            )?;
            let mut record =
                BusinessService::new("", self.shared.config.business.clone(), service.name())
                    .with_binding(BindingTemplate::new("", endpoint).with_tmodel(tmodel.key));
            if let Some(doc) = &service.descriptor.documentation {
                record = record.with_description(doc.clone());
            }
            for category in properties_to_uddi_categories(&service.descriptor.properties) {
                record = record.with_category(category);
            }
            self.shared.uddi.save_service(&record)
        })
        .map_err(|e| WspError::Publish(e.to_string()))?;
        self.shared
            .published
            .write()
            .insert(service.name().to_owned(), saved.key.clone());
        Ok(saved.key)
    }

    fn unpublish(&self, service: &str) -> bool {
        let Some(key) = self.shared.published.write().remove(service) else {
            return false;
        };
        registry_call(&self.shared, &self.shared.unpublish_series, || {
            self.shared.uddi.delete_service(&key)
        })
        .unwrap_or(false)
    }

    fn kind(&self) -> &'static str {
        "uddi"
    }
}

// --- locator ---------------------------------------------------------------

struct UddiLocator {
    shared: Arc<Shared>,
}

/// Fetch the WSDL behind one UDDI access point. Providers that have
/// gone away (or answer garbage) are skipped, not fatal.
fn fetch_wsdl(shared: &Shared, access_point: &str) -> Option<LocatedService> {
    let request = Request::get(format!(
        "{}?wsdl",
        HttpUri::parse(access_point)
            .map(|u| u.target)
            .unwrap_or_else(|_| "/".into())
    ));
    let response = shared.call(access_point, request, None).ok()?;
    if !response.is_success() {
        return None;
    }
    let wsdl = WsdlDocument::from_xml(&response.body_str()).ok()?;
    Some(LocatedService::new(
        wsdl,
        access_point.to_owned(),
        BindingKind::HttpUddi,
    ))
}

impl ServiceLocator for UddiLocator {
    fn locate(&self, query: &ServiceQuery) -> Result<Vec<LocatedService>, WspError> {
        let registry = telemetry::global();
        let locate_started = Instant::now();
        if registry.is_enabled() {
            registry.counter("uddi.locate.queries").incr();
        }
        let records = registry_call(&self.shared, &self.shared.locate_series, || {
            self.shared.uddi.locate(&query.to_uddi())
        })
        .map_err(|e| WspError::Locate(e.to_string()))?;
        let targets: Vec<String> = records
            .iter()
            .flat_map(|record| record.bindings.iter().map(|b| b.access_point.clone()))
            .collect();
        // With a peer dispatcher attached, fetch the per-provider WSDLs
        // in parallel on the pool; collection preserves registry order.
        let dispatcher = self.shared.dispatcher.read().clone();
        if let Some(dispatcher) = dispatcher.filter(|_| targets.len() > 1) {
            let handles: Vec<_> = targets
                .into_iter()
                .map(|access_point| {
                    let shared = self.shared.clone();
                    dispatcher.submit(move || fetch_wsdl(&shared, &access_point))
                })
                .collect();
            let mut found = Vec::new();
            // A submit rejected by a shut-down dispatcher just skips
            // that provider.
            for handle in handles.into_iter().flatten() {
                found.extend(handle.wait());
            }
            if registry.is_enabled() {
                registry
                    .histogram("uddi.locate.rtt_us")
                    .record_micros(locate_started.elapsed());
            }
            return Ok(found);
        }
        let found = targets
            .iter()
            .filter_map(|access_point| fetch_wsdl(&self.shared, access_point))
            .collect();
        if registry.is_enabled() {
            registry
                .histogram("uddi.locate.rtt_us")
                .record_micros(locate_started.elapsed());
        }
        Ok(found)
    }

    fn kind(&self) -> &'static str {
        "uddi"
    }
}

// --- invoker ---------------------------------------------------------------

struct HttpInvoker {
    shared: Arc<Shared>,
}

impl Invoker for HttpInvoker {
    fn invoke(
        &self,
        service: &LocatedService,
        operation: &str,
        args: &[Value],
    ) -> Result<Value, WspError> {
        let descriptor = &service.wsdl.descriptor;
        let envelope = proxy::encode_request(descriptor, &service.endpoint, operation, args)?;
        let target = HttpUri::parse(&service.endpoint)
            .map(|u| u.target)
            .unwrap_or_else(|_| "/".into());
        let mut request = Request::post(
            target,
            wsp_soap::constants::CONTENT_TYPE,
            envelope.to_xml_bytes(),
        );
        // Thread the caller's correlation token through the wire so the
        // serving peer's spans line up with ours in one trace.
        let correlation = telemetry::current_correlation();
        if correlation != 0 {
            request
                .headers
                .set(CORRELATION_HEADER, correlation.to_string());
        }
        // Deadline propagation: ship the *remaining* budget and cap the
        // local read wait at it — a call never outlives its deadline.
        let mut call_timeout = None;
        if let Some(deadline) = overload::current_deadline() {
            match overload::remaining_ms(deadline) {
                Some(ms) => {
                    request
                        .headers
                        .set(overload::DEADLINE_HEADER, ms.to_string());
                    call_timeout = Some(Duration::from_millis(ms));
                }
                None => {
                    // Budget already gone: fail locally rather than
                    // burn the server's time on a doomed request.
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
            registry.span(
                correlation,
                "http.request",
                format_args!("endpoint={} operation={operation}", service.endpoint),
            );
        }
        let response = match self.shared.call(&service.endpoint, request, call_timeout) {
            Ok(response) => {
                if registry.is_enabled() {
                    registry
                        .histogram("http.roundtrip_us")
                        .record_micros(started.elapsed());
                    registry.span(
                        correlation,
                        "http.response",
                        format_args!("status={}", response.status),
                    );
                }
                response
            }
            Err(error) => {
                if registry.is_enabled() {
                    registry.span(correlation, "http.error", format_args!("error={error}"));
                }
                return Err(error);
            }
        };
        let expects_response = service
            .wsdl
            .descriptor
            .find_operation(operation)
            .map(|op| op.expects_response())
            .unwrap_or(true);
        if !expects_response {
            return Ok(Value::Null);
        }
        if response.status == 202 || (response.is_success() && response.body.is_empty()) {
            return Ok(Value::Null);
        }
        if response.status == 503 {
            // A shed, not a failure: the server is alive and asked us
            // to back off. Honour its hint (ms header preferred, the
            // coarse `Retry-After` seconds as fallback).
            let hint = response
                .headers
                .get(overload::RETRY_AFTER_MS_HEADER)
                .and_then(|v| v.trim().parse::<u64>().ok())
                .or_else(|| {
                    response
                        .headers
                        .get("Retry-After")
                        .and_then(|v| v.trim().parse::<u64>().ok())
                        .map(|secs| secs * 1000)
                });
            return Err(WspError::Overloaded {
                retry_after_ms: hint,
            });
        }
        if !response.is_success() && response.status != 500 {
            let why = format!("endpoint answered HTTP {}", response.status);
            // 5xx (other than SOAP's fault-bearing 500) means the server
            // side broke — transient, worth a retry. 4xx is our fault.
            return Err(if response.status >= 500 {
                WspError::Transport(why)
            } else {
                WspError::Invoke(why)
            });
        }
        let envelope = Envelope::from_xml(&response.body_str())
            .map_err(|e| WspError::Invoke(format!("unparseable response: {e}")))?;
        Ok(proxy::decode_response(descriptor, operation, &envelope)?)
    }

    fn handles(&self, endpoint: &str) -> bool {
        endpoint.starts_with("http://") || endpoint.starts_with("httpg://")
    }

    fn kind(&self) -> &'static str {
        "http"
    }
}
