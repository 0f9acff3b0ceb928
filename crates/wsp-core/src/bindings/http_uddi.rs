//! The standard implementation (paper Section IV.A, Figure 3): SOAP
//! over HTTP(G), WSDL served at `endpoint?wsdl`, publish/find through a
//! UDDI registry, and a container-less HTTP host that is "only launched
//! once the application has deployed a service".

use crate::components::{Binding, Invoker, ServiceDeployer, ServiceLocator, ServicePublisher};
use crate::endpoint::{BindingKind, DeployedService, LocatedService};
use crate::error::WspError;
use crate::events::EventBus;
use crate::health::{Admission, BreakerConfig, BreakerState, EndpointHealth};
use crate::overload;
use crate::query::{properties_to_uddi_categories, ServiceQuery};
use crate::server::{HostedService, Hosting, Incoming, Served};
use crate::telemetry::{self, Counter, Histogram};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::fmt::Write;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};
use wsp_http::{
    guard_router, ConnectionPool, HttpUri, HttpgCredential, Request, Response, ServerConfig,
    TcpServer, DEFAULT_CLIENT_TIMEOUT,
};
use wsp_soap::MessageHeaders;
use wsp_uddi::{BindingTemplate, BusinessService, TModel, UddiClient};
use wsp_wsdl::{proxy, Port, TransportKind, Value, WsdlDocument};

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
    /// The peer's hosting core, installed by `on_attach` (or adopted
    /// from the first `open`): its dispatcher fans WSDL retrieval out
    /// during discovery, its gauges go on `/metrics`.
    hosting: RwLock<Option<Arc<Hosting>>>,
    /// Per-registry-endpoint circuit breakers: a dead or flapping
    /// registry stops being hammered while the breaker cools down.
    registry_health: EndpointHealth,
    publish_series: OpSeries,
    unpublish_series: OpSeries,
    locate_series: OpSeries,
    /// Per-call series, resolved once like the [`OpSeries`] above.
    locate_queries: Arc<Counter>,
    locate_rtt_us: Arc<Histogram>,
    roundtrip_us: Arc<Histogram>,
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
        uri: &HttpUri,
        mut request: Request,
        timeout: Option<Duration>,
    ) -> Result<Response, WspError> {
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
/// as plain text, followed by this binding's connection-pool and
/// registry-breaker gauges and the peer's admission and dispatcher
/// ones. Holds only a `Weak`: the router (inside the host, inside
/// `Shared`) holds this handler, so a strong `Arc<Shared>` here would
/// be a cycle.
fn metrics_handler(shared: Weak<Shared>) -> wsp_http::HttpHandler {
    Arc::new(move |_request: &Request| {
        let mut extra = String::new();
        if let Some(shared) = shared.upgrade() {
            let pool = shared.pool.stats();
            let open = shared
                .registry_health
                .snapshot(Instant::now())
                .iter()
                .filter(|(_, state)| *state != BreakerState::Closed)
                .count();
            // Infallible: writing to a `String`.
            let _ = write!(
                extra,
                "http_pool_hits {}\nhttp_pool_misses {}\nhttp_pool_retired {}\n\
                 http_pool_retries {}\nhttp_pool_idle {}\nregistry_breakers_open {open}\n",
                pool.hits,
                pool.misses,
                pool.retired,
                pool.retries,
                shared.pool.idle_count(),
            );
            if let Some(hosting) = shared.hosting.read().as_ref() {
                hosting.render_gauges(&mut extra);
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
    /// `_events` is unused: hosted-service events fire into the bus of
    /// the `Peer` the binding is attached to, so a listener added at
    /// the root hears them however the binding was built. The parameter
    /// stays for the call sites that still pass a bus.
    pub fn new(uddi: UddiClient, _events: EventBus, config: HttpUddiConfig) -> Self {
        let registry = telemetry::global();
        HttpUddiBinding {
            shared: Arc::new(Shared {
                uddi,
                host: Mutex::new(None),
                published: RwLock::new(HashMap::new()),
                pool: ConnectionPool::new(),
                hosting: RwLock::new(None),
                registry_health: EndpointHealth::new(BreakerConfig::default()),
                publish_series: OpSeries::named("registry.publish"),
                unpublish_series: OpSeries::named("registry.unpublish"),
                locate_series: OpSeries::named("registry.locate"),
                locate_queries: registry.counter("uddi.locate.queries"),
                locate_rtt_us: registry.histogram("uddi.locate.rtt_us"),
                roundtrip_us: registry.histogram("http.roundtrip_us"),
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

    fn on_attach(&self, hosting: &Arc<Hosting>) {
        *self.shared.hosting.write() = Some(hosting.clone());
    }
}

// --- deployer --------------------------------------------------------------

struct HttpDeployer {
    shared: Arc<Shared>,
}

impl ServiceDeployer for HttpDeployer {
    fn port(&self, service: &str) -> Result<Port, WspError> {
        let (host, port) = self.shared.ensure_host()?;
        let transport = self.shared.transport();
        Ok(Port {
            name: format!("{service}Port"),
            location: format!("{}://{host}:{port}/{service}", transport.scheme()),
            transport,
        })
    }

    fn open(&self, hosting: &Arc<Hosting>, service: &Arc<HostedService>) {
        self.shared
            .hosting
            .write()
            .get_or_insert_with(|| hosting.clone());
        let (hosting, hosted) = (hosting.clone(), service.clone());
        let route: wsp_http::HttpHandler =
            Arc::new(move |request: &Request| match request.method {
                // `?wsdl` (and plain GET) serve the description.
                wsp_http::Method::Get => Response::ok("text/xml; charset=utf-8", hosted.wsdl_xml()),
                wsp_http::Method::Post => {
                    // What the headers carry for the pipeline: the caller's
                    // correlation token and what is left of its budget (a
                    // duration on the wire, re-anchored here).
                    let correlation = request
                        .headers
                        .get(CORRELATION_HEADER)
                        .and_then(|v| v.trim().parse().ok())
                        .unwrap_or(0u64);
                    let deadline = overload::deadline_from_headers(&request.headers);
                    match hosting.admit(&hosted, correlation, deadline) {
                        Ok(permit) => soap_response(hosting.serve(
                            &hosted,
                            Incoming::Xml(&request.body_str()),
                            None,
                            correlation,
                            deadline,
                            permit,
                        )),
                        Err(error) => overload::shed_response(&error),
                    }
                }
                _ => Response::bad_request("SOAP endpoints accept GET (?wsdl) and POST"),
            });
        let host = self.shared.host.lock();
        // `port` launched it; nothing takes a host down again.
        let host = host
            .as_ref()
            .expect("a port was named before it was opened");
        host.router().deploy(service.name(), route);
    }

    fn close(&self, service: &str) {
        if let Some(host) = self.shared.host.lock().as_ref() {
            host.router().undeploy(service);
        }
    }

    fn kind(&self) -> &'static str {
        "http"
    }
}

/// SOAP over HTTP's reply to a served request: 200 with the response,
/// 500 with a fault, 202 and no body for a one-way operation.
fn soap_response(served: Served) -> Response {
    let status = served.status();
    let mut response = Response::new(
        status,
        match status {
            200 => "OK",
            202 => "Accepted",
            _ => "Internal Server Error",
        },
    );
    if let Some(bytes) = served.into_bytes() {
        response
            .headers
            .set("Content-Type", wsp_soap::constants::CONTENT_TYPE);
        response.body = bytes;
    }
    response
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
        // The tModel rides in the `save_service` exchange. Its key is
        // assigned here, not minted by the registry (nothing reads it
        // back before the record must name it): one per endpoint, so a
        // republish replaces its tModel instead of adding one.
        let saved = registry_call(&self.shared, &self.shared.publish_series, || {
            let tmodel = TModel::new(
                format!("uuid:tm-wsdl:{endpoint}"),
                format!("{} WSDL", service.name()),
            )
            .with_overview(format!("{endpoint}?wsdl"));
            let mut record =
                BusinessService::new("", self.shared.config.business.clone(), service.name())
                    .with_binding(BindingTemplate::new("", endpoint).with_tmodel(&tmodel.key));
            if let Some(doc) = &service.descriptor.documentation {
                record = record.with_description(doc.clone());
            }
            for category in properties_to_uddi_categories(&service.descriptor.properties) {
                record = record.with_category(category);
            }
            self.shared.uddi.save_service_with_tmodel(&tmodel, &record)
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
    let uri = HttpUri::parse(access_point).ok()?;
    let request = Request::get(format!("{}?wsdl", uri.target));
    let response = shared.call(&uri, request, None).ok()?;
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
        let locate_started = Instant::now();
        self.shared.locate_queries.incr();
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
        let hosting = self.shared.hosting.read().clone();
        let found = match hosting.filter(|_| targets.len() > 1) {
            Some(hosting) => {
                let handles: Vec<_> = targets
                    .into_iter()
                    .map(|access_point| {
                        let shared = self.shared.clone();
                        hosting
                            .dispatcher()
                            .submit(move || fetch_wsdl(&shared, &access_point))
                    })
                    .collect();
                // A submit rejected by a shut-down dispatcher just skips
                // that provider.
                let answered = handles.into_iter().flatten();
                answered.filter_map(|handle| handle.wait()).collect()
            }
            None => targets
                .iter()
                .filter_map(|access_point| fetch_wsdl(&self.shared, access_point))
                .collect(),
        };
        self.shared
            .locate_rtt_us
            .record_micros(locate_started.elapsed());
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
        let endpoint = service.endpoint.as_str();
        // Straight to bytes: the request `proxy::encode_request` would
        // build, written without building it.
        let headers = MessageHeaders::request(endpoint, descriptor.action_uri(endpoint, operation));
        let mut body = wsp_xml::BufPool::global().take();
        proxy::write_request(descriptor, &[], &headers, operation, args, &mut body)?;
        let uri = HttpUri::parse(endpoint).map_err(|e| WspError::Invoke(e.to_string()))?;
        let mut request =
            Request::post(uri.target.clone(), wsp_soap::constants::CONTENT_TYPE, body);
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
        let budget_ms = overload::send_budget(overload::current_deadline())?;
        if let Some(ms) = budget_ms {
            request
                .headers
                .set(overload::DEADLINE_HEADER, ms.to_string());
        }
        let call_timeout = budget_ms.map(Duration::from_millis);
        let registry = telemetry::global();
        let started = Instant::now();
        registry.span(
            correlation,
            "http.request",
            format_args!("endpoint={} operation={operation}", service.endpoint),
        );
        let response = match self.shared.call(&uri, request, call_timeout) {
            Ok(response) => {
                if registry.is_enabled() {
                    self.shared.roundtrip_us.record_micros(started.elapsed());
                    registry.span(
                        correlation,
                        "http.response",
                        format_args!("status={}", response.status),
                    );
                }
                response
            }
            Err(error) => {
                registry.span(correlation, "http.error", format_args!("error={error}"));
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
        // And straight from them: the result, or the fault the service
        // answered with.
        Ok(proxy::read_response(
            descriptor,
            operation,
            &response.body_str(),
        )?)
    }

    fn handles(&self, endpoint: &str) -> bool {
        endpoint.starts_with("http://") || endpoint.starts_with("httpg://")
    }

    fn kind(&self) -> &'static str {
        "http"
    }
}
