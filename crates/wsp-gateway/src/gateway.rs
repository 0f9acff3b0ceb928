//! The mediation gateway: one ingress that fronts the whole service
//! fabric for many tenants.
//!
//! One `invoke` runs the full mediation pipeline:
//!
//! 1. **revalidate** — if the probe interval elapsed, fetch the
//!    registry's per-shard data versions and drop cache entries whose
//!    shard changed (see [`GatewayCaches::revalidate`]);
//! 2. **admit** — per-tenant fair-share admission via
//!    [`KeyedAdmissionController`]; a shed carries a per-tenant
//!    `Retry-After` hint and never reaches discovery or a backend;
//! 3. **response cache** — for operations the deployer declared
//!    idempotent, a byte-equal request replays the cached response
//!    without touching a backend;
//! 4. **route** — backend endpoints from the locate cache (filled from
//!    [`ShardedUddiClient::locate`] on miss), content-addressed by
//!    service + operation, least-loaded breaker-admitted pick with
//!    failover across the remaining endpoints; the call itself goes
//!    over a gateway-owned keep-alive [`ConnectionPool`] and carries
//!    the request's correlation id and what is left of its deadline;
//! 5. **store** — 200-responses to idempotent operations enter the
//!    bounded response cache.
//!
//! Two fronts share the pipeline: HTTP ([`Gateway::launch_http`],
//! tenant in the `X-WSP-Tenant` header) and P2PS pipes
//! ([`Gateway::launch_pipe`], tenant in the `Tenant` SOAP header), both
//! served by the reactor-backed servers underneath.

use crate::cache::{CachedResponse, GatewayCacheConfig, GatewayCaches, ResponseKey};
use crate::pool::{Backend, BackendPools};
use parking_lot::Mutex;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsp_core::bindings::http_uddi::CORRELATION_HEADER;
use wsp_core::dispatch::next_correlation_token;
use wsp_core::overload::{
    busy_fault_reason, deadline_from_headers, deadline_in, send_budget, shed_response,
    ANONYMOUS_TENANT, DEADLINE_HEADER, TENANT_HEADER, TENANT_SOAP_HEADER,
};
use wsp_core::telemetry::{self, CorrelationScope};
use wsp_core::{KeyedAdmissionController, KeyedLoadShedPolicy, WspError};
use wsp_http::{
    ConnectionPool, HttpError, Request, Response, Router, TcpServer, DEFAULT_CLIENT_TIMEOUT,
};
use wsp_p2ps::{P2psMessage, PipeTcpConfig, PipeTcpServer};
use wsp_registry::{RegistryError, ShardedUddiClient};
use wsp_simnet::fnv1a;
use wsp_soap::typed::{read_envelope, Payload};
use wsp_soap::{constants::CONTENT_TYPE, Envelope, Fault, HeaderBlock};
use wsp_uddi::ServiceQuery;

/// Distinct backends tried before a request is failed over to
/// `Unavailable`.
const BACKEND_ATTEMPTS: usize = 3;

/// Operations whose responses may be cached: exact `(service,
/// operation)` pairs, or every operation of a service via `"*"`.
#[derive(Debug, Clone, Default)]
pub struct IdempotentSet {
    entries: Vec<(String, String)>,
}

impl IdempotentSet {
    pub fn add(&mut self, service: impl Into<String>, operation: impl Into<String>) {
        self.entries.push((service.into(), operation.into()));
    }

    pub fn contains(&self, service: &str, operation: &str) -> bool {
        self.entries
            .iter()
            .any(|(s, o)| s == service && (o == "*" || o == operation))
    }
}

/// Everything tunable about the gateway.
#[derive(Clone)]
pub struct GatewayConfig {
    pub cache: GatewayCacheConfig,
    pub admission: KeyedLoadShedPolicy,
    pub idempotent: IdempotentSet,
    /// How often the data-version probe runs (piggybacked on request
    /// arrival; `ZERO` probes before every request).
    pub revalidate_interval: Duration,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            cache: GatewayCacheConfig::default(),
            admission: KeyedLoadShedPolicy::fair(64).with_counter_prefix("gateway.tenant"),
            idempotent: IdempotentSet::default(),
            revalidate_interval: Duration::from_millis(250),
        }
    }
}

impl GatewayConfig {
    pub fn with_admission(mut self, policy: KeyedLoadShedPolicy) -> Self {
        self.admission = policy;
        self
    }

    pub fn with_cache(mut self, cache: GatewayCacheConfig) -> Self {
        self.cache = cache;
        self
    }

    pub fn idempotent(mut self, service: impl Into<String>, operation: impl Into<String>) -> Self {
        self.idempotent.add(service, operation);
        self
    }

    pub fn with_revalidate_interval(mut self, interval: Duration) -> Self {
        self.revalidate_interval = interval;
        self
    }
}

/// Why the gateway refused or failed a request.
#[derive(Debug)]
pub enum GatewayError {
    /// Per-tenant admission shed this request; retry after the hint.
    Shed { retry_after_ms: u64 },
    /// Discovery or every backend attempt failed.
    Unavailable(String),
    /// The request was not something the gateway can mediate.
    BadRequest(String),
}

/// A mediated response, ready for either front to serialise.
#[derive(Debug)]
pub struct GatewayReply {
    pub status: u16,
    pub content_type: String,
    pub body: Vec<u8>,
    /// Served from the response cache without touching a backend.
    pub cached: bool,
}

struct GwInner {
    registry: ShardedUddiClient,
    caches: GatewayCaches,
    admission: KeyedAdmissionController,
    pools: BackendPools,
    /// Keep-alive connections to the backends, keyed by authority.
    http: ConnectionPool,
    /// How many of `http`'s connects `gateway.backend.connects` has
    /// been told about.
    connects_reported: AtomicU64,
    idempotent: IdempotentSet,
    revalidate_interval: Duration,
    last_revalidate: Mutex<Instant>,
}

/// The multi-tenant mediation gateway. Cheap to clone; all state is
/// shared.
#[derive(Clone)]
pub struct Gateway {
    inner: Arc<GwInner>,
}

impl Gateway {
    pub fn new(registry: ShardedUddiClient, cfg: GatewayConfig) -> Gateway {
        let caches = GatewayCaches::new(cfg.cache.clone());
        // Seed the version baseline so the first revalidation does not
        // spuriously flush an empty cache.
        if let Ok(dv) = registry.data_versions() {
            caches.revalidate(&dv);
        }
        Gateway {
            inner: Arc::new(GwInner {
                registry,
                caches,
                admission: KeyedAdmissionController::new(cfg.admission.clone()),
                pools: BackendPools::default(),
                http: ConnectionPool::new(),
                connects_reported: AtomicU64::new(0),
                idempotent: cfg.idempotent.clone(),
                revalidate_interval: cfg.revalidate_interval,
                last_revalidate: Mutex::new(Instant::now()),
            }),
        }
    }

    pub fn caches(&self) -> &GatewayCaches {
        &self.inner.caches
    }

    pub fn admission(&self) -> &KeyedAdmissionController {
        &self.inner.admission
    }

    pub fn pools(&self) -> &BackendPools {
        &self.inner.pools
    }

    pub fn registry(&self) -> &ShardedUddiClient {
        &self.inner.registry
    }

    pub fn start_draining(&self) {
        self.inner.admission.start_draining();
    }

    pub fn stop_draining(&self) {
        self.inner.admission.stop_draining();
    }

    /// Probe the registry's data versions now and drop stale entries.
    /// Returns routing entries dropped (0 when the plane is unreachable
    /// — the TTLs then backstop freshness).
    pub fn revalidate_now(&self) -> usize {
        match self.inner.registry.data_versions() {
            Ok(dv) => self.inner.caches.revalidate(&dv),
            Err(_) => 0,
        }
    }

    fn maybe_revalidate(&self) {
        let due = {
            let mut last = self.inner.last_revalidate.lock();
            if last.elapsed() >= self.inner.revalidate_interval {
                *last = Instant::now();
                true
            } else {
                false
            }
        };
        if due {
            self.revalidate_now();
        }
    }

    // -- the mediation pipeline --------------------------------------------

    /// Mediate one SOAP request (`raw` is the envelope bytes) for
    /// `tenant` against `service`.
    pub fn invoke(
        &self,
        tenant: &str,
        service: &str,
        raw: &[u8],
        deadline: Option<Instant>,
    ) -> Result<GatewayReply, GatewayError> {
        self.maybe_revalidate();
        let _permit = self
            .inner
            .admission
            .try_admit(tenant, deadline)
            .map_err(shed_of)?;
        let (operation, _, _) = peek(raw)?;
        self.mediate(tenant, service, raw, operation, deadline)
    }

    /// The pipeline from the response cache on, for an admitted request
    /// whose body's first element is `operation`.
    fn mediate(
        &self,
        tenant: &str,
        service: &str,
        raw: &[u8],
        operation: Option<&str>,
        deadline: Option<Instant>,
    ) -> Result<GatewayReply, GatewayError> {
        let operation = operation
            .ok_or_else(|| GatewayError::BadRequest("envelope carries no operation".into()))?;
        let cacheable = self.inner.idempotent.contains(service, operation);
        let key = ResponseKey {
            service: service.to_owned(),
            operation: operation.to_owned(),
            body_hash: fnv1a(raw),
        };
        if cacheable {
            if let Some(hit) = self.inner.caches.get_response(&key, raw) {
                return Ok(reply_of(hit, true));
            }
        }

        // One id follows the request across the hop: the caller's when
        // a front found one on the wire, else minted here.
        let correlation = match telemetry::current_correlation() {
            0 => next_correlation_token(),
            id => id,
        };
        let t = telemetry::global();
        if t.is_enabled() {
            t.span(
                correlation,
                "gateway.request",
                format_args!("service={service} tenant={tenant}"),
            );
        }
        let (backends, shard) = self.resolve(service)?;
        let (status, content_type, body) =
            self.call_backends(service, &backends, raw, correlation, deadline)?;
        if t.is_enabled() {
            t.span(
                correlation,
                "gateway.reply",
                format_args!("status={status}"),
            );
        }
        if cacheable && status == 200 {
            self.inner.caches.put_response(
                key,
                raw.to_vec(),
                status,
                content_type.clone(),
                body.clone(),
                shard,
            );
        }
        Ok(GatewayReply {
            status,
            content_type,
            body,
            cached: false,
        })
    }

    /// Backends of `service` plus the shard they were placed on: locate
    /// cache, else a registry locate (parsed and cached on success).
    fn resolve(&self, service: &str) -> Result<(Arc<[Backend]>, u32), GatewayError> {
        if let Some(hit) = self.inner.caches.get_locate(service) {
            return Ok(hit);
        }
        let found = self
            .inner
            .registry
            .locate(&ServiceQuery::by_name(service))
            .map_err(unavailable_of)?;
        let backends: Arc<[Backend]> = found
            .into_iter()
            .filter(|svc| svc.name == service)
            .flat_map(|svc| svc.bindings)
            .filter_map(|binding| Backend::parse(binding.access_point))
            .collect();
        if backends.is_empty() {
            return Err(GatewayError::Unavailable(format!(
                "no backend registered for {service}"
            )));
        }
        let shard = self.inner.registry.shard_of(service);
        self.inner
            .caches
            .put_locate(service, Arc::clone(&backends), shard);
        Ok((backends, shard))
    }

    /// One exchange with `backend` over the gateway's keep-alive pool.
    fn exchange(
        &self,
        backend: &Backend,
        request: Request,
        timeout: Duration,
    ) -> Result<Response, HttpError> {
        let result =
            self.inner
                .http
                .call_with_timeout(backend.host(), backend.port(), request, timeout);
        // `gateway.backend.connects` follows the pool's miss count (the
        // program-side twin of the kernel's active opens); `fetch_max`
        // hands each increment to exactly one caller.
        let connects = self.inner.http.stats().misses;
        let reported = self
            .inner
            .connects_reported
            .fetch_max(connects, Ordering::Relaxed);
        if connects > reported {
            telemetry::global()
                .counter("gateway.backend.connects")
                .add(connects - reported);
        }
        result
    }

    /// The failover loop: up to [`BACKEND_ATTEMPTS`] distinct endpoints,
    /// least-loaded first, breaker outcomes recorded per call. Each
    /// attempt carries the correlation id and what is left of the
    /// caller's deadline — which is also how long it waits; a request
    /// whose budget is gone is never sent.
    fn call_backends(
        &self,
        service: &str,
        backends: &[Backend],
        raw: &[u8],
        correlation: u64,
        deadline: Option<Instant>,
    ) -> Result<(u16, String, Vec<u8>), GatewayError> {
        let t = telemetry::global();
        let mut tried: Vec<String> = Vec::new();
        for attempt in 0..BACKEND_ATTEMPTS {
            let budget_ms = send_budget(deadline).map_err(|_| {
                GatewayError::Unavailable(format!(
                    "deadline expired before a backend for {service} was called"
                ))
            })?;
            let Some(lease) = self.inner.pools.pick(backends, &tried) else {
                break;
            };
            if attempt > 0 {
                t.counter("gateway.backend.failovers").incr();
            }
            let backend = &backends[lease.index()];
            let mut request = Request::post(backend.target(), CONTENT_TYPE, raw.to_vec());
            request
                .headers
                .set(CORRELATION_HEADER, correlation.to_string());
            if let Some(ms) = budget_ms {
                request.headers.set(DEADLINE_HEADER, ms.to_string());
            }
            if t.is_enabled() {
                t.span(
                    correlation,
                    "gateway.backend",
                    format_args!("endpoint={} attempt={}", backend.endpoint(), attempt + 1),
                );
            }
            let timeout = budget_ms.map_or(DEFAULT_CLIENT_TIMEOUT, Duration::from_millis);
            match self.exchange(backend, request, timeout) {
                Ok(response) => {
                    lease.succeed();
                    let content_type = response
                        .headers
                        .get("Content-Type")
                        .unwrap_or(CONTENT_TYPE)
                        .to_owned();
                    return Ok((response.status, content_type, response.body));
                }
                Err(_) => {
                    lease.fail();
                    t.counter("gateway.backend.errors").incr();
                    tried.push(lease.endpoint().to_owned());
                }
            }
        }
        // Every candidate failed: the cached endpoints are suspect.
        self.inner.caches.invalidate_service(service);
        Err(GatewayError::Unavailable(format!(
            "no backend for {service} answered ({} tried)",
            tried.len()
        )))
    }

    /// Serve `service`'s WSDL: cache, else fetch `?wsdl` from a live
    /// backend and cache the document.
    pub fn wsdl(&self, tenant: &str, service: &str) -> Result<GatewayReply, GatewayError> {
        self.maybe_revalidate();
        let _permit = self
            .inner
            .admission
            .try_admit(tenant, None)
            .map_err(shed_of)?;
        if let Some(body) = self.inner.caches.get_wsdl(service) {
            return Ok(GatewayReply {
                status: 200,
                content_type: "text/xml; charset=utf-8".to_owned(),
                body: body.into_bytes(),
                cached: true,
            });
        }
        let (backends, shard) = self.resolve(service)?;
        let mut tried: Vec<String> = Vec::new();
        for _ in 0..BACKEND_ATTEMPTS {
            let Some(lease) = self.inner.pools.pick(&backends, &tried) else {
                break;
            };
            let backend = &backends[lease.index()];
            let request = Request::get(format!("{}?wsdl", backend.target()));
            match self.exchange(backend, request, DEFAULT_CLIENT_TIMEOUT) {
                Ok(response) if response.status == 200 => {
                    lease.succeed();
                    let body = String::from_utf8_lossy(&response.body).into_owned();
                    self.inner.caches.put_wsdl(service, body.clone(), shard);
                    return Ok(GatewayReply {
                        status: 200,
                        content_type: "text/xml; charset=utf-8".to_owned(),
                        body: body.into_bytes(),
                        cached: false,
                    });
                }
                Ok(response) => {
                    lease.succeed();
                    return Ok(GatewayReply {
                        status: response.status,
                        content_type: "text/plain; charset=utf-8".to_owned(),
                        body: response.body,
                        cached: false,
                    });
                }
                Err(_) => {
                    lease.fail();
                    tried.push(lease.endpoint().to_owned());
                }
            }
        }
        self.inner.caches.invalidate_service(service);
        Err(GatewayError::Unavailable(format!(
            "no backend for {service} served its WSDL"
        )))
    }

    // -- HTTP front --------------------------------------------------------

    /// Serve the gateway over HTTP on `port` (0 = ephemeral): any
    /// `/Service` path is mediated, `/metrics` reports counters and
    /// cache gauges.
    pub fn launch_http(&self, port: u16) -> io::Result<TcpServer> {
        let router = Router::new();
        let gw = self.clone();
        router.deploy_internal(
            "metrics",
            Arc::new(move |_req: &Request| {
                Response::ok("text/plain; charset=utf-8", gw.render_metrics())
            }),
        );
        let gw = self.clone();
        router.set_interceptor(Some(Arc::new(move |req: &Request| gw.intercept(req))));
        TcpServer::launch(port, router)
    }

    fn intercept(&self, req: &Request) -> Option<Response> {
        let path = req.path().trim_matches('/');
        if path.is_empty() || path == "metrics" {
            return None; // fall through to listing / internal routes
        }
        Some(self.handle_http(path, req))
    }

    fn handle_http(&self, service: &str, req: &Request) -> Response {
        let tenant = req
            .headers
            .get(TENANT_HEADER)
            .filter(|t| !t.is_empty())
            .unwrap_or(ANONYMOUS_TENANT)
            .to_owned();
        if req.query() == Some("wsdl") {
            return to_http(self.wsdl(&tenant, service));
        }
        let deadline = deadline_from_headers(&req.headers);
        // Adopt the caller's correlation id for everything this request
        // does on this thread, the backend call included.
        let _scope = req
            .headers
            .get(CORRELATION_HEADER)
            .and_then(|v| v.trim().parse::<u64>().ok())
            .map(CorrelationScope::enter);
        to_http(self.invoke(&tenant, service, &req.body, deadline))
    }

    /// The `/metrics` body: registry counters/histograms plus the
    /// gateway's cache, admission and backend-connection-pool gauges.
    pub fn render_metrics(&self) -> String {
        let mut extra = self.inner.caches.metrics_lines();
        extra.push_str(&format!(
            "gateway_in_flight_total {}\n",
            self.inner.admission.total_in_flight()
        ));
        for tenant in self.inner.admission.tenants() {
            extra.push_str(&format!(
                "gateway_tenant_in_flight{{tenant=\"{tenant}\"}} {}\n",
                self.inner.admission.in_flight(&tenant)
            ));
        }
        let pool = self.inner.http.stats();
        extra.push_str(&format!(
            "gateway_backend_pool_hits {}\ngateway_backend_pool_misses {}\n\
             gateway_backend_pool_retired {}\ngateway_backend_pool_retries {}\n\
             gateway_backend_pool_idle {}\n",
            pool.hits,
            pool.misses,
            pool.retired,
            pool.retries,
            self.inner.http.idle_count()
        ));
        telemetry::render_metrics_with(telemetry::global(), &extra)
    }

    // -- P2PS front --------------------------------------------------------

    /// Serve the gateway over P2PS pipes on `addr` (e.g.
    /// `"127.0.0.1:0"`). The pipe advert's service (or name) routes;
    /// the `Tenant` SOAP header identifies the tenant.
    pub fn launch_pipe(&self, addr: &str) -> io::Result<PipeTcpServer> {
        let gw = self.clone();
        PipeTcpServer::launch(
            addr,
            move |msg| gw.handle_pipe(msg),
            PipeTcpConfig::default(),
        )
    }

    fn handle_pipe(&self, msg: P2psMessage) -> Option<P2psMessage> {
        let P2psMessage::PipeData { to, payload } = msg else {
            return None;
        };
        let service = to
            .service
            .clone()
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| to.name.clone());
        let raw = payload.as_bytes();
        let mediated = peek(raw).and_then(|(operation, tenant, deadline)| {
            let tenant = tenant.as_deref().unwrap_or(ANONYMOUS_TENANT);
            self.maybe_revalidate();
            let admitted = self.inner.admission.try_admit(tenant, deadline);
            let _permit = admitted.map_err(shed_of)?;
            self.mediate(tenant, &service, raw, operation, deadline)
        });
        let reply = match mediated {
            Ok(reply) => String::from_utf8_lossy(&reply.body).into_owned(),
            Err(GatewayError::Shed { retry_after_ms }) => Envelope::fault(Fault::receiver(
                busy_fault_reason(Duration::from_millis(retry_after_ms)),
            ))
            .to_xml(),
            Err(GatewayError::Unavailable(why)) => {
                Envelope::fault(Fault::receiver(format!("wsp:unavailable {why}"))).to_xml()
            }
            Err(GatewayError::BadRequest(why)) => Envelope::fault(Fault::sender(why)).to_xml(),
        };
        Some(P2psMessage::PipeData { to, payload: reply })
    }
}

/// What mediation reads of a request, in one pass of the pull reader:
/// the local name of the body's first element (`None` for an empty body
/// or a fault), the first `Tenant` block's text (if it has any) and the
/// propagated deadline. The body is passed over unjudged — it is the
/// backend's to read — and so is a block marked `mustUnderstand`.
type Peek<'a> = (Option<&'a str>, Option<String>, Option<Instant>);

fn peek(raw: &[u8]) -> Result<Peek<'_>, GatewayError> {
    let text = std::str::from_utf8(raw)
        .map_err(|_| GatewayError::BadRequest("request is not UTF-8".into()))?;
    let (mut tenant, mut deadline) = (None, None);
    let mut foreign = |block: &HeaderBlock| {
        let element = &block.element;
        if tenant.is_none() && element.name().is("", TENANT_SOAP_HEADER) {
            tenant = Some(element.text().trim().to_owned());
        }
        deadline = deadline.or_else(|| deadline_in(element));
    };
    let read = read_envelope(text, &mut foreign, |body| match body {
        Payload::Element(reader) => Ok(Some(reader.local_name())),
        _ => Ok(None),
    });
    let (_, operation) =
        read.map_err(|e| GatewayError::BadRequest(format!("not a SOAP envelope: {e:?}")))?;
    let operation = operation.map_err(|refused| GatewayError::BadRequest(refused.reason))?;
    Ok((
        operation,
        tenant.filter(|t| !t.is_empty()),
        deadline.flatten(),
    ))
}

fn shed_of(err: WspError) -> GatewayError {
    match err {
        WspError::Overloaded { retry_after_ms } => GatewayError::Shed {
            retry_after_ms: retry_after_ms.unwrap_or(100),
        },
        other => GatewayError::Unavailable(other.to_string()),
    }
}

fn unavailable_of(err: RegistryError) -> GatewayError {
    GatewayError::Unavailable(err.to_string())
}

fn reply_of(hit: CachedResponse, cached: bool) -> GatewayReply {
    GatewayReply {
        status: hit.status,
        content_type: hit.content_type,
        body: hit.body,
        cached,
    }
}

fn to_http(result: Result<GatewayReply, GatewayError>) -> Response {
    match result {
        Ok(reply) => {
            let mut r = Response::new(reply.status, reason_of(reply.status));
            r.headers.set("Content-Type", reply.content_type);
            if reply.cached {
                r.headers.set("X-WSP-Cache", "hit");
            }
            r.body = reply.body;
            r
        }
        Err(GatewayError::Shed { retry_after_ms }) => shed_response(&WspError::Overloaded {
            retry_after_ms: Some(retry_after_ms),
        }),
        Err(GatewayError::Unavailable(why)) => {
            let mut r = Response::new(503, "Service Unavailable");
            r.headers.set("Content-Type", "text/plain; charset=utf-8");
            r.body = why.into_bytes();
            r
        }
        Err(GatewayError::BadRequest(why)) => Response::bad_request(&why),
    }
}

fn reason_of(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}
