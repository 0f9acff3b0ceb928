//! `gateway_miss` and `gateway_hit`: client → `Gateway::launch_http`
//! front → locate cache → one of 4 zero-work backends, with the
//! registry a 6-node / 4-shard / 3-replica cluster reached over HTTP.
//! The two differ only in whether the service is declared idempotent
//! and whether request bodies repeat.

use super::{elapsed_ns, span, Fixture, OpClient, Outcome};
use crate::gen::{backend_reply, find_op_tag, GatewayGen};
use crate::trace;
use std::sync::Arc;
use std::time::Instant;
use wsp_gateway::{Gateway, GatewayConfig};
use wsp_http::{ConnectionPool, HttpHandler, Request, Response, Router, TcpServer};
use wsp_registry::{ClusterConfig, RegistryCluster, ShardedUddiClient};
use wsp_soap::constants::CONTENT_TYPE;
use wsp_uddi::{http_transport, BindingTemplate, BusinessService, REGISTRY_PATH};

pub const BACKEND_SERVICE: &str = "BenchBackend";
pub const BACKENDS: usize = 4;
const TENANT_HEADER: &str = "X-WSP-Tenant";
const CACHE_HEADER: &str = "X-WSP-Cache";

/// The discovery plane both gateway workloads and `discovery_mix` use:
/// every node of a 6/4/3 cluster mounted on its own `TcpServer`.
pub struct HttpCluster {
    pub cluster: RegistryCluster,
    servers: Vec<TcpServer>,
}

/// The 6-node / 4-shard / 3-replica cluster of every workload and
/// ladder row that needs a discovery plane.
pub fn registry_cluster() -> RegistryCluster {
    RegistryCluster::new(ClusterConfig {
        nodes: 6,
        shard_count: 4,
        replication: 3,
        default_ttl: None,
    })
}

impl HttpCluster {
    pub fn launch() -> Result<HttpCluster, String> {
        let cluster = registry_cluster();
        let mut servers = Vec::new();
        for node in 0..cluster.endpoints().len() {
            let router = Router::new();
            router.deploy(
                REGISTRY_PATH,
                traced(span::REGISTRY_HANDLER, cluster.node_http_handler(node)),
            );
            servers.push(
                TcpServer::launch(0, router).map_err(|e| format!("launch registry node: {e}"))?,
            );
        }
        Ok(HttpCluster { cluster, servers })
    }

    /// A client that reaches every node over HTTP (connection per
    /// call, the registry transport's only mode today).
    pub fn connect(&self) -> Result<ShardedUddiClient, String> {
        ShardedUddiClient::connect(
            self.servers
                .iter()
                .map(|s| http_transport(s.service_uri(REGISTRY_PATH)))
                .collect(),
        )
        .map_err(|e| format!("bootstrap shard map over HTTP: {e}"))
    }

    pub fn shutdown(self) {
        for server in &self.servers {
            server.shutdown();
        }
    }
}

/// Wrap a program-owned HTTP handler in a bench closure that records
/// one span per request while tracing (op id from the body, if any).
fn traced(name: &'static str, inner: HttpHandler) -> HttpHandler {
    Arc::new(move |request: &Request| {
        let _span = trace::is_on().then(|| trace::begin(name, find_op_tag(&request.body), 0));
        inner(request)
    })
}

/// The zero-work backend: replies `backend_reply(body)`.
pub fn backend_handler() -> HttpHandler {
    Arc::new(|request: &Request| {
        let _span =
            trace::is_on().then(|| trace::begin(span::HANDLER, find_op_tag(&request.body), 0));
        Response::ok(CONTENT_TYPE, backend_reply(&request.body))
    })
}

pub struct GatewayFixture {
    plane: HttpCluster,
    backends: Vec<TcpServer>,
    front: TcpServer,
    hit: bool,
}

impl GatewayFixture {
    pub fn launch(hit: bool) -> Result<GatewayFixture, String> {
        let plane = HttpCluster::launch()?;
        let mut backends = Vec::new();
        let mut record = BusinessService::new("", "uddi:wspeer:bench", BACKEND_SERVICE);
        for i in 0..BACKENDS {
            let router = Router::new();
            router.deploy(BACKEND_SERVICE, backend_handler());
            let server =
                TcpServer::launch(0, router).map_err(|e| format!("launch backend {i}: {e}"))?;
            record = record.with_binding(BindingTemplate::new(
                format!("binding-{i}"),
                server.service_uri(BACKEND_SERVICE),
            ));
            backends.push(server);
        }
        let registry = plane.connect()?;
        registry
            .publish(&record)
            .map_err(|e| format!("publish {BACKEND_SERVICE}: {e}"))?;
        let mut config = GatewayConfig::default();
        if hit {
            config = config.idempotent(BACKEND_SERVICE, "*");
        }
        let gateway = Gateway::new(registry, config);
        let front = gateway
            .launch_http(0)
            .map_err(|e| format!("launch gateway front: {e}"))?;
        Ok(GatewayFixture {
            plane,
            backends,
            front,
            hit,
        })
    }
}

impl Fixture for GatewayFixture {
    fn client(&self, client: usize, seed: u64) -> Result<Box<dyn OpClient>, String> {
        Ok(Box::new(GatewayClient {
            gen: GatewayGen::new(seed, client, self.hit),
            pool: ConnectionPool::new(),
            port: self.front.port(),
            hit: self.hit,
        }))
    }

    fn shutdown(self: Box<Self>) {
        self.front.shutdown();
        for backend in &self.backends {
            backend.shutdown();
        }
        self.plane.shutdown();
    }
}

struct GatewayClient {
    gen: GatewayGen,
    pool: ConnectionPool,
    port: u16,
    hit: bool,
}

impl OpClient for GatewayClient {
    fn op(&mut self) -> Outcome {
        let input = self.gen.next_input();
        let expected = backend_reply(&input.body);
        let mut request = Request::post(format!("/{BACKEND_SERVICE}"), CONTENT_TYPE, input.body);
        request.headers.set(TENANT_HEADER, input.tenant);
        let started = Instant::now();
        let result = {
            let root = trace::begin(trace::ROOT, input.op, 0);
            let _wire = trace::begin(span::WIRE, input.op, root.id());
            self.pool.call("127.0.0.1", self.port, request)
        };
        let latency_ns = elapsed_ns(started);
        let response = match result {
            Ok(response) => response,
            Err(e) => return Outcome::Failed(format!("gateway call: {e}")),
        };
        if response.status != 200 {
            return Outcome::Failed(format!(
                "gateway answered HTTP {}: {}",
                response.status,
                response.body_str()
            ));
        }
        if response.body != expected {
            return Outcome::Failed("reply is not backend_reply(request)".to_owned());
        }
        let cache_hit = response.headers.get(CACHE_HEADER) == Some("hit");
        if cache_hit && !self.hit {
            return Outcome::Failed("cache hit on a service not declared idempotent".to_owned());
        }
        Outcome::Ok {
            latency_ns,
            cache_hit,
        }
    }
}
