//! The mediation gateway end-to-end: real backends behind real TCP
//! servers, the sharded registry cluster as the discovery plane, and
//! the gateway fronting both — caching, fair-share admission, routing
//! and failover driven through the public bindings.
//!
//! The fault scenarios are seeded (`WSP_FAULT_SEED`, default 2005) so
//! CI replays the same crash/flood schedule bit-identically.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wsp_core::bindings::HttpUddiBinding;
use wsp_core::overload::{
    Deadline, KeyedLoadShedPolicy, DEADLINE_HEADER, RETRY_AFTER_MS_HEADER, TENANT_HEADER,
};
use wsp_core::telemetry::clock::VirtualClock;
use wsp_core::{telemetry, BindingKind, EventBus, LocatedService, Peer};
use wsp_gateway::{Gateway, GatewayCacheConfig, GatewayConfig, GatewayError};
use wsp_http::{http_call_uri, parse_request, HttpError, Request, Response, Router, TcpServer};
use wsp_p2ps::{pipe_call, P2psMessage, PeerId, PipeAdvertisement};
use wsp_registry::{ClusterConfig, RegistryCluster, ShardedUddiClient};
use wsp_soap::{Envelope, HeaderBlock};
use wsp_uddi::{BindingTemplate, BusinessService, Registry};
use wsp_wsdl::{ServiceDescriptor, Value};
use wsp_xml::Element;

fn fault_seed() -> u64 {
    std::env::var("WSP_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2005)
}

fn test_cluster() -> RegistryCluster {
    RegistryCluster::new(ClusterConfig {
        nodes: 6,
        shard_count: 4,
        replication: 3,
        default_ttl: None,
    })
}

fn eager_client(cluster: &RegistryCluster) -> ShardedUddiClient {
    ShardedUddiClient::connect((0..6).map(|n| cluster.node_transport(n)).collect())
        .expect("bootstrap shard map")
        .with_breaker_config(wsp_core::health::BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::ZERO,
        })
}

/// A backend serving `service`: answers any POST with a SOAP envelope
/// wrapping `marker`, counting hits. Returns the server and the access
/// point to register.
fn backend(service: &str, marker: &str) -> (TcpServer, String, Arc<AtomicU64>) {
    let hits = Arc::new(AtomicU64::new(0));
    let marker = marker.to_owned();
    let counted = Arc::clone(&hits);
    let router = Router::new();
    router.deploy(
        service,
        Arc::new(move |_req: &Request| {
            counted.fetch_add(1, Ordering::SeqCst);
            let reply = Envelope::request(
                Element::build("urn:itest", "reply")
                    .text(marker.clone())
                    .finish(),
            );
            Response::ok("application/soap+xml; charset=utf-8", reply.to_xml())
        }),
    );
    let server = TcpServer::launch(0, router).expect("launch backend");
    let uri = server.service_uri(service);
    (server, uri, hits)
}

fn marker_reply(marker: &str) -> String {
    Envelope::request(Element::build("urn:itest", "reply").text(marker).finish()).to_xml()
}

/// What a scripted backend does with one request it has read.
#[derive(Clone, Copy)]
enum Step {
    /// A full keep-alive reply; the connection stays open for the next
    /// step.
    Reply,
    /// A full reply that says `Connection: close`, then close.
    ReplyThenClose,
    /// Half a reply (head promising more body than is sent), then close.
    DieMidResponse,
    /// Read the request and never answer (until the test releases it).
    Stall,
}

/// Counters of a [`scripted_backend`].
#[derive(Default)]
struct Seen {
    connections: AtomicU64,
    requests: AtomicU64,
}

/// A raw-socket backend for `service`: each accepted connection plays
/// one script, a step per request read, then closes.
struct ScriptedBackend {
    uri: String,
    seen: Arc<Seen>,
    /// Stalled connections stay open until this is dropped.
    release: std::sync::mpsc::Sender<()>,
    join: JoinHandle<()>,
}

impl ScriptedBackend {
    /// Let go of stalled connections and wait for the last script.
    fn finish(self) {
        drop(self.release);
        self.join.join().expect("scripted backend");
    }
}

fn scripted_backend(
    service: &str,
    marker: &'static str,
    scripts: Vec<Vec<Step>>,
) -> ScriptedBackend {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind scripted backend");
    let uri = format!(
        "http://127.0.0.1:{}/{service}",
        listener.local_addr().unwrap().port()
    );
    let seen = Arc::new(Seen::default());
    let counters = Arc::clone(&seen);
    let (release, released) = std::sync::mpsc::channel::<()>();
    let join = std::thread::spawn(move || {
        let mut stalled = Vec::new();
        for script in scripts {
            let Ok((mut conn, _)) = listener.accept() else {
                return;
            };
            counters.connections.fetch_add(1, Ordering::SeqCst);
            for step in script {
                let mut buf = Vec::new();
                let mut chunk = [0u8; 2048];
                loop {
                    match parse_request(&buf) {
                        Ok(_) => break,
                        Err(HttpError::Incomplete) => match conn.read(&mut chunk) {
                            Ok(n) if n > 0 => buf.extend_from_slice(&chunk[..n]),
                            _ => return,
                        },
                        Err(_) => return,
                    }
                }
                counters.requests.fetch_add(1, Ordering::SeqCst);
                let body = marker_reply(marker);
                let head = |connection: &str, length: usize| {
                    format!(
                        "HTTP/1.1 200 OK\r\nContent-Type: application/soap+xml; charset=utf-8\r\n\
                         Connection: {connection}\r\nContent-Length: {length}\r\n\r\n"
                    )
                };
                let wire = match step {
                    Step::Reply => head("keep-alive", body.len()) + &body,
                    Step::ReplyThenClose => head("close", body.len()) + &body,
                    Step::DieMidResponse => head("keep-alive", body.len() + 64) + &body,
                    Step::Stall => {
                        stalled.push(conn);
                        break;
                    }
                };
                let _ = conn.write_all(wire.as_bytes());
                if !matches!(step, Step::Reply) {
                    break;
                }
            }
        }
        if !stalled.is_empty() {
            let _ = released.recv();
        }
    });
    ScriptedBackend {
        uri,
        seen,
        release,
        join,
    }
}

/// The value of one `gateway_backend_pool_*` gauge of this gateway.
fn pool_gauge(gateway: &Gateway, name: &str) -> u64 {
    let metrics = gateway.render_metrics();
    let prefix = format!("gateway_backend_pool_{name} ");
    metrics
        .lines()
        .find_map(|line| line.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("no {prefix}line in /metrics"))
        .trim()
        .parse()
        .expect("gauge value")
}

fn publish(client: &ShardedUddiClient, service: &str, access_points: &[&str]) -> BusinessService {
    let mut svc = BusinessService::new("", "uddi:wspeer:gwtest", service);
    for (i, ap) in access_points.iter().enumerate() {
        svc = svc.with_binding(BindingTemplate::new(format!("binding-{i}"), *ap));
    }
    client.publish(&svc).expect("publish backend bindings")
}

fn soap_request(text: &str) -> Vec<u8> {
    Envelope::request(Element::build("urn:itest", "ask").text(text).finish())
        .to_xml()
        .into_bytes()
}

fn reply_text(body: &[u8]) -> String {
    let envelope = Envelope::from_xml(std::str::from_utf8(body).unwrap()).unwrap();
    envelope.payload().map(|p| p.text()).unwrap_or_default()
}

// ---------------------------------------------------------------------------
// Caching
// ---------------------------------------------------------------------------

/// An idempotent operation is served from the response cache on the
/// second byte-equal request — byte-identical to the first reply, with
/// the backend untouched.
#[test]
fn idempotent_responses_replay_byte_identically_without_the_backend() {
    let cluster = test_cluster();
    let (server, uri, hits) = backend("EchoCache", "cached-v1");
    publish(&eager_client(&cluster), "EchoCache", &[&uri]);

    let gateway = Gateway::new(
        eager_client(&cluster),
        GatewayConfig::default().idempotent("EchoCache", "*"),
    );
    let request = soap_request("same-bytes");
    let first = gateway
        .invoke("tenant-a", "EchoCache", &request, None)
        .expect("first call reaches the backend");
    assert!(!first.cached);
    assert_eq!(hits.load(Ordering::SeqCst), 1);

    let second = gateway
        .invoke("tenant-a", "EchoCache", &request, None)
        .expect("second call");
    assert!(second.cached, "byte-equal request must hit the cache");
    assert_eq!(
        second.body, first.body,
        "cache hits are byte-identical to the backend reply"
    );
    assert_eq!(hits.load(Ordering::SeqCst), 1, "the backend saw one call");

    // A different request body is a different cache identity.
    let other = soap_request("different-bytes");
    let third = gateway
        .invoke("tenant-a", "EchoCache", &other, None)
        .expect("third call");
    assert!(!third.cached);
    assert_eq!(hits.load(Ordering::SeqCst), 2);
    server.shutdown();
}

/// TTL expiry backstops the response cache: after the TTL the same
/// bytes go back to the backend. The TTL passes on a virtual clock.
#[test]
fn response_ttl_expiry_returns_to_the_backend() {
    let cluster = test_cluster();
    let (server, uri, hits) = backend("EchoTtl", "ttl-v1");
    publish(&eager_client(&cluster), "EchoTtl", &[&uri]);

    let gateway = Gateway::new(
        eager_client(&cluster),
        GatewayConfig::default()
            .idempotent("EchoTtl", "*")
            .with_cache(GatewayCacheConfig {
                response_ttl: Duration::from_millis(40),
                ..GatewayCacheConfig::default()
            }),
    );
    let request = soap_request("ttl-bytes");
    let clock = VirtualClock::default();
    let _clock = clock.enter();
    gateway
        .invoke("t", "EchoTtl", &request, None)
        .expect("fill the cache");
    assert!(
        gateway
            .invoke("t", "EchoTtl", &request, None)
            .expect("hit")
            .cached
    );
    clock.advance(Duration::from_millis(39));
    assert!(
        gateway
            .invoke("t", "EchoTtl", &request, None)
            .expect("hit")
            .cached,
        "39 ms into a 40 ms TTL"
    );
    clock.advance(Duration::from_millis(41));
    let after = gateway
        .invoke("t", "EchoTtl", &request, None)
        .expect("after TTL");
    assert!(!after.cached, "the TTL must expire the entry");
    assert_eq!(hits.load(Ordering::SeqCst), 2);
    server.shutdown();
}

/// The acceptance bar for invalidation-on-republish: with TTLs far
/// longer than the test, a republish that moves the service to a new
/// backend reaches gateway clients on the next data-version probe —
/// the cached route is dropped without waiting out any TTL.
#[test]
fn republish_reaches_gateway_clients_without_waiting_out_the_ttl() {
    let cluster = test_cluster();
    let (old_server, old_uri, old_hits) = backend("Movable", "v1");
    let (new_server, new_uri, new_hits) = backend("Movable", "v2");
    let writer = eager_client(&cluster);
    let mut record = publish(&writer, "Movable", &[&old_uri]);

    let gateway = Gateway::new(
        eager_client(&cluster),
        GatewayConfig::default()
            // Hour-long TTLs: if invalidation relied on expiry, this
            // test could never pass.
            .with_cache(GatewayCacheConfig {
                locate_ttl: Duration::from_secs(3600),
                wsdl_ttl: Duration::from_secs(3600),
                response_ttl: Duration::from_secs(3600),
                response_capacity: 64,
            })
            .with_revalidate_interval(Duration::ZERO),
    );
    let request = soap_request("which-backend");
    let first = gateway
        .invoke("t", "Movable", &request, None)
        .expect("route to the original backend");
    assert_eq!(reply_text(&first.body), "v1");
    assert_eq!(gateway.caches().locate_entries(), 1, "route cached");

    // Republish: the same record, rebound to the new backend. The
    // registry bumps the owning shard's data version on commit.
    record.bindings = vec![BindingTemplate::new("binding-0", new_uri.clone())];
    writer
        .publish(&record)
        .expect("republish onto the new backend");

    let second = gateway
        .invoke("t", "Movable", &request, None)
        .expect("route after republish");
    assert_eq!(
        reply_text(&second.body),
        "v2",
        "the republished binding must be served without waiting out the TTL"
    );
    assert_eq!(old_hits.load(Ordering::SeqCst), 1);
    assert_eq!(new_hits.load(Ordering::SeqCst), 1);
    old_server.shutdown();
    new_server.shutdown();
}

// ---------------------------------------------------------------------------
// Routing and failover
// ---------------------------------------------------------------------------

/// Seeded backend-crash matrix: one of the registered backends dies;
/// the gateway's failover loop records the breaker outcome and answers
/// from the survivor on the same request.
#[test]
fn backend_crash_fails_over_to_the_survivor() {
    let _seed = fault_seed(); // one deterministic schedule; no randomness needed here
    let cluster = test_cluster();
    let (doomed, doomed_uri, _) = backend("Calc", "doomed");
    let (survivor, survivor_uri, survivor_hits) = backend("Calc", "survivor");
    publish(
        &eager_client(&cluster),
        "Calc",
        &[&doomed_uri, &survivor_uri],
    );

    let gateway = Gateway::new(eager_client(&cluster), GatewayConfig::default());
    let failovers_before = telemetry::global()
        .counter("gateway.backend.failovers")
        .get();

    // Crash the first backend before any traffic: the first pick (tie
    // on load, so candidate order) hits the corpse and must fail over.
    doomed.shutdown();
    let reply = gateway
        .invoke("t", "Calc", &soap_request("2+2"), None)
        .expect("failover must answer from the survivor");
    assert_eq!(reply_text(&reply.body), "survivor");
    assert_eq!(survivor_hits.load(Ordering::SeqCst), 1);
    assert!(
        telemetry::global()
            .counter("gateway.backend.failovers")
            .get()
            > failovers_before,
        "the failover counter must record the retried attempt"
    );

    // With the breaker now open on the corpse, the next call goes
    // straight to the survivor — no second failover.
    let reply = gateway
        .invoke("t", "Calc", &soap_request("3+3"), None)
        .expect("survivor keeps answering");
    assert_eq!(reply_text(&reply.body), "survivor");
    survivor.shutdown();
}

/// When every backend is gone the gateway reports Unavailable and
/// drops the (now suspect) cached route, so recovery re-locates.
#[test]
fn total_backend_loss_is_unavailable_and_invalidates_the_route() {
    let cluster = test_cluster();
    let (server, uri, _) = backend("Gone", "gone");
    publish(&eager_client(&cluster), "Gone", &[&uri]);
    let gateway = Gateway::new(eager_client(&cluster), GatewayConfig::default());

    gateway
        .invoke("t", "Gone", &soap_request("hello"), None)
        .expect("backend up");
    assert_eq!(gateway.caches().locate_entries(), 1);
    server.shutdown();
    match gateway.invoke("t", "Gone", &soap_request("hello"), None) {
        Err(GatewayError::Unavailable(_)) => {}
        other => panic!("expected Unavailable, got {other:?}"),
    }
    assert_eq!(
        gateway.caches().locate_entries(),
        0,
        "an all-backends-down route must be invalidated"
    );
}

/// Seeded registry-failover matrix: the shard primary crashes while the
/// gateway holds cached routes filled under the old epoch. The view
/// change bumps the map epoch; the gateway's next probe flushes the
/// routing cache, and the request still completes through the degraded
/// discovery plane.
#[test]
fn registry_failover_under_cached_maps_flushes_and_recovers() {
    let cluster = test_cluster();
    let (server, uri, _) = backend("Durable", "still-here");
    let writer = eager_client(&cluster);
    let record = publish(&writer, "Durable", &[&uri]);

    let gateway = Gateway::new(
        eager_client(&cluster),
        GatewayConfig::default().with_revalidate_interval(Duration::ZERO),
    );
    gateway
        .invoke("t", "Durable", &soap_request("pre-crash"), None)
        .expect("pre-crash call");
    assert_eq!(gateway.caches().locate_entries(), 1);
    let epoch_before = gateway.caches().epoch();

    // Crash the owning shard's primary and drive the view change with a
    // write (exactly what a live deployer would be doing).
    let map = cluster.shard_map();
    let shard = map.shard_of("Durable");
    cluster.crash(map.shard(shard).primary());
    writer
        .publish(&record)
        .expect("failover publish drives the view change");
    assert!(cluster.shard_map().epoch() > epoch_before);

    let reply = gateway
        .invoke("t", "Durable", &soap_request("post-crash"), None)
        .expect("mediation must survive the registry failover");
    assert_eq!(reply_text(&reply.body), "still-here");
    assert!(
        gateway.caches().epoch() > epoch_before,
        "the probe must adopt the post-failover epoch"
    );
    server.shutdown();
}

// ---------------------------------------------------------------------------
// The pooled backend hop: the seams between gateway, pool and backend
// ---------------------------------------------------------------------------

/// The backend is restarted (same port) between two mediated calls: the
/// gateway's pooled socket is dead, the liveness probe retires it, and
/// the second call reconnects — no failover, no error, and the handler
/// runs exactly once per request.
#[test]
fn backend_restart_between_calls_reconnects_transparently() {
    let cluster = test_cluster();
    let hits = Arc::new(AtomicU64::new(0));
    let launch = |port: u16| {
        let counted = Arc::clone(&hits);
        let router = Router::new();
        router.deploy(
            "Restarted",
            Arc::new(move |_req: &Request| {
                counted.fetch_add(1, Ordering::SeqCst);
                Response::ok("application/soap+xml; charset=utf-8", marker_reply("up"))
            }),
        );
        TcpServer::launch(port, router).expect("launch backend")
    };
    let first = launch(0);
    let port = first.port();
    publish(
        &eager_client(&cluster),
        "Restarted",
        &[&first.service_uri("Restarted")],
    );
    let gateway = Gateway::new(eager_client(&cluster), GatewayConfig::default());

    let reply = gateway
        .invoke("t", "Restarted", &soap_request("one"), None)
        .expect("first call");
    assert_eq!(reply_text(&reply.body), "up");
    assert_eq!(pool_gauge(&gateway, "idle"), 1, "the connection is pooled");

    first.shutdown();
    let second = launch(port);
    let reply = gateway
        .invoke("t", "Restarted", &soap_request("two"), None)
        .expect("the call after the restart must not see the dead socket");
    assert_eq!(reply_text(&reply.body), "up");
    assert_eq!(
        hits.load(Ordering::SeqCst),
        2,
        "exactly once per request across the restart"
    );
    assert_eq!(pool_gauge(&gateway, "misses"), 2, "one reconnect");
    assert_eq!(pool_gauge(&gateway, "retired"), 1, "the dead socket");
    assert_eq!(
        gateway.caches().locate_entries(),
        1,
        "no failover: the route was never invalidated"
    );
    second.shutdown();
}

/// A backend that answers every request `Connection: close`: every
/// mediated call succeeds and no connection is ever reused.
#[test]
fn backend_answering_connection_close_is_never_reused() {
    const CALLS: u64 = 5;
    let cluster = test_cluster();
    let closer = scripted_backend(
        "Closer",
        "closed",
        vec![vec![Step::ReplyThenClose]; CALLS as usize],
    );
    publish(&eager_client(&cluster), "Closer", &[&closer.uri]);
    let gateway = Gateway::new(eager_client(&cluster), GatewayConfig::default());
    for i in 0..CALLS {
        let reply = gateway
            .invoke("t", "Closer", &soap_request(&format!("call-{i}")), None)
            .unwrap_or_else(|e| panic!("call {i}: {e:?}"));
        assert_eq!(reply_text(&reply.body), "closed");
    }
    let seen = Arc::clone(&closer.seen);
    closer.finish();
    assert_eq!(seen.connections.load(Ordering::SeqCst), CALLS);
    assert_eq!(seen.requests.load(Ordering::SeqCst), CALLS);
    assert_eq!(pool_gauge(&gateway, "hits"), 0, "nothing reused");
    assert_eq!(pool_gauge(&gateway, "idle"), 0, "nothing pooled");
    assert_eq!(pool_gauge(&gateway, "retired"), CALLS);
}

/// A backend that dies half way through a response, on a pooled
/// connection: the request may have executed, so it must not be re-sent
/// to that backend on a fresh connection — the error reaches the
/// failover loop, which answers from the other endpoint.
#[test]
fn backend_dying_mid_response_fails_over_without_a_resend() {
    let cluster = test_cluster();
    let flaky = scripted_backend(
        "Flaky",
        "flaky",
        vec![
            vec![Step::Reply, Step::DieMidResponse],
            // Only a (wrong) resend would open this second connection;
            // scripting it makes the duplicate show up as a request.
            vec![Step::Reply],
        ],
    );
    let (survivor, survivor_uri, survivor_hits) = backend("Flaky", "survivor");
    publish(
        &eager_client(&cluster),
        "Flaky",
        &[&flaky.uri, &survivor_uri],
    );
    let gateway = Gateway::new(eager_client(&cluster), GatewayConfig::default());

    // Ties break on candidate order: both calls lease the flaky one.
    let reply = gateway
        .invoke("t", "Flaky", &soap_request("first"), None)
        .expect("first call");
    assert_eq!(reply_text(&reply.body), "flaky");
    let reply = gateway
        .invoke("t", "Flaky", &soap_request("second"), None)
        .expect("the failover loop must answer from the survivor");
    assert_eq!(reply_text(&reply.body), "survivor");
    assert_eq!(survivor_hits.load(Ordering::SeqCst), 1);
    assert_eq!(
        flaky.seen.requests.load(Ordering::SeqCst),
        2,
        "the half-answered request must not be re-sent to the same backend"
    );
    assert_eq!(flaky.seen.connections.load(Ordering::SeqCst), 1);
    assert_eq!(pool_gauge(&gateway, "retries"), 0);
    // Unblock the scripted backend's second accept so it can be joined.
    let authority = flaky.uri["http://".len()..].split('/').next().unwrap();
    drop(std::net::TcpStream::connect(authority));
    flaky.finish();
    survivor.shutdown();
}

/// 1 000 sequential mediated calls over 4 backends open a handful of
/// backend connections, not one per call.
#[test]
fn a_thousand_sequential_calls_open_at_most_eight_backend_connections() {
    let cluster = test_cluster();
    let backends: Vec<_> = (0..4).map(|_| backend("Steady", "steady")).collect();
    let uris: Vec<&str> = backends.iter().map(|(_, uri, _)| uri.as_str()).collect();
    publish(&eager_client(&cluster), "Steady", &uris);
    let gateway = Gateway::new(
        eager_client(&cluster),
        // A route refresh every few calls, as a long-lived gateway sees.
        GatewayConfig::default().with_cache(GatewayCacheConfig {
            locate_ttl: Duration::from_millis(5),
            ..GatewayCacheConfig::default()
        }),
    );
    for i in 0..1000 {
        let reply = gateway
            .invoke("t", "Steady", &soap_request(&format!("q-{i}")), None)
            .unwrap_or_else(|e| panic!("call {i}: {e:?}"));
        assert_eq!(reply_text(&reply.body), "steady");
    }
    let served: u64 = backends
        .iter()
        .map(|(_, _, hits)| hits.load(Ordering::SeqCst))
        .sum();
    assert_eq!(served, 1000, "exactly once per request");
    let opened = pool_gauge(&gateway, "misses");
    assert!(opened <= 8, "{opened} backend connections for 1000 calls");
    let held: usize = backends
        .iter()
        .map(|(server, _, _)| server.active_connections())
        .sum();
    assert!(held <= 8, "{held} connections held at the backends");
    assert_eq!(pool_gauge(&gateway, "hits") + opened, 1000);
    for (server, _, _) in &backends {
        server.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Propagation: correlation id and deadline across the hop
// ---------------------------------------------------------------------------

/// One correlation id reconstructs client → gateway → backend from the
/// trace ring: the WSPeer client's token rides `X-WSP-Correlation` to
/// the gateway front, the gateway forwards it on the backend hop, and
/// the hosting peer adopts it for its server-side spans.
#[test]
fn one_correlation_id_follows_the_request_through_the_gateway() {
    telemetry::global().set_enabled(true);
    let cluster = test_cluster();
    let provider = Peer::with_binding(&HttpUddiBinding::with_local_registry(
        Registry::new(),
        EventBus::new(),
    ));
    let deployed = provider
        .server()
        .deploy(
            ServiceDescriptor::echo(),
            Arc::new(|_op: &str, args: &[Value]| Ok(args[0].clone())),
        )
        .expect("deploy the backend service");
    let backend_uri = deployed.primary_endpoint().expect("endpoint").to_owned();
    publish(&eager_client(&cluster), "Echo", &[&backend_uri]);

    let gateway = Gateway::new(eager_client(&cluster), GatewayConfig::default());
    let front = gateway.launch_http(0).expect("launch gateway http front");
    let consumer = Peer::with_binding(&HttpUddiBinding::with_local_registry(
        Registry::new(),
        EventBus::new(),
    ));
    let via_gateway = LocatedService::new(
        deployed.wsdl.clone(),
        front.service_uri("Echo"),
        BindingKind::HttpUddi,
    );
    let handle =
        consumer
            .client()
            .invoke_async(via_gateway, "echoString", vec![Value::string("follow me")]);
    let token = handle.token();
    assert_eq!(handle.wait().unwrap(), Value::string("follow me"));

    let trace = telemetry::global().trace_for(token);
    let position = |stage: &str| {
        trace
            .iter()
            .position(|e| e.stage == stage)
            .unwrap_or_else(|| panic!("no {stage} span under id {token}: {trace:?}"))
    };
    let hops = [
        "http.request",
        "gateway.request",
        "gateway.backend",
        "server.request",
        "server.response",
        "gateway.reply",
        "http.response",
    ];
    for pair in hops.windows(2) {
        assert!(
            position(pair[0]) < position(pair[1]),
            "{} must precede {} in {trace:?}",
            pair[0],
            pair[1]
        );
    }
    let hop = &trace[position("gateway.backend")];
    assert!(
        hop.render().contains(&backend_uri),
        "the backend hop names its endpoint: {}",
        hop.render()
    );
    front.shutdown();
}

/// The remaining deadline is forwarded to the backend and bounds the
/// wait for it; once it is spent no further backend is called.
#[test]
fn deadline_is_forwarded_and_an_expired_one_never_reaches_a_backend() {
    let cluster = test_cluster();

    // Forwarded: the backend sees a budget no larger than the caller's.
    let seen_budget = Arc::new(AtomicU64::new(u64::MAX));
    let record = Arc::clone(&seen_budget);
    let router = Router::new();
    router.deploy(
        "Budgeted",
        Arc::new(move |req: &Request| {
            let budget = req
                .headers
                .get(DEADLINE_HEADER)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
            record.store(budget, Ordering::SeqCst);
            Response::ok("application/soap+xml; charset=utf-8", marker_reply("ok"))
        }),
    );
    let budgeted = TcpServer::launch(0, router).expect("launch backend");
    publish(
        &eager_client(&cluster),
        "Budgeted",
        &[&budgeted.service_uri("Budgeted")],
    );
    let gateway = Gateway::new(eager_client(&cluster), GatewayConfig::default());
    gateway
        .invoke(
            "t",
            "Budgeted",
            &soap_request("in time"),
            Some(Deadline::after(Duration::from_secs(5))),
        )
        .expect("a live budget is served");
    let forwarded = seen_budget.load(Ordering::SeqCst);
    assert!(
        (1..=5_000).contains(&forwarded),
        "X-WSP-Deadline carries the remaining budget, got {forwarded}"
    );
    budgeted.shutdown();

    // Spent on a stalled first backend: the second is never called, and
    // the wait is the budget, not the flat client timeout.
    let stalled = scripted_backend("Stalls", "never", vec![vec![Step::Stall]]);
    let (spare, spare_uri, spare_hits) = backend("Stalls", "spare");
    publish(
        &eager_client(&cluster),
        "Stalls",
        &[&stalled.uri, &spare_uri],
    );
    let started = Instant::now();
    let outcome = gateway.invoke(
        "t",
        "Stalls",
        &soap_request("too late"),
        Some(Deadline::after(Duration::from_millis(80))),
    );
    let waited = started.elapsed();
    assert!(
        matches!(outcome, Err(GatewayError::Unavailable(_))),
        "{outcome:?}"
    );
    assert_eq!(stalled.seen.requests.load(Ordering::SeqCst), 1);
    assert_eq!(
        spare_hits.load(Ordering::SeqCst),
        0,
        "a request whose deadline has passed must not reach a backend"
    );
    assert!(waited >= Duration::from_millis(80), "{waited:?}");
    assert!(waited < Duration::from_secs(5), "{waited:?}");
    assert_eq!(
        gateway.caches().locate_entries(),
        2,
        "a spent budget says nothing about the route"
    );

    // Expired on arrival: shed at admission, no backend involved.
    let outcome = gateway.invoke(
        "t",
        "Stalls",
        &soap_request("dead on arrival"),
        Some(Deadline(Instant::now())),
    );
    assert!(outcome.is_err(), "{outcome:?}");
    assert_eq!(spare_hits.load(Ordering::SeqCst), 0);
    stalled.finish();
    spare.shutdown();
}

// ---------------------------------------------------------------------------
// Fair-share admission across the fronts
// ---------------------------------------------------------------------------

/// Seeded hot-tenant flood: the hot tenant saturates its guaranteed
/// share plus everything borrowable, and is shed with a per-tenant
/// retry hint — while the cold tenant's requests keep flowing
/// end-to-end through the HTTP front.
#[test]
fn hot_tenant_flood_cannot_starve_the_cold_tenant() {
    let cluster = test_cluster();
    let (server, uri, _) = backend("Shared", "ok");
    publish(&eager_client(&cluster), "Shared", &[&uri]);

    let gateway = Gateway::new(
        eager_client(&cluster),
        GatewayConfig::default().with_admission(
            KeyedLoadShedPolicy::fair(4)
                .with_weight("hot", 1)
                .with_weight("cold", 1)
                .with_counter_prefix("gateway.tenant"),
        ),
    );
    let front = gateway.launch_http(0).expect("launch gateway http front");
    let gw_uri = front.service_uri("Shared");

    // The flood: hold the hot tenant's entire admissible budget open
    // (its guaranteed share; borrowing is blocked by the cold tenant's
    // reserve).
    let mut held = Vec::new();
    while let Ok(permit) = gateway.admission().try_admit("hot", None) {
        held.push(permit);
        assert!(held.len() <= 4, "admission must be bounded");
    }
    assert_eq!(
        held.len(),
        gateway.admission().guaranteed_share("hot"),
        "the hot tenant can fill exactly its guaranteed share"
    );

    // Hot is shed at the edge with the retry hint…
    let mut hot_req = Request::post(
        "/",
        "application/soap+xml; charset=utf-8",
        soap_request("flood"),
    );
    hot_req.headers.set(TENANT_HEADER, "hot");
    let shed = http_call_uri(&gw_uri, hot_req).expect("transport ok");
    assert_eq!(shed.status, 503);
    assert!(shed.headers.get("Retry-After").is_some());
    assert!(shed.headers.get(RETRY_AFTER_MS_HEADER).is_some());

    // …while the cold tenant sails through the same front.
    let mut cold_req = Request::post(
        "/",
        "application/soap+xml; charset=utf-8",
        soap_request("calm"),
    );
    cold_req.headers.set(TENANT_HEADER, "cold");
    let ok = http_call_uri(&gw_uri, cold_req).expect("transport ok");
    assert_eq!(ok.status, 200, "the cold tenant must not be starved");
    assert_eq!(reply_text(&ok.body), "ok");

    // Releasing the flood restores the hot tenant.
    held.clear();
    let mut retry = Request::post(
        "/",
        "application/soap+xml; charset=utf-8",
        soap_request("after-flood"),
    );
    retry.headers.set(TENANT_HEADER, "hot");
    assert_eq!(http_call_uri(&gw_uri, retry).expect("ok").status, 200);
    front.shutdown();
    server.shutdown();
}

/// The P2PS front runs the same pipeline: tenant from the `Tenant`
/// SOAP header, mediated reply on the same pipe, and a busy fault with
/// the retry hint when the tenant is shed.
#[test]
fn p2ps_front_mediates_and_sheds_with_busy_faults() {
    let cluster = test_cluster();
    let (server, uri, _) = backend("Piped", "via-pipe");
    publish(&eager_client(&cluster), "Piped", &[&uri]);

    let gateway = Gateway::new(
        eager_client(&cluster),
        GatewayConfig::default().with_admission(
            KeyedLoadShedPolicy::fair(2)
                .with_weight("pipe-hot", 1)
                .with_weight("pipe-cold", 1)
                .with_counter_prefix("gateway.tenant"),
        ),
    );
    let front = gateway
        .launch_pipe("127.0.0.1:0")
        .expect("launch pipe front");
    let addr = front.addr();
    let advert = PipeAdvertisement::new(PeerId(0xC0), Some("Piped".into()), "gw-in");

    let call = |tenant: &str| -> Envelope {
        let mut envelope = Envelope::request(
            Element::build("urn:itest", "ask")
                .text("over-pipe")
                .finish(),
        );
        envelope.add_header(HeaderBlock::new(
            Element::build("", "Tenant").text(tenant).finish(),
        ));
        let message = P2psMessage::PipeData {
            to: advert.clone(),
            payload: envelope.to_xml(),
        };
        match pipe_call(addr, &message, Duration::from_secs(2)).expect("pipe call") {
            P2psMessage::PipeData { payload, .. } => Envelope::from_xml(&payload).expect("reply"),
            other => panic!("unexpected pipe reply: {other:?}"),
        }
    };

    let reply = call("pipe-cold");
    assert_eq!(
        reply.payload().map(|p| p.text()).as_deref(),
        Some("via-pipe"),
        "the pipe front must mediate to the HTTP backend"
    );

    // Flood the hot tenant's share, then observe the busy fault.
    let _held: Vec<_> =
        std::iter::from_fn(|| gateway.admission().try_admit("pipe-hot", None).ok()).collect();
    let fault = call("pipe-hot");
    let fault = fault.fault_body().expect("a shed surfaces as a SOAP fault");
    assert!(
        fault.reason.contains("wsp:overloaded"),
        "busy fault with the machine-readable prefix, got: {}",
        fault.reason
    );
    front.shutdown();
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// `/metrics` on the gateway front reports the cache counters, the
/// per-tenant gauges, and the series lower layers record into the one
/// registry (the buffer pool's here; a gateway-only process never
/// touches an advert cache, so it shows no `advert_cache_*` lines).
#[test]
fn metrics_report_cache_counters_and_tenant_gauges() {
    let cluster = test_cluster();
    let (server, uri, _) = backend("Metered", "m");
    publish(&eager_client(&cluster), "Metered", &[&uri]);

    let gateway = Gateway::new(
        eager_client(&cluster),
        GatewayConfig::default().idempotent("Metered", "*"),
    );
    let front = gateway.launch_http(0).expect("launch gateway http front");
    let request = soap_request("metered");
    gateway
        .invoke("acme", "Metered", &request, None)
        .expect("miss");
    gateway
        .invoke("acme", "Metered", &request, None)
        .expect("hit");

    let metrics = http_call_uri(&front.service_uri("metrics"), Request::get("/"))
        .expect("metrics endpoint")
        .body;
    let text = String::from_utf8(metrics).expect("utf-8 metrics");
    for needle in [
        "gateway.cache.locate.miss",
        "gateway.cache.response.hit",
        "gateway.cache.response.miss",
        "gateway_locate_entries",
        "gateway_response_entries",
        "gateway_in_flight_total",
        "gateway_tenant_in_flight{tenant=\"acme\"}",
        "gateway_backend_pool_hits",
        "gateway_backend_pool_misses 1",
        "gateway_backend_pool_retired",
        "gateway_backend_pool_retries",
        "gateway_backend_pool_idle 1",
        "gateway.backend.connects",
        "bufpool_hits",
    ] {
        assert!(
            text.contains(needle),
            "metrics must report {needle}\n{text}"
        );
    }
    front.shutdown();
    server.shutdown();
}

/// A caller cannot write lines into `/metrics`: a tenant name that is
/// not a token — from either front — is accounted to `anonymous`, and a
/// service name a peer chose stays inside its trace line.
#[test]
fn tenant_and_service_names_cannot_forge_metrics_lines() {
    let cluster = test_cluster();
    let (server, uri, _) = backend("Forged", "f");
    publish(&eager_client(&cluster), "Forged", &[&uri]);
    let gateway = Gateway::new(eager_client(&cluster), GatewayConfig::default());
    let front = gateway.launch_http(0).expect("launch gateway http front");
    let pipe_front = gateway
        .launch_pipe("127.0.0.1:0")
        .expect("launch pipe front");

    let forged_tenant = "x 0\ninjected_metric 42\ny";
    for service in ["Forged", "Nope\ninjected_svc 7"] {
        let mut envelope = Envelope::request(Element::build("urn:itest", "ask").text("x").finish());
        envelope.add_header(HeaderBlock::new(
            Element::build("", "Tenant").text(forged_tenant).finish(),
        ));
        let message = P2psMessage::PipeData {
            to: PipeAdvertisement::new(PeerId(0xF0), Some(service.into()), "gw-in"),
            payload: envelope.to_xml(),
        };
        pipe_call(pipe_front.addr(), &message, Duration::from_secs(2)).expect("pipe call");
    }
    let mut request = Request::post(
        "/",
        "application/soap+xml; charset=utf-8",
        soap_request("quoted"),
    );
    request.headers.set(TENANT_HEADER, "a b\"}");
    let reply = http_call_uri(&front.service_uri("Forged"), request).expect("transport ok");
    assert_eq!(reply.status, 200);

    assert_eq!(gateway.admission().tenants(), ["anonymous"]);
    let metrics = http_call_uri(&front.service_uri("metrics"), Request::get("/"))
        .expect("metrics endpoint")
        .body;
    let text = String::from_utf8(metrics).expect("utf-8 metrics");
    let (series, trace) = text.split_once("# trace").expect("a trace section");
    for line in series.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert!(
            fields.len() == 2 && fields[1].parse::<f64>().is_ok(),
            "not a `name value` line: {line:?}\n{text}"
        );
        assert!(!line.starts_with("injected"), "forged line {line:?}");
    }
    for line in trace.lines().skip(1) {
        assert!(
            line.starts_with("trace seq="),
            "forged line {line:?}\n{text}"
        );
    }
    pipe_front.shutdown();
    front.shutdown();
    server.shutdown();
}
