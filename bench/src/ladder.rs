//! The per-layer ladder: every crate's hot functions in isolation, on
//! one thread, with fixed iteration counts, fed the exact byte strings
//! the `invoke_small`, `invoke_large` and `gateway_miss` workloads
//! generate (seed 2005, client 0).
//!
//! A timing is the median of [`BATCHES`] batches (ns or µs per call);
//! an `_allocs` metric is the allocation count of one call once caches
//! are warm, which must repeat exactly from run to run.

use crate::alloc;
use crate::gen::{backend_reply, EchoGen, GatewayGen, PayloadSize, DISCOVERY_SERVICES};
use crate::stats::Spread;
use crate::workloads::discovery::{preload, resident};
use crate::workloads::gateway::{backend_handler, registry_cluster, HttpCluster, BACKEND_SERVICE};
use crate::workloads::{echo_descriptor, echo_handler, ECHO_OPERATION, ECHO_SERVICE};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsp_core::{Dispatcher, KeyedAdmissionController, KeyedLoadShedPolicy, Telemetry};
use wsp_gateway::{
    BackendPools, Gateway, GatewayCacheConfig, GatewayCaches, GatewayConfig, ResponseKey,
};
use wsp_http::{
    encode_request, encode_response, frame_len, http_call, parse_request, parse_response,
    ConnectionPool, HeadScan, Request, Response, Router, TcpServer,
};
use wsp_p2ps::pipe_tcp::encode_frame;
use wsp_p2ps::{
    pipe_call, P2psMessage, PeerConfig, PeerId, PipeAdvertisement, PipeTcpConfig, PipeTcpServer,
    ThreadNetwork, ThreadPeerEvent,
};
use wsp_registry::ShardedUddiClient;
use wsp_simnet::{Dur, EventWheel};
use wsp_soap::constants::CONTENT_TYPE;
use wsp_soap::Envelope;
use wsp_uddi::{BindingTemplate, BusinessService, Registry, ServiceQuery, UddiClient};
use wsp_wsdl::{MessageEngine, Port, ServiceProxy, TransportKind, Value, WsdlDocument};
use wsp_xml::{Writer, WriterConfig};

/// The seed the ladder's inputs come from; fixed, so ladder numbers of
/// two commits are over the same bytes whatever `--seed` the workloads
/// ran with.
const LADDER_SEED: u64 = 2005;
const BATCHES: usize = 5;

struct Ladder {
    /// Divide every iteration count by this (`--quick`: 10).
    scale: usize,
    rows: Vec<(&'static str, Spread)>,
}

impl Ladder {
    /// Time `f`: one warm-up batch, then [`BATCHES`] batches of `iters`
    /// calls; `unit_ns` is 1 for a `_ns` metric and 1 000 for `_us`.
    fn time(&mut self, name: &'static str, iters: usize, unit_ns: f64, mut f: impl FnMut()) {
        let iters = (iters / self.scale).max(1);
        for _ in 0..iters.div_ceil(4) {
            f();
        }
        let mut per_call = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let started = Instant::now();
            for _ in 0..iters {
                f();
            }
            per_call.push(started.elapsed().as_nanos() as f64 / iters as f64 / unit_ns);
        }
        self.rows.push((name, Spread::of(&per_call)));
    }

    /// Allocations of one warm call. Other threads can only add to the
    /// count, so the minimum of a few single calls is the call's own.
    fn allocs(&mut self, name: &'static str, mut f: impl FnMut()) {
        let count = if alloc::is_installed() {
            for _ in 0..8 {
                f();
            }
            (0..5)
                .map(|_| alloc::count(&mut f).1)
                .min()
                .expect("five counts") as f64
        } else {
            0.0
        };
        self.rows.push((name, Spread::single(count)));
    }
}

/// The SOAP request of one echo invocation, as the workloads' clients
/// put it on the wire.
fn echo_request(size: PayloadSize) -> (ServiceProxy, Envelope, String) {
    let proxy = ServiceProxy::new(
        echo_descriptor(ECHO_SERVICE),
        format!("http://127.0.0.1:8080/{ECHO_SERVICE}"),
    );
    let payload = EchoGen::new(LADDER_SEED, 0, size).next_input().payload;
    let envelope = proxy
        .encode_request(ECHO_OPERATION, &[Value::string(payload)])
        .expect("encode echo request");
    let xml = envelope.to_xml();
    (proxy, envelope, xml)
}

fn trivial_server() -> TcpServer {
    let router = Router::new();
    router.deploy(
        "ok",
        Arc::new(|_request: &Request| Response::ok("text/plain", "ok")),
    );
    TcpServer::launch(0, router).expect("launch echo server")
}

/// Run the whole ladder. Rows come back in the order of
/// [`crate::report::LADDER`].
pub fn run(quick: bool) -> Vec<(&'static str, Spread)> {
    let mut l = Ladder {
        scale: if quick { 10 } else { 1 },
        rows: Vec::new(),
    };
    // Allocation counts first: no server thread exists yet.
    xml_and_soap(&mut l);
    wsdl(&mut l);
    http(&mut l);
    core(&mut l);
    uddi(&mut l);
    registry(&mut l);
    gateway(&mut l);
    p2ps(&mut l);
    simnet(&mut l);
    // Report in table order whatever order the groups ran in.
    let mut rows = l.rows;
    rows.sort_by_key(|(name, _)| {
        crate::report::LADDER
            .iter()
            .position(|p| p.name == *name)
            .expect("ladder row is in the table")
    });
    rows
}

fn xml_and_soap(l: &mut Ladder) {
    let (_, small_env, small_xml) = echo_request(PayloadSize::Small);
    let (_, large_env, large_xml) = echo_request(PayloadSize::Large);
    let small_tree = wsp_xml::parse(&small_xml).expect("parse small");
    let large_tree = wsp_xml::parse(&large_xml).expect("parse large");
    let mut writer = Writer::new(WriterConfig::default());
    let mut out: Vec<u8> = Vec::with_capacity(2 * large_xml.len());

    l.allocs("xml.parse_large_allocs", || {
        black_box(wsp_xml::parse(black_box(&large_xml)).expect("parse"));
    });
    l.allocs("xml.write_large_allocs", || {
        out.clear();
        writer.write_into(black_box(&large_tree), &mut out);
    });
    l.allocs("soap.roundtrip_small_allocs", || {
        let envelope = Envelope::from_xml(black_box(&small_xml)).expect("decode");
        out.clear();
        envelope.to_xml_into(&mut out);
    });

    l.time("xml.parse_small_ns", 20_000, 1.0, || {
        black_box(wsp_xml::parse(black_box(&small_xml)).expect("parse"));
    });
    l.time("xml.parse_large_ns", 600, 1.0, || {
        black_box(wsp_xml::parse(black_box(&large_xml)).expect("parse"));
    });
    l.time("xml.write_small_ns", 40_000, 1.0, || {
        out.clear();
        writer.write_into(black_box(&small_tree), &mut out);
    });
    l.time("xml.write_large_ns", 2_000, 1.0, || {
        out.clear();
        writer.write_into(black_box(&large_tree), &mut out);
    });
    l.time("soap.decode_small_ns", 20_000, 1.0, || {
        black_box(Envelope::from_xml(black_box(&small_xml)).expect("decode"));
    });
    l.time("soap.decode_large_ns", 600, 1.0, || {
        black_box(Envelope::from_xml(black_box(&large_xml)).expect("decode"));
    });
    l.time("soap.encode_small_ns", 40_000, 1.0, || {
        out.clear();
        black_box(&small_env).to_xml_into(&mut out);
    });
    l.time("soap.encode_large_ns", 2_000, 1.0, || {
        out.clear();
        black_box(&large_env).to_xml_into(&mut out);
    });
}

fn wsdl(l: &mut Ladder) {
    let (proxy, request, _) = echo_request(PayloadSize::Small);
    let payload = Value::string(
        EchoGen::new(LADDER_SEED, 0, PayloadSize::Small)
            .next_input()
            .payload,
    );
    let engine = MessageEngine::new(echo_descriptor(ECHO_SERVICE), echo_handler());
    let response = engine.process(&request).expect("echo responds");
    let document = WsdlDocument::new(
        echo_descriptor(ECHO_SERVICE),
        vec![Port {
            name: format!("{ECHO_SERVICE}Port"),
            transport: TransportKind::Http,
            location: format!("http://127.0.0.1:8080/{ECHO_SERVICE}"),
        }],
    );
    let document_xml = document.to_xml();

    l.time("wsdl.proxy_encode_ns", 40_000, 1.0, || {
        black_box(
            proxy
                .encode_request(ECHO_OPERATION, std::slice::from_ref(black_box(&payload)))
                .expect("encode"),
        );
    });
    l.time("wsdl.proxy_decode_ns", 40_000, 1.0, || {
        black_box(
            proxy
                .decode_response(ECHO_OPERATION, black_box(&response))
                .expect("decode"),
        );
    });
    l.time("wsdl.engine_process_ns", 20_000, 1.0, || {
        black_box(engine.process(black_box(&request)));
    });
    l.time("wsdl.generate_us", 4_000, 1e3, || {
        black_box(black_box(&document).to_xml());
    });
    l.time("wsdl.parse_us", 2_000, 1e3, || {
        black_box(WsdlDocument::from_xml(black_box(&document_xml)).expect("parse wsdl"));
    });
}

fn http(l: &mut Ladder) {
    let (_, _, small_xml) = echo_request(PayloadSize::Small);
    let (_, _, large_xml) = echo_request(PayloadSize::Large);
    let framed = |body: &str| {
        let mut request = Request::post(format!("/{ECHO_SERVICE}"), CONTENT_TYPE, body.as_bytes());
        request.headers.set("Host", "127.0.0.1:8080");
        request.headers.set("Connection", "keep-alive");
        request
    };
    let request = framed(&small_xml);
    let request_wire = encode_request(&request);
    let response = Response::ok(CONTENT_TYPE, small_xml.as_bytes());
    let response_wire = encode_response(&response);
    let large_wire = encode_request(&framed(&large_xml));

    l.time("http.encode_request_ns", 100_000, 1.0, || {
        black_box(encode_request(black_box(&request)));
    });
    l.time("http.parse_request_ns", 100_000, 1.0, || {
        black_box(parse_request(black_box(&request_wire)).expect("parse request"));
    });
    l.time("http.encode_response_ns", 100_000, 1.0, || {
        black_box(encode_response(black_box(&response)));
    });
    l.time("http.parse_response_ns", 100_000, 1.0, || {
        black_box(parse_response(black_box(&response_wire)).expect("parse response"));
    });
    // What a read loop does while a 16 KiB frame arrives 4 KiB at a
    // time: rescan for the head terminator, then size the frame.
    let mut buf: Vec<u8> = Vec::with_capacity(large_wire.len());
    l.time("http.head_scan_large_ns", 20_000, 1.0, || {
        buf.clear();
        let mut scan = HeadScan::new();
        let mut frame = None;
        for chunk in large_wire.chunks(4096) {
            buf.extend_from_slice(chunk);
            if frame.is_none() {
                if let Some(body_start) = scan.find(&buf) {
                    frame = Some(frame_len(&buf, body_start).expect("frame length"));
                }
            }
        }
        assert_eq!(black_box(frame), Some(large_wire.len()));
    });

    let server = trivial_server();
    let port = server.port();
    let pool = ConnectionPool::new();
    l.time("http.echo_keepalive_us", 2_000, 1e3, || {
        let reply = pool
            .call(
                "127.0.0.1",
                port,
                Request::post("/ok", "text/plain", "ping"),
            )
            .expect("pooled call");
        assert_eq!(reply.status, 200);
    });
    l.time("http.echo_fresh_us", 1_000, 1e3, || {
        let reply = http_call(
            "127.0.0.1",
            port,
            Request::post("/ok", "text/plain", "ping"),
        )
        .expect("fresh call");
        assert_eq!(reply.status, 200);
    });
    drop(pool);
    server.shutdown();
}

fn core(l: &mut Ladder) {
    let dispatcher = Dispatcher::with_defaults();
    l.time("core.dispatch_roundtrip_ns", 10_000, 1.0, || {
        dispatcher.submit(|| ()).expect("submit").wait();
    });
    drop(dispatcher);

    let admission = KeyedAdmissionController::new(KeyedLoadShedPolicy::fair(64));
    l.time("core.admission_admit_ns", 200_000, 1.0, || {
        drop(black_box(admission.try_admit("t0", None).expect("admit")));
    });

    // A private registry: the ladder must not feed the global series
    // the traced run reads.
    let telemetry = Telemetry::new();
    let histogram = telemetry.histogram("ladder.record_us");
    let mut value = 1u64;
    l.time("core.telemetry_record_ns", 2_000_000, 1.0, || {
        value = value
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        histogram.record(black_box(value >> 44));
    });
}

fn uddi(l: &mut Ladder) {
    let registry = Registry::new();
    let client = UddiClient::direct(registry);
    let saved: Vec<BusinessService> = (0..DISCOVERY_SERVICES)
        .map(|rank| client.save_service(&resident(rank)).expect("pre-load"))
        .collect();
    let query = ServiceQuery::by_name(saved[DISCOVERY_SERVICES / 2].name.clone());
    l.time("uddi.find_inproc_us", 600, 1e3, || {
        let found = client.find_services(black_box(&query)).expect("find");
        assert_eq!(found.len(), 1);
    });
    let mut i = 0;
    l.time("uddi.save_inproc_us", 5_000, 1e3, || {
        i = (i + 1) % saved.len();
        black_box(client.save_service(&saved[i]).expect("save"));
    });
}

fn registry(l: &mut Ladder) {
    let plane = registry_cluster();
    let saved = preload(&plane).expect("pre-load");
    let client = ShardedUddiClient::for_cluster(&plane).expect("bootstrap");
    let query = ServiceQuery::by_name(saved[DISCOVERY_SERVICES / 2].name.clone());
    l.time("registry.locate_inproc_us", 400, 1e3, || {
        assert_eq!(client.locate(black_box(&query)).expect("locate").len(), 1);
    });
    // A replicated write costs more the longer the shard's op log
    // already is, so this number belongs to its iteration count: 1 000
    // pre-loaded records, then 250 + 5 x 200 republishes.
    let mut i = 0;
    l.time("registry.publish_inproc_us", 200, 1e3, || {
        i = (i + 1) % saved.len();
        black_box(client.publish(&saved[i]).expect("publish"));
    });

    let http_plane = HttpCluster::launch().expect("launch registry nodes");
    let saved = preload(&http_plane.cluster).expect("pre-load");
    let over_http = http_plane.connect().expect("connect");
    let query = ServiceQuery::by_name(saved[DISCOVERY_SERVICES / 2].name.clone());
    l.time("registry.locate_http_us", 150, 1e3, || {
        assert_eq!(
            over_http.locate(black_box(&query)).expect("locate").len(),
            1
        );
    });
    l.time("registry.data_versions_http_us", 600, 1e3, || {
        black_box(over_http.data_versions().expect("data versions"));
    });
    http_plane.shutdown();
}

fn gateway(l: &mut Ladder) {
    let plane = registry_cluster();
    let router = Router::new();
    router.deploy(BACKEND_SERVICE, backend_handler());
    let backend = TcpServer::launch(0, router).expect("launch backend");
    let publisher = ShardedUddiClient::for_cluster(&plane).expect("bootstrap");
    publisher
        .publish(
            &BusinessService::new("", "uddi:wspeer:bench", BACKEND_SERVICE).with_binding(
                BindingTemplate::new("binding-0", backend.service_uri(BACKEND_SERVICE)),
            ),
        )
        .expect("publish backend");
    let gateway_for = |config: GatewayConfig| {
        Gateway::new(
            ShardedUddiClient::for_cluster(&plane).expect("bootstrap"),
            config,
        )
    };

    let mut bodies = GatewayGen::new(LADDER_SEED, 0, false);
    let hot_body = bodies.next_input().body;
    let hits = gateway_for(GatewayConfig::default().idempotent(BACKEND_SERVICE, "*"));
    l.time("gateway.invoke_hit_us", 20_000, 1e3, || {
        let reply = hits
            .invoke("t0", BACKEND_SERVICE, black_box(&hot_body), None)
            .expect("mediate");
        assert_eq!(reply.status, 200);
    });
    let misses = gateway_for(GatewayConfig::default());
    l.time("gateway.invoke_miss_us", 1_000, 1e3, || {
        let body = bodies.next_input().body;
        let reply = misses
            .invoke("t0", BACKEND_SERVICE, black_box(&body), None)
            .expect("mediate");
        assert!(reply.status == 200 && !reply.cached);
    });
    backend.shutdown();

    // The default TTL would expire the entry mid-measurement.
    let caches = GatewayCaches::new(GatewayCacheConfig {
        response_ttl: Duration::from_secs(3600),
        ..GatewayCacheConfig::default()
    });
    let key = ResponseKey {
        service: BACKEND_SERVICE.to_owned(),
        operation: "ask".to_owned(),
        body_hash: wsp_gateway::fnv1a(&hot_body),
    };
    let reply = backend_reply(&hot_body);
    let put = |caches: &GatewayCaches| {
        caches.put_response(
            key.clone(),
            hot_body.clone(),
            200,
            CONTENT_TYPE.to_owned(),
            reply.clone(),
            0,
        );
    };
    put(&caches);
    l.time("gateway.cache_get_response_ns", 200_000, 1.0, || {
        let hit = caches
            .get_response(black_box(&key), black_box(&hot_body))
            .expect("hit");
        wsp_xml::BufPool::global().put(hit.body);
    });
    l.time("gateway.cache_put_response_ns", 100_000, 1.0, || {
        put(&caches)
    });

    let pools = BackendPools::default();
    let endpoints: Vec<String> = (0..4)
        .map(|i| format!("http://127.0.0.1:{}/{BACKEND_SERVICE}", 9_000 + i))
        .collect();
    l.time("gateway.pool_pick_ns", 200_000, 1.0, || {
        let lease = pools.pick(black_box(&endpoints), &[]).expect("a backend");
        lease.succeed();
    });
}

fn p2ps(l: &mut Ladder) {
    let (_, _, small_xml) = echo_request(PayloadSize::Small);
    let message = P2psMessage::PipeData {
        to: PipeAdvertisement::new(PeerId(7), Some(ECHO_SERVICE.to_owned()), ECHO_OPERATION),
        payload: small_xml,
    };
    l.time("p2ps.frame_codec_ns", 20_000, 1.0, || {
        let frame = encode_frame(black_box(&message));
        let xml = std::str::from_utf8(&frame[4..]).expect("frame is UTF-8");
        black_box(P2psMessage::from_xml(xml).expect("decode frame"));
    });

    let server = PipeTcpServer::launch("127.0.0.1:0", Some, PipeTcpConfig::default())
        .expect("launch pipe server");
    let addr = server.addr();
    l.time("p2ps.pipe_call_us", 1_000, 1e3, || {
        black_box(pipe_call(addr, &message, Duration::from_secs(5)).expect("pipe call"));
    });
    server.shutdown();

    // One message each way between two peer threads of a ThreadNetwork.
    let network = ThreadNetwork::new();
    let a = network.spawn(PeerConfig::ordinary(PeerId(0xAA01)));
    let b = network.spawn(PeerConfig::ordinary(PeerId(0xAA02)));
    a.add_neighbour(b.id(), false);
    b.add_neighbour(a.id(), false);
    let pipe_a = a.open_pipe(Some("ladder-a".to_owned()));
    let pipe_b = b.open_pipe(Some("ladder-b".to_owned()));
    let delivered = |event: Option<ThreadPeerEvent>| match event {
        Some(ThreadPeerEvent::PipeDelivery { payload, .. }) => payload,
        other => panic!("expected a pipe delivery, got {other:?}"),
    };
    let wait = Duration::from_secs(5);
    l.time("p2ps.thread_pipe_rtt_us", 1_500, 1e3, || {
        a.send_pipe(pipe_b.clone(), "ping".to_owned());
        let ping = delivered(b.recv_event(wait));
        b.send_pipe(pipe_a.clone(), ping);
        black_box(delivered(a.recv_event(wait)));
    });
}

fn simnet(l: &mut Ladder) {
    // A resident population of timers, as under the gateway caches and
    // the registry leases; each call schedules one and fires the oldest.
    let mut wheel: EventWheel<u64> = EventWheel::new();
    for i in 0..1_024 {
        wheel.schedule_after(Dur(1_000 + i), i);
    }
    let mut next = 1_024u64;
    l.time("simnet.wheel_schedule_fire_ns", 1_000_000, 1.0, || {
        next += 1;
        wheel.schedule_after(Dur(2_000), next);
        black_box(wheel.pop());
    });
}
