//! Allocation-regression guard (tier-2, wired into `scripts/ci.sh`).
//!
//! This binary installs the counting global allocator and re-runs
//! E12's allocation measurement, pinning the two properties PR 5
//! bought: the fast path stays under a recorded allocations-per-round-
//! trip ceiling, and it stays at least 2x cheaper than the vendored
//! pre-PR-5 stack. A future change that quietly re-introduces per-name
//! or per-buffer churn fails here, not in a benchmark someone has to
//! remember to read.

use wsp_bench::alloc_count::{self, CountingAllocator};
use wsp_bench::e12;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Ceilings over the release-mode measurements (55 / 200 / 1463 as of
/// PR 5) with ~30% headroom for allocator-neutral refactors. If a
/// change pushes past these, either it regressed the wire path or it
/// consciously re-priced it — update the numbers only with the
/// measurement story in EXPERIMENTS.md §E12.
const CEILINGS: [(&str, f64); 3] = [
    ("small (0 items)", 90.0),
    ("medium (10 items)", 280.0),
    ("large (100 items)", 1900.0),
];

#[test]
fn round_trip_allocations_stay_under_ceiling_and_2x_better_than_legacy() {
    assert!(
        alloc_count::is_installed(),
        "counting allocator must be live in this binary"
    );
    let rows = e12::allocations(100);
    assert_eq!(rows.len(), CEILINGS.len());
    for (row, (name, ceiling)) in rows.iter().zip(CEILINGS) {
        assert_eq!(row.corpus, name);
        assert!(row.counted);
        assert!(
            row.fast_allocs <= ceiling,
            "{name}: fast path now allocates {:.1}/round-trip (ceiling {ceiling})",
            row.fast_allocs
        );
        assert!(
            row.ratio >= 2.0,
            "{name}: legacy/fast ratio fell to {:.2} ({:.1} vs {:.1})",
            row.ratio,
            row.legacy_allocs,
            row.fast_allocs
        );
    }
}

/// The single-pass writer in its pooled steady state: serialising an
/// already-built tree into a warm pooled buffer must not allocate at
/// all — names are interned, escaping streams straight into the
/// output, and there are no per-tag temporaries left.
#[test]
fn warm_single_pass_writer_is_allocation_free() {
    let (_, envelope) = e12::corpus().swap_remove(1);
    let root = envelope.to_element();
    let config = wsp_xml::WriterConfig::wire()
        .prefer(wsp_soap::SOAP_ENV_NS, "env")
        .prefer(wsp_soap::WSA_NS, "wsa");
    // A pool of its own: sibling tests take and put on the global one,
    // and which buffer comes back must not decide this verdict.
    let pool = wsp_xml::BufPool::new();
    let mut writer = wsp_xml::Writer::new(config);
    for _ in 0..50 {
        let mut buf = pool.take();
        buf.clear();
        writer.write_into(&root, &mut buf);
        pool.put(buf);
    }
    let mut worst = 0u64;
    for _ in 0..20 {
        let mut buf = pool.take();
        buf.clear();
        let before = alloc_count::allocations();
        writer.write_into(&root, &mut buf);
        worst = worst.max(alloc_count::allocations() - before);
        pool.put(buf);
    }
    assert_eq!(worst, 0, "warm single-pass write allocated");
}

/// The full envelope encode streams the envelope frame around the
/// borrowed payload and headers, and the WS-Addressing headers from
/// the envelope's typed `MessageHeaders`: an addressed request encodes
/// with no allocation, whatever its payload (8 while `To` and `Action`
/// were header trees cloned to be given `env:mustUnderstand`, 28 when
/// the whole envelope was staged through `to_element`). Only a foreign
/// block with `mustUnderstand` or `role` is still copied. The bound
/// fails if the writer, the pool or the payload start allocating again.
#[test]
fn warm_pooled_envelope_encode_pays_only_the_staging_tree() {
    let (_, envelope) = e12::corpus().swap_remove(0);
    let pool = wsp_xml::BufPool::new();
    for _ in 0..50 {
        let mut buf = pool.take();
        buf.clear();
        envelope.to_xml_into(&mut buf);
        pool.put(buf);
    }
    let mut worst = 0u64;
    for _ in 0..20 {
        let mut buf = pool.take();
        buf.clear();
        let before = alloc_count::allocations();
        envelope.to_xml_into(&mut buf);
        worst = worst.max(alloc_count::allocations() - before);
        pool.put(buf);
    }
    assert!(worst <= 9, "warm pooled encode allocated {worst} times");
}

/// One warm 16 KiB echo through every layer between the two sockets —
/// the request written to bytes, read by the engine, the handler run,
/// the response written to bytes and read by the client into a
/// `Value` — counted in payload-sized allocations, each of which is a
/// 16 KiB `malloc` and `memcpy`. Three are left, one per place the
/// design copies the string: wire → argument (unescaped), the handler's
/// own clone of it, wire → result. Seven when each side built, wrote
/// and parsed envelopes; the ceiling is the measured count.
#[test]
fn warm_large_round_trip_copies_its_payload_three_times() {
    use std::sync::Arc;
    use wsp_soap::{Fault, MessageHeaders};
    use wsp_wsdl::{proxy, MessageEngine, ServiceDescriptor, Value};
    let text: String = (0..16 * 1024)
        .map(|i| match i % 100 {
            0 => '<',
            33 => '&',
            66 => '>',
            _ => 'x',
        })
        .collect();
    let payload = [Value::string(text)];
    let echo = ServiceDescriptor::echo();
    let headers = MessageHeaders::request("http://h/Echo", "http://h/Echo#echoString");
    let engine = MessageEngine::new(
        ServiceDescriptor::echo(),
        Arc::new(|_: &str, args: &[Value]| -> Result<Value, Fault> { Ok(args[0].clone()) }),
    );
    let pool = wsp_xml::BufPool::new();
    let round_trip = || {
        let (mut wire, mut back) = (pool.take(), pool.take());
        let before = alloc_count::large_allocations();
        proxy::write_request(&echo, &[], &headers, "echoString", &payload, &mut wire)
            .expect("encode");
        let request = std::str::from_utf8(&wire).expect("UTF-8");
        let request = engine.read_request(request, &mut |_| {});
        let request = request.expect("server decode");
        engine.answer(&request, None, &mut back).expect("a reply");
        let response = std::str::from_utf8(&back).expect("UTF-8");
        let value = proxy::read_response(&echo, "echoString", response);
        let large = alloc_count::large_allocations() - before;
        assert_eq!(value.as_ref(), Ok(&payload[0]));
        drop(request);
        pool.put(wire);
        pool.put(back);
        large
    };
    for _ in 0..10 {
        round_trip();
    }
    let worst = (0..10).map(|_| round_trip()).max().unwrap_or(0);
    assert!(
        worst <= 3,
        "warm 16 KiB round trip made {worst} payload-sized allocations"
    );
}

/// The small path, where allocations are per element and not per byte:
/// the 700-byte addressed echo request every invocation decodes once on
/// each side. A warm parse makes 16 allocations — the tree's own (a
/// child list per parent, a string per text run, a list and a string
/// per attributed element); the reader's element and scope stacks and
/// the tokenizer's attribute buffer are its thread's, kept between
/// documents (19 when each parse allocated those three) — and a decode
/// plus re-encode 6 (10 before the stacks were kept, 28 through the
/// tree decoder, 44 before the reader stopped allocating for names it
/// had seen and declarations it could borrow). Each ceiling is the
/// measurement plus one. The per-element budget
/// is checked rather than read off a ladder: a declaration more costs
/// nothing, a text-leaf element more at most two (its child list and
/// its text) while its parent's list has room.
#[test]
fn warm_small_parse_allocates_for_the_tree_and_three_buffers() {
    use std::cell::RefCell;
    use wsp_soap::Envelope;
    use wsp_wsdl::{ServiceDescriptor, ServiceProxy, Value};
    let proxy = ServiceProxy::new(ServiceDescriptor::echo(), "http://127.0.0.1:8080/Echo");
    let argument = "op-0000000000000001:abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGHIJKLMNOP";
    let xml = proxy
        .encode_request("echoString", &[Value::string(argument)])
        .expect("encode")
        .to_xml();
    let worst_of = |f: &dyn Fn()| {
        (0..30).for_each(|_| f());
        let count = || {
            let before = alloc_count::allocations();
            f();
            alloc_count::allocations() - before
        };
        (0..20).map(|_| count()).max().unwrap_or(0)
    };
    let parse = |doc: &str| worst_of(&|| drop(wsp_xml::parse(doc).expect("parse")));

    let plain = parse(&xml);
    assert!(
        plain <= 17,
        "warm parse of the echo request allocated {plain} times"
    );
    let out = RefCell::new(Vec::with_capacity(2 * xml.len()));
    let round_trip = worst_of(&|| {
        let envelope = Envelope::from_xml(&xml).expect("decode");
        out.borrow_mut().clear();
        envelope.to_xml_into(&mut out.borrow_mut());
    });
    assert!(
        round_trip <= 7,
        "warm decode + encode allocated {round_trip} times"
    );

    // Four more declarations, two on the root and two on the body.
    let declared = xml
        .replacen(
            "<env:Envelope ",
            "<env:Envelope xmlns:a=\"urn:a\" xmlns:b=\"urn:b\" ",
            1,
        )
        .replacen(
            "<env:Body>",
            "<env:Body xmlns:c=\"urn:c\" xmlns=\"urn:d\">",
            1,
        );
    assert_eq!(
        declared.matches("xmlns").count(),
        xml.matches("xmlns").count() + 4
    );
    let with_declarations = parse(&declared);
    assert!(
        with_declarations <= plain,
        "four more xmlns declarations: {with_declarations} allocations, {plain} without"
    );
    // Three more text leaves beside the argument.
    let more = format!("{}</ns0:echoString>", "<ns0:more>v</ns0:more>".repeat(3));
    let leaves = xml.replacen("</ns0:echoString>", &more, 1);
    assert_eq!(leaves.len(), xml.len() + 3 * "<ns0:more>v</ns0:more>".len());
    let with_leaves = parse(&leaves);
    assert!(
        with_leaves <= plain + 2 * 3,
        "three more text leaves: {with_leaves} allocations, {plain} without"
    );
}

/// `PipeData` — the one P2PS message every invocation pays for, twice —
/// skips the tree on both sides: a warm encode into a pooled buffer
/// allocates nothing, and the decode allocates only what the decoded
/// message owns: service, pipe name, payload. The pull reader's own
/// stacks are its thread's (6 when each decode allocated the
/// tokenizer's attribute list, the scope and open-element stacks); the
/// tree codec it replaced paid 15 + 20 for the same frame.
#[test]
fn warm_pipe_data_codec_allocates_only_the_decoded_fields() {
    use wsp_p2ps::{P2psMessage, PeerId, PipeAdvertisement};
    let (_, envelope) = e12::corpus().swap_remove(0);
    let message = P2psMessage::PipeData {
        to: PipeAdvertisement::new(PeerId(0xBE01), Some("Echo".into()), "echoString"),
        payload: envelope.to_xml(),
    };
    let pool = wsp_xml::BufPool::new();
    let round_trip = || {
        let mut buf = pool.take();
        let before = alloc_count::allocations();
        message.to_xml_into(&mut buf);
        let encoded = alloc_count::allocations() - before;
        let wire = std::str::from_utf8(&buf).expect("wire is UTF-8");
        let before = alloc_count::allocations();
        let decoded = P2psMessage::from_xml(wire);
        let decode = alloc_count::allocations() - before;
        assert_eq!(decoded.as_ref(), Some(&message));
        drop(decoded);
        pool.put(buf);
        (encoded, decode)
    };
    for _ in 0..50 {
        round_trip();
    }
    let (mut worst_encode, mut worst_decode) = (0, 0);
    for _ in 0..20 {
        let (encode, decode) = round_trip();
        worst_encode = worst_encode.max(encode);
        worst_decode = worst_decode.max(decode);
    }
    assert_eq!(worst_encode, 0, "warm PipeData encode allocated");
    assert!(
        worst_decode <= 3,
        "warm PipeData decode allocated {worst_decode} times"
    );
}

/// Gossip streams as `PipeData` does: a warm encode of an `Advertise`,
/// or of a `QueryHit` carrying two adverts with pipes and attributes,
/// into a pooled buffer allocates nothing.
#[test]
fn warm_gossip_encode_allocates_nothing() {
    use wsp_p2ps::{P2psMessage, PeerId, ServiceAdvertisement};
    let advert = |name: &str, peer| {
        ServiceAdvertisement::new(name, PeerId(peer))
            .with_pipe("echoString")
            .with_definition_pipe()
            .with_attribute("domain", "demo & <test>")
            .with_attribute("version", "2")
    };
    let messages = [
        P2psMessage::Advertise {
            advert: advert("Echo", 0xBE01),
            ttl: 3,
        },
        P2psMessage::QueryHit {
            id: 42,
            origin: PeerId(0x99),
            adverts: vec![advert("Echo", 0xBE01), advert("EchoToo", 0xBE02)],
        },
    ];
    let pool = wsp_xml::BufPool::new();
    for message in &messages {
        let encode = || {
            let mut buf = pool.take();
            let before = alloc_count::allocations();
            message.to_xml_into(&mut buf);
            let encoded = alloc_count::allocations() - before;
            pool.put(buf);
            encoded
        };
        for _ in 0..50 {
            encode();
        }
        let worst = (0..20).map(|_| encode()).max().unwrap();
        assert_eq!(worst, 0, "warm encode of {message:?} allocated");
    }
}

/// A warm response-cache hit — the gateway's whole answer on the
/// `gateway_hit` path: the body is copied into a pooled buffer and the
/// hit counter's handle was resolved once, so the one allocation is
/// the content-type string the hit returns. Looking the counter up by
/// name on every hit cost a second, the name. Least of the samples: a
/// sibling test holding every pooled buffer costs this one a fresh one.
#[test]
fn warm_response_cache_hit_allocates_only_its_content_type() {
    use wsp_gateway::{GatewayCacheConfig, GatewayCaches, ResponseKey};
    let caches = GatewayCaches::new(GatewayCacheConfig::default());
    let key = ResponseKey {
        service: "Echo".into(),
        operation: "echoString".into(),
        body_hash: 7,
    };
    let request = b"<ask/>".to_vec();
    let body = b"<reply/>".to_vec();
    caches.put_response(
        key.clone(),
        request.clone(),
        200,
        "text/xml".into(),
        body,
        0,
    );
    let pool = wsp_xml::BufPool::global();
    let hit = || {
        let before = alloc_count::allocations();
        let hit = caches.get_response(&key, &request).expect("a fresh hit");
        let during = alloc_count::allocations() - before;
        pool.put(hit.body);
        during
    };
    (0..50).for_each(|_| {
        hit();
    });
    let least = (0..20).map(|_| hit()).min().unwrap_or(0);
    assert_eq!(least, 1, "a warm cache hit allocated {least} times");
}

/// The benchmark's plane (6 nodes, 4 shards, 3 replicas) holding the
/// 1 000 records `svc-0000` … `svc-0999`, published in process; the
/// client that published them; the records with their minted keys.
fn preloaded_plane() -> (
    wsp_registry::RegistryCluster,
    wsp_registry::ShardedUddiClient,
    Vec<wsp_uddi::BusinessService>,
) {
    use wsp_registry::{ClusterConfig, RegistryCluster, ShardedUddiClient};
    use wsp_uddi::{BindingTemplate, BusinessService};
    let plane = RegistryCluster::new(ClusterConfig {
        nodes: 6,
        shard_count: 4,
        replication: 3,
        default_ttl: None,
    });
    let client = ShardedUddiClient::for_cluster(&plane).expect("bootstrap");
    let records = (0..1_000)
        .map(|i| {
            let name = format!("svc-{i:04}");
            let endpoint = format!("http://10.8.0.1:8080/{name}");
            let record = BusinessService::new("", "uddi:wspeer:bench", name)
                .with_binding(BindingTemplate::new("", endpoint));
            client.publish(&record).expect("pre-load")
        })
        .collect();
    (plane, client, records)
}

/// One warm in-process exact-name locate on the benchmark's plane: one
/// `find_serviceDetail` handed to the owning node as a value and
/// answered from its name index. What is left is the copy of the one
/// record found (its strings, its binding list) and the client's
/// bookkeeping — nothing that depends on how many records the plane
/// holds or how many nodes it has, and no tree: 38 when the request and
/// the answer were envelopes, thousands when every node scanned.
#[test]
fn warm_exact_name_locate_allocates_for_the_record_it_returns() {
    use wsp_uddi::ServiceQuery;
    let (_plane, client, _) = preloaded_plane();
    let query = ServiceQuery::by_name("svc-0500");
    let locate = || {
        let before = alloc_count::allocations();
        let found = client.locate(&query).expect("locate");
        let during = alloc_count::allocations() - before;
        assert_eq!(found.len(), 1);
        during
    };
    for _ in 0..50 {
        locate();
    }
    let worst = (0..20).map(|_| locate()).max().unwrap_or(0);
    // Measured 10, in release and in debug alike; the ceiling is that
    // plus 10 %.
    assert!(
        worst <= 11,
        "warm exact-name locate allocated {worst} times"
    );
}

/// The same locate over loopback HTTP, each node behind its own
/// `TcpServer` as in `discovery_mix`, every thread of the process
/// counted: the request written from the query into bytes, read into a
/// value on the node's reactor thread, answered, the answer written
/// into bytes and read back into the record — two HTTP exchanges' worth
/// of buffers and headers around it.
#[test]
fn warm_exact_name_locate_over_http_stays_within_its_budget() {
    use wsp_registry::ShardedUddiClient;
    use wsp_uddi::{http_transport, ServiceQuery};
    let (plane, _, _) = preloaded_plane();
    let servers: Vec<wsp_http::TcpServer> = (0..6)
        .map(|node| {
            let router = wsp_http::Router::new();
            router.deploy("uddi", plane.node_http_handler(node));
            wsp_http::TcpServer::launch(0, router).expect("launch node")
        })
        .collect();
    let transports = (servers.iter())
        .map(|server| http_transport(server.service_uri("uddi")))
        .collect();
    let client = ShardedUddiClient::connect(transports).expect("bootstrap over HTTP");
    let query = ServiceQuery::by_name("svc-0500");
    let least = least_process_allocations(70, || {
        assert_eq!(client.locate(&query).expect("locate").len(), 1);
    });
    for server in &servers {
        server.shutdown();
    }
    // Measured 64 (71 before the readers kept their stacks per thread,
    // 116 when each side built, wrote, re-parsed and dropped two
    // trees); the ceiling is that plus 10 %.
    assert!(
        least <= 70,
        "a warm exact-name locate over HTTP allocated {least} times"
    );
}

/// One warm in-process republish — a record moving to a new access
/// point — where the shard's three replicas apply the op: the record
/// admitted and shared by the op, each replica's copy of it, the log
/// slot, the answer. The replicas used to parse the record's XML, one
/// tree each.
#[test]
fn warm_republish_through_three_replicas_stays_within_its_budget() {
    let (_plane, client, records) = preloaded_plane();
    let mut record = records[500].clone();
    let mut generation = 0u64;
    let mut republish = || {
        generation += 1;
        record.bindings[0].access_point = format!("http://10.8.0.2:8080/{generation}");
        let before = alloc_count::allocations();
        let saved = client.publish(&record).expect("republish");
        let during = alloc_count::allocations() - before;
        assert_eq!(saved, record);
        during
    };
    for _ in 0..50 {
        republish();
    }
    let worst = (0..20).map(|_| republish()).max().unwrap_or(0);
    // Measured 47 (178 when the op carried the record's XML); the
    // ceiling is that plus 10 %.
    assert!(worst <= 51, "a warm republish allocated {worst} times");
}

/// The least number of allocations the whole process made around one
/// warm call of `op`. Sibling tests allocate on their own threads
/// meanwhile; that only adds, so the least sample is the operation's
/// own count — sampled until one is within `ceiling`, or for as long as
/// the siblings could possibly take.
fn least_process_allocations(ceiling: u64, mut op: impl FnMut()) -> u64 {
    (0..50).for_each(|_| op());
    let mut sample = || {
        let before = alloc_count::process_allocations();
        op();
        alloc_count::process_allocations() - before
    };
    let patience = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let mut least = sample();
    while least > ceiling && std::time::Instant::now() < patience {
        least = least.min(sample());
    }
    least
}

/// A warm exact-name `Client::locate` of a service whose interface the
/// consumer already holds, against a registry over loopback HTTP: one
/// `find_serviceDetail` exchange and no `GET ?wsdl` — the located
/// service is built from the record (the rebuilt description's strings
/// and lists). Every thread of the process counted.
#[test]
fn warm_locate_of_a_known_interface_is_one_registry_exchange() {
    use wsp_core::bindings::HttpUddiBinding;
    use wsp_core::{EventBus, Peer, ServiceQuery};
    use wsp_wsdl::ServiceDescriptor;
    let registry = wsp_uddi::RegistryServer::launch(0).expect("registry");
    let binding = || HttpUddiBinding::with_registry_uri(&registry.uri(), EventBus::new());
    let provider = Peer::with_binding(&binding());
    provider
        .server()
        .deploy_and_publish(ServiceDescriptor::echo(), echo_handler())
        .expect("deploy");
    let consumer_binding = binding();
    let consumer = Peer::with_binding(&consumer_binding);
    let query = ServiceQuery::by_name("Echo");
    let locate = || assert_eq!(consumer.client().locate(&query).expect("locate").len(), 1);
    locate();
    let fetches = consumer_binding.pool_stats();
    let least = least_process_allocations(94, locate);
    assert_eq!(
        consumer_binding.pool_stats(),
        fetches,
        "a warm locate fetched"
    );
    provider.server().undeploy("Echo");
    registry.shutdown();
    // Measured 86 (93 before the readers kept their stacks per thread,
    // 196 when each locate fetched and parsed the WSDL); the ceiling is
    // that plus 10 %.
    assert!(
        least <= 94,
        "a warm locate of a known interface allocated {least} times"
    );
}

/// The argument `bench/`'s `invoke_small` sends: 64 bytes.
const SMALL_ARGUMENT: &str = "op-0000000000000001:abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGH";

fn echo_handler() -> std::sync::Arc<dyn wsp_wsdl::ServiceHandler> {
    use wsp_wsdl::Value;
    std::sync::Arc::new(|_: &str, args: &[Value]| Ok(args[0].clone()))
}

/// ROADMAP item 3's budget for the whole invoke: one warm
/// `Client::invoke` of the 64-byte echo over loopback HTTP, provider
/// and consumer in this process, every thread counted — the caller
/// (dispatch, resilience, the request written to bytes, the response
/// read from them), the connection pool, the reactor thread, the
/// hosting pipeline. 76 measured (82 before the readers kept their
/// stacks per thread), 192 when each side built, wrote, re-parsed and
/// dropped two envelopes; the ceiling is ROADMAP's.
#[test]
fn warm_http_invoke_stays_within_one_hundred_allocations() {
    use wsp_core::bindings::HttpUddiBinding;
    use wsp_core::{EventBus, Peer, ServiceQuery};
    use wsp_wsdl::{ServiceDescriptor, Value};
    assert_eq!(SMALL_ARGUMENT.len(), 64);
    let registry = wsp_uddi::Registry::new();
    let binding = |registry: &wsp_uddi::Registry| {
        HttpUddiBinding::with_local_registry(registry.clone(), EventBus::new())
    };
    let provider = Peer::with_binding(&binding(&registry));
    provider
        .server()
        .deploy_and_publish(ServiceDescriptor::echo(), echo_handler())
        .expect("deploy");
    let consumer = Peer::with_binding(&binding(&registry));
    let service = consumer
        .client()
        .locate_one(&ServiceQuery::by_name("Echo"))
        .expect("locate");
    let argument = [Value::string(SMALL_ARGUMENT)];
    let least = least_process_allocations(100, || {
        let reply = consumer.client().invoke(&service, "echoString", &argument);
        assert_eq!(reply.ok().as_ref(), Some(&argument[0]));
    });
    assert!(least <= 100, "a warm HTTP invoke allocated {least} times");
    provider.server().undeploy("Echo");
}

/// The server's share of that invoke: `Hosting::serve` from the echo
/// request's XML to the response's bytes, on this thread — the reader's
/// three buffers, the addressing it keeps, the argument, the handler's
/// clone of it, the response's headers: 11 measured (14 before the
/// reader kept its stacks per thread), 76 when the request was parsed
/// into an envelope, processed into another and that one serialised.
#[test]
fn warm_serve_of_the_echo_request_allocates_sixteen_times_at_most() {
    use wsp_core::bindings::HttpUddiBinding;
    use wsp_core::server::Incoming;
    use wsp_core::{EventBus, Peer};
    use wsp_wsdl::{proxy, ServiceDescriptor, Value};
    let binding = HttpUddiBinding::with_local_registry(wsp_uddi::Registry::new(), EventBus::new());
    let provider = Peer::with_binding(&binding);
    let deployed = (provider.server())
        .deploy(ServiceDescriptor::echo(), echo_handler())
        .expect("deploy");
    let endpoint = deployed.primary_endpoint().expect("an endpoint");
    let argument = [Value::string(SMALL_ARGUMENT)];
    let request = proxy::encode_request(&deployed.descriptor, endpoint, "echoString", &argument)
        .expect("encode")
        .to_xml();
    let hosting = provider.server().hosting();
    let service = hosting.service("Echo").expect("hosted");
    let pool = wsp_xml::BufPool::global();
    let serve = || {
        let permit = hosting.admit(&service, 0, None).expect("admitted");
        let before = alloc_count::allocations();
        let served = hosting.serve(&service, Incoming::Xml(&request), None, 0, None, permit);
        let bytes = served.into_bytes().expect("a reply");
        let during = alloc_count::allocations() - before;
        assert!(bytes.ends_with(b"</env:Envelope>"));
        pool.put(bytes);
        during
    };
    (0..50).for_each(|_| {
        serve();
    });
    let worst = (0..20).map(|_| serve()).max().unwrap_or(0);
    assert!(worst <= 16, "a warm serve allocated {worst} times");
    provider.server().undeploy("Echo");
}

/// The same invoke over P2PS: the caller, then the provider's worker,
/// then the caller again — two `PipeData` frames, each envelope read
/// once (the request by the provider, the response by the thread that
/// delivers it, with the reader its call registered), the return pipe
/// opened and closed around it. 74 measured (88 before the readers kept
/// their stacks per thread); 113 when the consumer read each response
/// twice, 300 when every pass went through an envelope.
#[test]
fn warm_p2ps_invoke_stays_within_one_hundred_and_eight_allocations() {
    use wsp_core::bindings::{P2psBinding, P2psConfig};
    use wsp_core::{EventBus, Peer, ServiceQuery};
    use wsp_p2ps::{PeerConfig, PeerId, ThreadNetwork};
    use wsp_wsdl::{ServiceDescriptor, Value};
    let network = ThreadNetwork::new();
    let rendezvous = network.spawn(PeerConfig::rendezvous(PeerId(0xA110)));
    let peer = |id: u64| {
        let spawned = network.spawn(PeerConfig::ordinary(PeerId(id)));
        spawned.add_neighbour(rendezvous.id(), true);
        rendezvous.add_neighbour(spawned.id(), false);
        Peer::with_binding(&P2psBinding::new(
            spawned,
            EventBus::new(),
            P2psConfig::default(),
        ))
    };
    let (provider, consumer) = (peer(0xA111), peer(0xA112));
    provider
        .server()
        .deploy_and_publish(ServiceDescriptor::echo(), echo_handler())
        .expect("deploy");
    // The advert reaches the rendezvous peer asynchronously: ask until
    // it has (a capped query returns as soon as one provider answers).
    let query = ServiceQuery::by_name("Echo").with_max_results(1);
    let service = (0..100)
        .find_map(|_| consumer.client().locate_one(&query).ok())
        .expect("located within a hundred discovery windows");
    let argument = [Value::string(SMALL_ARGUMENT)];
    let least = least_process_allocations(108, || {
        let reply = consumer.client().invoke(&service, "echoString", &argument);
        assert_eq!(reply.ok().as_ref(), Some(&argument[0]));
    });
    assert!(least <= 108, "a warm P2PS invoke allocated {least} times");
    provider.server().undeploy("Echo");
}
