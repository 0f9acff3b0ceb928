//! Wire-level overload protection: a burst past capacity is shed with
//! retry hints while admitted work completes, an expired deadline is
//! rejected before the handler runs, the P2PS busy fault round-trips
//! with its hint, and a draining host finishes every request it
//! admitted while turning new connections away.
//!
//! Doubles as the CI overload smoke test (`scripts/ci.sh` runs this
//! suite under two fixed seeds).

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use wsp_core::bindings::{HttpUddiBinding, P2psBinding, P2psConfig};
use wsp_core::overload::DeadlineScope;
use wsp_core::{
    Binding, EventBus, KeyedLoadShedPolicy, Peer, ResiliencePolicy, ServiceQuery, WspError,
};
use wsp_http::{http_call, Request, Response, Router, ServerConfig, TcpServer};
use wsp_integration_tests::{p2ps_star, wait_until};
use wsp_wsdl::{OperationDef, ServiceDescriptor, ServiceHandler, Value, XsdType};

/// A single-operation service whose handler sleeps, then counts.
fn nap_descriptor(name: &str) -> ServiceDescriptor {
    ServiceDescriptor::new(name, "urn:wspeer:test:overload")
        .operation(OperationDef::new("nap").returns(XsdType::String))
}

fn nap_handler(naps: Arc<AtomicU32>, length: Duration) -> Arc<dyn ServiceHandler> {
    Arc::new(move |_op: &str, _args: &[Value]| {
        std::thread::sleep(length);
        naps.fetch_add(1, Ordering::SeqCst);
        Ok(Value::string("rested"))
    })
}

/// A peer on the standard binding whose server admits under `policy`.
fn peer_with_policy(policy: KeyedLoadShedPolicy) -> (HttpUddiBinding, Peer) {
    let binding = HttpUddiBinding::with_local_registry(wsp_uddi::Registry::new(), EventBus::new());
    let peer = Peer::with_binding(&binding);
    peer.server().set_load_shed_policy(policy);
    (binding, peer)
}

/// 8 callers against an in-flight budget of 1: the host must shed the
/// overflow as `Overloaded` (with the server's retry hint attached) in
/// bounded time, while everything it admits completes successfully —
/// goodput survives the burst and no caller hangs.
#[test]
fn burst_past_capacity_sheds_with_hint_and_serves_the_rest() {
    let (_binding, peer) = peer_with_policy(KeyedLoadShedPolicy::bounded(1, 1024));
    let naps = Arc::new(AtomicU32::new(0));
    peer.server()
        .deploy_and_publish(
            nap_descriptor("BurstNap"),
            nap_handler(naps.clone(), Duration::from_millis(100)),
        )
        .unwrap();
    let service = peer
        .client()
        .locate_one(&ServiceQuery::by_name("BurstNap"))
        .unwrap();

    const CALLERS: usize = 8;
    let barrier = Arc::new(Barrier::new(CALLERS));
    let started = Instant::now();
    let outcomes: Vec<Result<Value, WspError>> = (0..CALLERS)
        .map(|_| {
            let client = peer.client().clone();
            let service = service.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                // No retries: observe the raw admission decision.
                client.invoke_with_policy(&service, "nap", &[], ResiliencePolicy::none())
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().unwrap())
        .collect();
    let elapsed = started.elapsed();

    let mut served = 0usize;
    let mut shed = 0usize;
    for outcome in outcomes {
        match outcome {
            Ok(value) => {
                assert_eq!(value, Value::string("rested"));
                served += 1;
            }
            Err(WspError::Overloaded { retry_after_ms }) => {
                // The hint crossed the wire (the policy default, 100 ms).
                assert_eq!(retry_after_ms, Some(100), "shed carries the server hint");
                shed += 1;
            }
            Err(other) => panic!("expected success or Overloaded, got {other}"),
        }
    }
    assert_eq!(served + shed, CALLERS);
    assert!(served >= 1, "the first caller through is always admitted");
    assert!(shed >= 1, "an 8-wide burst against budget 1 must shed");
    assert_eq!(naps.load(Ordering::SeqCst) as usize, served);
    // Nothing hung: sheds are immediate and admitted naps serialize at
    // 100 ms each, far under the transport timeouts.
    assert!(elapsed < Duration::from_secs(5), "burst took {elapsed:?}");
}

/// A request whose propagated deadline is already spent is shed at
/// admission — 503 with both retry-hint headers — and the handler is
/// never invoked. The same service still serves live-deadline calls.
#[test]
fn expired_deadline_is_rejected_before_the_handler_runs() {
    let (binding, peer) = peer_with_policy(KeyedLoadShedPolicy::unlimited());
    let naps = Arc::new(AtomicU32::new(0));
    peer.server()
        .deploy_and_publish(
            nap_descriptor("DeadlineNap"),
            nap_handler(naps.clone(), Duration::ZERO),
        )
        .unwrap();
    let port = binding.host_port().expect("deployment launched the host");

    // Zero remaining budget: expired by the time admission samples it.
    let mut request = Request::post("/DeadlineNap", "text/xml", "<unparsed/>");
    request.headers.set("X-WSP-Deadline", "0");
    let response = http_call("127.0.0.1", port, request).unwrap();
    assert_eq!(response.status, 503);
    assert_eq!(response.headers.get("Retry-After"), Some("1"));
    assert_eq!(response.headers.get("X-WSP-Retry-After-Ms"), Some("100"));
    assert_eq!(naps.load(Ordering::SeqCst), 0, "handler never ran");

    // A live deadline sails through the same admission gate.
    let service = peer
        .client()
        .locate_one(&ServiceQuery::by_name("DeadlineNap"))
        .unwrap();
    let value = peer
        .client()
        .invoke_with_policy(
            &service,
            "nap",
            &[],
            ResiliencePolicy::none().with_deadline(Duration::from_secs(5)),
        )
        .unwrap();
    assert_eq!(value, Value::string("rested"));
    assert_eq!(naps.load(Ordering::SeqCst), 1);
}

/// The binding's pooled path honours the caller's remaining deadline as
/// its exchange timeout (what the connection-per-call path guaranteed
/// before every call went through the pool): against a server that has
/// stopped answering, a 50 ms budget comes back as a transport error in
/// about 50 ms — on a pooled socket that carried the default 10 s
/// timeout one call earlier — not after the flat default.
#[test]
fn pooled_binding_call_honours_a_short_deadline_against_a_stalled_server() {
    let (binding, peer) = peer_with_policy(KeyedLoadShedPolicy::unlimited());
    let stall = Arc::new(AtomicBool::new(false));
    let stalled = stall.clone();
    peer.server()
        .deploy_and_publish(
            nap_descriptor("StallNap"),
            Arc::new(move |_op: &str, _args: &[Value]| {
                let gave_up = Instant::now() + Duration::from_secs(10);
                while stalled.load(Ordering::SeqCst) && Instant::now() < gave_up {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(Value::string("rested"))
            }),
        )
        .unwrap();
    let service = peer
        .client()
        .locate_one(&ServiceQuery::by_name("StallNap"))
        .unwrap();
    let invoker = binding.invoker();
    // Warm call, no deadline: pools a socket with the default timeout.
    assert_eq!(
        invoker.invoke(&service, "nap", &[]).unwrap(),
        Value::string("rested")
    );

    stall.store(true, Ordering::SeqCst);
    let started = Instant::now();
    let outcome = {
        let _budget = DeadlineScope::enter(Some(started + Duration::from_millis(50)));
        invoker.invoke(&service, "nap", &[])
    };
    let waited = started.elapsed();
    stall.store(false, Ordering::SeqCst);
    assert!(
        matches!(outcome, Err(WspError::Transport(_))),
        "{outcome:?}"
    );
    assert!(waited >= Duration::from_millis(40), "{waited:?}");
    assert!(waited < Duration::from_secs(5), "{waited:?}");
}

/// Over P2PS the shed takes the form of a SOAP busy fault on the return
/// pipe; the consumer's invoker decodes it back into `Overloaded` with
/// the provider's hint instead of a generic fault.
#[test]
fn p2ps_overload_surfaces_busy_fault_as_overloaded_with_hint() {
    let (_network, _rv, mut peers) = p2ps_star(2);
    let consumer_thread = peers.pop().unwrap();
    let provider_thread = peers.pop().unwrap();
    // Queue budget 0: the provider sheds every service request while
    // discovery and the definition pipe stay un-gated.
    let provider_binding = P2psBinding::new(
        provider_thread,
        EventBus::new(),
        P2psConfig {
            discovery_window: Duration::from_millis(400),
            request_timeout: Duration::from_secs(3),
        },
    );
    let provider = Peer::with_binding(&provider_binding);
    provider
        .server()
        .set_load_shed_policy(KeyedLoadShedPolicy::bounded(usize::MAX, 0));
    let consumer_binding = P2psBinding::new(
        consumer_thread,
        EventBus::new(),
        P2psConfig {
            discovery_window: Duration::from_millis(400),
            request_timeout: Duration::from_secs(3),
        },
    );
    let consumer = Peer::with_binding(&consumer_binding);

    let naps = Arc::new(AtomicU32::new(0));
    provider
        .server()
        .deploy_and_publish(
            nap_descriptor("BusyNap"),
            nap_handler(naps.clone(), Duration::ZERO),
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(150));

    let service = consumer
        .client()
        .locate_one(&ServiceQuery::by_name("BusyNap"))
        .unwrap();
    assert!(service.endpoint.starts_with("p2ps://"));

    let started = Instant::now();
    let err = consumer
        .client()
        .invoke_with_policy(&service, "nap", &[], ResiliencePolicy::none())
        .unwrap_err();
    assert!(
        matches!(
            err,
            WspError::Overloaded {
                retry_after_ms: Some(100)
            }
        ),
        "busy fault decodes to Overloaded with the provider's hint: {err:?}"
    );
    // The shed came back on the return pipe, not via the timeout.
    assert!(started.elapsed() < Duration::from_secs(2));
    assert_eq!(naps.load(Ordering::SeqCst), 0, "handler never ran");
}

/// Graceful drain over live sockets: every admitted request finishes
/// with a full response, connections arriving mid-drain are turned away
/// with 503 + Retry-After, and `shutdown` reports a complete drain.
#[test]
fn draining_host_finishes_admitted_work_and_rejects_new_connections() {
    let router = Router::new();
    router.deploy(
        "Slow",
        Arc::new(|_request: &Request| {
            std::thread::sleep(Duration::from_millis(400));
            Response::ok("text/plain", "done")
        }),
    );
    let server = Arc::new(
        TcpServer::launch_with(0, router, ServerConfig::default()).expect("ephemeral port"),
    );
    let port = server.port();

    const IN_FLIGHT: usize = 3;
    let workers: Vec<_> = (0..IN_FLIGHT)
        .map(|_| {
            std::thread::spawn(move || http_call("127.0.0.1", port, Request::get("/Slow")).unwrap())
        })
        .collect();
    assert!(
        wait_until(Duration::from_secs(2), || {
            server.active_connections() >= IN_FLIGHT
        }),
        "all slow requests are in flight"
    );

    let drainer = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let started = Instant::now();
            (server.shutdown(), started.elapsed())
        })
    };
    assert!(
        wait_until(Duration::from_secs(1), || server.is_draining()),
        "drain mode engaged"
    );

    // A connection arriving mid-drain is refused, with the hint.
    let turned_away = http_call("127.0.0.1", port, Request::get("/Slow")).unwrap();
    assert_eq!(turned_away.status, 503);
    assert!(turned_away.headers.get("Retry-After").is_some());

    for worker in workers {
        let response = worker.join().unwrap();
        assert_eq!(response.status, 200, "admitted work ran to completion");
        assert_eq!(response.body_str(), "done");
    }
    let (drained, drain_took) = drainer.join().unwrap();
    assert!(drained, "in-flight work fit inside the drain deadline");
    assert!(drain_took < ServerConfig::default().drain_deadline);
}

/// The reactor's connection lifecycle under mixed traffic: 8 clients,
/// each running keep-alive exchanges, a pipelined burst and an abrupt
/// close on fresh connections, against 2 handler permits. Every request
/// whose response is read gets exactly one, its own and in order; the
/// abandoned ones leak nothing — `active_connections()` returns to 0
/// and the server still drains cleanly. (`scripts/ci.sh` loops this in
/// release under both fault seeds.)
#[test]
fn eight_clients_of_mixed_traffic_leave_no_connection_behind() {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use wsp_http::{encode_request, parse_response};

    const CLIENTS: usize = 8;
    const ROUNDS: usize = 40;
    const KEEP_ALIVE: usize = 5;
    const PIPELINED: usize = 4;

    let served = Arc::new(AtomicU32::new(0));
    let router = Router::new();
    {
        let served = Arc::clone(&served);
        router.deploy(
            "Echo",
            Arc::new(move |request: &Request| {
                served.fetch_add(1, Ordering::SeqCst);
                Response::ok("text/plain", request.body.clone())
            }),
        );
    }
    let server = Arc::new(
        TcpServer::launch_with(
            0,
            router,
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .expect("ephemeral port"),
    );
    let port = server.port();

    /// Read exactly one response off `stream` (bytes of the next one
    /// may already sit in `buf`).
    fn next_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Response {
        let mut chunk = [0u8; 2048];
        loop {
            if let Ok((response, used)) = parse_response(buf) {
                buf.drain(..used);
                return response;
            }
            let n = stream.read(&mut chunk).expect("response bytes");
            assert!(n > 0, "server closed before answering");
            buf.extend_from_slice(&chunk[..n]);
        }
    }

    let start = Arc::new(Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let connect = || {
                    let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
                    stream
                        .set_read_timeout(Some(Duration::from_secs(20)))
                        .unwrap();
                    stream
                };
                let request =
                    |tag: String| encode_request(&Request::post("/Echo", "text/plain", tag));
                let mut answered = 0u32;
                start.wait();
                for round in 0..ROUNDS {
                    // Keep-alive: request, response, request, ...
                    let (mut stream, mut buf) = (connect(), Vec::new());
                    for i in 0..KEEP_ALIVE {
                        let tag = format!("c{client}r{round}k{i}");
                        stream.write_all(&request(tag.clone())).unwrap();
                        let response = next_response(&mut stream, &mut buf);
                        assert_eq!(response.body_str(), tag);
                        answered += 1;
                    }
                    assert!(buf.is_empty(), "no unsolicited bytes");
                    drop(stream);

                    // Pipelined: all requests in one write, responses in order.
                    let (mut stream, mut buf) = (connect(), Vec::new());
                    let tags: Vec<String> = (0..PIPELINED)
                        .map(|i| format!("c{client}r{round}p{i}"))
                        .collect();
                    let burst: Vec<u8> = tags.iter().flat_map(|t| request(t.clone())).collect();
                    stream.write_all(&burst).unwrap();
                    for tag in &tags {
                        assert_eq!(next_response(&mut stream, &mut buf).body_str(), *tag);
                        answered += 1;
                    }
                    assert!(buf.is_empty(), "exactly one response per request");
                    drop(stream);

                    // Abrupt: a request (or half of one) and gone, unread.
                    let mut stream = connect();
                    let wire = request(format!("c{client}r{round}x"));
                    let cut = if round % 2 == 0 {
                        wire.len()
                    } else {
                        wire.len() / 2
                    };
                    stream.write_all(&wire[..cut]).unwrap();
                    drop(stream);
                }
                answered
            })
        })
        .collect();

    let answered: u32 = clients.into_iter().map(|c| c.join().unwrap()).sum();
    assert_eq!(
        answered as usize,
        CLIENTS * ROUNDS * (KEEP_ALIVE + PIPELINED),
        "every request that waited for its response got it"
    );
    assert!(
        wait_until(Duration::from_secs(10), || server.active_connections() == 0),
        "{} connections still held after every client left",
        server.active_connections()
    );
    // Handlers ran once per answered request, plus at most once per
    // abandoned whole request.
    let served = served.load(Ordering::SeqCst);
    assert!(served >= answered && served <= answered + (CLIENTS * ROUNDS) as u32);
    assert!(server.shutdown(), "nothing left to drain");
}
