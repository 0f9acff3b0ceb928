#![cfg(test)]
//! The loopback suites of [`crate::server`] and [`crate::pool`]. Both
//! lived in `tcp.rs` until it was split by concern; the suites keep
//! the module path they were recorded under — `tcp::tests::…`,
//! `tcp::reactor_seam_tests::…`, `tcp::pool_tests::…` — so the split
//! renames no test. `cargo test -p wsp-http tcp::pool_tests` runs the
//! client's alone, `tcp::tests` / `tcp::reactor_seam_tests` the
//! server's.

use crate::codec::{encode_request, parse_request, parse_response, HttpError};
use crate::message::{Method, Request, Response};
use crate::pool::{http_call, http_call_uri, ConnectionPool, PooledConn, MAX_IDLE, MAX_IDLE_AGE};
use crate::router::Router;
use crate::server::{ServerConfig, TcpServer};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A router whose `/Echo` answers with the request body.
pub(crate) fn echo_router() -> Router {
    let router = Router::new();
    router.deploy(
        "Echo",
        Arc::new(|req: &Request| Response::ok("text/plain", req.body.clone())),
    );
    router
}

fn echo_server() -> TcpServer {
    TcpServer::launch(0, echo_router()).expect("launch server")
}

fn connect(server: &TcpServer) -> TcpStream {
    crate::reactor::tests::connect(server.port())
}

/// Read until the peer closes; parse the one response before it.
pub(crate) fn response_then_eof(stream: &mut TcpStream) -> Response {
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("response then close");
    let (response, used) = parse_response(&raw).expect("a full response");
    assert_eq!(used, raw.len(), "exactly one response");
    response
}

mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    /// A router whose `/Slow` holds its handler for `ms`, then says `body`.
    fn slow_router(ms: u64, body: &'static str) -> Router {
        let router = Router::new();
        router.deploy(
            "Slow",
            Arc::new(move |_req: &Request| {
                std::thread::sleep(Duration::from_millis(ms));
                Response::ok("text/plain", body)
            }),
        );
        router
    }

    #[test]
    fn round_trip_over_loopback() {
        let server = echo_server();
        let request = Request::post("/Echo", "text/plain", "over the wire");
        let response = http_call("127.0.0.1", server.port(), request).unwrap();
        assert!(response.is_success());
        assert_eq!(response.body_str(), "over the wire");
        server.shutdown();
    }

    #[test]
    fn listing_and_404() {
        let server = echo_server();
        let listing = http_call("127.0.0.1", server.port(), Request::get("/")).unwrap();
        assert_eq!(listing.body_str(), "Echo");
        let missing = http_call("127.0.0.1", server.port(), Request::get("/Nope")).unwrap();
        assert_eq!(missing.status, 404);
        server.shutdown();
    }

    #[test]
    fn dynamic_deploy_visible_without_restart() {
        let server = echo_server();
        server.router().deploy(
            "Late",
            Arc::new(|_req: &Request| Response::ok("text/plain", "late!")),
        );
        let response = http_call("127.0.0.1", server.port(), Request::get("/Late")).unwrap();
        assert_eq!(response.body_str(), "late!");
        server.router().undeploy("Late");
        let gone = http_call("127.0.0.1", server.port(), Request::get("/Late")).unwrap();
        assert_eq!(gone.status, 404);
        server.shutdown();
    }

    #[test]
    fn call_uri_helper() {
        let server = echo_server();
        let uri = server.service_uri("Echo");
        let mut request = Request::new(Method::Post, "/");
        request.body = b"via uri".to_vec();
        let response = http_call_uri(&uri, request).unwrap();
        assert_eq!(response.body_str(), "via uri");
        server.shutdown();
    }

    #[test]
    fn connect_error_reported() {
        // Port 1 on loopback is essentially never listening.
        let err = http_call("127.0.0.1", 1, Request::get("/")).unwrap_err();
        assert!(matches!(err, HttpError::Connect(_)));
    }

    #[test]
    fn connection_cap_rejects_with_retry_after() {
        // Capacity 1, a handler slow enough to hold the only slot.
        let router = slow_router(300, "done");
        let config = ServerConfig {
            max_connections: Some(1),
            retry_after: Duration::from_millis(1500),
            ..ServerConfig::default()
        };
        let server = TcpServer::launch_with(0, router, config).unwrap();
        let port = server.port();
        let holder = std::thread::spawn(move || {
            http_call("127.0.0.1", port, Request::get("/Slow")).unwrap()
        });
        // Wait until the slot is taken, then the next accept must shed.
        while server.active_connections() == 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        let shed = http_call("127.0.0.1", port, Request::get("/Slow")).unwrap();
        assert_eq!(shed.status, 503);
        assert_eq!(shed.headers.get("retry-after"), Some("1"));
        assert_eq!(shed.headers.get("x-wsp-retry-after-ms"), Some("1500"));
        assert_eq!(shed.headers.get("connection"), Some("close"));
        assert!(holder.join().unwrap().is_success());
        server.shutdown();
    }

    #[test]
    fn graceful_drain_finishes_in_flight_and_rejects_new() {
        let router = slow_router(200, "finished");
        let server = TcpServer::launch_with(
            0,
            router,
            ServerConfig {
                drain_deadline: Duration::from_secs(5),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let port = server.port();
        let in_flight = std::thread::spawn(move || {
            http_call("127.0.0.1", port, Request::get("/Slow")).unwrap()
        });
        while server.active_connections() == 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        let drained = server.shutdown();
        assert!(drained, "in-flight call must finish inside the deadline");
        // The admitted call completed, and its response closed the
        // connection because the server was draining behind it.
        let response = in_flight.join().unwrap();
        assert_eq!(response.body_str(), "finished");
        assert_eq!(response.headers.get("connection"), Some("close"));
        // New connections are refused once the server is gone.
        assert!(http_call("127.0.0.1", port, Request::get("/Slow")).is_err());
    }

    #[test]
    fn drain_rejects_new_connections_with_503() {
        let router = Router::new();
        let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let release = gate.clone();
        router.deploy(
            "Gate",
            Arc::new(move |_req: &Request| {
                while !release.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Response::ok("text/plain", "released")
            }),
        );
        let server = Arc::new(TcpServer::launch(0, router).unwrap());
        let port = server.port();
        let in_flight = std::thread::spawn(move || {
            http_call("127.0.0.1", port, Request::get("/Gate")).unwrap()
        });
        while server.active_connections() == 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Start the drain from another thread (it blocks until idle).
        let drainer = {
            let server = server.clone();
            std::thread::spawn(move || server.shutdown())
        };
        while !server.is_draining() {
            std::thread::sleep(Duration::from_millis(2));
        }
        // While draining, a new connection gets the busy rejection.
        let rejected = http_call("127.0.0.1", port, Request::get("/Gate")).unwrap();
        assert_eq!(rejected.status, 503);
        assert!(rejected.headers.get("retry-after").is_some());
        gate.store(true, Ordering::SeqCst);
        assert!(drainer.join().unwrap(), "drain completes once gate opens");
        assert_eq!(in_flight.join().unwrap().body_str(), "released");
    }

    #[test]
    fn slow_client_gets_408_on_header_deadline() {
        let config = ServerConfig {
            header_read_deadline: Duration::from_millis(100),
            ..ServerConfig::default()
        };
        let server = TcpServer::launch_with(0, echo_router(), config).unwrap();
        let mut stream = connect(&server);
        // Drip half a request line and stall: the head never completes.
        stream.write_all(b"GET /Ec").unwrap();
        assert_eq!(response_then_eof(&mut stream).status, 408);
        server.shutdown();
    }

    #[test]
    fn slow_body_gets_408_on_body_deadline() {
        let config = ServerConfig {
            header_read_deadline: Duration::from_secs(5),
            body_read_deadline: Duration::from_millis(100),
            ..ServerConfig::default()
        };
        let server = TcpServer::launch_with(0, echo_router(), config).unwrap();
        let mut stream = connect(&server);
        // Complete head promising a body that never arrives in full.
        stream
            .write_all(b"POST /Echo HTTP/1.1\r\nContent-Length: 100\r\n\r\npartial")
            .unwrap();
        assert_eq!(response_then_eof(&mut stream).status, 408);
        server.shutdown();
    }

    #[test]
    fn shutdown_now_cuts_off_without_drain() {
        let server = echo_server();
        // Idle keep-alive connection pinned open by a pool.
        let pool = ConnectionPool::new();
        pool.call("127.0.0.1", server.port(), Request::get("/Echo"))
            .unwrap();
        server.shutdown_now();
        // The server stops accepting immediately.
        assert!(http_call("127.0.0.1", server.port(), Request::get("/Echo")).is_err());
    }

    #[test]
    fn concurrent_clients() {
        let server = echo_server();
        let port = server.port();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let body = format!("client-{i}");
                    let resp = http_call(
                        "127.0.0.1",
                        port,
                        Request::post("/Echo", "text/plain", body.clone()),
                    )
                    .unwrap();
                    assert_eq!(resp.body_str(), body);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        server.shutdown();
    }

    /// A request dripped one byte per write, then two whole requests
    /// pipelined in one write — the incremental head scan and the
    /// machine's Writing → Idle re-pump must handle both.
    #[test]
    fn dripped_then_pipelined_requests_on_one_connection() {
        let server = echo_server();
        let mut stream = connect(&server);
        let request = b"POST /Echo HTTP/1.1\r\nContent-Length: 5\r\n\r\ndrip!";
        for &byte in request.iter() {
            stream.write_all(&[byte]).unwrap();
            stream.flush().unwrap();
        }
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        let first = loop {
            match parse_response(&buf) {
                Ok((response, used)) => {
                    buf.drain(..used);
                    break response;
                }
                Err(HttpError::Incomplete) => {
                    let n = stream.read(&mut chunk).unwrap();
                    assert_ne!(n, 0, "server closed before answering the dripped request");
                    buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) => panic!("{e}"),
            }
        };
        assert_eq!(first.body_str(), "drip!");

        // Two requests in one TCP segment; two responses must come back
        // in order on the same connection.
        let pipelined = b"POST /Echo HTTP/1.1\r\nContent-Length: 3\r\n\r\none\
                          POST /Echo HTTP/1.1\r\nContent-Length: 3\r\n\r\ntwo";
        stream.write_all(pipelined).unwrap();
        let mut bodies = Vec::new();
        while bodies.len() < 2 {
            match parse_response(&buf) {
                Ok((response, used)) => {
                    buf.drain(..used);
                    bodies.push(response.body_str().into_owned());
                }
                Err(HttpError::Incomplete) => {
                    let n = stream.read(&mut chunk).unwrap();
                    assert_ne!(n, 0, "server closed mid-pipeline");
                    buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(bodies, ["one", "two"]);
        server.shutdown();
    }

    /// A client that reads its response slowly forces the reactor into
    /// `EPOLLOUT` backpressure; every byte must still arrive, and other
    /// connections must stay responsive meanwhile.
    #[test]
    fn slow_reader_gets_the_full_response_under_backpressure() {
        let body: Vec<u8> = std::iter::repeat(b"wsp".iter().copied())
            .flatten()
            .take(1 << 20)
            .collect();
        let router = Router::new();
        let served = body.clone();
        router.deploy(
            "Big",
            Arc::new(move |_req: &Request| {
                Response::ok("application/octet-stream", served.clone())
            }),
        );
        let server = TcpServer::launch(0, router).unwrap();
        let mut slow = connect(&server);
        slow.write_all(b"GET /Big HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        // Give the write buffer time to fill so EPOLLOUT interest is
        // genuinely exercised, then drain in small sips with pauses.
        std::thread::sleep(Duration::from_millis(100));
        let port = server.port();
        let mut received = Vec::new();
        let mut chunk = [0u8; 8192];
        let mut sips = 0u32;
        loop {
            match slow.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    received.extend_from_slice(&chunk[..n]);
                    sips += 1;
                    if sips.is_multiple_of(8) {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    // The reactor thread must not be wedged behind the
                    // slow writer: a second client gets served mid-drain.
                    if sips == 16 {
                        let other = http_call("127.0.0.1", port, Request::get("/Big")).unwrap();
                        assert!(other.is_success());
                    }
                }
                Err(e) => panic!("read failed mid-backpressure: {e}"),
            }
        }
        let (response, _) = parse_response(&received).unwrap();
        assert_eq!(response.body.len(), body.len());
        assert_eq!(response.body, body);
        server.shutdown();
    }

    /// Drain completion is condvar-signalled: shutdown must return as
    /// soon as the last connection closes, well before the deadline.
    #[test]
    fn shutdown_returns_as_soon_as_drain_completes() {
        let router = slow_router(150, "done");
        let server = TcpServer::launch_with(
            0,
            router,
            ServerConfig {
                drain_deadline: Duration::from_secs(30),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let port = server.port();
        let in_flight = std::thread::spawn(move || {
            http_call("127.0.0.1", port, Request::get("/Slow")).unwrap()
        });
        while server.active_connections() == 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        let begun = Instant::now();
        let drained = server.shutdown();
        let waited = begun.elapsed();
        assert!(drained);
        assert!(
            waited < Duration::from_secs(10),
            "shutdown must track the connection close, not the 30 s deadline (took {waited:?})"
        );
        assert!(in_flight.join().unwrap().is_success());
    }
}

mod reactor_seam_tests {
    //! The seams of the run-to-completion reactor as HTTP sees them:
    //! what must keep working while every handler permit is taken, and
    //! what a whole-frame request may cost the shared timer wheel.

    use super::*;
    use crate::reactor::tests::wait_for;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    /// `/Park` holds its handler until the returned sender is dropped
    /// (or sent to); `entered` counts handlers inside.
    fn parking_router() -> (Router, mpsc::Sender<()>, Arc<AtomicUsize>) {
        let router = echo_router();
        let (release, gate) = mpsc::channel::<()>();
        let gate = parking_lot::Mutex::new(gate);
        let entered = Arc::new(AtomicUsize::new(0));
        let inside = Arc::clone(&entered);
        router.deploy(
            "Park",
            Arc::new(move |_req: &Request| {
                inside.fetch_add(1, Ordering::SeqCst);
                let _ = gate.lock().recv();
                Response::ok("text/plain", "released")
            }),
        );
        (router, release, entered)
    }

    /// Also the one place every reply the server writes without running
    /// a handler — 400, 408, both 503 rejections — is checked to say
    /// `Connection: close` and to be followed by the close.
    #[test]
    fn edges_are_served_while_every_handler_is_parked() {
        let canned = |stream: &mut TcpStream, status: u16| {
            let response = response_then_eof(stream);
            assert_eq!(response.status, status);
            assert_eq!(response.headers.get("connection"), Some("close"));
            response
        };
        let (router, release, entered) = parking_router();
        let server = Arc::new(
            TcpServer::launch_with(
                0,
                router,
                ServerConfig {
                    workers: 2,
                    max_connections: Some(5),
                    header_read_deadline: Duration::from_millis(100),
                    ..ServerConfig::default()
                },
            )
            .unwrap(),
        );
        // Two keep-alive connections, one request served on each.
        let mut idle: Vec<TcpStream> = (0..2).map(|_| connect(&server)).collect();
        let mut buf = vec![0u8; 4096];
        for stream in &mut idle {
            stream
                .write_all(&encode_request(&Request::get("/Echo")))
                .unwrap();
            let n = stream.read(&mut buf).unwrap();
            assert!(parse_response(&buf[..n]).unwrap().0.is_success());
        }
        // Both handler permits taken.
        let mut parked: Vec<TcpStream> = (0..2).map(|_| connect(&server)).collect();
        for stream in &mut parked {
            stream
                .write_all(&encode_request(&Request::get("/Park")))
                .unwrap();
        }
        wait_for("both handlers to park", || {
            entered.load(Ordering::SeqCst) == 2
        });

        // A new connection is accepted and parsed: garbage gets its 400
        // with no handler involved.
        let mut garbage = connect(&server);
        garbage.write_all(b"NOT HTTP\r\n\r\n").unwrap();
        canned(&mut garbage, 400);

        // A dripped head gets its 408 on time.
        let mut slow = connect(&server);
        let dripped_at = Instant::now();
        slow.write_all(b"GET /Ec").unwrap();
        canned(&mut slow, 408);
        let took = dripped_at.elapsed();
        assert!(
            took >= Duration::from_millis(100) && took < Duration::from_secs(2),
            "408 after {took:?}, deadline 100 ms"
        );
        wait_for("the two short connections to be released", || {
            server.active_connections() == 4
        });

        // One more connection, which never sends, fills the cap; one
        // over it gets the canned 503.
        let mut unread = connect(&server);
        wait_for("the cap to fill", || server.active_connections() == 5);
        let shed = canned(&mut connect(&server), 503);
        assert!(shed.headers.get("retry-after").is_some());

        // shutdown() delivers drain: the idle keep-alive connections
        // close now, the parked requests finish behind `Connection:
        // close`, the connection that was admitted but never read gets
        // the head deadline to send its one request, and a latecomer is
        // turned away.
        let drainer = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.shutdown())
        };
        wait_for("the drain to begin", || server.is_draining());
        canned(&mut connect(&server), 503);
        for stream in &mut idle {
            let mut rest = Vec::new();
            stream.read_to_end(&mut rest).expect("closed by the drain");
            assert!(rest.is_empty());
        }
        canned(&mut unread, 408);
        assert_eq!(entered.load(Ordering::SeqCst), 2, "handlers still parked");
        drop(release);
        for stream in &mut parked {
            let response = response_then_eof(stream);
            assert_eq!(response.body_str(), "released");
            assert_eq!(response.headers.get("connection"), Some("close"));
        }
        assert!(drainer.join().unwrap(), "drained inside the deadline");
        assert_eq!(server.active_connections(), 0);
    }

    #[test]
    fn peer_half_close_during_handling_gets_response_then_close() {
        let (router, release, entered) = parking_router();
        let server = TcpServer::launch(0, router).unwrap();
        let mut stream = connect(&server);
        stream
            .write_all(&encode_request(&Request::get("/Park")))
            .unwrap();
        wait_for("the handler to park", || {
            entered.load(Ordering::SeqCst) == 1
        });
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        release.send(()).unwrap();
        assert_eq!(response_then_eof(&mut stream).body_str(), "released");
        wait_for("slot release", || server.active_connections() == 0);
        server.shutdown();
    }

    #[test]
    fn panicking_handler_closes_only_its_connection() {
        let router = echo_router();
        router.deploy(
            "Boom",
            Arc::new(|_req: &Request| -> Response { panic!("handler bug") }),
        );
        let server = TcpServer::launch(0, router).unwrap();
        let mut bystander = connect(&server);
        let mut victim = connect(&server);
        victim
            .write_all(&encode_request(&Request::get("/Boom")))
            .unwrap();
        let mut rest = Vec::new();
        victim.read_to_end(&mut rest).expect("closed, not reset");
        assert!(rest.is_empty(), "no response for the panicked request");
        // The connection that was open beside it, and a new one, work.
        bystander
            .write_all(&encode_request(&Request::post(
                "/Echo",
                "text/plain",
                "still here",
            )))
            .unwrap();
        let mut buf = vec![0u8; 4096];
        let n = bystander.read(&mut buf).unwrap();
        let (response, _) = parse_response(&buf[..n]).unwrap();
        assert_eq!(response.body_str(), "still here");
        let fresh = http_call("127.0.0.1", server.port(), Request::get("/Echo")).unwrap();
        assert!(fresh.is_success());
        server.shutdown();
    }

    #[test]
    fn whole_frame_request_never_touches_the_wheel_and_a_dripped_head_touches_it_twice() {
        let server = echo_server();
        let mut stream = connect(&server);
        let wire = encode_request(&Request::post("/Echo", "text/plain", "one segment"));
        let mut buf = vec![0u8; 4096];

        // FirstByte arms the head deadline and RequestDone cancels it
        // inside one callback: nothing reaches the wheel.
        for _ in 0..3 {
            stream.write_all(&wire).unwrap();
            let n = stream.read(&mut buf).unwrap();
            assert!(parse_response(&buf[..n]).unwrap().0.is_success());
        }
        assert_eq!(server.wheel_ops(), (0, 0));

        // A head that arrives in two segments is on the clock between
        // them: one schedule, one cancel.
        let (first, second) = wire.split_at(10);
        stream.write_all(first).unwrap();
        wait_for("the head deadline to be armed", || {
            server.wheel_ops() == (1, 0)
        });
        stream.write_all(second).unwrap();
        let n = stream.read(&mut buf).unwrap();
        assert!(parse_response(&buf[..n]).unwrap().0.is_success());
        assert_eq!(server.wheel_ops(), (1, 1));
        server.shutdown();
    }
}

mod pool_tests {
    use super::*;

    /// Safety-net read timeout for tests that expect an answer.
    const SHORT: Duration = Duration::from_millis(500);

    #[test]
    fn pool_reuses_connections() {
        let server = echo_server();
        let pool = ConnectionPool::new();
        for i in 0..5 {
            let response = pool
                .call(
                    "127.0.0.1",
                    server.port(),
                    Request::post("/Echo", "text/plain", format!("r{i}")),
                )
                .unwrap();
            assert_eq!(response.body_str(), format!("r{i}"));
        }
        // After the first call the connection is pooled and reused.
        assert_eq!(pool.idle_count(), 1);
        server.shutdown();
    }

    #[test]
    fn pool_recovers_from_stale_connection() {
        let server = echo_server();
        let pool = ConnectionPool::new();
        let port = server.port();
        pool.call("127.0.0.1", port, Request::get("/Echo")).unwrap();
        assert_eq!(pool.idle_count(), 1);
        // Restarting the server kills the pooled connection: the drain
        // closes it as idle before `shutdown` returns.
        server.shutdown();
        let router = Router::new();
        router.deploy(
            "Echo",
            Arc::new(|_r: &Request| Response::ok("text/plain", "back")),
        );
        // Rebind on the same port (may need a few tries on busy CI).
        let server2 = (0..20)
            .find_map(|_| {
                std::thread::sleep(Duration::from_millis(25));
                TcpServer::launch(port, router.clone()).ok()
            })
            .expect("rebind same port");
        let response = pool.call("127.0.0.1", port, Request::get("/Echo")).unwrap();
        assert_eq!(response.body_str(), "back");
        server2.shutdown();
    }

    #[test]
    fn keep_alive_and_close_interoperate() {
        let server = echo_server();
        // A plain (close) client against the keep-alive server.
        let response = http_call("127.0.0.1", server.port(), Request::get("/Echo")).unwrap();
        assert!(response.is_success());
        assert_eq!(response.headers.get("connection"), Some("close"));
        // A pooled client sees keep-alive.
        let pool = ConnectionPool::new();
        let response = pool
            .call("127.0.0.1", server.port(), Request::get("/Echo"))
            .unwrap();
        assert_eq!(response.headers.get("connection"), Some("keep-alive"));
        server.shutdown();
    }

    /// The raw servers' read side: one whole request off `conn`, or
    /// `false` if the client went away (or sent garbage) first.
    fn read_one_request(conn: &mut TcpStream) -> bool {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            match parse_request(&buf) {
                Ok(_) => return true,
                Err(HttpError::Incomplete) => match conn.read(&mut chunk) {
                    Ok(0) | Err(_) => return false,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                },
                Err(_) => return false,
            }
        }
    }

    /// A raw server that *advertises* keep-alive but closes the socket
    /// after every response — the lying-server case the pool must
    /// survive without ever writing a request onto a dead connection it
    /// could have probed first.
    fn lying_close_server() -> (std::net::TcpListener, u16, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let accept = listener.try_clone().unwrap();
        let join = std::thread::spawn(move || {
            while let Ok((mut conn, _)) = accept.accept() {
                if !read_one_request(&mut conn) {
                    return;
                }
                let body = b"pong";
                let head = format!(
                    "HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                );
                let _ = conn.write_all(head.as_bytes());
                let _ = conn.write_all(body);
                // Close (drop) despite having advertised keep-alive.
            }
        });
        (listener, port, join)
    }

    #[test]
    fn pool_survives_server_that_closes_after_each_response() {
        let (listener, port, join) = lying_close_server();
        let pool = ConnectionPool::new();
        for i in 0..5 {
            let response = pool
                .call("127.0.0.1", port, Request::get("/ping"))
                .unwrap_or_else(|e| panic!("call {i}: {e}"));
            assert_eq!(response.body_str(), "pong");
        }
        let stats = pool.stats();
        // The lying keep-alive header pools each dead connection; every
        // later call must detect and retire it instead of reusing it.
        assert!(stats.retired >= 4, "{stats:?}");
        assert!(stats.misses >= 1, "{stats:?}");
        // The peek probe catches idle deaths before any bytes are sent,
        // so calls succeed without burning the single retry: hits only
        // happen if a probe raced the close, and then the retry covers
        // it — either way every call succeeded above.
        drop(listener); // unblocks accept
        drop(join);
    }

    #[test]
    fn pool_never_reuses_connection_after_explicit_close() {
        let server = echo_server();
        let pool = ConnectionPool::new();
        let port = server.port();
        pool.call("127.0.0.1", port, Request::post("/Echo", "t", "warm"))
            .unwrap();
        assert_eq!(pool.idle_count(), 1);
        // A request that asks the server to close is connection-per-call
        // through the pool: it opens its own socket, the server answers
        // `close`, and that socket is retired, not pooled.
        let mut request = Request::post("/Echo", "t", "once");
        request.headers.set("Connection", "close");
        let response = pool.call("127.0.0.1", port, request).unwrap();
        assert_eq!(response.body_str(), "once");
        assert_eq!(
            response.headers.get("connection"),
            Some("close"),
            "server honoured the close request"
        );
        let stats = pool.stats();
        assert_eq!(stats.misses, 2, "one-shot opens its own: {stats:?}");
        assert_eq!(stats.retired, 1, "{stats:?}");
        assert_eq!(pool.idle_count(), 1, "only the warm connection is pooled");
        server.shutdown();
    }

    #[test]
    fn pool_counts_hits_and_misses() {
        let server = echo_server();
        let pool = ConnectionPool::new();
        for _ in 0..3 {
            pool.call("127.0.0.1", server.port(), Request::get("/Echo"))
                .unwrap();
        }
        let stats = pool.stats();
        assert_eq!(stats.misses, 1, "{stats:?}");
        assert_eq!(stats.hits, 2, "{stats:?}");
        assert_eq!(stats.retired, 0, "{stats:?}");
        server.shutdown();
    }

    #[test]
    fn pool_is_shared_across_threads() {
        let server = echo_server();
        let pool = Arc::new(ConnectionPool::new());
        let port = server.port();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    for j in 0..10 {
                        let body = format!("t{i}-{j}");
                        let r = pool
                            .call(
                                "127.0.0.1",
                                port,
                                Request::post("/Echo", "text/plain", body.clone()),
                            )
                            .unwrap();
                        assert_eq!(r.body_str(), body);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(pool.idle_count() >= 1 && pool.idle_count() <= 4);
        server.shutdown();
    }

    /// A raw scripted server: answers each accepted connection with the
    /// given canned responses in order (reading one request before
    /// each), then closes. Returns the number of requests it received.
    fn scripted_server(
        scripts: Vec<Vec<&'static str>>,
    ) -> (
        u16,
        Arc<std::sync::atomic::AtomicUsize>,
        std::thread::JoinHandle<()>,
    ) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let requests = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let seen = requests.clone();
        let join = std::thread::spawn(move || {
            for script in scripts {
                let Ok((mut conn, _)) = listener.accept() else {
                    return;
                };
                for response in script {
                    if !read_one_request(&mut conn) {
                        return;
                    }
                    seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    let _ = conn.write_all(response.as_bytes());
                }
                // Drop the connection between scripts.
            }
        });
        (port, requests, join)
    }

    /// A peer's `Content-Length` is what the client reserves for the
    /// body: one far past any body, or past what a `usize` adds up to,
    /// is refused rather than reserved or summed.
    #[test]
    fn a_declared_length_past_the_bound_is_refused_not_reserved() {
        for length in ["100000000000000", "18446744073709551615"] {
            let head = format!("HTTP/1.1 200 OK\r\nContent-Length: {length}\r\n\r\nx");
            let (port, _requests, join) = scripted_server(vec![vec![head.leak()]]);
            let refused = http_call("127.0.0.1", port, Request::get("/")).unwrap_err();
            assert!(
                matches!(refused, HttpError::Malformed(_)),
                "{length}: {refused:?}"
            );
            drop(join);
        }
    }

    #[test]
    fn absent_connection_header_defaults_to_reuse_on_http11() {
        // HTTP/1.1 without any Connection header: persistent by
        // default, so the pool must reuse the socket.
        let (port, requests, join) = scripted_server(vec![vec![
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
        ]]);
        let pool = ConnectionPool::new();
        for _ in 0..2 {
            let response = pool.call("127.0.0.1", port, Request::get("/")).unwrap();
            assert_eq!(response.body_str(), "ok");
        }
        let stats = pool.stats();
        assert_eq!(stats.misses, 1, "{stats:?}");
        assert_eq!(stats.hits, 1, "both calls on one connection: {stats:?}");
        assert_eq!(requests.load(std::sync::atomic::Ordering::SeqCst), 2);
        drop(join);
    }

    #[test]
    fn http10_response_without_keep_alive_is_retired() {
        // HTTP/1.0 defaults to close: absent header means retire.
        let (port, _requests, join) = scripted_server(vec![
            vec!["HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok"],
            vec!["HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok"],
        ]);
        let pool = ConnectionPool::new();
        for _ in 0..2 {
            let response = pool.call("127.0.0.1", port, Request::get("/")).unwrap();
            assert_eq!(response.body_str(), "ok");
        }
        let stats = pool.stats();
        assert_eq!(pool.idle_count(), 0, "HTTP/1.0 must not pool");
        assert_eq!(stats.misses, 2, "{stats:?}");
        assert_eq!(stats.retired, 2, "{stats:?}");
        drop(join);
    }

    #[test]
    fn pool_does_not_resend_after_partial_response() {
        // First exchange pools the connection; the second gets a
        // truncated response (head bytes, then close). The server may
        // already have executed that request, so the pool must surface
        // the failure rather than resend it on a fresh connection.
        let (port, requests, join) = scripted_server(vec![
            vec![
                "HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nok",
                "HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nContent-Length: 99\r\n\r\ntruncated",
            ],
            // A third connection would only be opened by the buggy
            // retry; scripting it lets the duplicate show up in the
            // request count instead of a client-side connect error.
            vec!["HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nok"],
        ]);
        let pool = ConnectionPool::new();
        let get = || pool.call_with_timeout("127.0.0.1", port, Request::get("/"), SHORT);
        get().unwrap();
        let err = get().unwrap_err();
        assert!(
            matches!(err, HttpError::Incomplete | HttpError::Io(_)),
            "mid-response death must surface: {err:?}"
        );
        let stats = pool.stats();
        assert_eq!(stats.retries, 0, "no retry after response bytes: {stats:?}");
        assert_eq!(
            requests.load(std::sync::atomic::Ordering::SeqCst),
            2,
            "the possibly-executed request must not be resent"
        );
        drop(join);
    }

    #[test]
    fn pool_retries_when_pooled_connection_dies_before_any_response_byte() {
        // The pooled socket is closed server-side after the first
        // exchange; the second write (or its first read) fails before
        // any response byte, which IS provably safe to retry.
        let (port, requests, join) = scripted_server(vec![
            vec!["HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nok"],
            vec!["HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nok"],
        ]);
        let pool = ConnectionPool::new();
        let get = || pool.call_with_timeout("127.0.0.1", port, Request::get("/"), SHORT);
        get().unwrap();
        // Let the server-side close land so the liveness probe (or the
        // exchange) sees a dead socket rather than a live one.
        std::thread::sleep(Duration::from_millis(100));
        let response = get().unwrap();
        assert_eq!(response.body_str(), "ok");
        assert_eq!(requests.load(std::sync::atomic::Ordering::SeqCst), 2);
        drop(join);
    }

    /// A connected client socket whose server side is already closed —
    /// enough for the pool's bookkeeping, and it keeps the test under
    /// the descriptor limit.
    fn orphan_conn(listener: &std::net::TcpListener) -> PooledConn {
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        drop(listener.accept().unwrap());
        PooledConn::fresh(stream)
    }

    #[test]
    fn idle_set_stays_under_its_cap_across_a_thousand_authorities() {
        // Authorities come from registry-supplied access points: the
        // pool must not grow with every one ever called.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let pool = ConnectionPool::new();
        for i in 0..1000 {
            pool.put(
                &format!("10.0.{}.{}:80", i / 250, i % 250),
                orphan_conn(&listener),
            );
            let idle = pool.idle.lock();
            assert!(idle.total <= MAX_IDLE, "idle sockets: {}", idle.total);
            assert!(
                idle.by_authority.len() <= MAX_IDLE,
                "authorities: {}",
                idle.by_authority.len()
            );
            assert_eq!(
                idle.total,
                idle.by_authority.values().map(Vec::len).sum::<usize>()
            );
        }
        assert_eq!(pool.idle_count(), MAX_IDLE);
        assert_eq!(pool.stats().retired, (1000 - MAX_IDLE) as u64);
        // Oldest first: exactly the last MAX_IDLE authorities survive.
        let idle = pool.idle.lock();
        for i in 0..1000 {
            let held = idle
                .by_authority
                .get(&format!("10.0.{}.{}:80", i / 250, i % 250))
                .is_some_and(|conns| !conns.is_empty());
            assert_eq!(held, i >= 1000 - MAX_IDLE, "authority {i}");
        }
    }

    #[test]
    fn socket_idle_past_the_reaper_window_is_retired_unprobed() {
        let server = echo_server();
        let port = server.port();
        let pool = ConnectionPool::new();
        pool.call("127.0.0.1", port, Request::post("/Echo", "t", "a"))
            .unwrap();
        assert_eq!(pool.idle_count(), 1);
        // Age the idle socket (still perfectly alive server-side).
        let Some(long_ago) = Instant::now().checked_sub(MAX_IDLE_AGE + Duration::from_secs(1))
        else {
            return; // monotonic clock younger than the window
        };
        for conns in pool.idle.lock().by_authority.values_mut() {
            conns[0].idle_since = long_ago;
        }
        pool.call("127.0.0.1", port, Request::post("/Echo", "t", "b"))
            .unwrap();
        let stats = pool.stats();
        assert_eq!(stats.hits, 0, "{stats:?}");
        assert_eq!(stats.misses, 2, "{stats:?}");
        assert_eq!(stats.retired, 1, "{stats:?}");
        server.shutdown();
    }

    #[test]
    fn pooled_exchange_honours_a_short_timeout_against_a_stalled_server() {
        // The server accepts, reads and never answers: a 50 ms budget
        // must come back as an error in about that time — on a fresh
        // connection and on a pooled one whose socket carried the
        // default timeout a moment ago.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let stalled = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut chunk = [0u8; 1024];
            let _ = conn.read(&mut chunk).unwrap();
            let _ = conn.write_all(
                b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nok",
            );
            // Second request on the same (now pooled) socket: stall.
            let _ = conn.read(&mut chunk).unwrap();
            let _ = release_rx.recv();
        });
        let pool = ConnectionPool::new();
        pool.call("127.0.0.1", port, Request::get("/")).unwrap();
        let started = Instant::now();
        let err = pool
            .call_with_timeout(
                "127.0.0.1",
                port,
                Request::get("/"),
                Duration::from_millis(50),
            )
            .unwrap_err();
        let waited = started.elapsed();
        assert!(matches!(err, HttpError::Io(_)), "{err:?}");
        assert!(waited >= Duration::from_millis(50), "{waited:?}");
        assert!(waited < Duration::from_secs(5), "{waited:?}");
        let stats = pool.stats();
        assert_eq!(stats.retries, 0, "a timeout is not retried: {stats:?}");
        assert_eq!(pool.idle_count(), 0, "the stalled socket is not pooled");
        release_tx.send(()).unwrap();
        stalled.join().unwrap();
    }

    #[test]
    fn call_uri_adopts_the_uri_target() {
        let server = echo_server();
        let pool = ConnectionPool::new();
        let response = pool
            .call_uri(
                &server.service_uri("Echo"),
                Request::post("/", "t", "via uri"),
                SHORT,
            )
            .unwrap();
        assert_eq!(response.body_str(), "via uri");
        assert!(pool
            .call_uri("ftp://nope/", Request::get("/"), SHORT)
            .is_err());
        server.shutdown();
    }
}
