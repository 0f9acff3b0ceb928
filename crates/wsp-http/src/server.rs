//! The container-less HTTP server over real TCP.
//!
//! Per the paper, the server "is only launched once the application has
//! deployed a service" — [`TcpServer::launch`] is called lazily by the
//! WSPeer `Server` node on first deployment, binds an ephemeral port and
//! serves the shared [`Router`].
//!
//! There is one transport core, the readiness-driven epoll
//! [`Reactor`]: `workers + 1` identical threads, each reading, serving
//! and answering the connection the kernel hands it (at most `workers`
//! inside handlers at once). Every per-connection decision is a pure
//! [`ConnMachine`] transition with header/body/idle deadlines on the
//! reactor's timer wheel, and the server's lifecycle — admit, reject at
//! the cap, drain, stop — is the pure
//! [`DrainMachine`](crate::drain::DrainMachine). This module is the
//! shell that feeds both machines events and carries out their effects,
//! so what `wsp-check` proves about them holds for every request the
//! server can serve.

use crate::codec::{encode_response, encode_response_into, frame_len, parse_request, HeadScan};
use crate::conn::{ConnEffect, ConnEvent, ConnMachine, ConnState, Phase, TimerKind};
use crate::drain::{DrainEffect, DrainEvent, ServerState};
use crate::message::{Request, Response};
use crate::reactor::{Admit, ConnProtocol, Io, JobResult, Listener, Reactor, ReactorConfig};
use crate::router::Router;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsp_simnet::Machine;

/// Tunables for [`TcpServer`]. `Default` keeps the historical deadlines
/// (flat 10 s header/body read budgets, no connection cap).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Wall-clock budget for a connection to deliver a full request
    /// *head* (request line + headers), measured from its first byte.
    /// Breach → `408 Request Timeout` and close.
    pub header_read_deadline: Duration,
    /// Additional budget for the body once the head is complete.
    /// Breach → `408 Request Timeout` and close. Staging the two stops
    /// a drip-feeding client from holding a connection for the sum of
    /// both.
    pub body_read_deadline: Duration,
    /// Cap on concurrently served connections; accepts beyond it get an
    /// immediate `503` + `Retry-After` and are closed. `None` = no cap.
    pub max_connections: Option<usize>,
    /// How long [`TcpServer::shutdown`] waits for in-flight connections
    /// to finish before cutting off stragglers.
    pub drain_deadline: Duration,
    /// `Retry-After` hint attached to connection-cap and drain
    /// rejections (rounded up to whole seconds on the wire, with the
    /// exact value in `X-WSP-Retry-After-Ms`).
    pub retry_after: Duration,
    /// Most handlers running at once (`0` = default of 4); the reactor
    /// runs one thread more than this, so one is always free for I/O.
    pub workers: usize,
    /// Reap keep-alive connections idle longer than this. `None`
    /// (default) keeps them until the peer closes or the server drains.
    pub idle_keepalive_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            header_read_deadline: Duration::from_secs(10),
            body_read_deadline: Duration::from_secs(10),
            max_connections: None,
            drain_deadline: Duration::from_secs(5),
            retry_after: Duration::from_secs(1),
            workers: 0,
            idle_keepalive_timeout: None,
        }
    }
}

/// A running lightweight HTTP server.
pub struct TcpServer {
    addr: SocketAddr,
    router: Router,
    state: Arc<ServerState<ServerConfig>>,
    reactor: Reactor,
}

impl TcpServer {
    /// Bind `127.0.0.1:port` (0 = ephemeral) and start accepting, with
    /// default [`ServerConfig`].
    pub fn launch(port: u16, router: Router) -> std::io::Result<TcpServer> {
        TcpServer::launch_with(port, router, ServerConfig::default())
    }

    /// Bind and start accepting with explicit tunables.
    pub fn launch_with(
        port: u16,
        router: Router,
        config: ServerConfig,
    ) -> std::io::Result<TcpServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let workers = if config.workers == 0 {
            4
        } else {
            config.workers
        };
        let state = Arc::new(ServerState::new(config.max_connections, config));
        let hooks = Arc::new(HttpHooks {
            state: Arc::clone(&state),
            router: router.clone(),
        });
        let reactor = Reactor::spawn(
            vec![Listener {
                socket: listener,
                hooks,
            }],
            ReactorConfig { workers },
        )?;
        Ok(TcpServer {
            addr,
            router,
            state,
            reactor,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Base URI of a service deployed at `/name`.
    pub fn service_uri(&self, name: &str) -> String {
        format!("http://127.0.0.1:{}/{}", self.addr.port(), name)
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.state.active() as usize
    }

    /// True once [`shutdown`](TcpServer::shutdown) has begun draining.
    pub fn is_draining(&self) -> bool {
        self.state.drain_began()
    }

    /// Graceful drain: stop taking new connections (latecomers get a
    /// canned `503` + `Retry-After`), let requests already admitted run
    /// to completion with `Connection: close` on their final response,
    /// and wait up to [`ServerConfig::drain_deadline`] for the active
    /// count to reach zero. Returns `true` when every connection
    /// finished inside the deadline; on `false` the stragglers are cut
    /// off abruptly, exactly as [`shutdown_now`](TcpServer::shutdown_now)
    /// would.
    pub fn shutdown(&self) -> bool {
        let deadline = Instant::now() + self.state.config.drain_deadline;
        self.state.shutdown(&self.reactor, deadline)
    }

    /// Abrupt stop: no drain. Live connections are cut off as soon as
    /// the reactor observes the stop flag; this is the only path that
    /// drops admitted work.
    pub fn shutdown_now(&self) {
        self.state.stop(&self.reactor);
    }

    /// (schedules, cancels) the reactor's shared wheel has seen.
    #[cfg(test)]
    pub(crate) fn wheel_ops(&self) -> (u64, u64) {
        self.reactor.wheel_ops()
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.state.stop(&self.reactor);
    }
}

/// The canned `503` + `Retry-After` wire bytes for a shed connection.
fn reject_bytes(config: &ServerConfig, why: &str) -> Vec<u8> {
    let mut response = Response::unavailable(why);
    response.headers.set(
        "Retry-After",
        config.retry_after.as_secs().max(1).to_string(),
    );
    response.headers.set(
        "X-WSP-Retry-After-Ms",
        config.retry_after.as_millis().to_string(),
    );
    response.headers.set("Connection", "close");
    encode_response(&response)
}

/// Admission policy for the reactor: one `Accept` event into the drain
/// machine decides serve/reject.
struct HttpHooks {
    state: Arc<ServerState<ServerConfig>>,
    router: Router,
}

impl crate::reactor::ServerHooks for HttpHooks {
    fn on_accept(&self) -> Admit {
        match self.state.step(DrainEvent::Accept).first() {
            Some(DrainEffect::Serve) => Admit::Serve(Box::new(HttpProto::new(
                self.router.clone(),
                Arc::clone(&self.state),
            ))),
            Some(DrainEffect::RejectDraining) => {
                Admit::Reject(reject_bytes(&self.state.config, "server draining"))
            }
            Some(DrainEffect::RejectAtCapacity) => {
                Admit::Reject(reject_bytes(&self.state.config, "connection limit reached"))
            }
            // Stopped while this accept raced the flag: drop it.
            _ => Admit::Drop,
        }
    }

    fn on_conn_closed(&self) {
        let effects = self.state.step(DrainEvent::ConnClosed);
        debug_assert!(
            !effects.contains(&DrainEffect::SlotUnderflow),
            "reactor connection closed without a held slot"
        );
    }

    fn stopped(&self) -> bool {
        self.state.stopped()
    }

    fn drain_began(&self) -> bool {
        self.state.drain_began()
    }
}

/// A canned error response, always closing the connection.
fn canned_close(mut response: Response) -> Vec<u8> {
    response.headers.set("Connection", "close");
    encode_response(&response)
}

/// One HTTP connection: the byte-level shell around the
/// pure [`ConnMachine`]. Readiness happenings become [`ConnEvent`]s;
/// the returned [`ConnEffect`]s become timer/dispatch/write/close calls
/// on the reactor [`Io`].
struct HttpProto {
    router: Router,
    state: Arc<ServerState<ServerConfig>>,
    conn: ConnState,
    /// Incremental head-terminator scanner: each chunk is scanned
    /// once, so a dripped head is not O(n²).
    scan: HeadScan,
    /// Body offset of the in-progress request, once scanned.
    body_start: Option<usize>,
    /// Total frame length (head + declared body), once known.
    expected: Option<usize>,
    /// Parsed request awaiting its `Dispatch` effect.
    pending: Option<(Request, bool)>,
}

impl HttpProto {
    fn new(router: Router, state: Arc<ServerState<ServerConfig>>) -> HttpProto {
        HttpProto {
            router,
            state,
            conn: ConnMachine.initial(),
            scan: HeadScan::new(),
            body_start: None,
            expected: None,
            pending: None,
        }
    }

    fn deadline(&self, kind: TimerKind) -> Option<Duration> {
        let config = &self.state.config;
        match kind {
            TimerKind::Head => Some(config.header_read_deadline),
            TimerKind::Body => Some(config.body_read_deadline),
            TimerKind::Idle => config.idle_keepalive_timeout,
        }
    }

    /// Feed one event through the machine and execute its effects.
    fn step(&mut self, io: &mut Io<'_>, event: ConnEvent) {
        let effects = wsp_simnet::step_mut(&ConnMachine, &mut self.conn, &event);
        for effect in effects {
            match effect {
                ConnEffect::ArmTimer(kind) => {
                    if let Some(after) = self.deadline(kind) {
                        io.arm_timer(kind, after);
                    }
                }
                ConnEffect::CancelTimer(kind) => io.cancel_timer(kind),
                ConnEffect::Dispatch => {
                    let (request, client_close) = self
                        .pending
                        .take()
                        .expect("Dispatch without a parsed request");
                    let router = self.router.clone();
                    let state = Arc::clone(&self.state);
                    io.dispatch(Box::new(move || {
                        run_handler(&router, &state, request, client_close)
                    }));
                }
                ConnEffect::SendTimeout => io.queue_write(&canned_close(
                    Response::request_timeout("request read deadline exceeded"),
                )),
                ConnEffect::SendBadRequest => {
                    io.queue_write(&canned_close(Response::bad_request("unparseable request")))
                }
                // The reactor flushes whenever bytes are queued; no
                // separate kick needed.
                ConnEffect::StartWrite => {}
                ConnEffect::Close => io.close(),
            }
        }
    }

    /// Drive the parse pipeline as far as the buffered bytes allow:
    /// Idle → ReadingHead → (ReadingBody →) Handling. Also resumes
    /// pipelined requests after a response flush.
    fn pump(&mut self, io: &mut Io<'_>) {
        loop {
            match self.conn.phase {
                Phase::Idle => {
                    if io.read_buf.is_empty() {
                        return;
                    }
                    self.step(io, ConnEvent::FirstByte);
                }
                Phase::ReadingHead => {
                    if self.body_start.is_none() {
                        self.body_start = self.scan.find(io.read_buf);
                    }
                    let Some(body_start) = self.body_start else {
                        return; // head still incomplete
                    };
                    match frame_len(io.read_buf, body_start) {
                        Ok(total) => {
                            self.expected = Some(total);
                            if io.read_buf.len() >= total {
                                // Whole frame in the buffer: skip the
                                // body stage (and its timer churn).
                                if !self.finish_request(io, total) {
                                    return;
                                }
                            } else {
                                self.step(io, ConnEvent::HeadDone);
                                return;
                            }
                        }
                        Err(_) => {
                            self.step(io, ConnEvent::BadRequest);
                            return;
                        }
                    }
                }
                Phase::ReadingBody => {
                    let total = self.expected.expect("frame length set with HeadDone");
                    if io.read_buf.len() < total {
                        return;
                    }
                    if !self.finish_request(io, total) {
                        return;
                    }
                }
                // Handling / Writing: pipelined bytes wait their turn.
                _ => return,
            }
        }
    }

    /// Parse the complete frame and step `RequestDone` (true) or
    /// `BadRequest` (false).
    fn finish_request(&mut self, io: &mut Io<'_>, total: usize) -> bool {
        match parse_request(&io.read_buf[..total]) {
            Ok((request, used)) => {
                io.read_buf.drain(..used);
                self.scan.reset();
                self.body_start = None;
                self.expected = None;
                let client_close = request
                    .headers
                    .get("connection")
                    .map(|v| v.eq_ignore_ascii_case("close"))
                    .unwrap_or(false);
                self.pending = Some((request, client_close));
                self.step(io, ConnEvent::RequestDone);
                true
            }
            Err(_) => {
                self.step(io, ConnEvent::BadRequest);
                false
            }
        }
    }
}

/// Handler execution (on a reactor thread, no lock held): run the
/// router, decide the `Connection` header at encode time (drain may
/// have begun while the handler ran), serialise into a pooled buffer.
fn run_handler(
    router: &Router,
    state: &ServerState<ServerConfig>,
    request: Request,
    client_close: bool,
) -> JobResult {
    let mut response = router.handle(&request);
    let close = client_close || state.drain_began();
    response
        .headers
        .set("Connection", if close { "close" } else { "keep-alive" });
    let pool = wsp_xml::BufPool::global();
    let mut wire = pool.take();
    encode_response_into(&response, &mut wire);
    pool.put(std::mem::take(&mut response.body));
    JobResult { bytes: wire, close }
}

impl ConnProtocol for HttpProto {
    fn on_open(&mut self, io: &mut Io<'_>) {
        self.step(io, ConnEvent::Open);
        if io.draining() {
            // Admission raced the drain flag. The drain machine said
            // `Serve`, so the connection still gets its one request.
            self.step(io, ConnEvent::DrainBegan);
        }
    }

    fn on_data(&mut self, io: &mut Io<'_>) {
        self.pump(io);
    }

    fn on_eof(&mut self, io: &mut Io<'_>) {
        self.step(io, ConnEvent::Eof);
    }

    fn on_timer(&mut self, io: &mut Io<'_>, kind: TimerKind) {
        self.step(io, ConnEvent::Deadline(kind));
    }

    fn on_job_done(&mut self, io: &mut Io<'_>, result: JobResult) {
        if self.conn.closed() {
            return; // late completion for a dead connection
        }
        let silent = result.bytes.is_empty();
        io.queue_write(&result.bytes);
        wsp_xml::BufPool::global().put(result.bytes);
        self.step(
            io,
            ConnEvent::HandlerDone {
                close: result.close,
            },
        );
        if silent {
            // Nothing to write (panicked handler): the flush edge will
            // never come from the reactor, so take it now.
            self.step(io, ConnEvent::WriteFlushed);
        }
    }

    fn on_write_flushed(&mut self, io: &mut Io<'_>) {
        self.step(io, ConnEvent::WriteFlushed);
        // Back to Idle: a pipelined request may already be buffered.
        self.pump(io);
    }

    fn on_drain(&mut self, io: &mut Io<'_>) {
        self.step(io, ConnEvent::DrainBegan);
    }
}

#[cfg(test)]
mod tests {
    //! What needs this module's private parts. The loopback suites that
    //! drive a `TcpServer` from outside are in `crate::tcp`.

    use super::*;
    use crate::codec::encode_request;
    use crate::reactor::tests::{connect, wait_for};
    use crate::reactor::ServerHooks;
    use crate::tcp::{echo_router, response_then_eof};
    use std::io::Write;
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const SOCKETS: usize = 8;

    /// [`HttpHooks`] with the accepting threads under the test's
    /// control, to stage what a loaded machine does once in a while:
    /// connections admitted, their requests already in the socket, and
    /// the drain broadcast reaching them before their first read.
    struct StagedHooks {
        inner: HttpHooks,
        accepts: AtomicUsize,
        /// The first accept parks its thread here until the test is
        /// over, so the other reactor thread takes every event in order.
        pit: parking_lot::Mutex<()>,
        /// The second accept waits here while the test lines up the
        /// sockets and queues the wake-up ahead of their readiness.
        hold: parking_lot::Mutex<()>,
    }

    impl ServerHooks for StagedHooks {
        fn on_accept(&self) -> Admit {
            let admit = self.inner.on_accept();
            match self.accepts.fetch_add(1, Ordering::SeqCst) {
                0 => drop(self.pit.lock()),
                1 => drop(self.hold.lock()),
                // The last of the lined-up sockets is admitted: drain,
                // before this thread can get back to epoll and read any.
                n if n == 1 + SOCKETS => {
                    self.inner.state.step(DrainEvent::BeginDrain);
                }
                _ => {}
            }
            admit
        }
        fn on_conn_closed(&self) {
            self.inner.on_conn_closed()
        }
        fn stopped(&self) -> bool {
            self.inner.stopped()
        }
        fn drain_began(&self) -> bool {
            self.inner.drain_began()
        }
    }

    #[test]
    fn drain_begun_before_the_first_read_still_serves_every_admitted_connection() {
        let state = Arc::new(ServerState::new(None, ServerConfig::default()));
        let hooks = Arc::new(StagedHooks {
            inner: HttpHooks {
                state: Arc::clone(&state),
                router: echo_router(),
            },
            accepts: AtomicUsize::new(0),
            pit: parking_lot::Mutex::new(()),
            hold: parking_lot::Mutex::new(()),
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let reactor = Reactor::spawn(
            vec![Listener {
                socket: listener,
                hooks: Arc::clone(&hooks) as Arc<dyn ServerHooks>,
            }],
            ReactorConfig { workers: 1 },
        )
        .unwrap();
        // One of the two reactor threads parks in the pit, the other in
        // the hold; neither decoy ever sends a byte.
        let pit = hooks.pit.lock();
        let hold = hooks.hold.lock();
        let decoys = [connect(port), connect(port)];
        wait_for("both reactor threads to be parked", || {
            hooks.accepts.load(Ordering::SeqCst) == 2
        });
        let mut sockets: Vec<TcpStream> = (0..SOCKETS)
            .map(|i| {
                let mut stream = connect(port);
                let body = format!("request {i}");
                stream
                    .write_all(&encode_request(&Request::post("/Echo", "text/plain", body)))
                    .unwrap();
                stream
            })
            .collect();
        // Queued now, so it is taken before the readiness of sockets
        // that are not even accepted yet.
        reactor.wake();
        drop(hold);

        for (i, stream) in sockets.iter_mut().enumerate() {
            let response = response_then_eof(stream);
            assert_eq!(response.body_str(), format!("request {i}"));
            assert_eq!(response.headers.get("connection"), Some("close"));
        }
        // The decoys were admitted too and never spoke: EOF ends them.
        drop(decoys);
        drop(pit);
        wait_for("every slot to be released", || state.active() == 0);
        state.stop(&reactor);
    }
}
