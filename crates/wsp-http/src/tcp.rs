//! Real-TCP driver: the container-less HTTP server and a blocking
//! client, over `std::net`.
//!
//! Per the paper, the server "is only launched once the application has
//! deployed a service" — [`TcpServer::launch`] is called lazily by the
//! WSPeer `Server` node on first deployment, binds an ephemeral port and
//! serves the shared [`Router`].
//!
//! Two transport cores sit behind one `TcpServer` API:
//!
//! * [`ServerMode::Reactor`] (default) — the readiness-driven epoll
//!   core ([`crate::reactor`]): `workers + 1` identical threads, each
//!   reading, serving and answering the connection the kernel hands it
//!   (at most `workers` inside handlers at once), and every
//!   per-connection decision is a pure [`ConnMachine`] transition with
//!   header/body/idle deadlines on the shared [`EventWheel`]. They
//!   serve tens of thousands of keep-alive connections (experiment
//!   E15).
//! * [`ServerMode::Threaded`] — the historical thread-per-connection
//!   core, kept as the E15 A/B baseline and as a fallback.
//!
//! Both cores share the [`DrainMachine`] lifecycle, the codec, and the
//! `Router`, so overload/drain behaviour (E11) is identical.

use crate::codec::{
    encode_request_into, encode_response, encode_response_into, frame_len, parse_request,
    parse_response, HeadScan, HttpError,
};
use crate::conn::{ConnEffect, ConnEvent, ConnMachine, ConnState, Phase, TimerKind};
use crate::drain::{DrainEffect, DrainEvent, DrainMachine, DrainState};
use crate::message::{Request, Response};
use crate::reactor::{sys, Admit, ConnProtocol, Io, JobResult, Listener, Reactor, ReactorConfig};
use crate::router::Router;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wsp_simnet::Machine;

/// Which transport core serves the connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerMode {
    /// Readiness-driven epoll reactor, run-to-completion threads
    /// (default).
    Reactor,
    /// One blocking thread per connection (the pre-reactor core; the
    /// E15 baseline).
    Threaded,
}

/// Tunables for [`TcpServer`]. `Default` keeps the historical deadlines
/// (flat 10 s header/body read budgets, no connection cap) on the
/// reactor core.
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
    /// Threaded mode only: per-`read(2)` socket timeout bounding how
    /// long a connection thread goes without observing the stop/drain
    /// flags. The reactor observes them via its waker instead.
    pub read_poll: Duration,
    /// Threaded mode only: sleep between polls of the non-blocking
    /// listener. The reactor's listener is readiness-driven.
    pub accept_poll: Duration,
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
    /// Transport core.
    pub mode: ServerMode,
    /// Reactor mode: most handlers running at once (`0` = default of
    /// 4); the reactor runs one thread more than this, so one is always
    /// free for I/O.
    pub workers: usize,
    /// Reactor mode: reap keep-alive connections idle longer than
    /// this. `None` (default) keeps them until the peer closes or the
    /// server drains, matching the threaded core.
    pub idle_keepalive_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            header_read_deadline: Duration::from_secs(10),
            body_read_deadline: Duration::from_secs(10),
            read_poll: Duration::from_millis(250),
            accept_poll: Duration::from_millis(2),
            max_connections: None,
            drain_deadline: Duration::from_secs(5),
            retry_after: Duration::from_secs(1),
            mode: ServerMode::Reactor,
            workers: 0,
            idle_keepalive_timeout: None,
        }
    }
}

/// Shared between the handle, the accept loop and connection threads.
///
/// All lifecycle and slot accounting lives in the pure
/// [`DrainMachine`] ([`crate::drain`]); this shell feeds it events
/// (accepts, connection exits, drain, stop) and executes the returned
/// effects. Flag reads (`stopped`, drain latch, active count) are
/// uncontended `Mutex` peeks on poll paths that tick at millisecond
/// cadence, so the machine costs nothing observable.
struct ServerState {
    config: ServerConfig,
    machine: DrainMachine,
    drain: parking_lot::Mutex<DrainState>,
    /// Signalled on every drain-machine step, so
    /// [`TcpServer::shutdown`] can sleep on connection-count changes
    /// instead of busy-polling.
    cv: parking_lot::Condvar,
}

impl ServerState {
    fn step(&self, event: DrainEvent) -> Vec<DrainEffect> {
        let mut drain = self.drain.lock();
        let effects = wsp_simnet::step_mut(&self.machine, &mut drain, &event);
        self.cv.notify_all();
        effects
    }

    /// Hard stop observed: accept loop exits, connection threads bail
    /// at the next read poll even mid-keep-alive.
    fn stopped(&self) -> bool {
        self.drain.lock().stopped()
    }

    /// Graceful drain observed (latched): new connections are
    /// rejected, idle keep-alive connections close, requests already
    /// being read or handled run to completion (their response carries
    /// `Connection: close`).
    fn drain_began(&self) -> bool {
        self.drain.lock().drain_began()
    }

    /// Live connection threads (accepted, not yet finished).
    fn active(&self) -> u64 {
        self.drain.lock().active
    }
}

/// Releases the connection's slot when its thread exits, panic
/// included, so drain accounting can never leak a slot.
struct ActiveGuard(Arc<ServerState>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        let effects = self.0.step(DrainEvent::ConnClosed);
        debug_assert!(
            !effects.contains(&DrainEffect::SlotUnderflow),
            "connection closed without a held slot"
        );
    }
}

/// The running transport core behind a [`TcpServer`].
enum Runtime {
    Threaded(parking_lot::Mutex<Option<JoinHandle<()>>>),
    Reactor(Reactor),
}

/// A running lightweight HTTP server.
pub struct TcpServer {
    addr: SocketAddr,
    router: Router,
    state: Arc<ServerState>,
    runtime: Runtime,
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
        listener.set_nonblocking(true)?;
        let mode = config.mode;
        let workers = if config.workers == 0 {
            4
        } else {
            config.workers
        };
        let machine = DrainMachine {
            max_connections: config.max_connections.map(|cap| cap as u64),
        };
        let state = Arc::new(ServerState {
            config,
            drain: parking_lot::Mutex::new(machine.initial()),
            machine,
            cv: parking_lot::Condvar::new(),
        });
        let runtime = match mode {
            ServerMode::Reactor => {
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
                Runtime::Reactor(reactor)
            }
            ServerMode::Threaded => {
                let accept_state = state.clone();
                let accept_router = router.clone();
                let accept_thread = std::thread::Builder::new()
                    .name(format!("wsp-http-{}", addr.port()))
                    .spawn(move || accept_loop(listener, accept_router, accept_state))
                    .expect("spawn accept thread");
                Runtime::Threaded(parking_lot::Mutex::new(Some(accept_thread)))
            }
        };
        Ok(TcpServer {
            addr,
            router,
            state,
            runtime,
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
        self.state.step(DrainEvent::BeginDrain);
        // Reactor mode: wake the loop so idle keep-alive connections
        // observe the drain now, not at their next readiness event.
        if let Runtime::Reactor(reactor) = &self.runtime {
            reactor.wake();
        }
        // Sleep on the drain condvar (signalled by every ConnClosed)
        // instead of spinning on 1 ms polls.
        let deadline = Instant::now() + self.state.config.drain_deadline;
        let drained = {
            let mut drain = self.state.drain.lock();
            loop {
                if drain.active == 0 {
                    break true;
                }
                let now = Instant::now();
                if now >= deadline {
                    break false;
                }
                self.state.cv.wait_for(&mut drain, deadline - now);
            }
        };
        self.stop_accepting();
        drained
    }

    /// Abrupt stop: no drain. Live connections are cut off as soon as
    /// the core observes the stop flag (immediately in reactor mode,
    /// within one read poll in threaded mode); this is the only path
    /// that drops admitted work.
    pub fn shutdown_now(&self) {
        self.stop_accepting();
    }

    fn stop_accepting(&self) {
        // StopListening is the join below; a second Stop is a no-op and
        // returns no effects, so re-entry (shutdown → Drop) is safe.
        self.state.step(DrainEvent::Stop);
        match &self.runtime {
            Runtime::Threaded(thread) => {
                if let Some(handle) = thread.lock().take() {
                    let _ = handle.join();
                }
            }
            Runtime::Reactor(reactor) => {
                reactor.wake();
                reactor.join();
            }
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.stop_accepting();
    }
}

#[cfg(test)]
impl TcpServer {
    /// (schedules, cancels) the reactor's shared wheel has seen.
    fn wheel_ops(&self) -> (u64, u64) {
        match &self.runtime {
            Runtime::Reactor(reactor) => reactor.wheel_ops(),
            Runtime::Threaded(_) => (0, 0),
        }
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

/// Tell a client we will not serve it right now: a canned `503` with
/// `Retry-After`, then close. Written under a short timeout so a slow
/// reader cannot stall the accept loop (threaded mode; the reactor
/// writes rejections under readiness like any other connection).
fn reject_connection(stream: &mut TcpStream, config: &ServerConfig, why: &str) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let _ = stream.write_all(&reject_bytes(config, why));
}

/// Admission policy for the reactor core: one `Accept` event into the
/// drain machine decides serve/reject, exactly as the threaded accept
/// loop does.
struct HttpHooks {
    state: Arc<ServerState>,
    router: Router,
}

impl crate::reactor::ServerHooks for HttpHooks {
    fn on_accept(&self) -> Admit {
        match self.state.step(DrainEvent::Accept).first() {
            Some(DrainEffect::Serve) => Admit::Serve {
                proto: Box::new(HttpProto::new(self.router.clone(), Arc::clone(&self.state))),
                counted: true,
            },
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

/// One reactor-served HTTP connection: the byte-level shell around the
/// pure [`ConnMachine`]. Readiness happenings become [`ConnEvent`]s;
/// the returned [`ConnEffect`]s become timer/dispatch/write/close calls
/// on the reactor [`Io`].
struct HttpProto {
    router: Router,
    state: Arc<ServerState>,
    conn: ConnState,
    /// Incremental head-terminator scanner (satellite: the old
    /// whole-buffer rescan made dripped headers O(n²)).
    scan: HeadScan,
    /// Body offset of the in-progress request, once scanned.
    body_start: Option<usize>,
    /// Total frame length (head + declared body), once known.
    expected: Option<usize>,
    /// Parsed request awaiting its `Dispatch` effect.
    pending: Option<(Request, bool)>,
}

impl HttpProto {
    fn new(router: Router, state: Arc<ServerState>) -> HttpProto {
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
    state: &ServerState,
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
            // Admission raced the drain flag: close like an idle conn.
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

fn accept_loop(listener: TcpListener, router: Router, state: Arc<ServerState>) {
    while !state.stopped() {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                // One Accept event: the machine decides admit vs reject
                // and, on admit, has already counted the slot.
                match state.step(DrainEvent::Accept).first() {
                    Some(DrainEffect::Serve) => {}
                    Some(DrainEffect::RejectDraining) => {
                        reject_connection(&mut stream, &state.config, "server draining");
                        continue;
                    }
                    Some(DrainEffect::RejectAtCapacity) => {
                        reject_connection(&mut stream, &state.config, "connection limit reached");
                        continue;
                    }
                    // Stopped while this accept raced the flag: drop it.
                    _ => continue,
                }
                let guard = ActiveGuard(state.clone());
                let conn_router = router.clone();
                // Connection threads are detached but observe the
                // stop/drain flags, so server shutdown closes live
                // connections. Thread-per-connection is fine at the
                // scales WSPeer hosts (the paper's host is not a web
                // farm), and the `max_connections` cap bounds it.
                // A failed spawn drops the guard, releasing the slot.
                let _ = std::thread::Builder::new()
                    .name("wsp-http-conn".into())
                    .spawn(move || {
                        let _active = guard;
                        serve_connection(stream, conn_router, &_active.0)
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(state.config.accept_poll);
            }
            Err(_) => break,
        }
    }
}

fn serve_connection(mut stream: TcpStream, router: Router, state: &ServerState) {
    let config = &state.config;
    // Short read timeout so the loop can observe the stop/drain flags
    // between reads; idle keep-alive connections die with the server.
    let _ = stream.set_read_timeout(Some(config.read_poll));
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    // Keep-alive loop: serve requests on this connection until the
    // client asks to close (or goes away / times out / we drain).
    loop {
        // Staged slow-client deadlines: the clock starts at the first
        // byte of each request (an idle keep-alive connection is not on
        // the clock), the head must land within `header_read_deadline`,
        // and the body gets a separate `body_read_deadline` from the
        // moment the head completes.
        let mut started: Option<Instant> = if buf.is_empty() {
            None
        } else {
            Some(Instant::now())
        };
        let mut head_done: Option<Instant> = None;
        // Incremental terminator scan: each new chunk is scanned once,
        // resuming where the last scan stopped, instead of rescanning
        // the whole buffer per read (quadratic on dripped headers).
        let mut scan = HeadScan::new();
        let mut frame: Option<usize> = None;
        let (request, used) = loop {
            if state.stopped() {
                return;
            }
            if started.is_none() && state.drain_began() {
                return; // draining and no request in flight: close now
            }
            if frame.is_none() {
                if let Some(body_start) = scan.find(&buf) {
                    if head_done.is_none() {
                        head_done = Some(Instant::now());
                    }
                    match frame_len(&buf, body_start) {
                        Ok(total) => frame = Some(total),
                        Err(_) => {
                            let _ = stream.write_all(&encode_response(&Response::bad_request(
                                "unparseable request",
                            )));
                            return;
                        }
                    }
                }
            }
            if let Some(total) = frame {
                if buf.len() >= total {
                    match parse_request(&buf[..total]) {
                        Ok(parsed) => break parsed,
                        Err(_) => {
                            let _ = stream.write_all(&encode_response(&Response::bad_request(
                                "unparseable request",
                            )));
                            return;
                        }
                    }
                }
            }
            if let Some(first_byte) = started {
                let (stage_start, budget) = match head_done {
                    Some(at) => (at, config.body_read_deadline),
                    None => (first_byte, config.header_read_deadline),
                };
                if stage_start.elapsed() >= budget {
                    let _ = stream.write_all(&encode_response(&Response::request_timeout(
                        "request read deadline exceeded",
                    )));
                    return;
                }
            }
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) => return, // peer went away
                Ok(n) => {
                    if started.is_none() {
                        started = Some(Instant::now());
                    }
                    buf.extend_from_slice(&chunk[..n]);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue; // idle: re-check the flags
                }
                Err(_) => return,
            }
        };
        buf.drain(..used);
        let client_close = request
            .headers
            .get("connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false);
        let mut response = router.handle(&request);
        // Re-check drain *after* handling: a drain that began while this
        // request ran still closes the connection behind its response.
        let close = client_close || state.drain_began();
        response
            .headers
            .set("Connection", if close { "close" } else { "keep-alive" });
        // Serialise into a pooled buffer, then hand both it and the
        // response body (often itself pool-born, via the SOAP handlers)
        // back for the next request on any connection.
        let pool = wsp_xml::BufPool::global();
        let mut wire = pool.take();
        encode_response_into(&response, &mut wire);
        let wrote = stream.write_all(&wire).is_ok();
        pool.put(wire);
        pool.put(std::mem::take(&mut response.body));
        if !wrote {
            return;
        }
        let _ = stream.flush();
        if close {
            return;
        }
    }
}

/// Default client-side read timeout for one-shot calls and pooled
/// exchanges, matching the historical hard-coded 10 s.
pub const DEFAULT_CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// Issue one blocking request to `host:port`. Opens a fresh connection
/// per call (`Connection: close` semantics).
///
/// This is the connection-per-call primitive: the bench ladder, the E7
/// ablation and the overload tests call it to price or provoke exactly
/// that. Everything that talks HTTP in production goes through a
/// [`ConnectionPool`].
pub fn http_call(host: &str, port: u16, request: Request) -> Result<Response, HttpError> {
    http_call_with_timeout(host, port, request, DEFAULT_CLIENT_TIMEOUT)
}

/// [`http_call`] with an explicit read timeout: a request that says
/// `Connection: close`, through a pool that never gets to keep anything.
pub fn http_call_with_timeout(
    host: &str,
    port: u16,
    mut request: Request,
    timeout: Duration,
) -> Result<Response, HttpError> {
    request.headers.set("Connection", "close");
    ConnectionPool::new().call_with_timeout(host, port, request, timeout)
}

/// Read one complete response frame from `stream` into `buf` (straight
/// into its spare capacity), scanning each chunk for the head
/// terminator exactly once. Returns the frame length.
fn read_frame(stream: &TcpStream, buf: &mut Vec<u8>) -> Result<usize, ExchangeError> {
    let fd = stream.as_raw_fd();
    let mut scan = HeadScan::new();
    let mut frame: Option<usize> = None;
    loop {
        if frame.is_none() {
            if let Some(body_start) = scan.find(buf) {
                frame = Some(frame_len(buf, body_start).map_err(ExchangeError::Fatal)?);
            }
        }
        match frame {
            Some(total) if buf.len() >= total => return Ok(total),
            Some(total) => buf.reserve(total - buf.len()),
            None => buf.reserve(READ_CHUNK),
        }
        match sys::read_into_spare(fd, buf) {
            // Clean EOF before any response byte: the socket was
            // already closed server-side.
            Ok(0) if buf.is_empty() => {
                return Err(ExchangeError::Retriable(HttpError::Incomplete));
            }
            Ok(0) => return Err(ExchangeError::Fatal(HttpError::Incomplete)),
            Ok(_) => {}
            Err(e) if buf.is_empty() && is_stale_socket_error(&e) => {
                return Err(ExchangeError::Retriable(HttpError::Io(e.to_string())));
            }
            // Mid-response failures and timeouts are not provably
            // pre-execution; surface them.
            Err(e) => return Err(ExchangeError::Fatal(HttpError::Io(e.to_string()))),
        }
    }
}

/// Room reserved for a read while the frame length is still unknown.
const READ_CHUNK: usize = 4096;

/// Issue one request to an absolute `http://` URI.
pub fn http_call_uri(uri: &str, mut request: Request) -> Result<Response, HttpError> {
    let parsed = adopt_uri_target(uri, &mut request)?;
    http_call(&parsed.host, parsed.port, request)
}

/// Parse `uri` and, when `request` names no target of its own, point it
/// at the URI's path and query.
fn adopt_uri_target(uri: &str, request: &mut Request) -> Result<crate::uri::HttpUri, HttpError> {
    let mut parsed =
        crate::uri::HttpUri::parse(uri).map_err(|e| HttpError::Connect(e.to_string()))?;
    if request.target == "/" || request.target.is_empty() {
        request.target = std::mem::take(&mut parsed.target);
    }
    Ok(parsed)
}

/// Counter snapshot of a [`ConnectionPool`] (see
/// [`ConnectionPool::stats`]). All counts are since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Calls served over a reused pooled connection.
    pub hits: u64,
    /// Calls that had to open a fresh connection.
    pub misses: u64,
    /// Pooled connections dropped instead of being reused: found dead
    /// or too long idle, answered `Connection: close`, failed
    /// mid-exchange, or evicted to keep the pool under its cap.
    pub retired: u64,
    /// Calls retried once on a fresh connection after a pooled one
    /// failed mid-exchange.
    pub retries: u64,
}

/// Most idle sockets a pool keeps, all authorities together. Authorities
/// come from registry-supplied access points, so the pool must not grow
/// with every one ever called; the cap is far above the concurrency of
/// any one caller in this workspace (reactor workers, E17's clients), so
/// a steady caller never churns.
const MAX_IDLE: usize = 64;

/// A socket idle for longer than this is retired on `take` without being
/// probed: it outlived any idle reaper a server is likely to run
/// ([`ServerConfig::idle_keepalive_timeout`]), and the request it would
/// carry is better spent on a fresh connection than on finding out.
const MAX_IDLE_AGE: Duration = Duration::from_secs(30);

/// One pooled socket.
struct PooledConn {
    stream: TcpStream,
    /// The read timeout the socket currently carries, so an exchange
    /// with the same budget skips the `setsockopt`.
    read_timeout: Option<Duration>,
    idle_since: Instant,
}

#[derive(Default)]
struct IdleSet {
    /// Idle sockets per authority, oldest first. An entry may be empty
    /// while its sockets are in use; empty entries are swept whenever a
    /// new authority arrives at a full map, so `len() <= MAX_IDLE`.
    by_authority: std::collections::HashMap<String, Vec<PooledConn>>,
    /// Idle sockets across all authorities, `<= MAX_IDLE`.
    total: usize,
}

impl IdleSet {
    /// Drop the socket that has been idle longest.
    fn evict_oldest(&mut self) {
        let oldest = self
            .by_authority
            .iter_mut()
            .filter(|(_, conns)| !conns.is_empty())
            .min_by_key(|(_, conns)| conns[0].idle_since);
        if let Some((_, conns)) = oldest {
            conns.remove(0);
            self.total -= 1;
        }
    }
}

/// A keep-alive connection pool: reuses TCP connections per authority,
/// falling back to a fresh connection when a pooled one has gone stale.
/// Every HTTP caller inside the workspace goes through one — the
/// binding, the registry transport and the gateway's backend hop.
///
/// A connection is never reused after the server replied
/// `Connection: close`, and a pooled socket that died while idle (the
/// peer closed or reset it) is detected by a non-blocking peek and
/// retired before any request bytes are written to it. A pooled
/// connection that fails *mid-exchange* gets exactly one retry on a
/// fresh connection. The pool holds at most [`MAX_IDLE`] idle sockets
/// (oldest evicted first) and retires any idle past [`MAX_IDLE_AGE`].
#[derive(Default)]
pub struct ConnectionPool {
    idle: parking_lot::Mutex<IdleSet>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
    retired: std::sync::atomic::AtomicU64,
    retries: std::sync::atomic::AtomicU64,
}

impl ConnectionPool {
    pub fn new() -> Self {
        ConnectionPool::default()
    }

    /// Number of idle pooled connections (all hosts).
    pub fn idle_count(&self) -> usize {
        self.idle.lock().total
    }

    /// Hit/miss/retire/retry counters.
    pub fn stats(&self) -> PoolStats {
        use std::sync::atomic::Ordering::Relaxed;
        PoolStats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            retired: self.retired.load(Relaxed),
            retries: self.retries.load(Relaxed),
        }
    }

    fn retire(&self) {
        self.retired
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Pop pooled connections, newest first, until one is young enough
    /// and passes the liveness probe; the rest are retired.
    fn take(&self, authority: &str) -> Option<PooledConn> {
        loop {
            let candidate = {
                let mut idle = self.idle.lock();
                let conn = idle.by_authority.get_mut(authority)?.pop()?;
                idle.total -= 1;
                conn
            };
            if candidate.idle_since.elapsed() <= MAX_IDLE_AGE
                && sys::socket_is_quiet(candidate.stream.as_raw_fd())
            {
                return Some(candidate);
            }
            self.retire();
        }
    }

    fn put(&self, authority: &str, mut conn: PooledConn) {
        conn.idle_since = Instant::now();
        let mut idle = self.idle.lock();
        if idle.total >= MAX_IDLE {
            idle.evict_oldest();
            self.retire();
        }
        idle.total += 1;
        if let Some(conns) = idle.by_authority.get_mut(authority) {
            conns.push(conn);
            return;
        }
        if idle.by_authority.len() >= MAX_IDLE {
            idle.by_authority.retain(|_, conns| !conns.is_empty());
        }
        idle.by_authority.insert(authority.to_owned(), vec![conn]);
    }

    /// Issue a request over a pooled (or fresh) keep-alive connection,
    /// waiting up to [`DEFAULT_CLIENT_TIMEOUT`] for each read.
    pub fn call(&self, host: &str, port: u16, request: Request) -> Result<Response, HttpError> {
        self.call_with_timeout(host, port, request, DEFAULT_CLIENT_TIMEOUT)
    }

    /// [`call`](Self::call) to an absolute `http://` URI, with the
    /// caller's read timeout.
    pub fn call_uri(
        &self,
        uri: &str,
        mut request: Request,
        timeout: Duration,
    ) -> Result<Response, HttpError> {
        let parsed = adopt_uri_target(uri, &mut request)?;
        self.call_with_timeout(&parsed.host, parsed.port, request, timeout)
    }

    /// [`call`](Self::call) with an explicit read timeout — callers
    /// propagating a deadline cap the wait at their remaining budget.
    ///
    /// A request that already says `Connection: close` is honoured: it
    /// goes out on a fresh connection that is not pooled afterwards
    /// (connection-per-call through the same exchange code).
    pub fn call_with_timeout(
        &self,
        host: &str,
        port: u16,
        mut request: Request,
        timeout: Duration,
    ) -> Result<Response, HttpError> {
        use std::sync::atomic::Ordering::Relaxed;
        let one_shot = request
            .headers
            .get("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"));
        if !one_shot {
            request.headers.set("Connection", "keep-alive");
        }
        let authority = format!("{host}:{port}");
        request.headers.set("Host", authority.as_str());
        let timeout = timeout.max(Duration::from_millis(1));
        // A pooled connection may die between the liveness probe and
        // the exchange (the race is unavoidable). Retry exactly once on
        // a fresh connection — but only when the failure provably
        // happened *before any response byte arrived* (stale-socket
        // class). Once the server has started answering it may already
        // have executed the request, and resending would duplicate a
        // possibly non-idempotent call: those failures surface instead.
        let pooled = if one_shot {
            None
        } else {
            self.take(&authority)
        };
        if let Some(conn) = pooled {
            match self.exchange(conn, &authority, &request, timeout) {
                Ok(response) => {
                    self.hits.fetch_add(1, Relaxed);
                    return Ok(response);
                }
                Err(ExchangeError::Retriable(_)) => {
                    self.retire();
                    self.retries.fetch_add(1, Relaxed);
                }
                Err(ExchangeError::Fatal(e)) => {
                    self.retire();
                    return Err(e);
                }
            }
        }
        self.misses.fetch_add(1, Relaxed);
        let stream =
            TcpStream::connect((host, port)).map_err(|e| HttpError::Connect(e.to_string()))?;
        let fresh = PooledConn {
            stream,
            read_timeout: None,
            idle_since: Instant::now(),
        };
        self.exchange(fresh, &authority, &request, timeout)
            .map_err(ExchangeError::into_inner)
    }

    /// One request/response over `conn`; on success the connection goes
    /// back to the pool unless the response forbids reuse. One pooled
    /// buffer carries the request out and the response in.
    fn exchange(
        &self,
        mut conn: PooledConn,
        authority: &str,
        request: &Request,
        timeout: Duration,
    ) -> Result<Response, ExchangeError> {
        if conn.read_timeout != Some(timeout) {
            conn.stream
                .set_read_timeout(Some(timeout))
                .map_err(|e| ExchangeError::Fatal(HttpError::Io(e.to_string())))?;
            conn.read_timeout = Some(timeout);
        }
        let buf_pool = wsp_xml::BufPool::global();
        let mut buf = buf_pool.take();
        encode_request_into(request, &mut buf);
        // A write failure means the server never got the full request:
        // always safe to retry on a fresh connection.
        let result = match conn.stream.write_all(&buf) {
            Err(e) => Err(ExchangeError::Retriable(HttpError::Io(e.to_string()))),
            Ok(()) => {
                buf.clear();
                read_frame(&conn.stream, &mut buf).and_then(|total| {
                    let (response, _) =
                        parse_response(&buf[..total]).map_err(ExchangeError::Fatal)?;
                    if may_reuse(&buf, &response) {
                        self.put(authority, conn);
                    } else {
                        self.retire();
                    }
                    Ok(response)
                })
            }
        };
        buf_pool.put(buf);
        result
    }
}

/// May the connection that carried `response` (wire bytes `raw`) carry
/// another exchange? HTTP/1.1 defaults to persistent connections: an
/// absent `Connection` header means reuse unless the peer speaks
/// HTTP/1.0 (whose default is close). Explicit `close` — or any
/// unrecognised token — forbids it.
fn may_reuse(raw: &[u8], response: &Response) -> bool {
    match response.headers.get("connection") {
        Some(v) => v.eq_ignore_ascii_case("keep-alive"),
        None => !raw.starts_with(b"HTTP/1.0"),
    }
}

/// A client-exchange failure, split by whether a retry on a fresh
/// connection could duplicate server-side work.
#[derive(Debug)]
enum ExchangeError {
    /// The request provably never reached handler execution (write
    /// error, or EOF/reset before the first response byte).
    Retriable(HttpError),
    /// Anything after the first response byte — or a timeout, where the
    /// request may still be executing.
    Fatal(HttpError),
}

impl ExchangeError {
    fn into_inner(self) -> HttpError {
        match self {
            ExchangeError::Retriable(e) | ExchangeError::Fatal(e) => e,
        }
    }
}

/// Error kinds that mean the pooled socket died while idle — the
/// request never made it to the server.
fn is_stale_socket_error(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::UnexpectedEof
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Method;
    use std::sync::atomic::Ordering;

    fn test_server() -> TcpServer {
        let router = Router::new();
        router.deploy(
            "Echo",
            Arc::new(|req: &Request| Response::ok("text/plain", req.body.clone())),
        );
        TcpServer::launch(0, router).expect("launch server")
    }

    #[test]
    fn round_trip_over_loopback() {
        let server = test_server();
        let request = Request::post("/Echo", "text/plain", "over the wire");
        let response = http_call("127.0.0.1", server.port(), request).unwrap();
        assert!(response.is_success());
        assert_eq!(response.body_str(), "over the wire");
        server.shutdown();
    }

    #[test]
    fn listing_and_404() {
        let server = test_server();
        let listing = http_call("127.0.0.1", server.port(), Request::get("/")).unwrap();
        assert_eq!(listing.body_str(), "Echo");
        let missing = http_call("127.0.0.1", server.port(), Request::get("/Nope")).unwrap();
        assert_eq!(missing.status, 404);
        server.shutdown();
    }

    #[test]
    fn dynamic_deploy_visible_without_restart() {
        let server = test_server();
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
        let server = test_server();
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
        let router = Router::new();
        router.deploy(
            "Slow",
            Arc::new(|_req: &Request| {
                std::thread::sleep(Duration::from_millis(300));
                Response::ok("text/plain", "done")
            }),
        );
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
        let router = Router::new();
        router.deploy(
            "Slow",
            Arc::new(|_req: &Request| {
                std::thread::sleep(Duration::from_millis(200));
                Response::ok("text/plain", "finished")
            }),
        );
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
        let router = Router::new();
        router.deploy(
            "Echo",
            Arc::new(|req: &Request| Response::ok("text/plain", req.body.clone())),
        );
        let config = ServerConfig {
            header_read_deadline: Duration::from_millis(100),
            read_poll: Duration::from_millis(10),
            ..ServerConfig::default()
        };
        let server = TcpServer::launch_with(0, router, config).unwrap();
        let mut stream = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
        // Drip half a request line and stall: the head never completes.
        stream.write_all(b"GET /Ec").unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(_) => break,
            }
        }
        let (response, _) = parse_response(&buf).expect("server answered before closing");
        assert_eq!(response.status, 408);
        server.shutdown();
    }

    #[test]
    fn slow_body_gets_408_on_body_deadline() {
        let router = Router::new();
        router.deploy(
            "Echo",
            Arc::new(|req: &Request| Response::ok("text/plain", req.body.clone())),
        );
        let config = ServerConfig {
            header_read_deadline: Duration::from_secs(5),
            body_read_deadline: Duration::from_millis(100),
            read_poll: Duration::from_millis(10),
            ..ServerConfig::default()
        };
        let server = TcpServer::launch_with(0, router, config).unwrap();
        let mut stream = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
        // Complete head promising a body that never arrives in full.
        stream
            .write_all(b"POST /Echo HTTP/1.1\r\nContent-Length: 100\r\n\r\npartial")
            .unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(_) => break,
            }
        }
        let (response, _) = parse_response(&buf).expect("server answered before closing");
        assert_eq!(response.status, 408);
        server.shutdown();
    }

    #[test]
    fn shutdown_now_cuts_off_without_drain() {
        let server = test_server();
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
        let server = test_server();
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
        let server = test_server();
        let mut stream = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
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
        let mut slow = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
        slow.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
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
        let router = Router::new();
        router.deploy(
            "Slow",
            Arc::new(|_req: &Request| {
                std::thread::sleep(Duration::from_millis(150));
                Response::ok("text/plain", "done")
            }),
        );
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

#[cfg(test)]
mod reactor_seam_tests {
    //! The seams of the run-to-completion reactor as HTTP sees them:
    //! what must keep working while every handler permit is taken, and
    //! what a whole-frame request may cost the shared timer wheel.

    use super::*;
    use crate::codec::encode_request;
    use crate::reactor::tests::wait_for;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    fn connect(server: &TcpServer) -> TcpStream {
        let stream = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
    }

    /// Read until the peer closes; parse the one response before it.
    fn response_then_eof(stream: &mut TcpStream) -> Response {
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).expect("response then close");
        let (response, used) = parse_response(&raw).expect("a full response");
        assert_eq!(used, raw.len(), "exactly one response");
        response
    }

    /// `/Park` holds its handler until the returned sender is dropped
    /// (or sent to); `entered` counts handlers inside.
    fn parking_router() -> (Router, mpsc::Sender<()>, Arc<AtomicUsize>) {
        let router = Router::new();
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
        router.deploy(
            "Echo",
            Arc::new(|req: &Request| Response::ok("text/plain", req.body.clone())),
        );
        (router, release, entered)
    }

    #[test]
    fn edges_are_served_while_every_handler_is_parked() {
        let (router, release, entered) = parking_router();
        let server = Arc::new(
            TcpServer::launch_with(
                0,
                router,
                ServerConfig {
                    workers: 2,
                    max_connections: Some(4),
                    header_read_deadline: Duration::from_millis(100),
                    ..ServerConfig::default()
                },
            )
            .unwrap(),
        );
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
        assert_eq!(response_then_eof(&mut garbage).status, 400);

        // A dripped head gets its 408 on time.
        let mut slow = connect(&server);
        let dripped_at = Instant::now();
        slow.write_all(b"GET /Ec").unwrap();
        assert_eq!(response_then_eof(&mut slow).status, 408);
        let took = dripped_at.elapsed();
        assert!(
            took >= Duration::from_millis(100) && took < Duration::from_secs(2),
            "408 after {took:?}, deadline 100 ms"
        );
        wait_for("the two short connections to be released", || {
            server.active_connections() == 2
        });

        // Two idle keep-alive connections fill the cap; one over it
        // gets the canned 503.
        let mut idle: Vec<TcpStream> = (0..2).map(|_| connect(&server)).collect();
        wait_for("the cap to fill", || server.active_connections() == 4);
        let mut over = connect(&server);
        let shed = response_then_eof(&mut over);
        assert_eq!(shed.status, 503);
        assert!(shed.headers.get("retry-after").is_some());

        // shutdown() delivers drain: the idle connections close now,
        // the parked requests finish behind `Connection: close`.
        let drainer = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.shutdown())
        };
        for stream in &mut idle {
            let mut rest = Vec::new();
            stream.read_to_end(&mut rest).expect("closed by the drain");
            assert!(rest.is_empty());
        }
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
        let router = Router::new();
        router.deploy(
            "Boom",
            Arc::new(|_req: &Request| -> Response { panic!("handler bug") }),
        );
        router.deploy(
            "Echo",
            Arc::new(|req: &Request| Response::ok("text/plain", req.body.clone())),
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
        let router = Router::new();
        router.deploy(
            "Echo",
            Arc::new(|req: &Request| Response::ok("text/plain", req.body.clone())),
        );
        let server = TcpServer::launch(0, router).unwrap();
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

#[cfg(test)]
mod pool_tests {
    use super::*;
    use std::sync::Arc;

    /// Safety-net read timeout for tests that expect an answer.
    const SHORT: Duration = Duration::from_millis(500);

    fn echo_server() -> TcpServer {
        let router = Router::new();
        router.deploy(
            "Echo",
            Arc::new(|req: &Request| Response::ok("text/plain", req.body.clone())),
        );
        TcpServer::launch(0, router).unwrap()
    }

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
        // Restarting the server kills the pooled connection (connection
        // threads observe the stop flag within their read timeout).
        server.shutdown();
        std::thread::sleep(Duration::from_millis(400));
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
                let mut buf = Vec::new();
                let mut chunk = [0u8; 1024];
                loop {
                    match parse_request(&buf) {
                        Ok(_) => break,
                        Err(HttpError::Incomplete) => match conn.read(&mut chunk) {
                            Ok(0) => return,
                            Ok(n) => buf.extend_from_slice(&chunk[..n]),
                            Err(_) => return,
                        },
                        Err(_) => return,
                    }
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
                    let mut buf = Vec::new();
                    let mut chunk = [0u8; 1024];
                    loop {
                        match parse_request(&buf) {
                            Ok(_) => break,
                            Err(HttpError::Incomplete) => match conn.read(&mut chunk) {
                                Ok(0) => return,
                                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                                Err(_) => return,
                            },
                            Err(_) => return,
                        }
                    }
                    seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    let _ = conn.write_all(response.as_bytes());
                }
                // Drop the connection between scripts.
            }
        });
        (port, requests, join)
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
        PooledConn {
            stream,
            read_timeout: None,
            idle_since: Instant::now(),
        }
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
