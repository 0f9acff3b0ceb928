//! The readiness-driven transport core: `workers + 1` identical
//! threads on one epoll instance, each serving to completion the
//! connection the kernel hands it.
//!
//! ```text
//!   every reactor thread (workers + 1 of them, all alike):
//!
//!   epoll_wait(1) ─┬─ listener ──► accept ─► ServerHooks ─► install (or canned 503)
//!                  ├─ timerfd ───► pop due wheel entries ─► on_timer
//!                  ├─ eventfd ───► lifecycle flags: stop / drain broadcast
//!                  └─ connection (EPOLLONESHOT: this thread's alone)
//!                       │ lock slot ─ read ─ ConnProtocol::on_data ─ re-arm ─ unlock
//!                       ▼
//!                     handler gate: fewer than `workers` inside handlers?
//!                       │ yes                                │ no (or 2nd+ job of a callback)
//!                       ▼                                    ▼
//!                     run the job here                     pending list ─► drained by threads
//!                       │                                                  leaving a handler
//!                       ▼
//!                     lock slot ─ on_job_done ─ write reply ─ unlock ─► back to epoll_wait
//! ```
//!
//! The kernel's ready list is the work queue: there is no loop thread,
//! no job channel and no completion wake-up. A connection is registered
//! `EPOLLONESHOT`, so between a readiness event and the re-arm exactly
//! one thread owns its socket; everything that can touch a connection
//! from elsewhere (a deadline, a finished job, the drain broadcast)
//! takes the slot's lock and checks its generation first. Locks are
//! never held across a handler.
//!
//! The handler gate keeps what the old loop-plus-pool split guaranteed:
//! at most `workers` threads are inside handlers at once, so one thread
//! is always free to accept, answer over-cap connections with their
//! canned 503, fire 408 deadlines and deliver drain. A job that finds
//! the gate full — or the second and later jobs of one callback (P2PS
//! frames that arrived in one segment) — goes to the pending list, the
//! only queue left; threads leaving a handler drain it. A thread
//! working through a batch (an accept burst, the due deadlines, the
//! drain broadcast) finishes the batch before it runs any job the
//! batch dispatched: no ready work waits behind a handler.
//!
//! The reactor owns the sockets and the byte buffers; it knows nothing
//! about HTTP or P2PS. Each connection carries a [`ConnProtocol`] that
//! turns readiness happenings into decisions — the HTTP protocol
//! object drives the pure [`crate::conn::ConnMachine`], the P2PS pipe
//! protocol frames length-prefixed messages. PR 7's [`EventWheel`] is
//! the single timer structure, shared behind a lock; its next due time
//! is programmed into one timerfd, so a deadline armed while every
//! other thread sleeps still wakes one of them on time.
//!
//! Listeners are admitted through [`ServerHooks`], which wraps the
//! drain lifecycle ([`crate::drain::DrainMachine`] for HTTP): accept →
//! serve / canned-reject / drop, close → slot release, plus the
//! stopped/drain flags read on every [`Reactor::wake`]. Several
//! listeners (HTTP and P2PS) can share one reactor — one I/O core for
//! both bindings.

pub mod sys;

use crate::conn::TimerKind;
use parking_lot::{Mutex, RwLock};
use std::collections::VecDeque;
use std::io::{self, Write as _};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use sys::{
    Epoll, EpollEvent, EventFd, TimerFd, EPOLLERR, EPOLLEXCLUSIVE, EPOLLHUP, EPOLLIN, EPOLLONESHOT,
    EPOLLOUT, EPOLLRDHUP,
};
use wsp_simnet::{Dur, EventKey, EventWheel, Time};

/// Work a protocol dispatches: runs on a reactor thread with no lock
/// held, returns the bytes to write (and whether to close after
/// flushing them).
pub type Job = Box<dyn FnOnce() -> JobResult + Send + 'static>;

/// What a job produced for its connection.
pub struct JobResult {
    /// Wire bytes for the connection (written straight from here).
    pub bytes: Vec<u8>,
    /// Close the connection once the bytes flush.
    pub close: bool,
}

/// What to do with a freshly accepted socket.
pub enum Admit {
    /// Serve it with this protocol. The accept consumed a tracked slot,
    /// released through [`ServerHooks::on_conn_closed`].
    Serve(Box<dyn ConnProtocol>),
    /// Write these bytes, then close (canned rejection — 503s don't
    /// hold drain slots).
    Reject(Vec<u8>),
    /// Drop the socket silently (listener already stopped).
    Drop,
}

/// A listener's policy surface: admission, slot accounting and the
/// lifecycle flags. For HTTP this wraps the
/// [`crate::drain::DrainMachine`].
pub trait ServerHooks: Send + Sync {
    fn on_accept(&self) -> Admit;
    /// A served connection fully closed.
    fn on_conn_closed(&self);
    /// The threads exit once every listener's hooks report stopped.
    fn stopped(&self) -> bool;
    /// Latched graceful-drain flag; on the rising edge the reactor
    /// calls [`ConnProtocol::on_drain`] on each of this listener's
    /// connections.
    fn drain_began(&self) -> bool;
}

/// Per-connection protocol logic, driven by the reactor with an [`Io`]
/// context for its decisions. Implementations keep their *decision*
/// state in a pure machine (explorable by `wsp-check`) and only the
/// byte-level bookkeeping here. Callbacks run under the connection's
/// lock and must not block.
pub trait ConnProtocol: Send {
    /// The socket is installed; arm idle timers, send greetings.
    fn on_open(&mut self, _io: &mut Io<'_>) {}
    /// New bytes appended to `io.read_buf`. Consume what parses.
    fn on_data(&mut self, io: &mut Io<'_>);
    /// Peer closed its write side. Default: drop the connection.
    fn on_eof(&mut self, io: &mut Io<'_>) {
        io.abort();
    }
    /// A wheel deadline this protocol armed fired.
    fn on_timer(&mut self, _io: &mut Io<'_>, _kind: TimerKind) {}
    /// A dispatched job finished.
    fn on_job_done(&mut self, _io: &mut Io<'_>, _result: JobResult) {}
    /// Everything written during the last callback (or queued behind a
    /// full socket buffer) is on the wire.
    fn on_write_flushed(&mut self, _io: &mut Io<'_>) {}
    /// This listener began a graceful drain.
    fn on_drain(&mut self, _io: &mut Io<'_>) {}
}

/// What a protocol may do when the reactor calls into it. Buffer
/// access is direct and writes go straight to the socket; everything
/// with consequences beyond the connection (timers, jobs, closing) is
/// collected and applied after the callback returns.
pub struct Io<'a> {
    /// All buffered unconsumed inbound bytes. Drain what parses.
    pub read_buf: &'a mut Vec<u8>,
    write_buf: &'a mut Vec<u8>,
    write_pos: usize,
    stream: &'a TcpStream,
    draining: bool,
    jobs: &'a mut Vec<Job>,
    actions: Actions,
}

impl Io<'_> {
    /// Send response bytes: written to the socket from `bytes` itself
    /// when nothing is queued ahead of them; only a tail the socket
    /// would not take is copied, and the reactor flushes it under
    /// `EPOLLOUT`.
    pub fn queue_write(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        self.actions.wrote = true;
        let mut rest = bytes;
        if self.unflushed() == 0 && !self.actions.failed {
            loop {
                match self.stream.write(rest) {
                    Ok(0) => self.actions.failed = true,
                    Ok(n) if n == rest.len() => return,
                    // A short write means the socket buffer is full.
                    Ok(n) => rest = &rest[n..],
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(_) => self.actions.failed = true,
                }
                break;
            }
        }
        self.write_buf.extend_from_slice(rest);
    }

    /// Bytes queued but not yet on the wire.
    pub fn unflushed(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Hand work to the handler gate; the result comes back via
    /// [`ConnProtocol::on_job_done`] (or is dropped if the connection
    /// died meanwhile). The job runs even if the connection closes in
    /// this same callback.
    pub fn dispatch(&mut self, job: Job) {
        self.jobs.push(job);
    }

    /// Arm `kind`'s deadline `after` from now on the reactor wheel.
    pub fn arm_timer(&mut self, kind: TimerKind, after: Duration) {
        self.actions.timers[timer_slot(kind)] = Some(TimerOp::Arm(after));
    }

    /// Cancel `kind`'s deadline; a no-op if it is not armed.
    pub fn cancel_timer(&mut self, kind: TimerKind) {
        self.actions.timers[timer_slot(kind)] = Some(TimerOp::Cancel);
    }

    /// Close once the write buffer drains (immediately if empty).
    pub fn close(&mut self) {
        self.actions.close = true;
    }

    /// Close now, discarding unflushed bytes.
    pub fn abort(&mut self) {
        self.actions.abort = true;
    }

    /// Has this listener begun a graceful drain?
    pub fn draining(&self) -> bool {
        self.draining
    }
}

/// A callback's last word on one timer kind. Only the last word
/// reaches the wheel: an arm followed by a cancel in the same callback
/// (the head deadline of a request that arrived whole) costs nothing.
#[derive(Clone, Copy)]
enum TimerOp {
    Arm(Duration),
    Cancel,
}

const TIMER_KINDS: [TimerKind; 3] = [TimerKind::Head, TimerKind::Body, TimerKind::Idle];

fn timer_slot(kind: TimerKind) -> usize {
    match kind {
        TimerKind::Head => 0,
        TimerKind::Body => 1,
        TimerKind::Idle => 2,
    }
}

#[derive(Default)]
struct Actions {
    timers: [Option<TimerOp>; 3],
    close: bool,
    abort: bool,
    /// `queue_write` saw bytes during this callback.
    wrote: bool,
    /// A direct socket write failed; the connection is dead.
    failed: bool,
}

/// One listening socket plus its admission policy.
pub struct Listener {
    pub socket: TcpListener,
    pub hooks: Arc<dyn ServerHooks>,
}

pub struct ReactorConfig {
    /// Most handlers running at once. The reactor starts `workers + 1`
    /// threads so one is always outside a handler, free for I/O.
    pub workers: usize,
}

/// Process-wide reactor counters (every reactor in the process adds to
/// them), for `/metrics`. `wsp-http` sits below the telemetry registry
/// in the crate graph, so these are plain atomics read at scrape time,
/// like the buffer pool's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Jobs run by the thread that parsed them (no hand-off).
    pub jobs_on_reader: u64,
    /// Jobs that went through the pending list.
    pub jobs_queued: u64,
    /// Threads inside a handler right now.
    pub handlers_busy: u64,
}

static JOBS_ON_READER: AtomicU64 = AtomicU64::new(0);
static JOBS_QUEUED: AtomicU64 = AtomicU64::new(0);
static HANDLERS_BUSY: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide reactor counters.
pub fn stats() -> ReactorStats {
    ReactorStats {
        jobs_on_reader: JOBS_ON_READER.load(Ordering::Relaxed),
        jobs_queued: JOBS_QUEUED.load(Ordering::Relaxed),
        handlers_busy: HANDLERS_BUSY.load(Ordering::Relaxed),
    }
}

/// Handle to a spawned reactor: wake it (after flipping lifecycle
/// flags in the hooks) and join it once stopped.
pub struct Reactor {
    waker: Arc<EventFd>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// The threads own the shared state (and with it the listening
    /// sockets, which close when the last thread exits); tests peek.
    #[cfg(test)]
    shared: std::sync::Weak<Shared>,
}

impl Reactor {
    pub fn spawn(listeners: Vec<Listener>, config: ReactorConfig) -> io::Result<Reactor> {
        assert!(listeners.len() <= MAX_LISTENERS, "too many listeners");
        let epoll = Epoll::new()?;
        let waker = Arc::new(EventFd::new()?);
        let timer_fd = TimerFd::new()?;
        epoll.add(waker.raw_fd(), EPOLLIN | EPOLLEXCLUSIVE, TOKEN_WAKER)?;
        epoll.add(timer_fd.raw_fd(), EPOLLIN | EPOLLEXCLUSIVE, TOKEN_TIMER)?;
        for (k, l) in listeners.iter().enumerate() {
            l.socket.set_nonblocking(true)?;
            epoll.add(
                l.socket.as_raw_fd(),
                EPOLLIN | EPOLLEXCLUSIVE,
                TOKEN_LISTENER_BASE + k as u64,
            )?;
        }

        let max_handlers = config.workers.max(1);
        let threads = max_handlers + 1;
        let shared = Arc::new(Shared {
            epoll,
            waker: Arc::clone(&waker),
            timer_fd,
            drained: listeners.iter().map(|_| AtomicBool::new(false)).collect(),
            listeners,
            cells: RwLock::new(Vec::new()),
            free: Mutex::new(Vec::new()),
            next_gen: AtomicU32::new(0),
            timers: Mutex::new(Timers {
                wheel: EventWheel::new(),
                programmed: None,
                arms: 0,
                cancels: 0,
            }),
            start: Instant::now(),
            gate: Mutex::new(Gate {
                busy: 0,
                pending: VecDeque::new(),
            }),
            max_handlers,
            live_threads: AtomicUsize::new(threads),
        });

        let handles = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("wsp-reactor-{i}"))
                    .spawn(move || shared.run())
                    .expect("spawn reactor thread")
            })
            .collect();

        Ok(Reactor {
            waker,
            threads: Mutex::new(handles),
            #[cfg(test)]
            shared: Arc::downgrade(&shared),
        })
    }

    /// Have one thread re-read the hooks' lifecycle flags.
    pub fn wake(&self) {
        self.waker.notify();
    }

    /// Wait for every thread to exit. Call after the hooks report
    /// stopped and a [`Reactor::wake`].
    pub fn join(&self) {
        for handle in self.threads.lock().drain(..) {
            let _ = handle.join();
        }
    }

    /// Wheel schedules and cancels so far — what the timer-churn test
    /// counts.
    #[cfg(test)]
    pub(crate) fn wheel_ops(&self) -> (u64, u64) {
        let shared = self.shared.upgrade().expect("reactor still running");
        let timers = shared.timers.lock();
        (timers.arms, timers.cancels)
    }
}

/// Tokens with the top bit set name the reactor's own fds; connection
/// tokens are `generation << 32 | index` with a 31-bit generation.
const TOKEN_WAKER: u64 = u64::MAX;
const TOKEN_TIMER: u64 = u64::MAX - 1;
const TOKEN_LISTENER_BASE: u64 = 1 << 63;
const MAX_LISTENERS: usize = 64;
const GEN_MASK: u32 = (1 << 31) - 1;

fn conn_token(idx: usize, gen: u32) -> u64 {
    u64::from(gen) << 32 | idx as u64
}

/// Cap on read rounds per readiness so one firehose connection cannot
/// monopolise a thread; re-arming re-reports leftover bytes.
const MAX_READ_ROUNDS: usize = 16;
/// Room a read is given: a buffer with less than [`READ_MIN_SPARE`]
/// to spare grows by this much first.
const READ_CHUNK: usize = 16 * 1024;
const READ_MIN_SPARE: usize = 512;

thread_local! {
    /// The read buffer a reactor thread lends to connections that have
    /// nothing buffered (see [`Shared::read_ready`]). Only the pages a
    /// request actually fills are ever touched.
    static SCRATCH: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Buffers above this capacity shrink after use so neither 10k
/// mostly-idle keep-alive connections nor a thread's lent read buffer
/// pin peak-sized allocations.
const BUF_SHRINK_THRESHOLD: usize = 64 * 1024;
const BUF_SHRINK_TO: usize = 4 * 1024;

/// Bounded accepts per listener event; a still-pending backlog is
/// re-reported (listeners are level-triggered).
const ACCEPT_BATCH: usize = 64;

struct Slot {
    stream: TcpStream,
    /// Index into `Shared::listeners` — whose hooks govern this conn.
    owner: usize,
    /// Fences stale events, deadlines and job results after the index
    /// is reused.
    gen: u32,
    /// `None` for canned-reject connections (write bytes, close; they
    /// hold no slot, so closing them notifies nobody).
    proto: Option<Box<dyn ConnProtocol>>,
    read_buf: Vec<u8>,
    /// Only what the socket would not take; `write_pos..` is unsent.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Interest last given to epoll; 0 until the fd is added.
    interest: u32,
    /// The registration can still fire (no event consumed it since the
    /// last add/modify).
    armed: bool,
    saw_eof: bool,
    close_after_flush: bool,
    /// Armed deadlines: the wheel key and the due time, which is how a
    /// popped wheel entry is matched to the arming it came from.
    timers: [Option<(EventKey, Time)>; 3],
}

type Cell = Mutex<Option<Slot>>;

struct Timers {
    wheel: EventWheel<(usize, u32, TimerKind)>,
    /// The due time the timerfd is set for (`None` = disarmed). May be
    /// earlier than the wheel's next entry after a cancel; the spurious
    /// expiry re-programs it.
    programmed: Option<Time>,
    arms: u64,
    cancels: u64,
}

struct Work {
    idx: usize,
    gen: u32,
    job: Job,
}

/// Who may run handlers. `busy` and `pending` change under one lock,
/// so a job is never parked while a permit is free and unclaimed.
struct Gate {
    busy: usize,
    pending: VecDeque<Work>,
}

struct Shared {
    epoll: Epoll,
    waker: Arc<EventFd>,
    timer_fd: TimerFd,
    listeners: Vec<Listener>,
    /// Per-listener: drain broadcast already delivered.
    drained: Vec<AtomicBool>,
    /// Connection cells by index; a cell outlives its connections and
    /// is reused through `free`.
    cells: RwLock<Vec<Arc<Cell>>>,
    free: Mutex<Vec<usize>>,
    next_gen: AtomicU32,
    /// Lock order: a connection's cell, then `timers`.
    timers: Mutex<Timers>,
    start: Instant,
    gate: Mutex<Gate>,
    max_handlers: usize,
    live_threads: AtomicUsize,
}

impl Shared {
    fn run(&self) {
        // A batch of one: a thread about to run a handler must not sit
        // on other connections' readiness.
        let mut events = [EpollEvent::zeroed(); 1];
        while let Ok(n) = self.epoll.wait(&mut events, -1) {
            let Some(ev) = events[..n].first().copied() else {
                continue;
            };
            let (token, ready) = (ev.data, ev.events);
            match token {
                TOKEN_WAKER => {
                    self.waker.drain();
                    if self.all_stopped() {
                        break;
                    }
                    self.check_drain_edges();
                    self.run_pending();
                }
                TOKEN_TIMER => self.fire_due_timers(),
                _ if token >= TOKEN_LISTENER_BASE => {
                    self.accept_ready((token - TOKEN_LISTENER_BASE) as usize)
                }
                _ => self.conn_ready(token, ready),
            }
        }
        // Pass the stop on: this thread may have consumed the wake-up
        // its siblings still need.
        self.waker.notify();
        if self.live_threads.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.teardown();
        }
    }

    fn all_stopped(&self) -> bool {
        self.listeners.iter().all(|l| l.hooks.stopped())
    }

    /// Last thread out: release every connection (served ones notify
    /// their hooks) and drop work nobody will run.
    fn teardown(&self) {
        let cells = self.cells.read().clone();
        for (idx, cell) in cells.iter().enumerate() {
            self.release(idx, &mut cell.lock());
        }
        self.gate.lock().pending.clear();
    }

    fn now(&self) -> Time {
        Time::micros(self.start.elapsed().as_micros() as u64)
    }

    fn cell(&self, idx: usize) -> Option<Arc<Cell>> {
        self.cells.read().get(idx).cloned()
    }

    // --- connections ------------------------------------------------------

    fn accept_ready(&self, owner: usize) {
        let Some(listener) = self.listeners.get(owner) else {
            return;
        };
        let mut batch = Vec::new();
        for _ in 0..ACCEPT_BATCH {
            match listener.socket.accept() {
                Ok((stream, _addr)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    match listener.hooks.on_accept() {
                        Admit::Serve(proto) => {
                            self.install(stream, owner, Some(proto), Vec::new(), &mut batch)
                        }
                        Admit::Reject(bytes) => {
                            self.install(stream, owner, None, bytes, &mut batch)
                        }
                        Admit::Drop => drop(stream),
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // Transient accept errors (ECONNABORTED etc): keep going.
                Err(_) => continue,
            }
        }
        self.submit(batch);
    }

    /// Put an accepted socket in a cell, run its opening callback (or
    /// write its canned rejection) and register it. The cell stays
    /// locked throughout, so the first readiness event finds the slot
    /// complete. Jobs `on_open` dispatched join `batch`.
    fn install(
        &self,
        stream: TcpStream,
        owner: usize,
        proto: Option<Box<dyn ConnProtocol>>,
        reject: Vec<u8>,
        batch: &mut Vec<Work>,
    ) {
        let gen = self.next_gen.fetch_add(1, Ordering::Relaxed) & GEN_MASK;
        let (idx, cell) = match self.free.lock().pop() {
            Some(idx) => (idx, Arc::clone(&self.cells.read()[idx])),
            None => {
                let mut cells = self.cells.write();
                assert!(cells.len() < u32::MAX as usize, "connection index space");
                cells.push(Arc::new(Mutex::new(None)));
                (cells.len() - 1, Arc::clone(&cells[cells.len() - 1]))
            }
        };
        let mut jobs = Vec::new();
        {
            let mut guard = cell.lock();
            let slot = guard.insert(Slot {
                stream,
                owner,
                gen,
                close_after_flush: proto.is_none(),
                proto,
                read_buf: Vec::new(),
                write_buf: reject,
                write_pos: 0,
                interest: 0,
                armed: false,
                saw_eof: false,
                timers: [None; 3],
            });
            let alive = if slot.proto.is_some() {
                self.call(idx, slot, &mut jobs, |proto, io| proto.on_open(io))
            } else {
                self.flush(idx, slot, &mut jobs)
            };
            if !(alive && self.rearm(idx, slot)) {
                self.release(idx, &mut guard);
            }
        }
        batch.extend(jobs.into_iter().map(|job| Work { idx, gen, job }));
    }

    /// Close a connection: cancel its deadlines, drop its socket, give
    /// its slot back.
    fn release(&self, idx: usize, guard: &mut Option<Slot>) {
        let Some(slot) = guard.take() else {
            return;
        };
        if slot.timers.iter().any(Option::is_some) {
            let mut timers = self.timers.lock();
            for (key, at) in slot.timers.into_iter().flatten() {
                timers.cancel(key, at);
            }
        }
        if slot.interest != 0 {
            let _ = self.epoll.delete(slot.stream.as_raw_fd());
        }
        drop(slot.stream);
        if slot.proto.is_some() {
            if let Some(l) = self.listeners.get(slot.owner) {
                l.hooks.on_conn_closed();
            }
        }
        self.free.lock().push(idx);
    }

    /// Lock connection `idx`, and if it is still generation `gen`
    /// (`None`: whoever lives there), run `f` on it; then re-arm or
    /// release it. Returns the jobs `f`'s callbacks dispatched.
    fn visit(
        &self,
        idx: usize,
        gen: Option<u32>,
        f: impl FnOnce(&Shared, &mut Slot, &mut Vec<Job>) -> bool,
    ) -> (u32, Vec<Job>) {
        let mut jobs = Vec::new();
        let Some(cell) = self.cell(idx) else {
            return (0, jobs);
        };
        let mut guard = cell.lock();
        let Some(slot) = guard.as_mut().filter(|s| gen.is_none_or(|g| g == s.gen)) else {
            return (0, jobs);
        };
        let gen = slot.gen;
        if !(f(self, slot, &mut jobs) && self.rearm(idx, slot)) {
            self.release(idx, &mut guard);
        }
        (gen, jobs)
    }

    /// [`Shared::visit`] as one step of a batch (due deadlines, the
    /// drain broadcast): the jobs it dispatched join `batch` and go to
    /// the gate only once the whole batch has been visited — a handler
    /// may block, and the rest of the batch must not wait behind it.
    fn visit_in_batch(
        &self,
        idx: usize,
        gen: Option<u32>,
        batch: &mut Vec<Work>,
        f: impl FnOnce(&Shared, &mut Slot, &mut Vec<Job>) -> bool,
    ) {
        let (gen, jobs) = self.visit(idx, gen, f);
        batch.extend(jobs.into_iter().map(|job| Work { idx, gen, job }));
    }

    fn conn_ready(&self, token: u64, events: u32) {
        let (idx, gen) = ((token & u64::from(u32::MAX)) as usize, (token >> 32) as u32);
        let (gen, jobs) = self.visit(idx, Some(gen), |shared, slot, jobs| {
            slot.armed = false;
            if events & EPOLLERR != 0 {
                return false;
            }
            if events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0
                && !shared.read_ready(idx, slot, jobs)
            {
                return false;
            }
            events & EPOLLOUT == 0 || shared.flush(idx, slot, jobs)
        });
        self.submit(jobs.into_iter().map(|job| Work { idx, gen, job }));
    }

    /// Read what the socket holds, straight into `read_buf`'s spare
    /// capacity, and tell the protocol. `false` = connection is dead.
    ///
    /// A connection with nothing buffered owns no read buffer: it
    /// borrows this thread's for the visit and keeps (a right-sized copy
    /// of) only what the callbacks left unparsed — half a request, a
    /// pipelined one. So ten thousand idle keep-alive connections hold
    /// no read memory at all, and a whole request costs one `read` with
    /// room to spare and no copy.
    fn read_ready(&self, idx: usize, slot: &mut Slot, jobs: &mut Vec<Job>) -> bool {
        if slot.saw_eof {
            return true;
        }
        let borrowed = slot.read_buf.capacity() == 0;
        if borrowed {
            slot.read_buf = SCRATCH.take();
        }
        let alive = self.read_and_tell(idx, slot, jobs);
        if borrowed {
            let mut scratch = std::mem::take(&mut slot.read_buf);
            if !scratch.is_empty() {
                slot.read_buf = scratch.as_slice().to_vec();
                scratch.clear();
            }
            if scratch.capacity() > BUF_SHRINK_THRESHOLD {
                scratch.shrink_to(READ_CHUNK);
            }
            SCRATCH.set(scratch);
        } else if slot.read_buf.is_empty() {
            // Its own leftovers are consumed: back to borrowing.
            slot.read_buf = Vec::new();
        }
        alive
    }

    fn read_and_tell(&self, idx: usize, slot: &mut Slot, jobs: &mut Vec<Job>) -> bool {
        let fd = slot.stream.as_raw_fd();
        let mut got_bytes = false;
        for _ in 0..MAX_READ_ROUNDS {
            let buf = &mut slot.read_buf;
            if buf.capacity() - buf.len() < READ_MIN_SPARE {
                buf.reserve(READ_CHUNK);
            }
            let room = buf.capacity() - buf.len();
            match sys::read_into_spare(fd, buf) {
                Ok(0) => {
                    slot.saw_eof = true;
                    break;
                }
                Ok(n) => {
                    got_bytes = true;
                    if n < room {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => return false,
            }
        }
        if slot.proto.is_none() {
            // Canned-reject conn: nothing to parse; EOF just ends it.
            slot.read_buf.clear();
            return !slot.saw_eof;
        }
        if got_bytes && !self.call(idx, slot, jobs, |proto, io| proto.on_data(io)) {
            return false;
        }
        !slot.saw_eof || self.call(idx, slot, jobs, |proto, io| proto.on_eof(io))
    }

    /// Push the unsent tail of `write_buf` as far as the socket allows;
    /// when it drains, close (if asked to) or report the flush.
    fn flush(&self, idx: usize, slot: &mut Slot, jobs: &mut Vec<Job>) -> bool {
        if slot.write_pos >= slot.write_buf.len() {
            return true;
        }
        while slot.write_pos < slot.write_buf.len() {
            match (&slot.stream).write(&slot.write_buf[slot.write_pos..]) {
                Ok(0) => return false,
                Ok(n) => slot.write_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        slot.write_buf.clear();
        slot.write_pos = 0;
        if slot.write_buf.capacity() > BUF_SHRINK_THRESHOLD {
            slot.write_buf.shrink_to(BUF_SHRINK_TO);
        }
        !slot.close_after_flush
            && self.call(idx, slot, jobs, |proto, io| proto.on_write_flushed(io))
    }

    /// Run a protocol callback and, for as long as callbacks leave
    /// everything they wrote on the wire, the flush notification that
    /// follows. `false` = connection is dead.
    fn call(
        &self,
        idx: usize,
        slot: &mut Slot,
        jobs: &mut Vec<Job>,
        f: impl FnOnce(&mut dyn ConnProtocol, &mut Io<'_>),
    ) -> bool {
        let Some(mut flushed) = self.callback(idx, slot, jobs, f) else {
            return false;
        };
        while flushed {
            let next = self.callback(idx, slot, jobs, |proto, io| proto.on_write_flushed(io));
            let Some(next) = next else {
                return false;
            };
            flushed = next;
        }
        true
    }

    /// One callback with an [`Io`] view of the slot, then whatever it
    /// decided. `None` = the connection is dead; `Some(true)` = the
    /// callback wrote and all of it went out.
    fn callback(
        &self,
        idx: usize,
        slot: &mut Slot,
        jobs: &mut Vec<Job>,
        f: impl FnOnce(&mut dyn ConnProtocol, &mut Io<'_>),
    ) -> Option<bool> {
        let Some(proto) = slot.proto.as_mut() else {
            return Some(false);
        };
        let mut io = Io {
            read_buf: &mut slot.read_buf,
            write_buf: &mut slot.write_buf,
            write_pos: slot.write_pos,
            stream: &slot.stream,
            draining: self
                .drained
                .get(slot.owner)
                .is_some_and(|d| d.load(Ordering::SeqCst)),
            jobs,
            actions: Actions::default(),
        };
        f(proto.as_mut(), &mut io);
        let actions = io.actions;
        self.apply_timers(idx, slot, &actions.timers);
        if actions.abort || actions.failed {
            return None;
        }
        if actions.close {
            slot.close_after_flush = true;
        }
        if slot.write_pos < slot.write_buf.len() {
            // The socket is full; `rearm` asks for EPOLLOUT.
            return Some(false);
        }
        if slot.close_after_flush {
            return None;
        }
        Some(actions.wrote)
    }

    /// Give the connection's registration the interest its state wants
    /// — read while the peer can still send, write only while a tail is
    /// queued — unless it is already armed with exactly that. `false` =
    /// epoll refused; the connection cannot be served.
    fn rearm(&self, idx: usize, slot: &mut Slot) -> bool {
        let mut want = 0;
        if !slot.saw_eof {
            want |= EPOLLIN | EPOLLRDHUP;
        }
        if slot.write_pos < slot.write_buf.len() {
            want |= EPOLLOUT;
        }
        if want == 0 || (slot.armed && want == slot.interest) {
            return true;
        }
        let (fd, token) = (slot.stream.as_raw_fd(), conn_token(idx, slot.gen));
        let done = if slot.interest == 0 {
            self.epoll.add(fd, want | EPOLLONESHOT, token)
        } else {
            self.epoll.modify(fd, want | EPOLLONESHOT, token)
        };
        if done.is_ok() {
            slot.interest = want;
            slot.armed = true;
        }
        done.is_ok()
    }

    // --- timers -----------------------------------------------------------

    /// Carry out a callback's last word per timer kind. A kind whose
    /// arm was cancelled again in the same callback — and was not armed
    /// before — never reaches the wheel or its lock.
    fn apply_timers(&self, idx: usize, slot: &mut Slot, ops: &[Option<TimerOp>; 3]) {
        let mut timers = None;
        for (k, op) in ops.iter().enumerate() {
            let Some(op) = op else { continue };
            if matches!(op, TimerOp::Cancel) && slot.timers[k].is_none() {
                continue;
            }
            let timers = timers.get_or_insert_with(|| self.timers.lock());
            if let Some((key, at)) = slot.timers[k].take() {
                timers.cancel(key, at);
            }
            if let TimerOp::Arm(after) = *op {
                let now = self.now();
                let at = now + Dur::micros(after.as_micros() as u64);
                let key = timers
                    .wheel
                    .schedule_at(at, (idx, slot.gen, TIMER_KINDS[k]));
                timers.arms += 1;
                slot.timers[k] = Some((key, at));
                if timers.programmed.is_none_or(|p| at < p) {
                    timers.programmed = Some(at);
                    self.timer_fd
                        .set(Some(Duration::from_micros((at - now).as_micros())));
                }
            }
        }
    }

    fn fire_due_timers(&self) {
        self.timer_fd.drain();
        let mut due = Vec::new();
        {
            let mut timers = self.timers.lock();
            let now = self.now();
            while timers.wheel.next_time().is_some_and(|t| t <= now) {
                due.extend(timers.wheel.pop());
            }
            let next = timers.wheel.next_time();
            timers.programmed = next;
            self.timer_fd
                .set(next.map(|t| Duration::from_micros((t - now).as_micros())));
        }
        let mut batch = Vec::new();
        for (at, (idx, gen, kind)) in due {
            let k = timer_slot(kind);
            self.visit_in_batch(idx, Some(gen), &mut batch, |shared, slot, jobs| {
                // Cancelled or re-armed between the pop and this lock:
                // not this arming's deadline any more.
                if !matches!(slot.timers[k], Some((_, armed_at)) if armed_at == at) {
                    return true;
                }
                slot.timers[k] = None;
                shared.call(idx, slot, jobs, |proto, io| proto.on_timer(io, kind))
            });
        }
        self.submit(batch);
    }

    // --- lifecycle --------------------------------------------------------

    /// Detect rising drain edges and broadcast them to the affected
    /// listener's connections (idle keep-alives close, in-flight work
    /// finishes behind a `Connection: close`). A connection installed
    /// after the flag flips sees it in `on_open` instead.
    fn check_drain_edges(&self) {
        let mut batch = Vec::new();
        for (k, listener) in self.listeners.iter().enumerate() {
            if !listener.hooks.drain_began() || self.drained[k].swap(true, Ordering::SeqCst) {
                continue;
            }
            let installed = self.cells.read().len();
            for idx in 0..installed {
                self.visit_in_batch(idx, None, &mut batch, |shared, slot, jobs| {
                    slot.owner != k || shared.call(idx, slot, jobs, |proto, io| proto.on_drain(io))
                });
            }
        }
        self.submit(batch);
    }

    // --- the handler gate -------------------------------------------------

    /// Jobs fresh from callbacks: the first runs on this thread if a
    /// handler permit is free; the rest — and the first too if the gate
    /// is full — wait on the pending list.
    fn submit(&self, work: impl IntoIterator<Item = Work>) {
        let mut work = work.into_iter();
        let Some(first) = work.next() else {
            return;
        };
        let mut gate = self.gate.lock();
        let mine = if gate.busy < self.max_handlers {
            gate.busy += 1;
            Some(first)
        } else {
            gate.pending.push_back(first);
            None
        };
        gate.pending.extend(work);
        let queued = gate.pending.len();
        // Parked work with a permit still free needs a sleeping thread.
        let wake = queued > 0 && gate.busy < self.max_handlers;
        drop(gate);
        if wake {
            self.waker.notify();
        }
        if let Some(work) = mine {
            HANDLERS_BUSY.fetch_add(1, Ordering::Relaxed);
            JOBS_ON_READER.fetch_add(1, Ordering::Relaxed);
            self.run_chain(work);
        }
    }

    /// A woken thread: take a permit and parked work, if both exist.
    fn run_pending(&self) {
        let mut gate = self.gate.lock();
        if gate.busy >= self.max_handlers {
            return;
        }
        let Some(work) = gate.pending.pop_front() else {
            return;
        };
        gate.busy += 1;
        let wake = !gate.pending.is_empty() && gate.busy < self.max_handlers;
        drop(gate);
        if wake {
            self.waker.notify();
        }
        HANDLERS_BUSY.fetch_add(1, Ordering::Relaxed);
        JOBS_QUEUED.fetch_add(1, Ordering::Relaxed);
        self.run_chain(work);
    }

    /// Holding a handler permit: run `work`, deliver its result, and
    /// keep going while the connection's next request or parked work is
    /// there to run; then give the permit back.
    fn run_chain(&self, mut work: Work) {
        loop {
            // A panicking handler closes its connection without a
            // response; the thread and every other connection carry on.
            let result = catch_unwind(AssertUnwindSafe(work.job)).unwrap_or(JobResult {
                bytes: Vec::new(),
                close: true,
            });
            let (idx, gen) = (work.idx, work.gen);
            let (_, mut next) = self.visit(idx, Some(gen), |shared, slot, jobs| {
                shared.call(idx, slot, jobs, |proto, io| proto.on_job_done(io, result))
            });
            let mut gate = self.gate.lock();
            if gate.pending.is_empty() && next.len() == 1 {
                // The usual follow-on: this connection's pipelined
                // request, nothing else waiting.
                drop(gate);
                JOBS_ON_READER.fetch_add(1, Ordering::Relaxed);
                work.job = next.remove(0);
                continue;
            }
            gate.pending
                .extend(next.into_iter().map(|job| Work { idx, gen, job }));
            // Oldest parked work first, whichever connection it is for.
            let Some(parked) = gate.pending.pop_front() else {
                gate.busy -= 1;
                drop(gate);
                HANDLERS_BUSY.fetch_sub(1, Ordering::Relaxed);
                return;
            };
            let wake = !gate.pending.is_empty() && gate.busy < self.max_handlers;
            drop(gate);
            if wake {
                self.waker.notify();
            }
            JOBS_QUEUED.fetch_add(1, Ordering::Relaxed);
            work = parked;
        }
    }
}

impl Timers {
    fn cancel(&mut self, key: EventKey, at: Time) {
        // An entry due before the wheel's clock was popped already (a
        // deadline racing its own cancel); cancelling it now would only
        // park its key in the wheel's cancelled set for good.
        if at >= self.wheel.now() {
            self.wheel.cancel(key);
            self.cancels += 1;
            // Deadlines of one kind are armed and cancelled in nearly
            // the same order, so the cancelled entry is usually the
            // heap's top: purge it now rather than when the timerfd
            // next fires, or a stream of dripped requests would park a
            // deadline's worth of dead entries.
            self.wheel.next_time();
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream as StdTcpStream;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    struct TestHooks {
        stopped: AtomicBool,
        draining: AtomicBool,
        open: AtomicUsize,
        closed: AtomicUsize,
    }

    impl TestHooks {
        fn new() -> Arc<TestHooks> {
            Arc::new(TestHooks {
                stopped: AtomicBool::new(false),
                draining: AtomicBool::new(false),
                open: AtomicUsize::new(0),
                closed: AtomicUsize::new(0),
            })
        }
    }

    struct EchoHooks {
        hooks: Arc<TestHooks>,
        idle: Option<Duration>,
    }

    impl ServerHooks for EchoHooks {
        fn on_accept(&self) -> Admit {
            self.hooks.open.fetch_add(1, Ordering::SeqCst);
            Admit::Serve(Box::new(EchoProto { idle: self.idle }))
        }
        fn on_conn_closed(&self) {
            self.hooks.closed.fetch_add(1, Ordering::SeqCst);
        }
        fn stopped(&self) -> bool {
            self.hooks.stopped.load(Ordering::SeqCst)
        }
        fn drain_began(&self) -> bool {
            self.hooks.draining.load(Ordering::SeqCst)
        }
    }

    /// Newline-framed echo: each line is dispatched as a job, which
    /// uppercases it.
    struct EchoProto {
        idle: Option<Duration>,
    }

    impl ConnProtocol for EchoProto {
        fn on_open(&mut self, io: &mut Io<'_>) {
            if let Some(after) = self.idle {
                io.arm_timer(TimerKind::Idle, after);
            }
        }
        fn on_data(&mut self, io: &mut Io<'_>) {
            while let Some(nl) = io.read_buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = io.read_buf.drain(..=nl).collect();
                io.dispatch(Box::new(move || JobResult {
                    bytes: line.to_ascii_uppercase(),
                    close: false,
                }));
            }
        }
        fn on_job_done(&mut self, io: &mut Io<'_>, result: JobResult) {
            io.queue_write(&result.bytes);
            if result.close {
                io.close();
            }
        }
        fn on_timer(&mut self, io: &mut Io<'_>, kind: TimerKind) {
            if kind == TimerKind::Idle {
                io.abort();
            }
        }
    }

    fn spawn_echo(idle: Option<Duration>) -> (Reactor, Arc<TestHooks>, u16) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let hooks = TestHooks::new();
        let reactor = Reactor::spawn(
            vec![Listener {
                socket: listener,
                hooks: Arc::new(EchoHooks {
                    hooks: Arc::clone(&hooks),
                    idle,
                }),
            }],
            ReactorConfig { workers: 2 },
        )
        .unwrap();
        (reactor, hooks, port)
    }

    fn stop(reactor: &Reactor, hooks: &TestHooks) {
        hooks.stopped.store(true, Ordering::SeqCst);
        reactor.wake();
        reactor.join();
    }

    #[test]
    fn echo_round_trip_through_worker_pool() {
        let (reactor, hooks, port) = spawn_echo(None);
        let mut c = StdTcpStream::connect(("127.0.0.1", port)).unwrap();
        c.write_all(b"hello\n").unwrap();
        let mut buf = [0u8; 16];
        let n = c.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"HELLO\n");
        // Keep-alive: a second frame on the same connection works.
        c.write_all(b"again\n").unwrap();
        let n = c.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"AGAIN\n");
        stop(&reactor, &hooks);
        assert_eq!(hooks.open.load(Ordering::SeqCst), 1);
        assert_eq!(
            hooks.closed.load(Ordering::SeqCst),
            1,
            "teardown released the slot"
        );
    }

    #[test]
    fn idle_timer_reaps_quiet_connections() {
        let (reactor, hooks, port) = spawn_echo(Some(Duration::from_millis(50)));
        let mut c = StdTcpStream::connect(("127.0.0.1", port)).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 8];
        // The reactor reaps us via the wheel; read returns EOF.
        assert_eq!(c.read(&mut buf).unwrap(), 0);
        stop(&reactor, &hooks);
        assert_eq!(hooks.closed.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn two_listeners_share_one_reactor() {
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l2 = TcpListener::bind("127.0.0.1:0").unwrap();
        let (p1, p2) = (
            l1.local_addr().unwrap().port(),
            l2.local_addr().unwrap().port(),
        );
        let hooks = TestHooks::new();
        let reactor = Reactor::spawn(
            vec![
                Listener {
                    socket: l1,
                    hooks: Arc::new(EchoHooks {
                        hooks: Arc::clone(&hooks),
                        idle: None,
                    }),
                },
                Listener {
                    socket: l2,
                    hooks: Arc::new(EchoHooks {
                        hooks: Arc::clone(&hooks),
                        idle: None,
                    }),
                },
            ],
            ReactorConfig { workers: 2 },
        )
        .unwrap();
        for port in [p1, p2] {
            let mut c = StdTcpStream::connect(("127.0.0.1", port)).unwrap();
            c.write_all(b"ping\n").unwrap();
            let mut buf = [0u8; 8];
            let n = c.read(&mut buf).unwrap();
            assert_eq!(&buf[..n], b"PING\n");
        }
        stop(&reactor, &hooks);
        assert_eq!(hooks.open.load(Ordering::SeqCst), 2);
        assert_eq!(hooks.closed.load(Ordering::SeqCst), 2);
    }

    /// One line at a time, like HTTP: the next line is dispatched only
    /// once the previous reply is on the wire. `gate` parks lines that
    /// start with `!`; the counters let a test see what the reactor
    /// delivered while a job was parked.
    struct SerialProto {
        busy: bool,
        half_closed: bool,
        seen: Arc<Seen>,
    }

    #[derive(Default)]
    struct Seen {
        on_data: AtomicUsize,
        on_eof: AtomicUsize,
        parked: AtomicUsize,
        gate: Mutex<bool>,
        gate_cv: parking_lot::Condvar,
    }

    impl Seen {
        fn open_gate(&self) {
            *self.gate.lock() = true;
            self.gate_cv.notify_all();
        }
    }

    impl SerialProto {
        fn pump(&mut self, io: &mut Io<'_>) {
            if self.busy {
                return;
            }
            let Some(nl) = io.read_buf.iter().position(|&b| b == b'\n') else {
                return;
            };
            let line: Vec<u8> = io.read_buf.drain(..=nl).collect();
            self.busy = true;
            let seen = Arc::clone(&self.seen);
            io.dispatch(Box::new(move || {
                if line.starts_with(b"!") {
                    seen.parked.fetch_add(1, Ordering::SeqCst);
                    let mut open = seen.gate.lock();
                    while !*open {
                        seen.gate_cv.wait(&mut open);
                    }
                }
                assert!(!line.starts_with(b"panic"), "handler asked to panic");
                JobResult {
                    bytes: line.to_ascii_uppercase(),
                    close: false,
                }
            }));
        }
    }

    impl ConnProtocol for SerialProto {
        fn on_data(&mut self, io: &mut Io<'_>) {
            self.seen.on_data.fetch_add(1, Ordering::SeqCst);
            self.pump(io);
        }
        fn on_eof(&mut self, io: &mut Io<'_>) {
            self.seen.on_eof.fetch_add(1, Ordering::SeqCst);
            if self.busy {
                self.half_closed = true; // the reply is still owed
            } else {
                io.abort();
            }
        }
        fn on_job_done(&mut self, io: &mut Io<'_>, result: JobResult) {
            if result.close {
                io.abort();
                return;
            }
            io.queue_write(&result.bytes);
        }
        fn on_write_flushed(&mut self, io: &mut Io<'_>) {
            self.busy = false;
            if self.half_closed {
                io.close();
            } else {
                self.pump(io);
            }
        }
    }

    type MakeProto = fn(&Arc<Seen>) -> Box<dyn ConnProtocol>;

    struct SerialHooks {
        hooks: Arc<TestHooks>,
        seen: Arc<Seen>,
        make: MakeProto,
    }

    impl ServerHooks for SerialHooks {
        fn on_accept(&self) -> Admit {
            self.hooks.open.fetch_add(1, Ordering::SeqCst);
            Admit::Serve((self.make)(&self.seen))
        }
        fn on_conn_closed(&self) {
            self.hooks.closed.fetch_add(1, Ordering::SeqCst);
        }
        fn stopped(&self) -> bool {
            self.hooks.stopped.load(Ordering::SeqCst)
        }
        fn drain_began(&self) -> bool {
            self.hooks.draining.load(Ordering::SeqCst)
        }
    }

    fn spawn_serial(workers: usize) -> (Reactor, Arc<TestHooks>, Arc<Seen>, u16) {
        spawn_with(workers, |seen| {
            Box::new(SerialProto {
                busy: false,
                half_closed: false,
                seen: Arc::clone(seen),
            })
        })
    }

    fn spawn_with(workers: usize, make: MakeProto) -> (Reactor, Arc<TestHooks>, Arc<Seen>, u16) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let hooks = TestHooks::new();
        let seen = Arc::new(Seen::default());
        let reactor = Reactor::spawn(
            vec![Listener {
                socket: listener,
                hooks: Arc::new(SerialHooks {
                    hooks: Arc::clone(&hooks),
                    seen: Arc::clone(&seen),
                    make,
                }),
            }],
            ReactorConfig { workers },
        )
        .unwrap();
        (reactor, hooks, seen, port)
    }

    pub(crate) fn connect(port: u16) -> StdTcpStream {
        let c = StdTcpStream::connect(("127.0.0.1", port)).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        c
    }

    pub(crate) fn wait_for(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn read_line(c: &mut StdTcpStream) -> Vec<u8> {
        let mut line = Vec::new();
        let mut byte = [0u8; 1];
        while c.read(&mut byte).unwrap() == 1 {
            line.push(byte[0]);
            if byte[0] == b'\n' {
                break;
            }
        }
        line
    }

    #[test]
    fn request_buffered_during_handling_needs_no_further_readiness() {
        let (reactor, hooks, seen, port) = spawn_serial(2);
        let mut c = connect(port);
        c.write_all(b"!first\n").unwrap();
        wait_for("first job to park", || {
            seen.parked.load(Ordering::SeqCst) == 1
        });
        // Arrives while the first request is in its handler: read into
        // the buffer by whichever thread is free, not dispatched yet.
        c.write_all(b"second\n").unwrap();
        wait_for("second request to be buffered", || {
            seen.on_data.load(Ordering::SeqCst) == 2
        });
        seen.open_gate();
        assert_eq!(read_line(&mut c), b"!FIRST\n");
        assert_eq!(read_line(&mut c), b"SECOND\n");
        assert_eq!(
            seen.on_data.load(Ordering::SeqCst),
            2,
            "the buffered request was served off the flush, not a new event"
        );
        stop(&reactor, &hooks);
    }

    #[test]
    fn peer_eof_during_handling_still_gets_the_reply_then_close() {
        let (reactor, hooks, seen, port) = spawn_serial(2);
        let mut c = connect(port);
        c.write_all(b"!held\n").unwrap();
        wait_for("job to park", || seen.parked.load(Ordering::SeqCst) == 1);
        c.shutdown(std::net::Shutdown::Write).unwrap();
        wait_for("EOF to be seen mid-handler", || {
            seen.on_eof.load(Ordering::SeqCst) == 1
        });
        seen.open_gate();
        let mut all = Vec::new();
        c.read_to_end(&mut all).unwrap();
        assert_eq!(all, b"!HELD\n", "reply, then the server's close");
        wait_for("slot release", || hooks.closed.load(Ordering::SeqCst) == 1);
        stop(&reactor, &hooks);
    }

    #[test]
    fn parked_handlers_leave_a_thread_for_io_and_queued_jobs_run_after() {
        // Both permits taken by parked jobs: a third connection is still
        // accepted and parsed (its job waits on the pending list), and a
        // fourth connection's EOF is still noticed.
        let (reactor, hooks, seen, port) = spawn_serial(2);
        let before = super::stats();
        let mut parked: Vec<StdTcpStream> = (0..2).map(|_| connect(port)).collect();
        for c in &mut parked {
            c.write_all(b"!park\n").unwrap();
        }
        wait_for("both permits to be taken", || {
            seen.parked.load(Ordering::SeqCst) == 2
        });
        let mut third = connect(port);
        third.write_all(b"queued\n").unwrap();
        wait_for("third connection to be parsed", || {
            seen.on_data.load(Ordering::SeqCst) == 3
        });
        drop(connect(port));
        wait_for("fourth connection's EOF", || {
            hooks.closed.load(Ordering::SeqCst) == 1
        });
        assert_eq!(hooks.open.load(Ordering::SeqCst), 4);
        seen.open_gate();
        assert_eq!(read_line(&mut third), b"QUEUED\n");
        for c in &mut parked {
            assert_eq!(read_line(c), b"!PARK\n");
        }
        let after = super::stats();
        assert!(after.jobs_on_reader >= before.jobs_on_reader + 2);
        assert!(after.jobs_queued > before.jobs_queued);
        stop(&reactor, &hooks);
        assert_eq!(hooks.closed.load(Ordering::SeqCst), 4);
    }

    /// Dispatches from `on_drain`, which no shipped protocol does: the
    /// job parks on the gate.
    struct DrainJobProto {
        seen: Arc<Seen>,
    }

    impl ConnProtocol for DrainJobProto {
        fn on_data(&mut self, io: &mut Io<'_>) {
            io.read_buf.clear();
            self.seen.on_data.fetch_add(1, Ordering::SeqCst);
        }
        fn on_drain(&mut self, io: &mut Io<'_>) {
            io.queue_write(b"draining\n");
            let seen = Arc::clone(&self.seen);
            io.dispatch(Box::new(move || {
                let mut open = seen.gate.lock();
                while !*open {
                    seen.gate_cv.wait(&mut open);
                }
                JobResult {
                    bytes: b"done\n".to_vec(),
                    close: true,
                }
            }));
        }
        fn on_job_done(&mut self, io: &mut Io<'_>, result: JobResult) {
            io.queue_write(&result.bytes);
            io.close();
        }
    }

    #[test]
    fn a_job_dispatched_by_the_drain_broadcast_does_not_hold_up_the_rest_of_it() {
        let (reactor, hooks, seen, port) = spawn_with(2, |seen| {
            Box::new(DrainJobProto {
                seen: Arc::clone(seen),
            })
        });
        let mut conns: Vec<StdTcpStream> = (0..3).map(|_| connect(port)).collect();
        for c in &mut conns {
            c.write_all(b"x").unwrap();
        }
        wait_for("all three to be installed", || {
            seen.on_data.load(Ordering::SeqCst) == 3
        });
        hooks.draining.store(true, Ordering::SeqCst);
        reactor.wake();
        // Every connection hears the drain although the first one's job
        // parks the moment it runs.
        for c in &mut conns {
            assert_eq!(read_line(c), b"draining\n");
        }
        seen.open_gate();
        for c in &mut conns {
            assert_eq!(read_line(c), b"done\n");
        }
        stop(&reactor, &hooks);
    }

    #[test]
    fn panicking_job_closes_only_its_connection() {
        let (reactor, hooks, _seen, port) = spawn_serial(2);
        let mut bad = connect(port);
        let mut good = connect(port);
        bad.write_all(b"panic\n").unwrap();
        let mut rest = Vec::new();
        bad.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "no reply, just the close");
        good.write_all(b"fine\n").unwrap();
        assert_eq!(read_line(&mut good), b"FINE\n");
        stop(&reactor, &hooks);
    }

    #[test]
    fn a_reused_index_serves_its_new_connection() {
        // Close one connection and open another: the new one reuses the
        // index under a new generation and must be served normally.
        let (reactor, hooks, _seen, port) = spawn_serial(1);
        for round in 0..50 {
            let mut c = connect(port);
            c.write_all(b"ping\n").unwrap();
            assert_eq!(read_line(&mut c), b"PING\n", "round {round}");
        }
        wait_for("every slot to be released", || {
            hooks.closed.load(Ordering::SeqCst) == 50
        });
        stop(&reactor, &hooks);
    }
}
