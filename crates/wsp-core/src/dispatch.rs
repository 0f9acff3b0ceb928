//! The shared dispatch core: one worker pool and one correlation table
//! behind every invocation pipeline in the tree.
//!
//! The paper calls WSPeer "essentially an asynchronous, event driven
//! system"; this module is the machinery that makes the synchronous
//! API a thin wrapper over the asynchronous one rather than a separate
//! code path. A [`Dispatcher`] owns a bounded work queue drained by a
//! fixed pool of workers. Every call — sync or async, locate or invoke,
//! HTTP or P2PS — is one job accounted here under a correlation token.
//! An asynchronous call queues the job and returns its [`CallHandle`];
//! a synchronous call ([`Dispatcher::run_with_token`]) runs the very
//! same job on the calling thread — same token registration, same
//! correlation scope, same counters, same poisoning — because a caller
//! that would only park until a worker finished gains nothing from the
//! hand-off but a queue hop and two thread wake-ups.
//!
//! Two design points keep the pool deadlock-free:
//!
//! * **Helping waits.** A thread blocked in [`CallHandle::wait`] (or
//!   [`Dispatcher::flush`], or a submitter facing a full queue) does
//!   not just sleep — it pops queued jobs and runs them inline. A
//!   worker that performs a nested synchronous call therefore makes
//!   progress even when every pool thread is waiting, and a full
//!   queue drains through the very threads pushing into it.
//! * **External completions.** Calls whose result arrives from the
//!   outside world (a P2PS response pipe, say) register a token and
//!   get a [`Completer`]; no worker is parked waiting for the network.
//!
//! Jobs are panic-isolated: a panicking job poisons its own handle
//! (the waiter re-panics with the message; `wait_timeout` reports it
//! as an error) and bumps the `failed` counter, but the worker thread
//! survives.

//! The token lifecycle itself — registered → completed/poisoned/
//! cancelled → taken — lives in the pure
//! [`crate::machines::correlation::CorrelationMachine`]; this module is
//! its runtime shell. Every lifecycle transition steps the machine
//! under one mutex (the machine state *is* the correlation table);
//! values and panic messages travel through per-call mailboxes the
//! effects point at. Lock order is always machine → mailbox, and
//! waiters re-check their mailbox on a short condvar timeout, so a
//! missed notify can only delay a wake, never lose one. `wsp-check`
//! exhaustively explores the machine; the tests here exercise the
//! shell around it.

use crate::error::WspError;
use crate::machines::correlation::{
    CorrelationEffect, CorrelationEvent, CorrelationMachine, CorrelationState,
};
use crate::overload::DeadlineScope;
use crate::telemetry::{self, CorrelationScope, Counter, Histogram};
use crossbeam_channel::{bounded, Receiver, Sender, TrySendError};
use parking_lot::{Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsp_simnet::Machine;

/// Sizing knobs for a [`Dispatcher`].
#[derive(Debug, Clone)]
pub struct DispatcherConfig {
    /// Fixed number of pool threads.
    pub workers: usize,
    /// Bounded queue capacity; submitters past this point help drain
    /// the queue instead of piling work up without limit.
    pub queue_capacity: usize,
}

impl Default for DispatcherConfig {
    fn default() -> Self {
        DispatcherConfig {
            workers: 4,
            queue_capacity: 256,
        }
    }
}

/// A point-in-time snapshot of a dispatcher's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatcherStats {
    /// Jobs accepted onto the queue since construction.
    pub submitted: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs that panicked (isolated; the worker survived).
    pub failed: u64,
    /// Calls cancelled before completion.
    pub cancelled: u64,
    /// Jobs shed unrun at dequeue because their propagated deadline had
    /// already expired (nobody was waiting for the answer).
    pub shed: u64,
    /// Jobs currently waiting in the queue.
    pub queue_depth: usize,
    /// Jobs currently executing (workers and helpers).
    pub in_flight: usize,
    /// Correlation-table entries still awaiting a result.
    pub pending_calls: usize,
    /// Pool size.
    pub workers: usize,
}

type BoxedFn = Box<dyn FnOnce() + Send>;

/// One queued unit of work. `enqueued_at` is set at submission while
/// telemetry is enabled; [`Inner::run_job`] then records queue-wait and
/// run time against the dispatcher's cached histograms — no extra
/// closure wrapping on the hot path.
struct Job {
    run: BoxedFn,
    enqueued_at: Option<Instant>,
    /// Shed the job unrun if this has passed by the time it is popped:
    /// the caller's propagated deadline, checked at dequeue (see
    /// [`Dispatcher::execute_with_deadline`]).
    deadline: Option<Instant>,
}

/// What a completed (or poisoned) call leaves in its mailbox. The
/// *authority* on whether mail may be read or written is the
/// correlation machine; the mailbox is dumb storage plus a condvar.
enum Mail<T> {
    Value(T),
    /// The job producing this result panicked; the message survives.
    Poison(String),
}

struct CallState<T> {
    mail: Mutex<Option<Mail<T>>>,
    cv: Condvar,
}

struct Inner {
    /// `None` once shutdown has begun; taking it disconnects workers.
    jobs_tx: Mutex<Option<Sender<Job>>>,
    jobs_rx: Receiver<Job>,
    machine: CorrelationMachine,
    /// The correlation table: the pure machine's state, stepped under
    /// this mutex. Always locked BEFORE any call's mailbox.
    calls: Mutex<CorrelationState>,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    shed: AtomicU64,
    in_flight: AtomicUsize,
    /// Queued + running jobs; [`Dispatcher::flush`] waits for zero.
    jobs_pending: AtomicUsize,
    /// How many flushers are parked on `idle_cv`. A job that ends
    /// notifies only if there is one: a notify is a system call.
    parked_flushers: Mutex<usize>,
    idle_cv: Condvar,
    workers: usize,
    /// Cached telemetry handles — recording through them is a single
    /// relaxed load when the global registry is disabled.
    queue_wait_us: Arc<Histogram>,
    run_us: Arc<Histogram>,
    queue_depth: Arc<Histogram>,
    shed_expired: Arc<Counter>,
}

/// Correlation tokens are allocated process-wide, not per dispatcher,
/// so a token doubles as a globally unambiguous correlation id in the
/// telemetry trace even when several peers share one process.
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

/// Allocate a correlation token without a dispatcher at hand — a hop
/// (the mediation gateway) that must mint an id for a request that
/// arrived without one.
pub fn next_correlation_token() -> u64 {
    NEXT_TOKEN.fetch_add(1, Ordering::Relaxed)
}

impl Inner {
    /// Pop one queued job and run it on the calling thread. The heart
    /// of the helping protocol — workers, waiters and submitters all
    /// drain the queue through this.
    fn try_run_one(&self) -> bool {
        match self.jobs_rx.try_recv() {
            Ok(job) => {
                self.run_job(job);
                true
            }
            Err(_) => false,
        }
    }

    fn run_job(&self, job: Job) {
        // Dequeue-time deadline shed: if the caller's budget ran out
        // while the job sat in the queue, nobody is waiting for the
        // answer — dropping the closure (releasing any admission permit
        // it holds) beats computing a response for a hung-up caller.
        if job.deadline.is_some_and(|d| Instant::now() >= d) {
            self.shed.fetch_add(1, Ordering::SeqCst);
            self.shed_expired.incr();
            drop(job.run);
            self.job_ended();
            return;
        }
        // One clock read serves as both queue-wait end and run start.
        let timing = job.enqueued_at.map(|enqueued_at| {
            let now = Instant::now();
            (now, now.saturating_duration_since(enqueued_at))
        });
        // Backstop isolation for fire-and-forget jobs; call-producing
        // jobs already poison their own handle before unwinding here.
        let _ = self.run_counted(timing, job.run);
    }

    /// Run one accepted job (`jobs_pending` already counts it) with the
    /// accounting every job gets, queued or caller-run: `in_flight`
    /// around it, `completed`/`failed` after it, queue-wait and run time
    /// into the cached histograms when `timing` (run start, time spent
    /// queued) is given. The panic, if any, is returned, not resumed.
    fn run_counted<R>(
        &self,
        timing: Option<(Instant, Duration)>,
        f: impl FnOnce() -> R,
    ) -> std::thread::Result<R> {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        if let Some((_, waited)) = timing {
            self.queue_wait_us.record_micros(waited);
        }
        let outcome = catch_unwind(AssertUnwindSafe(f));
        if let Some((started, _)) = timing {
            self.run_us.record_micros(started.elapsed());
        }
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        match outcome {
            Ok(_) => self.completed.fetch_add(1, Ordering::SeqCst),
            Err(_) => self.failed.fetch_add(1, Ordering::SeqCst),
        };
        self.job_ended();
        outcome
    }

    /// One job fewer is pending: wake the flushers waiting for none.
    /// A flusher holds the lock from its last look at `jobs_pending`
    /// until it is parked, so it saw this job gone or is counted here.
    fn job_ended(&self) {
        self.jobs_pending.fetch_sub(1, Ordering::SeqCst);
        if *self.parked_flushers.lock() > 0 {
            self.idle_cv.notify_all();
        }
    }

    /// Park the calling flusher until a job ends or `timeout` passes;
    /// `false`, without waiting, if nothing is pending any more.
    fn park_flusher(&self, timeout: Duration) -> bool {
        let mut parked = self.parked_flushers.lock();
        if self.jobs_pending.load(Ordering::SeqCst) == 0 {
            return false;
        }
        *parked += 1;
        self.idle_cv.wait_for(&mut parked, timeout);
        *parked -= 1;
        true
    }

    /// Step the correlation machine under its lock and return the
    /// effects. Composite operations that must write a mailbox in the
    /// same critical section lock `calls` themselves instead.
    fn step_call(&self, event: CorrelationEvent) -> Vec<CorrelationEffect> {
        self.machine.step_in_place(&mut self.calls.lock(), &event)
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_owned()
    }
}

/// Handle to one pending call, keyed by its correlation token. The
/// token is the same value carried by the matching
/// [`crate::events::DiscoveryMessageEvent`] /
/// [`crate::events::ClientMessageEvent`], so applications can pair
/// events with the handles they hold.
pub struct CallHandle<T> {
    token: u64,
    state: Arc<CallState<T>>,
    inner: Arc<Inner>,
}

impl<T: Send + 'static> CallHandle<T> {
    /// The correlation token identifying this call in events and in
    /// the dispatcher's pending-call table.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Has a result arrived (or the call been poisoned)?
    pub fn is_complete(&self) -> bool {
        self.state.mail.lock().is_some()
    }

    /// Non-blocking snapshot of the result, leaving it in place.
    pub fn try_poll(&self) -> Option<T>
    where
        T: Clone,
    {
        match &*self.state.mail.lock() {
            Some(Mail::Value(value)) => Some(value.clone()),
            _ => None,
        }
    }

    /// Block until the result arrives, helping the pool run queued
    /// jobs in the meantime (so waiting inside a worker cannot
    /// deadlock the pool). Panics if the producing job panicked.
    pub fn wait(self) -> T {
        match self.wait_until(None) {
            Ok(value) => value,
            Err(_) => unreachable!("wait_until without deadline cannot time out"),
        }
    }

    /// Like [`CallHandle::wait`] but gives up after `timeout`,
    /// returning the handle back so the caller may keep waiting or
    /// [`CallHandle::cancel`].
    pub fn wait_timeout(self, timeout: Duration) -> Result<T, CallHandle<T>> {
        self.wait_until(Some(Instant::now() + timeout))
    }

    /// Step a `Take` event through the correlation machine. Returns the
    /// value on `YieldValue`, re-panics the waiter on `PanicWaiter`
    /// (with every lock released first), and returns `None` while the
    /// call is still pending. Lock order: machine, then mailbox.
    fn try_take(&self) -> Option<T> {
        let mut calls = self.inner.calls.lock();
        let effects =
            (self.inner.machine).step_in_place(&mut calls, &CorrelationEvent::Take(self.token));
        match effects.first() {
            Some(CorrelationEffect::YieldValue(_)) => {
                let mail = self.state.mail.lock().take();
                drop(calls);
                match mail {
                    Some(Mail::Value(value)) => Some(value),
                    _ => unreachable!("machine yielded a value the mailbox never received"),
                }
            }
            Some(CorrelationEffect::PanicWaiter(_)) => {
                let mail = self.state.mail.lock().take();
                drop(calls);
                let message = match mail {
                    Some(Mail::Poison(message)) => message,
                    _ => "job panicked".to_owned(),
                };
                panic!("call {} panicked: {message}", self.token);
            }
            _ => None,
        }
    }

    fn wait_until(self, deadline: Option<Instant>) -> Result<T, CallHandle<T>> {
        loop {
            if let Some(value) = self.try_take() {
                return Ok(value);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(self);
            }
            // Help: run one queued job; only sleep when the queue is
            // empty, and then only briefly so external completions are
            // picked up promptly (and a notify racing this check is
            // recovered by the timeout).
            if !self.inner.try_run_one() {
                let mut mail = self.state.mail.lock();
                if mail.is_none() {
                    self.state.cv.wait_for(&mut mail, Duration::from_millis(5));
                }
            }
        }
    }

    /// Deadline-bounded wait that does NOT help run queued jobs: the
    /// waiter only parks on the completion condvar, so even if the
    /// awaited job itself is slow the deadline is honoured. Must be
    /// called from an application thread, not a pool worker (a worker
    /// parked here is one worker fewer to run the job it waits for).
    fn wait_until_passive(self, deadline: Instant) -> Result<T, CallHandle<T>> {
        loop {
            if let Some(value) = self.try_take() {
                return Ok(value);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(self);
            }
            let mut mail = self.state.mail.lock();
            if mail.is_none() {
                self.state.cv.wait_for(&mut mail, deadline - now);
            }
        }
    }

    /// Abandon the call. A result arriving later is dropped. Returns
    /// `false` if the call had already completed.
    pub fn cancel(self) -> bool {
        let effects = self.inner.step_call(CorrelationEvent::Cancel(self.token));
        let cancelled = effects
            .iter()
            .any(|e| matches!(e, CorrelationEffect::CountCancelled(_)));
        if cancelled {
            self.inner.cancelled.fetch_add(1, Ordering::SeqCst);
        }
        // Dropping `self` now steps a second Cancel, which the machine
        // treats as a no-op: the token is already gone.
        cancelled
    }
}

impl<T> Drop for CallHandle<T> {
    /// Dropping a handle before completion is an eager, explicit
    /// cancellation: the correlation-table entry is removed NOW — not
    /// when a late result happens to arrive, not at dispatcher
    /// teardown. An unclaimed delivered result is discarded the same
    /// way. After `wait`/`cancel` consumed the call, the machine sees
    /// an unknown token and this is a no-op.
    fn drop(&mut self) {
        let effects = self.inner.step_call(CorrelationEvent::Cancel(self.token));
        if effects
            .iter()
            .any(|e| matches!(e, CorrelationEffect::CountCancelled(_)))
        {
            self.inner.cancelled.fetch_add(1, Ordering::SeqCst);
        }
    }
}

impl<T: Send + 'static> CallHandle<Result<T, WspError>> {
    /// Deadline-bounded wait for a fallible call: the never-hang form.
    /// On timeout the call is cancelled (a late result is dropped) and
    /// a classified [`WspError::Timeout`] comes back instead of the
    /// handle — callers waiting on unreliable peers get an error they
    /// can retry or report, not a stranded thread. The fault-injection
    /// suite uses this as its watchdog.
    ///
    /// Unlike [`CallHandle::wait_timeout`] this wait does not help run
    /// queued jobs — helping could pull the slow job being watched onto
    /// this very thread and blow the deadline. Call it from application
    /// threads, not from inside a pool worker.
    pub fn wait_within(self, timeout: Duration) -> Result<T, WspError> {
        let millis = timeout.as_millis() as u64;
        match self.wait_until_passive(Instant::now() + timeout) {
            Ok(result) => result,
            Err(handle) => {
                handle.cancel();
                Err(WspError::Timeout {
                    what: "call deadline",
                    millis,
                })
            }
        }
    }
}

impl<T> std::fmt::Debug for CallHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CallHandle")
            .field("token", &self.token)
            .finish()
    }
}

/// The completion side of an externally-resolved call (see
/// [`Dispatcher::register`]). Single-shot: completing consumes it.
pub struct Completer<T> {
    token: u64,
    state: Arc<CallState<T>>,
    inner: Arc<Inner>,
}

impl<T: Send + 'static> Completer<T> {
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Deliver the result. Returns `false` if the call was cancelled
    /// or already completed (the value is dropped in that case).
    pub fn complete(self, value: T) -> bool {
        // The mailbox is written while still holding the machine lock,
        // so a waiter whose Take was answered with YieldValue always
        // finds its mail.
        let mut calls = self.inner.calls.lock();
        let effects =
            (self.inner.machine).step_in_place(&mut calls, &CorrelationEvent::Complete(self.token));
        if effects
            .iter()
            .any(|e| matches!(e, CorrelationEffect::DeliverValue(_)))
        {
            let mut mail = self.state.mail.lock();
            *mail = Some(Mail::Value(value));
            self.state.cv.notify_all();
            true
        } else {
            false
        }
    }

    fn poison(self, message: String) {
        let mut calls = self.inner.calls.lock();
        let effects =
            (self.inner.machine).step_in_place(&mut calls, &CorrelationEvent::Poison(self.token));
        if effects
            .iter()
            .any(|e| matches!(e, CorrelationEffect::DeliverPoison(_)))
        {
            let mut mail = self.state.mail.lock();
            *mail = Some(Mail::Poison(message));
            self.state.cv.notify_all();
        }
    }
}

impl<T> std::fmt::Debug for Completer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Completer")
            .field("token", &self.token)
            .finish()
    }
}

/// The shared dispatch core; see the module docs. One per [`crate::Peer`],
/// shared by its `Client`, `Server` and attached bindings.
pub struct Dispatcher {
    inner: Arc<Inner>,
    worker_handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Dispatcher {
    pub fn new(config: DispatcherConfig) -> Arc<Dispatcher> {
        let workers = config.workers.max(1);
        let (jobs_tx, jobs_rx) = bounded::<Job>(config.queue_capacity.max(1));
        let inner = Arc::new(Inner {
            jobs_tx: Mutex::new(Some(jobs_tx)),
            jobs_rx,
            machine: CorrelationMachine,
            calls: Mutex::new(CorrelationMachine.initial()),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            jobs_pending: AtomicUsize::new(0),
            parked_flushers: Mutex::new(0),
            idle_cv: Condvar::new(),
            workers,
            queue_wait_us: telemetry::global().histogram("dispatch.queue_wait_us"),
            run_us: telemetry::global().histogram("dispatch.run_us"),
            queue_depth: telemetry::global().histogram("dispatch.queue_depth"),
            shed_expired: telemetry::global().counter("dispatch.shed_expired"),
        });
        let mut handles = Vec::with_capacity(workers);
        for index in 0..workers {
            let inner = inner.clone();
            let handle = std::thread::Builder::new()
                .name(format!("wsp-worker-{index}"))
                .spawn(move || {
                    while let Ok(job) = inner.jobs_rx.recv() {
                        inner.run_job(job);
                    }
                })
                .expect("spawn dispatcher worker");
            handles.push(handle);
        }
        Arc::new(Dispatcher {
            inner,
            worker_handles: Mutex::new(handles),
        })
    }

    pub fn with_defaults() -> Arc<Dispatcher> {
        Dispatcher::new(DispatcherConfig::default())
    }

    /// Allocate a correlation token. Tokens are unique process-wide
    /// across locates, invokes and binding-internal requests, so one
    /// table correlates the whole peer — and the same value serves as
    /// the unambiguous correlation id in the telemetry trace.
    pub fn next_token(&self) -> u64 {
        next_correlation_token()
    }

    /// Submit `f` under a fresh token; its return value completes the
    /// returned handle.
    pub fn submit<T, F>(&self, f: F) -> Result<CallHandle<T>, WspError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.submit_with_token(self.next_token(), f)
    }

    /// Submit `f` under a caller-allocated token (use
    /// [`Dispatcher::next_token`]), so events fired inside `f` can
    /// carry the same token the handle exposes.
    pub fn submit_with_token<T, F>(&self, token: u64, f: F) -> Result<CallHandle<T>, WspError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (handle, completer) = self.register::<T>(token);
        let job: BoxedFn = Box::new(move || {
            // The token doubles as the correlation id: every span the
            // job records (directly or via bindings) carries it.
            let _correlation = CorrelationScope::enter(token);
            match catch_unwind(AssertUnwindSafe(f)) {
                Ok(value) => {
                    completer.complete(value);
                }
                Err(payload) => {
                    let message = panic_message(payload);
                    completer.poison(message.clone());
                    // Re-raise so run_job counts the failure; the worker
                    // catches it again and survives.
                    std::panic::panic_any(message);
                }
            }
        });
        match self.enqueue(job, true, None) {
            Ok(()) => Ok(handle),
            // On failure `handle` drops here: its Cancel event removes
            // the just-registered correlation entry eagerly.
            Err(e) => Err(e),
        }
    }

    /// The synchronous form of [`Dispatcher::submit_with_token`]: run
    /// `f` as the job of call `token` on the calling thread and return
    /// its value. Everything a queued job gets, this one gets — the
    /// token sits in the correlation table while `f` runs, `f` runs
    /// inside the token's [`CorrelationScope`], the job moves
    /// `submitted`, `in_flight`, `completed`/`failed` and
    /// `dispatch.run_us` (its `dispatch.queue_wait_us` sample is 0), and
    /// a panic poisons the call and is re-raised with the message
    /// [`CallHandle::wait`] raises. What it skips is the hand-off: no
    /// box, no queue slot, no worker wake-up, no parked waiter — and so
    /// no `Send + 'static` bound on `f`. A shut-down dispatcher refuses
    /// it with the error `submit` gives.
    pub fn run_with_token<T>(&self, token: u64, f: impl FnOnce() -> T) -> Result<T, WspError> {
        let inner = &self.inner;
        if inner.jobs_tx.lock().is_none() {
            return Err(WspError::Dispatch("dispatcher is shut down".into()));
        }
        inner.step_call(CorrelationEvent::Register(token));
        inner.jobs_pending.fetch_add(1, Ordering::SeqCst);
        inner.submitted.fetch_add(1, Ordering::SeqCst);
        let timing = telemetry::global()
            .is_enabled()
            .then(|| (Instant::now(), Duration::ZERO));
        let outcome = inner.run_counted(timing, || {
            let _correlation = CorrelationScope::enter(token);
            f()
        });
        // No handle to this token exists, so nothing can have cancelled
        // or taken it: the delivery and the take are one critical
        // section and the value never visits a mailbox.
        let delivery = match &outcome {
            Ok(_) => CorrelationEvent::Complete(token),
            Err(_) => CorrelationEvent::Poison(token),
        };
        {
            let mut calls = inner.calls.lock();
            for event in [delivery, CorrelationEvent::Take(token)] {
                inner.machine.step_in_place(&mut calls, &event);
            }
            debug_assert_eq!(calls.phase(token), None, "caller-run call left the table");
        }
        match outcome {
            Ok(value) => Ok(value),
            Err(payload) => panic!("call {token} panicked: {}", panic_message(payload)),
        }
    }

    /// Fire-and-forget: run `f` on the pool with no handle (server-side
    /// request serving, event pumping). Panics are isolated and counted.
    /// The submitter's correlation id (if any) is inherited, so spans
    /// recorded by fan-out work still name the originating call.
    pub fn execute<F>(&self, f: F) -> Result<(), WspError>
    where
        F: FnOnce() + Send + 'static,
    {
        self.execute_with_deadline(None, f)
    }

    /// [`Dispatcher::execute`] with a propagated call deadline: if the
    /// deadline passes while the job is still queued it is shed unrun
    /// (counted in [`DispatcherStats::shed`] and the
    /// `dispatch.shed_expired` telemetry counter); if the job does run,
    /// it runs inside a [`DeadlineScope`] so nested work can see the
    /// remaining budget. The server-side half of deadline propagation.
    pub fn execute_with_deadline<F>(&self, deadline: Option<Instant>, f: F) -> Result<(), WspError>
    where
        F: FnOnce() + Send + 'static,
    {
        let parent = telemetry::current_correlation();
        self.enqueue(
            Box::new(move || {
                let _correlation = CorrelationScope::enter(parent);
                let _deadline = DeadlineScope::enter(deadline);
                f()
            }),
            true,
            deadline,
        )
    }

    /// Non-blocking submit: errors instead of helping when the queue is
    /// full — the backpressure-sensitive entry point.
    pub fn try_submit<T, F>(&self, f: F) -> Result<CallHandle<T>, WspError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let token = self.next_token();
        let (handle, completer) = self.register::<T>(token);
        let job: BoxedFn = Box::new(move || {
            let _correlation = CorrelationScope::enter(token);
            match catch_unwind(AssertUnwindSafe(f)) {
                Ok(value) => {
                    completer.complete(value);
                }
                Err(payload) => {
                    let message = panic_message(payload);
                    completer.poison(message.clone());
                    std::panic::panic_any(message);
                }
            }
        });
        match self.enqueue(job, false, None) {
            Ok(()) => Ok(handle),
            Err(e) => Err(e),
        }
    }

    fn enqueue(
        &self,
        run: BoxedFn,
        help_when_full: bool,
        deadline: Option<Instant>,
    ) -> Result<(), WspError> {
        // Timestamp for queue-wait/run-time measurement only while
        // telemetry is on: a disabled registry costs nothing but this
        // one check.
        let mut job = Job {
            run,
            enqueued_at: telemetry::global().is_enabled().then(Instant::now),
            deadline,
        };
        loop {
            let Some(tx) = self.inner.jobs_tx.lock().clone() else {
                return Err(WspError::Dispatch("dispatcher is shut down".into()));
            };
            self.inner.jobs_pending.fetch_add(1, Ordering::SeqCst);
            match tx.try_send(job) {
                Ok(()) => {
                    self.inner.submitted.fetch_add(1, Ordering::SeqCst);
                    self.inner
                        .queue_depth
                        .record(self.inner.jobs_rx.len() as u64);
                    return Ok(());
                }
                Err(TrySendError::Full(returned)) => {
                    self.inner.jobs_pending.fetch_sub(1, Ordering::SeqCst);
                    if !help_when_full {
                        return Err(WspError::Dispatch(format!(
                            "dispatch queue is full ({} jobs)",
                            self.inner.jobs_rx.len()
                        )));
                    }
                    // Backpressure: drain one job on this thread, then
                    // retry. The queue being full guarantees work exists.
                    job = returned;
                    if !self.inner.try_run_one() {
                        std::thread::yield_now();
                    }
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.inner.jobs_pending.fetch_sub(1, Ordering::SeqCst);
                    return Err(WspError::Dispatch("dispatcher is shut down".into()));
                }
            }
        }
    }

    /// Register an externally-completed call: the result will be
    /// delivered through the returned [`Completer`] (e.g. by a binding
    /// when a response arrives off the network), not by a pool job.
    pub fn register<T: Send + 'static>(&self, token: u64) -> (CallHandle<T>, Completer<T>) {
        let state = Arc::new(CallState {
            mail: Mutex::new(None),
            cv: Condvar::new(),
        });
        self.inner.step_call(CorrelationEvent::Register(token));
        (
            CallHandle {
                token,
                state: state.clone(),
                inner: self.inner.clone(),
            },
            Completer {
                token,
                state,
                inner: self.inner.clone(),
            },
        )
    }

    /// Block until every job submitted so far has finished, helping run
    /// them. The barrier the tests use instead of sleep-and-poll loops.
    pub fn flush(&self) {
        loop {
            if self.inner.jobs_pending.load(Ordering::SeqCst) == 0 {
                return;
            }
            if !self.inner.try_run_one() && !self.inner.park_flusher(Duration::from_millis(5)) {
                return;
            }
        }
    }

    /// [`flush`](Dispatcher::flush) with a deadline: block until
    /// everything submitted so far has finished or `timeout` elapses.
    /// Returns `true` when the queue drained in time — the building
    /// block of graceful drain. Unlike `flush` this does NOT help run
    /// jobs: a job that never finishes must not capture the draining
    /// thread past its deadline, so the wait stays observational.
    pub fn flush_within(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.inner.jobs_pending.load(Ordering::SeqCst) == 0 {
                return true;
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            if !(self.inner).park_flusher(remaining.min(Duration::from_millis(5))) {
                return true;
            }
        }
    }

    /// Run one queued job on the calling thread, if any is waiting.
    pub fn try_run_one(&self) -> bool {
        self.inner.try_run_one()
    }

    /// Tokens still awaiting results (the live correlation table).
    pub fn pending_tokens(&self) -> Vec<u64> {
        self.inner.calls.lock().table_tokens()
    }

    /// Jobs queued and not yet picked up — [`DispatcherStats::queue_depth`]
    /// alone, for per-request callers (admission) that must not pay for
    /// the whole snapshot.
    pub fn queue_depth(&self) -> usize {
        self.inner.jobs_rx.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DispatcherStats {
        let pending_calls = self.pending_tokens().len();
        DispatcherStats {
            submitted: self.inner.submitted.load(Ordering::SeqCst),
            completed: self.inner.completed.load(Ordering::SeqCst),
            failed: self.inner.failed.load(Ordering::SeqCst),
            cancelled: self.inner.cancelled.load(Ordering::SeqCst),
            shed: self.inner.shed.load(Ordering::SeqCst),
            queue_depth: self.inner.jobs_rx.len(),
            in_flight: self.inner.in_flight.load(Ordering::SeqCst),
            pending_calls,
            workers: self.inner.workers,
        }
    }
}

impl Drop for Dispatcher {
    fn drop(&mut self) {
        // Disconnect the queue; workers drain remaining jobs and exit.
        self.inner.jobs_tx.lock().take();
        let me = std::thread::current().id();
        for handle in self.worker_handles.lock().drain(..) {
            // A job may own the last reference to the dispatcher (a
            // binding's serve closure outliving its peer), so this can
            // run on a worker — which cannot join itself; it exits on
            // its own once the job returns to the disconnected queue.
            if handle.thread().id() != me {
                let _ = handle.join();
            }
        }
    }
}

impl std::fmt::Debug for Dispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dispatcher")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn small() -> Arc<Dispatcher> {
        Dispatcher::new(DispatcherConfig {
            workers: 2,
            queue_capacity: 8,
        })
    }

    #[test]
    fn submit_and_wait_round_trip() {
        let d = small();
        let handle = d.submit(|| 6 * 7).unwrap();
        let token = handle.token();
        assert_eq!(handle.wait(), 42);
        assert!(!d.pending_tokens().contains(&token));
        let stats = d.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn tokens_are_unique_and_tracked() {
        let d = small();
        let gate = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let gate = gate.clone();
                d.submit(move || while !gate.load(Ordering::SeqCst) {})
                    .unwrap()
            })
            .collect();
        let mut tokens: Vec<u64> = handles.iter().map(|h| h.token()).collect();
        tokens.sort_unstable();
        tokens.dedup();
        assert_eq!(tokens.len(), 4, "tokens must be unique");
        let pending = d.pending_tokens();
        for token in &tokens {
            assert!(
                pending.contains(token),
                "unfinished call {token} must be in the table"
            );
        }
        gate.store(true, Ordering::SeqCst);
        for h in handles {
            h.wait();
        }
        assert!(d.pending_tokens().is_empty());
    }

    #[test]
    fn wait_timeout_returns_handle_then_result() {
        let d = small();
        let (handle, completer) = d.register::<u32>(d.next_token());
        let handle = match handle.wait_timeout(Duration::from_millis(30)) {
            Err(handle) => handle,
            Ok(_) => panic!("nothing completed it yet"),
        };
        assert!(completer.complete(7));
        assert_eq!(handle.wait(), 7);
    }

    #[test]
    fn wait_within_times_out_with_classified_error_and_cancels() {
        let d = small();
        let (handle, completer) = d.register::<Result<u32, WspError>>(d.next_token());
        let err = handle
            .wait_within(Duration::from_millis(20))
            .expect_err("nothing will complete this call");
        assert!(matches!(err, WspError::Timeout { millis: 20, .. }));
        // The timed-out call was cancelled: a late completion is dropped.
        assert!(!completer.complete(Ok(5)));
        assert_eq!(d.stats().cancelled, 1);
        // And a call that does complete comes back as its own result.
        let ok = d.submit(|| Ok::<u32, WspError>(3)).unwrap();
        assert_eq!(ok.wait_within(Duration::from_secs(5)).unwrap(), 3);
    }

    #[test]
    fn cancel_beats_late_completion() {
        let d = small();
        let (handle, completer) = d.register::<u32>(d.next_token());
        assert!(handle.cancel());
        assert!(!completer.complete(9), "completion after cancel is dropped");
        assert_eq!(d.stats().cancelled, 1);
    }

    #[test]
    fn dropping_a_pending_handle_eagerly_removes_its_table_entry() {
        let d = small();
        let (handle, completer) = d.register::<u32>(d.next_token());
        let token = handle.token();
        assert_eq!(d.pending_tokens(), vec![token]);
        // Dropping the handle (no wait, no explicit cancel) is an
        // eager Cancel: the entry leaves the table NOW, and counts as
        // a cancellation.
        drop(handle);
        assert!(
            d.pending_tokens().is_empty(),
            "entry must not linger until a late result or teardown"
        );
        assert_eq!(d.stats().cancelled, 1);
        assert_eq!(d.stats().pending_calls, 0);
        // A late completion is dropped, exactly like an explicit cancel.
        assert!(!completer.complete(99));
    }

    #[test]
    fn dropping_a_completed_but_unclaimed_handle_leaves_no_residue() {
        let d = small();
        let (handle, completer) = d.register::<u32>(d.next_token());
        assert!(completer.complete(5));
        // Completed, never taken: dropping discards the unclaimed
        // result without counting a cancellation.
        drop(handle);
        assert!(d.pending_tokens().is_empty());
        assert_eq!(d.stats().cancelled, 0);
    }

    #[test]
    fn panicking_job_poisons_only_its_own_handle() {
        let d = small();
        let bad = d.submit(|| -> u32 { panic!("deliberate") }).unwrap();
        let good = d.submit(|| 11u32).unwrap();
        assert_eq!(good.wait(), 11, "pool survives a panicking job");
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| bad.wait()));
        assert!(result.is_err(), "waiting on the poisoned call re-panics");
        assert_eq!(d.stats().failed, 1);
    }

    #[test]
    fn nested_sync_call_from_worker_does_not_deadlock() {
        // Saturate a 1-worker pool with a job that itself submits and
        // waits — only the helping wait lets this finish.
        let d = Dispatcher::new(DispatcherConfig {
            workers: 1,
            queue_capacity: 8,
        });
        let inner_d = d.clone();
        let outer = d
            .submit(move || {
                let inner = inner_d.submit(|| 5u32).unwrap();
                inner.wait() + 1
            })
            .unwrap();
        assert_eq!(outer.wait(), 6);
    }

    /// What one finished call leaves behind in the books.
    fn delta(before: DispatcherStats, after: DispatcherStats) -> [u64; 5] {
        [
            after.submitted - before.submitted,
            after.completed - before.completed,
            after.failed - before.failed,
            after.cancelled - before.cancelled,
            (after.pending_calls + after.in_flight + after.queue_depth) as u64,
        ]
    }

    #[test]
    fn caller_run_job_is_booked_exactly_like_a_queued_one() {
        telemetry::global().set_enabled(true);
        let d = small();
        // What the job can see of itself, either way: its token in the
        // correlation table and as the correlation scope, one job in
        // flight.
        let probe = |d: &Arc<Dispatcher>| {
            let d = d.clone();
            move || {
                (
                    d.pending_tokens(),
                    telemetry::current_correlation(),
                    d.stats().in_flight,
                )
            }
        };

        let start = d.stats();
        let handle = d.submit_with_token(d.next_token(), probe(&d)).unwrap();
        let queued_token = handle.token();
        let queued_saw = handle.wait();
        let queued = d.stats();

        let waits_before = d.inner.queue_wait_us.count();
        let runs_before = d.inner.run_us.count();
        let caller_token = d.next_token();
        let caller_thread = std::thread::current().id();
        let mut ran_on = None;
        let caller_saw = d
            .run_with_token(caller_token, || {
                ran_on = Some(std::thread::current().id());
                probe(&d)()
            })
            .unwrap();
        let caller = d.stats();

        assert_eq!(ran_on, Some(caller_thread), "no hand-off");
        assert_eq!(queued_saw, (vec![queued_token], queued_token, 1));
        assert_eq!(caller_saw, (vec![caller_token], caller_token, 1));
        assert_eq!(delta(start, queued), delta(queued, caller));
        assert_eq!(delta(queued, caller), [1, 1, 0, 0, 0]);
        // The caller-run job still leaves both timing samples (the
        // global histograms are shared with parallel tests: at least).
        assert!(d.inner.queue_wait_us.count() > waits_before);
        assert!(d.inner.run_us.count() > runs_before);
    }

    #[test]
    fn caller_run_panic_poisons_exactly_like_a_queued_one() {
        let d = small();
        let queued_token = d.next_token();
        let bad = d
            .submit_with_token(queued_token, || -> u32 { panic!("deliberate") })
            .unwrap();
        let queued = catch_unwind(AssertUnwindSafe(|| bad.wait())).unwrap_err();
        let after_queued = d.stats();

        let caller_token = d.next_token();
        let caller = catch_unwind(AssertUnwindSafe(|| {
            d.run_with_token(caller_token, || -> u32 { panic!("deliberate") })
        }))
        .unwrap_err();
        let after_caller = d.stats();

        assert_eq!(
            panic_message(queued),
            format!("call {queued_token} panicked: deliberate")
        );
        assert_eq!(
            panic_message(caller),
            format!("call {caller_token} panicked: deliberate")
        );
        assert_eq!(after_queued.failed, 1);
        assert_eq!(delta(after_queued, after_caller), [1, 0, 1, 0, 0]);
        assert_eq!(telemetry::current_correlation(), 0, "scope unwound");
        // The dispatcher is unharmed either way.
        assert_eq!(d.run_with_token(d.next_token(), || 7).unwrap(), 7);
    }

    #[test]
    fn nested_caller_run_call_inside_the_only_worker_completes() {
        let d = Dispatcher::new(DispatcherConfig {
            workers: 1,
            queue_capacity: 1,
        });
        let inner_d = d.clone();
        let outer = d
            .submit(move || {
                let token = inner_d.next_token();
                inner_d.run_with_token(token, || 5u32).unwrap() + 1
            })
            .unwrap();
        assert_eq!(outer.wait(), 6);
        assert_eq!(d.stats().completed, 2);
    }

    #[test]
    fn shut_down_dispatcher_refuses_both_forms_with_the_same_error() {
        let d = small();
        d.inner.jobs_tx.lock().take();
        let queued = d.submit(|| 1u32).unwrap_err().to_string();
        let ran = std::cell::Cell::new(false);
        let caller = d
            .run_with_token(d.next_token(), || ran.set(true))
            .unwrap_err()
            .to_string();
        assert_eq!(queued, caller);
        assert!(caller.contains("shut down"), "{caller}");
        assert!(!ran.get(), "a refused job never runs");
        assert_eq!(d.stats().submitted, 0);
        assert!(d.pending_tokens().is_empty());
    }

    #[test]
    fn flush_is_a_barrier() {
        let d = small();
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let counter = counter.clone();
            d.execute(move || {
                std::thread::sleep(Duration::from_millis(1));
                counter.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        d.flush();
        assert_eq!(counter.load(Ordering::SeqCst), 32);
        assert_eq!(d.stats().queue_depth, 0);
    }

    /// A job that ends notifies only a flusher it can count; the one
    /// parked while the last job still runs is counted, and let go.
    #[test]
    fn a_flusher_parked_behind_the_last_job_is_woken_by_it() {
        let d = small();
        let (release, held) = std::sync::mpsc::channel::<()>();
        d.execute(move || held.recv().expect("released, not dropped"))
            .unwrap();
        let flusher = {
            let d = d.clone();
            std::thread::spawn(move || d.flush_within(Duration::from_secs(30)))
        };
        // The job cannot end before it is released, so the flusher has
        // nothing to do but park; wait until it is seen parked.
        while *d.inner.parked_flushers.lock() == 0 {
            std::thread::yield_now();
        }
        assert_eq!(d.stats().completed, 0);
        release.send(()).unwrap();
        assert!(flusher.join().unwrap(), "the pool went idle in time");
        assert_eq!(*d.inner.parked_flushers.lock(), 0);
        assert_eq!(d.stats().completed, 1);
    }

    #[test]
    fn try_submit_reports_backpressure() {
        let d = Dispatcher::new(DispatcherConfig {
            workers: 1,
            queue_capacity: 2,
        });
        let gate = Arc::new(AtomicBool::new(false));
        // One job occupies the worker; fill the queue behind it.
        let blocker = {
            let gate = gate.clone();
            d.submit(move || while !gate.load(Ordering::SeqCst) {})
                .unwrap()
        };
        let mut queued = Vec::new();
        let mut rejected = 0;
        for n in 0..10u32 {
            match d.try_submit(move || n) {
                Ok(handle) => queued.push(handle),
                Err(WspError::Dispatch(why)) => {
                    assert!(why.contains("full"), "unexpected reason: {why}");
                    rejected += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(rejected > 0, "a 2-slot queue cannot absorb 10 jobs");
        gate.store(true, Ordering::SeqCst);
        blocker.wait();
        for handle in queued {
            handle.wait();
        }
    }

    #[test]
    fn blocking_submit_helps_past_a_full_queue() {
        let d = Dispatcher::new(DispatcherConfig {
            workers: 1,
            queue_capacity: 1,
        });
        let gate = Arc::new(AtomicBool::new(false));
        let blocker = {
            let gate = gate.clone();
            d.submit(move || while !gate.load(Ordering::SeqCst) {})
                .unwrap()
        };
        gate.store(true, Ordering::SeqCst);
        // These submits may find the queue full and must help instead
        // of deadlocking.
        let handles: Vec<_> = (0..16).map(|n| d.submit(move || n).unwrap()).collect();
        blocker.wait();
        let sum: i32 = handles.into_iter().map(|h| h.wait()).sum();
        assert_eq!(sum, (0..16).sum::<i32>());
    }

    #[test]
    fn expired_deadline_job_is_shed_at_dequeue() {
        // One worker, pinned by a blocker while a deadline job waits in
        // the queue past its budget: the handler must never run.
        let d = Dispatcher::new(DispatcherConfig {
            workers: 1,
            queue_capacity: 8,
        });
        let gate = Arc::new(AtomicBool::new(false));
        let blocker = {
            let gate = gate.clone();
            d.submit(move || while !gate.load(Ordering::SeqCst) {})
                .unwrap()
        };
        let ran = Arc::new(AtomicBool::new(false));
        let deadline = Instant::now() + Duration::from_millis(20);
        {
            let ran = ran.clone();
            d.execute_with_deadline(Some(deadline), move || {
                ran.store(true, Ordering::SeqCst);
            })
            .unwrap();
        }
        // Let the deadline expire while the job is still queued.
        std::thread::sleep(Duration::from_millis(40));
        gate.store(true, Ordering::SeqCst);
        blocker.wait();
        d.flush();
        assert!(
            !ran.load(Ordering::SeqCst),
            "expired job must be shed, not run"
        );
        let stats = d.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.queue_depth, 0, "shed jobs leave the queue");
    }

    #[test]
    fn live_deadline_job_runs_inside_a_deadline_scope() {
        let d = small();
        let deadline = Instant::now() + Duration::from_secs(30);
        let seen = Arc::new(Mutex::new(None));
        {
            let seen = seen.clone();
            d.execute_with_deadline(Some(deadline), move || {
                *seen.lock() = Some(crate::overload::current_deadline());
            })
            .unwrap();
        }
        d.flush();
        assert_eq!(
            *seen.lock(),
            Some(Some(deadline)),
            "the job observes its propagated deadline"
        );
        assert_eq!(d.stats().shed, 0);
    }

    #[test]
    fn last_reference_dropped_inside_a_job_does_not_join_its_own_worker() {
        let dispatcher = small();
        let (done_tx, done_rx) = crossbeam_channel::unbounded::<()>();
        let (go_tx, go_rx) = crossbeam_channel::unbounded::<()>();
        let owned = dispatcher.clone();
        dispatcher
            .execute(move || {
                go_rx.recv().unwrap(); // until the test's reference is gone
                drop(owned);
                done_tx.send(()).unwrap();
            })
            .unwrap();
        drop(dispatcher);
        go_tx.send(()).unwrap();
        done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("drop on the worker returned");
    }

    #[test]
    fn shutdown_rejects_new_work_but_finishes_queued() {
        let counter = Arc::new(AtomicUsize::new(0));
        let d = small();
        for _ in 0..8 {
            let counter = counter.clone();
            d.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        drop(d);
        assert_eq!(
            counter.load(Ordering::SeqCst),
            8,
            "drop drains the queue before joining"
        );
    }
}
