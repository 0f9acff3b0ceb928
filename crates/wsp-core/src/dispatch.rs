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
//!   not just sleep — it pops queued jobs and runs them inline, and a
//!   push that finds no idle worker wakes it. A worker that performs a
//!   nested call therefore makes progress even when every pool thread
//!   is waiting, and a full queue drains through the very threads
//!   pushing into it.
//! * **External completions.** Calls whose result arrives from the
//!   outside world (a P2PS response pipe, say) register a token and
//!   get a [`Completer`]; no worker is parked waiting for the network.
//!
//! Jobs are panic-isolated: a panicking job poisons its own handle
//! (the waiter re-panics with the message; `wait_timeout` reports it
//! as an error) and bumps the `failed` counter, but the worker thread
//! survives.
//!
//! Every wait sleeps until the event that ends it, or the caller's own
//! deadline, and on nothing else. A waiting thread leaves its
//! [`Thread`] where that event will find it, looks once more, then
//! parks: a push wakes one idle worker, else one helping waiter (which
//! runs a job first); a completion or poison wakes that call's waiter;
//! the job that leaves none pending wakes the flushers; closing the
//! queue wakes the idle workers to drain it and exit.
//!
//! The token lifecycle itself — registered → completed/poisoned/
//! cancelled → taken — lives in the pure
//! [`crate::machines::correlation::CorrelationMachine`]; this module is
//! its runtime shell. Every lifecycle transition steps the machine
//! under one mutex (the machine state *is* the correlation table), into
//! an effect buffer kept under the same mutex; values and panic
//! messages travel through per-call mailboxes the effects point at.
//! Lock order is always machine → mailbox.
//! `wsp-check` exhaustively explores the machine; the tests here
//! exercise the shell around it.

use crate::error::WspError;
use crate::machines::correlation::{
    CorrelationEffect, CorrelationEvent, CorrelationMachine, CorrelationState,
};
use crate::overload::{Deadline, DeadlineScope};
use crate::telemetry::clock::{self, ClockScope, VirtualClock};
use crate::telemetry::{self, CorrelationScope, Counter, Histogram};
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, Thread};
use std::time::{Duration, Instant};
use wsp_p2ps::thread_driver;
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

/// A job gets the books of its own run, to settle before it hands a
/// result to anyone (see [`Settle`]).
type BoxedFn = Box<dyn FnOnce(&Settle<'_>) + Send>;

/// The books of one running job: `in_flight` back down, `completed` or
/// `failed` up, its run time recorded. Settled once — by a call's job
/// just before it delivers its value or poison, so whoever observes
/// the outcome through the handle also observes it counted; by the
/// dispatcher once any other job has returned or unwound.
struct Settle<'a> {
    inner: &'a Inner,
    started: Option<Instant>,
    settled: Cell<bool>,
}

impl Settle<'_> {
    fn settle(&self, ok: bool) {
        if self.settled.replace(true) {
            return;
        }
        if let Some(started) = self.started {
            self.inner.run_us.record_since(started);
        }
        self.inner.in_flight.fetch_sub(1, Ordering::SeqCst);
        let outcome = if ok {
            &self.inner.completed
        } else {
            &self.inner.failed
        };
        outcome.fetch_add(1, Ordering::SeqCst);
    }
}

/// The job of call `token`: `f` inside the token's correlation scope
/// (the token doubles as the correlation id, so every span the job
/// records, directly or via bindings, carries it), then its outcome
/// settled and delivered — the value, or the panic's message as
/// poison. The panic stops here; the worker survives it.
fn call_job<T, F>(token: u64, completer: Completer<T>, f: F) -> BoxedFn
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    Box::new(move |settle: &Settle<'_>| {
        let _correlation = CorrelationScope::enter(token);
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(value) => {
                settle.settle(true);
                completer.complete(value);
            }
            Err(payload) => {
                settle.settle(false);
                completer.poison(panic_message(payload));
            }
        }
    })
}

/// One queued unit of work. `enqueued_at` is set at submission while
/// telemetry is enabled; [`Inner::run_job`] then records queue-wait and
/// run time against the dispatcher's cached histograms — no extra
/// closure wrapping on the hot path.
struct Job {
    run: BoxedFn,
    enqueued_at: Option<Instant>,
    /// Shed the job unrun if this has passed by the time it is popped:
    /// the caller's propagated deadline, checked at dequeue (see
    /// [`Dispatcher::try_execute`]).
    deadline: Option<Deadline>,
    /// The submitter's clock, for the dequeue check and the job alike.
    clock: Option<VirtualClock>,
}

/// A job with no handle: `f` under the submitter's correlation id,
/// inside a [`DeadlineScope`] of `deadline`.
fn scoped_job(deadline: Option<Deadline>, f: impl FnOnce() + Send + 'static) -> BoxedFn {
    let parent = telemetry::current_correlation();
    Box::new(move |_: &Settle<'_>| {
        let _correlation = CorrelationScope::enter(parent);
        let _deadline = DeadlineScope::enter(deadline.map(|d| d.0));
        f()
    })
}

/// What a completed (or poisoned) call leaves in its mailbox. The
/// *authority* on whether mail may be read or written is the
/// correlation machine; the mailbox is dumb storage.
enum Mail<T> {
    Value(T),
    /// The job producing this result panicked; the message survives.
    Poison(String),
}

/// One call's mailbox, and the thread parked until mail arrives.
struct CallState<T> {
    mail: Option<Mail<T>>,
    waiter: Option<Thread>,
}

/// The jobs and the threads parked for them, under one lock.
#[derive(Default)]
struct Queue {
    /// At most `capacity` jobs, oldest first.
    jobs: VecDeque<Job>,
    /// Workers with nothing to run; a push wakes one.
    idle: Vec<Thread>,
    /// Idle workers whose slot is lent ([`Dispatcher::try_lend`]).
    lent: Vec<Thread>,
    /// Parked helping waiters; a push that finds no idle worker wakes one.
    helpers: Vec<Thread>,
}

/// Take `me` off a list of parked threads; `false` if its waker already
/// did.
fn unlist(list: &mut Vec<Thread>, me: &Thread) -> bool {
    let found = list.iter().position(|thread| thread.id() == me.id());
    found.map(|at| list.swap_remove(at)).is_some()
}

struct Inner {
    queue: Mutex<Queue>,
    capacity: usize,
    /// Set under `queue`'s lock: a worker cannot miss it between its
    /// look at the queue and its park, and a caller-run call reads it
    /// without the lock.
    closed: AtomicBool,
    /// The correlation table, stepped under this mutex. Always locked
    /// BEFORE any call's mailbox.
    calls: Mutex<CallTable>,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    shed: AtomicU64,
    in_flight: AtomicUsize,
    /// Jobs running on workers, and lent slots.
    #[cfg(debug_assertions)]
    slots: std::sync::atomic::AtomicIsize,
    /// Queued + running jobs; [`Dispatcher::flush`] waits for zero.
    jobs_pending: AtomicUsize,
    /// Parked flushers; the job that leaves none pending wakes them.
    flushers: Mutex<Vec<Thread>>,
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

thread_local! {
    /// Whether this thread runs a job: a worker's, a helper's or a lent one.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Unpark `thread` — a completed call's waiter, the worker a pushed job
/// is handed to — once this thread holds no P2PS peer's claim: the wake
/// rule of [`thread_driver`]. On one CPU the woken thread would run at
/// once and find the peer still held.
fn wake(thread: Thread) {
    thread_driver::after_release(move || thread.unpark());
}

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
        let Some(job) = self.queue.lock().jobs.pop_front() else {
            return false;
        };
        self.run_job(job);
        true
    }

    /// A worker: run jobs until the queue is closed and empty, parked
    /// on the idle list whenever there is none.
    fn work(&self) {
        let me = thread::current();
        loop {
            let mut queue = self.queue.lock();
            // Still listed only after a wake-up that was not a push's.
            unlist(&mut queue.idle, &me);
            if queue.lent.iter().any(|lent| lent.id() == me.id()) {
                drop(queue);
                thread::park();
            } else if let Some(job) = queue.jobs.pop_front() {
                drop(queue);
                self.count_slot(1);
                self.run_job(job);
                self.count_slot(-1);
            } else if self.closed.load(Ordering::SeqCst) {
                return;
            } else {
                queue.idle.push(me.clone());
                drop(queue);
                thread::park();
            }
        }
    }

    /// Why [`Inner::push`] refused a job.
    fn refusal(&self) -> WspError {
        WspError::Dispatch(if self.closed.load(Ordering::SeqCst) {
            "dispatcher is shut down".into()
        } else {
            format!("dispatch queue is full ({} jobs)", self.capacity)
        })
    }

    /// Queue the job `make(input)` builds — timestamped only while
    /// telemetry is on — and wake one thread to run it; a closed or
    /// full queue hands `input` back unbuilt.
    fn push<I>(
        &self,
        input: I,
        deadline: Option<Deadline>,
        make: impl FnOnce(I) -> BoxedFn,
    ) -> Result<(), I> {
        let mut queue = self.queue.lock();
        if queue.jobs.len() >= self.capacity || self.closed.load(Ordering::SeqCst) {
            return Err(input);
        }
        queue.jobs.push_back(self.accept(make(input), deadline));
        self.queue_depth.record(queue.jobs.len() as u64);
        let woken = queue.idle.pop().or_else(|| queue.helpers.pop());
        drop(queue);
        if let Some(thread) = woken {
            wake(thread);
        }
        Ok(())
    }

    /// `run`, accepted now: counted, and stamped with this thread's clock.
    fn accept(&self, run: BoxedFn, deadline: Option<Deadline>) -> Job {
        self.jobs_pending.fetch_add(1, Ordering::SeqCst);
        self.submitted.fetch_add(1, Ordering::SeqCst);
        Job {
            run,
            enqueued_at: telemetry::global().is_enabled().then(clock::now),
            deadline,
            clock: clock::current(),
        }
    }

    /// Accept no more jobs; wake the idle workers to drain and exit.
    fn close(&self) {
        let mut queue = self.queue.lock();
        self.closed.store(true, Ordering::SeqCst);
        queue.idle.drain(..).for_each(|worker| worker.unpark());
    }

    /// A worker slot taken (`1`) or given back (`-1`); debug builds
    /// check that no more than `workers` are taken.
    fn count_slot(&self, _delta: isize) {
        #[cfg(debug_assertions)]
        {
            let held = self.slots.fetch_add(_delta, Ordering::SeqCst) + _delta;
            debug_assert!(held as usize <= self.workers, "more handlers than workers");
        }
    }

    fn run_job(&self, job: Job) {
        // Dequeue-time deadline shed: if the caller's budget ran out
        // while the job sat in the queue, nobody is waiting for the
        // answer — dropping the closure (releasing any admission permit
        // it holds) beats computing a response for a hung-up caller.
        let _clock = ClockScope::enter(job.clock);
        if job.deadline.is_some_and(Deadline::expired) {
            self.shed.fetch_add(1, Ordering::SeqCst);
            self.shed_expired.incr();
            drop(job.run);
            self.job_ended();
            return;
        }
        // One clock read serves as both queue-wait end and run start.
        let timing = job.enqueued_at.map(|enqueued_at| {
            let now = clock::now();
            (now, now - enqueued_at)
        });
        // Backstop isolation for fire-and-forget jobs; call-producing
        // jobs catch their own panic and poison their handle.
        let outer = IN_JOB.replace(true);
        let _ = self.run_counted(timing, job.run);
        IN_JOB.set(outer);
    }

    /// Run one accepted job (`jobs_pending` already counts it) with the
    /// accounting every job gets, queued or caller-run: `in_flight`
    /// around it, `completed`/`failed` after it, queue-wait and run time
    /// into the cached histograms when `timing` (run start, time spent
    /// queued) is given — settled by `f` itself if it settles first
    /// (see [`Settle`]). The panic, if any, is returned, not resumed.
    fn run_counted<R>(
        &self,
        timing: Option<(Instant, Duration)>,
        f: impl FnOnce(&Settle<'_>) -> R,
    ) -> std::thread::Result<R> {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        if let Some((_, waited)) = timing {
            self.queue_wait_us.record(waited.as_micros() as u64);
        }
        let settle = Settle {
            inner: self,
            started: timing.map(|(started, _)| started),
            settled: Cell::new(false),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| f(&settle)));
        settle.settle(outcome.is_ok());
        self.job_ended();
        outcome
    }

    /// One job fewer is pending; the one that leaves none wakes the
    /// parked flushers. A flusher lists itself before its last look at
    /// `jobs_pending`, so it saw this job gone or is woken here.
    fn job_ended(&self) {
        if self.jobs_pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.flushers.lock().drain(..).for_each(|f| f.unpark());
        }
    }

    /// The one wait loop, until `done` yields or `deadline` passes. A
    /// waiter that `help`s runs queued jobs. With none to run, `listen`
    /// leaves `me` where the awaited event finds it (`false`: it came
    /// already), a helper lists itself for pushes, and the thread parks
    /// until that event, a push or the deadline. A helper a push picked
    /// runs a job first, so the push is not lost on it.
    fn wait<R>(
        &self,
        deadline: Option<Deadline>,
        help: bool,
        mut done: impl FnMut() -> Option<R>,
        listen: impl Fn(&Thread) -> bool,
    ) -> Option<R> {
        let me = thread::current();
        loop {
            if let Some(result) = done() {
                return Some(result);
            }
            if deadline.is_some_and(|d| d.remaining().is_zero()) {
                return None;
            }
            if (help && self.try_run_one()) || !listen(&me) {
                continue;
            }
            if help {
                let mut queue = self.queue.lock();
                if !queue.jobs.is_empty() {
                    continue;
                }
                queue.helpers.push(me.clone());
            }
            match deadline {
                Some(d) => thread::park_timeout(d.remaining()),
                None => thread::park(),
            }
            if help && !unlist(&mut self.queue.lock().helpers, &me) {
                self.try_run_one();
            }
        }
    }

    /// Step `Cancel` for `token`; `true` (and counted) if that
    /// cancelled a pending call.
    fn cancel(&self, token: u64) -> bool {
        let cancelled = (self.calls.lock().step(CorrelationEvent::Cancel(token)))
            .contains(&CorrelationEffect::CountCancelled(token));
        if cancelled {
            self.cancelled.fetch_add(1, Ordering::SeqCst);
        }
        cancelled
    }
}

/// The correlation machine's state, and the buffer every step writes
/// its effects into.
#[derive(Default)]
struct CallTable {
    state: CorrelationState,
    effects: Vec<CorrelationEffect>,
}

impl CallTable {
    /// The table's one step point. Callers hold `Inner::calls`, so a
    /// composite operation writes a mailbox in the same critical
    /// section as the step that let it.
    fn step(&mut self, event: CorrelationEvent) -> &[CorrelationEffect] {
        self.effects.clear();
        CorrelationMachine.step_into(&mut self.state, &event, &mut self.effects);
        &self.effects
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
    state: Arc<Mutex<CallState<T>>>,
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
        self.state.lock().mail.is_some()
    }

    /// Non-blocking snapshot of the result, leaving it in place.
    pub fn try_poll(&self) -> Option<T>
    where
        T: Clone,
    {
        match &self.state.lock().mail {
            Some(Mail::Value(value)) => Some(value.clone()),
            _ => None,
        }
    }

    /// Block until the result arrives, helping the pool run queued
    /// jobs in the meantime (so waiting inside a worker cannot
    /// deadlock the pool). Panics if the producing job panicked.
    pub fn wait(self) -> T {
        let waited = self.wait_until(None, true);
        waited.unwrap_or_else(|_| unreachable!("a wait without deadline cannot time out"))
    }

    /// Like [`CallHandle::wait`] but gives up after `timeout`,
    /// returning the handle back so the caller may keep waiting or
    /// [`CallHandle::cancel`].
    pub fn wait_timeout(self, timeout: Duration) -> Result<T, CallHandle<T>> {
        self.wait_until(Some(Deadline::after(timeout)), true)
    }

    /// Step a `Take` event through the correlation machine. Returns the
    /// value on `YieldValue`, re-panics the waiter on `PanicWaiter`
    /// (with every lock released first), and returns `None` while the
    /// call is still pending. Lock order: machine, then mailbox.
    fn try_take(&self) -> Option<T> {
        use CorrelationEffect::{PanicWaiter, YieldValue};
        let mut calls = self.inner.calls.lock();
        let effects = calls.step(CorrelationEvent::Take(self.token));
        if !matches!(effects.first(), Some(YieldValue(_) | PanicWaiter(_))) {
            return None;
        }
        let mail = self.state.lock().mail.take();
        drop(calls);
        match mail.expect("the machine let a call be taken that never received mail") {
            Mail::Value(value) => Some(value),
            Mail::Poison(message) => panic!("call {} panicked: {message}", self.token),
        }
    }

    /// Wait for the result until `deadline`, if any. A waiter that
    /// `help`s runs queued jobs meanwhile, and wakes for a push as well
    /// as for its completion; [`CallHandle::wait_within`]'s does not —
    /// it could pull the very job it watches onto its own thread.
    fn wait_until(self, deadline: Option<Deadline>, help: bool) -> Result<T, CallHandle<T>> {
        let listen = |me: &Thread| {
            let mut state = self.state.lock();
            state.waiter = Some(me.clone());
            state.mail.is_none()
        };
        let value = self.inner.wait(deadline, help, || self.try_take(), listen);
        value.ok_or(self)
    }

    /// Abandon the call. A result arriving later is dropped. Returns
    /// `false` if the call had already completed.
    pub fn cancel(self) -> bool {
        // Dropping `self` now steps a second Cancel, which the machine
        // treats as a no-op: the token is already gone.
        self.inner.cancel(self.token)
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
        self.inner.cancel(self.token);
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
        let waited = self.wait_until(Some(Deadline::after(timeout)), false);
        waited.unwrap_or_else(|handle| {
            handle.cancel();
            Err(WspError::Timeout {
                what: "call deadline",
                millis,
            })
        })
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
    state: Arc<Mutex<CallState<T>>>,
    inner: Arc<Inner>,
}

impl<T: Send + 'static> Completer<T> {
    /// Deliver the result. Returns `false` if the call was cancelled
    /// or already completed (the value is dropped in that case).
    pub fn complete(self, value: T) -> bool {
        self.deliver(CorrelationEvent::Complete(self.token), Mail::Value(value))
    }

    fn poison(self, message: String) {
        self.deliver(CorrelationEvent::Poison(self.token), Mail::Poison(message));
    }

    /// Step `event`; if the machine lets it deliver, leave `mail` and
    /// wake the call's waiter. The mailbox is written while still
    /// holding the machine lock, so a waiter whose Take was answered
    /// with a value always finds its mail.
    fn deliver(&self, event: CorrelationEvent, mail: Mail<T>) -> bool {
        use CorrelationEffect::{DeliverPoison, DeliverValue};
        let mut calls = self.inner.calls.lock();
        let effects = calls.step(event);
        if !matches!(effects.first(), Some(DeliverValue(_) | DeliverPoison(_))) {
            return false;
        }
        let mut state = self.state.lock();
        state.mail = Some(mail);
        let waiter = state.waiter.take();
        drop((state, calls));
        if let Some(waiter) = waiter {
            wake(waiter);
        }
        true
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
        let capacity = config.queue_capacity.max(1);
        let inner = Arc::new(Inner {
            queue: Mutex::new(Queue::default()),
            capacity,
            closed: AtomicBool::new(false),
            calls: Mutex::new(CallTable::default()),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            #[cfg(debug_assertions)]
            slots: std::sync::atomic::AtomicIsize::new(0),
            jobs_pending: AtomicUsize::new(0),
            flushers: Mutex::new(Vec::new()),
            workers,
            queue_wait_us: telemetry::global().histogram("dispatch.queue_wait_us"),
            run_us: telemetry::global().histogram("dispatch.run_us"),
            queue_depth: telemetry::global().histogram("dispatch.queue_depth"),
            shed_expired: telemetry::global().counter("dispatch.shed_expired"),
        });
        let mut handles = Vec::with_capacity(workers);
        // Listed idle before they run, so a fresh dispatcher's first
        // call can be lent a slot; each waits for this lock to start.
        let mut queue = inner.queue.lock();
        for index in 0..workers {
            let inner = inner.clone();
            let handle = std::thread::Builder::new()
                .name(format!("wsp-worker-{index}"))
                .spawn(move || inner.work())
                .expect("spawn dispatcher worker");
            queue.idle.push(handle.thread().clone());
            handles.push(handle);
        }
        drop(queue);
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
        // On failure `handle` drops here: its Cancel event removes the
        // just-registered correlation entry eagerly.
        self.enqueue(call_job(token, completer, f), None)?;
        Ok(handle)
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
        if inner.closed.load(Ordering::SeqCst) {
            return Err(inner.refusal());
        }
        inner.calls.lock().step(CorrelationEvent::Register(token));
        inner.jobs_pending.fetch_add(1, Ordering::SeqCst);
        inner.submitted.fetch_add(1, Ordering::SeqCst);
        let timing = telemetry::global()
            .is_enabled()
            .then(|| (clock::now(), Duration::ZERO));
        let outcome = inner.run_counted(timing, |_| {
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
                calls.step(event);
            }
            debug_assert_eq!(
                calls.state.phase(token),
                None,
                "caller-run call left the table"
            );
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
        self.enqueue(scoped_job(None, f), None)
    }

    /// [`Dispatcher::execute`] of `run(data)` under a propagated call
    /// deadline — shed unrun ([`DispatcherStats::shed`]) if it passes
    /// in the queue, else run inside a [`DeadlineScope`] of it — whose
    /// caller never helps: a full or shut-down queue hands `data` back.
    /// For the P2PS delivery sink, which must not run application code
    /// inside a delivery (it may be another peer's caller or worker).
    pub(crate) fn try_execute<D: Send + 'static>(
        &self,
        deadline: Option<Deadline>,
        data: D,
        run: fn(D),
    ) -> Result<(), D> {
        (self.inner).push(data, deadline, |data| {
            scoped_job(deadline, move || run(data))
        })
    }

    /// Lend the caller an idle worker's slot for one job ([`Lent::run`])
    /// if the queue is open and empty, and the caller runs no job (whose
    /// pool its waits must keep helping); the worker stays parked,
    /// passed over by pushes, until the slot comes back.
    pub(crate) fn try_lend(self: &Arc<Self>) -> Option<Lent> {
        let mut queue = self.inner.queue.lock();
        if !queue.jobs.is_empty() || self.inner.closed.load(Ordering::SeqCst) || IN_JOB.get() {
            return None;
        }
        let worker = queue.idle.pop()?;
        queue.lent.push(worker.clone());
        self.inner.count_slot(1);
        Some(Lent(self.clone(), worker, telemetry::current_correlation()))
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
        let job = call_job(token, completer, f);
        let queued = self.inner.push(job, None, |job| job);
        queued.map(|()| handle).map_err(|_| self.inner.refusal())
    }

    /// Queue `job`, helping while the queue is full: drain one job on
    /// this thread, then retry. The queue being full guarantees work
    /// exists.
    fn enqueue(&self, mut job: BoxedFn, deadline: Option<Deadline>) -> Result<(), WspError> {
        loop {
            job = match self.inner.push(job, deadline, |job| job) {
                Ok(()) => return Ok(()),
                Err(job) => job,
            };
            if self.inner.closed.load(Ordering::SeqCst) {
                return Err(self.inner.refusal());
            }
            if !self.inner.try_run_one() {
                std::thread::yield_now();
            }
        }
    }

    /// Register an externally-completed call: the result will be
    /// delivered through the returned [`Completer`] (e.g. by a binding
    /// when a response arrives off the network), not by a pool job.
    pub fn register<T: Send + 'static>(&self, token: u64) -> (CallHandle<T>, Completer<T>) {
        let state = Arc::new(Mutex::new(CallState {
            mail: None,
            waiter: None,
        }));
        self.inner
            .calls
            .lock()
            .step(CorrelationEvent::Register(token));
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
        self.flush_until(None, true);
    }

    /// [`flush`](Dispatcher::flush) with a deadline: block until
    /// everything submitted so far has finished or `timeout` elapses.
    /// Returns `true` when the queue drained in time — the building
    /// block of graceful drain. Unlike `flush` this does NOT help run
    /// jobs: a job that never finishes must not capture the draining
    /// thread past its deadline, so the wait stays observational.
    pub fn flush_within(&self, timeout: Duration) -> bool {
        self.flush_until(Some(Deadline::after(timeout)), false)
    }

    /// Wait until no job is pending or `deadline` passes; `true` if none
    /// is. A flusher that `help`s runs queued jobs meanwhile.
    fn flush_until(&self, deadline: Option<Deadline>, help: bool) -> bool {
        let inner = &self.inner;
        let idle = || (inner.jobs_pending.load(Ordering::SeqCst) == 0).then_some(());
        let listen = |me: &Thread| {
            let mut flushers = inner.flushers.lock();
            unlist(&mut flushers, me);
            flushers.push(me.clone());
            idle().is_none()
        };
        let drained = inner.wait(deadline, help, idle, listen).is_some();
        unlist(&mut inner.flushers.lock(), &thread::current());
        drained
    }

    /// Tokens still awaiting results (the live correlation table).
    pub fn pending_tokens(&self) -> Vec<u64> {
        self.inner.calls.lock().state.table_tokens()
    }

    /// Jobs queued and not yet picked up — [`DispatcherStats::queue_depth`]
    /// alone, for per-request callers (admission) that must not pay for
    /// the whole snapshot.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.lock().jobs.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DispatcherStats {
        let pending_calls = self.inner.calls.lock().state.pending_count();
        DispatcherStats {
            submitted: self.inner.submitted.load(Ordering::SeqCst),
            completed: self.inner.completed.load(Ordering::SeqCst),
            failed: self.inner.failed.load(Ordering::SeqCst),
            cancelled: self.inner.cancelled.load(Ordering::SeqCst),
            shed: self.inner.shed.load(Ordering::SeqCst),
            queue_depth: self.queue_depth(),
            in_flight: self.inner.in_flight.load(Ordering::SeqCst),
            pending_calls,
            workers: self.inner.workers,
        }
    }
}

impl Drop for Dispatcher {
    fn drop(&mut self) {
        // Close the queue; workers drain remaining jobs and exit.
        self.inner.close();
        let me = std::thread::current().id();
        for handle in self.worker_handles.lock().drain(..) {
            // A job may own the last reference to the dispatcher (a
            // binding's serve closure outliving its peer), so this can
            // run on a worker — which cannot join itself; it exits on
            // its own once the job returns to the closed queue.
            if handle.thread().id() != me {
                let _ = handle.join();
            }
        }
    }
}

/// A worker's slot lent ([`Dispatcher::try_lend`]) under the lender's
/// correlation id; the worker gets it back on drop.
pub(crate) struct Lent(Arc<Dispatcher>, Thread, u64);

impl Lent {
    /// Run `run` here as the job [`Dispatcher::try_execute`] would have
    /// queued: the same books, shed, scopes and isolation.
    pub(crate) fn run(self, deadline: Option<Deadline>, run: impl FnOnce() + Send + 'static) {
        let _lender = CorrelationScope::enter(self.2);
        let inner = &self.0.inner;
        inner.run_job(inner.accept(scoped_job(deadline, run), deadline));
    }
}

impl Drop for Lent {
    fn drop(&mut self) {
        let (inner, worker) = (&self.0.inner, &self.1);
        let mut queue = inner.queue.lock();
        unlist(&mut queue.lent, worker);
        inner.count_slot(-1);
        // Back on the idle list, still parked, unless there is work.
        if queue.jobs.is_empty() && !inner.closed.load(Ordering::SeqCst) {
            return queue.idle.push(worker.clone());
        }
        drop(queue);
        worker.unpark();
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
    fn try_poll_peeks_without_blocking_or_consuming() {
        let d = small();
        let (handle, completer) = d.register::<u32>(d.next_token());
        assert_eq!(handle.try_poll(), None, "pending");
        assert!(completer.complete(7));
        assert_eq!(handle.try_poll(), Some(7));
        assert_eq!(handle.wait(), 7, "the peek left the value in place");

        let (handle, completer) = d.register::<u32>(d.next_token());
        completer.poison("job panicked".to_owned());
        assert_eq!(handle.try_poll(), None, "a poisoned call has no value");
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

    /// The only worker waits, helping, on a call that only a job queued
    /// behind it completes: the push must wake that waiter, as no
    /// worker is idle and no timer would. On a side thread, so a hang
    /// fails the test instead of stalling it.
    #[test]
    fn a_push_wakes_the_only_worker_parked_in_a_helping_wait() {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let side = std::thread::spawn(move || {
            let d = Dispatcher::new(DispatcherConfig {
                workers: 1,
                queue_capacity: 8,
            });
            let (handle, completer) = d.register::<u32>(d.next_token());
            d.execute(move || done_tx.send(handle.wait() + 1).unwrap())
                .unwrap();
            while d.inner.queue.lock().helpers.is_empty() {
                std::thread::yield_now();
            }
            d.execute(move || assert!(completer.complete(5))).unwrap();
        });
        assert_eq!(done_rx.recv_timeout(Duration::from_secs(1)), Ok(6));
        side.join().unwrap();
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
        d.inner.close();
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
        while d.inner.flushers.lock().is_empty() {
            std::thread::yield_now();
        }
        assert_eq!(d.stats().completed, 0);
        release.send(()).unwrap();
        assert!(flusher.join().unwrap(), "the pool went idle in time");
        assert!(d.inner.flushers.lock().is_empty());
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
        // the queue past its budget: the handler must never run. The
        // budget passes on a virtual clock, so only a worker that reads
        // the submitter's clock sees it gone.
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
        let clock = VirtualClock::default();
        let _clock = clock.enter();
        let ran = Arc::new(AtomicBool::new(false));
        let deadline = Deadline::after(Duration::from_secs(20));
        let queued = d.try_execute(Some(deadline), ran.clone(), |ran| {
            ran.store(true, Ordering::SeqCst);
        });
        assert!(queued.is_ok());
        // Let the deadline expire while the job is still queued.
        clock.advance(Duration::from_secs(40));
        gate.store(true, Ordering::SeqCst);
        // A waiter that does not help: the worker dequeues the job.
        assert!(d.flush_within(Duration::from_secs(30)));
        blocker.wait();
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
        let deadline = Deadline::after(Duration::from_secs(30));
        let seen = Arc::new(Mutex::new(None));
        let queued = d.try_execute(Some(deadline), seen.clone(), |seen| {
            *seen.lock() = Some(crate::overload::current_deadline().map(Deadline));
        });
        assert!(queued.is_ok());
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
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
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

    /// A lent slot is its worker's: pushes pass the parked worker over,
    /// the caller runs its job with a queued job's books, and the worker
    /// comes back to run what queued meanwhile — a dispatcher whose one
    /// worker is lent lends no second slot and runs nothing elsewhere.
    #[test]
    fn a_lent_slot_keeps_its_worker_parked_until_it_comes_back() {
        let d = Dispatcher::new(DispatcherConfig {
            workers: 1,
            queue_capacity: 8,
        });
        let lent = d.try_lend().expect("a fresh dispatcher's worker is idle");
        assert!(d.try_lend().is_none(), "one worker, one slot");
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let record = ran_on.clone();
        d.execute(move || record.lock().push(thread::current().id()))
            .unwrap();
        assert!(d.try_lend().is_none(), "a queued job comes first");
        let deadline = Some(Deadline::after(Duration::from_secs(30)));
        let (seen, dispatcher) = (Arc::new(Mutex::new(None)), d.clone());
        let see = seen.clone();
        lent.run(deadline, move || {
            let depth = dispatcher.queue_depth();
            *see.lock() = Some((depth, crate::overload::current_deadline()));
        });
        let seen = seen.lock().take();
        assert_eq!(seen, Some((1, deadline.map(|d| d.0))), "queued, not run");
        assert!(
            d.flush_within(Duration::from_secs(5)),
            "the worker came back"
        );
        let caller = thread::current().id();
        assert!(ran_on.lock().iter().all(|&id| id != caller));
        let stats = d.stats();
        assert_eq!(
            (stats.submitted, stats.completed, stats.in_flight),
            (2, 2, 0)
        );
        // The worker gives its slot up once its job has returned.
        #[cfg(debug_assertions)]
        {
            let freed = Deadline::after(Duration::from_secs(5));
            while d.inner.slots.load(Ordering::SeqCst) != 0 && !freed.expired() {
                thread::yield_now();
            }
            assert_eq!(d.inner.slots.load(Ordering::SeqCst), 0);
        }
        // A shut-down dispatcher lends nothing.
        d.inner.close();
        assert!(d.try_lend().is_none());
    }

    /// A slot lent once a worker has listed itself idle again.
    fn lend_when_idle(d: &Arc<Dispatcher>) -> Lent {
        let listed = Deadline::after(Duration::from_secs(5));
        loop {
            match d.try_lend() {
                Some(lent) => return lent,
                None if !listed.expired() => thread::yield_now(),
                None => panic!("no worker listed itself idle"),
            }
        }
    }

    /// A job — on a worker, a helper or a lent slot — is lent no other
    /// worker's slot, though one is idle: the thread holds its own.
    #[test]
    fn a_thread_running_a_job_is_lent_no_slot() {
        let d = Dispatcher::new(DispatcherConfig {
            workers: 2,
            queue_capacity: 8,
        });
        drop((lend_when_idle(&d), lend_when_idle(&d)));
        let (inner, probe) = (d.clone(), d.clone());
        let on_worker = d
            .submit(move || probe.try_lend().map(drop).is_some())
            .unwrap();
        assert!(!on_worker.wait(), "a worker's job was lent a slot");
        let (lent, lent_in) = (lend_when_idle(&d), Arc::new(Mutex::new(None)));
        let record = lent_in.clone();
        lent.run(None, move || {
            *record.lock() = Some(inner.try_lend().map(drop).is_some());
        });
        assert_eq!(*lent_in.lock(), Some(false), "a lent job was lent a slot");
        drop(lend_when_idle(&d));
    }

    /// A thread that holds a P2PS peer's claim wakes nobody: a call it
    /// completes leaves its parked waiter parked, and so does a job it
    /// pushes its idle worker, until the claim is released; then both
    /// are woken, in the order given.
    #[test]
    fn wakes_given_inside_a_peer_claim_go_out_in_order_on_its_release() {
        use wsp_p2ps::{PeerConfig, PeerId, ThreadNetwork};
        let d = Dispatcher::new(DispatcherConfig {
            workers: 1,
            queue_capacity: 8,
        });
        // A worker listed idle before it first ran would find the job
        // below without a wake-up: let it run once and list itself.
        d.execute(|| {}).unwrap();
        assert!(d.flush_within(Duration::from_secs(5)));
        while d.inner.queue.lock().idle.is_empty() {
            thread::yield_now();
        }
        let (handle, completer) = d.register::<u32>(d.next_token());
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let waiter = {
            let done_tx = done_tx.clone();
            thread::spawn(move || done_tx.send(handle.wait()).unwrap())
        };
        while d.inner.queue.lock().helpers.is_empty() {
            thread::yield_now();
        }

        // What reached the test, in order: nothing inside the claim;
        // the waiter, and not yet the worker, between the two wake-ups;
        // the worker last.
        let seen = Arc::new(Mutex::new(Vec::new()));
        let done_rx = Arc::new(Mutex::new(done_rx));
        let look = {
            let (seen, done_rx) = (seen.clone(), done_rx.clone());
            move |within: Duration| seen.lock().push(done_rx.lock().recv_timeout(within).ok())
        };
        let network = ThreadNetwork::new();
        let sender = network.spawn(PeerConfig::ordinary(PeerId(1)));
        let holder = network.spawn(PeerConfig::ordinary(PeerId(2)));
        let (pool, work) = (d.clone(), Mutex::new(Some((completer, done_tx))));
        assert!(holder.set_sink(Box::new(move |_| {
            let Some((completer, done_tx)) = work.lock().take() else {
                return;
            };
            assert!(completer.complete(5));
            let between = look.clone();
            thread_driver::after_release(move || {
                between(Duration::from_secs(5));
                between(Duration::ZERO);
            });
            pool.execute(move || done_tx.send(6).unwrap()).unwrap();
            look(Duration::from_millis(50));
        })));
        // Delivered on this thread, which claims `holder` for it.
        sender.send_pipe(holder.open_pipe(None), "go".into());
        let last = done_rx.lock().recv_timeout(Duration::from_secs(5)).ok();
        seen.lock().push(last);
        assert_eq!(*seen.lock(), [None, Some(5), None, Some(6)]);
        waiter.join().unwrap();
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
