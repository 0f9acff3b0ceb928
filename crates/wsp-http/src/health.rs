//! Per-endpoint health tracking: circuit breakers.
//!
//! Invoking an endpoint that has just failed N times in a row mostly
//! wastes the caller's deadline budget — on the paper's "unreliable"
//! P2P substrate a gone peer stays gone for a while. Each endpoint
//! therefore gets a [`CircuitBreaker`] with the classic three states:
//!
//! * **Closed** — requests flow; consecutive failures are counted.
//! * **Open** — after `failure_threshold` consecutive failures the
//!   breaker rejects immediately (the caller fails over, or reports the
//!   circuit open) until `cooldown` elapses.
//! * **Half-open** — after the cooldown exactly **one** probe call is
//!   admitted; its success closes the breaker, its failure re-opens it
//!   for another cooldown. Concurrent callers during the probe are
//!   rejected, so all callers observe one consistent state.
//!
//! A caller asks [`EndpointHealth::admit`] and gets a [`BreakerPermit`]
//! or nothing. The permit reports the outcome once; dropped unreported
//! — a panic, or an error that says nothing about the endpoint — it
//! aborts the half-open probe if it held it, so no probe slot strands.
//!
//! Every transition decision lives in the pure
//! [`crate::breaker::BreakerMachine`]; this module is its runtime
//! shell. The shell converts `Instant`s to logical ticks (nanoseconds
//! since the process origin of [`wsp_telemetry::clock`]), feeds events
//! through [`wsp_simnet::Machine::step_into`] under one mutex, into an
//! effect buffer kept under the same mutex, and hands the machine's
//! verdicts and phases back. The breaker's event methods take an
//! explicit `now: Instant`, so transitions are unit testable without
//! sleeping; `wsp-check` exhaustively explores the machine.

pub use crate::breaker::{Admit as Admission, Phase as BreakerState};
use crate::breaker::{BreakerEffect, BreakerEvent, BreakerMachine, BreakerState as MachineState};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsp_simnet::Machine;
use wsp_telemetry::clock;

/// Tuning for the per-endpoint breakers.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker.
    pub failure_threshold: u32,
    /// How long an open breaker rejects before allowing a probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_secs(5),
        }
    }
}

/// One endpoint's circuit breaker: the runtime shell around
/// [`BreakerMachine`]. Thread-safe; every event steps the machine under
/// one mutex so concurrent callers observe a consistent state.
#[derive(Debug)]
pub struct CircuitBreaker {
    machine: BreakerMachine,
    /// The machine's state, and the buffer every step writes its
    /// effects into: one allocation for the breaker's life.
    state: Mutex<(MachineState, Vec<BreakerEffect>)>,
}

impl CircuitBreaker {
    pub fn new(config: BreakerConfig) -> Self {
        let machine = BreakerMachine {
            failure_threshold: config.failure_threshold,
            cooldown: config.cooldown.as_nanos() as u64,
        };
        let state = Mutex::new((machine.initial(), Vec::new()));
        CircuitBreaker { machine, state }
    }

    fn ticks(&self, now: Instant) -> u64 {
        now.saturating_duration_since(clock::origin()).as_nanos() as u64
    }

    /// The breaker's one step point: `event` through the machine under
    /// the lock, and the effect it emitted — the breaker machine emits
    /// at most one per event.
    fn step(&self, event: BreakerEvent) -> Option<BreakerEffect> {
        let mut locked = self.state.lock();
        let (state, effects) = &mut *locked;
        effects.clear();
        self.machine.step_into(state, &event, effects);
        debug_assert!(effects.len() <= 1, "{event:?} emitted {effects:?}");
        effects.first().copied()
    }

    /// The state an observer at `now` sees.
    pub fn state(&self, now: Instant) -> BreakerState {
        self.machine.phase(&self.state.lock().0, self.ticks(now))
    }

    /// Ask to attempt a call at `now`.
    pub fn try_acquire(&self, now: Instant) -> Admission {
        let now = self.ticks(now);
        match self.step(BreakerEvent::Acquire { now }) {
            Some(BreakerEffect::Admit(admission)) => admission,
            _ => Admission::Rejected,
        }
    }

    /// Report a successful attempt. Returns `true` if this success
    /// *closed* a tripped breaker (the half-open probe succeeded). A
    /// success does not depend on when it happened.
    pub fn on_success(&self) -> bool {
        self.step(BreakerEvent::Success) == Some(BreakerEffect::Recovered)
    }

    /// Report a failed attempt. Returns `true` if this failure tripped
    /// the breaker (closed → open, or a failed half-open probe
    /// re-opening).
    pub fn on_failure(&self, now: Instant) -> bool {
        let now = self.ticks(now);
        self.step(BreakerEvent::Failure { now }) == Some(BreakerEffect::Tripped)
    }

    /// Report that an admitted half-open probe unwound (panicked)
    /// without reporting an outcome. Re-opens the breaker for a fresh
    /// cooldown instead of stranding the probe slot. Returns `true` if
    /// a probe was actually discarded.
    pub fn on_probe_aborted(&self, now: Instant) -> bool {
        let now = self.ticks(now);
        self.step(BreakerEvent::ProbeAborted { now }) == Some(BreakerEffect::ProbeDiscarded)
    }

    /// Consecutive failures recorded while closed.
    pub fn consecutive_failures(&self) -> u32 {
        match self.state.lock().0 {
            MachineState::Closed { failures } => failures,
            MachineState::Tripped { .. } => 0,
        }
    }

    /// Closed with no failure counted: what a newly created breaker is.
    fn is_fresh(&self) -> bool {
        self.state.lock().0 == MachineState::Closed { failures: 0 }
    }

    /// Is a half-open probe currently admitted and unreported?
    pub fn probe_in_flight(&self) -> bool {
        matches!(
            self.state.lock().0,
            MachineState::Tripped {
                probe_in_flight: true,
                ..
            }
        )
    }
}

/// RAII proof that a breaker admitted one call (see
/// [`EndpointHealth::admit`]). Dropped without
/// [`succeed`](BreakerPermit::succeed) or [`fail`](BreakerPermit::fail),
/// it aborts the half-open probe if it holds it (the breaker re-opens
/// for a fresh cooldown), and does nothing otherwise.
#[must_use = "dropping a permit unreported aborts the probe it may hold"]
#[derive(Debug)]
pub struct BreakerPermit {
    breaker: Arc<CircuitBreaker>,
    probe: bool,
}

impl BreakerPermit {
    /// This call is the half-open breaker's single probe.
    pub fn is_probe(&self) -> bool {
        self.probe
    }

    /// The call succeeded. Returns `true` if that closed a tripped
    /// breaker (the probe recovered it). Reads no clock.
    pub fn succeed(mut self) -> bool {
        self.probe = false;
        self.breaker.on_success()
    }

    /// The call failed against the endpoint. Returns `true` if that
    /// tripped the breaker (closed → open, or a failed probe
    /// re-opening it).
    pub fn fail(mut self) -> bool {
        self.probe = false;
        self.breaker.on_failure(clock::now())
    }
}

impl Drop for BreakerPermit {
    fn drop(&mut self) {
        if self.probe {
            self.breaker.on_probe_aborted(clock::now());
        }
    }
}

/// Ceiling on the endpoints an [`EndpointHealth`] tracks. Endpoint
/// strings come from registry answers — remote input — and a host that
/// redeploys mints a fresh one each time, so the map must not grow
/// with them.
pub const MAX_TRACKED_ENDPOINTS: usize = 1024;

/// The peer's endpoint-health registry: one lazily created breaker per
/// endpoint URI, shared by every caller that consults it.
#[derive(Default)]
pub struct EndpointHealth {
    config: RwLock<BreakerConfig>,
    breakers: RwLock<HashMap<String, Arc<CircuitBreaker>>>,
}

impl EndpointHealth {
    pub fn new(config: BreakerConfig) -> Self {
        EndpointHealth {
            config: RwLock::new(config),
            breakers: RwLock::new(HashMap::new()),
        }
    }

    /// Replace the config used for breakers created *from now on*.
    /// Existing breakers keep the config they were built with.
    pub fn set_config(&self, config: BreakerConfig) {
        *self.config.write() = config;
    }

    /// The breaker for `endpoint`, created closed on first touch.
    ///
    /// The map holds at most [`MAX_TRACKED_ENDPOINTS`] entries. A full
    /// map first forgets every breaker that is closed with no failure
    /// counted and held by nobody else — indistinguishable from the
    /// one the next touch would create, so no decision changes. If
    /// everything tracked carries history, the new endpoint gets a
    /// fresh breaker that is not remembered.
    pub fn breaker(&self, endpoint: &str) -> Arc<CircuitBreaker> {
        if let Some(existing) = self.breakers.read().get(endpoint) {
            return existing.clone();
        }
        let config = self.config.read().clone();
        let mut map = self.breakers.write();
        if let Some(existing) = map.get(endpoint) {
            return existing.clone();
        }
        if map.len() >= MAX_TRACKED_ENDPOINTS {
            map.retain(|_, breaker| Arc::strong_count(breaker) > 1 || !breaker.is_fresh());
        }
        let fresh = Arc::new(CircuitBreaker::new(config));
        if map.len() < MAX_TRACKED_ENDPOINTS {
            map.insert(endpoint.to_owned(), fresh.clone());
        }
        fresh
    }

    /// Endpoints with a breaker, and the state each is in at `now`.
    pub fn snapshot(&self, now: Instant) -> Vec<(String, BreakerState)> {
        let mut all: Vec<(String, BreakerState)> = self
            .breakers
            .read()
            .iter()
            .map(|(endpoint, breaker)| (endpoint.clone(), breaker.state(now)))
            .collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }

    /// Ask `endpoint`'s breaker to admit one call at `now`: a permit,
    /// or `None` while the breaker is open or its probe is taken.
    pub fn admit(&self, endpoint: &str, now: Instant) -> Option<BreakerPermit> {
        let breaker = self.breaker(endpoint);
        let probe = match breaker.try_acquire(now) {
            Admission::Allowed => false,
            Admission::Probe => true,
            Admission::Rejected => return None,
        };
        Some(BreakerPermit { breaker, probe })
    }

    /// Is `endpoint` currently admitting calls (closed, or half-open
    /// with the probe slot free)? A peek: it neither consumes the probe
    /// slot nor starts tracking an endpoint it has not seen, which
    /// admits.
    pub fn is_admitting(&self, endpoint: &str, now: Instant) -> bool {
        let Some(breaker) = self.breakers.read().get(endpoint).cloned() else {
            return true;
        };
        match breaker.state(now) {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => !breaker.probe_in_flight(),
            BreakerState::Open => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn quick_config() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(100),
        }
    }

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let b = CircuitBreaker::new(quick_config());
        let t0 = Instant::now();
        assert!(!b.on_failure(t0));
        assert!(!b.on_failure(t0));
        assert_eq!(b.state(t0), BreakerState::Closed);
        assert!(b.on_failure(t0), "third failure trips");
        assert_eq!(b.state(t0), BreakerState::Open);
        assert_eq!(b.try_acquire(t0), Admission::Rejected);
    }

    #[test]
    fn success_resets_the_failure_count() {
        let b = CircuitBreaker::new(quick_config());
        let t0 = Instant::now();
        b.on_failure(t0);
        b.on_failure(t0);
        assert!(!b.on_success(), "success while closed is not a recovery");
        assert_eq!(b.consecutive_failures(), 0);
        b.on_failure(t0);
        b.on_failure(t0);
        assert_eq!(b.state(t0), BreakerState::Closed, "count restarted");
    }

    #[test]
    fn half_open_probe_success_closes() {
        let b = CircuitBreaker::new(quick_config());
        let t0 = Instant::now();
        for _ in 0..3 {
            b.on_failure(t0);
        }
        let after_cooldown = t0 + Duration::from_millis(150);
        assert_eq!(b.state(after_cooldown), BreakerState::HalfOpen);
        assert_eq!(b.try_acquire(after_cooldown), Admission::Probe);
        assert!(b.on_success(), "probe success recovers");
        assert_eq!(b.state(after_cooldown), BreakerState::Closed);
        assert_eq!(b.try_acquire(after_cooldown), Admission::Allowed);
    }

    #[test]
    fn half_open_probe_failure_reopens_for_another_cooldown() {
        let b = CircuitBreaker::new(quick_config());
        let t0 = Instant::now();
        for _ in 0..3 {
            b.on_failure(t0);
        }
        let probe_at = t0 + Duration::from_millis(150);
        assert_eq!(b.try_acquire(probe_at), Admission::Probe);
        assert!(b.on_failure(probe_at), "failed probe re-trips");
        assert_eq!(b.state(probe_at), BreakerState::Open);
        // The new cooldown runs from the failed probe, not the old trip.
        let mid = probe_at + Duration::from_millis(60);
        assert_eq!(b.try_acquire(mid), Admission::Rejected);
        let later = probe_at + Duration::from_millis(120);
        assert_eq!(b.try_acquire(later), Admission::Probe);
    }

    #[test]
    fn only_one_probe_admitted_while_half_open() {
        let b = CircuitBreaker::new(quick_config());
        let t0 = Instant::now();
        for _ in 0..3 {
            b.on_failure(t0);
        }
        let probe_at = t0 + Duration::from_millis(150);
        assert_eq!(b.try_acquire(probe_at), Admission::Probe);
        assert_eq!(
            b.try_acquire(probe_at),
            Admission::Rejected,
            "second caller during the probe is rejected"
        );
    }

    #[test]
    fn concurrent_callers_observe_consistent_state() {
        // Many threads hammer a half-open breaker: exactly one gets the
        // probe, everyone else is rejected — never two probes, never an
        // Allowed.
        let b = Arc::new(CircuitBreaker::new(quick_config()));
        let t0 = Instant::now();
        for _ in 0..3 {
            b.on_failure(t0);
        }
        let probe_at = t0 + Duration::from_millis(150);
        let probes = Arc::new(AtomicUsize::new(0));
        let rejects = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..16)
            .map(|_| {
                let b = b.clone();
                let probes = probes.clone();
                let rejects = rejects.clone();
                std::thread::spawn(move || match b.try_acquire(probe_at) {
                    Admission::Probe => {
                        probes.fetch_add(1, Ordering::SeqCst);
                    }
                    Admission::Rejected => {
                        rejects.fetch_add(1, Ordering::SeqCst);
                    }
                    Admission::Allowed => panic!("half-open breaker must not allow freely"),
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(probes.load(Ordering::SeqCst), 1);
        assert_eq!(rejects.load(Ordering::SeqCst), 15);
    }

    #[test]
    fn two_threads_racing_the_half_open_transition_admit_exactly_one_probe() {
        // The sharpest version of the probe race: two threads released
        // by a barrier at the same instant, both asking the breaker the
        // moment it turns half-open. Repeated to give the race a real
        // chance of interleaving both ways; each round exactly one
        // thread must win the probe slot.
        for round in 0..100 {
            let b = Arc::new(CircuitBreaker::new(quick_config()));
            let t0 = Instant::now();
            for _ in 0..3 {
                b.on_failure(t0);
            }
            let probe_at = t0 + Duration::from_millis(150);
            let barrier = Arc::new(std::sync::Barrier::new(2));
            let threads: Vec<_> = (0..2)
                .map(|_| {
                    let b = b.clone();
                    let barrier = barrier.clone();
                    std::thread::spawn(move || {
                        barrier.wait();
                        b.try_acquire(probe_at)
                    })
                })
                .collect();
            let outcomes: Vec<Admission> = threads.into_iter().map(|t| t.join().unwrap()).collect();
            let probes = outcomes.iter().filter(|a| **a == Admission::Probe).count();
            let rejects = outcomes
                .iter()
                .filter(|a| **a == Admission::Rejected)
                .count();
            assert_eq!(
                probes, 1,
                "round {round}: exactly one probe, got {outcomes:?}"
            );
            assert_eq!(rejects, 1, "round {round}: the loser is rejected");
        }
    }

    #[test]
    fn aborted_probe_reopens_for_a_fresh_cooldown() {
        let b = CircuitBreaker::new(quick_config());
        let t0 = Instant::now();
        for _ in 0..3 {
            b.on_failure(t0);
        }
        let probe_at = t0 + Duration::from_millis(150);
        assert_eq!(b.try_acquire(probe_at), Admission::Probe);
        assert!(b.probe_in_flight());
        let abort_at = probe_at + Duration::from_millis(10);
        assert!(b.on_probe_aborted(abort_at), "a probe was discarded");
        assert!(!b.probe_in_flight(), "the slot is freed");
        assert_eq!(b.state(abort_at), BreakerState::Open, "re-opened");
        // The new cooldown runs from the abort; a fresh probe follows.
        assert_eq!(
            b.try_acquire(abort_at + Duration::from_millis(50)),
            Admission::Rejected
        );
        assert_eq!(
            b.try_acquire(abort_at + Duration::from_millis(120)),
            Admission::Probe
        );
        // Aborting with no probe in flight is a no-op.
        assert!(b.on_success());
        assert!(!b.on_probe_aborted(abort_at + Duration::from_millis(130)));
    }

    /// Trip `endpoint` and wait out [`quick_config`]'s cooldown: its
    /// next admission is the probe.
    fn half_open(health: &EndpointHealth, endpoint: &str) -> Arc<CircuitBreaker> {
        let breaker = health.breaker(endpoint);
        for _ in 0..3 {
            breaker.on_failure(Instant::now());
        }
        std::thread::sleep(Duration::from_millis(150));
        breaker
    }

    #[test]
    fn probe_guard_dropped_by_panic_reopens_the_breaker() {
        // The permit is the probe's guard: unwound with a panic before
        // it reported, it aborts the probe instead of stranding it.
        let health = EndpointHealth::new(quick_config());
        let b = half_open(&health, "http://a/S");
        let permit = health.admit("http://a/S", Instant::now()).unwrap();
        assert!(permit.is_probe());
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _permit = permit;
            panic!("probe attempt died");
        }));
        assert!(unwound.is_err());
        assert!(!b.probe_in_flight(), "the unwind freed the probe slot");
        // Re-opened, and after the fresh cooldown a new probe is
        // admitted — nobody is locked out forever.
        let now = Instant::now();
        assert_eq!(b.state(now), BreakerState::Open);
        assert_eq!(
            b.try_acquire(now + Duration::from_millis(150)),
            Admission::Probe
        );
    }

    #[test]
    fn disarmed_probe_guard_is_inert() {
        // A permit that reported no longer guards anything: its outcome
        // is the report, and nothing is aborted after it.
        let health = EndpointHealth::new(quick_config());
        let b = half_open(&health, "http://a/S");
        let permit = health.admit("http://a/S", Instant::now()).unwrap();
        assert!(permit.is_probe());
        assert!(b.probe_in_flight());
        assert!(permit.succeed(), "probe success recovers");
        assert_eq!(b.state(Instant::now()), BreakerState::Closed);
        // A permit admitted while closed holds no probe: dropped
        // unreported, it changes nothing.
        let permit = health.admit("http://a/S", Instant::now()).unwrap();
        assert!(!permit.is_probe());
        drop(permit);
        assert_eq!(b.state(Instant::now()), BreakerState::Closed);
    }

    #[test]
    fn a_failed_probe_permit_trips_and_the_open_breaker_admits_nobody() {
        let health = EndpointHealth::new(quick_config());
        let b = half_open(&health, "http://a/S");
        let probe = health.admit("http://a/S", Instant::now()).unwrap();
        assert!(
            health.admit("http://a/S", Instant::now()).is_none(),
            "the probe slot is taken"
        );
        assert!(probe.fail(), "a failed probe re-trips");
        assert!(!b.probe_in_flight());
        assert!(health.admit("http://a/S", Instant::now()).is_none(), "open");
        let closed = health.admit("http://b/S", Instant::now()).unwrap();
        assert!(!closed.fail(), "one failure of three trips nothing");
    }

    #[test]
    fn is_admitting_peeks_without_tracking_unknown_endpoints() {
        let health = EndpointHealth::new(quick_config());
        let now = Instant::now();
        assert!(health.is_admitting("http://never-called/S", now));
        assert!(health.snapshot(now).is_empty(), "a peek tracks nothing");
        let b = half_open(&health, "http://a/S");
        let now = Instant::now();
        assert!(
            health.is_admitting("http://a/S", now),
            "half-open, slot free"
        );
        let _probe = health.admit("http://a/S", now).unwrap();
        assert!(!health.is_admitting("http://a/S", now), "slot taken");
        assert!(b.probe_in_flight(), "peeking took nothing");
    }

    #[test]
    fn registry_shares_one_breaker_per_endpoint() {
        let health = EndpointHealth::new(quick_config());
        let a1 = health.breaker("http://a/S");
        let a2 = health.breaker("http://a/S");
        let b = health.breaker("http://b/S");
        assert!(Arc::ptr_eq(&a1, &a2));
        assert!(!Arc::ptr_eq(&a1, &b));
        let t0 = Instant::now();
        for _ in 0..3 {
            a1.on_failure(t0);
        }
        assert_eq!(a2.state(t0), BreakerState::Open, "state is shared");
        assert!(!health.is_admitting("http://a/S", t0));
        assert!(health.is_admitting("http://b/S", t0));
        let snap = health.snapshot(t0);
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0], ("http://a/S".to_string(), BreakerState::Open));
    }
}
