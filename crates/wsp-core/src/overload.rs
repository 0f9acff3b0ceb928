//! Server-side overload protection: admission control and deadline
//! propagation.
//!
//! The paper's container-less hosting claim (Section IV.A) means the
//! application *is* the server — there is no container in front of it
//! to absorb a burst. This module is the host-side half of the
//! resilience story started by the client retry loop: a
//! [`KeyedLoadShedPolicy`] bounds how much work a peer accepts, a
//! [`KeyedAdmissionController`] enforces it with an O(1) check per
//! request, and a shed answers *immediately* with
//! [`WspError::Overloaded`] plus a `Retry-After` hint — so a retry
//! storm backs off instead of amplifying the overload.
//!
//! There is one policy and one controller. A host is a gateway with a
//! single tenant: the bindings admit every request against the
//! [`ANONYMOUS_TENANT`] slot of a [`KeyedLoadShedPolicy::bounded`] (or
//! [`KeyedLoadShedPolicy::unlimited`]) policy, the mediation tier
//! admits per tenant against a [`KeyedLoadShedPolicy::fair`] one.
//!
//! Deadline propagation is the other half: the client's per-call
//! deadline crosses the wire as [`DEADLINE_HEADER`] (remaining budget
//! in milliseconds — a *duration*, not a wall-clock timestamp, so
//! unsynchronised peer clocks cannot corrupt it), is rehydrated
//! server-side into a [`DeadlineScope`], and work whose deadline has
//! already expired is shed at dequeue time — there is no point
//! computing a response nobody is waiting for.
//!
//! Every admission decision lives in the pure
//! [`KeyedAdmissionMachine`]; this module is its runtime shell. The
//! shell interns tenants, gathers the *observations* (queue depth,
//! deadline expiry), ships them inside a
//! [`KeyedAdmissionEvent::Admit`], and translates the effects back
//! into permits, faults and counters. `wsp-check` exhaustively
//! explores the machine; the tests here exercise the shell around it.
//! The overload wire grammar — the deadline budget, the `503` shed
//! response and the P2PS busy fault — is written once, at the bottom
//! of this module.

use crate::error::WspError;
use crate::machines::keyed_admission::{
    KeyedAdmissionEffect, KeyedAdmissionEvent, KeyedAdmissionMachine, KeyedAdmissionState,
    KeyedShedReason,
};
use crate::telemetry::{self, Counter};
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsp_http::{Headers, Response};
use wsp_simnet::Machine;

/// Request header carrying the caller's *remaining* call budget in
/// milliseconds. Relative (a duration) rather than absolute so clock
/// skew between peers cannot manufacture or destroy budget.
pub const DEADLINE_HEADER: &str = "X-WSP-Deadline";

/// Request header naming the tenant a request belongs to, for
/// per-tenant fair-share admission. Requests without it fall into the
/// [`ANONYMOUS_TENANT`] bucket.
pub const TENANT_HEADER: &str = "X-WSP-Tenant";

/// The tenant bucket for requests that do not identify themselves —
/// and the single slot a host admits everything against.
pub const ANONYMOUS_TENANT: &str = "anonymous";

/// SOAP header block (namespace-less local name) carrying the tenant
/// id over bindings without transport headers (the P2PS pipes).
pub const TENANT_SOAP_HEADER: &str = "Tenant";

/// Response header carrying the server's retry hint in milliseconds —
/// finer-grained companion to the standard whole-second `Retry-After`.
pub const RETRY_AFTER_MS_HEADER: &str = "X-WSP-Retry-After-Ms";

/// Reason prefix of the P2PS busy fault. A receiver fault whose reason
/// starts with this is a load-shed, not an application error; the
/// suffix carries the retry hint as `retry-after-ms=<n>`.
pub const BUSY_FAULT_PREFIX: &str = "wsp:overloaded";

/// SOAP header block (namespace-less local name) carrying the
/// remaining deadline budget over the P2PS binding.
pub const DEADLINE_SOAP_HEADER: &str = "Deadline";

/// What a peer is willing to accept before shedding. One global
/// in-flight cap is split into guaranteed shares by tenant weight
/// (largest-remainder apportionment, computed by the pure machine);
/// tenants may borrow idle capacity beyond their share but never out
/// of another tenant's unused guarantee. A host's policy
/// ([`Self::bounded`], [`Self::unlimited`]) has one tenant that owns
/// the whole cap.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyedLoadShedPolicy {
    /// Total in-flight permits (admitted and not yet answered) across
    /// every tenant. `usize::MAX` disables the check.
    pub global_max_in_flight: usize,
    /// Hard per-tenant burst ceiling (even with the rest of the host
    /// idle, one tenant cannot exceed this).
    pub tenant_max_in_flight: usize,
    /// Shed when the dispatch queue already holds this many jobs.
    /// `usize::MAX` disables the check.
    pub max_queue_depth: usize,
    /// Explicitly weighted tenants, interned first (in this order).
    /// Every other tenant has weight 1.
    pub weights: Vec<(String, u64)>,
    /// Base `Retry-After` hint; per-tenant hints scale it by how far
    /// over its guaranteed share the tenant already is.
    pub retry_after: Duration,
    /// Telemetry prefix: `<prefix>.{admitted,shed,shed_expired}` and
    /// the per-tenant `<prefix>.<tenant>.shed`.
    pub counter_prefix: String,
    /// Ceiling on the interned tenant population. Tenant ids arrive in
    /// client-controlled headers, so without a bound an attacker
    /// sending junk names would grow the interner, the per-tenant
    /// counters and the `/metrics` cardinality without limit — and
    /// each junk name's anti-starvation floor of 1 would dilute every
    /// real tenant's guaranteed share. Once the population is full,
    /// unseen tenants are bucketed into the shared
    /// [`ANONYMOUS_TENANT`] slot instead of being interned.
    /// Explicitly weighted tenants always intern, even past the cap.
    pub max_tenants: usize,
}

impl KeyedLoadShedPolicy {
    /// Accept everything: a host without limits, so nothing sheds
    /// until a policy is configured (drain mode and already-expired
    /// deadlines still refuse).
    pub fn unlimited() -> Self {
        KeyedLoadShedPolicy::bounded(usize::MAX, usize::MAX)
    }

    /// A host's policy: at most `in_flight` concurrent requests and
    /// `queue_depth` queued jobs, no tenant ceiling, 100 ms retry hint,
    /// the `admission.*` counter series.
    pub fn bounded(in_flight: usize, queue_depth: usize) -> Self {
        KeyedLoadShedPolicy {
            tenant_max_in_flight: usize::MAX,
            max_queue_depth: queue_depth,
            counter_prefix: "admission".to_owned(),
            ..KeyedLoadShedPolicy::fair(in_flight)
        }
    }

    /// An equal-weight fair-share policy over `global_cap` permits.
    pub fn fair(global_cap: usize) -> Self {
        KeyedLoadShedPolicy {
            global_max_in_flight: global_cap,
            tenant_max_in_flight: global_cap,
            max_queue_depth: usize::MAX,
            weights: Vec::new(),
            retry_after: Duration::from_millis(100),
            counter_prefix: "admission.tenant".to_owned(),
            max_tenants: 64,
        }
    }

    pub fn with_weight(mut self, tenant: impl Into<String>, weight: u64) -> Self {
        self.weights.push((tenant.into(), weight.max(1)));
        self
    }

    pub fn with_tenant_cap(mut self, cap: usize) -> Self {
        self.tenant_max_in_flight = cap;
        self
    }

    pub fn with_retry_after(mut self, hint: Duration) -> Self {
        self.retry_after = hint;
        self
    }

    pub fn with_counter_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.counter_prefix = prefix.into();
        self
    }

    pub fn with_max_tenants(mut self, max: usize) -> Self {
        self.max_tenants = max.max(1);
        self
    }
}

/// All protocol state, stepped under one mutex. The tenant interner
/// lives inside the same lock: admitting a brand-new tenant atomically
/// grows the machine's weight vector and the state's in-flight vector,
/// so shares re-apportion on the very next decision.
///
/// The apportionment is cached here and recomputed only when the
/// weight vector changes (a tenant interned), so the steady-state
/// admission path does no `O(n log n)` work under the lock.
struct KeyedSync {
    machine: KeyedAdmissionMachine,
    state: KeyedAdmissionState,
    tenants: Vec<String>,
    index: HashMap<String, usize>,
    /// `machine.guaranteed()` for the current weight vector.
    guaranteed: Vec<u64>,
    /// `<prefix>.<tenant>.shed` per slot, resolved once at interning so
    /// a shed — the path that must answer fast under overload — neither
    /// formats a name nor takes the registry lock.
    shed_counters: Vec<Arc<Counter>>,
}

impl KeyedSync {
    fn intern(&mut self, tenant: &str, weight: u64, counter_prefix: &str) -> usize {
        if let Some(&i) = self.index.get(tenant) {
            return i;
        }
        let i = self.tenants.len();
        self.tenants.push(tenant.to_owned());
        self.index.insert(tenant.to_owned(), i);
        self.shed_counters
            .push(telemetry::global().counter(format!("{counter_prefix}.{tenant}.shed")));
        self.machine.weights.push(weight.max(1));
        self.state.in_flight.push(0);
        self.guaranteed = self.machine.guaranteed();
        i
    }

    /// The slot a request for `tenant` is accounted to. Known tenants
    /// resolve directly; unseen ones intern (weight 1) while the
    /// population is below [`KeyedLoadShedPolicy::max_tenants`] and
    /// share the [`ANONYMOUS_TENANT`] bucket beyond it, bounding
    /// memory, metric cardinality and share dilution against junk
    /// tenant floods.
    fn tenant_index(&mut self, tenant: &str, policy: &KeyedLoadShedPolicy) -> usize {
        if let Some(&i) = self.index.get(tenant) {
            return i;
        }
        // Population full: the overflow bucket (interned on first use;
        // the population is thus bounded by `max_tenants + 1`).
        let tenant = if self.tenants.len() < policy.max_tenants {
            tenant
        } else {
            ANONYMOUS_TENANT
        };
        self.intern(tenant, 1, &policy.counter_prefix)
    }

    fn step(&mut self, event: KeyedAdmissionEvent) -> Vec<KeyedAdmissionEffect> {
        let (next, effects) = self
            .machine
            .step_apportioned(&self.guaranteed, &self.state, &event);
        self.state = next;
        effects
    }
}

struct KeyedInner {
    policy: KeyedLoadShedPolicy,
    sync: Mutex<KeyedSync>,
    admitted: Arc<Counter>,
    shed: Arc<Counter>,
    shed_expired: Arc<Counter>,
}

/// Enforces a [`KeyedLoadShedPolicy`]: the runtime shell around the
/// pure [`KeyedAdmissionMachine`]. Cheap to clone (all state behind
/// one `Arc`): a gateway's HTTP and P2PS fronts share one controller so
/// the fair-share arithmetic spans both bindings.
#[derive(Clone)]
pub struct KeyedAdmissionController {
    inner: Arc<KeyedInner>,
}

impl KeyedAdmissionController {
    pub fn new(policy: KeyedLoadShedPolicy) -> Self {
        let registry = telemetry::global();
        let machine = KeyedAdmissionMachine {
            global_cap: policy.global_max_in_flight as u64,
            weights: Vec::new(),
            tenant_cap: policy.tenant_max_in_flight as u64,
            max_queue_depth: policy.max_queue_depth as u64,
        };
        let mut sync = KeyedSync {
            state: machine.initial(),
            machine,
            tenants: Vec::new(),
            index: HashMap::new(),
            guaranteed: Vec::new(),
            shed_counters: Vec::new(),
        };
        let prefix = &policy.counter_prefix;
        // Intern configured tenants eagerly, in policy order, so their
        // indices (and the bisimulation mirror's) are deterministic.
        // Explicit weights always intern, even past `max_tenants`.
        for (tenant, weight) in &policy.weights {
            let i = sync.intern(tenant, *weight, prefix);
            // A tenant listed twice: the last weight wins.
            sync.machine.weights[i] = (*weight).max(1);
        }
        sync.guaranteed = sync.machine.guaranteed();
        KeyedAdmissionController {
            inner: Arc::new(KeyedInner {
                admitted: registry.counter(format!("{prefix}.admitted")),
                shed: registry.counter(format!("{prefix}.shed")),
                shed_expired: registry.counter(format!("{prefix}.shed_expired")),
                policy,
                sync: Mutex::new(sync),
            }),
        }
    }

    /// In-flight permits held by `tenant` (0 for unknown tenants).
    pub fn in_flight(&self, tenant: &str) -> usize {
        let sync = self.inner.sync.lock();
        sync.index
            .get(tenant)
            .map(|&i| sync.state.in_flight[i] as usize)
            .unwrap_or(0)
    }

    /// Requests currently admitted and unanswered, across every tenant.
    pub fn total_in_flight(&self) -> usize {
        self.inner.sync.lock().state.total() as usize
    }

    /// The guaranteed share currently apportioned to `tenant`.
    pub fn guaranteed_share(&self, tenant: &str) -> usize {
        let sync = self.inner.sync.lock();
        sync.index
            .get(tenant)
            .map(|&i| sync.guaranteed[i] as usize)
            .unwrap_or(0)
    }

    pub fn tenants(&self) -> Vec<String> {
        self.inner.sync.lock().tenants.clone()
    }

    /// Enter drain mode: every subsequent admission is refused (with
    /// the retry hint) while already-admitted work runs to completion.
    pub fn start_draining(&self) {
        self.inner.sync.lock().step(KeyedAdmissionEvent::BeginDrain);
    }

    pub fn stop_draining(&self) {
        self.inner.sync.lock().step(KeyedAdmissionEvent::EndDrain);
    }

    pub fn is_draining(&self) -> bool {
        self.inner.sync.lock().state.draining
    }

    /// [`Self::try_admit_at`] for callers without a dispatch queue in
    /// front of them (the mediation tier): queue depth 0.
    pub fn try_admit(
        &self,
        tenant: &str,
        deadline: Option<Instant>,
    ) -> Result<KeyedAdmissionPermit, WspError> {
        self.try_admit_at(tenant, 0, deadline)
    }

    /// Admit one request for `tenant` or shed it. `queue_depth` is the
    /// host's current dispatch-queue depth; `deadline` is the caller's
    /// propagated deadline, shed immediately when already expired (the
    /// caller has given up — answering quickly matters more than
    /// answering at all). A shed carries a per-tenant retry hint: the
    /// base hint scaled by how far over its guaranteed share the tenant
    /// already is, so a flooding tenant is told to back off harder than
    /// one shed by transient global pressure.
    pub fn try_admit_at(
        &self,
        tenant: &str,
        queue_depth: usize,
        deadline: Option<Instant>,
    ) -> Result<KeyedAdmissionPermit, WspError> {
        let deadline_expired = deadline.is_some_and(|d| Instant::now() >= d);
        let mut sync = self.inner.sync.lock();
        let t = sync.tenant_index(tenant, &self.inner.policy);
        let effects = sync.step(KeyedAdmissionEvent::Admit {
            tenant: t,
            queue_depth: queue_depth as u64,
            deadline_expired,
        });
        match effects.first() {
            Some(KeyedAdmissionEffect::Admitted { .. }) => {
                drop(sync);
                self.inner.admitted.incr();
                Ok(KeyedAdmissionPermit {
                    controller: self.clone(),
                    tenant: t,
                })
            }
            Some(KeyedAdmissionEffect::Shed { reason, .. }) => {
                let hint = self.retry_hint_locked(&sync, t, *reason);
                // Counted against the *interned* slot, so junk tenant
                // names beyond `max_tenants` all land on the anonymous
                // bucket instead of minting fresh series.
                sync.shed_counters[t].incr();
                drop(sync);
                self.inner.shed.incr();
                if *reason == KeyedShedReason::DeadlineExpired {
                    self.inner.shed_expired.incr();
                }
                Err(WspError::Overloaded {
                    retry_after_ms: Some(hint),
                })
            }
            other => unreachable!("Admit produced {other:?}"),
        }
    }

    /// The per-tenant hint: `base * (1 + in_flight/guaranteed)` for
    /// sheds the tenant caused itself (over its share or ceiling), the
    /// plain base for global conditions. Monotone in tenant pressure.
    fn retry_hint_locked(&self, sync: &KeyedSync, tenant: usize, reason: KeyedShedReason) -> u64 {
        let base = self.inner.policy.retry_after.as_millis() as u64;
        match reason {
            KeyedShedReason::TenantCap | KeyedShedReason::FairShareReserve => {
                let f = sync.state.in_flight[tenant];
                let g = sync.guaranteed[tenant].max(1);
                base * (1 + f / g).min(8)
            }
            _ => base,
        }
    }

    fn release(&self, tenant: usize) {
        let effects = self
            .inner
            .sync
            .lock()
            .step(KeyedAdmissionEvent::Release { tenant });
        debug_assert!(
            !effects.contains(&KeyedAdmissionEffect::PermitUnderflow),
            "permit released with nothing in flight"
        );
    }
}

/// RAII proof of admission: holds one of its tenant's in-flight slots,
/// released on drop (success, fault and panic paths alike).
pub struct KeyedAdmissionPermit {
    controller: KeyedAdmissionController,
    tenant: usize,
}

impl std::fmt::Debug for KeyedAdmissionPermit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyedAdmissionPermit")
            .field("tenant", &self.tenant)
            .finish()
    }
}

impl Drop for KeyedAdmissionPermit {
    fn drop(&mut self) {
        self.controller.release(self.tenant);
    }
}

// --- deadline propagation ----------------------------------------------------

thread_local! {
    static CURRENT_DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Scopes a call deadline to the current thread, mirroring
/// [`crate::telemetry::CorrelationScope`]: the client retry loop enters
/// one around each attempt so transports can serialise the remaining
/// budget, and a server enters one around handler execution so nested
/// outbound calls inherit the caller's budget. Restores the previous
/// deadline on drop, so scopes nest.
pub struct DeadlineScope {
    previous: Option<Instant>,
}

impl DeadlineScope {
    pub fn enter(deadline: Option<Instant>) -> DeadlineScope {
        let previous = CURRENT_DEADLINE.with(|cell| cell.replace(deadline));
        DeadlineScope { previous }
    }
}

impl Drop for DeadlineScope {
    fn drop(&mut self) {
        CURRENT_DEADLINE.with(|cell| cell.set(self.previous));
    }
}

/// The deadline scoped to the current thread, if any.
pub fn current_deadline() -> Option<Instant> {
    CURRENT_DEADLINE.with(|cell| cell.get())
}

/// Remaining budget of `deadline` in whole milliseconds, rounded down —
/// what goes on the wire and what the local wait is capped at. `None`
/// when less than a millisecond is left: that deadline counts as
/// expired (send nothing; a budget rounded up to 1 ms would let the
/// callee run past the caller's deadline).
pub fn remaining_ms(deadline: Instant) -> Option<u64> {
    let left = deadline
        .saturating_duration_since(Instant::now())
        .as_millis();
    u64::try_from(left).ok().filter(|&ms| ms > 0)
}

/// Never send a request whose budget is gone: what a request about to
/// leave may carry of `deadline`. `Ok(None)` without a deadline;
/// `Ok(Some(ms))` is both the wire value ([`DEADLINE_HEADER`] or the
/// [`DEADLINE_SOAP_HEADER`] block) and the cap on the local wait; an
/// expired deadline fails here rather than burn the server's time on a
/// doomed request.
pub fn send_budget(deadline: Option<Instant>) -> Result<Option<u64>, WspError> {
    deadline
        .map(|deadline| {
            remaining_ms(deadline).ok_or(WspError::Timeout {
                what: "deadline expired before send",
                millis: 0,
            })
        })
        .transpose()
}

/// Rehydrate a wire budget — the value of [`DEADLINE_HEADER`] or the
/// text of the [`DEADLINE_SOAP_HEADER`] block — into a local deadline.
/// Remote input: anything but a non-negative decimal millisecond count
/// that fits the clock yields `None` (no deadline), never a deadline
/// in the past.
pub fn parse_deadline(budget: &str) -> Option<Instant> {
    let ms = budget.trim().parse::<u64>().ok()?;
    Instant::now().checked_add(Duration::from_millis(ms))
}

/// The propagated deadline of an HTTP request, if it carries one.
pub fn deadline_from_headers(headers: &Headers) -> Option<Instant> {
    headers.get(DEADLINE_HEADER).and_then(parse_deadline)
}

/// The propagated deadline of a request that arrived over a pipe, one
/// header block at a time as the envelope reader shows them: `Some` if
/// `block` is the [`DEADLINE_SOAP_HEADER`] (the first one counts).
pub fn deadline_in(block: &wsp_xml::Element) -> Option<Option<Instant>> {
    let named = block.name().is("", DEADLINE_SOAP_HEADER);
    named.then(|| parse_deadline(&block.text()))
}

/// Map an admission-control rejection to the wire: `503` with a
/// whole-second `Retry-After` (rounded up, HTTP-standard) plus the
/// millisecond-precision [`RETRY_AFTER_MS_HEADER`] the WSPeer client
/// prefers.
pub fn shed_response(error: &WspError) -> Response {
    let mut response = Response::unavailable(&error.to_string());
    if let Some(hint) = error.retry_after_hint() {
        let ms = hint.as_millis() as u64;
        response
            .headers
            .set("Retry-After", ms.div_ceil(1000).max(1).to_string());
        response.headers.set(RETRY_AFTER_MS_HEADER, ms.to_string());
    }
    response
}

/// Render the busy-fault reason carried by the P2PS binding.
pub fn busy_fault_reason(retry_after: Duration) -> String {
    format!(
        "{BUSY_FAULT_PREFIX} retry-after-ms={}",
        retry_after.as_millis()
    )
}

/// Parse a fault reason: `Some(hint)` when it is a busy fault.
pub fn parse_busy_fault(reason: &str) -> Option<Option<u64>> {
    let rest = reason.strip_prefix(BUSY_FAULT_PREFIX)?;
    Some(
        rest.trim()
            .strip_prefix("retry-after-ms=")
            .and_then(|ms| ms.trim().parse().ok()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The slot a host admits everything against.
    const HOST: &str = ANONYMOUS_TENANT;

    #[test]
    fn unlimited_policy_admits_everything() {
        let ctl = KeyedAdmissionController::new(KeyedLoadShedPolicy::unlimited());
        let mut permits = Vec::new();
        for depth in 0..100 {
            permits.push(ctl.try_admit_at(HOST, depth, None).expect("admit"));
        }
        assert_eq!(ctl.total_in_flight(), 100);
        drop(permits);
        assert_eq!(ctl.total_in_flight(), 0);
    }

    #[test]
    fn in_flight_cap_sheds_and_recovers() {
        let ctl = KeyedAdmissionController::new(KeyedLoadShedPolicy::bounded(2, usize::MAX));
        let a = ctl.try_admit(HOST, None).expect("first");
        let _b = ctl.try_admit(HOST, None).expect("second");
        let shed = ctl.try_admit(HOST, None).expect_err("third must shed");
        // A full host sheds as `GlobalCap`: the plain base hint, never
        // the tenant-scaled one.
        assert!(
            matches!(
                shed,
                WspError::Overloaded {
                    retry_after_ms: Some(100)
                }
            ),
            "{shed:?}"
        );
        drop(a);
        ctl.try_admit(HOST, None).expect("slot freed by drop");
    }

    #[test]
    fn queue_depth_cap_sheds() {
        let ctl = KeyedAdmissionController::new(KeyedLoadShedPolicy::bounded(usize::MAX, 4));
        assert!(ctl.try_admit_at(HOST, 3, None).is_ok());
        assert!(matches!(
            ctl.try_admit_at(HOST, 4, None),
            Err(WspError::Overloaded {
                retry_after_ms: Some(100)
            })
        ));
    }

    #[test]
    fn expired_deadline_is_shed_on_arrival() {
        let ctl = KeyedAdmissionController::new(KeyedLoadShedPolicy::unlimited());
        let expired = Instant::now() - Duration::from_millis(1);
        assert!(matches!(
            ctl.try_admit(HOST, Some(expired)),
            Err(WspError::Overloaded { .. })
        ));
        let live = Instant::now() + Duration::from_secs(5);
        assert!(ctl.try_admit(HOST, Some(live)).is_ok());
    }

    #[test]
    fn draining_refuses_new_work_but_keeps_permits() {
        let ctl = KeyedAdmissionController::new(KeyedLoadShedPolicy::unlimited());
        let permit = ctl.try_admit(HOST, None).expect("before drain");
        ctl.start_draining();
        assert!(matches!(
            ctl.try_admit(HOST, None),
            Err(WspError::Overloaded { .. })
        ));
        assert_eq!(
            ctl.total_in_flight(),
            1,
            "drain leaves in-flight work alone"
        );
        drop(permit);
        assert_eq!(ctl.total_in_flight(), 0);
        ctl.stop_draining();
        assert!(ctl.try_admit(HOST, None).is_ok());
    }

    #[test]
    fn concurrent_admissions_never_exceed_the_cap() {
        let cap = 8;
        let ctl = KeyedAdmissionController::new(KeyedLoadShedPolicy::bounded(cap, usize::MAX));
        let peak = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..16)
            .map(|_| {
                let ctl = ctl.clone();
                let peak = peak.clone();
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        if let Ok(permit) = ctl.try_admit(HOST, None) {
                            let seen = ctl.total_in_flight();
                            peak.fetch_max(seen, Ordering::SeqCst);
                            assert!(seen <= cap, "cap breached: {seen}");
                            drop(permit);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ctl.total_in_flight(), 0);
        assert!(peak.load(Ordering::SeqCst) >= 1);
    }

    #[test]
    fn deadline_scope_nests_and_restores() {
        assert_eq!(current_deadline(), None);
        let outer = Instant::now() + Duration::from_secs(10);
        {
            let _outer = DeadlineScope::enter(Some(outer));
            assert_eq!(current_deadline(), Some(outer));
            let inner = Instant::now() + Duration::from_secs(1);
            {
                let _inner = DeadlineScope::enter(Some(inner));
                assert_eq!(current_deadline(), Some(inner));
            }
            assert_eq!(current_deadline(), Some(outer));
        }
        assert_eq!(current_deadline(), None);
    }

    #[test]
    fn wire_budget_round_trips() {
        let deadline = Instant::now() + Duration::from_millis(500);
        let ms = remaining_ms(deadline).expect("budget remains");
        assert!(ms > 0 && ms <= 500, "{ms}");
        let rehydrated = parse_deadline(&ms.to_string()).expect("a plain budget parses");
        // The rehydrated deadline is within transit slop of the original.
        let slop = Duration::from_millis(50);
        assert!(rehydrated <= deadline + slop);
        let expired = Instant::now() - Duration::from_millis(1);
        assert_eq!(remaining_ms(expired), None);
    }

    #[test]
    fn a_budget_under_a_millisecond_is_refused_before_send() {
        let soon = Instant::now() + Duration::from_micros(500);
        assert!(matches!(
            send_budget(Some(soon)),
            Err(WspError::Timeout { millis: 0, .. })
        ));
        assert_eq!(send_budget(None).ok(), Some(None));
        let later = Instant::now() + Duration::from_millis(1500);
        let ms = send_budget(Some(later))
            .ok()
            .flatten()
            .expect("budget left");
        assert!((1000..1500).contains(&ms), "{ms} rounds down");
    }

    #[test]
    fn keyed_guaranteed_shares_are_always_admitted() {
        let ctl = KeyedAdmissionController::new(
            KeyedLoadShedPolicy::fair(4)
                .with_weight("hot", 1)
                .with_weight("cold", 1),
        );
        // Hot takes everything it can get.
        let mut hot = Vec::new();
        while let Ok(p) = ctl.try_admit("hot", None) {
            hot.push(p);
        }
        assert_eq!(
            ctl.in_flight("hot"),
            2,
            "hot stops at its share + 0 reserve"
        );
        // Cold's guarantee is untouched: both its permits admit.
        let c1 = ctl.try_admit("cold", None).expect("cold share 1");
        let _c2 = ctl.try_admit("cold", None).expect("cold share 2");
        assert_eq!(ctl.total_in_flight(), 4);
        assert!(ctl.try_admit("cold", None).is_err(), "global cap reached");
        drop(c1);
        assert!(ctl.try_admit("cold", None).is_ok(), "slot freed by drop");
    }

    #[test]
    fn keyed_borrowing_uses_idle_capacity_but_not_the_reserve() {
        let ctl = KeyedAdmissionController::new(
            KeyedLoadShedPolicy::fair(6)
                .with_weight("a", 1)
                .with_weight("b", 1),
        );
        // b holds one of its three guaranteed permits; reserve is 2, so
        // the total may grow to 6 - 2 = 4, leaving a room for three.
        let _b = ctl.try_admit("b", None).unwrap();
        let mut a = Vec::new();
        while let Ok(p) = ctl.try_admit("a", None) {
            a.push(p);
        }
        assert_eq!(ctl.in_flight("a"), 3);
        assert_eq!(ctl.total_in_flight(), 4);
        // Once b releases, the freed reserve is still b's: a remains
        // capped until shares genuinely free up.
        drop(_b);
        assert!(ctl.try_admit("a", None).is_err());
    }

    #[test]
    fn keyed_new_tenants_reapportion_shares() {
        let ctl = KeyedAdmissionController::new(KeyedLoadShedPolicy::fair(6));
        let _x = ctl.try_admit("x", None).unwrap();
        assert_eq!(ctl.guaranteed_share("x"), 6, "alone, x owns the cap");
        let _y = ctl.try_admit("y", None).unwrap();
        assert_eq!(ctl.guaranteed_share("x"), 3, "a second tenant halves it");
        assert_eq!(ctl.guaranteed_share("y"), 3);
    }

    #[test]
    fn keyed_retry_hint_scales_with_tenant_pressure() {
        let ctl = KeyedAdmissionController::new(
            KeyedLoadShedPolicy::fair(4)
                .with_weight("hog", 1)
                .with_weight("meek", 3)
                .with_retry_after(Duration::from_millis(50)),
        );
        let mut held = Vec::new();
        loop {
            match ctl.try_admit("hog", None) {
                Ok(p) => held.push(p),
                Err(WspError::Overloaded { retry_after_ms }) => {
                    let hog_hint = retry_after_ms.unwrap();
                    assert!(
                        hog_hint >= 100,
                        "an over-share tenant is told to back off harder: {hog_hint}"
                    );
                    break;
                }
                Err(e) => panic!("{e:?}"),
            }
        }
        // A shed caused by global pressure keeps the base hint.
        let mut meek = Vec::new();
        while let Ok(p) = ctl.try_admit("meek", None) {
            meek.push(p);
        }
        match ctl.try_admit("meek", None) {
            Err(WspError::Overloaded { retry_after_ms }) => {
                assert_eq!(retry_after_ms, Some(50));
            }
            other => panic!("expected global-cap shed, got {other:?}"),
        }
    }

    #[test]
    fn keyed_expired_deadline_sheds_and_draining_refuses() {
        let ctl = KeyedAdmissionController::new(KeyedLoadShedPolicy::fair(8));
        let expired = Instant::now() - Duration::from_millis(1);
        assert!(ctl.try_admit("t", Some(expired)).is_err());
        ctl.start_draining();
        assert!(ctl.is_draining());
        assert!(ctl.try_admit("t", None).is_err());
        ctl.stop_draining();
        let permit = ctl.try_admit("t", None).unwrap();
        drop(permit);
        assert_eq!(ctl.total_in_flight(), 0);
    }

    #[test]
    fn keyed_concurrent_floods_never_breach_either_cap() {
        let ctl = KeyedAdmissionController::new(
            KeyedLoadShedPolicy::fair(8)
                .with_weight("a", 1)
                .with_weight("b", 1)
                .with_tenant_cap(6),
        );
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let ctl = ctl.clone();
                std::thread::spawn(move || {
                    let tenant = if i % 2 == 0 { "a" } else { "b" };
                    for _ in 0..300 {
                        if let Ok(permit) = ctl.try_admit(tenant, None) {
                            assert!(ctl.total_in_flight() <= 8);
                            assert!(ctl.in_flight(tenant) <= 6);
                            drop(permit);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ctl.total_in_flight(), 0);
    }

    #[test]
    fn keyed_per_tenant_shed_counters_move() {
        let t = telemetry::global();
        let before = t.counter("admission.tenant.noisy.shed").get();
        let ctl = KeyedAdmissionController::new(KeyedLoadShedPolicy::fair(1));
        let _held = ctl.try_admit("noisy", None).unwrap();
        assert!(ctl.try_admit("noisy", None).is_err());
        assert!(t.counter("admission.tenant.noisy.shed").get() > before);
    }

    #[test]
    fn keyed_tenant_population_is_bounded_by_the_policy_cap() {
        let ctl = KeyedAdmissionController::new(KeyedLoadShedPolicy::fair(8).with_max_tenants(2));
        let _a = ctl.try_admit("a", None).unwrap();
        let _b = ctl.try_admit("b", None).unwrap();
        // A flood of junk tenant names must not grow the interner.
        for i in 0..100 {
            let _ = ctl.try_admit(&format!("junk-{i}"), None);
        }
        let tenants = ctl.tenants();
        assert_eq!(
            tenants.len(),
            3,
            "a, b and the overflow bucket only: {tenants:?}"
        );
        assert!(tenants.contains(&ANONYMOUS_TENANT.to_owned()));
        // Junk names own no slot of their own, and the real tenants'
        // guarantees are not diluted below the three-way split.
        assert_eq!(ctl.guaranteed_share("junk-0"), 0);
        assert!(ctl.guaranteed_share("a") >= 2);
        assert!(ctl.guaranteed_share("b") >= 2);
    }

    #[test]
    fn keyed_overflow_tenants_share_the_anonymous_slot() {
        let ctl = KeyedAdmissionController::new(KeyedLoadShedPolicy::fair(4).with_max_tenants(1));
        let _a = ctl.try_admit("a", None).unwrap();
        let p = ctl.try_admit("flood-1", None).unwrap();
        assert_eq!(
            ctl.in_flight(ANONYMOUS_TENANT),
            1,
            "overflow permits are accounted to the shared bucket"
        );
        let _q = ctl.try_admit("flood-2", None).unwrap();
        assert_eq!(ctl.in_flight(ANONYMOUS_TENANT), 2);
        drop(p);
        assert_eq!(ctl.in_flight(ANONYMOUS_TENANT), 1);
    }

    #[test]
    fn keyed_junk_tenant_sheds_count_against_the_anonymous_bucket() {
        let t = telemetry::global();
        let prefix = "admission.bucket.test";
        let ctl = KeyedAdmissionController::new(
            KeyedLoadShedPolicy::fair(1)
                .with_max_tenants(1)
                .with_counter_prefix(prefix),
        );
        let _held = ctl.try_admit("real", None).unwrap();
        let before = t.counter(format!("{prefix}.anonymous.shed")).get();
        assert!(ctl.try_admit("junk-name", None).is_err());
        assert!(
            t.counter(format!("{prefix}.anonymous.shed")).get() > before,
            "the shed series is named by the interned bucket"
        );
        assert_eq!(
            t.counter(format!("{prefix}.junk-name.shed")).get(),
            0,
            "junk names must not mint fresh metric series"
        );
    }

    #[test]
    fn busy_fault_reason_round_trips() {
        let reason = busy_fault_reason(Duration::from_millis(250));
        assert_eq!(parse_busy_fault(&reason), Some(Some(250)));
        assert_eq!(parse_busy_fault(BUSY_FAULT_PREFIX), Some(None));
        assert_eq!(parse_busy_fault("service X is not deployed"), None);
    }
}
