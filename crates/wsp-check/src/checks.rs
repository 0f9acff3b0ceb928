//! The invariant suite: one bounded configuration per machine, plus
//! the composed pipeline, each explored exhaustively.
//!
//! Every function returns the exploration [`Report`] (state and
//! transition counts — quoted in `EXPERIMENTS.md` E13) or the first
//! [`Violation`] with its counterexample trace. [`run_all`] is what
//! the `wsp-check` binary and the CI stage execute.

use crate::composed::{ComposedEffect, ComposedEvent, ComposedMachine, ComposedState};
use crate::mutations::{
    ComposedSkipHalfOpenReset, DrainClosesUnread, IgnoreReserve, LeakSlotOnReject,
    SkipHalfOpenReset, StickyHeadTimer,
};
use crate::{fault_seed, random_walk, Graph, Report, Violation};
use wsp_core::machines::breaker::{
    Admit, BreakerEffect, BreakerEvent, BreakerMachine, BreakerState, Phase,
};
use wsp_core::machines::correlation::{
    CallPhase, CorrelationEffect, CorrelationEvent, CorrelationMachine, CorrelationState,
};
use wsp_core::machines::keyed_admission::{
    KeyedAdmissionEffect, KeyedAdmissionEvent, KeyedAdmissionMachine, KeyedAdmissionState,
    KeyedShedReason,
};
use wsp_http::conn::{
    ConnEffect, ConnEvent, ConnMachine, ConnState, Phase as ConnPhase, TimerKind,
};
use wsp_http::drain::{DrainEffect, DrainEvent, DrainMachine, DrainState, Lifecycle};
use wsp_p2ps::rpc_machine::{RpcEffect, RpcEvent, RpcMachine, RpcState};
use wsp_registry::{
    GroupEffect, GroupMachine, LeaseEffect, LeaseEvent, LeaseMachine, LeaseState, LeaseStatus,
    ReplEffect, ReplEvent, ReplicaMachine, ReplicaState as ReplState, SkipLogCatchup,
    Status as ReplStatus, TruncateToOwnCommit,
};
use wsp_simnet::Machine;

/// Explosion guard: these configurations exhaust in well under this.
const MAX_STATES: usize = 200_000;

// ---------------------------------------------------------------------------
// Circuit breaker (with an explicit logical clock)
// ---------------------------------------------------------------------------

/// The breaker's events carry `now`; exploration needs a monotonic
/// clock, so we pair any breaker-shaped machine with a bounded tick
/// counter. Generic so the mutation wrappers explore identically.
pub struct Clocked<M> {
    pub inner: M,
    pub max_ticks: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClockedState {
    pub breaker: BreakerState,
    pub clock: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockedEvent {
    Tick,
    Acquire,
    Success,
    Failure,
    ProbeAborted,
}

impl<M> Machine for Clocked<M>
where
    M: Machine<State = BreakerState, Event = BreakerEvent, Effect = BreakerEffect>,
{
    type State = ClockedState;
    type Event = ClockedEvent;
    type Effect = BreakerEffect;

    fn initial(&self) -> ClockedState {
        ClockedState {
            breaker: self.inner.initial(),
            clock: 0,
        }
    }

    fn step(
        &self,
        state: &ClockedState,
        event: &ClockedEvent,
    ) -> (ClockedState, Vec<BreakerEffect>) {
        let mut next = *state;
        let now = state.clock;
        let effects = match event {
            ClockedEvent::Tick => {
                if next.clock < self.max_ticks {
                    next.clock += 1;
                }
                vec![]
            }
            ClockedEvent::Acquire => {
                let (s, e) = self
                    .inner
                    .step(&state.breaker, &BreakerEvent::Acquire { now });
                next.breaker = s;
                e
            }
            ClockedEvent::Success => {
                let (s, e) = self.inner.step(&state.breaker, &BreakerEvent::Success);
                next.breaker = s;
                e
            }
            ClockedEvent::Failure => {
                let (s, e) = self
                    .inner
                    .step(&state.breaker, &BreakerEvent::Failure { now });
                next.breaker = s;
                e
            }
            ClockedEvent::ProbeAborted => {
                let (s, e) = self
                    .inner
                    .step(&state.breaker, &BreakerEvent::ProbeAborted { now });
                next.breaker = s;
                e
            }
        };
        (next, effects)
    }
}

fn breaker_config() -> BreakerMachine {
    BreakerMachine {
        failure_threshold: 2,
        cooldown: 2,
    }
}

fn clocked_events(state: &ClockedState) -> Vec<ClockedEvent> {
    // Success/Failure are always enabled: a straggler admitted before
    // the trip may report at any time, which is exactly the hard case.
    let mut events = vec![
        ClockedEvent::Acquire,
        ClockedEvent::Success,
        ClockedEvent::Failure,
        ClockedEvent::ProbeAborted,
    ];
    if state.clock < 4 {
        events.push(ClockedEvent::Tick);
    }
    events
}

fn breaker_invariants<M>(graph: &Graph<Clocked<M>>, cfg: &BreakerMachine) -> Result<(), Violation>
where
    M: Machine<State = BreakerState, Event = BreakerEvent, Effect = BreakerEffect>,
{
    graph.check_edges(
        "a success while tripped always closes the breaker",
        |from, event, _effects, to| {
            !(matches!(event, ClockedEvent::Success)
                && matches!(from.breaker, BreakerState::Tripped { .. }))
                || to.breaker == BreakerState::Closed { failures: 0 }
        },
    )?;
    graph.check_edges(
        "at most one probe in flight: acquire during a probe is rejected",
        |from, event, effects, _to| {
            !(matches!(event, ClockedEvent::Acquire)
                && matches!(
                    from.breaker,
                    BreakerState::Tripped {
                        probe_in_flight: true,
                        ..
                    }
                ))
                || effects.contains(&BreakerEffect::Admit(Admit::Rejected))
        },
    )?;
    graph.check_edges(
        "probes are only admitted in the half-open phase",
        |from, _event, effects, _to| {
            !effects.contains(&BreakerEffect::Admit(Admit::Probe))
                || cfg.phase(&from.breaker, from.clock) == Phase::HalfOpen
        },
    )?;
    graph.check_edges(
        "an aborted probe re-opens for a fresh cooldown",
        |from, event, _effects, to| {
            !(matches!(event, ClockedEvent::ProbeAborted)
                && matches!(
                    from.breaker,
                    BreakerState::Tripped {
                        probe_in_flight: true,
                        ..
                    }
                ))
                || to.breaker
                    == BreakerState::Tripped {
                        since: from.clock,
                        probe_in_flight: false,
                    }
        },
    )?;
    graph.check_states(
        "closed failure count stays below the threshold",
        |s| match s.breaker {
            BreakerState::Closed { failures } => failures < cfg.failure_threshold,
            BreakerState::Tripped { .. } => true,
        },
    )?;
    graph.check_eventually("the breaker can always close again", |s| {
        s.breaker == BreakerState::Closed { failures: 0 }
    })
}

pub fn check_breaker() -> Result<Report, Violation> {
    let cfg = breaker_config();
    let graph = Graph::explore(
        Clocked {
            inner: cfg.clone(),
            max_ticks: 4,
        },
        clocked_events,
        MAX_STATES,
    );
    breaker_invariants(&graph, &cfg)?;
    Ok(graph.report("breaker(threshold=2, cooldown=2, ticks<=4)"))
}

/// The seeded mutation must produce a counterexample — proving the
/// breaker invariants are load-bearing.
pub fn breaker_mutation_counterexample() -> Option<Violation> {
    let cfg = breaker_config();
    let graph = Graph::explore(
        Clocked {
            inner: SkipHalfOpenReset(cfg.clone()),
            max_ticks: 4,
        },
        clocked_events,
        MAX_STATES,
    );
    breaker_invariants(&graph, &cfg).err()
}

// ---------------------------------------------------------------------------
// Admission control: one machine, two configurations
// ---------------------------------------------------------------------------

/// A host: one tenant that owns the whole cap, behind a dispatch queue.
fn admission_config() -> KeyedAdmissionMachine {
    KeyedAdmissionMachine::one_tenant(2, 1)
}

/// A mediation tier: two tenants with unequal weights and a tenant cap
/// tight enough that every shed reason is reachable: guaranteed shares
/// come out [3, 1], so tenant 0 can exercise the tenant cap and tenant
/// 1 the reserve.
fn keyed_admission_config() -> KeyedAdmissionMachine {
    KeyedAdmissionMachine {
        global_cap: 4,
        weights: vec![2, 1],
        tenant_cap: 3,
        max_queue_depth: 1,
    }
}

/// The alphabet of either configuration: every tenant the state holds,
/// the queue empty or full, the deadline live or expired.
fn keyed_admission_events(state: &KeyedAdmissionState) -> Vec<KeyedAdmissionEvent> {
    let mut events = Vec::new();
    for tenant in 0..state.in_flight.len() {
        for queue_depth in [0, 1] {
            for deadline_expired in [false, true] {
                events.push(KeyedAdmissionEvent::Admit {
                    tenant,
                    queue_depth,
                    deadline_expired,
                });
            }
        }
        // Release pairs with a held permit (RAII in the shell).
        if state.in_flight[tenant] > 0 {
            events.push(KeyedAdmissionEvent::Release { tenant });
        }
    }
    events.push(KeyedAdmissionEvent::BeginDrain);
    events.push(KeyedAdmissionEvent::EndDrain);
    events
}

/// The invariants, shared between the genuine machine and the mutants
/// so a mutant is condemned by exactly the properties we quote.
fn keyed_admission_invariants<M>(
    graph: &Graph<M>,
    cfg: &KeyedAdmissionMachine,
) -> Result<(), Violation>
where
    M: Machine<
        State = KeyedAdmissionState,
        Event = KeyedAdmissionEvent,
        Effect = KeyedAdmissionEffect,
    >,
{
    let guaranteed = cfg.guaranteed();
    graph.check_states("total permits never exceed the global cap", |s| {
        s.total() <= cfg.global_cap
    })?;
    graph.check_states("no tenant exceeds the tenant cap", |s| {
        s.in_flight.iter().all(|&f| f <= cfg.tenant_cap)
    })?;
    // The inductive heart of fair-share isolation: borrowed capacity
    // never eats into the reserve held for unused guaranteed shares,
    // so a below-share admit is *always* safe to grant unconditionally.
    graph.check_states("borrows leave every unused guaranteed share covered", |s| {
        let reserve: u64 = guaranteed
            .iter()
            .zip(&s.in_flight)
            .map(|(&g, &f)| g.saturating_sub(f))
            .sum();
        s.total() + reserve <= cfg.global_cap
    })?;
    graph.check_edges("permit counts never go negative", |_f, _e, effects, _t| {
        !effects.contains(&KeyedAdmissionEffect::PermitUnderflow)
    })?;
    graph.check_edges(
        "nothing is admitted while draining",
        |from, _e, effects, _t| {
            !(from.draining
                && effects
                    .iter()
                    .any(|fx| matches!(fx, KeyedAdmissionEffect::Admitted { .. })))
        },
    )?;
    graph.check_edges(
        "an expired deadline always sheds as DeadlineExpired",
        |_from, event, effects, _to| match event {
            KeyedAdmissionEvent::Admit {
                tenant,
                deadline_expired: true,
                ..
            } => {
                effects
                    == [KeyedAdmissionEffect::Shed {
                        tenant: *tenant,
                        reason: KeyedShedReason::DeadlineExpired,
                    }]
            }
            _ => true,
        },
    )?;
    graph.check_edges(
        "a full dispatch queue never admits",
        |_from, event, effects, _to| match event {
            KeyedAdmissionEvent::Admit { queue_depth, .. }
                if *queue_depth >= cfg.max_queue_depth =>
            {
                matches!(effects, [KeyedAdmissionEffect::Shed { .. }])
            }
            _ => true,
        },
    )?;
    // No starvation: a clean request from a tenant still under its
    // guaranteed share is admitted no matter what the others hold.
    graph.check_edges(
        "a tenant below its guaranteed share is never shed for capacity",
        |from, event, effects, _to| match event {
            KeyedAdmissionEvent::Admit {
                tenant,
                queue_depth,
                deadline_expired: false,
            } if !from.draining
                && *queue_depth < cfg.max_queue_depth
                && from.in_flight[*tenant] < guaranteed[*tenant] =>
            {
                effects == [KeyedAdmissionEffect::Admitted { tenant: *tenant }]
            }
            _ => true,
        },
    )?;
    graph.check_eventually("in-flight work can always drain to zero", |s| {
        s.total() == 0
    })
}

/// The host configuration, held to the same invariants as the
/// two-tenant one (with a single tenant the fair-share properties
/// degenerate to "the cap is the cap", which is the point).
pub fn check_admission() -> Result<Report, Violation> {
    let cfg = admission_config();
    let graph = Graph::explore(cfg.clone(), keyed_admission_events, MAX_STATES);
    keyed_admission_invariants(&graph, &cfg)?;
    Ok(graph.report("admission(cap=2, queue=1)"))
}

pub fn check_keyed_admission() -> Result<Report, Violation> {
    let cfg = keyed_admission_config();
    let graph = Graph::explore(cfg.clone(), keyed_admission_events, MAX_STATES);
    keyed_admission_invariants(&graph, &cfg)?;
    Ok(graph.report("keyed_admission(cap=4, weights=[2,1], tenant_cap=3)"))
}

/// Mutation run: the borrow path that forgets the fair-share reserve
/// must be condemned with a trace (see [`IgnoreReserve`]).
pub fn keyed_admission_mutation_counterexample() -> Option<Violation> {
    let cfg = keyed_admission_config();
    let graph = Graph::explore(
        IgnoreReserve(cfg.clone()),
        keyed_admission_events,
        MAX_STATES,
    );
    keyed_admission_invariants(&graph, &cfg).err()
}

// ---------------------------------------------------------------------------
// Dispatcher correlation
// ---------------------------------------------------------------------------

const TOKENS: [u64; 2] = [0, 1];

fn correlation_events(_state: &CorrelationState) -> Vec<CorrelationEvent> {
    // The machine is total: every event is meaningful in every state
    // (late completions, double cancels, takes of unknown tokens).
    TOKENS
        .iter()
        .flat_map(|&t| {
            [
                CorrelationEvent::Register(t),
                CorrelationEvent::Complete(t),
                CorrelationEvent::Poison(t),
                CorrelationEvent::Cancel(t),
                CorrelationEvent::Take(t),
            ]
        })
        .collect()
}

pub fn check_correlation() -> Result<Report, Violation> {
    let graph = Graph::explore(CorrelationMachine, correlation_events, MAX_STATES);
    graph.check_edges(
        "a value is only delivered to a pending call (no double delivery)",
        |from, _event, effects, _to| {
            effects.iter().all(|e| match e {
                CorrelationEffect::DeliverValue(t) | CorrelationEffect::DeliverPoison(t) => {
                    from.phase(*t) == Some(CallPhase::Pending)
                }
                _ => true,
            })
        },
    )?;
    graph.check_edges(
        "a token leaves the correlation table exactly when it stops pending",
        |from, _event, effects, to| {
            TOKENS.iter().all(|&t| {
                let left_table = from.phase(t) == Some(CallPhase::Pending)
                    && to.phase(t) != Some(CallPhase::Pending);
                effects.contains(&CorrelationEffect::RemoveEntry(t)) == left_table
            })
        },
    )?;
    graph.check_edges(
        "results are yielded from Ready and re-panicked from Poisoned, only",
        |from, _event, effects, _to| {
            effects.iter().all(|e| match e {
                CorrelationEffect::YieldValue(t) => from.phase(*t) == Some(CallPhase::Ready),
                CorrelationEffect::PanicWaiter(t) => from.phase(*t) == Some(CallPhase::Poisoned),
                _ => true,
            })
        },
    )?;
    for &t in &TOKENS {
        graph.check_eventually(
            "no lost token: every registered call can still settle and leave",
            |s| s.phase(t).is_none(),
        )?;
    }
    graph.check_eventually("the whole table can always empty", |s| s.calls.is_empty())?;
    Ok(graph.report("correlation(tokens=2)"))
}

// ---------------------------------------------------------------------------
// HTTP drain lifecycle
// ---------------------------------------------------------------------------

fn drain_config() -> DrainMachine {
    DrainMachine {
        max_connections: Some(2),
    }
}

fn drain_events(state: &DrainState) -> Vec<DrainEvent> {
    let mut events = Vec::new();
    // Bound accepts so a slot-leaking mutant still yields a finite
    // graph for the checker to condemn (the genuine machine never
    // passes `active == 2`).
    if state.active < 6 {
        events.push(DrainEvent::Accept);
    }
    // Closes are paired with admitted connections (ActiveGuard).
    if state.active > 0 {
        events.push(DrainEvent::ConnClosed);
    }
    events.push(DrainEvent::BeginDrain);
    events.push(DrainEvent::Stop);
    events
}

fn drain_invariants(
    graph: &Graph<impl Machine<State = DrainState, Event = DrainEvent, Effect = DrainEffect>>,
) -> Result<(), Violation> {
    graph.check_states("active connections never exceed the cap", |s| s.active <= 2)?;
    graph.check_edges("slot accounting never underflows", |_f, _e, effects, _t| {
        !effects.contains(&DrainEffect::SlotUnderflow)
    })?;
    graph.check_edges(
        "connections are only served while accepting",
        |from, _event, effects, _to| {
            !effects.contains(&DrainEffect::Serve) || from.lifecycle == Lifecycle::Accepting
        },
    )?;
    graph.check_edges(
        "a rejected connection takes no slot",
        |from, _event, effects, to| {
            !(effects.contains(&DrainEffect::RejectAtCapacity)
                || effects.contains(&DrainEffect::RejectDraining))
                || to.active == from.active
        },
    )?;
    graph.check_eventually("drain always reaches stopped with zero leaked slots", |s| {
        s.stopped() && s.active == 0
    })
}

pub fn check_drain() -> Result<Report, Violation> {
    let graph = Graph::explore(drain_config(), drain_events, MAX_STATES);
    drain_invariants(&graph)?;
    Ok(graph.report("drain(cap=2)"))
}

/// The slot-leak mutation must produce a counterexample.
pub fn drain_mutation_counterexample() -> Option<Violation> {
    let graph = Graph::explore(LeakSlotOnReject(drain_config()), drain_events, MAX_STATES);
    drain_invariants(&graph).err()
}

// ---------------------------------------------------------------------------
// Reactor connection lifecycle
// ---------------------------------------------------------------------------

/// The events the reactor shell can actually deliver in each phase —
/// readiness happenings are gated exactly the way epoll and the wheel
/// gate them (no `HandlerDone` without a dispatched handler, no
/// deadline for an unarmed timer). `Closed` gets the *full* alphabet:
/// the shell can always race a late completion or flush into a dead
/// connection, and the machine must shrug every one of them off.
fn conn_events(state: &ConnState) -> Vec<ConnEvent> {
    use ConnEvent as Ev;
    if state.phase == ConnPhase::Closed {
        return vec![
            Ev::Open,
            Ev::FirstByte,
            Ev::HeadDone,
            Ev::RequestDone,
            Ev::BadRequest,
            Ev::HandlerDone { close: false },
            Ev::HandlerDone { close: true },
            Ev::WriteFlushed,
            Ev::Deadline(TimerKind::Head),
            Ev::Deadline(TimerKind::Body),
            Ev::Deadline(TimerKind::Idle),
            Ev::Eof,
            Ev::IoError,
            Ev::DrainBegan,
            Ev::Stopped,
        ];
    }
    let mut events = match state.phase {
        ConnPhase::New => return vec![Ev::Open],
        ConnPhase::Idle => vec![Ev::FirstByte],
        ConnPhase::ReadingHead => vec![Ev::HeadDone, Ev::RequestDone, Ev::BadRequest],
        ConnPhase::ReadingBody => vec![Ev::RequestDone, Ev::BadRequest],
        ConnPhase::Handling => vec![
            Ev::HandlerDone { close: false },
            Ev::HandlerDone { close: true },
        ],
        ConnPhase::Writing { .. } => vec![Ev::WriteFlushed],
        ConnPhase::Closed => unreachable!("handled above"),
    };
    // The wheel only fires deadlines that are armed (exact
    // cancellation), and only after registration.
    for kind in [TimerKind::Head, TimerKind::Body, TimerKind::Idle] {
        if state_timer(state, kind) {
            events.push(Ev::Deadline(kind));
        }
    }
    // The peer and the server lifecycle can interrupt any live phase.
    events.push(Ev::Eof);
    events.push(Ev::IoError);
    if !state.draining {
        events.push(Ev::DrainBegan);
    }
    events.push(Ev::Stopped);
    events
}

/// `ConnState::timer` is private to wsp-http; mirror it here.
fn state_timer(state: &ConnState, kind: TimerKind) -> bool {
    match kind {
        TimerKind::Head => state.head_timer,
        TimerKind::Body => state.body_timer,
        TimerKind::Idle => state.idle_timer,
    }
}

fn conn_invariants(
    graph: &Graph<impl Machine<State = ConnState, Event = ConnEvent, Effect = ConnEffect>>,
) -> Result<(), Violation> {
    use ConnEffect as Fx;
    // Timers track phases exactly: a deadline armed for a stage the
    // connection is not in would 408 (or reap) the wrong request.
    graph.check_states("the header timer is armed iff reading the head", |s| {
        s.head_timer == (s.phase == ConnPhase::ReadingHead)
    })?;
    graph.check_states("the body timer is armed iff reading the body", |s| {
        s.body_timer == (s.phase == ConnPhase::ReadingBody)
    })?;
    graph.check_states("the idle timer is armed iff idle", |s| {
        s.idle_timer == (s.phase == ConnPhase::Idle)
    })?;
    // Single dispatch: exactly one handler execution per request, on
    // the edge into Handling.
    graph.check_edges(
        "dispatch happens exactly on the edge into Handling",
        |from, _event, effects, to| {
            effects.contains(&Fx::Dispatch)
                == (from.phase != ConnPhase::Handling && to.phase == ConnPhase::Handling)
        },
    )?;
    // Closed is terminal and silent: late completions, stale flushes
    // and repeated stops against a dead connection do nothing.
    graph.check_edges(
        "a closed connection never moves or emits",
        |from, _event, effects, to| {
            from.phase != ConnPhase::Closed || (effects.is_empty() && to == from)
        },
    )?;
    // Close is emitted exactly when the connection dies — never twice,
    // never silently.
    graph.check_edges(
        "Close accompanies exactly the edges into Closed",
        |from, _event, effects, to| {
            effects.contains(&Fx::Close)
                == (from.phase != ConnPhase::Closed && to.phase == ConnPhase::Closed)
        },
    )?;
    // Timer bookkeeping is exact: never cancel what is not armed,
    // never arm over an armed timer of the same kind.
    graph.check_edges(
        "timer arms and cancels are never mismatched",
        |from, _event, effects, _to| {
            effects.iter().all(|fx| match fx {
                Fx::CancelTimer(kind) => state_timer(from, *kind),
                Fx::ArmTimer(kind) => !state_timer(from, *kind),
                _ => true,
            })
        },
    )?;
    graph.check_edges("drain latches", |from, _event, _effects, to| {
        !from.draining || to.draining
    })?;
    // A connection the drain machine admitted may have its request in
    // the socket already; closing it as "idle" loses admitted work.
    graph.check_edges(
        "drain never closes a connection that has not had its first read",
        |from, event, _effects, to| {
            !(*event == ConnEvent::DrainBegan && from.fresh && from.phase != ConnPhase::Closed)
                || to.phase != ConnPhase::Closed
        },
    )?;
    graph.check_eventually("every connection can reach Closed", |s| {
        s.phase == ConnPhase::Closed
    })
}

pub fn check_conn() -> Result<Report, Violation> {
    let graph = Graph::explore(ConnMachine, conn_events, MAX_STATES);
    conn_invariants(&graph)?;
    Ok(graph.report("conn"))
}

/// The sticky-header-timer mutation must produce a counterexample.
pub fn conn_mutation_counterexample() -> Option<Violation> {
    let graph = Graph::explore(StickyHeadTimer(ConnMachine), conn_events, MAX_STATES);
    conn_invariants(&graph).err()
}

/// So must the one that drains an unread connection as if it were idle.
pub fn conn_drain_mutation_counterexample() -> Option<Violation> {
    let graph = Graph::explore(DrainClosesUnread(ConnMachine), conn_events, MAX_STATES);
    conn_invariants(&graph).err()
}

// ---------------------------------------------------------------------------
// P2PS reply-pipe routing
// ---------------------------------------------------------------------------

const PIPES: [u64; 2] = [0, 1];

fn rpc_events(_state: &RpcState) -> Vec<RpcEvent> {
    let mut events = Vec::new();
    for &p in &PIPES {
        events.push(RpcEvent::OpenPipe(p));
        events.push(RpcEvent::ClosePipe(p));
    }
    for &t in &TOKENS {
        for &p in &PIPES {
            events.push(RpcEvent::SendRequest {
                token: t,
                reply_pipe: p,
            });
        }
        events.push(RpcEvent::ResponseArrived(t));
        events.push(RpcEvent::Forget(t));
    }
    events
}

pub fn check_rpc() -> Result<Report, Violation> {
    let graph = Graph::explore(RpcMachine, rpc_events, MAX_STATES);
    graph.check_states(
        "every outstanding request's reply pipe is still open",
        |s| s.pending.values().all(|p| s.open_pipes.contains(p)),
    )?;
    graph.check_edges(
        "no reply is ever routed to a closed pipe",
        |_from, _event, effects, _to| {
            !effects
                .iter()
                .any(|e| matches!(e, RpcEffect::DropClosedPipe { .. }))
        },
    )?;
    graph.check_edges(
        "replies are delivered on pipes that are open",
        |from, _event, effects, _to| {
            effects.iter().all(|e| match e {
                RpcEffect::DeliverReply { reply_pipe, .. } => from.open_pipes.contains(reply_pipe),
                _ => true,
            })
        },
    )?;
    graph.check_eventually("outstanding requests can always drain", |s| {
        s.pending.is_empty()
    })?;
    Ok(graph.report("rpc(pipes=2, tokens=2)"))
}

// ---------------------------------------------------------------------------
// Composed pipeline: breaker × admission × correlation
// ---------------------------------------------------------------------------

const PERMIT_UNDERFLOW: ComposedEffect =
    ComposedEffect::Admission(KeyedAdmissionEffect::PermitUnderflow);

fn composed_events(state: &ComposedState) -> Vec<ComposedEvent> {
    let mut events = Vec::new();
    if state.clock < 4 {
        events.push(ComposedEvent::Tick);
    }
    for &t in &TOKENS {
        let running = state.running.contains_key(&t);
        if !running && state.calls.phase(t).is_none() {
            events.push(ComposedEvent::StartCall(t));
        }
        if running {
            events.push(ComposedEvent::Succeed(t));
            events.push(ComposedEvent::Fail(t));
            events.push(ComposedEvent::PanicCall(t));
        }
        if state.calls.phase(t).is_some() {
            events.push(ComposedEvent::Take(t));
            events.push(ComposedEvent::DropHandle(t));
        }
    }
    events
}

fn composed_invariants(
    graph: &Graph<
        impl Machine<State = ComposedState, Event = ComposedEvent, Effect = ComposedEffect>,
    >,
) -> Result<(), Violation> {
    graph.check_states(
        "the admission permit count equals the number of running calls",
        |s| s.admission.total() == s.running.len() as u64,
    )?;
    graph.check_states(
        "a probe in flight is always carried by a running call (never stranded)",
        |s| {
            !matches!(
                s.breaker,
                BreakerState::Tripped {
                    probe_in_flight: true,
                    ..
                }
            ) || s.running.values().any(|&probe| probe)
        },
    )?;
    graph.check_edges(
        "a successful probe call closes the breaker",
        |from, event, _effects, to| match event {
            ComposedEvent::Succeed(t) if from.running.get(t) == Some(&true) => {
                matches!(to.breaker, BreakerState::Closed { .. })
            }
            _ => true,
        },
    )?;
    graph.check_edges("no permit ever underflows", |_f, _e, effects, _t| {
        !effects.contains(&PERMIT_UNDERFLOW)
    })?;
    graph.check_edges(
        "a started call runs exactly when breaker and admission both said yes",
        |_from, event, effects, to| match event {
            ComposedEvent::StartCall(t) => {
                let turned_away = effects.iter().any(|e| {
                    matches!(
                        e,
                        ComposedEffect::RejectedByBreaker(_) | ComposedEffect::ShedByAdmission(_)
                    )
                });
                to.running.contains_key(t) != turned_away
            }
            _ => true,
        },
    )?;
    graph.check_eventually(
        "all work can always settle: no running calls, empty correlation table",
        |s| s.running.is_empty() && s.calls.calls.is_empty(),
    )
}

pub fn check_composed() -> Result<Report, Violation> {
    let graph = Graph::explore(ComposedMachine::small(), composed_events, MAX_STATES);
    composed_invariants(&graph)?;
    Ok(graph.report("composed breaker×admission×correlation(tokens=2, ticks<=4)"))
}

/// The half-open-reset mutation seeded into the composed pipeline must
/// surface through both layers of composition.
pub fn composed_mutation_counterexample() -> Option<Violation> {
    let graph = Graph::explore(
        ComposedSkipHalfOpenReset(ComposedMachine::small()),
        composed_events,
        MAX_STATES,
    );
    composed_invariants(&graph).err()
}

/// A long seeded walk over the composed pipeline with a wider clock
/// than the exhaustive bound — cheap coverage beyond the exhausted
/// configuration, reproducible under `WSP_FAULT_SEED`.
pub fn composed_random_walk() -> Result<(), Violation> {
    let machine = ComposedMachine {
        max_ticks: u64::MAX,
        ..ComposedMachine::small()
    };
    random_walk(
        &machine,
        |state| {
            let mut events = composed_events(state);
            events.push(ComposedEvent::Tick);
            events
        },
        50_000,
        fault_seed(),
        |from, _event, effects, to| {
            if to.admission.total() != to.running.len() as u64 {
                return Err("permit count diverged from running calls".into());
            }
            if effects.contains(&PERMIT_UNDERFLOW) {
                return Err("permit underflow".into());
            }
            let _ = from;
            Ok(())
        },
    )
}

// ---------------------------------------------------------------------------
// Registry replication group (VR-lite primary/backup)
// ---------------------------------------------------------------------------

/// Three replicas, two scripted ops, one crash, one view change — the
/// smallest configuration in which a committed registration must
/// survive the primary and a sabotaged log catch-up can lose it.
fn replication_group() -> GroupMachine<ReplicaMachine> {
    GroupMachine::genuine(3, vec![101, 202])
}

fn replication_invariants<R>(graph: &Graph<GroupMachine<R>>) -> Result<(), Violation>
where
    R: Machine<State = ReplState<u64>, Event = ReplEvent<u64>, Effect = ReplEffect<u64>>,
{
    graph.check_edges(
        "no lost commit: every applied slot agrees with the committed sequence",
        |_from, _event, effects, _to| {
            !effects
                .iter()
                .any(|e| matches!(e, GroupEffect::CommitDiverged { .. }))
        },
    )?;
    graph.check_edges(
        "at most one primary per view",
        |_from, _event, effects, _to| {
            !effects
                .iter()
                .any(|e| matches!(e, GroupEffect::DuplicatePrimary { .. }))
        },
    )?;
    graph.check_states(
        "a replica never commits past its log, nor drops a slot it has not applied",
        |s| {
            s.replicas
                .iter()
                .all(|r| r.log_start <= r.commit_num && r.commit_num <= r.log_end())
        },
    )?;
    graph.check_states(
        "every replica's committed prefix is a prefix of the ghost sequence",
        |s| {
            s.replicas.iter().all(|r| {
                r.commit_num as usize <= s.committed.len()
                    && (r.log_start + 1..=r.commit_num)
                        .all(|slot| r.slot(slot) == s.committed.get(slot as usize - 1))
            })
        },
    )?;
    graph.check_states(
        "no replica discards a slot above the group-wide minimum acknowledged slot",
        |s| {
            // Whatever anyone dropped, every member — crashed ones too,
            // they may return — holds or has itself applied and dropped,
            // and what it holds there is the committed op.
            let dropped = s.replicas.iter().map(|r| r.log_start).max().unwrap_or(0);
            dropped as usize <= s.committed.len()
                && s.replicas.iter().all(|m| {
                    (m.log_start + 1..=dropped)
                        .all(|slot| m.slot(slot) == s.committed.get(slot as usize - 1))
                })
        },
    )?;
    graph.check_edges(
        "an adopted log never leaves a gap below the adopter's log_start + len",
        |_from, _event, effects, _to| {
            !effects
                .iter()
                .any(|e| matches!(e, GroupEffect::ApplySkipped { .. }))
        },
    )?;
    graph.check_edges(
        "a client ack names a slot the group has committed",
        |_from, _event, effects, to| {
            effects.iter().all(|e| match e {
                GroupEffect::At {
                    effect: ReplEffect::ClientAck { op_num },
                    ..
                } => *op_num as usize <= to.committed.len(),
                _ => true,
            })
        },
    )?;
    graph.check_eventually(
        "the group can always converge on a live primary in Normal status",
        |s| {
            s.replicas.iter().enumerate().any(|(i, r)| {
                !s.crashed[i]
                    && r.status == ReplStatus::Normal
                    && (r.view % s.replicas.len() as u32) as usize == i
            })
        },
    )
}

pub fn check_replication() -> Result<Report, Violation> {
    let machine = replication_group();
    let graph = Graph::explore(
        replication_group(),
        move |state| machine.enabled(state),
        REPL_MAX_STATES,
    );
    replication_invariants(&graph)?;
    let report = graph.report("replication(n=3, ops=2, crashes<=1, views<=1)");
    // `explore` stops at the cap: a graph that reached it was cut off,
    // not exhausted, and its green invariants would prove nothing.
    assert!(
        report.states < REPL_MAX_STATES,
        "replication exploration hit the {REPL_MAX_STATES}-state cap: {report}"
    );
    eprintln!(
        "replication: exhausted at {} states, below the {REPL_MAX_STATES}-state cap",
        report.states
    );
    Ok(report)
}

/// The replication graph is the largest in the suite: three logs plus a
/// reordered network take more room than the single-machine configs.
const REPL_MAX_STATES: usize = 3_000_000;

/// Explore the bounded replication group with every member replaced by
/// `sabotage(genuine)` and return the invariant it breaks.
fn replication_mutant<R>(sabotage: impl Fn(ReplicaMachine) -> R) -> Option<Violation>
where
    R: Machine<State = ReplState<u64>, Event = ReplEvent<u64>, Effect = ReplEffect<u64>> + Clone,
{
    let genuine = replication_group();
    let machine = GroupMachine {
        n: genuine.n,
        members: genuine.members.into_iter().map(sabotage).collect(),
        ops: genuine.ops,
        max_crashes: genuine.max_crashes,
        max_view: genuine.max_view,
    };
    let enabled = machine.clone();
    let graph = Graph::explore(
        machine,
        move |state| enabled.enabled(state),
        REPL_MAX_STATES,
    );
    replication_invariants(&graph).err()
}

/// The seeded skip-log-catch-up mutation: a new primary that keeps its
/// own (possibly stale) log instead of adopting the best offer must
/// lose a committed registration — condemned with a trace.
pub fn replication_mutation_counterexample() -> Option<Violation> {
    replication_mutant(SkipLogCatchup)
}

/// The seeded truncation mutation: a replica that drops its log behind
/// its own commit point, not the group-stable point, discards slots a
/// slower member still needs — condemned with a trace.
pub fn replication_truncation_mutation_counterexample() -> Option<Violation> {
    replication_mutant(TruncateToOwnCommit)
}

// ---------------------------------------------------------------------------
// Registry lease lifecycle
// ---------------------------------------------------------------------------

/// Bounded lease alphabet: the clock and generation caps keep the graph
/// finite, refreshes may quote any generation the bound allows —
/// including stale ones, which is the interesting case.
fn lease_events(state: &LeaseState) -> Vec<LeaseEvent> {
    let mut events = Vec::new();
    if state.clock < 6 {
        events.push(LeaseEvent::Tick);
    }
    if state.generation < 3 {
        events.push(LeaseEvent::Grant);
    }
    for generation in 0..=state.generation {
        events.push(LeaseEvent::Refresh { generation });
    }
    events.push(LeaseEvent::Cancel);
    events
}

pub fn check_lease() -> Result<Report, Violation> {
    let graph = Graph::explore(LeaseMachine { ttl: 2 }, lease_events, MAX_STATES);
    graph.check_edges(
        "an expired lease is never resurrected by a refresh",
        |from, event, effects, to| {
            !(from.status == LeaseStatus::Expired && matches!(event, LeaseEvent::Refresh { .. }))
                || (to.status == LeaseStatus::Expired && effects == [LeaseEffect::RefreshRejected])
        },
    )?;
    graph.check_edges(
        "a stale-generation refresh never extends the deadline",
        |from, event, effects, to| match event {
            LeaseEvent::Refresh { generation } if *generation != from.generation => {
                to.expires_at == from.expires_at && effects == [LeaseEffect::RefreshRejected]
            }
            _ => true,
        },
    )?;
    graph.check_states(
        "an active lease's deadline is still ahead of the clock",
        |s| s.status != LeaseStatus::Active || s.clock < s.expires_at,
    )?;
    graph.check_edges(
        "expiry fires exactly when an active lease's deadline passes",
        |from, event, effects, to| {
            let expired_now = from.status == LeaseStatus::Active
                && matches!(event, LeaseEvent::Tick)
                && to.clock >= from.expires_at;
            expired_now
                == effects
                    .iter()
                    .any(|e| matches!(e, LeaseEffect::Expired { .. }))
        },
    )?;
    graph.check_eventually("a lease can always stop being active", |s| {
        s.status != LeaseStatus::Active
    })?;
    Ok(graph.report("lease(ttl=2, clock<=6, generations<=3)"))
}

// ---------------------------------------------------------------------------
// Suite
// ---------------------------------------------------------------------------

/// Run every exhaustive check; first violation wins.
pub fn run_all() -> Result<Vec<Report>, Violation> {
    let reports = vec![
        check_breaker()?,
        check_admission()?,
        check_keyed_admission()?,
        check_correlation()?,
        check_drain()?,
        check_conn()?,
        check_rpc()?,
        check_composed()?,
        check_replication()?,
        check_lease()?,
    ];
    composed_random_walk()?;
    Ok(reports)
}

/// DOT dump of a named machine's explored state graph (for docs and
/// debugging): `breaker`, `admission`, `correlation`, `drain`, `conn`, `rpc`.
pub fn dot_for(name: &str) -> Option<String> {
    match name {
        "breaker" => Some(
            Graph::explore(
                Clocked {
                    inner: breaker_config(),
                    max_ticks: 4,
                },
                clocked_events,
                MAX_STATES,
            )
            .dot("breaker"),
        ),
        "admission" => Some(
            Graph::explore(admission_config(), keyed_admission_events, MAX_STATES).dot("admission"),
        ),
        "correlation" => Some(
            Graph::explore(CorrelationMachine, correlation_events, MAX_STATES).dot("correlation"),
        ),
        "drain" => Some(Graph::explore(drain_config(), drain_events, MAX_STATES).dot("drain")),
        "conn" => Some(Graph::explore(ConnMachine, conn_events, MAX_STATES).dot("conn")),
        "rpc" => Some(Graph::explore(RpcMachine, rpc_events, MAX_STATES).dot("rpc")),
        "lease" => {
            Some(Graph::explore(LeaseMachine { ttl: 2 }, lease_events, MAX_STATES).dot("lease"))
        }
        "replication" => {
            let machine = replication_group();
            Some(
                Graph::explore(
                    replication_group(),
                    move |state| machine.enabled(state),
                    REPL_MAX_STATES,
                )
                .dot("replication"),
            )
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_configuration_is_clean() {
        let report = check_breaker().unwrap();
        assert!(report.states > 10, "{report}");
    }

    #[test]
    fn admission_configuration_is_clean() {
        let report = check_admission().unwrap();
        assert!(report.states >= 6, "{report}");
    }

    #[test]
    fn keyed_admission_configuration_is_clean() {
        let report = check_keyed_admission().unwrap();
        // Reachable (f0, f1) pairs under the cap and reserve, x drain.
        assert!(report.states >= 14, "{report}");
    }

    #[test]
    fn keyed_admission_mutation_is_caught_with_a_trace() {
        let violation = keyed_admission_mutation_counterexample()
            .expect("the ignore-reserve mutant must be condemned");
        assert!(
            violation.invariant.contains("global cap")
                || violation.invariant.contains("guaranteed share"),
            "unexpected invariant: {}",
            violation.invariant
        );
        assert!(
            violation.trace.contains("Admit"),
            "trace should show the over-borrowing admit:\n{}",
            violation.trace
        );
    }

    #[test]
    fn correlation_configuration_is_clean() {
        let report = check_correlation().unwrap();
        assert_eq!(report.states, 16, "two tokens x four phases: {report}");
    }

    #[test]
    fn drain_configuration_is_clean() {
        let report = check_drain().unwrap();
        assert!(report.states >= 12, "{report}");
    }

    #[test]
    fn conn_configuration_is_clean() {
        let report = check_conn().unwrap();
        // Seven phases × the drain/half-close flags, minus the
        // combinations the gated alphabet can never reach.
        assert!(report.states >= 10, "{report}");
    }

    #[test]
    fn seeded_conn_mutation_is_caught_with_a_trace() {
        // (mutant's verdict, the invariant that must catch it, the
        // step its shortest trace must contain)
        for (verdict, invariant, step) in [
            (
                conn_mutation_counterexample(),
                "header timer",
                "RequestDone", // the fast-path dispatch
            ),
            (
                conn_drain_mutation_counterexample(),
                "first read",
                "DrainBegan",
            ),
        ] {
            let violation = verdict.unwrap_or_else(|| panic!("{invariant}: mutant survived"));
            assert!(
                violation.invariant.contains(invariant),
                "unexpected invariant: {}",
                violation.invariant
            );
            assert!(
                violation.trace.contains(step),
                "trace should include {step}:\n{}",
                violation.trace
            );
        }
    }

    #[test]
    fn rpc_configuration_is_clean() {
        let report = check_rpc().unwrap();
        assert!(report.states > 10, "{report}");
    }

    #[test]
    fn composed_configuration_is_clean() {
        let report = check_composed().unwrap();
        assert!(report.states > 100, "{report}");
    }

    #[test]
    fn composed_random_walk_is_clean() {
        composed_random_walk().unwrap();
    }

    #[test]
    fn seeded_breaker_mutation_is_caught_with_a_trace() {
        let violation = breaker_mutation_counterexample()
            .expect("the skip-half-open-reset mutant must be condemned");
        assert!(
            violation.invariant.contains("closes the breaker")
                || violation.invariant.contains("close again"),
            "unexpected invariant: {}",
            violation.invariant
        );
        assert!(
            violation.trace.contains("Tripped"),
            "trace should reach a tripped breaker:\n{}",
            violation.trace
        );
    }

    #[test]
    fn seeded_drain_mutation_is_caught_with_a_trace() {
        let violation =
            drain_mutation_counterexample().expect("the slot-leak mutant must be condemned");
        assert!(
            violation.trace.contains("RejectAtCapacity"),
            "{}",
            violation.trace
        );
    }

    #[test]
    fn seeded_composed_mutation_is_caught_with_a_trace() {
        let violation = composed_mutation_counterexample()
            .expect("the composed skip-half-open-reset mutant must be condemned");
        assert!(
            violation.trace.contains("Succeed"),
            "trace should include the swallowed success:\n{}",
            violation.trace
        );
    }

    #[test]
    fn replication_configuration_is_clean() {
        let report = check_replication().unwrap();
        assert!(report.states > 1_000, "{report}");
    }

    #[test]
    fn lease_configuration_is_clean() {
        let report = check_lease().unwrap();
        assert!(report.states > 10, "{report}");
    }

    #[test]
    fn seeded_replication_mutation_is_caught_with_a_trace() {
        let violation = replication_mutation_counterexample()
            .expect("the skip-log-catchup mutant must be condemned");
        assert!(
            violation.invariant.contains("no lost commit")
                || violation.invariant.contains("committed prefix"),
            "unexpected invariant: {}",
            violation.invariant
        );
        assert!(
            violation.trace.contains("Crash"),
            "the counterexample crashes the primary:\n{}",
            violation.trace
        );
    }

    #[test]
    fn seeded_truncation_mutation_is_caught_with_a_trace() {
        let violation = replication_truncation_mutation_counterexample()
            .expect("the truncate-to-own-commit mutant must be condemned");
        assert!(
            violation.invariant.contains("minimum acknowledged slot")
                || violation.invariant.contains("leaves a gap"),
            "unexpected invariant: {}",
            violation.invariant
        );
        assert!(
            violation.trace.contains("Commit"),
            "the counterexample truncates on learning a commit point:\n{}",
            violation.trace
        );
    }

    #[test]
    fn dot_dumps_exist_for_every_machine() {
        for name in [
            "breaker",
            "admission",
            "correlation",
            "drain",
            "conn",
            "rpc",
        ] {
            let dot = dot_for(name).unwrap();
            assert!(dot.starts_with(&format!("digraph {name}")), "{name}");
        }
        assert!(dot_for("nonsense").is_none());
    }
}
