//! Bisimulation between the runtime shells and their pure machines.
//!
//! Each shell (circuit breaker, admission controller, dispatcher
//! correlation table, P2PS RPC correlator) claims to be a thin wrapper
//! around a pure `Machine`: events in, effects out, nothing else. These
//! properties drive random event sequences through the shell and a
//! hand-stepped mirror of the machine in lockstep, asserting after
//! every event that all observable state agrees — return values,
//! counters, phases, pending tables. Any shortcut the shell takes
//! around its machine (a cached flag, a forgotten transition, a
//! time-conversion bug) shows up as divergence.

use proptest::prelude::*;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use wsp_core::dispatch::Dispatcher;
use wsp_core::health::{Admission, BreakerConfig, BreakerState, CircuitBreaker};
use wsp_core::machines::breaker::{Admit, BreakerEffect, BreakerEvent, BreakerMachine, Phase};
use wsp_core::machines::correlation::{CallPhase, CorrelationEvent, CorrelationMachine};
use wsp_core::machines::keyed_admission::{
    KeyedAdmissionEffect, KeyedAdmissionEvent, KeyedAdmissionMachine,
};
use wsp_core::overload::{
    KeyedAdmissionController, KeyedAdmissionPermit, KeyedLoadShedPolicy, ANONYMOUS_TENANT,
};
use wsp_p2ps::rpc::{decode_request, encode_response};
use wsp_p2ps::{PeerId, PipeAdvertisement, RpcCorrelator};
use wsp_simnet::{step_mut, Machine};
use wsp_soap::Envelope;
use wsp_xml::Element;

// ---------------------------------------------------------------------------
// Circuit breaker ⇔ BreakerMachine
// ---------------------------------------------------------------------------

/// Breaker ops: the event plus how far the clock advances first.
#[derive(Debug, Clone, Copy)]
enum BreakerOp {
    Acquire,
    Success,
    Failure,
    ProbeAborted,
}

fn arb_breaker_ops() -> impl Strategy<Value = Vec<(u8, u8)>> {
    // (op selector, time advance in ms 0..=30); cooldown is 25 ms so
    // sequences straddle every phase boundary.
    proptest::collection::vec((0u8..4, 0u8..31), 0..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The shell converts `Instant`s to tick offsets from a private
    /// epoch; the mirror uses offsets from the test's own base. All
    /// breaker decisions are *differences* of times, so the two frames
    /// must produce identical observables at every step.
    #[test]
    fn circuit_breaker_bisimulates_breaker_machine(ops in arb_breaker_ops()) {
        let cooldown = Duration::from_millis(25);
        let shell = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown,
        });
        let base = Instant::now();
        let machine = BreakerMachine {
            failure_threshold: 2,
            cooldown: cooldown.as_nanos() as u64,
        };
        let mut mirror = machine.initial();
        let mut elapsed = Duration::ZERO;

        for (op, advance_ms) in ops {
            elapsed += Duration::from_millis(advance_ms as u64);
            let now = base + elapsed;
            let ticks = elapsed.as_nanos() as u64;
            let op = match op {
                0 => BreakerOp::Acquire,
                1 => BreakerOp::Success,
                2 => BreakerOp::Failure,
                _ => BreakerOp::ProbeAborted,
            };
            match op {
                BreakerOp::Acquire => {
                    let got = shell.try_acquire(now);
                    let effects = step_mut(&machine, &mut mirror, &BreakerEvent::Acquire { now: ticks });
                    let expected = match effects.first() {
                        Some(BreakerEffect::Admit(Admit::Allowed)) => Admission::Allowed,
                        Some(BreakerEffect::Admit(Admit::Probe)) => Admission::Probe,
                        _ => Admission::Rejected,
                    };
                    prop_assert_eq!(got, expected, "acquire at {:?}", elapsed);
                }
                BreakerOp::Success => {
                    let got = shell.on_success(now);
                    let effects = step_mut(&machine, &mut mirror, &BreakerEvent::Success);
                    prop_assert_eq!(got, effects.contains(&BreakerEffect::Recovered));
                }
                BreakerOp::Failure => {
                    let got = shell.on_failure(now);
                    let effects = step_mut(&machine, &mut mirror, &BreakerEvent::Failure { now: ticks });
                    prop_assert_eq!(got, effects.contains(&BreakerEffect::Tripped));
                }
                BreakerOp::ProbeAborted => {
                    let got = shell.on_probe_aborted(now);
                    let effects =
                        step_mut(&machine, &mut mirror, &BreakerEvent::ProbeAborted { now: ticks });
                    prop_assert_eq!(got, effects.contains(&BreakerEffect::ProbeDiscarded));
                }
            }
            // Observable state agrees after every event.
            let expected_state = match machine.phase(&mirror, ticks) {
                Phase::Closed => BreakerState::Closed,
                Phase::Open => BreakerState::Open,
                Phase::HalfOpen => BreakerState::HalfOpen,
            };
            prop_assert_eq!(shell.state(now), expected_state, "phase after {:?}", op);
            let expected_failures = match mirror {
                wsp_core::machines::breaker::BreakerState::Closed { failures } => failures,
                wsp_core::machines::breaker::BreakerState::Tripped { .. } => 0,
            };
            prop_assert_eq!(shell.consecutive_failures(), expected_failures);
            let expected_probe = matches!(
                mirror,
                wsp_core::machines::breaker::BreakerState::Tripped {
                    probe_in_flight: true,
                    ..
                }
            );
            prop_assert_eq!(shell.probe_in_flight(), expected_probe);
        }
    }
}

// ---------------------------------------------------------------------------
// Admission controller ⇔ KeyedAdmissionMachine (host and mediation policies)
// ---------------------------------------------------------------------------

fn arb_admission_ops() -> impl Strategy<Value = Vec<(u8, u8, u8, bool)>> {
    // (op selector, tenant 0..3, queue depth 0..3, deadline already expired?)
    proptest::collection::vec((0u8..4, 0u8..3, 0u8..3, any::<bool>()), 0..80)
}

/// Drive `ops` through the controller for `policy` and a hand-stepped
/// mirror of `machine` in lockstep. `names[i]` is the tenant interned
/// at slot `i`: either pre-seeded by the policy's weights, or — for a
/// host — the anonymous slot, interned by the first admission.
fn admission_lockstep(
    policy: KeyedLoadShedPolicy,
    machine: KeyedAdmissionMachine,
    names: &[&str],
    ops: Vec<(u8, u8, u8, bool)>,
) {
    let shell = KeyedAdmissionController::new(policy);
    let mut mirror = machine.initial();
    let mut permits: Vec<Vec<KeyedAdmissionPermit>> = names.iter().map(|_| Vec::new()).collect();

    for (op, tenant, queue_depth, expired) in ops {
        let t = tenant as usize % names.len();
        match op {
            0 => {
                let deadline = if expired {
                    Some(Instant::now())
                } else {
                    Some(Instant::now() + Duration::from_secs(3600))
                };
                let got = shell.try_admit_at(names[t], queue_depth as usize, deadline);
                let effects = step_mut(
                    &machine,
                    &mut mirror,
                    &KeyedAdmissionEvent::Admit {
                        tenant: t,
                        queue_depth: queue_depth as u64,
                        deadline_expired: expired,
                    },
                );
                prop_assert_eq!(
                    got.is_ok(),
                    effects == [KeyedAdmissionEffect::Admitted { tenant: t }],
                    "admit(tenant={}, queue={}, expired={})",
                    names[t],
                    queue_depth,
                    expired
                );
                match got {
                    Ok(permit) => permits[t].push(permit),
                    Err(err) => {
                        // Sheds always carry a retry hint.
                        prop_assert!(matches!(
                            err,
                            wsp_core::WspError::Overloaded {
                                retry_after_ms: Some(_)
                            }
                        ));
                    }
                }
            }
            1 => {
                // Release = drop a held permit (RAII), mirrored only
                // when the shell actually holds one for this tenant.
                if permits[t].pop().is_some() {
                    step_mut(
                        &machine,
                        &mut mirror,
                        &KeyedAdmissionEvent::Release { tenant: t },
                    );
                }
            }
            2 => {
                shell.start_draining();
                step_mut(&machine, &mut mirror, &KeyedAdmissionEvent::BeginDrain);
            }
            _ => {
                shell.stop_draining();
                step_mut(&machine, &mut mirror, &KeyedAdmissionEvent::EndDrain);
            }
        }
        for (i, name) in names.iter().enumerate() {
            prop_assert_eq!(shell.in_flight(name) as u64, mirror.in_flight[i]);
        }
        prop_assert_eq!(shell.total_in_flight() as u64, mirror.total());
        prop_assert_eq!(shell.is_draining(), mirror.draining);
        // With the population fixed up-front the fair-share reserve
        // invariant is inductive, so it must hold at every step.
        let reserve: u64 = machine
            .guaranteed()
            .iter()
            .zip(&mirror.in_flight)
            .map(|(&g, &f)| g.saturating_sub(f))
            .sum();
        prop_assert!(
            mirror.total() + reserve <= machine.global_cap,
            "borrows ate the reserve: total={} reserve={}",
            mirror.total(),
            reserve
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A host's controller — `bounded(in_flight, queue_depth)`, every
    /// request against the anonymous slot — is the one-tenant
    /// configuration of the machine.
    #[test]
    fn admission_controller_bisimulates_admission_machine(ops in arb_admission_ops()) {
        admission_lockstep(
            KeyedLoadShedPolicy::bounded(2, 1),
            KeyedAdmissionMachine::one_tenant(2, 1),
            &[ANONYMOUS_TENANT],
            ops,
        );
    }

    /// The gateway's per-tenant controller is a thin shell over the
    /// same machine: pre-seeding the policy weights pins the tenant
    /// interning order, so a hand-stepped mirror with the same weight
    /// vector must agree on every admit verdict and every counter.
    #[test]
    fn keyed_admission_controller_bisimulates_keyed_machine(ops in arb_admission_ops()) {
        admission_lockstep(
            KeyedLoadShedPolicy {
                max_queue_depth: 2,
                ..KeyedLoadShedPolicy::fair(4)
                    .with_weight("alpha", 2)
                    .with_weight("beta", 1)
                    .with_weight("gamma", 1)
                    .with_tenant_cap(3)
            },
            KeyedAdmissionMachine {
                global_cap: 4,
                weights: vec![2, 1, 1],
                tenant_cap: 3,
                max_queue_depth: 2,
            },
            &["alpha", "beta", "gamma"],
            ops,
        );
    }

    /// Permit conservation under random tenant traffic, including
    /// tenants interned on the fly: the sum of granted permits never
    /// exceeds the global cap and each tenant respects the tenant cap,
    /// even while interning re-apportions every guaranteed share under
    /// permits that were granted against the old apportionment. (The
    /// stronger reserve invariant is only inductive over a *fixed*
    /// population — asserted in the bisimulation property above.)
    #[test]
    fn keyed_permits_are_conserved_under_random_tenant_traffic(
        ops in proptest::collection::vec((0u8..2, 0u8..4), 0..120),
    ) {
        let ctl = KeyedAdmissionController::new(
            KeyedLoadShedPolicy::fair(5).with_tenant_cap(4),
        );
        let mut held: HashMap<String, Vec<KeyedAdmissionPermit>> = HashMap::new();
        for (op, t) in ops {
            let tenant = format!("tenant-{}", t % 4);
            match op {
                0 => {
                    if let Ok(permit) = ctl.try_admit(&tenant, None) {
                        held.entry(tenant.clone()).or_default().push(permit);
                    }
                }
                _ => {
                    if let Some(perms) = held.get_mut(&tenant) {
                        perms.pop();
                    }
                }
            }
            // The controller's books equal the RAII ground truth…
            let held_total: usize = held.values().map(Vec::len).sum();
            prop_assert_eq!(ctl.total_in_flight(), held_total);
            // …and never exceed the caps.
            prop_assert!(ctl.total_in_flight() <= 5);
            for name in ctl.tenants() {
                let f = ctl.in_flight(&name);
                prop_assert!(f <= 4, "tenant {} over its cap: {}", name, f);
                prop_assert_eq!(f, held.get(&name).map(Vec::len).unwrap_or(0));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatcher correlation table ⇔ CorrelationMachine
// ---------------------------------------------------------------------------

fn arb_correlation_ops() -> impl Strategy<Value = Vec<(u8, u8)>> {
    // (op selector, token 0..3)
    proptest::collection::vec((0u8..4, 0u8..3), 0..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dispatcher_correlation_bisimulates_correlation_machine(ops in arb_correlation_ops()) {
        let dispatcher = Dispatcher::with_defaults();
        let machine = CorrelationMachine;
        let mut mirror = machine.initial();
        let mut handles = HashMap::new();
        let mut completers = HashMap::new();

        for (op, token) in ops {
            let token = token as u64;
            match op {
                0 => {
                    // Register a fresh token (the shell requires
                    // uniqueness; the machine's or_insert mirrors it).
                    if !handles.contains_key(&token)
                        && !completers.contains_key(&token)
                        && mirror.phase(token).is_none()
                    {
                        let (handle, completer) = dispatcher.register::<u64>(token);
                        handles.insert(token, handle);
                        completers.insert(token, completer);
                        step_mut(&machine, &mut mirror, &CorrelationEvent::Register(token));
                    }
                }
                1 => {
                    // Complete — possibly late, after cancel/drop.
                    if let Some(completer) = completers.remove(&token) {
                        let got = completer.complete(token * 10);
                        let effects =
                            step_mut(&machine, &mut mirror, &CorrelationEvent::Complete(token));
                        let delivered = effects.iter().any(|e| {
                            matches!(
                                e,
                                wsp_core::machines::correlation::CorrelationEffect::DeliverValue(_)
                            )
                        });
                        prop_assert_eq!(got, delivered, "complete({})", token);
                    }
                }
                2 => {
                    // Explicit cancel.
                    if let Some(handle) = handles.remove(&token) {
                        let got = handle.cancel();
                        let effects =
                            step_mut(&machine, &mut mirror, &CorrelationEvent::Cancel(token));
                        let cancelled = effects.iter().any(|e| {
                            matches!(
                                e,
                                wsp_core::machines::correlation::CorrelationEffect::CountCancelled(_)
                            )
                        });
                        prop_assert_eq!(got, cancelled, "cancel({})", token);
                    }
                }
                _ => {
                    // Dropping the handle is an eager implicit cancel.
                    if handles.remove(&token).is_some() {
                        step_mut(&machine, &mut mirror, &CorrelationEvent::Cancel(token));
                    }
                }
            }
            // The shell's pending table is exactly the machine's.
            let mut shell_pending = dispatcher.pending_tokens();
            shell_pending.sort_unstable();
            prop_assert_eq!(shell_pending, mirror.table_tokens());
            // A live handle observes completion exactly when the
            // machine holds a settled, unclaimed call.
            for (t, handle) in &handles {
                let settled = matches!(
                    mirror.phase(*t),
                    Some(CallPhase::Ready) | Some(CallPhase::Poisoned)
                );
                prop_assert_eq!(handle.is_complete(), settled, "is_complete({})", t);
            }
        }
        // Abandon the rest without further assertions: handle drops
        // step Cancel through the same machine (asserted above).
        handles.clear();
    }
}

// ---------------------------------------------------------------------------
// P2PS RPC correlator ⇔ RpcMachine
// ---------------------------------------------------------------------------

fn arb_rpc_ops() -> impl Strategy<Value = Vec<(u8, u8)>> {
    // (op selector, request slot 0..4)
    proptest::collection::vec((0u8..4, 0u8..4), 0..40)
}

fn rpc_service_pipe() -> PipeAdvertisement {
    PipeAdvertisement::new(PeerId(0xAA), Some("Echo".into()), "in")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Drives the full wire path — encode a request, decode it
    /// provider-side, encode the response, accept it consumer-side —
    /// and checks the correlator's pure state and observable outcomes
    /// against what the machine semantics dictate.
    #[test]
    fn rpc_correlator_bisimulates_rpc_machine(ops in arb_rpc_ops()) {
        let mut correlator = RpcCorrelator::new();
        let service = rpc_service_pipe();
        // One distinct return pipe per request slot, reused across the
        // sequence to exercise open → close → reopen interning.
        let return_pipes: Vec<PipeAdvertisement> = (0..4)
            .map(|i| PipeAdvertisement::new(PeerId(0xBB), None, format!("return-{i}")))
            .collect();
        // Expected pending set: slot → wire request (for the response
        // path); `None` once settled or forgotten.
        let mut outstanding: Vec<Option<String>> = vec![None; 4];

        for (op, slot) in ops {
            let slot = slot as usize;
            let token = slot as u64;
            match op {
                0 => {
                    // Send: one outstanding request per slot at a time
                    // (tokens are unique in the runtime).
                    if outstanding[slot].is_none() {
                        let mut request = Envelope::request(
                            Element::build("urn:demo", "echoString")
                                .text(format!("req-{slot}"))
                                .finish(),
                        );
                        request.set_addressing(correlator.encode_request(
                            token,
                            &service,
                            &return_pipes[slot],
                        ));
                        outstanding[slot] = Some(request.to_xml());
                    }
                }
                1 => {
                    // Response arrives for the slot's request.
                    if let Some(wire) = outstanding[slot].take() {
                        let received = decode_request(&wire, &mut |_| {}).unwrap();
                        let (_, headers) = encode_response(&received).unwrap();
                        let mut response = Envelope::empty();
                        response.set_addressing(headers);
                        let response = response.to_xml();
                        prop_assert_eq!(correlator.accept_response(&response), Some(token));
                        // And a duplicate of the same response no
                        // longer correlates.
                        prop_assert!(correlator.accept_response(&response).is_none());
                    }
                }
                2 => {
                    // Timeout: forget by token.
                    let was_pending = outstanding[slot].take().is_some();
                    prop_assert_eq!(correlator.forget_token(token), was_pending);
                }
                _ => {
                    // The slot's return pipe closes; its request (if
                    // any) is abandoned.
                    let had = outstanding[slot].take().is_some();
                    let abandoned = correlator.pipe_closed(&return_pipes[slot]);
                    prop_assert_eq!(abandoned, usize::from(had));
                }
            }
            // The pure state mirrors the expected pending set, and
            // every pending token's reply pipe is open.
            let state = correlator.machine_state();
            let expected: Vec<u64> = (0..4u64)
                .filter(|t| outstanding[*t as usize].is_some())
                .collect();
            let mut pending: Vec<u64> = state.pending.keys().copied().collect();
            pending.sort_unstable();
            prop_assert_eq!(pending, expected);
            prop_assert_eq!(correlator.pending(), state.pending.len());
            for pipe in state.pending.values() {
                prop_assert!(state.open_pipes.contains(pipe), "reply pipe closed");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SimNet (boxed-node front-end) ⇔ PeerSim (population front-end)
// ---------------------------------------------------------------------------
//
// There is one simulation engine (`PeerSim`); `SimNet` is that engine
// running a model that boxes a `Node` per peer and delivers a `Start`
// event. These properties drive the *same* timed op sequence through a
// machine hosted in a boxed closure and through one hosted in a
// hand-written struct-of-arrays model, and assert the
// machine-observable traces — (virtual time, effects) pairs — are
// identical: the boxed adapter adds nothing to timer semantics (firing
// order, clamping, cancellation) that a machine could observe.

use std::cell::RefCell;
use std::rc::Rc;
use wsp_core::machines::breaker::BreakerState as MBreakerState;
use wsp_simnet::{
    Context, Dur, NodeEvent, PeerCtx, PeerEvent as SimPeerEvent, PeerModel, PeerSim, SimNet, Time,
};

type EffectTrace = Vec<(u64, Vec<u8>)>;

fn breaker_event_for(op: u8, now_ms: u64) -> BreakerEvent {
    match op {
        0 => BreakerEvent::Acquire { now: now_ms },
        1 => BreakerEvent::Success,
        2 => BreakerEvent::Failure { now: now_ms },
        _ => BreakerEvent::ProbeAborted { now: now_ms },
    }
}

fn breaker_effect_code(e: &BreakerEffect) -> u8 {
    match e {
        BreakerEffect::Admit(Admit::Allowed) => 0,
        BreakerEffect::Admit(Admit::Probe) => 1,
        BreakerEffect::Admit(Admit::Rejected) => 2,
        BreakerEffect::Tripped => 3,
        BreakerEffect::Recovered => 4,
        BreakerEffect::ProbeDiscarded => 5,
    }
}

fn wheel_breaker_machine() -> BreakerMachine {
    BreakerMachine {
        failure_threshold: 2,
        cooldown: 40, // ms — sequences of 1..30 ms steps straddle it
    }
}

/// Drive `ops` through a breaker hosted in a boxed SimNet node: each op
/// fires as a timer, steps the machine at the virtual-ms clock, and the
/// next op's timer is set from inside the handler.
fn simnet_breaker_trace(ops: &[(u8, u64)]) -> EffectTrace {
    let trace: Rc<RefCell<EffectTrace>> = Rc::default();
    let sink = Rc::clone(&trace);
    let ops = ops.to_vec();
    let machine = wheel_breaker_machine();
    let mut state = machine.initial();
    let mut net: SimNet<u64> = SimNet::new(1);
    net.add_node(Box::new(
        move |ctx: &mut Context<'_, u64>, ev: NodeEvent<u64>| match ev {
            NodeEvent::Start => {
                ctx.set_timer(Dur::millis(ops[0].1), 0);
            }
            NodeEvent::Timer { tag } => {
                let i = tag as usize;
                let now_ms = ctx.now().as_micros() / 1000;
                let effects = step_mut(&machine, &mut state, &breaker_event_for(ops[i].0, now_ms));
                sink.borrow_mut().push((
                    ctx.now().as_micros(),
                    effects.iter().map(breaker_effect_code).collect(),
                ));
                if i + 1 < ops.len() {
                    ctx.set_timer(Dur::millis(ops[i + 1].1), (i + 1) as u64);
                }
            }
            _ => {}
        },
    ));
    net.run_to_quiescence();
    let out = trace.borrow().clone();
    out
}

struct WheelBreakerModel {
    ops: Vec<(u8, u64)>,
    machine: BreakerMachine,
    state: MBreakerState,
    trace: EffectTrace,
}

impl PeerModel for WheelBreakerModel {
    type Msg = u64;

    fn on_event(&mut self, ctx: &mut PeerCtx<'_, u64>, _peer: u32, event: SimPeerEvent<u64>) {
        if let SimPeerEvent::Timer { tag } = event {
            let i = tag as usize;
            let now_ms = ctx.now().as_micros() / 1000;
            let effects = step_mut(
                &self.machine,
                &mut self.state,
                &breaker_event_for(self.ops[i].0, now_ms),
            );
            self.trace.push((
                ctx.now().as_micros(),
                effects.iter().map(breaker_effect_code).collect(),
            ));
            if i + 1 < self.ops.len() {
                ctx.set_timer(Dur::millis(self.ops[i + 1].1), (i + 1) as u64);
            }
        }
    }
}

/// The same schedule through the population front-end.
fn peersim_breaker_trace(ops: &[(u8, u64)]) -> EffectTrace {
    let machine = wheel_breaker_machine();
    let state = machine.initial();
    let mut sim = PeerSim::new(
        1,
        WheelBreakerModel {
            ops: ops.to_vec(),
            machine,
            state,
            trace: Vec::new(),
        },
    );
    sim.add_peers(1, 0);
    sim.schedule_timer_at(Time::millis(ops[0].1), 0, 0);
    sim.run_to_quiescence();
    sim.model().trace.clone()
}

fn admission_event_for(op: u8) -> KeyedAdmissionEvent {
    match op {
        0 => KeyedAdmissionEvent::Admit {
            tenant: 0,
            queue_depth: 0,
            deadline_expired: false,
        },
        1 => KeyedAdmissionEvent::Release { tenant: 0 },
        2 => KeyedAdmissionEvent::BeginDrain,
        _ => KeyedAdmissionEvent::EndDrain,
    }
}

fn admission_effect_code(e: &KeyedAdmissionEffect) -> u8 {
    match e {
        KeyedAdmissionEffect::Admitted { .. } => 0,
        KeyedAdmissionEffect::Shed { reason, .. } => 1 + *reason as u8,
        KeyedAdmissionEffect::Released { .. } => 10,
        KeyedAdmissionEffect::PermitUnderflow => 11,
    }
}

/// The host configuration both front-ends step.
fn wheel_admission_machine() -> KeyedAdmissionMachine {
    KeyedAdmissionMachine::one_tenant(2, u64::MAX)
}

/// Admission machine under the boxed front-end.
fn simnet_admission_trace(ops: &[(u8, u64)]) -> EffectTrace {
    let trace: Rc<RefCell<EffectTrace>> = Rc::default();
    let sink = Rc::clone(&trace);
    let ops = ops.to_vec();
    let machine = wheel_admission_machine();
    let mut state = machine.initial();
    let mut net: SimNet<u64> = SimNet::new(1);
    net.add_node(Box::new(
        move |ctx: &mut Context<'_, u64>, ev: NodeEvent<u64>| match ev {
            NodeEvent::Start => {
                ctx.set_timer(Dur::millis(ops[0].1), 0);
            }
            NodeEvent::Timer { tag } => {
                let i = tag as usize;
                let effects = step_mut(&machine, &mut state, &admission_event_for(ops[i].0));
                sink.borrow_mut().push((
                    ctx.now().as_micros(),
                    effects.iter().map(admission_effect_code).collect(),
                ));
                if i + 1 < ops.len() {
                    ctx.set_timer(Dur::millis(ops[i + 1].1), (i + 1) as u64);
                }
            }
            _ => {}
        },
    ));
    net.run_to_quiescence();
    let out = trace.borrow().clone();
    out
}

struct WheelAdmissionModel {
    ops: Vec<(u8, u64)>,
    machine: KeyedAdmissionMachine,
    state: wsp_core::machines::keyed_admission::KeyedAdmissionState,
    trace: EffectTrace,
}

impl PeerModel for WheelAdmissionModel {
    type Msg = u64;

    fn on_event(&mut self, ctx: &mut PeerCtx<'_, u64>, _peer: u32, event: SimPeerEvent<u64>) {
        if let SimPeerEvent::Timer { tag } = event {
            let i = tag as usize;
            let effects = step_mut(
                &self.machine,
                &mut self.state,
                &admission_event_for(self.ops[i].0),
            );
            self.trace.push((
                ctx.now().as_micros(),
                effects.iter().map(admission_effect_code).collect(),
            ));
            if i + 1 < self.ops.len() {
                ctx.set_timer(Dur::millis(self.ops[i + 1].1), (i + 1) as u64);
            }
        }
    }
}

/// Admission machine under the population front-end.
fn peersim_admission_trace(ops: &[(u8, u64)]) -> EffectTrace {
    let machine = wheel_admission_machine();
    let state = machine.initial();
    let mut sim = PeerSim::new(
        1,
        WheelAdmissionModel {
            ops: ops.to_vec(),
            machine,
            state,
            trace: Vec::new(),
        },
    );
    sim.add_peers(1, 0);
    sim.schedule_timer_at(Time::millis(ops[0].1), 0, 0);
    sim.run_to_quiescence();
    sim.model().trace.clone()
}

fn arb_timed_ops() -> impl Strategy<Value = Vec<(u8, u64)>> {
    // (op selector, inter-op delay in ms 1..30)
    proptest::collection::vec((0u8..4, 1u64..30), 1..50)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Breaker: the boxed front-end and the population front-end
    /// produce identical machine-observable traces for any timed op
    /// sequence.
    #[test]
    fn breaker_traces_agree_across_front_ends(ops in arb_timed_ops()) {
        let old = simnet_breaker_trace(&ops);
        let new = peersim_breaker_trace(&ops);
        prop_assert_eq!(old.len(), ops.len(), "every op must fire");
        prop_assert_eq!(old, new);
    }

    /// Admission: same lockstep, same bar.
    #[test]
    fn admission_traces_agree_across_front_ends(ops in arb_timed_ops()) {
        let old = simnet_admission_trace(&ops);
        let new = peersim_admission_trace(&ops);
        prop_assert_eq!(old.len(), ops.len(), "every op must fire");
        prop_assert_eq!(old, new);
    }
}
