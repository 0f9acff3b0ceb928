//! The client call pipeline as one composed machine:
//! breaker × admission × correlation.
//!
//! Mirrors how the runtime wires the three protocols together for a
//! single endpoint: a call first asks the endpoint's circuit breaker
//! ([`BreakerMachine`]), then server-side admission control
//! (the one-tenant [`KeyedAdmissionMachine`] a host runs) — a shed while
//! holding the breaker's half-open probe aborts the probe, exactly as
//! the runtime's `ProbeGuard` does — and only then registers a
//! correlation-table token ([`CorrelationMachine`]). Completion releases the permit,
//! reports the outcome to the breaker, and delivers through the
//! correlation machine. Time is a logical clock advanced by an
//! explicit [`ComposedEvent::Tick`].
//!
//! The point of composing is the *cross-machine* invariants no single
//! machine can state:
//!
//! * the admission permit count always equals the number of running
//!   calls, across every interleaving of rejections, sheds, panics and
//!   abandoned handles;
//! * the breaker's `probe_in_flight` flag is set exactly while one
//!   running call carries the probe — sheds and panics can never
//!   strand it;
//! * every started call can always settle and leave the correlation
//!   table, whatever the breaker and admission control are doing.

use std::collections::BTreeMap;
use wsp_core::machines::breaker::{
    Admit, BreakerEffect, BreakerEvent, BreakerMachine, BreakerState,
};
use wsp_core::machines::correlation::{
    CorrelationEffect, CorrelationEvent, CorrelationMachine, CorrelationState,
};
use wsp_core::machines::keyed_admission::{
    KeyedAdmissionEffect, KeyedAdmissionEvent, KeyedAdmissionMachine, KeyedAdmissionState,
};
use wsp_simnet::Machine;

/// Configuration of the composed pipeline.
#[derive(Debug, Clone)]
pub struct ComposedMachine {
    pub breaker: BreakerMachine,
    pub admission: KeyedAdmissionMachine,
    pub calls: CorrelationMachine,
    /// Logical-clock bound: [`ComposedEvent::Tick`] is a no-op past it.
    pub max_ticks: u64,
}

impl ComposedMachine {
    /// The configuration the checker explores: threshold 2, cooldown 2
    /// ticks, one admission slot, two tokens, a 4-tick clock.
    pub fn small() -> ComposedMachine {
        ComposedMachine {
            breaker: BreakerMachine {
                failure_threshold: 2,
                cooldown: 2,
            },
            admission: KeyedAdmissionMachine::one_tenant(1, u64::MAX),
            calls: CorrelationMachine,
            max_ticks: 4,
        }
    }
}

/// Product state plus the glue the runtime keeps implicitly: which
/// tokens are running and whether one of them is the breaker's probe.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ComposedState {
    pub breaker: BreakerState,
    pub admission: KeyedAdmissionState,
    pub calls: CorrelationState,
    pub clock: u64,
    /// Running calls: token → "this call is the half-open probe".
    pub running: BTreeMap<u64, bool>,
}

/// One world happening, at the granularity the runtime experiences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComposedEvent {
    /// The logical clock advances one tick.
    Tick,
    /// A caller starts a call under a fresh token: breaker admission,
    /// then load-shed check, then correlation registration.
    StartCall(u64),
    /// A running call's job finished successfully.
    Succeed(u64),
    /// A running call's job finished with a counted failure.
    Fail(u64),
    /// A running call's job panicked: the handle is poisoned and, if
    /// this was the probe, the `ProbeGuard` aborts it.
    PanicCall(u64),
    /// The waiter claims a settled result.
    Take(u64),
    /// The waiter abandons its handle (`CallHandle` drop → cancel).
    DropHandle(u64),
}

/// Sub-machine effects, tagged with their origin, plus the two
/// pipeline-level rejections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComposedEffect {
    Breaker(BreakerEffect),
    Admission(KeyedAdmissionEffect),
    Call(CorrelationEffect),
    /// The breaker refused the call before admission control ran.
    RejectedByBreaker(u64),
    /// Admission control shed the call after the breaker admitted it.
    ShedByAdmission(u64),
}

impl Machine for ComposedMachine {
    type State = ComposedState;
    type Event = ComposedEvent;
    type Effect = ComposedEffect;

    fn initial(&self) -> ComposedState {
        ComposedState {
            breaker: self.breaker.initial(),
            admission: self.admission.initial(),
            calls: self.calls.initial(),
            clock: 0,
            running: BTreeMap::new(),
        }
    }

    fn step(
        &self,
        state: &ComposedState,
        event: &ComposedEvent,
    ) -> (ComposedState, Vec<ComposedEffect>) {
        use ComposedEffect as E;
        let mut next = state.clone();
        let mut out = Vec::new();
        // Helpers threading sub-machine steps through the product state.
        let breaker = |next: &mut ComposedState, ev: BreakerEvent, out: &mut Vec<E>| {
            let (s, effects) = self.breaker.step(&next.breaker, &ev);
            next.breaker = s;
            let admit = effects.iter().find_map(|e| match e {
                BreakerEffect::Admit(verdict) => Some(*verdict),
                _ => None,
            });
            out.extend(effects.into_iter().map(E::Breaker));
            admit
        };
        let admission = |next: &mut ComposedState, ev: KeyedAdmissionEvent, out: &mut Vec<E>| {
            let (s, effects) = self.admission.step(&next.admission, &ev);
            next.admission = s;
            let admitted = effects.contains(&KeyedAdmissionEffect::Admitted { tenant: 0 });
            out.extend(effects.into_iter().map(E::Admission));
            admitted
        };
        let calls = |next: &mut ComposedState, ev: CorrelationEvent, out: &mut Vec<E>| {
            let (s, effects) = self.calls.step(&next.calls, &ev);
            next.calls = s;
            out.extend(effects.into_iter().map(E::Call));
        };

        match *event {
            ComposedEvent::Tick => {
                if next.clock < self.max_ticks {
                    next.clock += 1;
                }
            }
            ComposedEvent::StartCall(t) => {
                // A used token (running, or settled-but-unclaimed) is a
                // modelling error; treat as a no-op to stay total.
                if !state.running.contains_key(&t) && state.calls.phase(t).is_none() {
                    let now = state.clock;
                    match breaker(&mut next, BreakerEvent::Acquire { now }, &mut out) {
                        Some(Admit::Rejected) | None => out.push(E::RejectedByBreaker(t)),
                        Some(verdict @ (Admit::Allowed | Admit::Probe)) => {
                            let is_probe = verdict == Admit::Probe;
                            let admit = KeyedAdmissionEvent::Admit {
                                tenant: 0,
                                queue_depth: 0,
                                deadline_expired: false,
                            };
                            if admission(&mut next, admit, &mut out) {
                                calls(&mut next, CorrelationEvent::Register(t), &mut out);
                                next.running.insert(t, is_probe);
                            } else {
                                out.push(E::ShedByAdmission(t));
                                if is_probe {
                                    // ProbeGuard: a shed probe is aborted,
                                    // never stranded.
                                    breaker(
                                        &mut next,
                                        BreakerEvent::ProbeAborted { now },
                                        &mut out,
                                    );
                                }
                            }
                        }
                    }
                }
            }
            ComposedEvent::Succeed(t) => {
                if next.running.remove(&t).is_some() {
                    calls(&mut next, CorrelationEvent::Complete(t), &mut out);
                    breaker(&mut next, BreakerEvent::Success, &mut out);
                    admission(
                        &mut next,
                        KeyedAdmissionEvent::Release { tenant: 0 },
                        &mut out,
                    );
                }
            }
            ComposedEvent::Fail(t) => {
                if next.running.remove(&t).is_some() {
                    let now = state.clock;
                    // A failed call still completes its handle (with the
                    // error as its result) — only the breaker counts it.
                    calls(&mut next, CorrelationEvent::Complete(t), &mut out);
                    breaker(&mut next, BreakerEvent::Failure { now }, &mut out);
                    admission(
                        &mut next,
                        KeyedAdmissionEvent::Release { tenant: 0 },
                        &mut out,
                    );
                }
            }
            ComposedEvent::PanicCall(t) => {
                if let Some(was_probe) = next.running.remove(&t) {
                    let now = state.clock;
                    calls(&mut next, CorrelationEvent::Poison(t), &mut out);
                    if was_probe {
                        // The runtime's ProbeGuard unwinds with the panic.
                        breaker(&mut next, BreakerEvent::ProbeAborted { now }, &mut out);
                    }
                    admission(
                        &mut next,
                        KeyedAdmissionEvent::Release { tenant: 0 },
                        &mut out,
                    );
                }
            }
            ComposedEvent::Take(t) => calls(&mut next, CorrelationEvent::Take(t), &mut out),
            ComposedEvent::DropHandle(t) => {
                // The job (if still running) keeps its permit and will
                // still report to the breaker; only the correlation
                // entry leaves eagerly.
                calls(&mut next, CorrelationEvent::Cancel(t), &mut out);
            }
        }
        (next, out)
    }
}
