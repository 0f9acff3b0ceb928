//! Deliberately broken machines proving the checker catches real
//! protocol bugs (mutation testing for the invariant suite).
//!
//! Each wrapper delegates to the genuine machine and sabotages one
//! transition — the kind of bug a hand-rolled implementation actually
//! grows. The tests in [`crate::checks`] assert that exploration of a
//! mutant produces a counterexample trace, so a green invariant suite
//! means the invariants are load-bearing, not vacuous.

use crate::composed::{ComposedEvent, ComposedMachine, ComposedState};
use wsp_core::machines::breaker::{BreakerEvent, BreakerMachine, BreakerState};
use wsp_core::machines::keyed_admission::{
    KeyedAdmissionEffect, KeyedAdmissionEvent, KeyedAdmissionMachine, KeyedAdmissionState,
    KeyedShedReason,
};
use wsp_http::conn::{ConnEffect, ConnEvent, ConnMachine, ConnState, Phase, TimerKind};
use wsp_http::drain::{DrainEffect, DrainEvent, DrainMachine, DrainState};
use wsp_simnet::Machine;

/// Mutation: a successful call while the breaker is tripped does *not*
/// reset it — the classic "forgot to close on half-open success" bug.
/// The breaker stays open (with the probe slot stranded) forever.
#[derive(Debug, Clone)]
pub struct SkipHalfOpenReset(pub BreakerMachine);

impl Machine for SkipHalfOpenReset {
    type State = BreakerState;
    type Event = BreakerEvent;
    type Effect = <BreakerMachine as Machine>::Effect;

    fn initial(&self) -> BreakerState {
        self.0.initial()
    }

    fn step(
        &self,
        state: &BreakerState,
        event: &BreakerEvent,
    ) -> (BreakerState, Vec<Self::Effect>) {
        if matches!(state, BreakerState::Tripped { .. }) && matches!(event, BreakerEvent::Success) {
            // The bug: swallow the success instead of closing.
            return (*state, vec![]);
        }
        self.0.step(state, event)
    }
}

/// The same bug injected into the composed pipeline, where it must
/// surface through two layers of composition.
#[derive(Debug, Clone)]
pub struct ComposedSkipHalfOpenReset(pub ComposedMachine);

impl Machine for ComposedSkipHalfOpenReset {
    type State = ComposedState;
    type Event = ComposedEvent;
    type Effect = <ComposedMachine as Machine>::Effect;

    fn initial(&self) -> ComposedState {
        self.0.initial()
    }

    fn step(
        &self,
        state: &ComposedState,
        event: &ComposedEvent,
    ) -> (ComposedState, Vec<Self::Effect>) {
        if let ComposedEvent::Succeed(t) = event {
            if matches!(state.breaker, BreakerState::Tripped { .. })
                && state.running.contains_key(t)
            {
                // The bug: deliver the result and release the permit,
                // but never tell the breaker.
                let (mut next, effects) = self.0.step(state, event);
                next.breaker = state.breaker;
                let effects = effects
                    .into_iter()
                    .filter(|e| !matches!(e, crate::composed::ComposedEffect::Breaker(_)))
                    .collect();
                return (next, effects);
            }
        }
        self.0.step(state, event)
    }
}

/// Mutation: a connection rejected at the capacity cap still counts a
/// slot — the accounting leak the `ActiveGuard` pairing exists to
/// prevent. Drain can then never observe zero active connections.
#[derive(Debug, Clone)]
pub struct LeakSlotOnReject(pub DrainMachine);

impl Machine for LeakSlotOnReject {
    type State = DrainState;
    type Event = DrainEvent;
    type Effect = DrainEffect;

    fn initial(&self) -> DrainState {
        self.0.initial()
    }

    fn step(&self, state: &DrainState, event: &DrainEvent) -> (DrainState, Vec<DrainEffect>) {
        let (mut next, effects) = self.0.step(state, event);
        if effects.contains(&DrainEffect::RejectAtCapacity) {
            // The bug: the reject path forgot it never took a slot.
            next.active += 1;
        }
        (next, effects)
    }
}

/// Mutation: the fast path where a whole request frame lands in one
/// read forgets to cancel the header deadline — the stale timer then
/// 408s a request that is already executing. Exactly the bug exact
/// wheel cancellation exists to prevent.
#[derive(Debug, Clone)]
pub struct StickyHeadTimer(pub ConnMachine);

impl Machine for StickyHeadTimer {
    type State = ConnState;
    type Event = ConnEvent;
    type Effect = ConnEffect;

    fn initial(&self) -> ConnState {
        self.0.initial()
    }

    fn step(&self, state: &ConnState, event: &ConnEvent) -> (ConnState, Vec<ConnEffect>) {
        let (mut next, mut effects) = self.0.step(state, event);
        if state.phase == Phase::ReadingHead && matches!(event, ConnEvent::RequestDone) {
            // The bug: dispatch the request but leave the header
            // deadline ticking on the wheel.
            next.head_timer = true;
            effects.retain(|fx| *fx != ConnEffect::CancelTimer(TimerKind::Head));
        }
        (next, effects)
    }
}

/// Mutation: drain treats every `Idle` connection as keep-alive idle,
/// forgetting that one accepted a moment ago has not been read yet —
/// the E11 race: the drain machine admitted the connection, its
/// request is in the socket, and the connection is closed under it.
#[derive(Debug, Clone)]
pub struct DrainClosesUnread(pub ConnMachine);

impl Machine for DrainClosesUnread {
    type State = ConnState;
    type Event = ConnEvent;
    type Effect = ConnEffect;

    fn initial(&self) -> ConnState {
        self.0.initial()
    }

    fn step(&self, state: &ConnState, event: &ConnEvent) -> (ConnState, Vec<ConnEffect>) {
        if state.phase == Phase::Idle && state.fresh && matches!(event, ConnEvent::DrainBegan) {
            // The bug: no "accepted, nothing read yet" distinction, so
            // the connection is torn down like any keep-alive idle one.
            let as_idle = ConnState {
                fresh: false,
                ..*state
            };
            return self.0.step(&as_idle, event);
        }
        self.0.step(state, event)
    }
}

/// Mutation: the borrow path of the keyed fair-share policy checks the
/// global cap but forgets the reserve held for other tenants' unused
/// guaranteed shares. A tenant over its share can then fill the budget,
/// and a below-share tenant's unconditional admit blows the global cap.
#[derive(Debug, Clone)]
pub struct IgnoreReserve(pub KeyedAdmissionMachine);

impl Machine for IgnoreReserve {
    type State = KeyedAdmissionState;
    type Event = KeyedAdmissionEvent;
    type Effect = KeyedAdmissionEffect;

    fn initial(&self) -> KeyedAdmissionState {
        self.0.initial()
    }

    fn step(
        &self,
        state: &KeyedAdmissionState,
        event: &KeyedAdmissionEvent,
    ) -> (KeyedAdmissionState, Vec<KeyedAdmissionEffect>) {
        let (next, effects) = self.0.step(state, event);
        if let [KeyedAdmissionEffect::Shed {
            tenant,
            reason: KeyedShedReason::FairShareReserve,
        }] = effects[..]
        {
            if state.total() < self.0.global_cap {
                // The bug: "there's room under the cap" — admit the
                // borrower without leaving the reserve intact.
                let mut next = state.clone();
                next.in_flight[tenant] += 1;
                return (next, vec![KeyedAdmissionEffect::Admitted { tenant }]);
            }
        }
        (next, effects)
    }
}
