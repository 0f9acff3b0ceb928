//! The dispatcher's correlation-table token lifecycle as a pure
//! machine.
//!
//! Each pending call is one token moving through a small lifecycle:
//!
//! ```text
//!             Complete              Take (YieldValue)
//!  Pending ─────────────► Ready ─────────────────────► gone
//!     │    \
//!     │     └──Poison───► Poisoned ──Take (PanicWaiter)► gone
//!     └────────Cancel───► gone
//! ```
//!
//! The stored state is exactly the live-call set: a token is *in the
//! correlation table* while `Pending`, keeps a `Ready`/`Poisoned`
//! entry until its waiter claims (or abandons) the result, and leaves
//! the map entirely once terminal — so the runtime shell's state stays
//! bounded by the number of outstanding calls. Dropping a
//! [`crate::CallHandle`] before completion is an explicit
//! [`CorrelationEvent::Cancel`]: the entry leaves eagerly, never
//! relying on result delivery or dispatcher teardown.
//!
//! Invariants the model checker enforces (`wsp-check`):
//!
//! * **no lost token** — from every reachable state, every registered
//!   token can still reach "gone", and traces that cancel or drain
//!   fully end with an empty call map;
//! * **no double delivery** — [`CorrelationEffect::DeliverValue`] is
//!   emitted at most once per token; a second `Complete` (or one after
//!   cancel) yields [`CorrelationEffect::DropLateValue`];
//! * **[`CorrelationEffect::RemoveEntry`] exactly once** — a token
//!   never leaves the correlation table twice.

use std::collections::BTreeMap;
use wsp_simnet::Machine;

/// Where one live call is in its lifecycle. Terminal calls have no
/// phase — they are absent from the map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CallPhase {
    /// In the correlation table, awaiting its result.
    Pending,
    /// Result delivered, not yet claimed by the waiter.
    Ready,
    /// The producing job panicked; the message awaits the waiter.
    Poisoned,
}

/// Machine state: every live token. (`BTreeMap` so iteration — and
/// therefore hashing and exploration — is deterministic.)
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct CorrelationState {
    pub calls: BTreeMap<u64, CallPhase>,
}

impl CorrelationState {
    /// Tokens still occupying a correlation-table entry (pending).
    pub fn table_tokens(&self) -> Vec<u64> {
        self.calls
            .iter()
            .filter(|(_, p)| **p == CallPhase::Pending)
            .map(|(&t, _)| t)
            .collect()
    }

    pub fn phase(&self, token: u64) -> Option<CallPhase> {
        self.calls.get(&token).copied()
    }
}

/// Configuration-free: the lifecycle rules are the whole machine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CorrelationMachine;

/// What happened in the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorrelationEvent {
    /// A call was registered under a fresh token.
    Register(u64),
    /// A result arrived for the token (job return or external
    /// completer).
    Complete(u64),
    /// The producing job panicked.
    Poison(u64),
    /// The call was abandoned: explicit [`crate::CallHandle::cancel`],
    /// or the handle was dropped before the result was claimed.
    Cancel(u64),
    /// The waiter claims the result.
    Take(u64),
}

/// Instructions back to the shell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorrelationEffect {
    /// Store the arrived value in the call's mailbox and wake waiters.
    DeliverValue(u64),
    /// Store the panic message in the mailbox and wake waiters.
    DeliverPoison(u64),
    /// The value (or poison) arrived after the call settled: drop it.
    DropLateValue(u64),
    /// The token left the correlation table. Emitted exactly once per
    /// registered token (on completion, poisoning or cancellation).
    RemoveEntry(u64),
    /// Count one cancellation (a call abandoned while pending).
    CountCancelled(u64),
    /// An unclaimed result was abandoned by its waiter: discard it.
    DropUnclaimed(u64),
    /// Hand the waiter the stored value.
    YieldValue(u64),
    /// Re-panic the waiter with the stored poison message.
    PanicWaiter(u64),
    /// The result is not there yet; the waiter keeps waiting.
    StillPending(u64),
}

impl Machine for CorrelationMachine {
    type State = CorrelationState;
    type Event = CorrelationEvent;
    type Effect = CorrelationEffect;

    fn initial(&self) -> CorrelationState {
        CorrelationState::default()
    }

    fn step(
        &self,
        state: &CorrelationState,
        event: &CorrelationEvent,
    ) -> (CorrelationState, Vec<CorrelationEffect>) {
        let mut next = state.clone();
        let effects = self.step_in_place(&mut next, event);
        (next, effects)
    }

    fn step_in_place(
        &self,
        next: &mut CorrelationState,
        event: &CorrelationEvent,
    ) -> Vec<CorrelationEffect> {
        use CallPhase::*;
        use CorrelationEffect::*;
        match *event {
            CorrelationEvent::Register(t) => {
                // Tokens are allocated process-unique; re-registering a
                // live one is a shell bug, modeled as a no-op.
                next.calls.entry(t).or_insert(Pending);
                vec![]
            }
            CorrelationEvent::Complete(t) => match next.calls.get(&t) {
                Some(Pending) => {
                    next.calls.insert(t, Ready);
                    vec![DeliverValue(t), RemoveEntry(t)]
                }
                _ => vec![DropLateValue(t)],
            },
            CorrelationEvent::Poison(t) => match next.calls.get(&t) {
                Some(Pending) => {
                    next.calls.insert(t, Poisoned);
                    vec![DeliverPoison(t), RemoveEntry(t)]
                }
                _ => vec![DropLateValue(t)],
            },
            CorrelationEvent::Cancel(t) => match next.calls.get(&t) {
                Some(Pending) => {
                    next.calls.remove(&t);
                    vec![RemoveEntry(t), CountCancelled(t)]
                }
                Some(Ready) | Some(Poisoned) => {
                    next.calls.remove(&t);
                    vec![DropUnclaimed(t)]
                }
                None => vec![],
            },
            CorrelationEvent::Take(t) => match next.calls.get(&t) {
                Some(Ready) => {
                    next.calls.remove(&t);
                    vec![YieldValue(t)]
                }
                Some(Poisoned) => {
                    next.calls.remove(&t);
                    vec![PanicWaiter(t)]
                }
                Some(Pending) => vec![StillPending(t)],
                None => vec![],
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_simnet::step_mut;

    #[test]
    fn happy_path_register_complete_take() {
        let m = CorrelationMachine;
        let mut s = m.initial();
        step_mut(&m, &mut s, &CorrelationEvent::Register(7));
        assert_eq!(s.table_tokens(), vec![7]);
        assert_eq!(
            step_mut(&m, &mut s, &CorrelationEvent::Complete(7)),
            vec![
                CorrelationEffect::DeliverValue(7),
                CorrelationEffect::RemoveEntry(7)
            ]
        );
        assert!(s.table_tokens().is_empty(), "settled entries leave eagerly");
        assert_eq!(s.phase(7), Some(CallPhase::Ready));
        assert_eq!(
            step_mut(&m, &mut s, &CorrelationEvent::Take(7)),
            vec![CorrelationEffect::YieldValue(7)]
        );
        assert!(s.calls.is_empty(), "terminal calls leave no residue");
    }

    #[test]
    fn cancel_beats_late_completion() {
        let m = CorrelationMachine;
        let mut s = m.initial();
        step_mut(&m, &mut s, &CorrelationEvent::Register(1));
        assert_eq!(
            step_mut(&m, &mut s, &CorrelationEvent::Cancel(1)),
            vec![
                CorrelationEffect::RemoveEntry(1),
                CorrelationEffect::CountCancelled(1)
            ]
        );
        assert_eq!(
            step_mut(&m, &mut s, &CorrelationEvent::Complete(1)),
            vec![CorrelationEffect::DropLateValue(1)],
            "completion after cancel is dropped, never delivered"
        );
        assert_eq!(
            step_mut(&m, &mut s, &CorrelationEvent::Cancel(1)),
            vec![],
            "double cancel is a no-op"
        );
        assert!(s.calls.is_empty());
    }

    #[test]
    fn complete_twice_delivers_once() {
        let m = CorrelationMachine;
        let mut s = m.initial();
        step_mut(&m, &mut s, &CorrelationEvent::Register(2));
        let first = step_mut(&m, &mut s, &CorrelationEvent::Complete(2));
        assert!(first.contains(&CorrelationEffect::DeliverValue(2)));
        let second = step_mut(&m, &mut s, &CorrelationEvent::Complete(2));
        assert_eq!(second, vec![CorrelationEffect::DropLateValue(2)]);
    }

    #[test]
    fn poison_panics_the_waiter() {
        let m = CorrelationMachine;
        let mut s = m.initial();
        step_mut(&m, &mut s, &CorrelationEvent::Register(3));
        let effects = step_mut(&m, &mut s, &CorrelationEvent::Poison(3));
        assert!(effects.contains(&CorrelationEffect::DeliverPoison(3)));
        assert_eq!(
            step_mut(&m, &mut s, &CorrelationEvent::Take(3)),
            vec![CorrelationEffect::PanicWaiter(3)]
        );
        assert!(s.calls.is_empty());
    }

    #[test]
    fn take_while_pending_keeps_waiting() {
        let m = CorrelationMachine;
        let mut s = m.initial();
        step_mut(&m, &mut s, &CorrelationEvent::Register(4));
        assert_eq!(
            step_mut(&m, &mut s, &CorrelationEvent::Take(4)),
            vec![CorrelationEffect::StillPending(4)]
        );
        assert_eq!(s.phase(4), Some(CallPhase::Pending));
    }

    #[test]
    fn abandoning_an_unclaimed_result_discards_it() {
        let m = CorrelationMachine;
        let mut s = m.initial();
        step_mut(&m, &mut s, &CorrelationEvent::Register(5));
        step_mut(&m, &mut s, &CorrelationEvent::Complete(5));
        // The handle is dropped without ever taking the value.
        assert_eq!(
            step_mut(&m, &mut s, &CorrelationEvent::Cancel(5)),
            vec![CorrelationEffect::DropUnclaimed(5)],
            "not a cancellation — the call completed; the result is just unclaimed"
        );
        assert!(s.calls.is_empty(), "no residue after abandonment");
    }
}
