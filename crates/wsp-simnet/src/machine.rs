//! The pure protocol-state-machine contract.
//!
//! Every interacting protocol in the tree — circuit breaker, admission
//! control, dispatcher correlation, HTTP drain lifecycle, P2PS
//! reply-pipe routing — is expressed as an implementation of
//! [`Machine`]: a *pure* transition function
//! `step(&state, &event) -> (state, effects)` with **no wall-clock, no
//! locks, no I/O**. The runtime code that used to own these state
//! machines is now a thin shell: it converts real-world happenings
//! (a socket accept, a permit drop, an `Instant` comparison) into
//! events, feeds them through `step`, and executes the returned
//! effects (store a value, wake a condvar, write a 503).
//!
//! Because transitions are pure and states are `Eq + Hash`, small
//! configurations can be *exhaustively explored* — the `wsp-check`
//! crate walks every reachable interleaving of a bounded event
//! alphabet and checks safety invariants on every edge, turning
//! "didn't fail this run" concurrency tests into model-checked
//! guarantees. Time is modelled as explicit logical ticks carried by
//! events, never read from a clock, so explorations are deterministic
//! and bit-reproducible under the same `WSP_FAULT_SEED` discipline as
//! the simulator.

use std::fmt::Debug;
use std::hash::Hash;

/// A pure, deterministic protocol state machine.
///
/// The machine value itself holds only *configuration* (thresholds,
/// caps, cooldowns); all mutable protocol state lives in
/// `Self::State`. `step` must be a pure function of `(config, state,
/// event)`: same inputs, same `(state, effects)` out — no clocks, no
/// randomness, no interior mutability.
pub trait Machine {
    /// The protocol state. `Eq + Hash` so explorers can deduplicate
    /// visited states; `Clone` so shells can snapshot for comparison.
    type State: Clone + Eq + Hash + Debug;
    /// One input: something that happened in the world.
    type Event: Clone + Debug;
    /// One instruction back to the shell (deliver a value, reject a
    /// connection, fire a telemetry counter…).
    type Effect: Clone + PartialEq + Debug;

    /// The state a freshly constructed instance starts in.
    fn initial(&self) -> Self::State;

    /// The transition function: consume one event in `state`, produce
    /// the successor state and the effects the shell must carry out.
    fn step(&self, state: &Self::State, event: &Self::Event) -> (Self::State, Vec<Self::Effect>);

    /// The same transition applied to a state its caller owns. A
    /// machine whose state is a collection (a map of live calls)
    /// implements this one, so that a step costs what its event touches
    /// and not a copy of everything held, and writes `step` as a clone
    /// stepped in place — explorers and shells then run one function.
    fn step_in_place(&self, state: &mut Self::State, event: &Self::Event) -> Vec<Self::Effect> {
        let (next, effects) = self.step(state, event);
        *state = next;
        effects
    }
}

/// Convenience for shells that own a current state: step in place and
/// return just the effects.
pub fn step_mut<M: Machine>(machine: &M, state: &mut M::State, event: &M::Event) -> Vec<M::Effect> {
    machine.step_in_place(state, event)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-state toggle, the smallest possible machine.
    struct Toggle;

    impl Machine for Toggle {
        type State = bool;
        type Event = ();
        type Effect = bool;

        fn initial(&self) -> bool {
            false
        }

        fn step(&self, state: &bool, _event: &()) -> (bool, Vec<bool>) {
            (!*state, vec![!*state])
        }
    }

    #[test]
    fn step_mut_advances_in_place() {
        let machine = Toggle;
        let mut state = machine.initial();
        assert_eq!(step_mut(&machine, &mut state, &()), vec![true]);
        assert!(state);
        assert_eq!(step_mut(&machine, &mut state, &()), vec![false]);
        assert!(!state);
    }
}
