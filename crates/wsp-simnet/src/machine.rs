//! The pure protocol-state-machine contract.
//!
//! Every interacting protocol in the tree — circuit breaker, admission
//! control, dispatcher correlation, HTTP drain lifecycle, P2PS
//! reply-pipe routing — is expressed as an implementation of
//! [`Machine`]: a *pure* transition function
//! `step_into(&mut state, &event, &mut effects)` with **no wall-clock, no
//! locks, no I/O**, which advances the state in place and appends the
//! effects to a buffer its caller owns. The runtime code that used to
//! own these state machines is now a thin shell: it converts
//! real-world happenings (a socket accept, a permit drop, an `Instant`
//! comparison) into events, feeds them through its one step point into
//! the one buffer it reuses, and executes the effects (store a value,
//! wake a condvar, write a 503).
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
/// `Self::State`. `step_into` must be a pure function of `(config,
/// state, event)`: same inputs, same successor state and same effects
/// appended — no clocks, no randomness, no interior mutability.
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

    /// The transition function: consume one event, advancing `state`
    /// in place, and append the effects the shell must carry out to
    /// `out`. It never reads `out`, so a shell can hand it the same
    /// buffer on every step and a step costs what its event touches.
    fn step_into(&self, state: &mut Self::State, event: &Self::Event, out: &mut Vec<Self::Effect>);

    /// The same transition as a pure function of a borrowed state: the
    /// successor and the effects, fresh. What explorers walk.
    fn step(&self, state: &Self::State, event: &Self::Event) -> (Self::State, Vec<Self::Effect>) {
        let (mut next, mut out) = (state.clone(), Vec::new());
        self.step_into(&mut next, event, &mut out);
        (next, out)
    }
}

/// Step in place and return just the effects, in a fresh vector: a
/// convenience for tests and simulations, never for a shell.
pub fn step_mut<M: Machine>(machine: &M, state: &mut M::State, event: &M::Event) -> Vec<M::Effect> {
    let mut out = Vec::new();
    machine.step_into(state, event, &mut out);
    out
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

        fn step_into(&self, state: &mut bool, _event: &(), out: &mut Vec<bool>) {
            *state = !*state;
            out.push(*state);
        }
    }

    #[test]
    fn step_returns_the_successor_and_leaves_the_state_alone() {
        let state = false;
        assert_eq!(Toggle.step(&state, &()), (true, vec![true]));
        assert!(!state);
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
