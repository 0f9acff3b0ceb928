//! Pure protocol state machines (see [`wsp_simnet::machine`]).
//!
//! Each submodule is the *entire* protocol logic of one runtime
//! component, expressed as a [`wsp_simnet::Machine`]: a pure
//! `step(&state, &event) -> (state, effects)` with no wall-clock, no
//! locks, no I/O. The runtime shells — [`crate::health`] for the
//! breaker (both re-exported from `wsp_http`), [`crate::overload`] for
//! admission, [`crate::dispatch`] for the correlation table — feed
//! events in and execute effects out; they hold no protocol decisions
//! of their own. The `wsp-check` crate exhaustively explores small
//! configurations of these machines (and compositions of them) for
//! invariant violations.
//!
//! Time never enters a machine through a clock: events that depend on
//! elapsed time carry an explicit `now` in **logical ticks** (the
//! shell converts `Instant`s relative to the process origin of
//! [`crate::telemetry::clock`]; the model checker uses small integers).

pub mod correlation;
pub mod keyed_admission;

pub use wsp_http::breaker;
