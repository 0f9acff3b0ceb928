//! The circuit-breaker protocol as a pure machine.
//!
//! Mirrors the classic three observable phases — closed, open,
//! half-open — with the *stored* state being just two shapes:
//! `Closed { failures }` and `Tripped { since, probe_in_flight }`.
//! Half-open is derived: a tripped breaker whose cooldown has elapsed.
//! Its runtime shell is [`crate::health`].
//!
//! Invariants the model checker enforces (`wsp-check`):
//!
//! * a successful half-open probe always closes the breaker — the
//!   breaker never *remains* open past a probe success;
//! * at most one probe is ever in flight: `Admit(Probe)` is never
//!   issued while `probe_in_flight` is already set;
//! * a probe that aborts (panics) never strands `probe_in_flight`:
//!   [`BreakerEvent::ProbeAborted`] re-opens for a fresh cooldown;
//! * the closed-state failure count never reaches the threshold
//!   without tripping.

use wsp_simnet::Machine;

/// Configuration: the machine value itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerMachine {
    /// Consecutive failures that trip the breaker.
    pub failure_threshold: u32,
    /// Cooldown in logical ticks before a tripped breaker probes.
    pub cooldown: u64,
}

/// Stored breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BreakerState {
    /// Requests flow; consecutive failures counted.
    Closed { failures: u32 },
    /// The breaker tripped at `since`; `probe_in_flight` marks an
    /// admitted half-open probe that has not yet reported.
    Tripped { since: u64, probe_in_flight: bool },
}

/// The observable phase at logical time `now`: what callers see, as
/// [`crate::health::BreakerState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Closed,
    Open,
    HalfOpen,
}

/// What happened in the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerEvent {
    /// A caller asks permission to attempt a call at `now`.
    Acquire { now: u64 },
    /// An attempt reported success.
    Success,
    /// An attempt reported failure at `now`.
    Failure { now: u64 },
    /// An admitted probe unwound (panicked) without reporting at `now`.
    ProbeAborted { now: u64 },
}

/// Admission verdicts handed back on [`BreakerEvent::Acquire`]; the
/// shell hands them on as [`crate::health::Admission`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// Closed: go ahead.
    Allowed,
    /// Half-open: go ahead, and this attempt is *the* probe.
    Probe,
    /// Open (or half-open with the probe already taken): do not call.
    Rejected,
}

/// Instructions back to the shell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerEffect {
    /// The verdict for an `Acquire`.
    Admit(Admit),
    /// This failure tripped the breaker (closed → open) or re-opened it
    /// (failed half-open probe) — fire the `BreakerTripped` event.
    Tripped,
    /// A half-open probe succeeded and closed the breaker — fire the
    /// `BreakerRecovered` event.
    Recovered,
    /// An aborted probe re-opened the breaker for a fresh cooldown.
    ProbeDiscarded,
}

impl BreakerMachine {
    /// The observable phase of `state` at `now` — pure companion of the
    /// transition function (reads, never writes).
    pub fn phase(&self, state: &BreakerState, now: u64) -> Phase {
        match *state {
            BreakerState::Closed { .. } => Phase::Closed,
            BreakerState::Tripped { since, .. } => {
                if now.saturating_sub(since) >= self.cooldown {
                    Phase::HalfOpen
                } else {
                    Phase::Open
                }
            }
        }
    }
}

impl Machine for BreakerMachine {
    type State = BreakerState;
    type Event = BreakerEvent;
    type Effect = BreakerEffect;

    fn initial(&self) -> BreakerState {
        BreakerState::Closed { failures: 0 }
    }

    fn step_into(
        &self,
        state: &mut BreakerState,
        event: &BreakerEvent,
        out: &mut Vec<BreakerEffect>,
    ) {
        use BreakerEffect as E;
        match (*state, *event) {
            // --- admission ------------------------------------------------
            (BreakerState::Closed { .. }, BreakerEvent::Acquire { .. }) => {
                out.push(E::Admit(Admit::Allowed))
            }
            (
                BreakerState::Tripped {
                    since,
                    probe_in_flight,
                },
                BreakerEvent::Acquire { now },
            ) => {
                if now.saturating_sub(since) < self.cooldown || probe_in_flight {
                    out.push(E::Admit(Admit::Rejected));
                } else {
                    *state = BreakerState::Tripped {
                        since,
                        probe_in_flight: true,
                    };
                    out.push(E::Admit(Admit::Probe));
                }
            }

            // --- outcome reports ------------------------------------------
            (BreakerState::Closed { .. }, BreakerEvent::Success) => {
                *state = BreakerState::Closed { failures: 0 };
            }
            (BreakerState::Tripped { .. }, BreakerEvent::Success) => {
                // Any success while tripped — the probe, or a straggler
                // admitted before the trip — closes the breaker.
                *state = BreakerState::Closed { failures: 0 };
                out.push(E::Recovered);
            }
            (BreakerState::Closed { failures }, BreakerEvent::Failure { now }) => {
                let failures = failures + 1;
                if failures >= self.failure_threshold {
                    *state = BreakerState::Tripped {
                        since: now,
                        probe_in_flight: false,
                    };
                    out.push(E::Tripped);
                } else {
                    *state = BreakerState::Closed { failures };
                }
            }
            (
                BreakerState::Tripped {
                    probe_in_flight, ..
                },
                BreakerEvent::Failure { now },
            ) => {
                // A failure while tripped restarts the cooldown; if it
                // was the probe, that is a (re-)trip worth reporting.
                *state = BreakerState::Tripped {
                    since: now,
                    probe_in_flight: false,
                };
                if probe_in_flight {
                    out.push(E::Tripped);
                }
            }

            // --- aborted probes -------------------------------------------
            (
                BreakerState::Tripped {
                    probe_in_flight: true,
                    ..
                },
                BreakerEvent::ProbeAborted { now },
            ) => {
                *state = BreakerState::Tripped {
                    since: now,
                    probe_in_flight: false,
                };
                out.push(E::ProbeDiscarded);
            }
            // No probe in flight (or already closed): nothing to abort.
            (_, BreakerEvent::ProbeAborted { .. }) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_simnet::step_mut;

    fn machine() -> BreakerMachine {
        BreakerMachine {
            failure_threshold: 3,
            cooldown: 100,
        }
    }

    #[test]
    fn trips_after_threshold_and_probes_after_cooldown() {
        let m = machine();
        let mut s = m.initial();
        assert!(step_mut(&m, &mut s, &BreakerEvent::Failure { now: 0 }).is_empty());
        assert!(step_mut(&m, &mut s, &BreakerEvent::Failure { now: 0 }).is_empty());
        assert_eq!(
            step_mut(&m, &mut s, &BreakerEvent::Failure { now: 0 }),
            vec![BreakerEffect::Tripped]
        );
        assert_eq!(m.phase(&s, 0), Phase::Open);
        assert_eq!(
            step_mut(&m, &mut s, &BreakerEvent::Acquire { now: 50 }),
            vec![BreakerEffect::Admit(Admit::Rejected)]
        );
        assert_eq!(m.phase(&s, 150), Phase::HalfOpen);
        assert_eq!(
            step_mut(&m, &mut s, &BreakerEvent::Acquire { now: 150 }),
            vec![BreakerEffect::Admit(Admit::Probe)]
        );
        // Second caller during the probe is rejected.
        assert_eq!(
            step_mut(&m, &mut s, &BreakerEvent::Acquire { now: 150 }),
            vec![BreakerEffect::Admit(Admit::Rejected)]
        );
        assert_eq!(
            step_mut(&m, &mut s, &BreakerEvent::Success),
            vec![BreakerEffect::Recovered]
        );
        assert_eq!(m.phase(&s, 150), Phase::Closed);
    }

    #[test]
    fn aborted_probe_reopens_instead_of_stranding() {
        let m = machine();
        let mut s = BreakerState::Tripped {
            since: 0,
            probe_in_flight: false,
        };
        step_mut(&m, &mut s, &BreakerEvent::Acquire { now: 100 });
        assert_eq!(
            step_mut(&m, &mut s, &BreakerEvent::ProbeAborted { now: 120 }),
            vec![BreakerEffect::ProbeDiscarded]
        );
        assert_eq!(
            s,
            BreakerState::Tripped {
                since: 120,
                probe_in_flight: false
            },
            "cooldown restarted, probe slot freed"
        );
        // The next half-open window admits a fresh probe.
        assert_eq!(
            step_mut(&m, &mut s, &BreakerEvent::Acquire { now: 220 }),
            vec![BreakerEffect::Admit(Admit::Probe)]
        );
    }

    #[test]
    fn success_while_closed_resets_count_silently() {
        let m = machine();
        let mut s = m.initial();
        step_mut(&m, &mut s, &BreakerEvent::Failure { now: 0 });
        step_mut(&m, &mut s, &BreakerEvent::Failure { now: 0 });
        assert!(step_mut(&m, &mut s, &BreakerEvent::Success).is_empty());
        assert_eq!(s, BreakerState::Closed { failures: 0 });
    }
}
