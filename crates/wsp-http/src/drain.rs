//! The TCP server's drain lifecycle as a pure machine.
//!
//! ```text
//!              BeginDrain              Stop
//!  Accepting ─────────────► Draining ───────► Stopped{drained: true}
//!      │                        ▲ (connections finish meanwhile)
//!      └────────Stop───────────────────────► Stopped{drained: false}
//! ```
//!
//! The state also carries the live-connection count, so slot
//! accounting — increment on an admitted accept, decrement when the
//! connection closes — is part of the same transition function the
//! runtime executes and the model checker explores. The shell
//! ([`crate::server::TcpServer`]) holds a `Mutex<DrainState>`, feeds in
//! [`DrainEvent`]s from the reactor's accept and close hooks and from
//! `shutdown`, and executes the returned [`DrainEffect`]s (serve,
//! reject with `503`, stop the listener).
//!
//! Invariants the model checker enforces (`wsp-check`):
//!
//! * **no leaked slot** — every trace that closes all admitted
//!   connections ends with `active == 0`; `active` never underflows
//!   (an excess [`DrainEvent::ConnClosed`] saturates and surfaces
//!   [`DrainEffect::SlotUnderflow`], which must be unreachable when
//!   closes are paired with serves);
//! * **drain terminates** — from every reachable state, the event
//!   sequence "close the open connections, then `Stop`" reaches
//!   `Stopped` with zero active connections;
//! * **no admission past drain** — [`DrainEffect::Serve`] is never
//!   emitted once the lifecycle has left `Accepting`.

use wsp_simnet::Machine;

/// Where the server is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lifecycle {
    /// Serving: new connections admitted (subject to the cap).
    Accepting,
    /// Graceful drain begun: latecomers rejected, admitted work runs
    /// to completion.
    Draining,
    /// Listener gone. `drained` records whether the stop came
    /// through a drain (the historical `draining` flag latched forever
    /// once set, and in-flight responses still honour it).
    Stopped { drained: bool },
}

/// Machine state: lifecycle plus the live-connection count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DrainState {
    pub lifecycle: Lifecycle,
    /// Connections accepted and not yet finished.
    pub active: u64,
}

impl DrainState {
    /// Has a graceful drain ever begun? (The latched `draining` flag:
    /// stays `true` through `Stopped{drained: true}`.)
    pub fn drain_began(&self) -> bool {
        matches!(
            self.lifecycle,
            Lifecycle::Draining | Lifecycle::Stopped { drained: true }
        )
    }

    pub fn stopped(&self) -> bool {
        matches!(self.lifecycle, Lifecycle::Stopped { .. })
    }
}

/// The drain machine; its one tunable is the connection cap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainMachine {
    /// Cap on concurrently served connections; `None` = uncapped.
    pub max_connections: Option<u64>,
}

/// What happened in the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainEvent {
    /// The listener accepted a connection; decide its fate.
    Accept,
    /// A served connection closed (response sent, peer gone, handler
    /// panic, reactor teardown — every release path reports it).
    ConnClosed,
    /// Graceful shutdown began.
    BeginDrain,
    /// The listener must stop (drain finished or abrupt stop).
    Stop,
}

/// Instructions back to the shell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainEffect {
    /// Admit: serve the connection (the slot is already counted).
    Serve,
    /// Reject with `503`: the server is draining.
    RejectDraining,
    /// Reject with `503`: the connection cap is reached.
    RejectAtCapacity,
    /// Tear down the listener and join the reactor threads.
    StopListening,
    /// A close arrived with no slot held — a shell bug (the count
    /// saturates at zero rather than wrapping).
    SlotUnderflow,
}

impl Machine for DrainMachine {
    type State = DrainState;
    type Event = DrainEvent;
    type Effect = DrainEffect;

    fn initial(&self) -> DrainState {
        DrainState {
            lifecycle: Lifecycle::Accepting,
            active: 0,
        }
    }

    fn step(&self, state: &DrainState, event: &DrainEvent) -> (DrainState, Vec<DrainEffect>) {
        use DrainEffect as E;
        let mut next = *state;
        let effects = match event {
            DrainEvent::Accept => match state.lifecycle {
                Lifecycle::Accepting => {
                    if self.max_connections.is_some_and(|cap| state.active >= cap) {
                        vec![E::RejectAtCapacity]
                    } else {
                        next.active += 1;
                        vec![E::Serve]
                    }
                }
                Lifecycle::Draining => vec![E::RejectDraining],
                // The listener has stopped; a straggling accept is
                // dropped on the floor (the socket is already closed).
                Lifecycle::Stopped { .. } => vec![],
            },
            DrainEvent::ConnClosed => {
                if state.active == 0 {
                    vec![E::SlotUnderflow]
                } else {
                    next.active -= 1;
                    vec![]
                }
            }
            DrainEvent::BeginDrain => match state.lifecycle {
                Lifecycle::Accepting => {
                    next.lifecycle = Lifecycle::Draining;
                    vec![]
                }
                // Already draining or stopped: latched, no-op.
                Lifecycle::Draining | Lifecycle::Stopped { .. } => vec![],
            },
            DrainEvent::Stop => match state.lifecycle {
                Lifecycle::Accepting => {
                    next.lifecycle = Lifecycle::Stopped { drained: false };
                    vec![E::StopListening]
                }
                Lifecycle::Draining => {
                    next.lifecycle = Lifecycle::Stopped { drained: true };
                    vec![E::StopListening]
                }
                Lifecycle::Stopped { .. } => vec![],
            },
        };
        (next, effects)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_simnet::step_mut;

    fn capped(cap: u64) -> DrainMachine {
        DrainMachine {
            max_connections: Some(cap),
        }
    }

    #[test]
    fn admits_until_the_cap_then_rejects() {
        let m = capped(2);
        let mut s = m.initial();
        assert_eq!(
            step_mut(&m, &mut s, &DrainEvent::Accept),
            vec![DrainEffect::Serve]
        );
        assert_eq!(
            step_mut(&m, &mut s, &DrainEvent::Accept),
            vec![DrainEffect::Serve]
        );
        assert_eq!(
            step_mut(&m, &mut s, &DrainEvent::Accept),
            vec![DrainEffect::RejectAtCapacity]
        );
        assert_eq!(s.active, 2, "a rejected accept takes no slot");
        step_mut(&m, &mut s, &DrainEvent::ConnClosed);
        assert_eq!(
            step_mut(&m, &mut s, &DrainEvent::Accept),
            vec![DrainEffect::Serve],
            "a freed slot admits again"
        );
    }

    #[test]
    fn uncapped_machine_always_serves_while_accepting() {
        let m = DrainMachine {
            max_connections: None,
        };
        let mut s = m.initial();
        for _ in 0..100 {
            assert_eq!(
                step_mut(&m, &mut s, &DrainEvent::Accept),
                vec![DrainEffect::Serve]
            );
        }
        assert_eq!(s.active, 100);
    }

    #[test]
    fn drain_rejects_latecomers_and_latches_through_stop() {
        let m = capped(4);
        let mut s = m.initial();
        step_mut(&m, &mut s, &DrainEvent::Accept);
        step_mut(&m, &mut s, &DrainEvent::BeginDrain);
        assert!(s.drain_began());
        assert_eq!(
            step_mut(&m, &mut s, &DrainEvent::Accept),
            vec![DrainEffect::RejectDraining]
        );
        step_mut(&m, &mut s, &DrainEvent::ConnClosed);
        assert_eq!(s.active, 0, "admitted work still drains the count");
        assert_eq!(
            step_mut(&m, &mut s, &DrainEvent::Stop),
            vec![DrainEffect::StopListening]
        );
        assert_eq!(s.lifecycle, Lifecycle::Stopped { drained: true });
        assert!(s.drain_began(), "the drain flag survives the stop");
        assert_eq!(
            step_mut(&m, &mut s, &DrainEvent::Stop),
            vec![],
            "idempotent"
        );
    }

    #[test]
    fn abrupt_stop_never_reports_a_drain() {
        let m = capped(4);
        let mut s = m.initial();
        step_mut(&m, &mut s, &DrainEvent::Accept);
        assert_eq!(
            step_mut(&m, &mut s, &DrainEvent::Stop),
            vec![DrainEffect::StopListening]
        );
        assert_eq!(s.lifecycle, Lifecycle::Stopped { drained: false });
        assert!(!s.drain_began());
        assert_eq!(s.active, 1, "the cut-off connection still holds its slot");
        step_mut(&m, &mut s, &DrainEvent::ConnClosed);
        assert_eq!(s.active, 0);
    }

    #[test]
    fn excess_close_saturates_and_reports_underflow() {
        let m = capped(1);
        let mut s = m.initial();
        assert_eq!(
            step_mut(&m, &mut s, &DrainEvent::ConnClosed),
            vec![DrainEffect::SlotUnderflow]
        );
        assert_eq!(s.active, 0, "saturates, never wraps");
    }
}
