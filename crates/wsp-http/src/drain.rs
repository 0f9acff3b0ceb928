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
//! ([`ServerState`]) holds a `Mutex<DrainState>`; the reactor owns it,
//! feeds in [`DrainEvent`]s from its accepts and releases and from its
//! handle's `shutdown`/`stop`, and executes the returned
//! [`DrainEffect`]s (serve, refuse — HTTP with a canned `503`, a pipe
//! by dropping the socket —, stop the listener). The same reactor code
//! runs it for the HTTP [`crate::server::TcpServer`] and for the P2PS
//! pipe endpoint.
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

use std::time::Instant;
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

/// The one shell around the machine. The reactor owns it and steps
/// it on every accept and every release of a served connection; its
/// handle steps `BeginDrain` and `Stop`. Flag reads (`stopped`, drain
/// latch, active count) are uncontended `Mutex` peeks, so the machine
/// costs nothing observable.
pub struct ServerState {
    machine: DrainMachine,
    drain: parking_lot::Mutex<DrainState>,
    /// Signalled by every step that leaves no connection live, so a
    /// shutdown sleeps until the count reaches zero instead of polling.
    cv: parking_lot::Condvar,
}

impl ServerState {
    pub fn new(max_connections: Option<usize>) -> ServerState {
        let machine = DrainMachine {
            max_connections: max_connections.map(|cap| cap as u64),
        };
        ServerState {
            drain: parking_lot::Mutex::new(machine.initial()),
            machine,
            cv: parking_lot::Condvar::new(),
        }
    }

    pub fn step(&self, event: DrainEvent) -> Vec<DrainEffect> {
        let mut drain = self.drain.lock();
        let effects = wsp_simnet::step_mut(&self.machine, &mut drain, &event);
        if drain.active == 0 {
            self.cv.notify_all();
        }
        effects
    }

    /// Hard stop observed: the reactor threads exit and every live
    /// connection is released, even mid-keep-alive.
    pub fn stopped(&self) -> bool {
        self.drain.lock().stopped()
    }

    /// Graceful drain observed (latched): new connections are
    /// rejected, idle keep-alive connections close, requests already
    /// being read or handled run to completion.
    pub fn drain_began(&self) -> bool {
        self.drain.lock().drain_began()
    }

    /// Live connections (accepted, not yet closed).
    pub fn active(&self) -> u64 {
        self.drain.lock().active
    }

    /// Sleep on the condvar until no connection is live or `deadline`
    /// passes. `true` when none is.
    pub fn wait_idle(&self, deadline: Instant) -> bool {
        let mut drain = self.drain.lock();
        loop {
            if drain.active == 0 {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.cv.wait_for(&mut drain, deadline - now);
        }
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
    fn wait_idle_returns_when_the_last_connection_closes() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let state = std::sync::Arc::new(ServerState::new(None));
        state.step(DrainEvent::Accept);
        state.step(DrainEvent::Accept);
        let idle = std::sync::Arc::new(AtomicBool::new(false));
        let waiter = {
            let (state, idle) = (state.clone(), idle.clone());
            std::thread::spawn(move || {
                let far = Instant::now() + std::time::Duration::from_secs(30);
                let drained = state.wait_idle(far);
                idle.store(true, Ordering::SeqCst);
                drained
            })
        };
        state.step(DrainEvent::ConnClosed);
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(!idle.load(Ordering::SeqCst), "one connection is still live");
        state.step(DrainEvent::ConnClosed);
        assert!(waiter.join().expect("the waiter returns"));
        assert!(idle.load(Ordering::SeqCst));
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
