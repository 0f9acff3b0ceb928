//! Soft-state leases over the discrete-event wheel.
//!
//! Every replicated publish carries a TTL stamped by the shard primary
//! at grant time. [`LeaseTable`] is the runtime sweep: one
//! [`EventWheel`] of expiry events per replication group, driven
//! exclusively by *logical* ticks (`advance_to`), never wall-clock, so
//! that seeded runs shed the same leases at the same virtual instants
//! and stay digest-pinned. Refreshes cancel the outstanding expiry
//! exactly (the wheel's keys never misfire) and re-arm.
//!
//! [`LeaseMachine`] is the pure transition function `wsp-check`
//! explores: it carries a generation counter so the invariant "an
//! expired lease is never resurrected by a stale refresh" is checkable
//! on every reachable edge.

use std::collections::HashMap;
use wsp_simnet::{Dur, EventKey, EventWheel, Machine, Time};

/// What happened to a lease, as recorded in the deterministic trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseAction {
    Granted,
    Renewed,
    Expired,
    Cancelled,
}

/// One line of the lease trace: `(virtual time, key, action)`. Two runs
/// under the same seed must produce identical traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseTrace {
    pub at: Time,
    pub key: String,
    pub action: LeaseAction,
}

/// The wheel-driven lease sweep for one replication group.
#[derive(Default)]
pub struct LeaseTable {
    wheel: EventWheel<String>,
    armed: HashMap<String, EventKey>,
    trace: Vec<LeaseTrace>,
}

impl LeaseTable {
    pub fn new() -> LeaseTable {
        LeaseTable::default()
    }

    pub fn now(&self) -> Time {
        self.wheel.now()
    }

    /// Advance the logical clock to `now`, returning every key whose
    /// lease expired on the way (in deterministic wheel order).
    pub fn advance_to(&mut self, now: Time) -> Vec<String> {
        let mut expired = Vec::new();
        while self.wheel.next_time().is_some_and(|t| t <= now) {
            let (at, key) = self.wheel.pop().expect("next_time said so");
            // Only still-armed keys count: a cancelled entry never pops
            // (exact cancellation), so anything popped is live.
            if self.armed.remove(&key).is_some() {
                self.trace.push(LeaseTrace {
                    at,
                    key: key.clone(),
                    action: LeaseAction::Expired,
                });
                expired.push(key);
            }
        }
        self.wheel.advance_to(now);
        expired
    }

    /// Grant or refresh the lease on `key` for `ttl` from the current
    /// wheel time. Returns [`LeaseAction::Renewed`] when an outstanding
    /// lease was extended, [`LeaseAction::Granted`] for a fresh one.
    pub fn grant(&mut self, key: &str, ttl: Dur) -> LeaseAction {
        let action = match self.armed.remove(key) {
            Some(prior) => {
                self.wheel.cancel(prior);
                LeaseAction::Renewed
            }
            None => LeaseAction::Granted,
        };
        let armed = self.wheel.schedule_after(ttl, key.to_owned());
        self.armed.insert(key.to_owned(), armed);
        self.trace.push(LeaseTrace {
            at: self.wheel.now(),
            key: key.to_owned(),
            action,
        });
        action
    }

    /// Drop the lease on `key` (explicit unregister). No-op if absent.
    pub fn cancel(&mut self, key: &str) {
        if let Some(prior) = self.armed.remove(key) {
            self.wheel.cancel(prior);
            self.trace.push(LeaseTrace {
                at: self.wheel.now(),
                key: key.to_owned(),
                action: LeaseAction::Cancelled,
            });
        }
    }

    pub fn is_active(&self, key: &str) -> bool {
        self.armed.contains_key(key)
    }

    /// The full deterministic trace so far.
    pub fn trace(&self) -> &[LeaseTrace] {
        &self.trace
    }
}

// ---------------------------------------------------------------------------
// The pure machine wsp-check explores
// ---------------------------------------------------------------------------

/// Lifecycle of one checked lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LeaseStatus {
    Idle,
    Active,
    Expired,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LeaseState {
    pub status: LeaseStatus,
    /// Bumped on every grant; refreshes must quote it.
    pub generation: u8,
    pub clock: u64,
    pub expires_at: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseEvent {
    Tick,
    Grant,
    /// A provider refresh quoting the generation it believes it holds.
    Refresh {
        generation: u8,
    },
    Cancel,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseEffect {
    Granted {
        generation: u8,
    },
    Renewed {
        generation: u8,
    },
    Expired {
        generation: u8,
    },
    Cancelled,
    /// A refresh that quoted a stale generation or arrived after
    /// expiry: rejected, never re-arms.
    RefreshRejected,
}

/// Pure lease lifecycle with logical ticks.
#[derive(Debug, Clone, Copy)]
pub struct LeaseMachine {
    pub ttl: u64,
}

impl Machine for LeaseMachine {
    type State = LeaseState;
    type Event = LeaseEvent;
    type Effect = LeaseEffect;

    fn initial(&self) -> LeaseState {
        LeaseState {
            status: LeaseStatus::Idle,
            generation: 0,
            clock: 0,
            expires_at: 0,
        }
    }

    fn step(&self, state: &LeaseState, event: &LeaseEvent) -> (LeaseState, Vec<LeaseEffect>) {
        let mut next = *state;
        let effects = match event {
            LeaseEvent::Tick => {
                next.clock += 1;
                if next.status == LeaseStatus::Active && next.clock >= next.expires_at {
                    next.status = LeaseStatus::Expired;
                    vec![LeaseEffect::Expired {
                        generation: next.generation,
                    }]
                } else {
                    vec![]
                }
            }
            LeaseEvent::Grant => {
                next.generation += 1;
                next.status = LeaseStatus::Active;
                next.expires_at = next.clock + self.ttl;
                vec![LeaseEffect::Granted {
                    generation: next.generation,
                }]
            }
            LeaseEvent::Refresh { generation } => {
                if next.status == LeaseStatus::Active && *generation == next.generation {
                    next.expires_at = next.clock + self.ttl;
                    vec![LeaseEffect::Renewed {
                        generation: next.generation,
                    }]
                } else {
                    // Stale generation, or the lease already expired:
                    // a refresh never resurrects it.
                    vec![LeaseEffect::RefreshRejected]
                }
            }
            LeaseEvent::Cancel => {
                if next.status == LeaseStatus::Active {
                    next.status = LeaseStatus::Idle;
                    vec![LeaseEffect::Cancelled]
                } else {
                    vec![]
                }
            }
        };
        (next, effects)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_refresh_expire_cycle() {
        let mut leases = LeaseTable::new();
        assert_eq!(
            leases.grant("svc-a", Dur::millis(100)),
            LeaseAction::Granted
        );
        assert!(leases.advance_to(Time::millis(60)).is_empty());
        assert_eq!(
            leases.grant("svc-a", Dur::millis(100)),
            LeaseAction::Renewed
        );
        // The old expiry at t=100 was cancelled exactly; the new one is
        // at t=160.
        assert!(leases.advance_to(Time::millis(120)).is_empty());
        assert_eq!(leases.advance_to(Time::millis(200)), vec!["svc-a"]);
        assert!(!leases.is_active("svc-a"));
    }

    #[test]
    fn expiry_order_is_deterministic() {
        let run = || {
            let mut leases = LeaseTable::new();
            leases.grant("a", Dur::millis(50));
            leases.grant("b", Dur::millis(50));
            leases.grant("c", Dur::millis(10));
            leases.advance_to(Time::millis(30));
            leases.grant("b", Dur::millis(50));
            leases.advance_to(Time::millis(500));
            leases.trace().to_vec()
        };
        let first = run();
        assert_eq!(first, run(), "same schedule, same trace");
        let expiries: Vec<&str> = first
            .iter()
            .filter(|t| t.action == LeaseAction::Expired)
            .map(|t| t.key.as_str())
            .collect();
        assert_eq!(expiries, vec!["c", "a", "b"]);
    }

    #[test]
    fn cancel_prevents_expiry() {
        let mut leases = LeaseTable::new();
        leases.grant("gone", Dur::millis(10));
        leases.cancel("gone");
        assert!(leases.advance_to(Time::millis(100)).is_empty());
    }

    #[test]
    fn machine_refresh_after_expiry_is_rejected() {
        let m = LeaseMachine { ttl: 2 };
        let s0 = m.initial();
        let (s1, _) = m.step(&s0, &LeaseEvent::Grant);
        let (s2, _) = m.step(&s1, &LeaseEvent::Tick);
        let (s3, fx) = m.step(&s2, &LeaseEvent::Tick);
        assert_eq!(fx, vec![LeaseEffect::Expired { generation: 1 }]);
        let (s4, fx) = m.step(&s3, &LeaseEvent::Refresh { generation: 1 });
        assert_eq!(fx, vec![LeaseEffect::RefreshRejected]);
        assert_eq!(s4.status, LeaseStatus::Expired);
    }
}
