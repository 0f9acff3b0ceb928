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

use std::collections::{vec_deque, HashMap, VecDeque};
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

/// Most records a [`LeaseTable`]'s trace keeps: the newest, the older
/// ones dropped and counted, so a long-lived group's trace does not
/// grow with every publish it ever leased. A seeded run of E16's full
/// grid records at most 416 per group.
pub const LEASE_TRACE_CAPACITY: usize = 1024;

/// The wheel-driven lease sweep for one replication group.
#[derive(Default)]
pub struct LeaseTable {
    wheel: EventWheel<String>,
    armed: HashMap<String, EventKey>,
    trace: VecDeque<LeaseTrace>,
    dropped: u64,
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
                self.record(at, &key, LeaseAction::Expired);
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
        self.record(self.wheel.now(), key, action);
        action
    }

    /// Drop the lease on `key` (explicit unregister). No-op if absent.
    pub fn cancel(&mut self, key: &str) {
        if let Some(prior) = self.armed.remove(key) {
            self.wheel.cancel(prior);
            self.record(self.wheel.now(), key, LeaseAction::Cancelled);
        }
    }

    pub fn is_active(&self, key: &str) -> bool {
        self.armed.contains_key(key)
    }

    /// The newest [`LEASE_TRACE_CAPACITY`] records of the deterministic
    /// trace, oldest first.
    pub fn trace(&self) -> vec_deque::Iter<'_, LeaseTrace> {
        self.trace.iter()
    }

    /// How many older records fell off the trace.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn record(&mut self, at: Time, key: &str, action: LeaseAction) {
        if self.trace.len() == LEASE_TRACE_CAPACITY {
            self.trace.pop_front();
            self.dropped += 1;
        }
        let key = key.to_owned();
        self.trace.push_back(LeaseTrace { at, key, action });
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

    fn step_into(&self, next: &mut LeaseState, event: &LeaseEvent, out: &mut Vec<LeaseEffect>) {
        match event {
            LeaseEvent::Tick => {
                next.clock += 1;
                if next.status == LeaseStatus::Active && next.clock >= next.expires_at {
                    next.status = LeaseStatus::Expired;
                    out.push(LeaseEffect::Expired {
                        generation: next.generation,
                    });
                }
            }
            LeaseEvent::Grant => {
                next.generation += 1;
                next.status = LeaseStatus::Active;
                next.expires_at = next.clock + self.ttl;
                out.push(LeaseEffect::Granted {
                    generation: next.generation,
                });
            }
            LeaseEvent::Refresh { generation } => {
                if next.status == LeaseStatus::Active && *generation == next.generation {
                    next.expires_at = next.clock + self.ttl;
                    out.push(LeaseEffect::Renewed {
                        generation: next.generation,
                    });
                } else {
                    // Stale generation, or the lease already expired:
                    // a refresh never resurrects it.
                    out.push(LeaseEffect::RefreshRejected);
                }
            }
            LeaseEvent::Cancel => {
                if next.status == LeaseStatus::Active {
                    next.status = LeaseStatus::Idle;
                    out.push(LeaseEffect::Cancelled);
                }
            }
        }
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
    fn the_trace_keeps_the_newest_records() {
        let mut leases = LeaseTable::new();
        let n = LEASE_TRACE_CAPACITY;
        for i in 0..3 * n {
            leases.grant(&format!("svc-{i}"), Dur::millis(100));
        }
        assert_eq!(leases.trace().len(), n);
        assert_eq!(leases.dropped(), 2 * n as u64);
        let keys: Vec<&str> = leases.trace().map(|t| t.key.as_str()).collect();
        let newest: Vec<String> = (2 * n..3 * n).map(|i| format!("svc-{i}")).collect();
        assert_eq!(keys, newest);
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
            leases.trace().cloned().collect::<Vec<_>>()
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
