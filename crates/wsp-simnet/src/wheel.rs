//! The discrete-event wheel: the one ordered queue every part of the
//! simulator schedules through.
//!
//! One [`crate::PeerSim`] owns one wheel, and with it the only event
//! loop in the crate: boxed nodes ([`crate::SimNet`]) and
//! population-scale models alike schedule message deliveries, timers,
//! churn transitions and link changes here.
//!
//! Determinism contract:
//!
//! * every scheduled event carries a `(time, seq)` pair, where `seq` is
//!   a monotonically increasing schedule counter, and events pop in
//!   `(time, seq)` order — **simultaneous events fire in schedule
//!   order**, which is what makes a run a pure function of
//!   `(seed, topology, behaviours)`;
//! * wheel time is monotone: [`EventWheel::pop`] and
//!   [`EventWheel::advance_to`] only ever move `now` forward;
//! * scheduling "in the past" (an `at` below `now`) clamps to `now`
//!   rather than rewinding — the event fires next, after anything
//!   already due at `now` that was scheduled earlier;
//! * cancellation is exact: a cancelled key never fires, and a key
//!   never suppresses any event other than the one it was issued for
//!   (keys are unique `seq` values, so there is no ABA reuse).
//!
//! The wheel knows nothing about nodes, links or randomness — loss and
//! latency are sampled by the caller *before* scheduling, so the wheel
//! itself stays a pure priority structure that is trivial to
//! property-test (see `tests/prop_wheel.rs`).

use crate::time::{Dur, Time};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Names one scheduled event, for cancellation. Keys are unique per
/// wheel (the schedule sequence number) and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventKey(pub(crate) u64);

struct Entry<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first,
        // ties broken by schedule order.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A deterministic discrete-event queue with a virtual clock.
pub struct EventWheel<E> {
    now: Time,
    seq: u64,
    heap: BinaryHeap<Entry<E>>,
    cancelled: HashSet<u64>,
    fired: u64,
}

impl<E> Default for EventWheel<E> {
    fn default() -> Self {
        EventWheel::new()
    }
}

impl<E> EventWheel<E> {
    pub fn new() -> Self {
        EventWheel {
            now: Time::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            cancelled: HashSet::new(),
            fired: 0,
        }
    }

    /// Current virtual time: the timestamp of the last popped event (or
    /// the last explicit advance), never earlier.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total events ever scheduled.
    pub fn scheduled(&self) -> u64 {
        self.seq
    }

    /// Total events popped (cancelled events are skipped, not counted).
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Entries still in the heap, including not-yet-purged cancellations.
    /// (`is_empty` needs `&mut self` to purge those, hence the allow.)
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing live remains (purges cancelled entries).
    pub fn is_empty(&mut self) -> bool {
        self.next_time().is_none()
    }

    /// Move the clock forward without firing anything (run-until-deadline
    /// semantics). Moving backwards is a no-op: time is monotone. The
    /// advance also never crosses a still-pending event — the clock
    /// stops at the next live timestamp, so an event can never be popped
    /// "in the past" (found by `tests/prop_wheel.rs`).
    pub fn advance_to(&mut self, t: Time) {
        let t = match self.next_time() {
            Some(next) => t.min(next),
            None => t,
        };
        self.now = self.now.max(t);
    }

    /// Schedule `event` at absolute time `at` (clamped to `now` if in
    /// the past). Returns a key usable with [`EventWheel::cancel`].
    pub fn schedule_at(&mut self, at: Time, event: E) -> EventKey {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            at: at.max(self.now),
            seq,
            event,
        });
        EventKey(seq)
    }

    /// Schedule `event` after `delay` of virtual time.
    pub fn schedule_after(&mut self, delay: Dur, event: E) -> EventKey {
        self.schedule_at(self.now + delay, event)
    }

    /// Cancel a scheduled event. A cancelled key never fires; cancelling
    /// a key that has already fired is a no-op.
    pub fn cancel(&mut self, key: EventKey) {
        if key.0 < self.seq {
            self.cancelled.insert(key.0);
        }
    }

    /// The time of the next live event, purging cancelled heap tops.
    pub fn next_time(&mut self) -> Option<Time> {
        while let Some(top) = self.heap.peek() {
            if self.cancelled.remove(&top.seq) {
                self.heap.pop();
            } else {
                return Some(top.at);
            }
        }
        None
    }

    /// Pop the next live event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        while let Some(entry) = self.heap.pop() {
            if self.cancelled.remove(&entry.seq) {
                continue;
            }
            debug_assert!(entry.at >= self.now, "wheel time went backwards");
            self.now = self.now.max(entry.at);
            self.fired += 1;
            return Some((entry.at, entry.event));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_insertion_order() {
        let mut w: EventWheel<u32> = EventWheel::new();
        w.schedule_at(Time::millis(5), 1);
        w.schedule_at(Time::millis(1), 2);
        w.schedule_at(Time::millis(5), 3);
        w.schedule_at(Time::millis(1), 4);
        let order: Vec<u32> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![2, 4, 1, 3]);
        assert_eq!(w.now(), Time::millis(5));
    }

    #[test]
    fn cancel_suppresses_exactly_one_event() {
        let mut w: EventWheel<&str> = EventWheel::new();
        let _a = w.schedule_at(Time::millis(1), "a");
        let b = w.schedule_at(Time::millis(1), "b");
        let _c = w.schedule_at(Time::millis(2), "c");
        w.cancel(b);
        let got: Vec<&str> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(got, vec!["a", "c"]);
        assert_eq!(w.fired(), 2);
        assert_eq!(w.scheduled(), 3);
    }

    #[test]
    fn cancel_after_fire_is_a_noop() {
        let mut w: EventWheel<u8> = EventWheel::new();
        let a = w.schedule_at(Time::millis(1), 1);
        assert!(w.pop().is_some());
        w.cancel(a);
        let b = w.schedule_at(Time::millis(2), 2);
        assert_eq!(w.pop(), Some((Time::millis(2), 2)));
        w.cancel(b); // also fired; must not poison future keys
        w.schedule_at(Time::millis(3), 3);
        assert_eq!(w.pop(), Some((Time::millis(3), 3)));
    }

    #[test]
    fn past_schedules_clamp_to_now() {
        let mut w: EventWheel<u8> = EventWheel::new();
        w.schedule_at(Time::millis(10), 1);
        assert!(w.pop().is_some());
        w.schedule_at(Time::millis(3), 2); // in the past
        let (at, e) = w.pop().unwrap();
        assert_eq!((at, e), (Time::millis(10), 2));
        assert_eq!(w.now(), Time::millis(10));
    }

    #[test]
    fn advance_is_monotone() {
        let mut w: EventWheel<u8> = EventWheel::new();
        w.advance_to(Time::millis(7));
        w.advance_to(Time::millis(3));
        assert_eq!(w.now(), Time::millis(7));
        assert!(w.is_empty());
    }

    #[test]
    fn next_time_purges_cancelled_tops() {
        let mut w: EventWheel<u8> = EventWheel::new();
        let a = w.schedule_at(Time::millis(1), 1);
        let b = w.schedule_at(Time::millis(2), 2);
        w.schedule_at(Time::millis(3), 3);
        w.cancel(a);
        w.cancel(b);
        assert_eq!(w.next_time(), Some(Time::millis(3)));
        assert_eq!(w.len(), 1);
    }
}
