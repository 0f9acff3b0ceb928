//! The one clock every layer reads, measured from one process origin.
//! A thread reads the wall clock unless it has entered a
//! [`VirtualClock`], which moves only when advanced; dispatcher jobs
//! carry their submitter's, as they carry its correlation and deadline.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

thread_local! {
    static ENTERED: RefCell<Option<VirtualClock>> = const { RefCell::new(None) };
}

/// A day before the first reading, so that an `Instant` taken earlier
/// still falls after it.
pub fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let day = Duration::from_secs(86_400);
    *ORIGIN.get_or_init(|| Instant::now().checked_sub(day).unwrap_or_else(Instant::now))
}

/// This thread's time: the wall clock's, or the entered clock's.
pub fn now() -> Instant {
    ENTERED.with_borrow(|clock| clock.as_ref().map_or_else(Instant::now, VirtualClock::now))
}

/// [`now`] in µs since the [`origin`]: the logical time of every
/// shell's machine, wheel and trace.
pub fn micros() -> u64 {
    now().saturating_duration_since(origin()).as_micros() as u64
}

/// Let `wait` pass: a wall-clock sleep, or an advance of the entered clock.
pub fn sleep(wait: Duration) {
    match current() {
        Some(clock) => clock.advance(wait),
        None => std::thread::sleep(wait),
    }
}

/// The clock this thread entered, to carry to another thread.
pub fn current() -> Option<VirtualClock> {
    ENTERED.with_borrow(Clone::clone)
}

/// A clock that moves only when advanced, shared by the threads that
/// enter it. It starts at the wall clock's reading.
#[derive(Clone, Debug)]
pub struct VirtualClock(Arc<AtomicU64>);

impl Default for VirtualClock {
    fn default() -> Self {
        let at = Instant::now().saturating_duration_since(origin());
        VirtualClock(Arc::new(AtomicU64::new(at.as_nanos() as u64)))
    }
}

impl VirtualClock {
    pub fn now(&self) -> Instant {
        origin() + Duration::from_nanos(self.0.load(SeqCst))
    }

    /// Move forward by `by`, saturating.
    pub fn advance(&self, by: Duration) {
        let by = u64::try_from(by.as_nanos()).unwrap_or(u64::MAX);
        let _ = (self.0).fetch_update(SeqCst, SeqCst, |at| Some(at.saturating_add(by)));
    }

    pub fn enter(&self) -> ClockScope {
        ClockScope::enter(Some(self.clone()))
    }
}

/// The current thread's clock (`None`: the wall clock) until the scope
/// drops and restores the one before, so scopes nest.
pub struct ClockScope(Option<VirtualClock>);

impl ClockScope {
    pub fn enter(clock: Option<VirtualClock>) -> ClockScope {
        ClockScope(ENTERED.replace(clock))
    }
}

impl Drop for ClockScope {
    fn drop(&mut self) {
        ENTERED.set(self.0.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_virtual_clock_moves_only_when_advanced_and_scopes_nest() {
        let clock = VirtualClock::default();
        let at = clock.now();
        let wall = now();
        {
            let _scope = clock.enter();
            assert_eq!(now(), at);
            sleep(Duration::from_secs(3600));
            assert_eq!(now(), at + Duration::from_secs(3600));
            assert_eq!(micros(), (now() - origin()).as_micros() as u64);
            let _wall = ClockScope::enter(None);
            assert!(now() < at + Duration::from_secs(60));
        }
        assert!(current().is_none());
        assert!(now() >= wall);
        clock.advance(Duration::MAX);
        assert!(clock.now() > at + Duration::from_secs(86_400 * 365 * 500));
    }

    #[test]
    fn an_instant_from_before_the_first_reading_maps_forward() {
        let early = Instant::now();
        let later = early + Duration::from_millis(5);
        let gap = (later - origin()) - (early - origin());
        assert_eq!(gap, Duration::from_millis(5));
    }
}
