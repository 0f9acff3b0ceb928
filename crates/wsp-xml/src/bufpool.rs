//! A freelist of reusable byte buffers for the wire path.
//!
//! Every envelope serialisation and every HTTP response used to allocate
//! (and immediately drop) a multi-kilobyte `Vec<u8>`/`String`. A
//! steady-state peer encodes the same-sized messages over and over, so
//! recycling those buffers turns transient allocation into a pointer
//! swap. The pool is deliberately simple: a mutex-guarded stack, a cap
//! on how many buffers it retains, and a high-water trim so one huge
//! document cannot pin memory forever.
//!
//! Buffers move *through* the pipeline by value: a handler takes a
//! buffer, serialises into it, hands it to the transport as a response
//! body, and the transport returns it here after the bytes hit the
//! socket. `String`s ride along via `String::into_bytes` /
//! `String::from_utf8`.

use std::sync::{Arc, Mutex, OnceLock};
use wsp_telemetry::Counter;

/// Most buffers the pool will retain; extra returns are dropped.
const MAX_POOLED: usize = 64;

/// Capacity above which a returned buffer is trimmed before pooling, so
/// one oversized document does not pin its worst-case footprint.
const HIGH_WATER: usize = 64 * 1024;

/// Starting capacity for buffers the pool has to create on a miss —
/// roomy enough for a typical SOAP envelope without a regrow.
const FRESH_CAPACITY: usize = 4 * 1024;

/// Counters describing pool behaviour since the pool was made.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `take` calls satisfied from the freelist.
    pub hits: u64,
    /// `take` calls that had to allocate a fresh buffer.
    pub misses: u64,
    /// Buffers accepted back by `put` (excludes drops past the cap).
    pub returns: u64,
    /// Total capacity, in bytes, handed out by hits — the allocation
    /// volume the pool saved.
    pub bytes_reused: u64,
}

/// Thread-safe freelist of `Vec<u8>` buffers. See the module docs for
/// the intended take/put lifecycle. The global pool counts into the
/// telemetry registry (`bufpool_*`); any other pool has counters of its
/// own.
#[derive(Default)]
pub struct BufPool {
    free: Mutex<Vec<Vec<u8>>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    returns: Arc<Counter>,
    bytes_reused: Arc<Counter>,
}

impl BufPool {
    /// Capacity of a buffer the pool creates on a miss. A caller
    /// deciding whether a buffer of its own is worth pooling compares
    /// against this: anything smaller would be handed out in place of
    /// a fresh buffer and regrown.
    pub const FRESH_CAPACITY: usize = FRESH_CAPACITY;

    pub fn new() -> BufPool {
        BufPool::default()
    }

    /// The process-wide pool used by the SOAP codec and both transports.
    pub fn global() -> &'static BufPool {
        static GLOBAL: OnceLock<BufPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let registry = wsp_telemetry::global();
            BufPool {
                free: Mutex::default(),
                hits: registry.counter("bufpool_hits"),
                misses: registry.counter("bufpool_misses"),
                returns: registry.counter("bufpool_returns"),
                bytes_reused: registry.counter("bufpool_bytes_reused"),
            }
        })
    }

    /// Take a cleared buffer, reusing a pooled one when available.
    pub fn take(&self) -> Vec<u8> {
        let reused = self.free.lock().expect("buffer pool poisoned").pop();
        match reused {
            Some(buf) => {
                debug_assert!(buf.is_empty());
                self.hits.incr();
                self.bytes_reused.add(buf.capacity() as u64);
                buf
            }
            None => {
                self.misses.incr();
                Vec::with_capacity(FRESH_CAPACITY)
            }
        }
    }

    /// Take a cleared `String` (a pooled buffer reinterpreted).
    pub fn take_string(&self) -> String {
        // The buffer is empty, so it is trivially valid UTF-8.
        String::from_utf8(self.take()).expect("empty buffer is valid UTF-8")
    }

    /// Return a buffer for reuse. Oversized buffers are trimmed to the
    /// high-water mark; past the retention cap the buffer is dropped.
    pub fn put(&self, mut buf: Vec<u8>) {
        buf.clear();
        if buf.capacity() > HIGH_WATER {
            buf.shrink_to(HIGH_WATER);
        }
        let mut free = self.free.lock().expect("buffer pool poisoned");
        if free.len() < MAX_POOLED {
            free.push(buf);
            self.returns.incr();
        }
    }

    /// Return a `String`'s backing buffer for reuse.
    pub fn put_string(&self, s: String) {
        self.put(s.into_bytes());
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            returns: self.returns.get(),
            bytes_reused: self.bytes_reused.get(),
        }
    }

    /// Number of buffers currently idle in the freelist.
    pub fn idle(&self) -> usize {
        self.free.lock().expect("buffer pool poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_take_reuses_capacity() {
        let pool = BufPool::new();
        let mut buf = pool.take();
        assert_eq!(pool.stats().misses, 1);
        buf.extend_from_slice(&[0u8; 1000]);
        let cap = buf.capacity();
        pool.put(buf);
        let again = pool.take();
        assert!(again.is_empty());
        assert_eq!(again.capacity(), cap);
        let stats = pool.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.returns, 1);
        assert_eq!(stats.bytes_reused, cap as u64);
    }

    #[test]
    fn oversized_buffers_trimmed_on_return() {
        let pool = BufPool::new();
        pool.put(Vec::with_capacity(HIGH_WATER * 4));
        let buf = pool.take();
        assert!(buf.capacity() <= HIGH_WATER * 2, "cap {}", buf.capacity());
    }

    #[test]
    fn retention_cap_drops_excess() {
        let pool = BufPool::new();
        for _ in 0..(MAX_POOLED + 10) {
            pool.put(Vec::with_capacity(16));
        }
        assert_eq!(pool.idle(), MAX_POOLED);
        assert_eq!(pool.stats().returns, MAX_POOLED as u64);
    }

    #[test]
    fn string_round_trip() {
        let pool = BufPool::new();
        let mut s = pool.take_string();
        s.push_str("hello");
        pool.put_string(s);
        let s2 = pool.take_string();
        assert!(s2.is_empty());
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn concurrent_take_put() {
        let pool = std::sync::Arc::new(BufPool::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let mut b = pool.take();
                        b.extend_from_slice(b"workload");
                        pool.put(b);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = pool.stats();
        assert_eq!(stats.hits + stats.misses, 8 * 200);
        assert!(stats.hits > 0);
    }
}
