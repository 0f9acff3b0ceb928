//! Streaming event-trace digests: bit-identical run fingerprints at
//! population scale.
//!
//! The [`crate::Trace`] ring is the right tool for *debugging* a run of
//! hundreds of peers; at 10^5–10^6 peers a run dispatches tens of
//! millions of events and storing them is off the table. A
//! [`TraceDigest`] instead folds every dispatched event into a rolling
//! 64-bit FNV-1a hash as it happens — O(1) memory, a few ns per event —
//! so two runs can be compared for **bit-identical behaviour** by
//! comparing two `u64`s. The seed-sweep test tier
//! (`tests/tests/sim_scale.rs`) asserts exactly that: same
//! `WSP_FAULT_SEED`, same digest; the digest covers event kind, virtual
//! timestamp, the peers involved and the message payload hash, so any
//! divergence in ordering, timing, routing or content changes it.
//!
//! The hash function is fixed (FNV-1a 64, little-endian word folding)
//! rather than `std::hash::DefaultHasher` precisely so digests are
//! stable across processes, runs and toolchain versions — they are part
//! of the determinism contract, not an implementation detail.
//!
//! The byte-level hash is exported too ([`fnv1a`], [`fnv1a_fold`]): this
//! crate is the bottom of the dependency graph, so shard placement,
//! gateway cache keys and HTTPG tokens use this one copy.

use std::fmt;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into a running FNV-1a 64 state (start from [`fnv1a`] of
/// the first chunk to hash a message that arrives in pieces).
#[inline]
pub fn fnv1a_fold(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// 64-bit FNV-1a of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_OFFSET, bytes)
}

/// A rolling FNV-1a 64 fingerprint of an event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceDigest {
    hash: u64,
    folded: u64,
}

impl Default for TraceDigest {
    fn default() -> Self {
        TraceDigest::new()
    }
}

impl TraceDigest {
    pub fn new() -> Self {
        TraceDigest {
            hash: FNV_OFFSET,
            folded: 0,
        }
    }

    /// Fold one 64-bit word into the digest.
    #[inline]
    pub fn fold(&mut self, word: u64) {
        self.hash = fnv1a_fold(self.hash, &word.to_le_bytes());
        self.folded += 1;
    }

    /// Fold several words (one logical record).
    #[inline]
    pub fn fold_all(&mut self, words: &[u64]) {
        for &w in words {
            self.fold(w);
        }
    }

    /// The current fingerprint.
    pub fn value(&self) -> u64 {
        self.hash
    }

    /// Number of words folded so far (a cheap cross-check that two runs
    /// saw the same *amount* of history, not just a colliding hash).
    pub fn folded(&self) -> u64 {
        self.folded
    }

    /// The fingerprint as a fixed-width hex string (for artifacts).
    pub fn hex(&self) -> String {
        format!("{:016x}", self.hash)
    }
}

impl fmt::Display for TraceDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}/{}", self.hash, self.folded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_digest_is_the_fnv_offset() {
        let d = TraceDigest::new();
        assert_eq!(d.value(), FNV_OFFSET);
        assert_eq!(d.folded(), 0);
    }

    #[test]
    fn same_stream_same_digest() {
        let mut a = TraceDigest::new();
        let mut b = TraceDigest::new();
        for w in [1u64, 99, u64::MAX, 0, 42] {
            a.fold(w);
            b.fold(w);
        }
        assert_eq!(a, b);
        assert_eq!(a.folded(), 5);
    }

    #[test]
    fn order_matters() {
        let mut a = TraceDigest::new();
        a.fold_all(&[1, 2]);
        let mut b = TraceDigest::new();
        b.fold_all(&[2, 1]);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn hex_is_fixed_width() {
        let mut d = TraceDigest::new();
        d.fold(7);
        assert_eq!(d.hex().len(), 16);
        assert_eq!(d.hex(), format!("{:016x}", d.value()));
    }

    #[test]
    fn byte_hash_matches_the_published_vectors_and_the_word_fold() {
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_fold(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
        let mut d = TraceDigest::new();
        d.fold(0x0102_0304_0506_0708);
        assert_eq!(d.value(), fnv1a(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }

    #[test]
    fn placement_and_cache_key_hashes_are_the_ones_recorded_before_the_merge() {
        // What `wsp_registry::shard::fnv1a` and `wsp_gateway::fnv1a`
        // returned at faefe77, when each crate had its own copy: a shard
        // token, a service name (`shard_of`), a response-cache body.
        assert_eq!(fnv1a(b"shard/0"), 0x8add_9f73_fa5e_f094);
        assert_eq!(fnv1a(b"EchoService"), 0xd26b_1e89_b29a_4c17);
        assert_eq!(
            fnv1a(b"<soap:Body><echo>hi</echo></soap:Body>"),
            0x400b_60ee_8088_5cf2
        );
    }

    #[test]
    fn known_vector() {
        // FNV-1a of eight zero bytes — pins the algorithm so a refactor
        // cannot silently change every recorded digest.
        let mut d = TraceDigest::new();
        d.fold(0);
        assert_eq!(d.value(), 0xa8c7_f832_281a_39c5);
    }
}
