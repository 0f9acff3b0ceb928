//! The one byte classifier under every per-byte scan of the wire codecs:
//! the tokenizer's text runs and attribute values, the expander's `&`
//! and `;`, both escapers, and the HTTP head scan.
//!
//! [`Needles::mask`] returns the exact bitmask of the positions of a
//! 16-byte block that hold one of up to four needle bytes. [`window`]
//! folds four blocks into one 64-bit mask, so that a walk over long
//! input branches once per 64 bytes; [`block`] classifies what is left
//! when less than a window remains, and [`Needles::find`] walks both
//! to the first hit. The body is chosen by the target alone:
//!
//! * **x86_64:** SSE2 — one unaligned load, a byte compare per needle,
//!   one `movemask`. SSE2 is in the x86_64 baseline, so every CPU of the
//!   target has it and nothing is detected at run time.
//! * **elsewhere:** [`Needles::mask_portable`], two `u64` words under
//!   the exact zero-byte test. The usual short form, `(x - 0x01…) & !x &
//!   0x80…`, borrows across bytes and may flag the byte above a match.
//!
//! Both masks are exact, so a caller may act on every flagged bit of a
//! block or a window — the escapers and the expander consume a whole
//! mask before loading the next — and not only on the lowest.

/// The width of a block, in bytes.
pub const BLOCK: usize = 16;

/// The width of a window, in bytes: four blocks, one bit each of a
/// `u64`.
pub const WINDOW: usize = 4 * BLOCK;

/// One to four bytes to look for. Unused slots repeat the first needle:
/// comparing with it again flags nothing new, and the compiler folds the
/// repeated compare away.
#[derive(Clone, Copy, Debug)]
pub struct Needles([u8; 4]);

const LOW_BITS: u64 = 0x0101_0101_0101_0101;
const LOW_SEVEN: u64 = 0x7f7f_7f7f_7f7f_7f7f;
const HIGH_BITS: u64 = 0x8080_8080_8080_8080;

/// `0x80` in every byte of `word` that is zero and nothing anywhere
/// else: adding `0x7f` to a byte's low seven bits sets its high bit
/// exactly when they are not all zero, and never carries out of it.
#[inline(always)]
fn zero_bytes(word: u64) -> u64 {
    !(((word & LOW_SEVEN) + LOW_SEVEN) | word) & HIGH_BITS
}

/// The high bit of byte `k` of `flags` (little-endian) as bit `k` of
/// the result. Each set bit, shifted to the bottom of its byte, meets
/// exactly one byte of the multiplier that lands it in the top byte;
/// every other product lands in a distinct lower bit, so nothing
/// carries.
#[inline(always)]
fn gather(flags: u64) -> u16 {
    ((flags >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56) as u16
}

impl Needles {
    /// The needle set of `bytes`. Panics unless there are one to four;
    /// in a `const` that is a compile error.
    pub const fn new(bytes: &[u8]) -> Needles {
        assert!(matches!(bytes.len(), 1..=4), "one to four needle bytes");
        let mut set = [bytes[0]; 4];
        let mut i = 1;
        while i < bytes.len() {
            set[i] = bytes[i];
            i += 1;
        }
        Needles(set)
    }

    /// The positions of `block` that hold a needle: bit `i` is set if
    /// and only if `block[i]` is one of them.
    #[inline(always)]
    pub fn mask(self, block: &[u8; BLOCK]) -> u16 {
        #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
        {
            use std::arch::x86_64::{
                __m128i, _mm_cmpeq_epi8, _mm_loadu_si128, _mm_movemask_epi8, _mm_or_si128,
                _mm_set1_epi8,
            };
            // SAFETY: `block` is sixteen readable bytes, exactly the
            // width of the load, and `loadu` has no alignment
            // requirement. The intrinsics need SSE2, which this body is
            // only compiled with (the `cfg` above; it is in the x86_64
            // baseline).
            unsafe {
                let bytes = _mm_loadu_si128(block.as_ptr().cast::<__m128i>());
                let hits = self
                    .0
                    .map(|needle| _mm_cmpeq_epi8(bytes, _mm_set1_epi8(needle as i8)));
                let hits = _mm_or_si128(
                    _mm_or_si128(hits[0], hits[1]),
                    _mm_or_si128(hits[2], hits[3]),
                );
                _mm_movemask_epi8(hits) as u16
            }
        }
        #[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
        {
            self.mask_portable(block)
        }
    }

    /// [`Needles::mask`]'s body on every target but x86_64; public so
    /// that tests hold it to the same reference there too.
    #[inline(always)]
    pub fn mask_portable(self, block: &[u8; BLOCK]) -> u16 {
        let flags = |word: &[u8]| {
            let word = u64::from_le_bytes(word.try_into().expect("half a block"));
            (self.0.iter()).fold(0, |hits, &needle| {
                hits | zero_bytes(word ^ (u64::from(needle) * LOW_BITS))
            })
        };
        gather(flags(&block[..8])) | gather(flags(&block[8..])) << 8
    }

    /// The position of the first needle in `hay` at or after `from`.
    #[inline(always)]
    pub fn find(self, hay: &[u8], from: usize) -> Option<usize> {
        let mut at = from;
        while let Some(bytes) = hay.get(at..at + WINDOW) {
            let hits = window(bytes, 0, |b| self.mask(b));
            if hits != 0 {
                return Some(at + hits.trailing_zeros() as usize);
            }
            at += WINDOW;
        }
        while at < hay.len() {
            let (base, hits) = block(hay, at, |b| self.mask(b));
            if hits != 0 {
                return Some(base + hits.trailing_zeros() as usize);
            }
            at = base + BLOCK;
        }
        None
    }
}

/// The window of `hay` that starts at `at`, classified: bit `i` of the
/// result stands for `hay[at + i]` and is set if `classify` flags it.
/// Panics unless a whole window remains: `at + WINDOW <= hay.len()`.
#[inline(always)]
pub fn window(hay: &[u8], at: usize, classify: impl Fn(&[u8; BLOCK]) -> u16) -> u64 {
    let bytes: &[u8; WINDOW] = hay[at..at + WINDOW].try_into().expect("a window");
    bytes.chunks_exact(BLOCK).rev().fold(0, |hits, bytes| {
        hits << BLOCK | u64::from(classify(bytes.try_into().expect("a block")))
    })
}

/// The block of `hay` that starts at `at`, classified: `(base, mask)`,
/// where bit `i` of `mask` stands for `hay[base + i]` and is set for the
/// positions `at..min(at + BLOCK, hay.len())` that `classify` flags and
/// for no other. While sixteen bytes remain the block is read at `at`;
/// the last one is read back from the end of `hay`, bits before `at`
/// dropped; a haystack shorter than a block is padded, bits past its
/// end dropped. `at` must not exceed `hay.len()`.
#[inline(always)]
pub fn block(hay: &[u8], at: usize, classify: impl Fn(&[u8; BLOCK]) -> u16) -> (usize, u16) {
    if let Some(bytes) = hay.get(at..at + BLOCK) {
        return (at, classify(bytes.try_into().expect("a block")));
    }
    match hay.len().checked_sub(BLOCK) {
        Some(base) => {
            let hits = classify(hay[base..].try_into().expect("the last block"));
            let from_at = u16::MAX.checked_shl((at - base) as u32).unwrap_or(0);
            (base, hits & from_at)
        }
        None => {
            let tail = &hay[at..];
            (at, classify(&padded(tail)) & !(u16::MAX << tail.len()))
        }
    }
}

/// `tail`, shorter than a block, at the start of a zeroed one, built in
/// registers from two reads of one fixed width, from either end, that
/// overlap in the middle: a copy of variable length is a library call,
/// and a block stored in pieces and then loaded whole stalls the load.
#[inline(always)]
fn padded(tail: &[u8]) -> [u8; BLOCK] {
    fn ends<const WIDTH: usize>(tail: &[u8]) -> u128 {
        let word = |bytes: &[u8]| {
            let mut word = [0; BLOCK];
            word[..WIDTH].copy_from_slice(&bytes[..WIDTH]);
            u128::from_le_bytes(word)
        };
        let last = tail.len() - WIDTH;
        word(tail) | word(&tail[last..]) << (8 * last)
    }
    let bits = match tail.len() {
        8.. => ends::<8>(tail),
        4..=7 => ends::<4>(tail),
        2..=3 => ends::<2>(tail),
        1 => ends::<1>(tail),
        _ => 0,
    };
    bits.to_le_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_are_exact_on_both_bodies() {
        let needles = Needles::new(b"<&");
        let block: &[u8; BLOCK] = b"a<b&&c\x00\xbc<<&xyz<!";
        let expected = 0b0100_0111_0001_1010;
        assert_eq!(needles.mask(block), expected);
        assert_eq!(needles.mask_portable(block), expected);
    }

    #[test]
    fn zero_bytes_does_not_borrow_into_the_byte_above() {
        // 0x0100: the borrowing form flags the 0x01 byte above the zero.
        assert_eq!(zero_bytes(0x0100), 0x8080_8080_8080_0080);
    }

    #[test]
    fn find_reads_the_last_block_back_and_pads_short_haystacks() {
        let lt = Needles::new(b"<");
        let hay = b"0123456789abcdefghij<";
        assert_eq!(lt.find(hay, 0), Some(20));
        assert_eq!(lt.find(hay, 20), Some(20));
        assert_eq!(lt.find(hay, 21), None);
        assert_eq!(lt.find(b"ab<", 0), Some(2));
        assert_eq!(lt.find(b"ab<", 3), None);
        assert_eq!(lt.find(b"", 0), None);
    }
}
