//! Peer identity: the logical id that P2PS uses instead of physical
//! addresses.

use rand::Rng;
use std::fmt;

/// A peer's logical identifier.
///
/// "Peers are identified by a logical id, not physical address"
/// (Section IV.B). Resolving a `PeerId` to something routable is the
/// driver's: the simulation's `Directory`, the threaded network's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerId(pub u64);

impl PeerId {
    /// Mint a random id.
    pub fn random<R: Rng>(rng: &mut R) -> PeerId {
        PeerId(rng.random())
    }

    /// The canonical textual form: 16 lowercase hex digits (the "host"
    /// component of `p2ps://` URIs).
    pub fn to_hex(self) -> String {
        self.hex_into(&mut [0; 16]).to_owned()
    }

    /// [`PeerId::to_hex`] into a caller-supplied buffer, for encoders
    /// that write it straight to the wire.
    pub fn hex_into(self, buf: &mut [u8; 16]) -> &str {
        for (i, digit) in buf.iter_mut().enumerate() {
            let nibble = (self.0 >> (60 - 4 * i)) & 0xf;
            *digit = b"0123456789abcdef"[nibble as usize];
        }
        std::str::from_utf8(buf).expect("hex digits are ASCII")
    }

    /// Parse the canonical form, and only it: exactly 16 of
    /// `[0-9a-f]`, so an id has one spelling and a URI built from the
    /// parsed id is the URI that was read.
    pub fn from_hex(s: &str) -> Option<PeerId> {
        if s.len() != 16 {
            return None;
        }
        s.bytes()
            .try_fold(0, |id, digit| {
                let nibble = match digit {
                    b'0'..=b'9' => digit - b'0',
                    b'a'..=b'f' => digit - b'a' + 10,
                    _ => return None,
                };
                Some(id << 4 | u64::from(nibble))
            })
            .map(PeerId)
    }
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.hex_into(&mut [0; 16]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn hex_round_trip() {
        let id = PeerId(0x1234_5678_9abc_def0);
        assert_eq!(id.to_hex(), "123456789abcdef0");
        assert_eq!(PeerId::from_hex(&id.to_hex()), Some(id));
    }

    #[test]
    fn hex_into_agrees_with_to_hex() {
        for id in [0, 7, 0xbe01, 0x1234_5678_9abc_def0, u64::MAX] {
            assert_eq!(PeerId(id).hex_into(&mut [0; 16]), PeerId(id).to_hex());
        }
    }

    #[test]
    fn leading_zeros_preserved() {
        let id = PeerId(7);
        assert_eq!(id.to_hex().len(), 16);
        assert_eq!(PeerId::from_hex(&id.to_hex()), Some(id));
    }

    #[test]
    fn bad_hex_rejected() {
        assert_eq!(PeerId::from_hex("short"), None);
        assert_eq!(PeerId::from_hex("zzzzzzzzzzzzzzzz"), None);
        assert_eq!(PeerId::from_hex("123456789abcdef01"), None);
    }

    #[test]
    fn only_the_canonical_spelling_is_an_id() {
        // `u64::from_str_radix` reads the first two as peer abcd.
        for other in ["+00000000000abcd", "000000000000ABCD", "-00000000000abcd"] {
            assert_eq!(PeerId::from_hex(other), None, "{other}");
        }
        assert_eq!(PeerId::from_hex("000000000000abcd"), Some(PeerId(0xabcd)));
        assert_eq!(PeerId::from_hex("ffffffffffffffff"), Some(PeerId(u64::MAX)));
    }

    #[test]
    fn random_ids_differ() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_ne!(PeerId::random(&mut rng), PeerId::random(&mut rng));
    }

    #[test]
    fn display_matches_hex() {
        let id = PeerId(0xff);
        assert_eq!(id.to_string(), id.to_hex());
    }
}
