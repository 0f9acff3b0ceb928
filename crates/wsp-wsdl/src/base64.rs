//! Minimal RFC 4648 base64 (standard alphabet, with padding) for
//! `xsd:base64Binary` values. Implemented locally to stay inside the
//! allowed dependency set.

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encode bytes to base64 text.
pub fn encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b = [
            chunk[0],
            *chunk.get(1).unwrap_or(&0),
            *chunk.get(2).unwrap_or(&0),
        ];
        let n = (u32::from(b[0]) << 16) | (u32::from(b[1]) << 8) | u32::from(b[2]);
        out.push(ALPHABET[(n >> 18) as usize & 63] as char);
        out.push(ALPHABET[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            ALPHABET[(n >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            ALPHABET[n as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

/// Decode base64 text (whitespace tolerated, padding required for the
/// final quantum as produced by [`encode`]).
pub fn decode(text: &str) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(text.len() / 4 * 3);
    let mut quad = [0u8; 4];
    let mut len = 0usize;
    let mut pad = 0usize;
    for c in text.bytes() {
        if c.is_ascii_whitespace() {
            continue;
        }
        if c == b'=' {
            pad += 1;
            quad[len] = 0;
            len += 1;
        } else {
            if pad > 0 {
                return None; // data after padding
            }
            quad[len] = value_of(c)?;
            len += 1;
        }
        if len == 4 {
            let n = (u32::from(quad[0]) << 18)
                | (u32::from(quad[1]) << 12)
                | (u32::from(quad[2]) << 6)
                | u32::from(quad[3]);
            // The bits a padded quantum leaves over must be zero: text
            // that sets them spells no bytes [`encode`] would write.
            let spare = match pad {
                1 => 0xFF,
                2 => 0xFFFF,
                _ => 0,
            };
            if n & spare != 0 {
                return None;
            }
            out.push((n >> 16) as u8);
            if pad < 2 {
                out.push((n >> 8) as u8);
            }
            if pad < 1 {
                out.push(n as u8);
            }
            len = 0;
        }
    }
    if len != 0 || pad > 2 {
        return None;
    }
    Some(out)
}

fn value_of(c: u8) -> Option<u8> {
    match c {
        b'A'..=b'Z' => Some(c - b'A'),
        b'a'..=b'z' => Some(c - b'a' + 26),
        b'0'..=b'9' => Some(c - b'0' + 52),
        b'+' => Some(62),
        b'/' => Some(63),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc_vectors() {
        assert_eq!(encode(b""), "");
        assert_eq!(encode(b"f"), "Zg==");
        assert_eq!(encode(b"fo"), "Zm8=");
        assert_eq!(encode(b"foo"), "Zm9v");
        assert_eq!(encode(b"foob"), "Zm9vYg==");
        assert_eq!(encode(b"fooba"), "Zm9vYmE=");
        assert_eq!(encode(b"foobar"), "Zm9vYmFy");
    }

    #[test]
    fn decode_vectors() {
        assert_eq!(decode("").unwrap(), b"");
        assert_eq!(decode("Zg==").unwrap(), b"f");
        assert_eq!(decode("Zm9vYmFy").unwrap(), b"foobar");
    }

    #[test]
    fn decode_tolerates_whitespace() {
        assert_eq!(decode("Zm9v\nYmFy ").unwrap(), b"foobar");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode("Z*==").is_none());
        assert!(decode("Zg=").is_none()); // truncated quantum
        assert!(decode("Zg==Zg==x").is_none());
        assert!(decode("Z=g=").is_none()); // data after padding
        assert!(decode("Zh==").is_none()); // padding bits set
    }

    #[test]
    fn round_trip_all_byte_values() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn round_trip_various_lengths() {
        for len in 0..32 {
            let data: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
            assert_eq!(decode(&encode(&data)).unwrap(), data, "len {len}");
        }
    }
}
