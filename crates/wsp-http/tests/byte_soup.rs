//! Byte soup for the HTTP head readers: whatever bytes a peer sends, in
//! whatever pieces the socket hands them over, `HeadScan` finds the
//! head where one scan of the whole finds it, and `frame_len` answers
//! without panicking — a length the caller may reserve, or an error.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use wsp_http::{frame_len, HeadScan, HttpError, MAX_BODY_LEN};

/// Heads cut from request and status lines, line ends of both flavours,
/// `Content-Length` headers with lengths fair and foul, and raw bytes.
struct Soup;

impl Strategy for Soup {
    type Value = Vec<u8>;

    fn generate(&self, rng: &mut TestRng) -> Vec<u8> {
        const PIECES: [&[u8]; 15] = [
            b"HTTP/1.1 200 OK",
            b"POST /s HTTP/1.1",
            b"\r\n",
            b"\n",
            b"\r",
            b"\r\n\r\n",
            b"\n\n",
            b"Content-Length: ",
            b"content-length:",
            b"5",
            b"67108865",
            b"100000000000000",
            b"18446744073709551615",
            b"x",
            b":",
        ];
        let mut soup = Vec::new();
        for _ in 0..rng.below(24) {
            match rng.below(5) {
                0 => soup.extend((0..rng.below(4)).map(|_| rng.next_u64() as u8)),
                _ => soup.extend_from_slice(PIECES[rng.below(PIECES.len() as u64) as usize]),
            }
        }
        soup
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_000))]

    /// Fed the growing buffer a read loop holds, cut anywhere, the scan
    /// finds the body where one call on the whole finds it.
    #[test]
    fn head_scan_finds_the_body_whatever_the_split(
        soup in Soup,
        cuts in proptest::collection::vec(0usize..96, 0..6),
    ) {
        let whole = HeadScan::new().find(&soup);
        let mut ends: Vec<usize> = cuts.iter().map(|cut| cut % (soup.len() + 1)).collect();
        ends.sort_unstable();
        ends.push(soup.len());
        let mut scan = HeadScan::new();
        let found = ends.into_iter().find_map(|end| scan.find(&soup[..end]));
        prop_assert_eq!(found, whole, "{:?}", String::from_utf8_lossy(&soup));
    }

    /// Any head, any body offset: a frame length within the bound, or a
    /// malformed message — never a panic.
    #[test]
    fn frame_len_never_panics_on_any_head(soup in Soup, start in 0usize..128) {
        let body_start = HeadScan::new().find(&soup).unwrap_or(start);
        match frame_len(&soup, body_start) {
            Ok(total) => prop_assert!(total >= body_start && total - body_start <= MAX_BODY_LEN),
            Err(HttpError::Malformed(_)) => {}
            Err(other) => prop_assert!(false, "{:?}", other),
        }
    }
}
