//! Block edges for the byte classifier (`wsp_xml::scan`) and the scans
//! built on it.
//!
//! The classifier reads sixteen bytes at a time, reads the last block
//! of a haystack back over bytes already seen, and pads a haystack
//! shorter than a block; every one of those edges is where an off-by-one
//! would hide. So: every needle of every set the codecs use, at every
//! offset 0..=47 of haystacks 0..=64 bytes long, through both bodies —
//! the one this target runs and the portable one, called directly so it
//! is held to the reference on x86_64 too — against a byte-at-a-time
//! reference. Then the scans that use it: text with multi-byte
//! characters and references straddling a block edge, and the
//! tokenizer's text and quote scans against `str::find` on soup.

use proptest::prelude::*;
use wsp_xml::escape::{escape_attr, escape_text, unescape};
use wsp_xml::scan::{self, Needles, BLOCK, WINDOW};
use wsp_xml::{Token, Tokenizer};

/// Every needle set a scan of the codecs classifies with.
const SETS: [&[u8]; 9] = [
    b"<", b"\"", b"'", b"&", b";", b"\n", b"<>&", b"<>&\"", b"\t\n\r",
];

/// The bodies under test: the one this target runs, and the portable
/// one (the same body on targets without SSE2).
const BODIES: [fn(Needles, &[u8; BLOCK]) -> u16; 2] = [Needles::mask, Needles::mask_portable];

/// Filler that is not a needle of any set but comes close: a needle's
/// neighbours in one bit, bytes >= 0x80 whose low seven bits spell a
/// needle, and the bytes of multi-byte UTF-8 (`é`, `€`, U+10348).
const FILLER: &[u8] =
    b"a=?:$'\x0b\x0c\xbc\xa6\xbe\xa2\xbb\x8a\xc3\xa9\xe2\x82\xac\xf0\x90\x8d\x88\x00\x7f";

fn filler(len: usize, set: &[u8]) -> Vec<u8> {
    FILLER
        .iter()
        .copied()
        .filter(|b| !set.contains(b))
        .cycle()
        .take(len)
        .collect()
}

/// The reference: one byte at a time.
fn reference_positions(set: &[u8], hay: &[u8], from: usize) -> Vec<usize> {
    (from..hay.len())
        .filter(|&i| set.contains(&hay[i]))
        .collect()
}

/// Every position `body` flags walking `hay` from `from` block by block.
fn walked_positions(
    body: fn(Needles, &[u8; BLOCK]) -> u16,
    needles: Needles,
    hay: &[u8],
    from: usize,
) -> Vec<usize> {
    let mut found = Vec::new();
    let mut at = from;
    while at < hay.len() {
        let (base, mut mask) = scan::block(hay, at, |b| body(needles, b));
        assert!(base <= at && at < base + BLOCK, "block {base} for {at}");
        while mask != 0 {
            found.push(base + mask.trailing_zeros() as usize);
            mask &= mask - 1;
        }
        at = base + BLOCK;
    }
    found
}

/// `set` in `hay` through both bodies, block by block and walked from
/// the start; with `every_start`, walked and found from every position.
fn check(set: &[u8], hay: &[u8], every_start: bool) {
    let needles = Needles::new(set);
    // Whole blocks, wherever they start.
    for window in hay.windows(BLOCK) {
        let block: &[u8; BLOCK] = window.try_into().unwrap();
        let expected = (0..BLOCK)
            .filter(|&i| set.contains(&block[i]))
            .fold(0u16, |mask, i| mask | 1 << i);
        for body in BODIES {
            assert_eq!(body(needles, block), expected, "{set:?} in {block:?}");
        }
    }
    // Whole walks, a haystack shorter than a block padded: both bodies.
    for body in BODIES {
        let walked = walked_positions(body, needles, hay, 0);
        assert_eq!(
            walked,
            reference_positions(set, hay, 0),
            "{set:?} in {hay:?}"
        );
    }
    // Walks and finds from every start, the last block read back over
    // bytes before it: the walk is the same for both bodies.
    let last_start = if every_start { hay.len() } else { 0 };
    for from in 0..=last_start {
        let expected = reference_positions(set, hay, from);
        let walked = walked_positions(Needles::mask, needles, hay, from);
        assert_eq!(walked, expected, "{set:?} in {hay:?} from {from}");
        assert_eq!(needles.find(hay, from), expected.first().copied());
    }
}

#[test]
fn every_needle_at_every_offset_of_every_length() {
    for set in SETS {
        for len in 0..=64 {
            let clean = filler(len, set);
            check(set, &clean, true);
            for offset in 0..len.min(48) {
                for &needle in set {
                    let mut hay = clean.clone();
                    hay[offset] = needle;
                    check(set, &hay, true);
                    // A second needle right after it, and one in the
                    // last byte: two hits in one block, and the
                    // read-back block's last position.
                    if offset + 1 < len {
                        hay[offset + 1] = set[0];
                    }
                    hay[len - 1] = needle;
                    check(set, &hay, false);
                }
            }
        }
    }
}

#[test]
fn a_block_of_nothing_but_needles() {
    for set in SETS {
        let hay: Vec<u8> = set.iter().copied().cycle().take(64).collect();
        check(set, &hay, true);
    }
}

/// Pieces that straddle a block edge when they start just before it.
const STRADDLERS: [(&str, &str); 9] = [
    ("é", "é"),
    ("€", "€"),
    ("\u{10348}", "\u{10348}"),
    ("&lt;", "<"),
    ("&amp;", "&"),
    ("&quot;", "\""),
    ("&apos;", "'"),
    ("&#x20AC;", "€"),
    ("&#10;", "\n"),
];

#[test]
fn characters_and_references_across_block_edges() {
    for pad in 0..=47 {
        for (raw, expanded) in STRADDLERS {
            for tail in ["", "b", "&amp;", "bbbbbbbbbbbbbbbbbbbbbbbb"] {
                let head = "a".repeat(pad);
                let text = format!("{head}{raw}{tail}");
                let tail_expanded = tail.replace("&amp;", "&");
                assert_eq!(
                    unescape(&text, 0).unwrap(),
                    format!("{head}{expanded}{tail_expanded}"),
                    "{text:?}"
                );
                // What the escapers make of it reads back as it was.
                for escape in [escape_text, escape_attr] {
                    let mut escaped = String::new();
                    escape(&text, &mut escaped);
                    assert_eq!(unescape(&escaped, 0).unwrap(), text, "{escaped:?}");
                }
            }
        }
    }
}

/// A reference the expander cannot read, at every offset: refused with
/// the offset of its `&`, whichever block its `;` lands in or if none.
#[test]
fn bad_references_across_block_edges() {
    for pad in 0..=47 {
        let head = "é".repeat(pad / 2) + &"a".repeat(pad % 2);
        let at = head.len();
        let bad = unescape(&format!("{head}&nope;x"), 100).unwrap_err();
        assert_eq!(bad.offset(), Some(100 + at));
        let open = unescape(&format!("{head}&#x20AC"), 100).unwrap_err();
        assert_eq!(open.offset(), Some(100 + at));
    }
}

/// The tokenizer's scans, checked against `str::find`: a text token
/// runs to the next `<` (or the end), an attribute value to the next of
/// its own quote.
fn scans_like_str_find(input: &str) {
    let mut tokenizer = Tokenizer::new(input);
    while let Ok(Some(token)) = tokenizer.next_token() {
        match token {
            Token::Text { raw, offset } => {
                let rest = &input[offset..];
                assert_eq!(raw, &rest[..rest.find('<').unwrap_or(rest.len())]);
            }
            Token::StartTag { attrs, .. } => {
                for (_, value) in attrs {
                    let start = value.as_ptr() as usize - input.as_ptr() as usize;
                    let quote = char::from(input.as_bytes()[start - 1]);
                    assert_eq!(input[start..].find(quote), Some(value.len()), "{input:?}");
                }
            }
            _ => {}
        }
    }
}

#[test]
fn tokenizer_scans_at_every_offset() {
    for pad in 0..=47 {
        let head = "x".repeat(pad);
        scans_like_str_find(&format!(
            "<r>{head}é<a k=\"{head}'\" j='{head}\"é'/>{head}</r>"
        ));
        scans_like_str_find(&format!("<r a=\"{head}"));
        scans_like_str_find(&format!("{head}€"));
    }
}

/// The fragments of the reader's byte soup (`byte_soup.rs`), quotes
/// and markup at every position.
fn markup_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just("<".to_string()),
            Just(">".to_string()),
            Just("</".to_string()),
            Just("/>".to_string()),
            Just("<a>".to_string()),
            Just("</a>".to_string()),
            Just("<a:b xmlns:a=\"urn:a\">".to_string()),
            Just("<?xml version=\"1.0\"?>".to_string()),
            Just("<!--".to_string()),
            Just("]]>".to_string()),
            Just("&".to_string()),
            Just("&amp;".to_string()),
            Just("=\"".to_string()),
            Just("='".to_string()),
            Just(" x=\"1\" y='2'".to_string()),
            Just("\"".to_string()),
            Just("'".to_string()),
            "[ -~]{0,24}",
            "[\u{0}-\u{1f}]{1,2}",
            "[\u{80}-\u{d7ff}\u{e000}-\u{10ffff}]{1,4}",
        ],
        0..24,
    )
    .prop_map(|tokens| tokens.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn tokenizer_scans_match_str_find(s in markup_soup()) {
        scans_like_str_find(&s);
        scans_like_str_find(&format!("<a k=\"{s}"));
    }
}

/// `scan::window` through `body`, against the reference: the mask of
/// every window of `hay`, wherever it starts.
fn windows_match_the_reference(body: fn(Needles, &[u8; BLOCK]) -> u16, set: &[u8], hay: &[u8]) {
    let needles = Needles::new(set);
    for at in 0..=hay.len() - WINDOW {
        let expected = (0..WINDOW)
            .filter(|&i| set.contains(&hay[at + i]))
            .fold(0u64, |mask, i| mask | 1 << i);
        let mask = scan::window(hay, at, |b| body(needles, b));
        assert_eq!(mask, expected, "{set:?} in {hay:?} at {at}");
    }
}

/// Every needle of every set at every offset of haystacks of one to
/// three windows, each window of each read wherever it starts.
fn every_needle_in_every_window(body: fn(Needles, &[u8; BLOCK]) -> u16) {
    for set in SETS {
        for len in [
            WINDOW,
            WINDOW + 1,
            2 * WINDOW - 1,
            2 * WINDOW,
            2 * WINDOW + 1,
            3 * WINDOW,
        ] {
            let clean = filler(len, set);
            windows_match_the_reference(body, set, &clean);
            for offset in 0..len {
                for &needle in set {
                    let mut hay = clean.clone();
                    hay[offset] = needle;
                    windows_match_the_reference(body, set, &hay);
                }
            }
        }
    }
}

#[test]
fn window_masks_are_exact_on_the_body_this_target_runs() {
    every_needle_in_every_window(Needles::mask);
}

#[test]
fn window_masks_are_exact_on_the_portable_body() {
    every_needle_in_every_window(Needles::mask_portable);
}
