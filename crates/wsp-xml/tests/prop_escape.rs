//! Property tests for the escaper and the entity expander.
//!
//! The escaper was rewritten twice — from a per-char `match` loop to a
//! scan-ahead bulk copier (PR 5), then to a scan that reads eight bytes
//! per step (PR 22) — and the expander once. These properties pin every
//! rewrite to the first behaviour: equivalence with a naive reference
//! implementation, escape→unescape round trips over hostile inputs
//! (lone `&`, `]]>`, multi-byte UTF-8 straddling escape and word
//! boundaries), the borrow-when-clean contract of the `Cow` unescape,
//! and `unescape` ≡ the byte-at-a-time expander it replaced, error
//! values and offsets included.

use proptest::prelude::*;
use std::borrow::Cow;
use wsp_xml::escape::{escape_attr, escape_text, escape_text_owned, unescape};
use wsp_xml::{XmlError, XmlResult};

/// The pre-PR-5 escaper, kept as the reference: one `match` per char.
fn naive_escape_text(input: &str) -> String {
    let mut out = String::new();
    for c in input.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            other => out.push(other),
        }
    }
    out
}

fn naive_escape_attr(input: &str) -> String {
    let mut out = String::new();
    for c in input.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\t' => out.push_str("&#9;"),
            '\n' => out.push_str("&#10;"),
            '\r' => out.push_str("&#13;"),
            other => out.push(other),
        }
    }
    out
}

/// The pre-PR-22 expander, verbatim, as the oracle: `&` found one byte
/// at a time, the entity name compared as a `str`.
fn old_unescape(input: &str, base: usize) -> XmlResult<Cow<'_, str>> {
    let bytes = input.as_bytes();
    let Some(first) = bytes.iter().position(|&b| b == b'&') else {
        return Ok(Cow::Borrowed(input));
    };
    let mut out = String::with_capacity(input.len());
    out.push_str(&input[..first]);
    let mut i = first;
    while i < input.len() {
        if bytes[i] != b'&' {
            let run_end = bytes[i..]
                .iter()
                .position(|&b| b == b'&')
                .map(|p| i + p)
                .unwrap_or(input.len());
            out.push_str(&input[i..run_end]);
            i = run_end;
            continue;
        }
        let semi = input[i + 1..]
            .find(';')
            .map(|p| i + 1 + p)
            .ok_or(XmlError::UnexpectedEof {
                offset: base + i,
                expecting: "';' terminating entity reference",
            })?;
        let entity = &input[i + 1..semi];
        match entity {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "apos" => out.push('\''),
            "quot" => out.push('"'),
            _ => {
                let ch = old_parse_char_ref(entity).ok_or_else(|| XmlError::BadEntity {
                    offset: base + i,
                    entity: entity.to_owned(),
                })?;
                out.push(ch);
            }
        }
        i = semi + 1;
    }
    Ok(Cow::Owned(out))
}

fn old_parse_char_ref(entity: &str) -> Option<char> {
    let body = entity.strip_prefix('#')?;
    let code = if let Some(hex) = body.strip_prefix('x').or_else(|| body.strip_prefix('X')) {
        u32::from_str_radix(hex, 16).ok()?
    } else {
        body.parse::<u32>().ok()?
    };
    let ch = char::from_u32(code)?;
    if matches!(ch, '\u{9}' | '\u{A}' | '\u{D}') || ch >= '\u{20}' {
        Some(ch)
    } else {
        None
    }
}

/// Every byte either escaper substitutes.
const SPECIALS: [char; 7] = ['&', '<', '>', '"', '\t', '\n', '\r'];

/// Fillers of every UTF-8 width: where a special lands relative to a
/// word boundary, and what straddles that boundary, both vary.
const FILLERS: [&str; 4] = ["a", "é", "€", "\u{10348}"];

fn assert_escapes_like_the_reference(s: &str) {
    let (mut text, mut attr) = (String::from("kept:"), String::from("kept:"));
    escape_text(s, &mut text);
    escape_attr(s, &mut attr);
    assert_eq!(text, format!("kept:{}", naive_escape_text(s)), "text {s:?}");
    assert_eq!(attr, format!("kept:{}", naive_escape_attr(s)), "attr {s:?}");
}

/// A special at every offset of inputs 0–96 bytes long — every offset
/// mod 8, the first and last byte of a word, the sub-word tail — in
/// fillers of every width, alone and followed by a second special.
#[test]
fn a_special_at_every_offset_of_every_word() {
    for filler in FILLERS {
        for chars in 0..=96 / filler.len() {
            let clean = filler.repeat(chars);
            assert_escapes_like_the_reference(&clean);
            for at in 0..=chars {
                let (head, tail) = clean.split_at(at * filler.len());
                for special in SPECIALS {
                    assert_escapes_like_the_reference(&format!("{head}{special}{tail}"));
                    assert_escapes_like_the_reference(&format!("{head}{special}&{tail}"));
                }
            }
        }
    }
}

/// Runs of back-to-back specials of every length up to three words,
/// at every alignment within a word.
#[test]
fn runs_of_back_to_back_specials() {
    let cycle: String = SPECIALS.iter().cycle().take(24).collect();
    for lead in 0..8 {
        for run in 0..=24 {
            let s = format!("{}{}{}", "a".repeat(lead), &cycle[..run], "é".repeat(5));
            assert_escapes_like_the_reference(&s);
        }
    }
}

/// Bytes that look like a needle in seven of eight bits, and bytes
/// ≥ 0x80 whose low bits spell a needle: the word test must flag none.
#[test]
fn near_misses_are_not_escaped() {
    let near: String = SPECIALS
        .iter()
        .flat_map(|&c| (0..8).map(move |bit| (c as u8 ^ (1 << bit)) as char))
        .filter(|c| !SPECIALS.contains(c))
        .collect();
    // U+00A6, U+00BC, U+00BE: continuation bytes 0xA6, 0xBC, 0xBE are
    // `&`, `<`, `>` with the high bit set.
    let high = "\u{a6}\u{bc}\u{be}\u{a2}\u{89}\u{8a}\u{8d}";
    for lead in 0..8 {
        let s = format!("{}{near}{high}", "a".repeat(lead));
        assert_escapes_like_the_reference(&s);
        let mut text = String::new();
        escape_text(&s, &mut text);
        assert_eq!(
            text.matches('&').count(),
            s.matches(['&', '<', '>']).count()
        );
    }
}

/// What the expander's callers rely on beyond its output: the error's
/// kind, its offset (shifted by `base`) and the entity text it quotes.
#[test]
fn unescape_errors_match_the_oracle() {
    for input in [
        "&nope;",
        "x&nope;y",
        "a&amp;b&nope;",
        "x&amp",
        "&",
        "tail&",
        "&lt",
        "&;",
        "&#0;",
        "&#x1;",
        "&#xD800;",
        "&#x110000;",
        "&#;",
        "&#x;",
        "&#-1;",
        "&amp ;",
        "&AMP;",
        "&ltt;",
        "é€&é;",
        "&lt;&gt;&amp;&apos;&quot;&#9;&#x20AC;&#65;",
        "&amp;amp;",
        "&am&amp;p;",
    ] {
        for base in [0, 5, 1 << 20] {
            assert_eq!(
                unescape(input, base),
                old_unescape(input, base),
                "{input:?}"
            );
        }
    }
}

/// Strings that concentrate the escaper's edge cases: specials back to
/// back, specials butted against multi-byte sequences, the CDATA
/// terminator, and a lone `&`.
fn hostile() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just("&".to_string()),
            Just("<".to_string()),
            Just(">".to_string()),
            Just("\"".to_string()),
            Just("]]>".to_string()),
            Just("&amp;".to_string()),
            Just("é".to_string()),
            Just("€".to_string()),
            Just("\u{10348}".to_string()), // 4-byte scalar
            Just("\t\n\r".to_string()),
            "[ -~]{0,6}",
            "[àâæçéèêëîïôùûüÿ€]{1,4}",
        ],
        1..8,
    )
    .prop_map(|tokens| tokens.concat())
}

/// Up to ~96 bytes of plain runs, specials and scalars of every UTF-8
/// width, in any order: several words long, so the word loop, the
/// re-entry after a special and the tail all run in one input.
fn word_spanning() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            "[a-zA-Z0-9 ]{1,11}",
            "[&<>\"\t\n\r]{1,9}",
            "[\u{80}-\u{7ff}]{1,3}",
            "[\u{800}-\u{d7ff}]{1,2}",
            "[\u{10000}-\u{10ffff}]{1,2}",
        ],
        0..12,
    )
    .prop_map(|tokens| tokens.concat())
}

/// Character data as a hostile peer might send it: references good and
/// bad, lone `&` and `;`, multi-byte text between them.
fn reference_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just("&lt;".to_string()),
            Just("&gt;".to_string()),
            Just("&amp;".to_string()),
            Just("&quot;".to_string()),
            Just("&apos;".to_string()),
            Just("&".to_string()),
            Just(";".to_string()),
            Just("&#".to_string()),
            "&#[0-9]{1,8};",
            "&#x[0-9a-fA-F]{1,7};",
            "&[a-z]{1,5};",
            "[a-z#;&]{1,4}",
            "[ -~]{0,12}",
            "[é€\u{10348}]{1,3}",
        ],
        0..10,
    )
    .prop_map(|tokens| tokens.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn both_escapers_match_the_reference_across_words(s in word_spanning()) {
        assert_escapes_like_the_reference(&s);
    }

    #[test]
    fn unescape_matches_the_byte_loop_it_replaced(s in reference_soup(), base in 0usize..4096) {
        let (new, old) = (unescape(&s, base), old_unescape(&s, base));
        prop_assert_eq!(
            matches!(new, Ok(Cow::Borrowed(_))),
            matches!(old, Ok(Cow::Borrowed(_))),
            "borrowing differs on {:?}", s
        );
        prop_assert_eq!(new, old, "input {:?}", s);
    }

    #[test]
    fn escaped_then_unescaped_is_the_oracles_answer(s in word_spanning()) {
        let mut escaped = String::new();
        escape_attr(&s, &mut escaped);
        prop_assert_eq!(unescape(&escaped, 0), old_unescape(&escaped, 0));
        prop_assert_eq!(unescape(&escaped, 0).expect("well-formed").as_ref(), s.as_str());
    }

    #[test]
    fn text_escaper_matches_the_naive_reference(s in hostile()) {
        let mut fast = String::new();
        escape_text(&s, &mut fast);
        prop_assert_eq!(&fast, &naive_escape_text(&s), "input {:?}", s);
        prop_assert_eq!(escape_text_owned(&s), fast);
    }

    #[test]
    fn attr_escaper_matches_the_naive_reference(s in hostile()) {
        let mut fast = String::new();
        escape_attr(&s, &mut fast);
        prop_assert_eq!(fast, naive_escape_attr(&s), "input {:?}", s);
    }

    #[test]
    fn text_escape_unescape_round_trips(s in hostile()) {
        let mut escaped = String::new();
        escape_text(&s, &mut escaped);
        let back = unescape(&escaped, 0).expect("escaped text re-parses");
        prop_assert_eq!(back.as_ref(), s.as_str());
    }

    #[test]
    fn attr_escape_unescape_round_trips(s in hostile()) {
        let mut escaped = String::new();
        escape_attr(&s, &mut escaped);
        let back = unescape(&escaped, 0).expect("escaped attr re-parses");
        prop_assert_eq!(back.as_ref(), s.as_str());
    }

    #[test]
    fn unescape_borrows_exactly_when_no_reference_present(s in hostile()) {
        match unescape(&s, 0) {
            Ok(Cow::Borrowed(b)) => {
                prop_assert!(!s.contains('&'), "borrowed despite & in {:?}", s);
                prop_assert_eq!(b, s.as_str());
            }
            Ok(Cow::Owned(_)) => prop_assert!(s.contains('&'), "copied clean input {:?}", s),
            // A lone `&` (or a malformed reference) must error, never
            // pass through silently.
            Err(_) => prop_assert!(s.contains('&'), "error without & in {:?}", s),
        }
    }

    #[test]
    fn escaped_output_has_no_markup_significant_bytes(s in hostile()) {
        let mut escaped = String::new();
        escape_attr(&s, &mut escaped);
        prop_assert!(!escaped.contains('<'));
        prop_assert!(!escaped.contains('"'));
        prop_assert!(!escaped.contains("]]>"));
        // Every & must begin a well-formed reference (unescape accepts it).
        prop_assert!(unescape(&escaped, 0).is_ok());
    }

    #[test]
    fn document_round_trip_through_writer_and_reader(
        text in hostile(),
        attr in hostile(),
    ) {
        let element = wsp_xml::Element::build("urn:prop", "t")
            .attr_str("a", attr.clone())
            .text(text.clone())
            .finish();
        let parsed = wsp_xml::parse(&element.to_xml()).expect("round trip parses");
        prop_assert_eq!(parsed.text(), text);
        prop_assert_eq!(parsed.attribute_local("a"), Some(attr.as_str()));
    }
}
