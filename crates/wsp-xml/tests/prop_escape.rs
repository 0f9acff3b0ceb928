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
//! values and offsets included — except that an error quotes at most 64
//! bytes of a reference it could not expand (see [`quoted`]).

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

/// The oracle's result as the expander reports it: a `BadEntity` quotes
/// at most the first 64 bytes of the reference, cut at a character
/// boundary, so that garbage a peer sends after a `&` is not reflected
/// back at length. Only references longer than any legal one change.
fn quoted(result: XmlResult<Cow<'_, str>>) -> XmlResult<Cow<'_, str>> {
    result.map_err(|error| match error {
        XmlError::BadEntity { offset, mut entity } => {
            let mut end = entity.len().min(64);
            while !entity.is_char_boundary(end) {
                end -= 1;
            }
            entity.truncate(end);
            XmlError::BadEntity { offset, entity }
        }
        other => other,
    })
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
                quoted(old_unescape(input, base)),
                "{input:?}"
            );
        }
    }
    // References longer than the quote: cut at 64 bytes, or before the
    // character that straddles byte 64.
    for garbage in ["a", "&", "é", "€", "\u{10348}", "#1"] {
        for len in [63, 64, 65, 200] {
            let input = format!("x&{};y", garbage.repeat(len));
            let error = unescape(&input, 7);
            assert_eq!(error, quoted(old_unescape(&input, 7)), "{input:?}");
            match error {
                Err(XmlError::BadEntity { offset: 8, entity }) => assert!(entity.len() <= 64),
                other => panic!("{input:?}: {other:?}"),
            }
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
        let (new, old) = (unescape(&s, base), quoted(old_unescape(&s, base)));
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
        prop_assert_eq!(unescape(&escaped, 0), quoted(old_unescape(&escaped, 0)));
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

// Long inputs. Input of two 64-byte windows or more takes the window
// loops (`scan::WINDOW`): the escapers from the start of the input, the
// expander from its first `&`, each until less than two windows are
// left. Everything above stays below that, so these properties hold
// the window loops, their edges and the hand-over to the block loops
// to the same oracles.

/// Offsets a special takes in a long input: every offset of the first
/// three windows — 62–66 and 126–130 straddle the first two edges —
/// and of the last 130 bytes, where the window loop hands over.
fn long_offsets(len: usize) -> impl Iterator<Item = usize> {
    (0..len.min(3 * 64)).chain(len.saturating_sub(130).max(3 * 64)..len)
}

#[test]
fn a_special_at_every_window_offset_of_long_inputs() {
    for filler in FILLERS {
        for len in [128, 130, 191, 192, 255, 320, 2048] {
            let chars = len / filler.len();
            let clean = filler.repeat(chars);
            assert_escapes_like_the_reference(&clean);
            for at in long_offsets(chars) {
                let (head, tail) = clean.split_at(at * filler.len());
                for special in SPECIALS {
                    assert_escapes_like_the_reference(&format!("{head}{special}{tail}"));
                }
            }
        }
    }
}

/// A special at every offset mod 64 of every window of a 2 KiB input,
/// all at once: 32 windows, each with its specials in another place.
#[test]
fn specials_at_every_offset_mod_64_in_one_long_input() {
    for filler in ["a", "é"] {
        for lead in 0..64 {
            let mut s = filler.repeat(lead);
            for window in 0..32 {
                s.push(SPECIALS[window % SPECIALS.len()]);
                s.push_str(&filler.repeat(63 - window % 7));
            }
            assert_escapes_like_the_reference(&s);
        }
    }
}

/// Windows of nothing but specials — the room a window can need, one
/// `&quot;` per byte, and every mix — after every lead, then expanded
/// back: the expander's windows dense with references.
#[test]
fn long_runs_of_nothing_but_specials() {
    let cycle: String = SPECIALS.iter().cycle().take(300).collect();
    for lead in 0..70 {
        let head = "é".repeat(lead / 2) + &"a".repeat(lead % 2);
        for special in SPECIALS {
            let run = special.to_string().repeat(300);
            assert_escapes_like_the_reference(&format!("{head}{run}"));
        }
        let s = format!("{head}{cycle}{head}");
        assert_escapes_like_the_reference(&s);
        let (mut text, mut attr) = (String::new(), String::new());
        escape_text(&s, &mut text);
        escape_attr(&s, &mut attr);
        assert_unescapes_like_the_oracle(&text, 1);
        assert_unescapes_like_the_oracle(&attr, 1);
    }
}

/// `unescape` against the oracle on `input`: value, borrowed or owned,
/// error variant, offset and quoted entity.
fn assert_unescapes_like_the_oracle(input: &str, base: usize) {
    let (new, old) = (unescape(input, base), quoted(old_unescape(input, base)));
    assert_eq!(
        matches!(new, Ok(Cow::Borrowed(_))),
        matches!(old, Ok(Cow::Borrowed(_))),
        "borrowing differs on {input:?}"
    );
    assert_eq!(new, old, "{input:?}");
}

/// References, good and bad, whose result or bytes straddle a window
/// edge: `&#x10FFFF;` and the other multi-byte results among them.
const LONG_REFERENCES: [&str; 14] = [
    "&lt;",
    "&amp;",
    "&quot;",
    "&apos;",
    "&#9;",
    "&#x80;",
    "&#x20AC;",
    "&#65536;",
    "&#x10FFFF;",
    "&#1114111;",
    "&nope;",
    "&#x110000;",
    "&#xD800;",
    "&amp",
];

/// Each reference at every offset of the first three windows after
/// the first `&` and of the last ones, in fillers of every width (a
/// window edge cuts their characters), followed by more text or by
/// nothing: a reference at the very end, an unterminated one there.
#[test]
fn references_across_window_edges_expand_like_the_oracle() {
    for filler in FILLERS {
        for lead in ["&amp;", "x&lt;", "&#x10FFFF;"] {
            for pad in 0..=200 {
                let head = format!("{lead}{}", filler.repeat(pad / filler.len()));
                for reference in LONG_REFERENCES {
                    for tail_len in [0, 1, 63, 64, 65, 127, 128, 129, 200] {
                        let tail = filler.repeat(tail_len / filler.len());
                        assert_unescapes_like_the_oracle(&format!("{head}{reference}{tail}"), 9);
                    }
                }
            }
        }
    }
}

/// A lone `&`, a `;`-less reference, and garbage just before each of
/// the first window edges and at the very end of a long input.
#[test]
fn bad_references_before_window_edges_and_at_the_end() {
    let bad = ["&", "&amp", "&#x20AC", "&nope;", "&#;", "& ;", "&#x;"];
    for filler in FILLERS {
        let body = filler.repeat(400 / filler.len());
        for cut in (120..=136)
            .chain(184..=200)
            .chain(body.len() - 8..=body.len())
        {
            let cut = body.floor_char_boundary(cut);
            for garbage in bad {
                let input = format!("&lt;{}{garbage}{}", &body[..cut], &body[cut..]);
                assert_unescapes_like_the_oracle(&input, 0);
                assert_unescapes_like_the_oracle(&format!("&lt;{}{garbage}", &body[..cut]), 3);
            }
        }
    }
}

/// 128 to ~2048 bytes of plain runs, specials and scalars of every
/// UTF-8 width.
fn long_word_spanning() -> impl Strategy<Value = String> {
    proptest::collection::vec(word_spanning(), 3..40)
        .prop_map(|parts| parts.concat())
        .prop_filter("two windows at least", |s| (128..=2048).contains(&s.len()))
}

/// 128 to ~2048 bytes of character data as a hostile peer might send
/// it, references good and bad among multi-byte text.
fn long_reference_soup() -> impl Strategy<Value = String> {
    (
        "[a-z€\u{10348}]{0,70}",
        proptest::collection::vec(
            prop_oneof![
                "[ -%'-~]{1,80}",
                "[ -%'-~]{1,80}",
                "[é€\u{10348}]{1,30}",
                Just("&lt;".to_string()),
                Just("&amp;".to_string()),
                Just("&quot;".to_string()),
                Just("&#x10FFFF;".to_string()),
                "&#[0-9]{1,7};",
                "&#x[0-9a-fA-F]{1,6};",
                Just("&".to_string()),
                Just("&#".to_string()),
                "&[a-z]{1,5};",
                "&[a-z#;&]{1,4}",
            ],
            4..60,
        ),
    )
        .prop_map(|(lead, tokens)| lead + &tokens.concat())
        .prop_filter("two windows at least", |s| (128..=2048).contains(&s.len()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn both_escapers_match_the_reference_on_long_inputs(s in long_word_spanning()) {
        assert_escapes_like_the_reference(&s);
    }

    #[test]
    fn unescape_matches_the_oracle_on_long_inputs(
        s in long_reference_soup(),
        base in 0usize..4096,
    ) {
        assert_unescapes_like_the_oracle(&s, base);
    }

    #[test]
    fn long_inputs_escape_and_expand_back(s in long_word_spanning()) {
        let (mut text, mut attr) = (String::new(), String::new());
        escape_text(&s, &mut text);
        escape_attr(&s, &mut attr);
        assert_unescapes_like_the_oracle(&text, 0);
        assert_unescapes_like_the_oracle(&attr, 0);
        prop_assert_eq!(unescape(&attr, 0).expect("well-formed").as_ref(), s.as_str());
    }
}
