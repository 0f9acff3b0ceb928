//! Escaping and entity expansion for character data and attribute values.
//!
//! Every scan here is the one block classifier of [`crate::scan`]: the
//! input is read sixteen bytes at a time into an exact mask of the bytes
//! that matter — the specials an escaper substitutes, the `&` that
//! starts a reference — and every flagged byte of a block is handled
//! from that mask before the next block is loaded. Clean runs between
//! them are copied whole, so text pays per block, and text dense with
//! specials pays per special without a fresh scan for each. All those
//! bytes are ASCII, so slicing at their positions always lands on UTF-8
//! boundaries.

use crate::error::{XmlError, XmlResult};
use crate::scan::{self, Needles, BLOCK};
use std::borrow::Cow;

/// The bytes text content must escape.
const TEXT_SPECIALS: Needles = Needles::new(b"<>&");
/// The bytes an attribute value must escape: the text specials, the
/// quote, and the whitespace that attribute-value normalisation would
/// otherwise change — seven bytes, so two needle sets.
const ATTR_SPECIALS: [Needles; 2] = [Needles::new(b"<>&\""), Needles::new(b"\t\n\r")];
const AMPERSAND: Needles = Needles::new(b"&");
const SEMICOLON: Needles = Needles::new(b";");

/// How much of a reference it could not expand an error quotes: far more
/// than the longest one a writer emits (`&#x10FFFF;` names eight bytes),
/// and bounded, so that a peer that sends a megabyte of garbage after a
/// `&` does not get it reflected back in a fault.
const QUOTED_REFERENCE: usize = 64;

/// Append the replacement of text special `b`. One constant-length
/// append per arm, so none of them is a library call.
#[inline(always)]
fn push_text_replacement(b: u8, out: &mut Vec<u8>) {
    match b {
        b'<' => out.extend_from_slice(b"&lt;"),
        b'>' => out.extend_from_slice(b"&gt;"),
        b'&' => out.extend_from_slice(b"&amp;"),
        _ => unreachable!("the classifier flags only the specials"),
    }
}

#[inline(always)]
fn push_attr_replacement(b: u8, out: &mut Vec<u8>) {
    match b {
        b'"' => out.extend_from_slice(b"&quot;"),
        b'\t' => out.extend_from_slice(b"&#9;"),
        b'\n' => out.extend_from_slice(b"&#10;"),
        b'\r' => out.extend_from_slice(b"&#13;"),
        _ => push_text_replacement(b, out),
    }
}

/// The one escape loop: `specials` flags the bytes of a block that
/// `push_replacement` substitutes. Each clean run is copied once, when the
/// special that ends it (or the end of input) is reached.
#[inline(always)]
fn escape_into(
    input: &str,
    out: &mut Vec<u8>,
    specials: impl Fn(&[u8; BLOCK]) -> u16,
    push_replacement: impl Fn(u8, &mut Vec<u8>),
) {
    let bytes = input.as_bytes();
    // Once per call: the output is at least as long as the input, and
    // only a substitution past that can make the copies below grow it.
    out.reserve(bytes.len());
    let mut copied = 0;
    let mut at = 0;
    while at < bytes.len() {
        let (base, mut flagged) = scan::block(bytes, at, &specials);
        while flagged != 0 {
            let special = base + flagged.trailing_zeros() as usize;
            out.extend_from_slice(&bytes[copied..special]);
            push_replacement(bytes[special], out);
            copied = special + 1;
            flagged &= flagged - 1;
        }
        at = base + BLOCK;
    }
    out.extend_from_slice(&bytes[copied..]);
}

/// Escape a string for use as element character data, appending bytes.
///
/// `<`, `&` and `>` are escaped. `>` is only mandatory inside `]]>` but
/// escaping it unconditionally is harmless and simpler.
pub fn escape_text_into(input: &str, out: &mut Vec<u8>) {
    escape_into(input, out, |b| TEXT_SPECIALS.mask(b), push_text_replacement);
}

/// Escape a string for use inside a double-quoted attribute value,
/// appending bytes.
///
/// In addition to the text escapes, `"` must be escaped, and literal
/// tab/newline/carriage-return are escaped as character references so that
/// attribute-value normalisation cannot change them on re-parse.
pub fn escape_attr_into(input: &str, out: &mut Vec<u8>) {
    let [marks, spaces] = ATTR_SPECIALS;
    escape_into(
        input,
        out,
        |b| marks.mask(b) | spaces.mask(b),
        push_attr_replacement,
    );
}

/// Escape element character data into a `String` (see [`escape_text_into`]).
pub fn escape_text(input: &str, out: &mut String) {
    // SAFETY: the escaper appends `input`, a `str`, cut only before and
    // after ASCII bytes, and ASCII replacements for those bytes, so
    // `out` holds valid UTF-8 again when the borrow ends.
    escape_text_into(input, unsafe { out.as_mut_vec() });
}

/// Escape an attribute value into a `String` (see [`escape_attr_into`]).
pub fn escape_attr(input: &str, out: &mut String) {
    // SAFETY: as in `escape_text`: `input` cut only at ASCII bytes,
    // plus ASCII replacements, keeps `out` valid UTF-8.
    escape_attr_into(input, unsafe { out.as_mut_vec() });
}

/// Convenience wrapper returning a fresh `String` (allocation-per-call;
/// hot paths should use [`escape_text_into`] with a reused buffer).
pub fn escape_text_owned(input: &str) -> String {
    let mut s = String::with_capacity(input.len());
    escape_text(input, &mut s);
    s
}

/// Expand entity and character references in raw character data.
///
/// Borrows the input when there is nothing to expand — the common case
/// for SOAP payloads — and only allocates when a `&` is present.
/// `base` is the byte offset of `input` within the whole document, used
/// for error reporting.
pub fn unescape(input: &str, base: usize) -> XmlResult<Cow<'_, str>> {
    let bytes = input.as_bytes();
    let Some(first) = AMPERSAND.find(bytes, 0) else {
        return Ok(Cow::Borrowed(input));
    };
    // References only ever shrink, so this one reservation holds.
    let mut out = String::with_capacity(input.len());
    // `input[..copied]` is in `out`, expanded.
    let mut copied = 0;
    let mut at = first;
    while at < bytes.len() {
        let (block, mut references) = scan::block(bytes, at, |b| AMPERSAND.mask(b));
        while references != 0 {
            let amp = block + references.trailing_zeros() as usize;
            references &= references - 1;
            // A `&` inside a reference already read is part of it.
            if amp < copied {
                continue;
            }
            out.push_str(&input[copied..amp]);
            let (ch, len) = reference(input, amp, base)?;
            out.push(ch);
            copied = amp + len;
        }
        at = copied.max(block + BLOCK);
    }
    out.push_str(&input[copied..]);
    Ok(Cow::Owned(out))
}

/// The character the reference at `input[amp..]` stands for, and the
/// reference's length.
#[inline(always)]
fn reference(input: &str, amp: usize, base: usize) -> XmlResult<(char, usize)> {
    // The five predefined entities, matched on their bytes; only a
    // character reference (or garbage) goes looking for its `;`.
    Ok(match &input.as_bytes()[amp..] {
        [b'&', b'l', b't', b';', ..] => ('<', 4),
        [b'&', b'g', b't', b';', ..] => ('>', 4),
        [b'&', b'a', b'm', b'p', b';', ..] => ('&', 5),
        [b'&', b'q', b'u', b'o', b't', b';', ..] => ('"', 6),
        [b'&', b'a', b'p', b'o', b's', b';', ..] => ('\'', 6),
        _ => {
            let offset = base + amp;
            let semi = SEMICOLON
                .find(input.as_bytes(), amp)
                .ok_or(XmlError::UnexpectedEof {
                    offset,
                    expecting: "';' terminating entity reference",
                })?;
            let entity = &input[amp + 1..semi];
            let ch = parse_char_ref(entity).ok_or_else(|| XmlError::BadEntity {
                offset,
                entity: entity[..entity.floor_char_boundary(QUOTED_REFERENCE)].to_owned(),
            })?;
            (ch, semi + 1 - amp)
        }
    })
}

fn parse_char_ref(entity: &str) -> Option<char> {
    let body = entity.strip_prefix('#')?;
    let code = if let Some(hex) = body.strip_prefix('x').or_else(|| body.strip_prefix('X')) {
        u32::from_str_radix(hex, 16).ok()?
    } else {
        body.parse::<u32>().ok()?
    };
    let ch = char::from_u32(code)?;
    // XML 1.0 Char production: forbid most C0 controls.
    if matches!(ch, '\u{9}' | '\u{A}' | '\u{D}') || ch >= '\u{20}' {
        Some(ch)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn esc_text(s: &str) -> String {
        let mut out = String::new();
        escape_text(s, &mut out);
        out
    }

    fn esc_attr(s: &str) -> String {
        let mut out = String::new();
        escape_attr(s, &mut out);
        out
    }

    #[test]
    fn text_escapes_markup() {
        assert_eq!(esc_text("a<b&c>d"), "a&lt;b&amp;c&gt;d");
    }

    #[test]
    fn attr_escapes_quotes_and_whitespace() {
        assert_eq!(esc_attr("\"x\"\n"), "&quot;x&quot;&#10;");
        assert_eq!(esc_attr("tab\there"), "tab&#9;here");
    }

    #[test]
    fn escape_into_appends_without_clearing() {
        let mut out = b"prefix ".to_vec();
        escape_text_into("a<b", &mut out);
        assert_eq!(out, b"prefix a&lt;b");
    }

    #[test]
    fn escape_preserves_multibyte_runs() {
        assert_eq!(esc_text("héllo<wörld>"), "héllo&lt;wörld&gt;");
        assert_eq!(esc_attr("\u{20AC}\"\u{20AC}"), "\u{20AC}&quot;\u{20AC}");
    }

    #[test]
    fn unescape_borrows_when_clean() {
        assert!(matches!(
            unescape("no entities here", 0).unwrap(),
            Cow::Borrowed(_)
        ));
    }

    #[test]
    fn unescape_predefined() {
        assert_eq!(unescape("&lt;&gt;&amp;&apos;&quot;", 0).unwrap(), "<>&'\"");
    }

    #[test]
    fn unescape_char_refs() {
        assert_eq!(unescape("&#65;&#x42;&#x43;", 0).unwrap(), "ABC");
        assert_eq!(unescape("&#x20AC;", 0).unwrap(), "\u{20AC}");
    }

    #[test]
    fn unescape_rejects_unknown_entity() {
        let err = unescape("x&nope;y", 5).unwrap_err();
        assert_eq!(
            err,
            XmlError::BadEntity {
                offset: 6,
                entity: "nope".into()
            }
        );
    }

    #[test]
    fn unescape_rejects_unterminated() {
        assert!(matches!(
            unescape("x&amp", 0),
            Err(XmlError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn unescape_rejects_control_char_ref() {
        assert!(unescape("&#0;", 0).is_err());
        assert!(unescape("&#x1;", 0).is_err());
        // But tab/newline/CR refs are fine.
        assert_eq!(unescape("&#9;", 0).unwrap(), "\t");
    }

    #[test]
    fn unescape_passes_multibyte_through() {
        assert_eq!(unescape("héllo – ok", 0).unwrap(), "héllo – ok");
    }

    #[test]
    fn round_trip_text() {
        let original = "mixed <tags> & \"quotes\" with ünïcode\n";
        let escaped = esc_text(original);
        assert_eq!(unescape(&escaped, 0).unwrap(), original);
    }

    #[test]
    fn round_trip_attr() {
        let original = "a\tb\nc\"d<e>&f";
        let escaped = esc_attr(original);
        assert_eq!(unescape(&escaped, 0).unwrap(), original);
    }
}
