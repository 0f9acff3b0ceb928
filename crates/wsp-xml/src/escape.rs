//! Escaping and entity expansion for character data and attribute values.
//!
//! The escapers are scan-ahead: they locate the next byte that needs a
//! substitution and bulk-copy the clean run before it, instead of
//! pushing char-by-char. All special bytes are ASCII, so slicing at
//! their positions always lands on UTF-8 boundaries.
//!
//! The scan reads eight bytes per step: a word is loaded with
//! `u64::from_le_bytes` from a bounds-checked sub-slice (no `unsafe`,
//! no alignment requirement) and tested for all needles at once with
//! the zero-byte test below. A clean word costs a dozen ALU operations
//! and one branch, whatever its bytes are, so the loop's speed does not
//! hang on how a one-byte compare-and-branch happens to be placed.

use crate::error::{XmlError, XmlResult};
use std::borrow::Cow;

const LOW_BITS: u64 = 0x0101_0101_0101_0101;
const HIGH_BITS: u64 = 0x8080_8080_8080_8080;

/// `b` in every byte of a word.
const fn splat(b: u8) -> u64 {
    b as u64 * LOW_BITS
}

/// The classic zero-byte test: the result has `0x80` in every byte
/// position where `word` has a zero byte, and is zero when it has none.
/// The subtraction borrows upwards, so positions *above* a zero byte
/// can be flagged falsely; the lowest flagged position never is, and
/// that is the only one the scans use.
#[inline(always)]
fn zero_bytes(word: u64) -> u64 {
    word.wrapping_sub(LOW_BITS) & !word & HIGH_BITS
}

/// Flags (see [`zero_bytes`]) the `<` and `>` bytes of `word`: they
/// differ in one bit, so one test finds both.
#[inline(always)]
fn angle_brackets(word: u64) -> u64 {
    zero_bytes((word | splat(0x02)) ^ splat(b'>'))
}

/// Flags the bytes of `word` that text content must escape.
#[inline(always)]
fn text_specials(word: u64) -> u64 {
    angle_brackets(word) | zero_bytes(word ^ splat(b'&'))
}

/// Flags the bytes of `word` that an attribute value must escape. The
/// pairs `"`/`&` and tab/CR differ in one bit each, as `<`/`>` do.
#[inline(always)]
fn attr_specials(word: u64) -> u64 {
    angle_brackets(word)
        | zero_bytes((word | splat(0x04)) ^ splat(b'&'))
        | zero_bytes((word | splat(0x04)) ^ splat(b'\r'))
        | zero_bytes(word ^ splat(b'\n'))
}

#[inline(always)]
fn text_replacement(b: u8) -> Option<&'static str> {
    match b {
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        b'&' => Some("&amp;"),
        _ => None,
    }
}

#[inline(always)]
fn attr_replacement(b: u8) -> Option<&'static str> {
    match b {
        b'"' => Some("&quot;"),
        b'\t' => Some("&#9;"),
        b'\n' => Some("&#10;"),
        b'\r' => Some("&#13;"),
        _ => text_replacement(b),
    }
}

/// The one escape loop: `specials` flags the bytes of a word that
/// `replacement` substitutes. Whole words are skipped while clean; the
/// sub-word tail goes byte by byte; each clean run is copied once, when
/// the special that ends it (or the end of input) is reached.
#[inline(always)]
fn escape_into(
    input: &str,
    out: &mut Vec<u8>,
    specials: impl Fn(u64) -> u64,
    replacement: impl Fn(u8) -> Option<&'static str>,
) {
    let bytes = input.as_bytes();
    // Once per call: the output is at least as long as the input, and
    // only a substitution past that can make the copies below grow it.
    out.reserve(bytes.len());
    let mut copied = 0;
    let mut at = 0;
    while at < bytes.len() {
        if let Some(word) = bytes.get(at..at + 8) {
            let word = u64::from_le_bytes(word.try_into().expect("an eight-byte slice"));
            let flagged = specials(word);
            if flagged == 0 {
                at += 8;
                continue;
            }
            // Little-endian load: the lowest flagged bit is the first
            // special byte in input order.
            at += (flagged.trailing_zeros() / 8) as usize;
        }
        if let Some(replacement) = replacement(bytes[at]) {
            out.extend_from_slice(&bytes[copied..at]);
            out.extend_from_slice(replacement.as_bytes());
            copied = at + 1;
        }
        at += 1;
    }
    out.extend_from_slice(&bytes[copied..]);
}

/// Escape a string for use as element character data, appending bytes.
///
/// `<`, `&` and `>` are escaped. `>` is only mandatory inside `]]>` but
/// escaping it unconditionally is harmless and simpler.
pub fn escape_text_into(input: &str, out: &mut Vec<u8>) {
    escape_into(input, out, text_specials, text_replacement);
}

/// Escape a string for use inside a double-quoted attribute value,
/// appending bytes.
///
/// In addition to the text escapes, `"` must be escaped, and literal
/// tab/newline/carriage-return are escaped as character references so that
/// attribute-value normalisation cannot change them on re-parse.
pub fn escape_attr_into(input: &str, out: &mut Vec<u8>) {
    escape_into(input, out, attr_specials, attr_replacement);
}

/// Escape element character data into a `String` (see [`escape_text_into`]).
pub fn escape_text(input: &str, out: &mut String) {
    // Escapes only ever insert ASCII, so the buffer stays valid UTF-8.
    escape_text_into(input, unsafe { out.as_mut_vec() });
}

/// Escape an attribute value into a `String` (see [`escape_attr_into`]).
pub fn escape_attr(input: &str, out: &mut String) {
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
    // Fast path: nothing to expand, nothing to allocate. `str::find`
    // with a one-byte needle is std's word-at-a-time `memchr`.
    let Some(first) = input.find('&') else {
        return Ok(Cow::Borrowed(input));
    };
    // References only ever shrink, so this one reservation holds.
    let mut out = String::with_capacity(input.len());
    out.push_str(&input[..first]);
    // Invariant: `rest` starts at a `&`.
    let mut rest = &input[first..];
    loop {
        // The five predefined entities, matched on their bytes; only a
        // character reference (or garbage) goes looking for its `;`.
        let (ch, len) = match rest.as_bytes() {
            [b'&', b'l', b't', b';', ..] => ('<', 4),
            [b'&', b'g', b't', b';', ..] => ('>', 4),
            [b'&', b'a', b'm', b'p', b';', ..] => ('&', 5),
            [b'&', b'q', b'u', b'o', b't', b';', ..] => ('"', 6),
            [b'&', b'a', b'p', b'o', b's', b';', ..] => ('\'', 6),
            _ => {
                let offset = base + (input.len() - rest.len());
                let semi = rest.find(';').ok_or(XmlError::UnexpectedEof {
                    offset,
                    expecting: "';' terminating entity reference",
                })?;
                let entity = &rest[1..semi];
                let ch = parse_char_ref(entity).ok_or_else(|| XmlError::BadEntity {
                    offset,
                    entity: entity.to_owned(),
                })?;
                (ch, semi + 1)
            }
        };
        out.push(ch);
        rest = &rest[len..];
        // Bulk-copy the clean run up to the next reference.
        match rest.find('&') {
            Some(next) => {
                out.push_str(&rest[..next]);
                rest = &rest[next..];
            }
            None => {
                out.push_str(rest);
                return Ok(Cow::Owned(out));
            }
        }
    }
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
