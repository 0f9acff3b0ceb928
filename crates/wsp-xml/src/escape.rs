//! Escaping and entity expansion for character data and attribute values.
//!
//! Every scan here is the one classifier of [`crate::scan`]: the input
//! is read 64 bytes at a time — a window of four 16-byte blocks — into
//! an exact mask of the bytes that matter, the specials an escaper
//! substitutes and the `&` that starts a reference, and every flagged
//! byte of a window is handled from that mask before the next window is
//! loaded. Less than a window from the end, the walk goes on a block at
//! a time. Text pays per window, and text dense with specials pays per
//! special without a fresh scan for each. All those bytes are ASCII, so
//! slicing at their positions always lands on UTF-8 boundaries; a
//! window edge may not, and nothing is cut there as a `str`.
//!
//! An escaper given two windows or more stores each clean run with one
//! 64-byte copy, and each replacement with one 8-byte copy, into zeroed
//! room reserved past the written end, then cuts `out` back to what it
//! wrote: the copies have a fixed width, so none is a library call. The
//! last stretch, less than two windows, and every input shorter than
//! that, appends run by run as before.

use crate::error::{XmlError, XmlResult};
use crate::scan::{self, Needles, BLOCK, WINDOW};
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

/// The replacements of both escapers' specials, each padded to eight
/// bytes, for one fixed-width copy, with its length; indexed by the
/// special itself, as every one of them is below 64. The text
/// classifier flags a subset of the attribute specials, so both
/// escapers share the table.
const PADDED: [([u8; 8], usize); 64] = {
    const fn pad(replacement: &[u8]) -> ([u8; 8], usize) {
        let mut padded = [0; 8];
        let mut i = 0;
        while i < replacement.len() {
            padded[i] = replacement[i];
            i += 1;
        }
        (padded, replacement.len())
    }
    let mut table = [([0; 8], 0); 64];
    table[b'<' as usize] = pad(b"&lt;");
    table[b'>' as usize] = pad(b"&gt;");
    table[b'&' as usize] = pad(b"&amp;");
    table[b'"' as usize] = pad(b"&quot;");
    table[b'\t' as usize] = pad(b"&#9;");
    table[b'\n' as usize] = pad(b"&#10;");
    table[b'\r' as usize] = pad(b"&#13;");
    table
};

/// The room a window may write past the written end: every byte a
/// special with the longest replacement (`&quot;`), then the 64-byte
/// copy of the run after the last of them.
const WINDOW_ROOM: usize = 6 * WINDOW + WINDOW;

/// [`escape_into`]'s window loop: escapes `bytes` a window at a time
/// while a second window follows the one at hand, and returns how many
/// bytes it escaped. The run before each special, and the one after
/// the last, is copied 64 bytes wide from where it starts; the copy
/// reads at most into the next window, which is there, and writes into
/// the room reserved ahead, where the next store overwrites what lies
/// past the run. `out` ends cut back to what was written. Out of line,
/// so that short input compiles to the block loop alone.
#[inline(never)]
fn escape_windows(
    bytes: &[u8],
    out: &mut Vec<u8>,
    specials: impl Fn(&[u8; BLOCK]) -> u16,
) -> usize {
    let mut written = out.len();
    let mut at = 0;
    while bytes.len() - at >= 2 * WINDOW {
        if out.len() - written < WINDOW_ROOM {
            // The rest at a byte per byte, and the worst window: text
            // with few specials grows it a few times per input.
            out.resize(written + (bytes.len() - at) + WINDOW_ROOM, 0);
        }
        let mut flagged = scan::window(bytes, at, &specials);
        let mut copied = at;
        while flagged != 0 {
            let special = at + flagged.trailing_zeros() as usize;
            out[written..][..WINDOW].copy_from_slice(&bytes[copied..][..WINDOW]);
            written += special - copied;
            let (padded, len) = PADDED[usize::from(bytes[special] % 64)];
            out[written..][..8].copy_from_slice(&padded);
            written += len;
            copied = special + 1;
            flagged &= flagged - 1;
        }
        out[written..][..WINDOW].copy_from_slice(&bytes[copied..][..WINDOW]);
        written += at + WINDOW - copied;
        at += WINDOW;
    }
    out.truncate(written);
    at
}

/// The one escape loop: `specials` flags the bytes of a block that
/// `push_replacement` substitutes. Input of two windows or more goes
/// through [`escape_windows`] first; what is left, each clean run is
/// copied once, when the special that ends it (or the end of input) is
/// reached.
#[inline(always)]
fn escape_into(
    input: &str,
    out: &mut Vec<u8>,
    specials: impl Fn(&[u8; BLOCK]) -> u16,
    push_replacement: impl Fn(u8, &mut Vec<u8>),
) {
    let mut bytes = input.as_bytes();
    if bytes.len() >= 2 * WINDOW {
        bytes = &bytes[escape_windows(bytes, out, &specials)..];
    }
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
    // `out` holds valid UTF-8 again when the borrow ends. The window
    // loop's fixed-width copies also store bytes past the written end,
    // part of a character among them, but it cuts `out` back to the
    // written end before it returns.
    escape_text_into(input, unsafe { out.as_mut_vec() });
}

/// Escape an attribute value into a `String` (see [`escape_attr_into`]).
pub fn escape_attr(input: &str, out: &mut String) {
    // SAFETY: as in `escape_text`: `input` cut only at ASCII bytes,
    // plus ASCII replacements, keeps `out` valid UTF-8 once the window
    // loop has cut off what it stored past the written end.
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
    // `input[..copied]` is in `out`, expanded.
    let (mut out, mut copied) = match bytes.len() - first >= 2 * WINDOW {
        true => expand_windows(input, first, base)?,
        // References only ever shrink, so this one reservation holds.
        false => (String::with_capacity(input.len()), 0),
    };
    let mut at = copied.max(first);
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

/// [`unescape`]'s window loop, from the first `&`, at `first`: expands
/// `input` a window at a time while a second window follows the one at
/// hand, and returns the expansion so far, in a `String` with room for
/// the rest, and how far it got — to a character boundary, where the
/// block loop goes on. The buffer is zeroed to the input's length,
/// which no expansion outgrows: every reference is longer than its
/// character by three bytes at least — `&#9;` stands for one byte,
/// `&#128;` for two, `&#2048;` for three, `&#65536;` for four.
/// The run before each reference is copied 64 bytes wide and its
/// character stored four wide, all inside the room the input left; a
/// reference that straddles a window edge is read whole, and the next
/// window starts past its end. Out of line: compiled apart from the
/// block loop, the window loop keeps more of its state in registers.
#[inline(never)]
fn expand_windows(input: &str, first: usize, base: usize) -> XmlResult<(String, usize)> {
    let bytes = input.as_bytes();
    let mut out = Vec::with_capacity(input.len());
    out.extend_from_slice(&bytes[..first]);
    out.resize(bytes.len(), 0);
    let (mut written, mut copied, mut at) = (first, first, first);
    while bytes.len() - at >= 2 * WINDOW {
        let mut references = scan::window(bytes, at, |b| AMPERSAND.mask(b));
        while references != 0 {
            let amp = at + references.trailing_zeros() as usize;
            references &= references - 1;
            if amp < copied {
                continue;
            }
            out[written..][..WINDOW].copy_from_slice(&bytes[copied..][..WINDOW]);
            written += amp - copied;
            let (ch, len) = reference(input, amp, base)?;
            let mut encoded = [0; 4];
            ch.encode_utf8(&mut encoded);
            out[written..][..4].copy_from_slice(&encoded);
            written += ch.len_utf8();
            copied = amp + len;
        }
        if copied < at + WINDOW {
            out[written..][..WINDOW].copy_from_slice(&bytes[copied..][..WINDOW]);
            written += at + WINDOW - copied;
            copied = at + WINDOW;
        }
        at = copied;
    }
    // A window edge may cut a character; the bytes of its start were
    // copied as they are, so the block loop can take them again.
    let cut = copied - input.floor_char_boundary(copied);
    out.truncate(written - cut);
    let out = String::from_utf8(out).expect("runs cut at characters, and whole characters");
    Ok((out, copied - cut))
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
