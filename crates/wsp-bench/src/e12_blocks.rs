//! The text kernels as they were before the window walk, for E12's
//! text-kernel table ([`crate::e12::text_kernels`]): both loops read
//! one 16-byte block of [`wsp_xml::scan`] per branch and copy each clean
//! run with a library `memcpy` of its length, and the expander leaves
//! [`Needles::find`](wsp_xml::scan::Needles::find) at the first `&`.
//! The same code as `wsp_xml::escape` had then, but for the refusals,
//! which carry no detail here: the table only times documents both
//! kernels accept, and checks that they agree on them.

use std::borrow::Cow;
use wsp_xml::scan::{self, Needles, BLOCK};

const TEXT_SPECIALS: Needles = Needles::new(b"<>&");
const AMPERSAND: Needles = Needles::new(b"&");
const SEMICOLON: Needles = Needles::new(b";");

/// Escape element character data, appending bytes, a block at a time.
pub fn escape_text_into(input: &str, out: &mut Vec<u8>) {
    let bytes = input.as_bytes();
    out.reserve(bytes.len());
    let mut copied = 0;
    let mut at = 0;
    while at < bytes.len() {
        let (base, mut flagged) = scan::block(bytes, at, |b| TEXT_SPECIALS.mask(b));
        while flagged != 0 {
            let special = base + flagged.trailing_zeros() as usize;
            out.extend_from_slice(&bytes[copied..special]);
            match bytes[special] {
                b'<' => out.extend_from_slice(b"&lt;"),
                b'>' => out.extend_from_slice(b"&gt;"),
                _ => out.extend_from_slice(b"&amp;"),
            }
            copied = special + 1;
            flagged &= flagged - 1;
        }
        at = base + BLOCK;
    }
    out.extend_from_slice(&bytes[copied..]);
}

/// Expand references a block at a time; `None` where the expander
/// refuses the input.
pub fn unescape(input: &str) -> Option<Cow<'_, str>> {
    let bytes = input.as_bytes();
    let Some(first) = AMPERSAND.find(bytes, 0) else {
        return Some(Cow::Borrowed(input));
    };
    let mut out = String::with_capacity(input.len());
    let mut copied = 0;
    let mut at = first;
    while at < bytes.len() {
        let (block, mut references) = scan::block(bytes, at, |b| AMPERSAND.mask(b));
        while references != 0 {
            let amp = block + references.trailing_zeros() as usize;
            references &= references - 1;
            if amp < copied {
                continue;
            }
            out.push_str(&input[copied..amp]);
            let (ch, len) = reference(input, amp)?;
            out.push(ch);
            copied = amp + len;
        }
        at = copied.max(block + BLOCK);
    }
    out.push_str(&input[copied..]);
    Some(Cow::Owned(out))
}

#[inline(always)]
fn reference(input: &str, amp: usize) -> Option<(char, usize)> {
    Some(match &input.as_bytes()[amp..] {
        [b'&', b'l', b't', b';', ..] => ('<', 4),
        [b'&', b'g', b't', b';', ..] => ('>', 4),
        [b'&', b'a', b'm', b'p', b';', ..] => ('&', 5),
        [b'&', b'q', b'u', b'o', b't', b';', ..] => ('"', 6),
        [b'&', b'a', b'p', b'o', b's', b';', ..] => ('\'', 6),
        _ => {
            let semi = SEMICOLON.find(input.as_bytes(), amp)?;
            let body = input[amp + 1..semi].strip_prefix('#')?;
            let code = match body.strip_prefix('x').or_else(|| body.strip_prefix('X')) {
                Some(hex) => u32::from_str_radix(hex, 16).ok()?,
                None => body.parse::<u32>().ok()?,
            };
            let ch = char::from_u32(code)?;
            if !(matches!(ch, '\u{9}' | '\u{A}' | '\u{D}') || ch >= '\u{20}') {
                return None;
            }
            (ch, semi + 1 - amp)
        }
    })
}
