//! A pull tokenizer over a UTF-8 document.
//!
//! The tokenizer is zero-copy: every token borrows slices of the input.
//! Entity expansion and namespace resolution are the reader's job; this
//! layer only finds the lexical structure.
//!
//! It scans bytes, not chars. Every byte it stops at or steps over is
//! ASCII (`<`, `>`, `/`, `=`, `?`, a quote, one of XML's four whitespace
//! bytes), and in UTF-8 no byte of a multi-byte character is below
//! 0x80 — so `pos` only ever rests on a character boundary and every
//! slice taken between two such positions is a valid `str`. The long
//! runs, text and attribute values, are found sixteen bytes at a time by
//! the block classifier of [`crate::scan`].

use crate::error::{XmlError, XmlResult};
use crate::scan::Needles;

/// One lexical token. `offset` is the byte position of the token start,
/// for error reporting. `'a` is the document; `'t` is the tokenizer,
/// which lends a start tag its attribute list until the next call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token<'a, 't> {
    /// `<?xml ... ?>` — contents are not interpreted (documents are
    /// always UTF-8 `str`s already).
    Declaration { offset: usize },
    /// `<name a="v" ...>` or `<name ... />`.
    StartTag {
        name: &'a str,
        attrs: &'t [(&'a str, &'a str)],
        self_closing: bool,
        offset: usize,
    },
    /// `</name>`.
    EndTag { name: &'a str, offset: usize },
    /// Raw character data between tags; entities not yet expanded.
    Text { raw: &'a str, offset: usize },
    /// `<![CDATA[ ... ]]>` contents, verbatim.
    CData { text: &'a str, offset: usize },
    /// `<!-- ... -->` contents, verbatim.
    Comment { text: &'a str, offset: usize },
    /// `<?target data?>`.
    Pi {
        target: &'a str,
        data: &'a str,
        offset: usize,
    },
}

/// What ends a text run.
const MARKUP: Needles = Needles::new(b"<");

/// XML's `S` production: exactly these four, not Unicode's `White_Space`.
#[inline]
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | b'\n')
}

/// Iterator-style tokenizer. Call [`Tokenizer::next_token`] until it
/// returns `Ok(None)`.
pub struct Tokenizer<'a> {
    input: &'a str,
    pos: usize,
    /// Attributes of the start tag returned last; one buffer for the
    /// whole document instead of one `Vec` per tag.
    attrs: Vec<(&'a str, &'a str)>,
}

impl<'a> Tokenizer<'a> {
    pub fn new(input: &'a str) -> Self {
        Tokenizer {
            input,
            pos: 0,
            attrs: Vec::new(),
        }
    }

    /// The length of the document, for errors that point at its end.
    pub(crate) fn input_len(&self) -> usize {
        self.input.len()
    }

    /// The attributes of the start tag returned last, as that token
    /// lent them.
    pub fn attrs(&self) -> &[(&'a str, &'a str)] {
        &self.attrs
    }

    pub fn next_token(&mut self) -> XmlResult<Option<Token<'a, '_>>> {
        let rest = &self.input.as_bytes()[self.pos..];
        let token = match rest {
            [] => return Ok(None),
            [b'<', b'/', ..] => self.end_tag(),
            [b'<', b'?', ..] => self.pi_or_decl(),
            [b'<', b'!', ..] if rest.starts_with(b"<!--") => self.comment(),
            [b'<', b'!', ..] if rest.starts_with(b"<![CDATA[") => self.cdata(),
            // DOCTYPE and friends are deliberately unsupported: WSPeer
            // documents never carry DTDs and external entities are a
            // security hazard.
            [b'<', b'!', ..] => Err(XmlError::UnexpectedChar {
                offset: self.pos + 1,
                found: '!',
                expecting: "element, comment or CDATA (DTDs unsupported)",
            }),
            [b'<', ..] => self.start_tag(),
            _ => self.text(),
        };
        token.map(Some)
    }

    fn text<'t>(&mut self) -> XmlResult<Token<'a, 't>> {
        let offset = self.pos;
        let bytes = self.input.as_bytes();
        self.pos = MARKUP.find(bytes, offset).unwrap_or(bytes.len());
        Ok(Token::Text {
            raw: &self.input[offset..self.pos],
            offset,
        })
    }

    fn comment<'t>(&mut self) -> XmlResult<Token<'a, 't>> {
        let offset = self.pos;
        let body_start = self.pos + 4; // past "<!--"
        let rest = &self.input[body_start..];
        let end = rest.find("-->").ok_or(XmlError::UnexpectedEof {
            offset,
            expecting: "'-->' terminating comment",
        })?;
        self.pos = body_start + end + 3;
        Ok(Token::Comment {
            text: &rest[..end],
            offset,
        })
    }

    fn cdata<'t>(&mut self) -> XmlResult<Token<'a, 't>> {
        let offset = self.pos;
        let body_start = self.pos + 9; // past "<![CDATA["
        let rest = &self.input[body_start..];
        let end = rest.find("]]>").ok_or(XmlError::UnexpectedEof {
            offset,
            expecting: "']]>' terminating CDATA section",
        })?;
        self.pos = body_start + end + 3;
        Ok(Token::CData {
            text: &rest[..end],
            offset,
        })
    }

    fn pi_or_decl<'t>(&mut self) -> XmlResult<Token<'a, 't>> {
        let offset = self.pos;
        let body_start = self.pos + 2; // past "<?"
        let rest = &self.input[body_start..];
        let end = rest.find("?>").ok_or(XmlError::UnexpectedEof {
            offset,
            expecting: "'?>' terminating processing instruction",
        })?;
        let body = &rest[..end];
        self.pos = body_start + end + 2;
        let (target, data) = match body.bytes().position(is_space) {
            Some(ws) => (
                &body[..ws],
                body[ws..].trim_start_matches(|c| u8::try_from(c).is_ok_and(is_space)),
            ),
            None => (body, ""),
        };
        if target.eq_ignore_ascii_case("xml") {
            Ok(Token::Declaration { offset })
        } else {
            Ok(Token::Pi {
                target,
                data,
                offset,
            })
        }
    }

    fn end_tag<'t>(&mut self) -> XmlResult<Token<'a, 't>> {
        let offset = self.pos;
        self.pos += 2; // past "</"
        let name = self.read_name()?;
        self.skip_ws();
        self.expect(b'>', "'>'")?;
        Ok(Token::EndTag { name, offset })
    }

    fn start_tag(&mut self) -> XmlResult<Token<'a, '_>> {
        let offset = self.pos;
        self.pos += 1; // past "<"
        let name = self.read_name()?;
        self.attrs.clear();
        let self_closing = loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    break false;
                }
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(b'>', "'>'")?;
                    break true;
                }
                Some(_) => {
                    let attr_offset = self.pos;
                    let aname = self.read_name()?;
                    self.skip_ws();
                    self.expect(b'=', "'='")?;
                    self.skip_ws();
                    let value = self.read_quoted()?;
                    if self.attrs.iter().any(|(n, _)| *n == aname) {
                        return Err(XmlError::DuplicateAttribute {
                            offset: attr_offset,
                            name: aname.to_owned(),
                        });
                    }
                    self.attrs.push((aname, value));
                }
                None => {
                    return Err(XmlError::UnexpectedEof {
                        offset: self.pos,
                        expecting: "'>' closing tag",
                    })
                }
            }
        };
        Ok(Token::StartTag {
            name,
            attrs: &self.attrs,
            self_closing,
            offset,
        })
    }

    fn read_name(&mut self) -> XmlResult<&'a str> {
        let start = self.pos;
        let rest = &self.input[start..];
        // Bytes outside 0x20..0x80 are legal in a name only as parts of
        // a non-ASCII letter; a name that has one is looked at again.
        let mut plain = true;
        let len = rest
            .bytes()
            .position(|b| {
                plain &= (0x20..0x80).contains(&b);
                is_space(b) || matches!(b, b'>' | b'/' | b'=' | b'<')
            })
            .unwrap_or(rest.len());
        if len == 0 {
            // Report the offending char inline — no String for a one-char
            // diagnostic on a path tests exercise constantly.
            return Err(match rest.chars().next() {
                Some(found) => XmlError::UnexpectedChar {
                    offset: start,
                    found,
                    expecting: "name start character",
                },
                None => XmlError::UnexpectedEof {
                    offset: start,
                    expecting: "name",
                },
            });
        }
        let name = &rest[..len];
        // What Unicode calls whitespace is not XML's `S`, so it did not
        // end the name — and no XML parser would let it be part of one.
        if !plain && name.contains(|c: char| c.is_whitespace() || c.is_control()) {
            return Err(XmlError::BadName {
                offset: start,
                name: name.to_owned(),
            });
        }
        self.pos += len;
        Ok(name)
    }

    fn read_quoted(&mut self) -> XmlResult<&'a str> {
        let quote = match self.peek() {
            Some(quote @ (b'"' | b'\'')) => quote,
            Some(_) => {
                return Err(self.unexpected("'\"' or '\\'' starting attribute value"));
            }
            None => {
                return Err(XmlError::UnexpectedEof {
                    offset: self.pos,
                    expecting: "quoted attribute value",
                })
            }
        };
        let start = self.pos + 1;
        let end = Needles::new(&[quote])
            .find(self.input.as_bytes(), start)
            .ok_or(XmlError::UnexpectedEof {
                offset: start,
                expecting: "closing attribute quote",
            })?;
        self.pos = end + 1;
        Ok(&self.input[start..end])
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(is_space) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    /// The character at `pos` where `expecting` was required.
    fn unexpected(&self, expecting: &'static str) -> XmlError {
        match self.input[self.pos..].chars().next() {
            Some(found) => XmlError::UnexpectedChar {
                offset: self.pos,
                found,
                expecting,
            },
            None => XmlError::UnexpectedEof {
                offset: self.pos,
                expecting: "more input",
            },
        }
    }

    fn expect(&mut self, delimiter: u8, expecting: &'static str) -> XmlResult<()> {
        if self.peek() != Some(delimiter) {
            return Err(self.unexpected(expecting));
        }
        self.pos += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tokens outlive the tokenizer here, so each start tag's lent
    /// attribute list is copied out (and leaked: these are tests).
    fn all_tokens(input: &str) -> Vec<Token<'_, '_>> {
        let mut t = Tokenizer::new(input);
        let mut out = Vec::new();
        while let Some(tok) = t.next_token().unwrap() {
            out.push(match tok {
                Token::StartTag {
                    name,
                    attrs,
                    self_closing,
                    offset,
                } => Token::StartTag {
                    name,
                    attrs: Vec::leak(attrs.to_vec()),
                    self_closing,
                    offset,
                },
                Token::Declaration { offset } => Token::Declaration { offset },
                Token::EndTag { name, offset } => Token::EndTag { name, offset },
                Token::Text { raw, offset } => Token::Text { raw, offset },
                Token::CData { text, offset } => Token::CData { text, offset },
                Token::Comment { text, offset } => Token::Comment { text, offset },
                Token::Pi {
                    target,
                    data,
                    offset,
                } => Token::Pi {
                    target,
                    data,
                    offset,
                },
            });
        }
        out
    }

    #[test]
    fn simple_element() {
        let toks = all_tokens("<a>hi</a>");
        assert_eq!(
            toks,
            vec![
                Token::StartTag {
                    name: "a",
                    attrs: &[],
                    self_closing: false,
                    offset: 0
                },
                Token::Text {
                    raw: "hi",
                    offset: 3
                },
                Token::EndTag {
                    name: "a",
                    offset: 5
                },
            ]
        );
    }

    #[test]
    fn self_closing_with_attrs() {
        let toks = all_tokens(r#"<a x="1" y='2'/>"#);
        assert_eq!(
            toks,
            vec![Token::StartTag {
                name: "a",
                attrs: &[("x", "1"), ("y", "2")],
                self_closing: true,
                offset: 0
            }]
        );
    }

    #[test]
    fn whitespace_inside_tags_tolerated() {
        let toks = all_tokens("<a  x = \"1\"  ></a >");
        assert!(
            matches!(&toks[0], Token::StartTag { name: "a", attrs, .. } if attrs == &[("x", "1")])
        );
        assert!(matches!(&toks[1], Token::EndTag { name: "a", .. }));
    }

    #[test]
    fn declaration_comment_cdata_pi() {
        let toks = all_tokens("<?xml version=\"1.0\"?><!--c--><r><![CDATA[<raw>&]]><?go now?></r>");
        assert!(matches!(toks[0], Token::Declaration { .. }));
        assert!(matches!(toks[1], Token::Comment { text: "c", .. }));
        assert!(matches!(toks[3], Token::CData { text: "<raw>&", .. }));
        assert!(matches!(
            toks[4],
            Token::Pi {
                target: "go",
                data: "now",
                ..
            }
        ));
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let mut t = Tokenizer::new(r#"<a x="1" x="2"/>"#);
        assert!(matches!(
            t.next_token(),
            Err(XmlError::DuplicateAttribute { .. })
        ));
    }

    #[test]
    fn unterminated_comment() {
        let mut t = Tokenizer::new("<!-- never ends");
        assert!(matches!(
            t.next_token(),
            Err(XmlError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn unterminated_attribute() {
        let mut t = Tokenizer::new(r#"<a x="1></a>"#);
        assert!(matches!(
            t.next_token(),
            Err(XmlError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn doctype_rejected() {
        let mut t = Tokenizer::new("<!DOCTYPE html><a/>");
        assert!(matches!(
            t.next_token(),
            Err(XmlError::UnexpectedChar { .. })
        ));
    }

    #[test]
    fn missing_equals_rejected() {
        let mut t = Tokenizer::new("<a x\"1\"/>");
        assert!(matches!(
            t.next_token(),
            Err(XmlError::UnexpectedChar { .. })
        ));
    }

    #[test]
    fn attribute_value_keeps_raw_entities() {
        let toks = all_tokens(r#"<a x="&amp;"/>"#);
        assert!(matches!(&toks[0], Token::StartTag { attrs, .. } if attrs == &[("x", "&amp;")]));
    }

    #[test]
    fn offsets_are_byte_positions() {
        let toks = all_tokens("<aé/>x");
        match &toks[1] {
            Token::Text { raw: "x", offset } => assert_eq!(*offset, 6), // 'é' is 2 bytes
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn whitespace_is_xmls_four_bytes_not_unicodes() {
        let toks = all_tokens("<a\tx\r=\n\"1\" y = '2'\n/>");
        assert!(
            matches!(&toks[0], Token::StartTag { attrs, .. } if attrs == &[("x", "1"), ("y", "2")])
        );
        let bad_name = |offset, name: &str| XmlError::BadName {
            offset,
            name: name.to_owned(),
        };
        // Each of these parsed as `a[b=1]` (the last with an attribute
        // named `b\u{85}`) while `skip_ws` was `str::trim_start`.
        let refused = [
            ("<a \u{2003}b=\"1\"/>", bad_name(3, "\u{2003}b")),
            ("<a \u{c}b=\"1\"/>", bad_name(3, "\u{c}b")),
            (
                "<a b =\u{a0}'1'/>",
                XmlError::UnexpectedChar {
                    offset: 6,
                    found: '\u{a0}',
                    expecting: "'\"' or '\\'' starting attribute value",
                },
            ),
            ("<a b\u{85}=\u{2028}\"1\"/>", bad_name(3, "b\u{85}")),
        ];
        for (doc, error) in refused {
            assert_eq!(Tokenizer::new(doc).next_token(), Err(error), "{doc:?}");
        }
        // Letters beyond ASCII are still names.
        assert!(matches!(
            all_tokens("<é:ü/>")[0],
            Token::StartTag { name: "é:ü", .. }
        ));
    }
}
