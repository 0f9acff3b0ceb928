//! Error type for XML parsing and serialisation.

use std::fmt;

/// Result alias used throughout the crate.
pub type XmlResult<T> = Result<T, XmlError>;

/// An error raised while tokenizing, parsing or writing XML.
///
/// Every parse-side variant carries the byte offset into the input at which
/// the problem was detected, so callers (the SOAP codec in particular) can
/// produce faults that point at the offending octet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlError {
    /// Input ended in the middle of a construct.
    UnexpectedEof {
        offset: usize,
        expecting: &'static str,
    },
    /// A character that may not appear at this position.
    UnexpectedChar {
        offset: usize,
        found: char,
        expecting: &'static str,
    },
    /// `</b>` closing an element opened as `<a>`.
    MismatchedTag {
        offset: usize,
        open: String,
        close: String,
    },
    /// Text or a close tag appearing before any open tag, or content after
    /// the document element closed.
    ContentOutsideRoot { offset: usize },
    /// The document contained no root element at all.
    NoRootElement,
    /// An entity reference that is neither predefined nor a valid
    /// character reference. `entity` is what stood between its `&` and
    /// `;`, cut to at most 64 bytes at a character boundary.
    BadEntity { offset: usize, entity: String },
    /// A prefixed name whose prefix has no in-scope namespace declaration.
    UnboundPrefix { offset: usize, prefix: String },
    /// The same attribute appeared twice on one element.
    DuplicateAttribute { offset: usize, name: String },
    /// An invalid XML name (empty, or starting with a forbidden char).
    BadName { offset: usize, name: String },
    /// Structure handed to the writer cannot be serialised (e.g. an
    /// attempt to bind the reserved `xmlns` prefix).
    Unwritable { reason: String },
    /// Document exceeded a configured safety limit (depth or length).
    LimitExceeded { what: &'static str, limit: usize },
}

impl XmlError {
    /// Byte offset of the error within the parsed input, if it came from
    /// the parse side.
    pub fn offset(&self) -> Option<usize> {
        match self {
            XmlError::UnexpectedEof { offset, .. }
            | XmlError::UnexpectedChar { offset, .. }
            | XmlError::MismatchedTag { offset, .. }
            | XmlError::ContentOutsideRoot { offset }
            | XmlError::BadEntity { offset, .. }
            | XmlError::UnboundPrefix { offset, .. }
            | XmlError::DuplicateAttribute { offset, .. }
            | XmlError::BadName { offset, .. } => Some(*offset),
            XmlError::NoRootElement
            | XmlError::Unwritable { .. }
            | XmlError::LimitExceeded { .. } => None,
        }
    }
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::UnexpectedEof { offset, expecting } => {
                write!(
                    f,
                    "unexpected end of input at byte {offset}, expecting {expecting}"
                )
            }
            XmlError::UnexpectedChar {
                offset,
                found,
                expecting,
            } => {
                write!(
                    f,
                    "unexpected character {found:?} at byte {offset}, expecting {expecting}"
                )
            }
            XmlError::MismatchedTag {
                offset,
                open,
                close,
            } => {
                write!(
                    f,
                    "mismatched tags at byte {offset}: <{open}> closed by </{close}>"
                )
            }
            XmlError::ContentOutsideRoot { offset } => {
                write!(f, "content outside the document element at byte {offset}")
            }
            XmlError::NoRootElement => write!(f, "document contains no root element"),
            XmlError::BadEntity { offset, entity } => {
                write!(f, "unknown entity &{entity}; at byte {offset}")
            }
            XmlError::UnboundPrefix { offset, prefix } => {
                write!(
                    f,
                    "prefix {prefix:?} is not bound to a namespace at byte {offset}"
                )
            }
            XmlError::DuplicateAttribute { offset, name } => {
                write!(f, "duplicate attribute {name:?} at byte {offset}")
            }
            XmlError::BadName { offset, name } => {
                write!(f, "invalid XML name {name:?} at byte {offset}")
            }
            XmlError::Unwritable { reason } => write!(f, "cannot serialise: {reason}"),
            XmlError::LimitExceeded { what, limit } => {
                write!(f, "document exceeds {what} limit of {limit}")
            }
        }
    }
}

impl std::error::Error for XmlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_offset() {
        let e = XmlError::UnexpectedChar {
            offset: 7,
            found: '<',
            expecting: "attribute name",
        };
        let s = e.to_string();
        assert!(s.contains("byte 7"), "{s}");
        assert_eq!(e.offset(), Some(7));
    }

    #[test]
    fn writer_errors_have_no_offset() {
        let e = XmlError::Unwritable {
            reason: "xmlns rebind".into(),
        };
        assert_eq!(e.offset(), None);
    }

    #[test]
    fn limit_error_display() {
        let e = XmlError::LimitExceeded {
            what: "nesting depth",
            limit: 128,
        };
        assert!(e.to_string().contains("nesting depth"));
    }
}
