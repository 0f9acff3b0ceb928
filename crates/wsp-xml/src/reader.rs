//! Tree builder: turns tokens into an [`Element`] with namespaces
//! resolved and entities expanded.

use crate::error::{XmlError, XmlResult};
use crate::escape::unescape;
use crate::name::{split_prefixed, NameStr, NameTable, QName, XML_NS};
use crate::tokenizer::{Token, Tokenizer};
use crate::tree::{Attribute, Element, Node};

/// Maximum element nesting depth accepted by [`parse`]. Deep enough for
/// any real SOAP/WSDL document, shallow enough to stop stack abuse from
/// hostile peers.
pub const MAX_DEPTH: usize = 256;

/// The namespace declarations in scope, innermost last: the prefix as
/// the document wrote it and its URI, interned once here for every
/// name that will resolve through it.
type Scopes<'a> = Vec<(&'a str, NameStr)>;

/// An element whose end tag has not been seen yet.
struct Open<'a> {
    /// The name as written; an end tag must repeat it exactly.
    lexical: &'a str,
    element: Element,
    /// How many declarations were in scope outside this element.
    outer_scopes: usize,
    /// Layout whitespace exists only where both of these were seen.
    has_element_child: bool,
    has_blank_text: bool,
}

/// Parse a complete document and return its root element.
///
/// * Namespace prefixes are resolved to URIs; the tree stores only
///   expanded [`QName`]s.
/// * Entity and character references are expanded in text and attribute
///   values.
/// * Whitespace-only text nodes are dropped from elements that also have
///   element children (pretty-printed input), but preserved in
///   text-only elements so values survive round trips.
/// * Comments and processing instructions around the root are discarded;
///   inside the tree they are preserved.
pub fn parse(input: &str) -> XmlResult<Element> {
    let mut tokens = Tokenizer::new(input);
    // Sized for an envelope — eight prefixes in scope, elements sixteen
    // deep — so neither grows while one is read.
    let mut scopes = Scopes::with_capacity(8);
    let names = NameTable::global();
    let mut stack: Vec<Open> = Vec::with_capacity(16);
    let mut root: Option<Element> = None;

    while let Some(tok) = tokens.next_token()? {
        match tok {
            Token::Declaration { .. } => {}
            Token::Comment { text, .. } => {
                if let Some(parent) = stack.last_mut() {
                    let comment = Node::Comment(text.to_owned());
                    parent.element.children_mut().push(comment);
                }
            }
            Token::Pi { target, data, .. } => {
                if let Some(parent) = stack.last_mut() {
                    let pi = Node::ProcessingInstruction {
                        target: target.to_owned(),
                        data: data.to_owned(),
                    };
                    parent.element.children_mut().push(pi);
                }
            }
            Token::Text { raw, offset } => {
                let text = unescape(raw, offset)?;
                let blank = text.trim().is_empty();
                match stack.last_mut() {
                    Some(parent) => {
                        parent.has_blank_text |= blank;
                        let text = Node::Text(text.into_owned());
                        parent.element.children_mut().push(text);
                    }
                    None if blank => {}
                    None => return Err(XmlError::ContentOutsideRoot { offset }),
                }
            }
            Token::CData { text, offset } => match stack.last_mut() {
                Some(parent) => {
                    let cdata = Node::CData(text.to_owned());
                    parent.element.children_mut().push(cdata);
                }
                None => return Err(XmlError::ContentOutsideRoot { offset }),
            },
            Token::StartTag {
                name,
                attrs,
                self_closing,
                offset,
            } => {
                if root.is_some() && stack.is_empty() {
                    return Err(XmlError::ContentOutsideRoot { offset });
                }
                if stack.len() >= MAX_DEPTH {
                    return Err(XmlError::LimitExceeded {
                        what: "nesting depth",
                        limit: MAX_DEPTH,
                    });
                }
                let outer_scopes = scopes.len();
                // First pass: namespace declarations open a new scope for
                // this very element, so collect them before resolving.
                let mut plain_attrs = 0;
                for (aname, raw_value) in attrs {
                    match declared_prefix(aname) {
                        Some(prefix) => {
                            let uri = unescape(raw_value, offset)?;
                            if *aname != "xmlns" && (prefix.is_empty() || uri.is_empty()) {
                                return Err(XmlError::BadName {
                                    offset,
                                    name: (*aname).to_owned(),
                                });
                            }
                            scopes.push((prefix, names.intern(&uri)));
                        }
                        None => plain_attrs += 1,
                    }
                }
                // The element is built where it will wait for its end
                // tag: a tree node is moved once, into its parent.
                let (prefix, local) = split_prefixed(name);
                let uri = resolve(&scopes, prefix, offset)?;
                stack.push(Open {
                    lexical: name,
                    element: Element::with_name(QName::from_interned(uri, names.intern(local))),
                    outer_scopes,
                    has_element_child: false,
                    has_blank_text: false,
                });
                if plain_attrs > 0 {
                    let element = &mut stack.last_mut().expect("just pushed").element;
                    read_attributes(element, attrs, plain_attrs, &scopes, names, offset)?;
                }
                if self_closing {
                    close(&mut stack, &mut scopes, &mut root);
                }
            }
            Token::EndTag { name, offset } => {
                let open = stack
                    .last()
                    .ok_or(XmlError::ContentOutsideRoot { offset })?;
                if open.lexical != name {
                    return Err(XmlError::MismatchedTag {
                        offset,
                        open: open.lexical.to_owned(),
                        close: name.to_owned(),
                    });
                }
                close(&mut stack, &mut scopes, &mut root);
            }
        }
    }

    if let Some(open) = stack.last() {
        return Err(XmlError::UnexpectedEof {
            offset: input.len(),
            expecting: match open.lexical.is_empty() {
                true => "closing tag",
                false => "closing tag for open element",
            },
        });
    }
    root.ok_or(XmlError::NoRootElement)
}

/// The prefix that attribute `aname` declares: `""` for `xmlns`, `p`
/// for `xmlns:p`, nothing for any other attribute.
fn declared_prefix(aname: &str) -> Option<&str> {
    match aname.strip_prefix("xmlns")? {
        "" => Some(""),
        rest => rest.strip_prefix(':'),
    }
}

/// The URI `prefix` is bound to, or the error for a prefix that is
/// not. The empty prefix resolves to the default namespace (possibly
/// none); `xml` is always bound.
fn resolve(scopes: &Scopes, prefix: &str, offset: usize) -> XmlResult<NameStr> {
    if prefix == "xml" {
        return Ok(NameStr::Static(XML_NS));
    }
    match scopes.iter().rev().find(|(p, _)| *p == prefix) {
        Some((_, uri)) => Ok(uri.clone()),
        None if prefix.is_empty() => Ok(NameStr::Static("")),
        None => Err(XmlError::UnboundPrefix {
            offset,
            prefix: prefix.to_owned(),
        }),
    }
}

/// Second pass over a start tag: everything that is not a declaration
/// becomes an attribute of `element`.
fn read_attributes(
    element: &mut Element,
    attrs: &[(&str, &str)],
    plain_attrs: usize,
    scopes: &Scopes,
    names: &NameTable,
    offset: usize,
) -> XmlResult<()> {
    element.attributes_mut().reserve_exact(plain_attrs);
    for (aname, raw_value) in attrs {
        if declared_prefix(aname).is_some() {
            continue; // consumed as a declaration by the first pass
        }
        let (aprefix, alocal) = split_prefixed(aname);
        // Per Namespaces-in-XML, unprefixed attributes are in *no*
        // namespace regardless of the default namespace.
        let auri = match aprefix {
            "" => NameStr::Static(""),
            _ => resolve(scopes, aprefix, offset)?,
        };
        let name = QName::from_interned(auri, names.intern(alocal));
        // The tokenizer already rejects lexically identical duplicates;
        // this catches the same *expanded* name via different prefixes.
        if element.attributes().iter().any(|a| a.name == name) {
            return Err(XmlError::DuplicateAttribute {
                offset,
                name: format!("{name:?}"),
            });
        }
        let value = unescape(raw_value, offset)?.into_owned();
        element.attributes_mut().push(Attribute { name, value });
    }
    Ok(())
}

/// The innermost open element is complete: hand it to its parent, or
/// make it the root.
fn close(stack: &mut Vec<Open>, scopes: &mut Scopes, root: &mut Option<Element>) {
    let Some(mut open) = stack.pop() else { return };
    // Whitespace-only text beside element children is indentation,
    // not data.
    if open.has_element_child && open.has_blank_text {
        open.element
            .children_mut()
            .retain(|c| !matches!(c, Node::Text(t) if t.trim().is_empty()));
    }
    scopes.truncate(open.outer_scopes);
    match stack.last_mut() {
        Some(parent) => {
            parent.has_element_child = true;
            parent.element.push_element(open.element);
        }
        None => *root = Some(open.element),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_default_namespace() {
        let e = parse(r#"<a xmlns="urn:d"><b/></a>"#).unwrap();
        assert!(e.name().is("urn:d", "a"));
        assert!(e.child_elements().next().unwrap().name().is("urn:d", "b"));
    }

    #[test]
    fn resolves_prefixes_with_shadowing() {
        let e = parse(r#"<p:a xmlns:p="urn:1"><p:b xmlns:p="urn:2"/><p:c/></p:a>"#).unwrap();
        assert!(e.name().is("urn:1", "a"));
        let kids: Vec<_> = e.child_elements().collect();
        assert!(kids[0].name().is("urn:2", "b"));
        assert!(kids[1].name().is("urn:1", "c"));
    }

    #[test]
    fn unprefixed_attribute_has_no_namespace() {
        let e = parse(r#"<a xmlns="urn:d" x="1"/>"#).unwrap();
        assert_eq!(e.attribute("", "x"), Some("1"));
        assert_eq!(e.attribute("urn:d", "x"), None);
    }

    #[test]
    fn prefixed_attribute_resolved() {
        let e = parse(r#"<a xmlns:q="urn:q" q:x="1"/>"#).unwrap();
        assert_eq!(e.attribute("urn:q", "x"), Some("1"));
    }

    #[test]
    fn unbound_prefix_is_error() {
        assert!(matches!(
            parse("<q:a/>"),
            Err(XmlError::UnboundPrefix { .. })
        ));
        assert!(matches!(
            parse("<a q:x='1'/>"),
            Err(XmlError::UnboundPrefix { .. })
        ));
    }

    #[test]
    fn mismatched_tags_rejected() {
        assert!(matches!(
            parse("<a><b></a></b>"),
            Err(XmlError::MismatchedTag { .. })
        ));
    }

    #[test]
    fn text_around_root_must_be_whitespace() {
        assert!(parse("  <a/>\n").is_ok());
        assert!(matches!(
            parse("x<a/>"),
            Err(XmlError::ContentOutsideRoot { .. })
        ));
        assert!(matches!(
            parse("<a/><b/>"),
            Err(XmlError::ContentOutsideRoot { .. })
        ));
    }

    #[test]
    fn entities_expanded_in_text_and_attrs() {
        let e = parse(r#"<a x="&lt;&#33;">&amp;ok</a>"#).unwrap();
        assert_eq!(e.attribute_local("x"), Some("<!"));
        assert_eq!(e.text(), "&ok");
    }

    #[test]
    fn layout_whitespace_stripped_but_data_whitespace_kept() {
        let e = parse("<a>\n  <b/>\n</a>").unwrap();
        assert_eq!(e.children().len(), 1);
        let t = parse("<a>   </a>").unwrap();
        assert_eq!(t.text(), "   ");
    }

    #[test]
    fn cdata_preserved_verbatim() {
        let e = parse("<a><![CDATA[<not> & parsed]]></a>").unwrap();
        assert_eq!(e.text(), "<not> & parsed");
    }

    #[test]
    fn duplicate_expanded_attribute_rejected() {
        // Same expanded name via two prefixes.
        let doc = r#"<a xmlns:p="urn:q" xmlns:r="urn:q" p:x="1" r:x="2"/>"#;
        assert!(matches!(
            parse(doc),
            Err(XmlError::DuplicateAttribute { .. })
        ));
    }

    #[test]
    fn unclosed_element_is_eof() {
        assert!(matches!(
            parse("<a><b></b>"),
            Err(XmlError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn empty_document_has_no_root() {
        assert!(matches!(parse("   "), Err(XmlError::NoRootElement)));
        assert!(matches!(parse(""), Err(XmlError::NoRootElement)));
    }

    #[test]
    fn depth_limit_enforced() {
        let mut doc = String::new();
        for _ in 0..(MAX_DEPTH + 1) {
            doc.push_str("<a>");
        }
        assert!(matches!(parse(&doc), Err(XmlError::LimitExceeded { .. })));
    }

    #[test]
    fn comments_and_pis_kept_inside_tree() {
        let e = parse("<a><!--note--><?do it?></a>").unwrap();
        assert_eq!(e.children().len(), 2);
        assert!(matches!(&e.children()[0], Node::Comment(c) if c == "note"));
        assert!(
            matches!(&e.children()[1], Node::ProcessingInstruction { target, data } if target == "do" && data == "it")
        );
    }

    #[test]
    fn declaration_and_leading_comment_ignored() {
        let e = parse("<?xml version=\"1.0\"?><!-- head --><a/>").unwrap();
        assert!(e.name().is("", "a"));
    }
}
