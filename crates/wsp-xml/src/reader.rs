//! The read path: a pull reader over the tokenizer — namespaces
//! resolved, entities expanded, text borrowed from the input — and the
//! tree builder that stands on it.

use crate::error::{XmlError, XmlResult};
use crate::escape::unescape;
use crate::name::{split_prefixed, NameStr, NameTable, QName, XML_NS};
use crate::tokenizer::{Token, Tokenizer};
use crate::tree::{Attribute, Element, Node};
use std::borrow::Cow;

/// Maximum element nesting depth accepted by [`parse`]. Deep enough for
/// any real SOAP/WSDL document, shallow enough to stop stack abuse from
/// hostile peers.
pub const MAX_DEPTH: usize = 256;

/// The namespace declarations in scope, innermost last: the prefix as
/// the document wrote it and its URI, interned once here for every
/// name that will resolve through it.
struct Scopes<'a>(Vec<(&'a str, NameStr)>);

impl<'a> Scopes<'a> {
    /// A start tag's declarations come into scope, for this very
    /// element. Returns how many of `attrs` are not declarations.
    #[inline(always)]
    fn declare(&mut self, attrs: &[(&'a str, &'a str)], offset: usize) -> XmlResult<usize> {
        let names = NameTable::global();
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
                    self.0.push((prefix, names.intern(&uri)));
                }
                None => plain_attrs += 1,
            }
        }
        Ok(plain_attrs)
    }

    /// The URI `prefix` is bound to, or the error for a prefix that is
    /// not. The empty prefix resolves to the default namespace
    /// (possibly none); `xml` is always bound.
    fn resolve(&self, prefix: &str, offset: usize) -> XmlResult<NameStr> {
        if prefix == "xml" {
            return Ok(NameStr::Static(XML_NS));
        }
        match self.0.iter().rev().find(|(p, _)| *p == prefix) {
            Some((_, uri)) => Ok(uri.clone()),
            None if prefix.is_empty() => Ok(NameStr::Static("")),
            None => Err(XmlError::UnboundPrefix {
                offset,
                prefix: prefix.to_owned(),
            }),
        }
    }

    /// The expanded name of attribute `aname`: unprefixed, it is in
    /// *no* namespace, whatever the default namespace.
    fn resolve_attribute(&self, aname: &'a str, offset: usize) -> XmlResult<(NameStr, &'a str)> {
        match split_prefixed(aname) {
            ("", local) => Ok((NameStr::Static(""), local)),
            (prefix, local) => Ok((self.resolve(prefix, offset)?, local)),
        }
    }
}

/// The prefix that attribute `aname` declares: `""` for `xmlns`, `p`
/// for `xmlns:p`, nothing for any other attribute.
fn declared_prefix(aname: &str) -> Option<&str> {
    match aname.strip_prefix("xmlns")? {
        "" => Some(""),
        rest => rest.strip_prefix(':'),
    }
}

/// A start tag with its declarations in scope and its name resolved.
struct StartTag<'a> {
    /// The name as written; an end tag must repeat it exactly.
    lexical: &'a str,
    namespace: NameStr,
    local: &'a str,
    offset: usize,
    self_closing: bool,
    /// How many declarations were in scope outside this element.
    outer_scopes: usize,
    /// Attributes that are not declarations.
    plain_attrs: usize,
}

impl<'a> StartTag<'a> {
    /// `depth` is how many elements are open around the tag.
    #[inline(always)]
    fn read(
        scopes: &mut Scopes<'a>,
        depth: usize,
        name: &'a str,
        attrs: &[(&'a str, &'a str)],
        self_closing: bool,
        offset: usize,
    ) -> XmlResult<Self> {
        if depth >= MAX_DEPTH {
            return Err(XmlError::LimitExceeded {
                what: "nesting depth",
                limit: MAX_DEPTH,
            });
        }
        let outer_scopes = scopes.0.len();
        let plain_attrs = scopes.declare(attrs, offset)?;
        let (prefix, local) = split_prefixed(name);
        Ok(StartTag {
            lexical: name,
            namespace: scopes.resolve(prefix, offset)?,
            local,
            offset,
            self_closing,
            outer_scopes,
            plain_attrs,
        })
    }
}

/// An element of a tree under construction whose end tag has not been
/// seen yet.
struct Open<'a> {
    lexical: &'a str,
    element: Element,
    outer_scopes: usize,
    /// Layout whitespace exists only where both of these were seen.
    has_element_child: bool,
    has_blank_text: bool,
}

/// What [`PullReader::next`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pull<'a> {
    /// A start tag, which the reader describes until the next call —
    /// which descends into the element, unless
    /// [`PullReader::read_subtree`] or [`PullReader::skip`] takes it whole.
    Start,
    /// Character data, layout included: text, entities expanded, or CDATA.
    Text(Cow<'a, str>),
    /// The end of the innermost open element (`<a/>` has one too).
    End,
    /// The end of the document, its root closed.
    Eof,
}

/// A cursor over a document's elements and character data, for a
/// caller that knows the shape it expects and wants no tree: names
/// arrive namespace-resolved, text unescaped and borrowed from the
/// input where it can be. Comments, processing instructions and the
/// XML declaration are passed over. After an error it is spent.
pub struct PullReader<'a> {
    tokens: Tokenizer<'a>,
    scopes: Scopes<'a>,
    /// The elements the cursor is inside: the name as written and how
    /// many declarations were in scope outside it.
    open: Vec<(&'a str, usize)>,
    /// The start tag the cursor rests on; its attributes are still the
    /// tokenizer's.
    start: Option<StartTag<'a>>,
    /// The open elements of the tree [`PullReader::read_subtree`] is
    /// building; empty between calls.
    building: Vec<Open<'a>>,
    root_seen: bool,
}

impl<'a> PullReader<'a> {
    pub fn new(input: &'a str) -> Self {
        PullReader {
            tokens: Tokenizer::new(input),
            // Sized for an envelope — eight prefixes in scope — so it
            // does not grow while one is read.
            scopes: Scopes(Vec::with_capacity(8)),
            open: Vec::new(),
            start: None,
            building: Vec::new(),
            root_seen: false,
        }
    }

    /// Advance to the next start tag, run of character data, end tag
    /// or the end of the document.
    #[allow(clippy::should_implement_trait)] // fallible, and lends nothing an iterator could
    pub fn next(&mut self) -> XmlResult<Pull<'a>> {
        if let Some(start) = self.start.take() {
            if start.self_closing {
                self.scopes.0.truncate(start.outer_scopes);
                return Ok(Pull::End);
            }
            self.open.push((start.lexical, start.outer_scopes));
        }
        while let Some(token) = self.tokens.next_token()? {
            match token {
                Token::Declaration { .. } | Token::Comment { .. } | Token::Pi { .. } => {}
                Token::Text { raw, offset } => {
                    let text = unescape(raw, offset)?;
                    if !self.open.is_empty() {
                        return Ok(Pull::Text(text));
                    }
                    if !text.trim().is_empty() {
                        return Err(XmlError::ContentOutsideRoot { offset });
                    }
                }
                Token::CData { text, offset } => {
                    if self.open.is_empty() {
                        return Err(XmlError::ContentOutsideRoot { offset });
                    }
                    return Ok(Pull::Text(Cow::Borrowed(text)));
                }
                Token::StartTag {
                    name,
                    attrs,
                    self_closing,
                    offset,
                } => {
                    if self.open.is_empty() && std::mem::replace(&mut self.root_seen, true) {
                        return Err(XmlError::ContentOutsideRoot { offset });
                    }
                    let depth = self.open.len();
                    let start =
                        StartTag::read(&mut self.scopes, depth, name, attrs, self_closing, offset)?;
                    // Whoever passes over the tag must be told what a
                    // tree built from it would have been refused for.
                    if start.plain_attrs > 0 {
                        attributes(attrs, offset, &self.scopes, |_, _, _| {})?;
                    }
                    self.start = Some(start);
                    return Ok(Pull::Start);
                }
                Token::EndTag { name, offset } => {
                    let open = self.open.pop();
                    let (lexical, outer_scopes) =
                        open.ok_or(XmlError::ContentOutsideRoot { offset })?;
                    check_end_tag(lexical, name, offset)?;
                    self.scopes.0.truncate(outer_scopes);
                    return Ok(Pull::End);
                }
            }
        }
        match (self.open.is_empty(), self.root_seen) {
            (false, _) => Err(unclosed(&self.tokens)),
            (true, false) => Err(XmlError::NoRootElement),
            (true, true) => Ok(Pull::Eof),
        }
    }

    /// True if the cursor rests on the start tag of `{ns}local`.
    pub fn is(&self, ns: &str, local: &str) -> bool {
        (self.start.as_ref()).is_some_and(|s| s.local == local && s.namespace.as_str() == ns)
    }

    /// The local name of that start tag (`""` anywhere else).
    pub fn local_name(&self) -> &'a str {
        self.start.as_ref().map_or("", |s| s.local)
    }

    /// How many attributes it has, namespace declarations aside.
    pub fn attribute_count(&self) -> usize {
        self.start.as_ref().map_or(0, |s| s.plain_attrs)
    }

    /// Show `visit` each of them: namespace, local name, unescaped value.
    pub fn attributes(&self, mut visit: impl FnMut(&str, &'a str, Cow<'a, str>)) {
        if let Some(start) = self.start.as_ref().filter(|s| s.plain_attrs > 0) {
            let attrs = self.tokens.attrs();
            let _checked_on_arrival = attributes(attrs, start.offset, &self.scopes, |uri, l, v| {
                visit(uri.as_str(), l, v);
            });
        }
    }

    /// Pass over the element whose start tag the cursor rests on,
    /// contents and all — unseen, not unchecked.
    pub fn skip(&mut self) -> XmlResult<()> {
        let mut depth = 1usize;
        while depth > 0 {
            match self.next()? {
                Pull::Start => depth += 1,
                Pull::End => depth -= 1,
                Pull::Text(_) => {}
                Pull::Eof => break,
            }
        }
        Ok(())
    }

    /// Build the tree of the element whose start tag the cursor rests
    /// on (or panic: there must be one), as [`parse`] builds a
    /// document's, and leave the cursor after its end tag.
    pub fn read_subtree(&mut self) -> XmlResult<Element> {
        let start = (self.start.take()).expect("read_subtree is called on a start tag");
        // Sized for an envelope — elements sixteen deep.
        if self.building.capacity() == 0 {
            self.building = Vec::with_capacity(16);
        }
        let depth = self.open.len();
        let (tokens, scopes) = (&mut self.tokens, &mut self.scopes);
        build_tree(tokens, scopes, &mut self.building, depth, Some(start))
    }
}

/// The tree builder: the tree of `start`, whose attributes `tokens`
/// still holds and around which `depth` elements are open — or, given
/// none and a fresh tokenizer, of the whole document, read to its end.
/// `building` holds the tree's open elements; empty between calls.
#[inline]
fn build_tree<'a>(
    tokens: &mut Tokenizer<'a>,
    scopes: &mut Scopes<'a>,
    building: &mut Vec<Open<'a>>,
    depth: usize,
    start: Option<StartTag<'a>>,
) -> XmlResult<Element> {
    let whole_document = start.is_none();
    let names = NameTable::global();
    let mut root = None;
    if let Some(start) = start {
        open_element(building, scopes, tokens.attrs(), start, names, &mut root)?;
    }
    while whole_document || root.is_none() {
        let Some(token) = tokens.next_token()? else {
            break;
        };
        let parent = building.last_mut();
        match token {
            Token::Declaration { .. } => {}
            Token::Comment { text, .. } => {
                if let Some(parent) = parent {
                    let comment = Node::Comment(text.to_owned());
                    parent.element.children_mut().push(comment);
                }
            }
            Token::Pi { target, data, .. } => {
                if let Some(parent) = parent {
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
                match parent {
                    Some(parent) => {
                        parent.has_blank_text |= blank;
                        let text = Node::Text(text.into_owned());
                        parent.element.children_mut().push(text);
                    }
                    None if blank => {}
                    None => return Err(XmlError::ContentOutsideRoot { offset }),
                }
            }
            Token::CData { text, offset } => match parent {
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
                if root.is_some() {
                    return Err(XmlError::ContentOutsideRoot { offset });
                }
                let depth = depth + building.len();
                let start = StartTag::read(scopes, depth, name, attrs, self_closing, offset)?;
                open_element(building, scopes, attrs, start, names, &mut root)?;
            }
            Token::EndTag { name, offset } => {
                let parent = parent.ok_or(XmlError::ContentOutsideRoot { offset })?;
                check_end_tag(parent.lexical, name, offset)?;
                close_element(building, scopes, &mut root);
            }
        }
    }
    match root {
        Some(root) => Ok(root),
        None if building.is_empty() => Err(XmlError::NoRootElement),
        None => Err(unclosed(tokens)),
    }
}

/// Open `start`, whose attributes are `attrs`, as the innermost element
/// of the tree being built. The element is built where it will wait
/// for its end tag: a tree node is moved once, into its parent.
#[inline(always)]
fn open_element<'a>(
    building: &mut Vec<Open<'a>>,
    scopes: &mut Scopes<'a>,
    attrs: &[(&'a str, &'a str)],
    start: StartTag<'a>,
    names: &NameTable,
    root: &mut Option<Element>,
) -> XmlResult<()> {
    let name = QName::from_interned(start.namespace, names.intern(start.local));
    building.push(Open {
        lexical: start.lexical,
        element: Element::with_name(name),
        outer_scopes: start.outer_scopes,
        has_element_child: false,
        has_blank_text: false,
    });
    if start.plain_attrs > 0 {
        let element = &mut building.last_mut().expect("just pushed").element;
        element.attributes_mut().reserve_exact(start.plain_attrs);
        attributes(attrs, start.offset, scopes, |uri, local, value| {
            element.attributes_mut().push(Attribute {
                name: QName::from_interned(uri, names.intern(local)),
                value: value.into_owned(),
            });
        })?;
    }
    if start.self_closing {
        close_element(building, scopes, root);
    }
    Ok(())
}

/// The innermost element of the tree being built is complete: hand it
/// to its parent, or make it the `root` if it has none.
#[inline(always)]
fn close_element<'a>(
    building: &mut Vec<Open<'a>>,
    scopes: &mut Scopes<'a>,
    root: &mut Option<Element>,
) {
    let Some(mut open) = building.pop() else {
        return;
    };
    // Whitespace-only text beside element children is indentation,
    // not data.
    if open.has_element_child && open.has_blank_text {
        open.element
            .children_mut()
            .retain(|c| !matches!(c, Node::Text(t) if t.trim().is_empty()));
    }
    scopes.0.truncate(open.outer_scopes);
    match building.last_mut() {
        Some(parent) => {
            parent.has_element_child = true;
            parent.element.push_element(open.element);
        }
        None => *root = Some(open.element),
    }
}

fn unclosed(tokens: &Tokenizer<'_>) -> XmlError {
    XmlError::UnexpectedEof {
        offset: tokens.input_len(),
        expecting: "closing tag for open element",
    }
}

fn check_end_tag(open: &str, close: &str, offset: usize) -> XmlResult<()> {
    if open == close {
        return Ok(());
    }
    Err(XmlError::MismatchedTag {
        offset,
        open: open.to_owned(),
        close: close.to_owned(),
    })
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
    let mut scopes = Scopes(Vec::with_capacity(8));
    let mut building = Vec::with_capacity(16);
    build_tree(&mut tokens, &mut scopes, &mut building, 0, None)
}

/// Visit what of a start tag (at `offset`) is not a declaration: each
/// attribute's namespace, local name and unescaped value — or return
/// what the tag is refused for.
fn attributes<'a>(
    attrs: &[(&'a str, &'a str)],
    offset: usize,
    scopes: &Scopes<'a>,
    mut visit: impl FnMut(NameStr, &'a str, Cow<'a, str>),
) -> XmlResult<()> {
    let plain = || attrs.iter().filter(|(a, _)| declared_prefix(a).is_none());
    for (at, (aname, raw_value)) in plain().enumerate() {
        let (uri, local) = scopes.resolve_attribute(aname, offset)?;
        // The tokenizer already rejects lexically identical duplicates;
        // this catches the same *expanded* name via different prefixes.
        for (earlier, _) in plain().take(at) {
            let (earlier_uri, earlier_local) = scopes.resolve_attribute(earlier, offset)?;
            if earlier_local == local && earlier_uri.as_str() == uri.as_str() {
                let name = QName::from_interned(uri, NameTable::global().intern(local));
                return Err(XmlError::DuplicateAttribute {
                    offset,
                    name: format!("{name:?}"),
                });
            }
        }
        visit(uri, local, unescape(raw_value, offset)?);
    }
    Ok(())
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

    const ORDER: &str = "<?xml version=\"1.0\"?><!-- head --><o:order xmlns:o=\"urn:o\" \
        xmlns:x=\"urn:x\" x:id=\"7&amp;8\" plain=\"p\">\n  <o:item>tea &amp; <![CDATA[<milk>]]></o:item>\
        <note xmlns=\"urn:n\"><b>kept</b><!--c--></note><o:empty/>\n</o:order><!-- tail -->";

    #[test]
    fn pull_reader_walks_names_text_and_attributes() {
        let mut r = PullReader::new(ORDER);
        assert_eq!(r.next(), Ok(Pull::Start));
        assert!(r.is("urn:o", "order") && !r.is("urn:x", "order"));
        assert_eq!(r.attribute_count(), 2, "declarations are not attributes");
        let mut seen = Vec::new();
        r.attributes(|ns, local, value| seen.push(format!("{{{ns}}}{local}={value}")));
        assert_eq!(seen, ["{urn:x}id=7&8", "{}plain=p"]);
        assert_eq!(
            r.next(),
            Ok(Pull::Text("\n  ".into())),
            "layout is reported"
        );
        assert_eq!(r.next(), Ok(Pull::Start));
        assert_eq!((r.local_name(), r.attribute_count()), ("item", 0));
        assert_eq!(r.next(), Ok(Pull::Text("tea & ".into())));
        assert_eq!(r.next(), Ok(Pull::Text("<milk>".into())), "CDATA is text");
        assert_eq!(r.next(), Ok(Pull::End));
        assert_eq!(r.local_name(), "", "no start tag under the cursor");
        // One child taken whole as a tree, in the scopes it sits in...
        assert_eq!(r.next(), Ok(Pull::Start));
        let note = r.read_subtree().unwrap();
        assert_eq!(
            Ok(&note),
            parse(ORDER)
                .as_ref()
                .map(|o| &o.children()[1])
                .map(|n| n.as_element().unwrap())
        );
        assert!(note.name().is("urn:n", "note") && note.children().len() == 2);
        // ...and the cursor goes on behind it.
        assert_eq!(r.next(), Ok(Pull::Start));
        assert!(
            r.is("urn:o", "empty"),
            "the default namespace went out of scope"
        );
        assert_eq!(r.next(), Ok(Pull::End), "a self-closed element ends too");
        assert_eq!(r.next(), Ok(Pull::Text("\n".into())));
        assert_eq!(r.next(), Ok(Pull::End));
        assert_eq!(r.next(), Ok(Pull::Eof));
    }

    #[test]
    fn pull_reader_skips_an_element_and_still_checks_it() {
        let mut r = PullReader::new(ORDER);
        assert_eq!(r.next(), Ok(Pull::Start));
        r.skip().unwrap();
        assert_eq!(r.next(), Ok(Pull::Eof));
        // What a tree would be refused for is refused in passing.
        for (bad, error) in [
            ("<a><b q:x='1'/></a>", "UnboundPrefix"),
            (
                "<a><b xmlns:p='u' xmlns:r='u' p:x='1' r:x='2'/></a>",
                "DuplicateAttribute",
            ),
            ("<a><b x='&bogus;'/></a>", "Entity"),
            ("<a><b></c></a>", "MismatchedTag"),
            ("<a><b>", "UnexpectedEof"),
        ] {
            let mut r = PullReader::new(bad);
            assert_eq!(r.next(), Ok(Pull::Start));
            let refused = format!("{:?}", r.skip().unwrap_err());
            assert!(refused.contains(error), "{bad}: {refused}");
            assert!(parse(bad).is_err());
        }
    }

    #[test]
    fn declaration_and_leading_comment_ignored() {
        let e = parse("<?xml version=\"1.0\"?><!-- head --><a/>").unwrap();
        assert!(e.name().is("", "a"));
    }
}
