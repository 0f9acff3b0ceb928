//! Serialiser: turns an [`Element`] tree back into markup, choosing
//! namespace prefixes as it goes.
//!
//! The writer is single-pass: it serialises directly into a
//! caller-supplied `Vec<u8>` ([`Writer::write_into`]) with no per-tag
//! temporary strings. Each name is decided once (`Writer::decide`):
//! written unprefixed or with the prefix of a binding in scope,
//! declared there and then if none will do; the end tag copies the
//! start tag's bytes. The tree writer and the stream writer open every
//! element through that one decision, and `tests/wire_bytes.rs` pins
//! their bytes against a verbatim copy of the old collect-then-join
//! writer.

use crate::escape::{escape_attr_into, escape_text_into};
use crate::name::NsStack;
use crate::tree::{Element, Node};
use std::ops::Range;

/// The configured prefix for `ns`, borrowed — kept as a free function
/// so callers can hold the result while mutating the scope stack
/// (disjoint field borrows).
fn preferred_of<'a>(config: &'a WriterConfig, ns: &str) -> Option<&'a str> {
    config
        .preferred_prefixes
        .iter()
        .find(|(u, _)| u == ns)
        .map(|(_, p)| p.as_str())
}

/// Configuration for a [`Writer`].
#[derive(Debug, Clone)]
pub struct WriterConfig {
    /// Emit `<?xml version="1.0" encoding="UTF-8"?>` first.
    pub declaration: bool,
    /// Indent nested elements (text-bearing elements stay inline so
    /// significant whitespace is untouched).
    pub pretty: bool,
    /// Indentation unit used when `pretty` is set.
    pub indent: &'static str,
    /// Preferred prefixes, consulted before generating `ns0`, `ns1`, ...
    /// Pairs of `(namespace URI, prefix)`.
    pub preferred_prefixes: Vec<(String, String)>,
}

impl Default for WriterConfig {
    fn default() -> Self {
        WriterConfig {
            declaration: false,
            pretty: false,
            indent: "  ",
            preferred_prefixes: Vec::new(),
        }
    }
}

impl WriterConfig {
    /// Compact output with an XML declaration — the on-the-wire format.
    pub fn wire() -> Self {
        WriterConfig {
            declaration: true,
            ..WriterConfig::default()
        }
    }

    /// Two-space indented output for humans.
    pub fn pretty() -> Self {
        WriterConfig {
            pretty: true,
            ..WriterConfig::default()
        }
    }

    /// Register a preferred prefix for a namespace.
    pub fn prefer(mut self, ns: impl Into<String>, prefix: impl Into<String>) -> Self {
        self.preferred_prefixes.push((ns.into(), prefix.into()));
        self
    }
}

/// Namespace-aware serialiser. Reusable across documents; the scope and
/// declaration scratch space are recycled between write calls.
pub struct Writer {
    config: WriterConfig,
    ns: NsStack,
    generated: usize,
    // Reused by `generate_prefix` so `nsN` candidates cost no
    // allocation after the first write.
    scratch: String,
    /// Per open element: where its namespace's text lies (address and
    /// length) and how its name was decided. A child naming the same
    /// text is decided alike: nothing between them re-binds a prefix.
    open: Vec<(usize, usize, Option<usize>)>,
    /// The decisions for the qualified attributes of the tag being
    /// opened, in order.
    qualified: Vec<Option<usize>>,
}

impl Writer {
    pub fn new(config: WriterConfig) -> Self {
        Writer {
            config,
            ns: NsStack::new(),
            generated: 0,
            scratch: String::new(),
            open: Vec::new(),
            qualified: Vec::new(),
        }
    }

    /// Serialise `root` to a string.
    pub fn write(&mut self, root: &Element) -> String {
        let mut out = Vec::with_capacity(256);
        self.write_into(root, &mut out);
        // The writer emits only `str` fragments, so the buffer is UTF-8.
        String::from_utf8(out).expect("writer output is UTF-8")
    }

    /// Serialise `root`, appending to `out`. The buffer is not cleared,
    /// so transports can prepend framing before the document.
    pub fn write_into(&mut self, root: &Element, out: &mut Vec<u8>) {
        self.start_document(out);
        self.write_element(root, 0, out);
    }

    /// Reset per-document state and emit the XML declaration if
    /// configured.
    fn start_document(&mut self, out: &mut Vec<u8>) {
        self.generated = 0;
        if self.config.declaration {
            out.extend_from_slice(b"<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
            if self.config.pretty {
                out.push(b'\n');
            }
        }
    }

    /// Serialise a document of elements, text and borrowed subtrees
    /// without building its [`Element`] tree first:
    /// `root` emits it through the [`StreamWriter`] it is handed. The bytes are exactly what
    /// [`Writer::write_into`] produces for the equivalent tree (compact
    /// form — `pretty` is a tree-writer option).
    pub fn write_stream_into(
        &mut self,
        out: &mut Vec<u8>,
        root: impl FnOnce(&mut StreamWriter<'_>),
    ) {
        debug_assert!(!self.config.pretty, "the stream writer is compact-only");
        self.start_document(out);
        root(&mut StreamWriter { writer: self, out });
    }

    fn write_element(&mut self, element: &Element, depth: usize, out: &mut Vec<u8>) {
        let (name, attributes) = (element.name(), element.attributes().iter());
        let attributes = attributes.map(|a| (a.name.namespace(), a.name.local_name(), &*a.value));
        let tag = self.open_tag(name.namespace(), name.local_name(), attributes, out);
        if element.children().is_empty() {
            return self.close_tag(None, out);
        }
        out.push(b'>');

        let block = self.config.pretty
            && element
                .children()
                .iter()
                .all(|c| !matches!(c, Node::Text(_) | Node::CData(_)));
        for child in element.children() {
            if block {
                self.newline_indent(depth + 1, out);
            }
            match child {
                Node::Element(e) => self.write_element(e, depth + 1, out),
                Node::Text(t) => escape_text_into(t, out),
                Node::CData(t) => {
                    // A "]]>" inside CDATA must be split across sections;
                    // the split-copy only happens when one is present.
                    out.extend_from_slice(b"<![CDATA[");
                    for (i, segment) in t.split("]]>").enumerate() {
                        if i > 0 {
                            out.extend_from_slice(b"]]]]><![CDATA[>");
                        }
                        out.extend_from_slice(segment.as_bytes());
                    }
                    out.extend_from_slice(b"]]>");
                }
                Node::Comment(t) => {
                    out.extend_from_slice(b"<!--");
                    out.extend_from_slice(t.as_bytes());
                    out.extend_from_slice(b"-->");
                }
                Node::ProcessingInstruction { target, data } => {
                    out.extend_from_slice(b"<?");
                    out.extend_from_slice(target.as_bytes());
                    if !data.is_empty() {
                        out.push(b' ');
                        out.extend_from_slice(data.as_bytes());
                    }
                    out.extend_from_slice(b"?>");
                }
            }
        }
        if block {
            self.newline_indent(depth, out);
        }
        self.close_tag(Some(tag), out);
    }

    /// Open element `{ns}local`: `<`, its tag, the declarations its
    /// names need and its attributes, each `(namespace, local name,
    /// value)`. Returns where the tag lies in `out`, for the end tag.
    fn open_tag<'x>(
        &mut self,
        ns: &str,
        local: &str,
        attributes: impl Iterator<Item = (&'x str, &'x str, &'x str)> + Clone,
        out: &mut Vec<u8>,
    ) -> Range<usize> {
        self.ns.push_scope();
        let outer = self.ns.in_scope();
        let decided = self.decide(ns, true);
        out.push(b'<');
        let start = out.len();
        self.push_name(decided, local, out);
        let tag = start..out.len();
        self.open.push((ns.as_ptr() as usize, ns.len(), decided));
        self.qualified.clear();
        for (attr_ns, ..) in attributes.clone() {
            if !attr_ns.is_empty() {
                let decided = self.decide(attr_ns, false);
                self.qualified.push(decided);
            }
        }
        for declaration in self.ns.declarations(outer) {
            out.extend_from_slice(declaration);
        }
        let mut qualified = self.qualified.iter();
        for (attr_ns, attr_local, value) in attributes {
            out.push(b' ');
            let decided = match attr_ns {
                "" => None,
                _ => qualified.next().copied().flatten(),
            };
            self.push_name(decided, attr_local, out);
            out.extend_from_slice(b"=\"");
            escape_attr_into(value, out);
            out.push(b'"');
        }
        tag
    }

    /// Close the element opened last: with `</tag>`, copying the start
    /// tag's bytes at `tag`, or with `/>`.
    fn close_tag(&mut self, tag: Option<Range<usize>>, out: &mut Vec<u8>) {
        match tag {
            Some(tag) => {
                out.extend_from_slice(b"</");
                out.extend_from_within(tag);
                out.push(b'>');
            }
            None => out.extend_from_slice(b"/>"),
        }
        self.open.pop();
        self.ns.pop_scope();
    }

    /// The one decision of how a name in `ns` is written where the
    /// writer stands: unprefixed (`None`), or with the prefix of binding
    /// `at` — declared now if no binding in scope will do: the
    /// configured prefix if it is free, else the next `nsN`. An element
    /// takes the default namespace where it is `ns` (and must, in no
    /// namespace); an attribute never does.
    fn decide(&mut self, ns: &str, element: bool) -> Option<usize> {
        if element {
            match self.open.last() {
                Some(&(at, len, parent)) if (at, len) == (ns.as_ptr() as usize, ns.len()) => {
                    return parent;
                }
                _ if self.ns.resolve("") == Some(ns) => return None,
                _ if ns.is_empty() => {
                    self.ns.declare("", "");
                    return None;
                }
                _ => {}
            }
        } else if ns.is_empty() {
            return None;
        }
        if let Some(at) = self.ns.bound(ns) {
            return Some(at);
        }
        let at = match preferred_of(&self.config, ns) {
            Some(p) if (element || !p.is_empty()) && !self.ns.is_bound(p) => self.ns.declare(p, ns),
            _ => {
                self.generate_prefix();
                self.ns.declare(&self.scratch, ns)
            }
        };
        Some(at).filter(|&at| !self.ns.prefix(at).is_empty())
    }

    /// Emit a name as [`Writer::decide`] decided it.
    fn push_name(&self, decided: Option<usize>, local: &str, out: &mut Vec<u8>) {
        if let Some(at) = decided {
            out.extend_from_slice(self.ns.prefix(at).as_bytes());
            out.push(b':');
        }
        out.extend_from_slice(local.as_bytes());
    }

    /// Fill `self.scratch` with the next free `nsN` prefix.
    fn generate_prefix(&mut self) {
        loop {
            self.scratch.clear();
            self.scratch.push_str("ns");
            self.scratch
                .push_str(decimal(self.generated as u64, &mut [0; 20]));
            self.generated += 1;
            if !self.ns.is_bound(&self.scratch) && self.scratch != "xml" {
                return;
            }
        }
    }

    fn newline_indent(&self, depth: usize, out: &mut Vec<u8>) {
        out.push(b'\n');
        for _ in 0..depth {
            out.extend_from_slice(self.config.indent.as_bytes());
        }
    }
}

/// `n` in decimal, written into the end of `digits` — no allocation and
/// no `core::fmt`. Twenty digits hold any `u64`.
pub fn decimal(mut n: u64, digits: &mut [u8; 20]) -> &str {
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&digits[at..]).expect("ASCII digits")
}

/// The emitting end of [`Writer::write_stream_into`]: nested
/// [`element`](StreamWriter::element) calls mirror the nesting of the
/// document, so open tags live on the call stack, not in a tree.
pub struct StreamWriter<'w> {
    writer: &'w mut Writer,
    out: &'w mut Vec<u8>,
}

impl StreamWriter<'_> {
    /// Emit `{ns}local` around whatever `children` emits; an element
    /// whose children emit nothing is self-closed, as the tree writer
    /// does for an element without child nodes.
    pub fn element(&mut self, ns: &str, local: &str, children: impl FnOnce(&mut Self)) {
        self.element_with(ns, local, &[], children);
    }

    /// [`StreamWriter::element`] with attributes, each `(namespace,
    /// local name, value)`, declared and written as the tree writer
    /// does for an element holding them in this order.
    pub fn element_with(
        &mut self,
        ns: &str,
        local: &str,
        attributes: &[(&str, &str, &str)],
        children: impl FnOnce(&mut Self),
    ) {
        let tag = (self.writer).open_tag(ns, local, attributes.iter().copied(), self.out);
        self.out.push(b'>');
        let body_start = self.out.len();
        children(self);
        let tag = (self.out.len() > body_start).then_some(tag);
        if tag.is_none() {
            self.out.pop();
        }
        self.writer.close_tag(tag, self.out);
    }

    /// Emit escaped character data (empty text emits nothing, matching
    /// [`Element::push_text`]).
    pub fn text(&mut self, text: &str) {
        escape_text_into(text, self.out);
    }

    /// Emit a borrowed tree as the next child — attributes and all, as
    /// [`Writer::write_into`] writes it at this position — so a frame
    /// can be streamed around a subtree its caller already holds
    /// without cloning the subtree into the frame first.
    pub fn tree(&mut self, element: &Element) {
        // Depth only matters to `pretty`, which the stream writer is not.
        self.writer.write_element(element, 0, self.out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::QName;
    use crate::reader::parse;

    #[test]
    fn decimal_is_the_formatted_number() {
        let mut numbers = vec![0, 9, 10, u64::MAX, u64::MAX - 1];
        numbers.extend((0..20).map(|e| 10u64.pow(e)));
        numbers.extend((1..20).map(|e| 10u64.pow(e) - 1));
        // A fixed-seed xorshift walk, spread over every width.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            numbers.push(x >> (x % 64));
        }
        for n in numbers {
            assert_eq!(decimal(n, &mut [0; 20]), format!("{n}"));
        }
    }

    #[test]
    fn no_namespace_stays_plain() {
        let e = Element::build("", "a").text("x").finish();
        assert_eq!(e.to_xml(), "<a>x</a>");
    }

    #[test]
    fn namespaced_root_gets_generated_prefix() {
        let e = Element::new("urn:x", "a");
        assert_eq!(e.to_xml(), r#"<ns0:a xmlns:ns0="urn:x"/>"#);
    }

    #[test]
    fn preferred_prefix_used() {
        let e = Element::build("urn:soap", "Envelope")
            .child(Element::new("urn:soap", "Body"))
            .finish();
        let xml = Writer::new(WriterConfig::default().prefer("urn:soap", "soap")).write(&e);
        assert_eq!(
            xml,
            r#"<soap:Envelope xmlns:soap="urn:soap"><soap:Body/></soap:Envelope>"#
        );
    }

    #[test]
    fn child_reuses_parent_prefix() {
        let e = Element::build("urn:x", "a")
            .child(Element::new("urn:x", "b"))
            .finish();
        let xml = e.to_xml();
        assert_eq!(xml.matches("xmlns").count(), 1, "{xml}");
    }

    #[test]
    fn sibling_namespaces_get_distinct_prefixes() {
        let e = Element::build("urn:x", "a")
            .child(Element::new("urn:y", "b"))
            .child(Element::new("urn:z", "c"))
            .finish();
        let parsed = parse(&e.to_xml()).unwrap();
        let kids: Vec<_> = parsed.child_elements().collect();
        assert!(kids[0].name().is("urn:y", "b"));
        assert!(kids[1].name().is("urn:z", "c"));
    }

    #[test]
    fn qualified_attribute_gets_prefix() {
        let e = Element::build("urn:x", "a")
            .attr(QName::new("urn:attr", "k"), "v")
            .finish();
        let parsed = parse(&e.to_xml()).unwrap();
        assert_eq!(parsed.attribute("urn:attr", "k"), Some("v"));
    }

    #[test]
    fn attribute_never_uses_default_namespace() {
        // Even when the element's namespace matches the attribute's, the
        // attribute must get an explicit prefix if qualified.
        let e = Element::build("urn:x", "a")
            .attr(QName::new("urn:x", "k"), "v")
            .finish();
        let xml = e.to_xml();
        let parsed = parse(&xml).unwrap();
        assert_eq!(parsed.attribute("urn:x", "k"), Some("v"));
    }

    #[test]
    fn no_namespace_child_inside_default_namespace() {
        let e = Element::build("urn:x", "a")
            .child(Element::new("", "plain"))
            .finish();
        let parsed = parse(&e.to_xml()).unwrap();
        let child = parsed.child_elements().next().unwrap();
        assert!(child.name().is("", "plain"), "{:?}", child.name());
    }

    #[test]
    fn declaration_emitted_for_wire_config() {
        let xml = Writer::new(WriterConfig::wire()).write(&Element::new("", "a"));
        assert!(xml.starts_with("<?xml version=\"1.0\""));
    }

    #[test]
    fn pretty_indents_element_children_only() {
        let e = Element::build("", "a")
            .child(Element::build("", "b").text("t").finish())
            .finish();
        let xml = e.to_pretty_xml();
        assert_eq!(xml, "<a>\n  <b>t</b>\n</a>");
    }

    #[test]
    fn cdata_split_protects_terminator() {
        let mut e = Element::new("", "a");
        e.children_mut().push(Node::CData("x]]>y".into()));
        let xml = e.to_xml();
        assert!(xml.contains("]]]]><![CDATA[>"), "{xml}");
        let parsed = parse(&xml).unwrap();
        assert_eq!(parsed.text(), "x]]>y");
    }

    #[test]
    fn cdata_without_terminator_passes_verbatim() {
        let mut e = Element::new("", "a");
        e.children_mut().push(Node::CData("plain & <raw>".into()));
        assert_eq!(e.to_xml(), "<a><![CDATA[plain & <raw>]]></a>");
    }

    #[test]
    fn escaping_round_trip_via_writer() {
        let e = Element::build("", "a")
            .attr_str("x", "q\"<>&'\nv")
            .text("<body> & \"text\"")
            .finish();
        let parsed = parse(&e.to_xml()).unwrap();
        assert_eq!(parsed.attribute_local("x"), Some("q\"<>&'\nv"));
        assert_eq!(parsed.text(), "<body> & \"text\"");
    }

    #[test]
    fn comments_and_pis_round_trip() {
        let mut e = Element::new("", "a");
        e.children_mut().push(Node::Comment("note".into()));
        e.children_mut().push(Node::ProcessingInstruction {
            target: "t".into(),
            data: "d".into(),
        });
        let parsed = parse(&e.to_xml()).unwrap();
        assert_eq!(parsed.children(), e.children());
    }

    #[test]
    fn write_into_appends_after_existing_bytes() {
        let mut out = b"HTTP-FRAMING".to_vec();
        let e = Element::build("", "a").text("x").finish();
        Writer::new(WriterConfig::default()).write_into(&e, &mut out);
        assert_eq!(out, b"HTTP-FRAMING<a>x</a>");
    }

    #[test]
    fn stream_writer_matches_tree_writer_byte_for_byte() {
        let borrowed = Element::build("urn:z", "e")
            .attr(QName::new("urn:x", "k"), "v\"")
            .child(Element::build("urn:w", "f").text("a & b").finish())
            .finish();
        let tree = Element::build("urn:x", "a")
            .child(
                Element::build("urn:x", "b")
                    .text("1 < 2 & \"q\" ]]> é")
                    .finish(),
            )
            .child(Element::build("urn:y", "c").text("").finish())
            .child(
                Element::build("urn:x", "n")
                    .attr(QName::new("urn:i", "nil"), "t<\"")
                    .attr_str("plain", "p")
                    .attr(QName::new("urn:x", "own"), "o")
                    .finish(),
            )
            .child(
                Element::build("", "plain")
                    .child(Element::new("urn:x", "d"))
                    .finish(),
            )
            .child(borrowed.clone())
            .finish();
        for config in [
            WriterConfig::default(),
            WriterConfig::wire().prefer("urn:x", "x"),
        ] {
            let mut w = Writer::new(config);
            let expected = w.write(&tree);
            let mut out = Vec::new();
            w.write_stream_into(&mut out, |s| {
                s.element("urn:x", "a", |s| {
                    s.element("urn:x", "b", |s| s.text("1 < 2 & \"q\" ]]> é"));
                    s.element("urn:y", "c", |s| s.text(""));
                    let attributes = [
                        ("urn:i", "nil", "t<\""),
                        ("", "plain", "p"),
                        ("urn:x", "own", "o"),
                    ];
                    s.element_with("urn:x", "n", &attributes, |_| {});
                    s.element("", "plain", |s| s.element("urn:x", "d", |_| {}));
                    s.tree(&borrowed);
                });
            });
            assert_eq!(String::from_utf8(out).unwrap(), expected);
        }
    }

    #[test]
    fn writer_is_reusable_across_documents() {
        let mut w = Writer::new(WriterConfig::default().prefer("urn:soap", "soap"));
        let a = Element::new("urn:soap", "A");
        let b = Element::new("urn:other", "B");
        let first = w.write(&a);
        let second = w.write(&b);
        let third = w.write(&a);
        assert_eq!(first, third, "state leaked between writes");
        assert_eq!(second, r#"<ns0:B xmlns:ns0="urn:other"/>"#);
    }
}
