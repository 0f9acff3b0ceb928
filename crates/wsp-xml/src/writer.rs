//! Serialiser: turns an [`Element`] tree back into markup, choosing
//! namespace prefixes as it goes.
//!
//! The writer is single-pass: it serialises directly into a
//! caller-supplied `Vec<u8>` ([`Writer::write_into`]) with no per-tag
//! temporary strings. Each element is handled in two phases — first any
//! namespace declarations it needs are decided (mutating the scope
//! stack), then the tag, declarations and attributes are emitted via
//! pure lookups against that stack. The phases agree byte-for-byte with
//! the old collect-then-join writer; `tests/wire_bytes.rs` pins that
//! equivalence against a verbatim copy of the old implementation.

use crate::escape::{escape_attr_into, escape_text_into};
use crate::name::NsStack;
use crate::tree::{Element, Node};

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
}

impl Writer {
    pub fn new(config: WriterConfig) -> Self {
        Writer {
            config,
            ns: NsStack::new(),
            generated: 0,
            scratch: String::new(),
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
        self.ns.push_scope();

        // Phase 1: decide declarations (element first, then attributes,
        // matching the old writer's prefix-generation order). They land
        // in the scope stack, which doubles as the staging area.
        self.prepare_element_ns(element.name().namespace());
        for attr in element.attributes() {
            self.prepare_attr_ns(attr.name.namespace());
        }

        // Phase 2: emit. All names are now resolvable by pure lookup.
        let (ns, local) = (element.name().namespace(), element.name().local_name());
        self.push_open_tag(ns, local, out);
        for attr in element.attributes() {
            let name = &attr.name;
            self.push_attribute(name.namespace(), name.local_name(), &attr.value, out);
        }

        if element.children().is_empty() {
            out.extend_from_slice(b"/>");
            self.ns.pop_scope();
            return;
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
        out.extend_from_slice(b"</");
        // The element's scope is still open, so the lookups reproduce
        // exactly the tag written above.
        self.push_element_tag(ns, local, out);
        out.push(b'>');
        self.ns.pop_scope();
    }

    /// Emit `<tag` plus the namespace declarations the prepare phase
    /// left in the current scope.
    fn push_open_tag(&self, ns: &str, local: &str, out: &mut Vec<u8>) {
        out.push(b'<');
        self.push_element_tag(ns, local, out);
        for d in self.ns.current_scope_bindings() {
            out.push(b' ');
            if d.prefix.is_empty() {
                out.extend_from_slice(b"xmlns=\"");
            } else {
                out.extend_from_slice(b"xmlns:");
                out.extend_from_slice(d.prefix.as_bytes());
                out.extend_from_slice(b"=\"");
            }
            escape_attr_into(&d.uri, out);
            out.push(b'"');
        }
    }

    /// Declare whatever namespace the element's tag needs. Elements
    /// prefer the default namespace. The preferred-prefix path borrows
    /// both the prefix and the URI (`declare_ref`), so steady-state
    /// writes of recurring vocabularies allocate nothing here.
    fn prepare_element_ns(&mut self, ns: &str) {
        if ns.is_empty() {
            // Must be in *no* namespace: undeclare any inherited default.
            if self.ns.resolve("") != Some("") {
                self.ns.declare_ref("", "");
            }
            return;
        }
        if self.ns.resolve("") == Some(ns) {
            return;
        }
        if self.ns.prefix_for(ns).filter(|p| !p.is_empty()).is_some() {
            return;
        }
        match preferred_of(&self.config, ns) {
            Some(p) if !self.ns.is_bound(p) => self.ns.declare_ref(p, ns),
            _ => {
                self.generate_prefix();
                self.ns.declare_ref(&self.scratch, ns);
            }
        }
    }

    /// Declare whatever namespace a qualified attribute needs. Qualified
    /// attributes always need a non-empty prefix.
    fn prepare_attr_ns(&mut self, ns: &str) {
        if ns.is_empty() {
            return;
        }
        if self.ns.prefix_for(ns).filter(|p| !p.is_empty()).is_some() {
            return;
        }
        match preferred_of(&self.config, ns) {
            Some(p) if !p.is_empty() && !self.ns.is_bound(p) => self.ns.declare_ref(p, ns),
            _ => {
                self.generate_prefix();
                self.ns.declare_ref(&self.scratch, ns);
            }
        }
    }

    /// Emit the element's lexical tag. After the prepare phase the name
    /// is guaranteed resolvable: either the default namespace matches or
    /// a non-empty prefix is in scope.
    fn push_element_tag(&self, ns: &str, local: &str, out: &mut Vec<u8>) {
        if !ns.is_empty() && self.ns.resolve("") != Some(ns) {
            let prefix = self
                .ns
                .prefix_for(ns)
                .filter(|p| !p.is_empty())
                .expect("element namespace declared in prepare phase");
            out.extend_from_slice(prefix.as_bytes());
            out.push(b':');
        }
        out.extend_from_slice(local.as_bytes());
    }

    /// Emit ` name="value"` (see [`Writer::push_element_tag`]).
    fn push_attribute(&self, ns: &str, local: &str, value: &str, out: &mut Vec<u8>) {
        out.push(b' ');
        if !ns.is_empty() {
            let prefix = self
                .ns
                .prefix_for(ns)
                .filter(|p| !p.is_empty())
                .expect("attribute namespace declared in prepare phase");
            out.extend_from_slice(prefix.as_bytes());
            out.push(b':');
        }
        out.extend_from_slice(local.as_bytes());
        out.extend_from_slice(b"=\"");
        escape_attr_into(value, out);
        out.push(b'"');
    }

    /// Fill `self.scratch` with the next free `nsN` prefix.
    fn generate_prefix(&mut self) {
        use std::fmt::Write as _;
        loop {
            self.scratch.clear();
            let _ = write!(self.scratch, "ns{}", self.generated);
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
        self.writer.ns.push_scope();
        self.writer.prepare_element_ns(ns);
        for (attr_ns, ..) in attributes {
            self.writer.prepare_attr_ns(attr_ns);
        }
        self.writer.push_open_tag(ns, local, self.out);
        for (attr_ns, attr_local, value) in attributes {
            self.writer
                .push_attribute(attr_ns, attr_local, value, self.out);
        }
        self.out.push(b'>');
        let body_start = self.out.len();
        children(self);
        if self.out.len() == body_start {
            self.out.pop();
            self.out.extend_from_slice(b"/>");
        } else {
            self.out.extend_from_slice(b"</");
            self.writer.push_element_tag(ns, local, self.out);
            self.out.push(b'>');
        }
        self.writer.ns.pop_scope();
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
