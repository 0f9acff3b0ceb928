//! The in-memory XML document model: elements, attributes and child nodes.

use crate::name::QName;
use crate::writer::{Writer, WriterConfig};

/// An attribute on an element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    pub name: QName,
    pub value: String,
}

impl Attribute {
    pub fn new(name: QName, value: impl Into<String>) -> Self {
        Attribute {
            name,
            value: value.into(),
        }
    }
}

/// A child node of an element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    Element(Element),
    /// Character data (already unescaped).
    Text(String),
    /// A CDATA section; serialised back as CDATA.
    CData(String),
    Comment(String),
    ProcessingInstruction {
        target: String,
        data: String,
    },
}

impl Node {
    /// The element inside this node, if it is one.
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            Node::Element(e) => Some(e),
            _ => None,
        }
    }
}

/// An XML element: an expanded name, attributes and ordered children.
///
/// Prefixes are not stored; see [`crate::writer`] for how they are chosen
/// on output. Construction goes through [`Element::build`] for the fluent
/// style used pervasively by the SOAP/WSDL layers, or through the direct
/// mutators for incremental assembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    name: QName,
    attributes: Vec<Attribute>,
    children: Vec<Node>,
}

impl Element {
    /// Create an empty element named `{namespace}local`.
    pub fn new(
        namespace: impl Into<std::borrow::Cow<'static, str>>,
        local: impl Into<std::borrow::Cow<'static, str>>,
    ) -> Self {
        Element {
            name: QName::new(namespace, local),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Create an empty element with an already-built name.
    pub fn with_name(name: QName) -> Self {
        Element {
            name,
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Start a fluent builder; finish with [`ElementBuilder::finish`].
    pub fn build(
        namespace: impl Into<std::borrow::Cow<'static, str>>,
        local: impl Into<std::borrow::Cow<'static, str>>,
    ) -> ElementBuilder {
        ElementBuilder {
            element: Element::new(namespace, local),
        }
    }

    pub fn name(&self) -> &QName {
        &self.name
    }

    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    pub fn children(&self) -> &[Node] {
        &self.children
    }

    pub fn children_mut(&mut self) -> &mut Vec<Node> {
        &mut self.children
    }

    /// Mutable access to the attribute list, for in-place edits that
    /// would otherwise force a rebuild of the element (e.g. stripping
    /// envelope-scoped attributes from a parsed header block).
    pub fn attributes_mut(&mut self) -> &mut Vec<Attribute> {
        &mut self.attributes
    }

    /// Value of the attribute with expanded name `{ns}local`, if present.
    pub fn attribute(&self, ns: &str, local: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|a| a.name.is(ns, local))
            .map(|a| a.value.as_str())
    }

    /// Value of an unqualified attribute.
    pub fn attribute_local(&self, local: &str) -> Option<&str> {
        self.attribute("", local)
    }

    /// Set (or replace) an attribute.
    pub fn set_attribute(&mut self, name: QName, value: impl Into<String>) {
        let value = value.into();
        if let Some(a) = self.attributes.iter_mut().find(|a| a.name == name) {
            a.value = value;
        } else {
            self.attributes.push(Attribute::new(name, value));
        }
    }

    /// Append a child element.
    pub fn push_element(&mut self, child: Element) {
        self.children.push(Node::Element(child));
    }

    /// Append character data. Empty strings are skipped: on the wire,
    /// empty character data is indistinguishable from no character
    /// data, so admitting it would break round-trip equality.
    pub fn push_text(&mut self, text: impl Into<String>) {
        let text = text.into();
        if !text.is_empty() {
            self.children.push(Node::Text(text));
        }
    }

    /// Iterate over child *elements* only.
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(Node::as_element)
    }

    /// First child element named `{ns}local`.
    pub fn find(&self, ns: &str, local: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.name.is(ns, local))
    }

    /// All child elements named `{ns}local`.
    pub fn find_all<'a>(
        &'a self,
        ns: &'a str,
        local: &'a str,
    ) -> impl Iterator<Item = &'a Element> + 'a {
        self.child_elements().filter(move |e| e.name.is(ns, local))
    }

    /// First child element with the given local name, in any namespace.
    /// Useful for reading documents from peers with sloppy namespacing.
    pub fn find_local(&self, local: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.name.local_name() == local)
    }

    /// Descend through a path of `{ns}` child element local names.
    pub fn path(&self, ns: &str, locals: &[&str]) -> Option<&Element> {
        let mut cur = self;
        for l in locals {
            cur = cur.find(ns, l)?;
        }
        Some(cur)
    }

    /// Concatenated character data of direct Text/CData children.
    pub fn text(&self) -> String {
        self.text_ref().into_owned()
    }

    /// [`Element::text`] without the copy when there is nothing to
    /// concatenate: an element whose character data is one node — every
    /// leaf the parser builds from an unbroken run of text — lends it.
    pub fn text_ref(&self) -> std::borrow::Cow<'_, str> {
        let mut runs = self.children.iter().filter_map(|c| match c {
            Node::Text(t) | Node::CData(t) => Some(t.as_str()),
            _ => None,
        });
        let first = runs.next().unwrap_or("");
        match runs.next() {
            None => first.into(),
            Some(second) => {
                let mut out = String::from(first);
                out.push_str(second);
                runs.for_each(|t| out.push_str(t));
                out.into()
            }
        }
    }

    /// True if the element has neither attributes nor children.
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty() && self.children.is_empty()
    }

    /// Total number of element nodes in this subtree, including self.
    pub fn subtree_size(&self) -> usize {
        1 + self
            .child_elements()
            .map(Element::subtree_size)
            .sum::<usize>()
    }

    /// Serialise with the default writer configuration (compact, with an
    /// XML declaration omitted).
    pub fn to_xml(&self) -> String {
        Writer::new(WriterConfig::default()).write(self)
    }

    /// Serialise with two-space indentation, for logs and documentation.
    pub fn to_pretty_xml(&self) -> String {
        Writer::new(WriterConfig::pretty()).write(self)
    }
}

/// Fluent builder returned by [`Element::build`].
#[derive(Debug)]
pub struct ElementBuilder {
    element: Element,
}

impl ElementBuilder {
    /// Add an unqualified attribute.
    pub fn attr_str(mut self, local: &'static str, value: impl Into<String>) -> Self {
        self.element.set_attribute(QName::local(local), value);
        self
    }

    /// Add a namespace-qualified attribute.
    pub fn attr(mut self, name: QName, value: impl Into<String>) -> Self {
        self.element.set_attribute(name, value);
        self
    }

    /// Append a child element.
    pub fn child(mut self, child: Element) -> Self {
        self.element.push_element(child);
        self
    }

    /// Append several child elements.
    pub fn children(mut self, children: impl IntoIterator<Item = Element>) -> Self {
        for c in children {
            self.element.push_element(c);
        }
        self
    }

    /// Append character data.
    pub fn text(mut self, text: impl Into<String>) -> Self {
        self.element.push_text(text);
        self
    }

    pub fn finish(self) -> Element {
        self.element
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Element {
        Element::build("urn:test", "root")
            .attr_str("id", "1")
            .child(Element::build("urn:test", "a").text("first").finish())
            .child(Element::build("urn:other", "a").text("other").finish())
            .child(Element::build("urn:test", "b").finish())
            .finish()
    }

    #[test]
    fn find_respects_namespace() {
        let e = sample();
        assert_eq!(e.find("urn:test", "a").unwrap().text(), "first");
        assert_eq!(e.find("urn:other", "a").unwrap().text(), "other");
        assert!(e.find("urn:missing", "a").is_none());
    }

    #[test]
    fn find_all_counts() {
        let e = sample();
        assert_eq!(e.find_all("urn:test", "a").count(), 1);
        assert_eq!(e.child_elements().count(), 3);
    }

    #[test]
    fn attribute_lookup() {
        let e = sample();
        assert_eq!(e.attribute_local("id"), Some("1"));
        assert_eq!(e.attribute_local("missing"), None);
    }

    #[test]
    fn set_attribute_replaces() {
        let mut e = sample();
        e.set_attribute(QName::local("id"), "2");
        assert_eq!(e.attribute_local("id"), Some("2"));
        assert_eq!(e.attributes().len(), 1);
    }

    #[test]
    fn text_concatenates_direct_children_only() {
        let mut e = Element::new("", "t");
        e.push_text("a");
        e.push_element(Element::build("", "x").text("inner").finish());
        e.children_mut().push(Node::CData("b".into()));
        assert_eq!(e.text(), "ab");
        assert!(matches!(e.text_ref(), std::borrow::Cow::Owned(_)));
    }

    #[test]
    fn text_ref_lends_a_single_run() {
        let leaf = Element::build("", "t").text("only").finish();
        assert!(matches!(
            leaf.text_ref(),
            std::borrow::Cow::Borrowed("only")
        ));
        assert!(matches!(
            Element::new("", "t").text_ref(),
            std::borrow::Cow::Borrowed("")
        ));
    }

    #[test]
    fn path_descends() {
        let doc = Element::build("urn:x", "a")
            .child(
                Element::build("urn:x", "b")
                    .child(Element::build("urn:x", "c").text("deep").finish())
                    .finish(),
            )
            .finish();
        assert_eq!(doc.path("urn:x", &["b", "c"]).unwrap().text(), "deep");
        assert!(doc.path("urn:x", &["b", "missing"]).is_none());
    }

    #[test]
    fn subtree_size() {
        assert_eq!(sample().subtree_size(), 4);
    }

    #[test]
    fn is_empty() {
        assert!(Element::new("", "e").is_empty());
        assert!(!sample().is_empty());
    }
}
