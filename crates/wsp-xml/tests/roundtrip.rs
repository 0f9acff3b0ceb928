//! Property-based round-trip tests: any tree the builder can construct
//! must survive write → parse unchanged.

use proptest::prelude::*;
use wsp_xml::{Element, Node, QName, StreamWriter, Writer, WriterConfig};

/// Strategy for XML local names (simplified NCName production).
fn ncname() -> impl Strategy<Value = String> {
    "[A-Za-z_][A-Za-z0-9_.-]{0,8}"
}

/// Strategy for namespace URIs, including "no namespace".
fn namespace() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("urn:a".to_string()),
        Just("urn:b".to_string()),
        Just("http://example.org/deep/ns".to_string()),
    ]
}

/// Text content. Excludes carriage return: XML 1.0 end-of-line handling
/// normalises CR to LF on parse, which is conforming behaviour but not an
/// identity, so we don't generate CR.
fn text_content() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~éü€\n\t]{1,24}")
        .unwrap()
        .prop_map(|s| s.replace('\r', " "))
}

fn attr_value() -> impl Strategy<Value = String> {
    text_content()
}

fn leaf() -> impl Strategy<Value = Element> {
    (
        namespace(),
        ncname(),
        proptest::collection::vec((ncname(), attr_value()), 0..3),
        proptest::option::of(text_content()),
    )
        .prop_map(|(ns, local, attrs, text)| {
            let mut e = Element::new(ns, local);
            for (name, value) in attrs {
                e.set_attribute(QName::new("", name), value);
            }
            if let Some(t) = text {
                e.push_text(t);
            }
            e
        })
}

fn tree() -> impl Strategy<Value = Element> {
    leaf().prop_recursive(4, 32, 4, |inner| {
        (
            namespace(),
            ncname(),
            proptest::collection::vec(inner, 0..4),
        )
            .prop_map(|(ns, local, children)| {
                let mut e = Element::new(ns, local);
                for c in children {
                    e.push_element(c);
                }
                e
            })
    })
}

/// [`tree`] with qualified attributes, one element at a time by the
/// bits of `bits`: an attribute in the element's own namespace, one in
/// `urn:b` (declared by the attribute where no element declared it).
fn qualify(e: &mut Element, bits: &mut u64) {
    *bits ^= *bits << 13;
    *bits ^= *bits >> 7;
    *bits ^= *bits << 17;
    let own = e.name().namespace().to_owned();
    if *bits & 1 == 1 && !own.is_empty() {
        e.set_attribute(QName::new(own, "own"), "o");
    }
    if *bits & 6 == 6 {
        e.set_attribute(QName::new("urn:b", "other"), "b\"<");
    }
    for child in e.children_mut() {
        if let Node::Element(child) = child {
            qualify(child, bits);
        }
    }
}

/// Preferred prefixes, drawn so that the writer meets each of its
/// cases: the default prefix (an element in no namespace under it
/// undeclares it), one prefix wanted by two namespaces (the second
/// finds it bound outside and must not re-bind it: it gets `nsN`), and
/// a prefix the writer would generate itself.
fn preferences() -> impl Strategy<Value = Vec<(String, String)>> {
    let prefix = prop_oneof![Just(""), Just("p"), Just("ns0"), Just("ns1")];
    proptest::collection::vec((namespace(), prefix.prop_map(String::from)), 0..4)
}

/// Emit `e` through the stream writer: element by element, and every
/// child whose local name has a length divisible by three handed over
/// whole as a borrowed tree.
fn replay(s: &mut StreamWriter<'_>, e: &Element) {
    let name = e.name();
    let attributes: Vec<(&str, &str, &str)> = (e.attributes().iter())
        .map(|a| (a.name.namespace(), a.name.local_name(), a.value.as_str()))
        .collect();
    s.element_with(name.namespace(), name.local_name(), &attributes, |s| {
        for child in e.children() {
            match child {
                Node::Element(c) if c.name().local_name().len() % 3 == 0 => s.tree(c),
                Node::Element(c) => replay(s, c),
                Node::Text(t) => s.text(t),
                other => unreachable!("tree() makes no {other:?}"),
            }
        }
    });
}

/// Normalise adjacent text nodes so structural comparison is fair: the
/// writer concatenates adjacent text, so `["a", "b"]` parses back as
/// `["ab"]`.
fn normalise(e: &Element) -> Element {
    let mut out = Element::with_name(e.name().clone());
    for a in e.attributes() {
        out.set_attribute(a.name.clone(), a.value.clone());
    }
    let mut pending = String::new();
    for child in e.children() {
        match child {
            Node::Text(t) | Node::CData(t) => pending.push_str(t),
            Node::Element(el) => {
                flush(&mut pending, &mut out);
                out.push_element(normalise(el));
            }
            other => {
                flush(&mut pending, &mut out);
                out.children_mut().push(other.clone());
            }
        }
    }
    flush(&mut pending, &mut out);
    out
}

fn flush(pending: &mut String, out: &mut Element) {
    if !pending.is_empty() {
        out.push_text(std::mem::take(pending));
    }
}

proptest! {
    #[test]
    fn write_parse_round_trip(original in tree()) {
        let xml = original.to_xml();
        let parsed = wsp_xml::parse(&xml).expect("generated XML must parse");
        prop_assert_eq!(normalise(&parsed), normalise(&original), "wire form: {}", xml);
    }

    #[test]
    fn stream_writer_replaying_a_tree_writes_the_tree_writers_bytes(
        mut original in tree(),
        mut bits in 1u64..u64::MAX,
        prefers in preferences(),
    ) {
        qualify(&mut original, &mut bits);
        let config = (prefers.iter()).fold(WriterConfig::default(), |c, (ns, p)| c.prefer(ns, p));
        let mut writer = Writer::new(config);
        let expected = writer.write(&original);
        let mut streamed = Vec::new();
        writer.write_stream_into(&mut streamed, |s| replay(s, &original));
        prop_assert_eq!(String::from_utf8(streamed).unwrap(), expected);
    }

    #[test]
    fn escaping_is_involutive(s in text_content()) {
        let mut escaped = String::new();
        wsp_xml::escape::escape_text(&s, &mut escaped);
        prop_assert_eq!(wsp_xml::escape::unescape(&escaped, 0).unwrap(), s.clone());

        let mut attr = String::new();
        wsp_xml::escape::escape_attr(&s, &mut attr);
        prop_assert_eq!(wsp_xml::escape::unescape(&attr, 0).unwrap(), s);
    }

    #[test]
    fn pretty_and_compact_parse_identically(original in tree()) {
        // Whitespace-only text nodes make pretty printing lossy by design;
        // skip trees containing them.
        fn has_ws_text(e: &Element) -> bool {
            e.children().iter().any(|c| match c {
                Node::Text(t) => t.trim().is_empty() || t.trim() != t,
                Node::Element(el) => has_ws_text(el),
                _ => false,
            })
        }
        prop_assume!(!has_ws_text(&original));
        let compact = wsp_xml::parse(&original.to_xml()).unwrap();
        let pretty = wsp_xml::parse(&original.to_pretty_xml()).unwrap();
        prop_assert_eq!(normalise(&compact), normalise(&pretty));
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(s in "[ -~<>&\"']{0,64}") {
        let _ = wsp_xml::parse(&s); // must not panic, errors are fine
    }
}
