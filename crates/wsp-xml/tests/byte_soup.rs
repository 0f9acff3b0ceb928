//! Byte soup for the reader: whatever arrives, `wsp_xml::parse` answers
//! with a tree or an error and never panics (no slice off a character
//! boundary, no index past the end, no unbounded recursion) — and
//! whatever tree the writer is handed, hostile text and attribute
//! values included, comes back from the reader as it went in. The same
//! for the pull reader under it, however it is driven: it reaches the
//! end of exactly the documents `parse` accepts.

use proptest::prelude::*;
use wsp_xml::{parse, Element, Pull, PullReader, QName, XmlResult};

/// Read `input` to its end through the pull reader, taking each start
/// tag as `steer` says — descend, build its subtree, or skip it — and
/// asking of every one what a caller may ask.
fn pull(input: &str, mut steer: u64) -> XmlResult<()> {
    let mut reader = PullReader::new(input);
    loop {
        match reader.next()? {
            Pull::Eof => return Ok(()),
            Pull::Text(_) | Pull::End => {}
            Pull::Start => {
                let local = reader.local_name();
                assert!(!reader.is("urn:no-such", local));
                let mut shown = 0;
                reader.attributes(|_, _, _| shown += 1);
                assert_eq!(reader.attribute_count(), shown);
                match steer % 3 {
                    0 => {}
                    1 => drop(reader.read_subtree()?),
                    _ => reader.skip()?,
                }
                steer /= 3;
            }
        }
    }
}

/// The pull reader never panics on `input`, and — descending,
/// building, skipping or any mix of them — ends where `parse` does: at
/// the end of the document, or at an error.
fn pulls_as_it_parses(input: &str, steer: u64) {
    let parsed = parse(input).is_ok();
    for steer in [0, steer, u64::MAX] {
        assert_eq!(
            pull(input, steer).is_ok(),
            parsed,
            "steer {steer}: {input:?}"
        );
    }
}

/// Arbitrary strings: fragments a tokenizer can trip over, mixed with
/// text drawn from the whole of Unicode, control characters included.
fn markup_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just("<".to_string()),
            Just(">".to_string()),
            Just("</".to_string()),
            Just("/>".to_string()),
            Just("<a>".to_string()),
            Just("</a>".to_string()),
            Just("<a:b xmlns:a=\"urn:a\">".to_string()),
            Just("<?xml version=\"1.0\"?>".to_string()),
            Just("<?".to_string()),
            Just("<!--".to_string()),
            Just("-->".to_string()),
            Just("<![CDATA[".to_string()),
            Just("]]>".to_string()),
            Just("<!DOCTYPE".to_string()),
            Just("&".to_string()),
            Just("&#x".to_string()),
            Just("&amp;".to_string()),
            Just("=\"".to_string()),
            Just("='".to_string()),
            Just(" x=\"1\" x=\"2\"".to_string()),
            Just("xmlns=\"\"".to_string()),
            Just("\u{feff}".to_string()),
            "[ -~]{0,8}",
            "[\u{0}-\u{1f}]{1,2}",
            "[\u{80}-\u{d7ff}\u{e000}-\u{10ffff}]{1,4}",
        ],
        0..24,
    )
    .prop_map(|tokens| tokens.concat())
}

/// Text and attribute values that stress both escapers and the
/// expander; no whitespace-only or empty strings (the reader drops the
/// former as layout, the builder the latter).
fn hostile_value() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            "[&<>\"']{1,9}",
            Just("]]>".to_string()),
            Just("&amp;".to_string()),
            Just("&#38;".to_string()),
            Just("<!--".to_string()),
            "[\t\n]{1,3}",
            "[ -~]{1,12}",
            "[\u{80}-\u{7ff}]{1,3}",
            "[\u{800}-\u{d7ff}]{1,2}",
            "[\u{10000}-\u{10ffff}]{1,2}",
        ],
        1..8,
    )
    .prop_map(|tokens| format!("v{}", tokens.concat()))
}

fn namespace() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just(""), Just("urn:a"), Just("urn:b&<c>\"")]
}

/// Leaves carry one hostile text run and hostile attribute values;
/// inner elements carry only elements, so the tree the reader builds
/// has the same shape as the one the writer was given.
fn hostile_tree() -> impl Strategy<Value = Element> {
    let leaf = (
        namespace(),
        "[a-z]{1,6}",
        proptest::collection::vec((namespace(), hostile_value()), 0..3),
        proptest::option::of(hostile_value()),
    )
        .prop_map(|(ns, local, attrs, text)| {
            let mut e = Element::new(ns, local);
            for (i, (attr_ns, value)) in attrs.into_iter().enumerate() {
                e.set_attribute(QName::new(attr_ns, format!("k{i}")), value);
            }
            if let Some(text) = text {
                e.push_text(text);
            }
            e
        });
    leaf.prop_recursive(4, 24, 4, |inner| {
        (
            namespace(),
            "[a-z]{1,6}",
            proptest::collection::vec(inner, 1..4),
        )
            .prop_map(|(ns, local, children)| {
                let mut e = Element::new(ns, local);
                children.into_iter().for_each(|c| e.push_element(c));
                e
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_strings_never_panic_the_reader(s in markup_soup()) {
        let _ = parse(&s);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_reader(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }

    /// A well-formed document cut or damaged anywhere is still only an
    /// error: the interesting offsets are inside tags and references.
    #[test]
    fn damaged_documents_never_panic_the_reader(
        tree in hostile_tree(),
        cut in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mut bytes = tree.to_xml().into_bytes();
        let at = cut % bytes.len();
        let _ = parse(&String::from_utf8_lossy(&bytes[..at]));
        bytes[at] = byte;
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn arbitrary_strings_never_panic_the_pull_reader(s in markup_soup(), steer in any::<u64>()) {
        pulls_as_it_parses(&s, steer);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_pull_reader(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        steer in any::<u64>(),
    ) {
        pulls_as_it_parses(&String::from_utf8_lossy(&bytes), steer);
    }

    #[test]
    fn damaged_documents_never_panic_the_pull_reader(
        tree in hostile_tree(),
        cut in any::<usize>(),
        byte in any::<u8>(),
        steer in any::<u64>(),
    ) {
        let mut bytes = tree.to_xml().into_bytes();
        let at = cut % bytes.len();
        pulls_as_it_parses(&String::from_utf8_lossy(&bytes[..at]), steer);
        bytes[at] = byte;
        pulls_as_it_parses(&String::from_utf8_lossy(&bytes), steer);
    }

    #[test]
    fn hostile_trees_survive_write_then_parse(tree in hostile_tree()) {
        let xml = tree.to_xml();
        let parsed = parse(&xml);
        prop_assert_eq!(parsed.as_ref(), Ok(&tree), "wire form: {}", xml);
    }
}
