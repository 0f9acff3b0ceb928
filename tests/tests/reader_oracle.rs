//! The pre-PR-5 reader as oracle for the byte-scanning one.
//!
//! `wsp_bench::e12_legacy` is the XML stack as it was before any of the
//! read path was rewritten: an owning tokenizer that walks `char`s, a
//! reader that keeps `String` pairs per declaration. It is slow and it
//! is simple, so it is what the current reader is held to: on every
//! document below, and on each of them cut short or damaged at every
//! offset, the two return equal trees or both refuse. The one place
//! they are allowed to part is whitespace that is Unicode's and not
//! XML's, which the old tokenizer skipped inside tags and the new one
//! rejects — listed document by document in its own test.
//!
//! The vendored reader predates today's error variants and offsets;
//! those are pinned by `wsp-xml`'s unit tests and by a table of damaged
//! documents whose `XmlError` was recorded from the parent commit.

use std::sync::Barrier;
use wsp_bench::e12::to_legacy_element;
use wsp_bench::e12_legacy as legacy;
use wsp_xml::reader::MAX_DEPTH;
use wsp_xml::{Element, Node, XmlError};

/// Both readers on `doc`: equal trees, or two refusals.
fn assert_agree(doc: &str) {
    match (wsp_xml::parse(doc), legacy::reader::parse(doc)) {
        (Ok(new), Ok(old)) => assert_eq!(to_legacy_element(&new), old, "trees differ on {doc:?}"),
        (Err(_), Err(_)) => {}
        (new, old) => panic!("verdicts differ on {doc:?}\n new: {new:?}\n old: {old:?}"),
    }
}

/// One document per feature the issue names, hand-written so each is
/// small enough to damage at every offset.
fn corpus() -> Vec<String> {
    [
        // nested and shadowed prefixes, one URI behind two prefixes
        r#"<p:a xmlns:p="urn:1"><p:b xmlns:p="urn:2"><p:c/></p:b><p:d xmlns:q="urn:1" q:x="1" y="2"/></p:a>"#,
        // default namespace declared, un-declared and back in scope
        r#"<a xmlns="urn:d" k="v"><b xmlns=""><c/></b><d/></a>"#,
        // the same expanded attribute through two prefixes: both refuse
        r#"<a xmlns:p="urn:q" xmlns:r="urn:q" p:x="1" r:x="2"/>"#,
        // references in text, attribute values and a namespace URI
        r#"<a x="&lt;&#33;&#x41;&quot;" xmlns:e="urn:a&amp;b">&amp;ok &#65;&#x42; &gt;<e:b>&apos;</e:b></a>"#,
        // references that expand to whitespace are layout like any other
        "<a>&#32;<b/>&#10;<c>&#9;</c></a>",
        // CDATA, comments and PIs inside and around the root
        "<?xml version=\"1.0\"?><!-- head --><?pre x?>\n<a><!--in--><![CDATA[<raw>&]]><?go  now?>t<?bare?></a><!-- tail --><?post?>\n",
        // pretty-printed layout beside data whitespace
        "<a>\n  <b>\n    <c>  </c>\n  </b>\n  <d> x </d>\n\t<e/>\r\n</a>\n",
        // mixed content keeps its text, blank runs beside elements go
        "<a>one<b/> <c>three</c>\n</a>",
        // the implicit xml prefix, even when a document rebinds it
        r#"<a xml:lang="en" xmlns:xml="urn:mine"><xml:b xml:space="preserve"> </xml:b></a>"#,
        // both quotes, whitespace around `=` and before `>`
        "<a x='1\"' y=\"2'\"\tz = \"3\"\n><b\r/></a >",
        // names, text and values beyond ASCII
        "<é:ü xmlns:é=\"urn:ß\">naïve — 漢字 😀<é:ö ä=\"ü\"/></é:ü>",
        // declarations that may not be made
        r#"<a><b xmlns:="urn:x"/></a>"#,
        r#"<a><b xmlns:p=""/></a>"#,
        // an envelope as the bindings write it
        r#"<?xml version="1.0" encoding="UTF-8"?><env:Envelope xmlns:env="http://www.w3.org/2003/05/soap-envelope"><env:Header><wsa:To xmlns:wsa="http://schemas.xmlsoap.org/ws/2004/03/addressing" env:mustUnderstand="true">p2ps://be01/Echo</wsa:To></env:Header><env:Body><ns0:echoString xmlns:ns0="urn:wspeer:echo"><ns0:text>hi &amp; bye</ns0:text></ns0:echoString></env:Body></env:Envelope>"#,
    ]
    .map(String::from)
    .to_vec()
}

/// A seeded walk over the same features: elements three deep under
/// prefixes the root declares and descendants shadow, a default
/// namespace that comes and goes, and now and then a prefix nobody
/// declared or an attribute said twice.
fn generated(seed: u64) -> String {
    struct Lcg(u64);
    impl Lcg {
        fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            from[(self.0 >> 33) as usize % from.len()]
        }
    }
    fn element(rng: &mut Lcg, depth: usize, out: &mut String) {
        let name = rng.pick(&[
            "a", "p:a", "q:b", "c", "xml:d", "p:é", "p:a", "q:b", "c", "r:e",
        ]);
        out.push('<');
        out.push_str(name);
        if depth == 0 {
            out.push_str(" xmlns:p=\"urn:1\" xmlns:q=\"urn:3\" xmlns:r=\"urn:1\"");
        }
        for _ in 0..2 {
            out.push_str(rng.pick(&[
                "",
                "",
                " xmlns:q=\"urn:1\"",
                " xmlns:p=\"urn:2&amp;\"",
                " xmlns=\"urn:d\"",
                " xmlns=\"\"",
                " p:x=\"1\"",
                " q:x='&lt;2'",
                " x=\"&#x33;\"",
                " xml:lang=\"en\"",
            ]));
        }
        if depth == 3 || rng.pick(&["open", "open", "empty"]) == "empty" {
            out.push_str("/>");
            return;
        }
        out.push('>');
        for _ in 0..3 {
            match rng.pick(&["element", "element", "text", "blank", "other"]) {
                "element" => element(rng, depth + 1, out),
                "text" => out.push_str(rng.pick(&["t", "&amp;", " x ", "&#32;", "é"])),
                "blank" => out.push_str(rng.pick(&[" ", "\n  ", "\r\n\t"])),
                _ => out.push_str(rng.pick(&["<!--c-->", "<![CDATA[ ]]>", "<?pi d?>"])),
            }
        }
        out.push_str("</");
        out.push_str(name);
        out.push('>');
    }
    let mut out = String::new();
    element(&mut Lcg(seed), 0, &mut out);
    out
}

/// Characters a damaged document gets in place of one of its own: every
/// delimiter either tokenizer looks for, and one that is none.
const DAMAGE: [char; 17] = [
    '<', '>', '&', '"', '\'', '/', '=', ' ', ';', ':', '!', '?', '-', '[', ']', '#', 'x',
];

/// `doc` cut at `at`, with the character at `at` deleted, and with it
/// replaced by each of `damage`.
fn damaged_at<'a>(
    doc: &'a str,
    at: usize,
    damage: &'a [char],
) -> impl Iterator<Item = String> + 'a {
    let (head, tail) = doc.split_at(at);
    let rest = tail.chars().next().map_or("", |c| &tail[c.len_utf8()..]);
    let replaced = damage.iter().map(move |c| format!("{head}{c}{rest}"));
    [head.to_owned(), format!("{head}{rest}")]
        .into_iter()
        .chain(replaced)
}

#[test]
fn readers_agree_on_the_corpus_whole_and_damaged_at_every_offset() {
    let mut documents = corpus();
    documents.extend((0..100).map(generated));
    let mut parsed = 0;
    for doc in &documents {
        assert_agree(doc);
        parsed += usize::from(wsp_xml::parse(doc).is_ok());
        for (at, _) in doc.char_indices() {
            damaged_at(doc, at, &DAMAGE).for_each(|damaged| assert_agree(&damaged));
        }
    }
    // The generator is there to produce documents as well as refusals
    // (two picks of the same attribute make one of the latter).
    assert!(
        parsed > documents.len() / 3,
        "only {parsed} documents parse"
    );
}

#[test]
fn readers_agree_up_to_and_past_the_depth_limit() {
    for depth in [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1] {
        let doc = format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
        assert_agree(&doc);
        assert_eq!(wsp_xml::parse(&doc).is_ok(), depth <= MAX_DEPTH);
        // Long and periodic (`<a>` is three bytes, `</a>` four): every
        // fifth offset meets every phase of both, at every depth band.
        for at in (0..doc.len()).step_by(5) {
            damaged_at(&doc, at, &['<', '>']).for_each(|damaged| assert_agree(&damaged));
        }
    }
}

/// Where the readers part, and only here: whitespace that is not one
/// of XML's four (`S ::= #x20 | #x9 | #xD | #xA`). The old tokenizer
/// skipped anything Unicode calls whitespace between the parts of a
/// tag, and ended a name only at ASCII whitespace — so it read these
/// the way no other XML parser does. The new one refuses them.
#[test]
fn whitespace_that_is_not_xmls_is_the_one_allowed_difference() {
    let refused = [
        ("<a \u{2003}b=\"1\"/>", "em space before an attribute"),
        ("<a \u{c}b=\"1\"/>", "form feed before an attribute"),
        ("<a b =\u{a0}'1'/>", "no-break space after `=`"),
        (
            "<a b\u{85}=\u{2028}\"1\"/>",
            "NEL in a name, line separator after `=`",
        ),
        ("<a\u{c}/>", "form feed ending a name"),
        ("<a\u{b}b/>", "vertical tab in a name"),
        ("<a></a\u{2003}>", "em space inside an end tag"),
        ("<a\u{1}/>", "control character in a name"),
    ];
    for (doc, what) in refused {
        let new = wsp_xml::parse(doc).expect_err(what);
        assert!(
            matches!(
                new,
                XmlError::BadName { .. } | XmlError::UnexpectedChar { .. }
            ),
            "{what}: {new:?}"
        );
        assert!(
            new.offset().is_some_and(|at| doc.is_char_boundary(at)),
            "{what}: {new:?}"
        );
    }
    // What the old reader made of them, so the difference is on record.
    assert!(legacy::reader::parse(refused[0].0).is_ok());
    assert!(legacy::reader::parse(refused[3].0).is_ok());
    // A processing instruction's target ends at XML whitespace too.
    let pi = |e: &Element| match &e.children()[0] {
        Node::ProcessingInstruction { target, data } => (target.clone(), data.clone()),
        other => panic!("not a PI: {other:?}"),
    };
    let new =
        wsp_xml::parse("<a><?go\u{c}now \u{2003}then?></a>").expect("PI content is free-form");
    assert_eq!(pi(&new), ("go\u{c}now".into(), "\u{2003}then".into()));
    // Outside tags nothing changed: blank is still Unicode-blank.
    assert_agree("\u{2003}<a>\u{2003}<b/>\u{a0}</a>\u{85}");
}

/// Variant, offset and payload of these errors as the parent commit
/// reported them (recorded by running this table against it).
#[test]
fn errors_are_the_parent_commits() {
    use XmlError::*;
    let eof = |offset, expecting| UnexpectedEof { offset, expecting };
    let unexpected = |offset, found, expecting| UnexpectedChar {
        offset,
        found,
        expecting,
    };
    let deep = "<a>".repeat(MAX_DEPTH + 1);
    let quote = "'\"' or '\\'' starting attribute value";
    let table: Vec<(&str, XmlError)> = vec![
        ("<a", eof(2, "'>' closing tag")),
        ("<a x", eof(4, "more input")),
        ("<a x=", eof(5, "quoted attribute value")),
        ("<a x=\"1", eof(6, "closing attribute quote")),
        ("<a><!-- never", eof(3, "'-->' terminating comment")),
        (
            "<a><![CDATA[ never",
            eof(3, "']]>' terminating CDATA section"),
        ),
        (
            "<?pi never",
            eof(0, "'?>' terminating processing instruction"),
        ),
        ("<a><b>", eof(6, "closing tag for open element")),
        ("<a>é<", eof(6, "name")),
        (
            "<!DOCTYPE a><a/>",
            unexpected(1, '!', "element, comment or CDATA (DTDs unsupported)"),
        ),
        ("<a x\"1\"/>", unexpected(7, '/', "'='")),
        ("<a x=1/>", unexpected(5, '1', quote)),
        ("<a / >", unexpected(4, ' ', "'>'")),
        ("<a></a b>", unexpected(7, 'b', "'>'")),
        ("<>", unexpected(1, '>', "name start character")),
        ("<a =\"1\"/>", unexpected(3, '=', "name start character")),
        (
            "<a x=\"1\" x=\"2\"/>",
            DuplicateAttribute {
                offset: 9,
                name: "x".into(),
            },
        ),
        (
            "<a xmlns:p=\"urn:q\" xmlns:r=\"urn:q\" p:x=\"1\" r:x=\"2\"/>",
            DuplicateAttribute {
                offset: 0,
                name: "{urn:q}x".into(),
            },
        ),
        (
            "<a><b></a></b>",
            MismatchedTag {
                offset: 6,
                open: "b".into(),
                close: "a".into(),
            },
        ),
        (
            "<a>é</b>",
            MismatchedTag {
                offset: 5,
                open: "a".into(),
                close: "b".into(),
            },
        ),
        (
            "<q:a/>",
            UnboundPrefix {
                offset: 0,
                prefix: "q".into(),
            },
        ),
        (
            "<a q:x=\"1\"/>",
            UnboundPrefix {
                offset: 0,
                prefix: "q".into(),
            },
        ),
        (
            "<é:a/>",
            UnboundPrefix {
                offset: 0,
                prefix: "é".into(),
            },
        ),
        ("x<a/>", ContentOutsideRoot { offset: 0 }),
        ("<a/><b/>", ContentOutsideRoot { offset: 4 }),
        ("<a/>x", ContentOutsideRoot { offset: 4 }),
        ("</a>", ContentOutsideRoot { offset: 0 }),
        ("", NoRootElement),
        ("   ", NoRootElement),
        (
            "<a>&bogus;</a>",
            BadEntity {
                offset: 3,
                entity: "bogus".into(),
            },
        ),
        (
            "<a x=\"&#xZZ;\"/>",
            BadEntity {
                offset: 0,
                entity: "#xZZ".into(),
            },
        ),
        (
            "<r><a xmlns:p=\"&nope;\"/></r>",
            BadEntity {
                offset: 3,
                entity: "nope".into(),
            },
        ),
        (
            "<a xmlns:=\"urn:x\"/>",
            BadName {
                offset: 0,
                name: "xmlns:".into(),
            },
        ),
        (
            "<a xmlns:p=\"\"/>",
            BadName {
                offset: 0,
                name: "xmlns:p".into(),
            },
        ),
        (
            &deep,
            LimitExceeded {
                what: "nesting depth",
                limit: 256,
            },
        ),
    ];
    for (doc, expected) in table {
        assert_eq!(wsp_xml::parse(doc), Err(expected), "{doc:?}");
    }
}

/// Eight threads, each parsing documents in a vocabulary no other
/// thread uses, all released at once: every thread's front cache fills
/// through the same global table, and every tree must be the one a
/// single thread builds from the same text.
#[test]
fn eight_threads_with_disjoint_vocabularies_build_the_single_thread_trees() {
    let document = |thread: usize, round: usize| {
        let (ns, name) = (
            format!("urn:thread:{thread}"),
            format!("t{thread}n{}", round % 40),
        );
        format!("<v:{name} xmlns:v=\"{ns}\" v:{name}a=\"{round}\"><{name}c>{round}</{name}c></v:{name}>")
    };
    let barrier = Barrier::new(8);
    let parse_all = |thread| {
        barrier.wait();
        (0..400)
            .map(|round| wsp_xml::parse(&document(thread, round)).expect("parses"))
            .collect::<Vec<Element>>()
    };
    let per_thread: Vec<Vec<Element>> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..8)
            .map(|thread| scope.spawn(move || parse_all(thread)))
            .collect();
        threads
            .into_iter()
            .map(|handle| handle.join().expect("parser thread panicked"))
            .collect()
    });
    for (thread, trees) in per_thread.iter().enumerate() {
        for (round, tree) in trees.iter().enumerate() {
            let doc = document(thread, round);
            assert_eq!(tree, &wsp_xml::parse(&doc).expect("parses"), "{doc}");
            let old = legacy::reader::parse(&doc).expect("parses");
            assert_eq!(to_legacy_element(tree), old, "{doc}");
        }
    }
}
