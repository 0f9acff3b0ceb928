//! Wire-byte identity: the single-pass writer (PR 5) must produce
//! byte-for-byte the same output as the pre-PR-5 two-pass writer on
//! every document family the stack puts on the wire — SOAP envelopes,
//! WSDL contracts, UDDI registry messages, and hostile hand-built
//! trees. The old writer is the vendored copy in
//! `wsp_bench::e12_legacy`; trees are deep-converted into its tree
//! model and serialised under an equivalent configuration.

use std::borrow::Cow;
use wsp_bench::e12::{self, to_legacy_element, LegacyEnvelope};
use wsp_bench::e12_legacy as legacy;
use wsp_integration_tests::{calc_descriptor, reference};
use wsp_soap::{Envelope, SOAP_ENV_NS, WSA_NS};
use wsp_uddi::wire::{write_request, write_response};
use wsp_uddi::{
    BindingTemplate, BusinessService, KeyedReference, ServiceQuery, UddiOp, UddiRequest,
    UddiResponse, UDDI_NS,
};
use wsp_wsdl::{Port, TransportKind, WsdlDocument};
use wsp_xml::{Element, Writer, WriterConfig};

/// Serialise `root` with both writers under the same logical config
/// and assert the bytes agree, for wire and pretty modes.
fn assert_identity(label: &str, root: &Element, prefers: &[(&str, &str)]) {
    let old_root = to_legacy_element(root);
    for pretty in [false, true] {
        let mut new_cfg = if pretty {
            WriterConfig::pretty()
        } else {
            WriterConfig::wire()
        };
        let mut old_cfg = if pretty {
            legacy::writer::WriterConfig::pretty()
        } else {
            legacy::writer::WriterConfig::wire()
        };
        for (ns, prefix) in prefers {
            new_cfg = new_cfg.prefer(*ns, *prefix);
            old_cfg = old_cfg.prefer(*ns, *prefix);
        }
        let new = Writer::new(new_cfg).write(root);
        let old = legacy::writer::Writer::new(old_cfg).write(&old_root);
        assert_eq!(old, new, "{label} (pretty={pretty})");
    }
}

#[test]
fn soap_envelopes_are_byte_identical() {
    for (name, envelope) in e12::corpus() {
        let old = e12::legacy_encode(&LegacyEnvelope::from_current(&envelope));
        let new = envelope.to_xml_bytes();
        assert_eq!(old.as_bytes(), new.as_slice(), "{name}");
    }
}

#[test]
fn wsdl_contracts_are_byte_identical() {
    let doc = WsdlDocument::new(
        calc_descriptor(),
        vec![
            Port {
                name: "CalcHttp".into(),
                transport: TransportKind::Http,
                location: "http://127.0.0.1:9001/services/Calc".into(),
            },
            Port {
                name: "CalcP2ps".into(),
                transport: TransportKind::P2ps,
                location: "p2ps://peer-7/Calc".into(),
            },
        ],
    );
    // The same prefixes WsdlDocument::to_xml uses.
    assert_identity(
        "wsdl definitions",
        &doc.to_element(),
        &[
            ("http://schemas.xmlsoap.org/wsdl/", "wsdl"),
            ("http://schemas.xmlsoap.org/wsdl/soap/", "soap"),
            ("http://www.w3.org/2001/XMLSchema", "xsd"),
        ],
    );
}

/// The registry plane's streamed writers against the old writer, each
/// over the envelope of the document's reference tree.
#[test]
fn uddi_messages_are_byte_identical() {
    let legacy = |payload: Element| {
        e12::legacy_encode(&LegacyEnvelope::from_current(&Envelope::request(payload)))
    };
    let service = BusinessService::new("svc-1", "biz-9", "Calc")
        .with_description("adds & subtracts <doubles>")
        .with_category(KeyedReference::new("uddi:tmodel:types", "type", "calc"))
        .with_binding(
            BindingTemplate::new("bind-1", "http://127.0.0.1:9001/services/Calc")
                .with_tmodel("uddi:tmodel:http"),
        );
    let mut written = Vec::new();
    write_response(
        &UddiResponse::ServiceDetail(vec![service.clone()]),
        &mut written,
    );
    let detail = Element::build(UDDI_NS, "serviceDetail")
        .child(reference::business_service(&service))
        .finish();
    assert_eq!(legacy(detail).as_bytes(), written, "uddi serviceDetail");

    let query = ServiceQuery::by_name("Calc%");
    let mut written = Vec::new();
    write_request(
        &UddiRequest::new(UddiOp::FindService(Cow::Borrowed(&query))),
        &mut written,
    );
    let find = reference::service_query(&query);
    assert_eq!(legacy(find).as_bytes(), written, "uddi find_service");
}

#[test]
fn hostile_documents_are_byte_identical() {
    // Every writer edge the rewrite touched: CDATA with embedded
    // terminators, comments, processing instructions, attribute
    // escaping (quotes, tabs, newlines), text escaping back to back
    // with multi-byte UTF-8, default-namespace children, unprefixed
    // attributes, and a namespace with no preferred prefix (generated
    // ns0/ns1 counters).
    let mut root = Element::build("urn:a", "root")
        .attr(wsp_xml::QName::new("urn:b", "ref"), "x\"y\t<z>\n&€")
        .attr_str("plain", "value")
        .child(
            Element::build("", "unqualified")
                .text("text & <markup> 𐍈é€")
                .finish(),
        )
        .child(
            Element::build("urn:c", "deep")
                .text("x".repeat(300))
                .finish(),
        )
        .finish();
    let mut data = Element::new("urn:a", "data");
    data.children_mut()
        .push(wsp_xml::Node::CData("raw ]]> raw ]]>]]> tail".into()));
    root.push_element(data);
    root.children_mut()
        .push(wsp_xml::Node::Comment("a - comment".into()));
    root.children_mut()
        .push(wsp_xml::Node::ProcessingInstruction {
            target: "target".into(),
            data: "data here".into(),
        });
    assert_identity("hostile tree", &root, &[("urn:a", "a")]);
}

#[test]
fn addressed_fault_envelope_is_byte_identical() {
    use wsp_soap::{Fault, FaultCode, MessageHeaders};
    let mut envelope = Envelope::fault(Fault::new(FaultCode::Receiver, "boom & <bust> \"quoted\""));
    envelope.set_addressing(MessageHeaders::request("urn:to", "urn:action"));
    // The fault path goes through Fault::to_element inside
    // Envelope::to_element on both stacks; convert the rendered tree.
    let shell = envelope.to_element();
    assert_identity(
        "fault envelope",
        &shell,
        &[(SOAP_ENV_NS, "env"), (WSA_NS, "wsa")],
    );
}

// --- P2PS: the one reader held to its oracle -----------------------------------

mod pipe_data {
    use proptest::prelude::*;
    use wsp_integration_tests::reference;
    use wsp_p2ps::{
        P2psMessage, P2psQuery, PeerId, PipeAdvertisement, ServiceAdvertisement, P2PS_NS,
    };
    use wsp_xml::{Element, Node, QName, Writer, WriterConfig};

    /// The tree writer, the byte reference of every message.
    fn tree_encode(message: &P2psMessage) -> String {
        Writer::new(WriterConfig::default()).write(&reference::message(message))
    }

    /// A parsed element as the reader takes it: text and CDATA runs are
    /// one text; comments, layout in an element that holds no text, the
    /// layout around a peer id (a `Peer`, an `origin`) and the order of
    /// differently named children carry nothing. Layout between elements
    /// and prefixes `parse` takes away itself.
    #[derive(Debug, PartialEq)]
    struct Canon {
        name: String,
        attributes: Vec<(String, String)>,
        text: String,
        children: Vec<Canon>,
    }

    fn canon(e: &Element) -> Canon {
        let peer = |a: &wsp_xml::Attribute| match a.name.is("", "origin") {
            true => a.value.trim().to_owned(),
            false => a.value.clone(),
        };
        let mut attributes: Vec<(String, String)> = (e.attributes().iter())
            .map(|a| (format!("{:?}", a.name), peer(a)))
            .collect();
        attributes.sort();
        let (mut text, mut children) = (String::new(), Vec::new());
        for node in e.children() {
            match node {
                Node::Text(run) | Node::CData(run) => text.push_str(run),
                Node::Element(child) => children.push(canon(child)),
                _ => {}
            }
        }
        let holds_text = ["Peer", "Service", "Name", "Payload", "Attribute"]
            .iter()
            .any(|leaf| e.name().is(P2PS_NS, leaf));
        if e.name().is(P2PS_NS, "Peer") || !holds_text && text.trim().is_empty() {
            text = text.trim().to_owned();
        }
        children.sort_by(|a, b| a.name.cmp(&b.name));
        Canon {
            name: format!("{:?}", e.name()),
            attributes,
            text,
            children,
        }
    }

    /// What the reader makes of `xml`. A message it reads, written back,
    /// is the same document.
    fn read_as_it_says(xml: &str) -> Option<P2psMessage> {
        let read = P2psMessage::from_xml(xml)?;
        let document = wsp_xml::parse(xml).expect("the reader took it: it parses");
        let written = wsp_xml::parse(&read.to_xml()).expect("written");
        assert_eq!(canon(&written), canon(&document), "{xml}");
        Some(read)
    }

    /// Captured from the parent commit's `to_xml()` (tree writer): a
    /// payload and pipe fields that need every kind of escaping, the
    /// empty payload, and empty-but-present service/name fields; then
    /// one of each other variant.
    #[test]
    fn frames_are_byte_identical_to_the_parent_commit() {
        let advert = ServiceAdvertisement::new("Echo & <Co>", PeerId(0xBE01))
            .with_pipe("echoString")
            .with_definition_pipe()
            .with_attribute("domain", "a \"b\" <c>");
        let advert_wire = "<ns0:ServiceAdvertisement><ns0:Name>Echo &amp; &lt;Co&gt;</ns0:Name>\
             <ns0:Peer>000000000000be01</ns0:Peer><ns0:PipeAdvertisement>\
             <ns0:Peer>000000000000be01</ns0:Peer><ns0:Service>Echo &amp; &lt;Co&gt;</ns0:Service>\
             <ns0:Name>echoString</ns0:Name></ns0:PipeAdvertisement><ns0:PipeAdvertisement>\
             <ns0:Peer>000000000000be01</ns0:Peer><ns0:Service>Echo &amp; &lt;Co&gt;</ns0:Service>\
             <ns0:Name>definition</ns0:Name></ns0:PipeAdvertisement><ns0:Attributes>\
             <ns0:Attribute name=\"domain\">a \"b\" &lt;c&gt;</ns0:Attribute></ns0:Attributes>\
             </ns0:ServiceAdvertisement>";
        let golden = [
            (
                P2psMessage::PipeData {
                    to: PipeAdvertisement::new(
                        PeerId(0xBE01),
                        Some("Echo & <Co>".into()),
                        "echo\"String'",
                    ),
                    payload: "<env:Envelope a=\"1\">x < y && z > w ]]> \"quoted\" 'single' \
                              déjà vu \u{2603} \u{1F600}\r\n\ttab</env:Envelope>"
                        .into(),
                },
                "<ns0:PipeData xmlns:ns0=\"urn:wspeer:p2ps\"><ns0:PipeAdvertisement>\
                 <ns0:Peer>000000000000be01</ns0:Peer>\
                 <ns0:Service>Echo &amp; &lt;Co&gt;</ns0:Service>\
                 <ns0:Name>echo\"String'</ns0:Name></ns0:PipeAdvertisement>\
                 <ns0:Payload>&lt;env:Envelope a=\"1\"&gt;x &lt; y &amp;&amp; z &gt; w ]]&gt; \
                 \"quoted\" 'single' déjà vu \u{2603} \u{1F600}\r\n\ttab&lt;/env:Envelope&gt;\
                 </ns0:Payload></ns0:PipeData>"
                    .to_owned(),
            ),
            (
                P2psMessage::PipeData {
                    to: PipeAdvertisement::new(PeerId(7), None, "pipe-1"),
                    payload: String::new(),
                },
                "<ns0:PipeData xmlns:ns0=\"urn:wspeer:p2ps\"><ns0:PipeAdvertisement>\
                 <ns0:Peer>0000000000000007</ns0:Peer><ns0:Name>pipe-1</ns0:Name>\
                 </ns0:PipeAdvertisement><ns0:Payload/></ns0:PipeData>"
                    .to_owned(),
            ),
            (
                P2psMessage::PipeData {
                    to: PipeAdvertisement::new(PeerId(7), Some(String::new()), ""),
                    payload: "  ".into(),
                },
                "<ns0:PipeData xmlns:ns0=\"urn:wspeer:p2ps\"><ns0:PipeAdvertisement>\
                 <ns0:Peer>0000000000000007</ns0:Peer><ns0:Service/><ns0:Name/>\
                 </ns0:PipeAdvertisement><ns0:Payload>  </ns0:Payload></ns0:PipeData>"
                    .to_owned(),
            ),
            (
                P2psMessage::Advertise {
                    advert: advert.clone(),
                    ttl: 3,
                },
                format!(
                    "<ns0:Advertise xmlns:ns0=\"urn:wspeer:p2ps\" ttl=\"3\">{advert_wire}\
                     </ns0:Advertise>"
                ),
            ),
            (
                P2psMessage::Query {
                    id: 42,
                    origin: PeerId(0x99),
                    query: P2psQuery::by_name("Ech%").with_attribute("k'", "v & w"),
                    ttl: 5,
                },
                "<ns0:QueryMsg xmlns:ns0=\"urn:wspeer:p2ps\" id=\"42\" origin=\"0000000000000099\" \
                 ttl=\"5\"><ns0:Query><ns0:Name>Ech%</ns0:Name>\
                 <ns0:Attribute name=\"k'\">v &amp; w</ns0:Attribute></ns0:Query></ns0:QueryMsg>"
                    .to_owned(),
            ),
            (
                P2psMessage::QueryHit {
                    id: u64::MAX,
                    origin: PeerId(0x99),
                    adverts: vec![ServiceAdvertisement::new("Bare", PeerId(1)), advert],
                },
                format!(
                    "<ns0:QueryHit xmlns:ns0=\"urn:wspeer:p2ps\" id=\"18446744073709551615\" \
                     origin=\"0000000000000099\"><ns0:ServiceAdvertisement><ns0:Name>Bare</ns0:Name>\
                     <ns0:Peer>0000000000000001</ns0:Peer></ns0:ServiceAdvertisement>{advert_wire}\
                     </ns0:QueryHit>"
                ),
            ),
            (
                P2psMessage::Ping { nonce: 7 },
                "<ns0:Ping xmlns:ns0=\"urn:wspeer:p2ps\" nonce=\"7\"/>".to_owned(),
            ),
            (
                P2psMessage::Pong { nonce: u64::MAX },
                "<ns0:Pong xmlns:ns0=\"urn:wspeer:p2ps\" nonce=\"18446744073709551615\"/>"
                    .to_owned(),
            ),
        ];
        for (message, wire) in golden {
            assert_eq!(message.to_xml(), wire);
            assert_eq!(tree_encode(&message), wire);
            assert_eq!(read_as_it_says(&wire).as_ref(), Some(&message));
            // The length-prefixed frame is the same bytes behind a header.
            let frame = wsp_p2ps::pipe_tcp::encode_frame(&message);
            assert_eq!(&frame[..4], (wire.len() as u32).to_be_bytes());
            assert_eq!(&frame[4..], wire.as_bytes());
        }
    }

    /// Text stitched from everything the escaper, the tokenizer and the
    /// entity decoder treat specially, plus markup that imitates the
    /// frame's own tags.
    fn tricky_text(max_pieces: usize) -> impl Strategy<Value = String> {
        const PIECES: [&str; 24] = [
            "<",
            ">",
            "&",
            "]]>",
            "\"",
            "'",
            " ",
            "\n",
            "\r",
            "\t",
            "é",
            "\u{2603}",
            "\u{1F600}",
            "&amp;",
            "&#x41;",
            "&bogus;",
            "<![CDATA[",
            "<!--",
            "?>",
            "</ns0:Payload>",
            "<ns0:Payload/>",
            "x",
            "soap",
            "=",
        ];
        proptest::collection::vec(0usize..PIECES.len(), 0..max_pieces)
            .prop_map(|picks| picks.into_iter().map(|i| PIECES[i]).collect())
    }

    fn pipe_advert() -> impl Strategy<Value = PipeAdvertisement> {
        (
            any::<u64>(),
            proptest::option::of(tricky_text(4)),
            tricky_text(4),
        )
            .prop_map(|(peer, service, name)| PipeAdvertisement::new(PeerId(peer), service, name))
    }

    fn attributes() -> impl Strategy<Value = Vec<(String, String)>> {
        proptest::collection::vec((tricky_text(3), tricky_text(4)), 0..3)
    }

    fn service_advert() -> impl Strategy<Value = ServiceAdvertisement> {
        (
            tricky_text(4),
            any::<u64>(),
            proptest::collection::vec(pipe_advert(), 0..3),
            attributes(),
        )
            .prop_map(|(name, peer, pipes, attributes)| ServiceAdvertisement {
                name,
                peer: PeerId(peer),
                pipes,
                attributes,
            })
    }

    /// One message of each variant.
    fn every_variant() -> impl Strategy<Value = [P2psMessage; 6]> {
        let query = (proptest::option::of(tricky_text(4)), attributes()).prop_map(
            |(name_pattern, attributes)| P2psQuery {
                name_pattern,
                attributes,
            },
        );
        let hit = proptest::collection::vec(service_advert(), 0..3);
        let numbers = (any::<u8>(), any::<u64>(), any::<u64>());
        (
            service_advert(),
            query,
            hit,
            pipe_advert(),
            tricky_text(24),
            numbers,
        )
            .prop_map(|(advert, query, adverts, to, payload, (ttl, id, origin))| {
                let origin = PeerId(origin);
                [
                    P2psMessage::Advertise { advert, ttl },
                    P2psMessage::Query {
                        id,
                        origin,
                        query,
                        ttl,
                    },
                    P2psMessage::QueryHit {
                        id,
                        origin,
                        adverts,
                    },
                    P2psMessage::PipeData { to, payload },
                    P2psMessage::Ping { nonce: id },
                    P2psMessage::Pong { nonce: id },
                ]
            })
    }

    /// `message`'s tree with `edit` applied to its `n`-th element in
    /// document order, written; `None` past the last.
    fn edited(message: &P2psMessage, n: usize, edit: &dyn Fn(&mut Element)) -> Option<String> {
        fn walk(e: &mut Element, n: &mut usize, edit: &dyn Fn(&mut Element)) -> bool {
            if *n == 0 {
                edit(e);
                return true;
            }
            *n -= 1;
            e.children_mut().iter_mut().any(|child| match child {
                Node::Element(child) => walk(child, n, edit),
                _ => false,
            })
        }
        let mut tree = reference::message(message);
        let found = walk(&mut tree, &mut { n }, edit);
        found.then(|| Writer::new(WriterConfig::default()).write(&tree))
    }

    /// Every child list under `e` reversed.
    fn reversed(e: &mut Element) {
        e.children_mut().reverse();
        for child in e.children_mut() {
            if let Node::Element(child) = child {
                reversed(child);
            }
        }
    }

    /// `e`'s first child element given twice.
    fn repeated(e: &mut Element) {
        if let Some(at) = e.children().iter().position(|c| c.as_element().is_some()) {
            let twin = e.children()[at].clone();
            e.children_mut().insert(at, twin);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn streaming_encode_is_the_tree_encode(messages in every_variant()) {
            for message in &messages {
                prop_assert_eq!(message.to_xml(), tree_encode(message));
            }
        }

        /// The reader reads every message the tree writer writes as the
        /// message written: `read(write(m)) == m`, each variant.
        #[test]
        fn streaming_decode_is_the_tree_decode(messages in every_variant()) {
            for message in messages {
                let wire = tree_encode(&message);
                prop_assert_eq!(read_as_it_says(&wire), Some(message), "wire: {}", wire);
            }
        }

        /// Off the canonical shape — something spliced in at an arbitrary
        /// point, the document cut there, an element's children reversed
        /// or one of them repeated, a stranger added — the reader never
        /// panics: it refuses the document, or reads it as what it says.
        /// A cut or a stranger is always refused, a reversal always read.
        #[test]
        fn damaged_frames_are_refused_or_read_as_they_say(
            messages in every_variant(),
            splice in tricky_text(3),
            at in any::<usize>(),
        ) {
            for message in &messages {
                let wire = message.to_xml();
                let mut cut = at % (wire.len() + 1);
                while !wire.is_char_boundary(cut) {
                    cut -= 1;
                }
                let mut spliced = wire.clone();
                spliced.insert_str(cut, &splice);
                read_as_it_says(&spliced);
                if cut < wire.len() {
                    prop_assert_eq!(read_as_it_says(&wire[..cut]), None);
                }

                let elements = reference::message(message).subtree_size();
                let n = at % elements;
                let reshaped = edited(message, n, &reversed).expect("n is in the tree");
                prop_assert!(read_as_it_says(&reshaped).is_some(), "{}", reshaped);
                read_as_it_says(&edited(message, n, &repeated).expect("in the tree"));
                let strangers: [&dyn Fn(&mut Element); 2] = [
                    &|e| e.push_element(Element::new("urn:stranger", "s")),
                    &|e| e.set_attribute(QName::new("urn:stranger", "s"), "1"),
                ];
                for stranger in strangers {
                    let odd = edited(message, n, stranger).expect("in the tree");
                    prop_assert_eq!(read_as_it_says(&odd), None, "{}", odd);
                }
            }
        }

        /// Soup of the wire's own pieces — its tags and texts, cut after
        /// every `>` — and tricky text, in any order: never a panic, and
        /// what is read is what the soup says.
        #[test]
        fn soup_is_refused_or_read_as_it_says(
            messages in every_variant(),
            filler in tricky_text(3),
            picks in proptest::collection::vec(any::<usize>(), 1..24),
        ) {
            let wires: String = messages.iter().map(P2psMessage::to_xml).collect();
            let mut pieces: Vec<&str> = wires.split_inclusive('>').collect();
            pieces.push(&filler);
            let soup: String = picks.iter().map(|&i| pieces[i % pieces.len()]).collect();
            read_as_it_says(&soup);
        }
    }

    /// Well-formed documents the writer never writes, each with the
    /// verdict the reader gives it (DESIGN.md §11): read as the message
    /// stated, or refused.
    #[test]
    fn uncanonical_frames_get_their_stated_verdict() {
        let peer = "<p:Peer>0000000000000007</p:Peer>";
        let data = |payload: &str| {
            Some(P2psMessage::PipeData {
                to: PipeAdvertisement::new(PeerId(7), None, "n"),
                payload: payload.into(),
            })
        };
        let advert = ServiceAdvertisement::new("S", PeerId(7))
            .with_pipe("a")
            .with_attribute("k", "v");
        let table: Vec<(String, Option<P2psMessage>)> = vec![
            // Read. A default namespace instead of a prefix.
            (
                "<PipeData xmlns=\"urn:wspeer:p2ps\"><PipeAdvertisement><Peer>0000000000000007</Peer>\
                 <Name>n</Name></PipeAdvertisement><Payload>x</Payload></PipeData>"
                    .to_owned(),
                data("x"),
            ),
            // Another prefix, layout, a declaration, a trailing comment.
            (
                format!(
                    "<?xml version=\"1.0\"?>\n<p:PipeData xmlns:p=\"urn:wspeer:p2ps\">\n  \
                     <p:PipeAdvertisement>{peer}<p:Name>n</p:Name></p:PipeAdvertisement>\n  \
                     <p:Payload>x</p:Payload>\n</p:PipeData><!-- bye -->"
                ),
                data("x"),
            ),
            // The payload before the advert, a CDATA payload, a padded peer id.
            (
                "<p:PipeData xmlns:p=\"urn:wspeer:p2ps\"><p:Payload><![CDATA[<raw>]]></p:Payload>\
                 <p:PipeAdvertisement><p:Peer> 0000000000000007 </p:Peer><p:Name>n</p:Name>\
                 </p:PipeAdvertisement></p:PipeData>"
                    .to_owned(),
                data("<raw>"),
            ),
            // An advert's parts in reverse, with layout.
            (
                "<p:Advertise xmlns:p=\"urn:wspeer:p2ps\" ttl=\"2\">\n <p:ServiceAdvertisement>\n  \
                 <p:Attributes><p:Attribute name=\"k\">v</p:Attribute></p:Attributes>\n  \
                 <p:PipeAdvertisement><p:Name>a</p:Name><p:Service>S</p:Service>{peer}\
                 </p:PipeAdvertisement>\n  {peer}<p:Name>S</p:Name>\n </p:ServiceAdvertisement>\n\
                 </p:Advertise>"
                    .replace("{peer}", peer),
                Some(P2psMessage::Advertise { advert, ttl: 2 }),
            ),
            // A query with no name pattern, an empty element with layout.
            (
                "<QueryMsg xmlns=\"urn:wspeer:p2ps\" ttl=\"1\" origin=\"0000000000000007\" id=\"9\">\
                 <Query>\n</Query></QueryMsg>"
                    .to_owned(),
                Some(P2psMessage::Query {
                    id: 9,
                    origin: PeerId(7),
                    query: P2psQuery::any(),
                    ttl: 1,
                }),
            ),
            (
                "<p:Ping xmlns:p=\"urn:wspeer:p2ps\" nonce=\"7\">\n</p:Ping>".to_owned(),
                Some(P2psMessage::Ping { nonce: 7 }),
            ),
            // Refused. A child that rebinds the prefix to a foreign
            // namespace: `UnknownElement`.
            (
                format!(
                    "<p:PipeData xmlns:p=\"urn:wspeer:p2ps\"><p:PipeAdvertisement>{peer}\
                     <p:Name>n</p:Name></p:PipeAdvertisement>\
                     <p:Payload xmlns:p=\"urn:elsewhere\">x</p:Payload></p:PipeData>"
                ),
                None,
            ),
            // The reserved prefix, which no declaration can rebind: the
            // root is in the XML namespace, `UnknownElement`.
            (
                "<xml:PipeData xmlns:xml=\"urn:wspeer:p2ps\"><xml:PipeAdvertisement>\
                 <xml:Peer>0000000000000007</xml:Peer><xml:Name>n</xml:Name>\
                 </xml:PipeAdvertisement><xml:Payload>x</xml:Payload></xml:PipeData>"
                    .to_owned(),
                None,
            ),
            // An attribute on a leaf: `UnknownAttribute`; markup inside
            // the payload: `UnknownElement`.
            (
                format!(
                    "<p:PipeData xmlns:p=\"urn:wspeer:p2ps\"><p:PipeAdvertisement>{peer}\
                     <p:Name kind=\"k\">n</p:Name></p:PipeAdvertisement>\
                     <p:Payload>x</p:Payload></p:PipeData>"
                ),
                None,
            ),
            (
                format!(
                    "<p:PipeData xmlns:p=\"urn:wspeer:p2ps\"><p:PipeAdvertisement>{peer}\
                     <p:Name>n</p:Name></p:PipeAdvertisement>\
                     <p:Payload>a<p:b/>c</p:Payload></p:PipeData>"
                ),
                None,
            ),
            // No payload: `Missing`; a pipe named twice: `Repeated`; a
            // peer id that does not parse: `BadValue`.
            (
                format!(
                    "<p:PipeData xmlns:p=\"urn:wspeer:p2ps\"><p:PipeAdvertisement>{peer}\
                     <p:Name>n</p:Name></p:PipeAdvertisement></p:PipeData>"
                ),
                None,
            ),
            (
                format!(
                    "<p:PipeData xmlns:p=\"urn:wspeer:p2ps\"><p:PipeAdvertisement>{peer}\
                     <p:Name>n</p:Name><p:Name>m</p:Name></p:PipeAdvertisement>\
                     <p:Payload>x</p:Payload></p:PipeData>"
                ),
                None,
            ),
            (
                "<p:PipeData xmlns:p=\"urn:wspeer:p2ps\"><p:PipeAdvertisement><p:Peer>7</p:Peer>\
                 <p:Name>n</p:Name></p:PipeAdvertisement><p:Payload>x</p:Payload></p:PipeData>"
                    .to_owned(),
                None,
            ),
            // A hit carrying an advert with no peer: `Missing`.
            (
                "<p:QueryHit xmlns:p=\"urn:wspeer:p2ps\" id=\"1\" origin=\"0000000000000007\">\
                 <p:ServiceAdvertisement><p:Name>S</p:Name></p:ServiceAdvertisement>\
                 </p:QueryHit>"
                    .to_owned(),
                None,
            ),
            // A ttl past a byte, a nonce that is no number: `BadValue`; a
            // nonce in a namespace: `UnknownAttribute`; a child of a ping:
            // `UnknownElement`.
            (
                "<p:Advertise xmlns:p=\"urn:wspeer:p2ps\" ttl=\"256\"><p:ServiceAdvertisement>\
                 <p:Name>S</p:Name>{peer}</p:ServiceAdvertisement></p:Advertise>"
                    .replace("{peer}", peer),
                None,
            ),
            (
                "<p:Pong xmlns:p=\"urn:wspeer:p2ps\" nonce=\"x\"/>".to_owned(),
                None,
            ),
            (
                "<p:Ping xmlns:p=\"urn:wspeer:p2ps\" p:nonce=\"7\"/>".to_owned(),
                None,
            ),
            (
                "<p:Ping xmlns:p=\"urn:wspeer:p2ps\" nonce=\"7\"><p:Ping nonce=\"8\"/></p:Ping>"
                    .to_owned(),
                None,
            ),
            // Something after the root: an XML error.
            (
                "<p:Ping xmlns:p=\"urn:wspeer:p2ps\" nonce=\"7\"/><p:Ping nonce=\"8\"/>".to_owned(),
                None,
            ),
        ];
        for (wire, verdict) in &table {
            assert_eq!(&read_as_it_says(wire), verdict, "{wire}");
        }
    }
}
