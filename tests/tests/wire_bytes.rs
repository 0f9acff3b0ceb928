//! Wire-byte identity: the single-pass writer (PR 5) must produce
//! byte-for-byte the same output as the pre-PR-5 two-pass writer on
//! every document family the stack puts on the wire — SOAP envelopes,
//! WSDL contracts, UDDI registry messages, and hostile hand-built
//! trees. The old writer is the vendored copy in
//! `wsp_bench::e12_legacy`; trees are deep-converted into its tree
//! model and serialised under an equivalent configuration.

use wsp_bench::e12::{self, to_legacy_element, LegacyEnvelope};
use wsp_bench::e12_legacy as legacy;
use wsp_integration_tests::calc_descriptor;
use wsp_soap::{SOAP_ENV_NS, WSA_NS};
use wsp_uddi::{BindingTemplate, BusinessService, KeyedReference, ServiceQuery};
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

#[test]
fn uddi_messages_are_byte_identical() {
    let service = BusinessService::new("svc-1", "biz-9", "Calc")
        .with_description("adds & subtracts <doubles>")
        .with_category(KeyedReference::new("uddi:tmodel:types", "type", "calc"))
        .with_binding(
            BindingTemplate::new("bind-1", "http://127.0.0.1:9001/services/Calc")
                .with_tmodel("uddi:tmodel:http"),
        );
    assert_identity("uddi businessService", &service.to_element(), &[]);

    let query = ServiceQuery::by_name("Calc%");
    assert_identity("uddi find_service", &query.to_element(), &[]);
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
    use wsp_soap::{Envelope, Fault, FaultCode, MessageHeaders};
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

// --- P2PS `PipeData`: the streaming codec against the tree codec ------------

mod pipe_data {
    use proptest::prelude::*;
    use wsp_p2ps::{P2psMessage, PeerId, PipeAdvertisement};
    use wsp_xml::{Writer, WriterConfig};

    /// The tree codec: what `to_xml`/`from_xml` were before `PipeData`
    /// learned to skip the tree, and still are for the other variants.
    fn tree_encode(message: &P2psMessage) -> String {
        Writer::new(WriterConfig::default()).write(&message.to_element())
    }

    fn tree_decode(xml: &str) -> Option<P2psMessage> {
        P2psMessage::from_element(&wsp_xml::parse(xml).ok()?)
    }

    /// Captured from the parent commit's `to_xml()` (tree writer): a
    /// payload and pipe fields that need every kind of escaping, the
    /// empty payload, and empty-but-present service/name fields.
    #[test]
    fn frames_are_byte_identical_to_the_parent_commit() {
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
                 </ns0:Payload></ns0:PipeData>",
            ),
            (
                P2psMessage::PipeData {
                    to: PipeAdvertisement::new(PeerId(7), None, "pipe-1"),
                    payload: String::new(),
                },
                "<ns0:PipeData xmlns:ns0=\"urn:wspeer:p2ps\"><ns0:PipeAdvertisement>\
                 <ns0:Peer>0000000000000007</ns0:Peer><ns0:Name>pipe-1</ns0:Name>\
                 </ns0:PipeAdvertisement><ns0:Payload/></ns0:PipeData>",
            ),
            (
                P2psMessage::PipeData {
                    to: PipeAdvertisement::new(PeerId(7), Some(String::new()), ""),
                    payload: "  ".into(),
                },
                "<ns0:PipeData xmlns:ns0=\"urn:wspeer:p2ps\"><ns0:PipeAdvertisement>\
                 <ns0:Peer>0000000000000007</ns0:Peer><ns0:Service/><ns0:Name/>\
                 </ns0:PipeAdvertisement><ns0:Payload>  </ns0:Payload></ns0:PipeData>",
            ),
        ];
        for (message, wire) in golden {
            assert_eq!(message.to_xml(), wire);
            assert_eq!(tree_encode(&message), wire);
            assert_eq!(P2psMessage::from_xml(wire).as_ref(), Some(&message));
            assert_eq!(tree_decode(wire).as_ref(), Some(&message));
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

    fn pipe_data() -> impl Strategy<Value = P2psMessage> {
        (
            any::<u64>(),
            proptest::option::of(tricky_text(4)),
            tricky_text(4),
            tricky_text(24),
        )
            .prop_map(|(peer, service, name, payload)| P2psMessage::PipeData {
                to: PipeAdvertisement::new(PeerId(peer), service, name),
                payload,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn streaming_encode_is_the_tree_encode(message in pipe_data()) {
            prop_assert_eq!(message.to_xml(), tree_encode(&message));
        }

        #[test]
        fn streaming_decode_is_the_tree_decode(message in pipe_data()) {
            let wire = message.to_xml();
            let streamed = P2psMessage::from_xml(&wire);
            prop_assert_eq!(&streamed, &tree_decode(&wire), "wire: {}", wire);
            prop_assert_eq!(streamed, Some(message));
        }

        /// Off the canonical shape — something spliced into a good
        /// frame at an arbitrary point — the two decoders still give
        /// the same verdict, accept or reject.
        #[test]
        fn decoders_agree_on_damaged_frames(
            message in pipe_data(),
            splice in tricky_text(3),
            at in any::<usize>(),
        ) {
            let mut wire = message.to_xml();
            let mut cut = at % (wire.len() + 1);
            while !wire.is_char_boundary(cut) {
                cut -= 1;
            }
            wire.insert_str(cut, &splice);
            prop_assert_eq!(P2psMessage::from_xml(&wire), tree_decode(&wire), "wire: {}", wire);
        }
    }

    /// Well-formed `PipeData` documents the encoder never writes: each
    /// must decode exactly as the tree reader says.
    #[test]
    fn decoders_agree_on_uncanonical_but_valid_frames() {
        let peer = "<p:Peer>0000000000000007</p:Peer>";
        let variants = [
            // default namespace instead of a prefix
            "<PipeData xmlns=\"urn:wspeer:p2ps\"><PipeAdvertisement><Peer>0000000000000007</Peer>\
             <Name>n</Name></PipeAdvertisement><Payload>x</Payload></PipeData>"
                .to_owned(),
            // another prefix, layout whitespace, a declaration, a trailing comment
            format!(
                "<?xml version=\"1.0\"?>\n<p:PipeData xmlns:p=\"urn:wspeer:p2ps\">\n  \
                 <p:PipeAdvertisement>{peer}<p:Name>n</p:Name></p:PipeAdvertisement>\n  \
                 <p:Payload>x</p:Payload>\n</p:PipeData><!-- bye -->"
            ),
            // payload before the advert, CDATA payload, padded peer id
            "<p:PipeData xmlns:p=\"urn:wspeer:p2ps\"><p:Payload><![CDATA[<raw>]]></p:Payload>\
             <p:PipeAdvertisement><p:Peer> 0000000000000007 </p:Peer><p:Name>n</p:Name>\
             </p:PipeAdvertisement></p:PipeData>"
                .to_owned(),
            // a child that rebinds the prefix to a foreign namespace
            format!(
                "<p:PipeData xmlns:p=\"urn:wspeer:p2ps\"><p:PipeAdvertisement>{peer}\
                 <p:Name>n</p:Name></p:PipeAdvertisement>\
                 <p:Payload xmlns:p=\"urn:elsewhere\">x</p:Payload></p:PipeData>"
            ),
            // the reserved prefix, which no declaration can rebind
            "<xml:PipeData xmlns:xml=\"urn:wspeer:p2ps\"><xml:PipeAdvertisement>\
             <xml:Peer>0000000000000007</xml:Peer><xml:Name>n</xml:Name></xml:PipeAdvertisement>\
             <xml:Payload>x</xml:Payload></xml:PipeData>"
                .to_owned(),
            // an extra attribute on a leaf; an element inside the payload
            format!(
                "<p:PipeData xmlns:p=\"urn:wspeer:p2ps\"><p:PipeAdvertisement>{peer}\
                 <p:Name kind=\"k\">n</p:Name></p:PipeAdvertisement>\
                 <p:Payload>a<p:b/>c</p:Payload></p:PipeData>"
            ),
            // no payload element at all; a bad peer id
            format!(
                "<p:PipeData xmlns:p=\"urn:wspeer:p2ps\"><p:PipeAdvertisement>{peer}\
                 <p:Name>n</p:Name></p:PipeAdvertisement></p:PipeData>"
            ),
            "<p:PipeData xmlns:p=\"urn:wspeer:p2ps\"><p:PipeAdvertisement><p:Peer>7</p:Peer>\
             <p:Name>n</p:Name></p:PipeAdvertisement><p:Payload>x</p:Payload></p:PipeData>"
                .to_owned(),
        ];
        for wire in &variants {
            assert_eq!(P2psMessage::from_xml(wire), tree_decode(wire), "{wire}");
        }
        // Not vacuous: most of them are accepted by both.
        let accepted = variants.iter().filter(|w| tree_decode(w).is_some()).count();
        assert!(accepted >= 5, "only {accepted} variants decode at all");
    }
}
