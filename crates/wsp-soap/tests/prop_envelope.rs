//! Property tests: any envelope the API can construct survives the
//! wire — `from_xml(e.to_xml()) == e` — up to the destination's
//! reference properties, which read back as other blocks; and the
//! reader never panics on arbitrary input.

use proptest::prelude::*;
use wsp_soap::{EndpointReference, Envelope, Fault, FaultCode, HeaderBlock, MessageHeaders};
use wsp_xml::Element;

fn ncname() -> impl Strategy<Value = String> {
    "[A-Za-z_][A-Za-z0-9_-]{0,10}"
}

fn text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~]{0,32}")
        .unwrap()
        .prop_map(|s| s.replace('\r', " "))
}

fn uri() -> impl Strategy<Value = String> {
    (ncname(), ncname()).prop_map(|(a, b)| format!("urn:{a}:{b}"))
}

fn payload_element() -> impl Strategy<Value = Element> {
    (
        uri(),
        ncname(),
        proptest::collection::vec((ncname(), text()), 0..4),
        text(),
    )
        .prop_map(|(ns, local, children, t)| {
            let mut e = Element::new(ns.clone(), local);
            for (cname, ctext) in children {
                e.push_element(Element::build(ns.clone(), cname).text(ctext).finish());
            }
            e.push_text(t);
            e
        })
}

fn epr() -> impl Strategy<Value = EndpointReference> {
    (uri(), proptest::collection::vec((ncname(), text()), 0..3)).prop_map(|(address, props)| {
        let mut epr = EndpointReference::new(address);
        for (name, value) in props {
            epr = epr.with_property(Element::build("urn:props", name).text(value).finish());
        }
        epr
    })
}

/// All seven WS-Addressing headers, each there or not.
fn headers() -> impl Strategy<Value = MessageHeaders> {
    let text = || proptest::option::of(uri());
    let reference = || proptest::option::of(epr());
    (
        (text(), text(), text(), text()),
        (reference(), reference(), reference()),
    )
        .prop_map(
            |((to, action, message_id, relates_to), (reply_to, fault_to, from))| MessageHeaders {
                to,
                action,
                message_id,
                relates_to,
                reply_to,
                fault_to,
                from,
                destination_properties: Vec::new(),
            },
        )
}

/// A header block outside WS-Addressing, marked or not.
fn block() -> impl Strategy<Value = HeaderBlock> {
    (
        payload_element(),
        any::<bool>(),
        proptest::option::of(uri()),
    )
        .prop_map(|(element, must_understand, role)| HeaderBlock {
            element,
            must_understand,
            role,
        })
}

fn fault() -> impl Strategy<Value = Fault> {
    (
        prop_oneof![
            Just(FaultCode::Sender),
            Just(FaultCode::Receiver),
            Just(FaultCode::MustUnderstand),
            Just(FaultCode::VersionMismatch),
            Just(FaultCode::DataEncodingUnknown),
        ],
        text().prop_filter("non-empty reason", |t| !t.trim().is_empty()),
    )
        .prop_map(|(code, reason)| Fault::new(code, reason.trim().to_owned()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn request_envelopes_round_trip(payload in payload_element(), hdrs in headers(),
                                    extra in proptest::collection::vec(block(), 0..3)) {
        let mut env = Envelope::request(payload);
        env.set_addressing(hdrs);
        for block in extra {
            env.add_header(block);
        }
        let wire = env.to_xml();
        let back = Envelope::from_xml(&wire).expect("must parse");
        prop_assert_eq!(back, env, "wire:\n{}", wire);
    }

    /// The destination's reference properties are written among the
    /// WS-Addressing headers and read back as other blocks, after the
    /// ones the envelope carried.
    #[test]
    fn destination_properties_come_back_as_other_blocks(
        hdrs in headers(),
        properties in proptest::collection::vec(payload_element(), 1..3),
        extra in proptest::collection::vec(block(), 0..3),
    ) {
        let mut env = Envelope::empty();
        extra.iter().for_each(|block| env.add_header(block.clone()));
        env.set_addressing(MessageHeaders { destination_properties: properties.clone(), ..hdrs.clone() });
        let back = Envelope::from_xml(&env.to_xml()).expect("must parse");
        let blocks: Vec<HeaderBlock> = extra.into_iter().chain(properties.into_iter().map(HeaderBlock::new)).collect();
        prop_assert_eq!(back.headers(), &blocks[..]);
        prop_assert_eq!(back.addressing().cloned().unwrap_or_default(), hdrs);
    }

    #[test]
    fn fault_envelopes_round_trip(f in fault()) {
        let env = Envelope::fault(f);
        let back = Envelope::from_xml(&env.to_xml()).expect("must parse");
        prop_assert_eq!(back, env);
    }

    #[test]
    fn decoder_never_panics(junk in "[ -~<>/]{0,120}") {
        let _ = Envelope::from_xml(&junk);
    }

    /// An EPR as the tree writer renders it, carried as a header block,
    /// is read as the EPR.
    #[test]
    fn epr_mapping_total(e in epr()) {
        let mut env = Envelope::empty();
        env.add_header(HeaderBlock::new(e.to_element("ReplyTo")));
        let back = Envelope::from_xml(&env.to_xml()).expect("EPR parses");
        prop_assert!(back.headers().is_empty());
        prop_assert_eq!(back.addressing().and_then(|a| a.reply_to.as_ref()), Some(&e));
    }
}
