//! WS-Addressing (March 2004 draft): endpoint references and the SOAP
//! header binding.
//!
//! This is the specification the paper leans on to give P2PS pipes a
//! standards-compliant request/response model: a consumer creates a
//! return pipe, serialises its advertisement into an `EndpointReference`,
//! and sends it as the `ReplyTo` header (Figures 5 and 6).

use crate::constants::WSA_NS;
use crate::envelope::HeaderBlock;
use std::sync::atomic::{AtomicU64, Ordering};
use wsp_xml::{Element, StreamWriter};

/// An abstract reference to an endpoint: a mandatory address URI plus
/// arbitrary protocol-defined reference properties.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EndpointReference {
    /// The `wsa:Address` URI. For P2PS endpoints this is a `p2ps://` URI
    /// built from peer id and service name.
    pub address: String,
    /// `wsa:ReferenceProperties` children: arbitrary elements the
    /// protocol layer needs to dispatch on (e.g. the pipe name).
    pub reference_properties: Vec<Element>,
}

impl EndpointReference {
    pub fn new(address: impl Into<String>) -> Self {
        EndpointReference {
            address: address.into(),
            reference_properties: Vec::new(),
        }
    }

    pub fn with_property(mut self, property: Element) -> Self {
        self.reference_properties.push(property);
        self
    }

    /// Render as a WS-Addressing EPR element with the given name, e.g.
    /// `wsa:ReplyTo`.
    pub fn to_element(&self, local: &'static str) -> Element {
        let mut e = Element::new(WSA_NS, local);
        e.push_element(
            Element::build(WSA_NS, "Address")
                .text(self.address.clone())
                .finish(),
        );
        if !self.reference_properties.is_empty() {
            let mut props = Element::new(WSA_NS, "ReferenceProperties");
            for p in &self.reference_properties {
                props.push_element(p.clone());
            }
            e.push_element(props);
        }
        e
    }

    /// Stream what [`EndpointReference::to_element`] builds.
    pub(crate) fn write_to(&self, local: &str, out: &mut StreamWriter<'_>) {
        out.element(WSA_NS, local, |out| {
            out.element(WSA_NS, "Address", |out| out.text(&self.address));
            if !self.reference_properties.is_empty() {
                out.element(WSA_NS, "ReferenceProperties", |out| {
                    self.reference_properties.iter().for_each(|p| out.tree(p));
                });
            }
        });
    }
}

/// The WS-Addressing message information headers.
///
/// `destination_properties` is send-side only: per the WS-Addressing SOAP
/// binding (and step 3 of the paper's advert→EPR mapping) the reference
/// properties of the *destination* EPR are copied directly into the SOAP
/// header as sibling blocks. On receive they surface as ordinary header
/// blocks for the protocol layer (P2PS) to interpret.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MessageHeaders {
    /// `wsa:To` — destination URI (mandatory on requests).
    pub to: Option<String>,
    /// `wsa:Action` — URI identifying the abstract operation (mandatory).
    pub action: Option<String>,
    /// `wsa:MessageID` — unique id, needed when a reply is expected.
    pub message_id: Option<String>,
    /// `wsa:RelatesTo` — the MessageID this message responds to.
    pub relates_to: Option<String>,
    /// `wsa:ReplyTo` — where responses go; for P2PS, the return pipe.
    pub reply_to: Option<EndpointReference>,
    /// `wsa:FaultTo` — where faults go if different from `reply_to`.
    pub fault_to: Option<EndpointReference>,
    /// `wsa:From` — the sender.
    pub from: Option<EndpointReference>,
    /// Destination reference properties, copied as top-level headers.
    pub destination_properties: Vec<Element>,
}

impl MessageHeaders {
    /// Headers for a request to `to` performing `action`, with a fresh
    /// message id.
    pub fn request(to: impl Into<String>, action: impl Into<String>) -> Self {
        MessageHeaders {
            to: Some(to.into()),
            action: Some(action.into()),
            message_id: Some(generate_message_id()),
            ..MessageHeaders::default()
        }
    }

    /// Headers for a message addressed at a full EPR: the EPR's address
    /// becomes `To` and its reference properties are copied into the
    /// header (the paper's mapping, step 3).
    pub fn to_endpoint(epr: EndpointReference, action: impl Into<String>) -> Self {
        MessageHeaders {
            to: Some(epr.address),
            action: Some(action.into()),
            message_id: Some(generate_message_id()),
            destination_properties: epr.reference_properties,
            ..MessageHeaders::default()
        }
    }

    /// Headers for the response to a request carrying `request_headers`.
    /// `RelatesTo` is set from the request's id and `To` from its
    /// `ReplyTo` address, when present.
    pub fn response_to(request_headers: &MessageHeaders, action: impl Into<String>) -> Self {
        MessageHeaders {
            to: request_headers.reply_to.as_ref().map(|r| r.address.clone()),
            action: Some(action.into()),
            message_id: Some(generate_message_id()),
            relates_to: request_headers.message_id.clone(),
            destination_properties: request_headers
                .reply_to
                .as_ref()
                .map(|r| r.reference_properties.clone())
                .unwrap_or_default(),
            ..MessageHeaders::default()
        }
    }

    pub fn with_reply_to(mut self, epr: EndpointReference) -> Self {
        self.reply_to = Some(epr);
        self
    }

    pub fn with_from(mut self, epr: EndpointReference) -> Self {
        self.from = Some(epr);
        self
    }

    /// The header blocks [`MessageHeaders::write_to`] streams, as
    /// trees. `To` and `Action` are marked `mustUnderstand` as the
    /// binding requires.
    pub(crate) fn blocks(&self) -> Vec<HeaderBlock> {
        let text = |local, value: &Option<String>| {
            (value.clone()).map(|value| Element::build(WSA_NS, local).text(value).finish())
        };
        let mandatory = [text("To", &self.to), text("Action", &self.action)];
        let optional = [
            text("MessageID", &self.message_id),
            text("RelatesTo", &self.relates_to),
        ];
        let references = [
            ("ReplyTo", &self.reply_to),
            ("FaultTo", &self.fault_to),
            ("From", &self.from),
        ];
        let references =
            references.map(|(local, epr)| epr.as_ref().map(|epr| epr.to_element(local)));
        let optional = optional.into_iter().chain(references).flatten();
        let optional = optional.chain(self.destination_properties.iter().cloned());
        let mandatory = mandatory.into_iter().flatten().map(HeaderBlock::mandatory);
        mandatory.chain(optional.map(HeaderBlock::new)).collect()
    }

    /// Stream the header blocks, in order: `To`, `Action`, `MessageID`,
    /// `RelatesTo`, `ReplyTo`, `FaultTo`, `From`, then the destination's
    /// reference properties.
    pub(crate) fn write_to(&self, out: &mut StreamWriter<'_>) {
        const MANDATORY: &[(&str, &str, &str)] =
            &[(crate::constants::SOAP_ENV_NS, "mustUnderstand", "true")];
        for (local, value, attributes) in [
            ("To", &self.to, MANDATORY),
            ("Action", &self.action, MANDATORY),
            ("MessageID", &self.message_id, &[]),
            ("RelatesTo", &self.relates_to, &[]),
        ] {
            if let Some(value) = value {
                out.element_with(WSA_NS, local, attributes, |out| out.text(value));
            }
        }
        for (local, epr) in [
            ("ReplyTo", &self.reply_to),
            ("FaultTo", &self.fault_to),
            ("From", &self.from),
        ] {
            if let Some(epr) = epr {
                epr.write_to(local, out);
            }
        }
        self.destination_properties.iter().for_each(|p| out.tree(p));
    }

    /// True if there is no header to write.
    pub fn is_empty(&self) -> bool {
        *self == MessageHeaders::default()
    }
}

/// Generate a process-unique message id URI.
///
/// Uniqueness comes from wall-clock nanoseconds plus a process-wide
/// counter; no RNG needed and ids remain readable in logs.
pub fn generate_message_id() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    // Sized for the longest id, so it is one allocation: 12 bytes of
    // prefix, a 128-bit and a 64-bit number in hex, a dash.
    let mut id = String::with_capacity(12 + 32 + 1 + 16);
    id.push_str("urn:wsp:msg:");
    push_hex(&mut id, nanos);
    id.push('-');
    push_hex(&mut id, n.into());
    id
}

/// `n` in lowercase hex with no leading zeros, as `{n:x}` prints it.
fn push_hex(out: &mut String, n: u128) {
    let digits = (128 - n.leading_zeros()).div_ceil(4).max(1);
    for at in (0..digits).rev() {
        out.push(char::from(
            b"0123456789abcdef"[(n >> (4 * at)) as usize & 0xf],
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::SoapError;
    use crate::envelope::Envelope;
    use crate::typed::Rule;

    fn payload() -> Element {
        Element::build("urn:demo", "op").finish()
    }

    /// `reply_to` as the `ReplyTo` of a request, read back.
    fn replied_to(reply_to: EndpointReference) -> Result<Envelope, SoapError> {
        let mut env = Envelope::request(payload());
        env.set_addressing(MessageHeaders::default().with_reply_to(reply_to));
        Envelope::from_xml(&env.to_xml())
    }

    #[test]
    fn push_hex_prints_as_format_does() {
        for n in [0, 1, 0xf, 0x10, 0xabc, u128::from(u64::MAX), u128::MAX] {
            let mut out = String::new();
            push_hex(&mut out, n);
            assert_eq!(out, format!("{n:x}"));
        }
    }

    #[test]
    fn message_ids_are_unique() {
        let a = generate_message_id();
        let b = generate_message_id();
        assert_ne!(a, b);
        assert!(a.starts_with("urn:wsp:msg:"));
    }

    #[test]
    fn epr_round_trip_with_properties() {
        let epr = EndpointReference::new("p2ps://abcd/Echo").with_property(
            Element::build("urn:p2ps", "PipeName")
                .text("echoString")
                .finish(),
        );
        let back = replied_to(epr.clone()).unwrap();
        assert_eq!(back.addressing().unwrap().reply_to, Some(epr));
    }

    #[test]
    fn epr_without_address_is_refused() {
        let xml = replied_to(EndpointReference::new("urn:gone"))
            .unwrap()
            .to_xml()
            .replacen("<wsa:Address>urn:gone</wsa:Address>", "", 1);
        let Err(SoapError::Fault(fault)) = Envelope::from_xml(&xml) else {
            panic!("an EPR without Address read: {xml}");
        };
        assert_eq!(Rule::of(&fault), Some(Rule::Missing));
    }

    #[test]
    fn request_headers_round_trip() {
        let mut env = Envelope::request(payload());
        let hdrs = MessageHeaders::request("urn:to", "urn:action")
            .with_reply_to(EndpointReference::new("urn:reply"))
            .with_from(EndpointReference::new("urn:me"));
        env.set_addressing(hdrs.clone());
        let back = Envelope::from_xml(&env.to_xml()).unwrap();
        let got = back.addressing().unwrap();
        assert_eq!(got.to.as_deref(), Some("urn:to"));
        assert_eq!(got.action.as_deref(), Some("urn:action"));
        assert_eq!(got.message_id, hdrs.message_id);
        assert_eq!(got.reply_to.as_ref().unwrap().address, "urn:reply");
        assert_eq!(got.from.as_ref().unwrap().address, "urn:me");
    }

    #[test]
    fn to_and_action_are_must_understand() {
        let blocks = MessageHeaders::request("urn:to", "urn:action").blocks();
        let marks: Vec<(&str, bool)> = (blocks.iter())
            .map(|b| (b.element.name().local_name(), b.must_understand))
            .collect();
        assert_eq!(
            marks,
            [("To", true), ("Action", true), ("MessageID", false)]
        );
    }

    #[test]
    fn destination_properties_become_plain_headers() {
        let epr = EndpointReference::new("p2ps://peer/Svc")
            .with_property(Element::build("urn:p2ps", "PipeName").text("in").finish());
        let mut env = Envelope::request(payload());
        env.set_addressing(MessageHeaders::to_endpoint(epr, "urn:act"));
        let back = Envelope::from_xml(&env.to_xml()).unwrap();
        // The pipe name surfaces as an ordinary header for P2PS to read.
        let h = back.find_header("urn:p2ps", "PipeName").unwrap();
        assert_eq!(h.element.text(), "in");
        assert!(back.addressing().unwrap().destination_properties.is_empty());
    }

    #[test]
    fn response_correlates_with_request() {
        let req = MessageHeaders::request("urn:svc", "urn:op").with_reply_to(
            EndpointReference::new("urn:return-pipe")
                .with_property(Element::build("urn:p2ps", "PipeName").text("resp").finish()),
        );
        let resp = MessageHeaders::response_to(&req, "urn:op:response");
        assert_eq!(resp.relates_to, req.message_id);
        assert_eq!(resp.to.as_deref(), Some("urn:return-pipe"));
        assert_eq!(resp.destination_properties.len(), 1);
    }

    #[test]
    fn set_addressing_replaces_previous() {
        let mut env = Envelope::request(payload());
        env.set_addressing(MessageHeaders::request("urn:first", "urn:a"));
        env.set_addressing(MessageHeaders::request("urn:second", "urn:b"));
        let got = env.addressing().unwrap();
        assert_eq!(got.to.as_deref(), Some("urn:second"));
        // No duplicated To headers.
        assert_eq!(env.to_xml().matches("<wsa:To").count(), 1);
    }

    #[test]
    fn extract_returns_none_without_wsa_headers() {
        let env = Envelope::request(payload());
        assert!(env.addressing().is_none());
        let back = Envelope::from_xml(&env.to_xml()).unwrap();
        assert!(back.addressing().is_none());
    }
}
