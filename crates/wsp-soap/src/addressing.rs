//! WS-Addressing (March 2004 draft): endpoint references and the SOAP
//! header binding.
//!
//! This is the specification the paper leans on to give P2PS pipes a
//! standards-compliant request/response model: a consumer creates a
//! return pipe, serialises its advertisement into an `EndpointReference`,
//! and sends it as the `ReplyTo` header (Figures 5 and 6).

use crate::constants::WSA_NS;
use crate::envelope::{Envelope, HeaderBlock};
use std::fmt::Write;
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

    /// Parse an EPR element (any element containing `wsa:Address`).
    pub fn from_element(element: &Element) -> Option<EndpointReference> {
        let address = element.child_text(WSA_NS, "Address")?.trim().to_owned();
        let reference_properties = element
            .find(WSA_NS, "ReferenceProperties")
            .map(|props| props.child_elements().cloned().collect())
            .unwrap_or_default();
        Some(EndpointReference {
            address,
            reference_properties,
        })
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
    pub fn to_endpoint(epr: &EndpointReference, action: impl Into<String>) -> Self {
        MessageHeaders {
            to: Some(epr.address.clone()),
            action: Some(action.into()),
            message_id: Some(generate_message_id()),
            destination_properties: epr.reference_properties.clone(),
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

    /// Append these headers to an envelope. `To` and `Action` are marked
    /// `mustUnderstand` as the binding requires.
    pub fn apply_to(&self, envelope: &mut Envelope) {
        let mut push_text = |local: &'static str, value: &Option<String>, mandatory: bool| {
            if let Some(v) = value {
                let e = Element::build(WSA_NS, local).text(v.clone()).finish();
                envelope.add_header(if mandatory {
                    HeaderBlock::mandatory(e)
                } else {
                    HeaderBlock::new(e)
                });
            }
        };
        push_text("To", &self.to, true);
        push_text("Action", &self.action, true);
        push_text("MessageID", &self.message_id, false);
        push_text("RelatesTo", &self.relates_to, false);
        for (local, epr) in [
            ("ReplyTo", &self.reply_to),
            ("FaultTo", &self.fault_to),
            ("From", &self.from),
        ] {
            if let Some(epr) = epr {
                envelope.add_header(HeaderBlock::new(epr.to_element(local)));
            }
        }
        for p in &self.destination_properties {
            envelope.add_header(HeaderBlock::new(p.clone()));
        }
    }

    /// Stream the header blocks [`MessageHeaders::apply_to`] appends.
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

    /// Extract WS-Addressing headers from an envelope, if any WSA header
    /// is present at all.
    pub fn extract(envelope: &Envelope) -> Option<MessageHeaders> {
        let text = |local: &str| -> Option<String> {
            envelope
                .find_header(WSA_NS, local)
                .map(|h| h.element.text().trim().to_owned())
        };
        let epr = |local: &str| -> Option<EndpointReference> {
            envelope
                .find_header(WSA_NS, local)
                .and_then(|h| EndpointReference::from_element(&h.element))
        };
        let headers = MessageHeaders {
            to: text("To"),
            action: text("Action"),
            message_id: text("MessageID"),
            relates_to: text("RelatesTo"),
            reply_to: epr("ReplyTo"),
            fault_to: epr("FaultTo"),
            from: epr("From"),
            destination_properties: Vec::new(),
        };
        (!headers.is_empty()).then_some(headers)
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
    // Infallible: writing to a `String`.
    let _ = write!(id, "urn:wsp:msg:{nanos:x}-{n:x}");
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::Envelope;

    fn payload() -> Element {
        Element::build("urn:demo", "op").finish()
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
        let elem = epr.to_element("ReplyTo");
        let back = EndpointReference::from_element(&elem).unwrap();
        assert_eq!(back, epr);
    }

    #[test]
    fn epr_without_address_is_none() {
        let e = Element::new(WSA_NS, "ReplyTo");
        assert!(EndpointReference::from_element(&e).is_none());
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
        assert_eq!(got.reply_to.unwrap().address, "urn:reply");
        assert_eq!(got.from.unwrap().address, "urn:me");
    }

    #[test]
    fn to_and_action_are_must_understand() {
        let mut env = Envelope::request(payload());
        env.set_addressing(MessageHeaders::request("urn:to", "urn:action"));
        assert!(env.find_header(WSA_NS, "To").unwrap().must_understand);
        assert!(env.find_header(WSA_NS, "Action").unwrap().must_understand);
        assert!(
            !env.find_header(WSA_NS, "MessageID")
                .unwrap()
                .must_understand
        );
    }

    #[test]
    fn destination_properties_become_plain_headers() {
        let epr = EndpointReference::new("p2ps://peer/Svc")
            .with_property(Element::build("urn:p2ps", "PipeName").text("in").finish());
        let mut env = Envelope::request(payload());
        env.set_addressing(MessageHeaders::to_endpoint(&epr, "urn:act"));
        let back = Envelope::from_xml(&env.to_xml()).unwrap();
        // The pipe name surfaces as an ordinary header for P2PS to read.
        let h = back.find_header("urn:p2ps", "PipeName").unwrap();
        assert_eq!(h.element.text(), "in");
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
        let to_count = env
            .headers()
            .iter()
            .filter(|h| h.element.name().is(WSA_NS, "To"))
            .count();
        assert_eq!(to_count, 1);
    }

    #[test]
    fn extract_returns_none_without_wsa_headers() {
        let env = Envelope::request(payload());
        assert!(env.addressing().is_none());
    }
}
