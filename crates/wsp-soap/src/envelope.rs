//! SOAP envelope: header blocks, the WS-Addressing headers, and a body
//! carrying a payload or fault.

use crate::addressing::MessageHeaders;
use crate::codec::{SoapCodec, SoapError};
use crate::constants::SOAP_ENV_NS;
use crate::fault::Fault;
use crate::typed::{read_envelope, Payload};
use wsp_xml::{Element, QName, StreamWriter};

/// One SOAP header block with its processing attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct HeaderBlock {
    pub element: Element,
    /// `env:mustUnderstand` — the receiver must fault if it cannot
    /// process this block.
    pub must_understand: bool,
    /// `env:role` — which node on the path the block targets.
    pub role: Option<String>,
}

impl HeaderBlock {
    pub fn new(element: Element) -> Self {
        HeaderBlock {
            element,
            must_understand: false,
            role: None,
        }
    }

    pub fn mandatory(element: Element) -> Self {
        HeaderBlock {
            element,
            must_understand: true,
            role: None,
        }
    }

    /// The block as it appears inside `env:Header`: the element with
    /// its processing attributes set.
    fn to_element(&self) -> Element {
        let mut e = self.element.clone();
        if self.must_understand {
            e.set_attribute(QName::new(SOAP_ENV_NS, "mustUnderstand"), "true");
        }
        if let Some(role) = &self.role {
            e.set_attribute(QName::new(SOAP_ENV_NS, "role"), role.clone());
        }
        e
    }
}

/// The body of an envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// An application payload (for RPC: the operation wrapper element).
    Payload(Element),
    /// A fault response.
    Fault(Fault),
    /// `<env:Body/>` — legal, used for one-way acknowledgements.
    Empty,
}

/// A SOAP message: header blocks, the WS-Addressing headers and a body.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Every header block but the WS-Addressing ones, in order.
    headers: Vec<HeaderBlock>,
    addressing: MessageHeaders,
    body: Body,
}

impl Envelope {
    fn with_body(body: Body) -> Self {
        Envelope {
            headers: Vec::new(),
            addressing: MessageHeaders::default(),
            body,
        }
    }

    /// An envelope carrying an application payload.
    pub fn request(payload: Element) -> Self {
        Envelope::with_body(Body::Payload(payload))
    }

    /// An envelope carrying a fault.
    pub fn fault(fault: Fault) -> Self {
        Envelope::with_body(Body::Fault(fault))
    }

    /// An envelope with an empty body.
    pub fn empty() -> Self {
        Envelope::with_body(Body::Empty)
    }

    /// The header blocks other than the WS-Addressing headers
    /// ([`Envelope::addressing`]).
    pub fn headers(&self) -> &[HeaderBlock] {
        &self.headers
    }

    pub fn body(&self) -> &Body {
        &self.body
    }

    /// The payload element, if the body carries one.
    pub fn payload(&self) -> Option<&Element> {
        match &self.body {
            Body::Payload(e) => Some(e),
            _ => None,
        }
    }

    /// The fault, if the body carries one.
    pub fn fault_body(&self) -> Option<&Fault> {
        match &self.body {
            Body::Fault(f) => Some(f),
            _ => None,
        }
    }

    /// Append a header block. It is written before the WS-Addressing
    /// headers, wherever it was added.
    pub fn add_header(&mut self, block: HeaderBlock) {
        self.headers.push(block);
    }

    /// First header block named `{ns}local`, other than the
    /// WS-Addressing headers.
    pub fn find_header(&self, ns: &str, local: &str) -> Option<&HeaderBlock> {
        self.headers.iter().find(|h| h.element.name().is(ns, local))
    }

    /// Replace the WS-Addressing headers with `headers`.
    pub fn set_addressing(&mut self, headers: MessageHeaders) {
        self.addressing = headers;
    }

    /// The WS-Addressing headers, if there are any.
    pub fn addressing(&self) -> Option<&MessageHeaders> {
        (!self.addressing.is_empty()).then_some(&self.addressing)
    }

    /// Render as the `env:Envelope` element — a deep copy of headers
    /// and payload; the wire path streams instead ([`Envelope::write_to`]).
    pub fn to_element(&self) -> Element {
        let mut envelope = Element::new(SOAP_ENV_NS, "Envelope");
        let mut header = Element::new(SOAP_ENV_NS, "Header");
        for block in self.headers.iter().chain(&self.addressing.blocks()) {
            header.push_element(block.to_element());
        }
        if !header.children().is_empty() {
            envelope.push_element(header);
        }
        let mut body = Element::new(SOAP_ENV_NS, "Body");
        match &self.body {
            Body::Payload(p) => body.push_element(p.clone()),
            Body::Fault(f) => body.push_element(f.to_element()),
            Body::Empty => {}
        }
        envelope.push_element(body);
        envelope
    }

    /// Stream the document [`Envelope::to_element`] describes: the
    /// envelope frame is emitted around the borrowed header and payload
    /// trees, so encoding copies the payload once — escaped, into the
    /// output — and not a second time into a staging tree.
    pub(crate) fn write_to(&self, out: &mut StreamWriter<'_>) {
        let block = |block: &HeaderBlock, out: &mut StreamWriter<'_>| match &block.role {
            None if !block.must_understand => out.tree(&block.element),
            _ => out.tree(&block.to_element()),
        };
        let body = |out: &mut StreamWriter<'_>| match &self.body {
            Body::Payload(payload) => out.tree(payload),
            Body::Fault(fault) => out.tree(&fault.to_element()),
            Body::Empty => {}
        };
        write_frame(out, &self.headers, block, &self.addressing, body);
    }

    /// Serialise to wire XML. Uses the thread-local [`SoapCodec`] and a
    /// pooled buffer; hand the `String`'s bytes back to
    /// [`wsp_xml::BufPool`] after use to keep the cycle closed.
    pub fn to_xml(&self) -> String {
        let mut out = wsp_xml::BufPool::global().take();
        self.to_xml_into(&mut out);
        String::from_utf8(out).expect("writer output is UTF-8")
    }

    /// Serialise to wire XML, appending to `out` — the zero-fresh-
    /// allocation path when `out` comes from [`wsp_xml::BufPool`].
    pub fn to_xml_into(&self, out: &mut Vec<u8>) {
        SoapCodec::with_thread_local(|codec| codec.encode_into(self, out));
    }

    /// Serialise to wire XML as bytes in a pooled buffer — what the
    /// bindings put straight into a transport body, skipping the
    /// `String` detour of [`Envelope::to_xml`].
    pub fn to_xml_bytes(&self) -> Vec<u8> {
        let mut out = wsp_xml::BufPool::global().take();
        self.to_xml_into(&mut out);
        out
    }

    /// Parse wire XML: the view [`read_envelope`] reads of it — the
    /// WS-Addressing headers typed, every other header block, the
    /// payload and a fault's detail as trees. A document that breaks a
    /// shape rule (DESIGN.md §11) is its [`SoapError::Fault`].
    pub fn from_xml(xml: &str) -> Result<Envelope, SoapError> {
        let mut headers = Vec::new();
        let (addressing, body) =
            read_envelope(xml, &mut |block| headers.push(block.clone()), |payload| {
                Ok(match payload {
                    Payload::Empty => Body::Empty,
                    Payload::Fault(fault) => Body::Fault(fault),
                    Payload::Element(reader) => Body::Payload(reader.read_subtree()?),
                })
            })?;
        Ok(Envelope {
            headers,
            addressing,
            body: body?,
        })
    }
}

/// The envelope frame, whoever writes it: an `env:Header` holding
/// `blocks`, each written by `block`, then the WS-Addressing headers
/// — left out when both are empty — and an `env:Body` holding what
/// `body` emits.
pub(crate) fn write_frame<B>(
    out: &mut StreamWriter<'_>,
    blocks: &[B],
    block: impl Fn(&B, &mut StreamWriter<'_>),
    addressing: &MessageHeaders,
    body: impl FnOnce(&mut StreamWriter<'_>),
) {
    out.element(SOAP_ENV_NS, "Envelope", |out| {
        if !(blocks.is_empty() && addressing.is_empty()) {
            out.element(SOAP_ENV_NS, "Header", |out| {
                blocks.iter().for_each(|b| block(b, out));
                addressing.write_to(out);
            });
        }
        out.element(SOAP_ENV_NS, "Body", body);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload() -> Element {
        Element::build("urn:demo", "echo").text("hello").finish()
    }

    #[test]
    fn request_round_trip() {
        let env = Envelope::request(payload());
        let back = Envelope::from_xml(&env.to_xml()).unwrap();
        assert_eq!(back.payload().unwrap().text(), "hello");
        assert!(back.headers().is_empty());
    }

    #[test]
    fn fault_round_trip() {
        let env = Envelope::fault(Fault::sender("oops"));
        let back = Envelope::from_xml(&env.to_xml()).unwrap();
        let f = back.fault_body().unwrap();
        assert_eq!(f.reason, "oops");
        assert!(back.payload().is_none());
    }

    #[test]
    fn empty_body_round_trip() {
        let env = Envelope::empty();
        let back = Envelope::from_xml(&env.to_xml()).unwrap();
        assert_eq!(back.body(), &Body::Empty);
    }

    #[test]
    fn headers_round_trip_with_attrs() {
        let mut env = Envelope::request(payload());
        let mut block = HeaderBlock::mandatory(Element::build("urn:h", "Token").text("t").finish());
        block.role = Some("urn:some-role".into());
        env.add_header(block);
        let back = Envelope::from_xml(&env.to_xml()).unwrap();
        let h = back.find_header("urn:h", "Token").unwrap();
        assert!(h.must_understand);
        assert_eq!(h.role.as_deref(), Some("urn:some-role"));
        assert_eq!(h.element.text(), "t");
        // env attributes stripped from the application view
        assert!(h.element.attributes().is_empty());
    }

    #[test]
    fn must_understand_accepts_1() {
        let xml = format!(
            r#"<env:Envelope xmlns:env="{ns}"><env:Header><t:H xmlns:t="urn:t" env:mustUnderstand="1"/></env:Header><env:Body/></env:Envelope>"#,
            ns = SOAP_ENV_NS
        );
        let env = Envelope::from_xml(&xml).unwrap();
        assert!(env.find_header("urn:t", "H").unwrap().must_understand);
    }

    /// The addressing is a field: `headers()` does not show it, and it
    /// is written after the other blocks whenever they were added.
    #[test]
    fn addressing_is_held_typed_and_written_after_the_other_blocks() {
        let mut env = Envelope::request(payload());
        env.set_addressing(MessageHeaders::request("urn:to", "urn:act"));
        env.add_header(HeaderBlock::new(Element::new("urn:h", "Late")));
        assert_eq!(env.headers().len(), 1);
        assert!(env.find_header(crate::WSA_NS, "To").is_none());
        let xml = env.to_xml();
        assert!(
            xml.find("Late").unwrap() < xml.find("<wsa:To").unwrap(),
            "{xml}"
        );
        let back = Envelope::from_xml(&xml).unwrap();
        assert_eq!(back, env);
    }

    /// What the one reader refuses, `from_xml` refuses by its rule.
    #[test]
    fn shapes_outside_the_reader_are_refused_by_their_rule() {
        use crate::typed::Rule;
        let mut env = Envelope::request(payload());
        env.set_addressing(
            MessageHeaders::request("urn:to", "urn:act")
                .with_reply_to(crate::EndpointReference::new("urn:reply")),
        );
        let xml = env.to_xml();
        let address = "<wsa:Address>urn:reply</wsa:Address>";
        let again = format!(
            "<wsa:To xmlns:wsa=\"{}\">urn:again</wsa:To><wsa:Action",
            crate::WSA_NS
        );
        for (odd, rule) in [
            (
                xml.replacen("</env:Body>", "<more/></env:Body>", 1),
                Rule::Repeated,
            ),
            (xml.replacen("<wsa:Action", &again, 1), Rule::Repeated),
            (
                xml.replacen("urn:act<", "urn:<b/>act<", 1),
                Rule::UnknownElement,
            ),
            (xml.replacen(address, "", 1), Rule::Missing),
        ] {
            let Err(SoapError::Fault(fault)) = Envelope::from_xml(&odd) else {
                panic!("read: {odd}");
            };
            assert_eq!(Rule::of(&fault), Some(rule), "{odd}");
        }
    }

    #[test]
    fn wrong_envelope_namespace_is_version_mismatch() {
        let xml =
            r#"<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/"><Body/></Envelope>"#;
        assert!(matches!(
            Envelope::from_xml(xml),
            Err(SoapError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn missing_body_rejected() {
        let xml = format!(r#"<env:Envelope xmlns:env="{SOAP_ENV_NS}"/>"#);
        assert!(matches!(
            Envelope::from_xml(&xml),
            Err(SoapError::MissingBody)
        ));
    }
}
