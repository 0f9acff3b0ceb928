//! SOAP envelope: header blocks plus a body carrying a payload or fault.

use crate::addressing::MessageHeaders;
use crate::codec::{SoapCodec, SoapError};
use crate::constants::SOAP_ENV_NS;
use crate::fault::Fault;
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

/// A SOAP message: ordered header blocks and a body.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    headers: Vec<HeaderBlock>,
    body: Body,
}

impl Envelope {
    /// An envelope carrying an application payload.
    pub fn request(payload: Element) -> Self {
        Envelope {
            headers: Vec::new(),
            body: Body::Payload(payload),
        }
    }

    /// An envelope carrying a fault.
    pub fn fault(fault: Fault) -> Self {
        Envelope {
            headers: Vec::new(),
            body: Body::Fault(fault),
        }
    }

    /// An envelope with an empty body.
    pub fn empty() -> Self {
        Envelope {
            headers: Vec::new(),
            body: Body::Empty,
        }
    }

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

    /// Append a header block.
    pub fn add_header(&mut self, block: HeaderBlock) {
        self.headers.push(block);
    }

    /// First header element named `{ns}local`.
    pub fn find_header(&self, ns: &str, local: &str) -> Option<&HeaderBlock> {
        self.headers.iter().find(|h| h.element.name().is(ns, local))
    }

    /// Remove all headers named `{ns}local`, returning how many were cut.
    pub fn remove_headers(&mut self, ns: &str, local: &str) -> usize {
        let before = self.headers.len();
        self.headers.retain(|h| !h.element.name().is(ns, local));
        before - self.headers.len()
    }

    /// Replace the WS-Addressing headers with `headers`.
    pub fn set_addressing(&mut self, headers: MessageHeaders) {
        self.headers
            .retain(|h| h.element.name().namespace() != crate::constants::WSA_NS);
        headers.apply_to(self);
    }

    /// Extract WS-Addressing headers, if any are present.
    pub fn addressing(&self) -> Option<MessageHeaders> {
        MessageHeaders::extract(self)
    }

    /// Header blocks marked `mustUnderstand` whose expanded names are not
    /// in `understood`. A conforming node faults if this is non-empty.
    pub fn not_understood<'a>(&'a self, understood: &'a [QName]) -> Vec<&'a HeaderBlock> {
        self.headers
            .iter()
            .filter(|h| h.must_understand && !understood.contains(h.element.name()))
            .collect()
    }

    /// Render as the `env:Envelope` element — a deep copy of headers
    /// and payload; the wire path streams instead ([`Envelope::write_to`]).
    pub fn to_element(&self) -> Element {
        let mut envelope = Element::new(SOAP_ENV_NS, "Envelope");
        if !self.headers.is_empty() {
            let mut header = Element::new(SOAP_ENV_NS, "Header");
            for block in &self.headers {
                header.push_element(block.to_element());
            }
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
        out.element(SOAP_ENV_NS, "Envelope", |out| {
            if !self.headers.is_empty() {
                out.element(SOAP_ENV_NS, "Header", |out| {
                    for block in &self.headers {
                        if block.must_understand || block.role.is_some() {
                            out.tree(&block.to_element());
                        } else {
                            out.tree(&block.element);
                        }
                    }
                });
            }
            out.element(SOAP_ENV_NS, "Body", |out| match &self.body {
                Body::Payload(payload) => out.tree(payload),
                Body::Fault(fault) => out.tree(&fault.to_element()),
                Body::Empty => {}
            });
        });
    }

    /// Parse from an owned `env:Envelope` element, consuming it: the
    /// payload and header elements are moved out of the tree, not
    /// deep-cloned.
    pub fn from_root(mut root: Element) -> Result<Envelope, SoapError> {
        if !root.name().is(SOAP_ENV_NS, "Envelope") {
            return Err(SoapError::VersionMismatch {
                found: format!("{:?}", root.name()),
            });
        }
        let mut headers = Vec::new();
        let mut saw_header = false;
        let mut body = None;
        for node in std::mem::take(root.children_mut()) {
            let wsp_xml::Node::Element(mut child) = node else {
                continue;
            };
            if child.name().is(SOAP_ENV_NS, "Header") && !saw_header {
                saw_header = true;
                for hnode in std::mem::take(child.children_mut()) {
                    let wsp_xml::Node::Element(mut element) = hnode else {
                        continue;
                    };
                    let must_understand = matches!(
                        element.attribute(SOAP_ENV_NS, "mustUnderstand"),
                        Some("true") | Some("1")
                    );
                    let role = element.attribute(SOAP_ENV_NS, "role").map(str::to_owned);
                    // The processing attributes live on the block, not in
                    // the application view of the header element.
                    strip_env_attrs(&mut element);
                    headers.push(HeaderBlock {
                        element,
                        must_understand,
                        role,
                    });
                }
            } else if child.name().is(SOAP_ENV_NS, "Body") && body.is_none() {
                let first =
                    std::mem::take(child.children_mut())
                        .into_iter()
                        .find_map(|n| match n {
                            wsp_xml::Node::Element(e) => Some(e),
                            _ => None,
                        });
                body = Some(match first {
                    None => Body::Empty,
                    Some(first) => match Fault::from_element(&first) {
                        Some(fault) => Body::Fault(fault),
                        None => Body::Payload(first),
                    },
                });
            }
        }
        let body = body.ok_or(SoapError::MissingBody)?;
        Ok(Envelope { headers, body })
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

    /// Parse wire XML.
    pub fn from_xml(xml: &str) -> Result<Envelope, SoapError> {
        SoapCodec::with_thread_local(|codec| codec.decode(xml))
    }
}

fn strip_env_attrs(element: &mut Element) {
    element
        .attributes_mut()
        .retain(|a| a.name.namespace() != SOAP_ENV_NS);
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

    #[test]
    fn not_understood_reports_unknown_mandatory_headers() {
        let mut env = Envelope::request(payload());
        env.add_header(HeaderBlock::mandatory(Element::new("urn:h", "A")));
        env.add_header(HeaderBlock::new(Element::new("urn:h", "B"))); // optional
        let known = [QName::new("urn:h", "B")];
        let missing = env.not_understood(&known);
        assert_eq!(missing.len(), 1);
        assert!(missing[0].element.name().is("urn:h", "A"));
    }

    #[test]
    fn remove_headers_counts() {
        let mut env = Envelope::request(payload());
        env.add_header(HeaderBlock::new(Element::new("urn:h", "X")));
        env.add_header(HeaderBlock::new(Element::new("urn:h", "X")));
        assert_eq!(env.remove_headers("urn:h", "X"), 2);
        assert!(env.headers().is_empty());
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
