//! SOAP 1.2 fault model.

use crate::constants::SOAP_ENV_NS;
use std::fmt;
use wsp_xml::{Element, QName};

/// The five SOAP 1.2 fault code values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultCode {
    /// The envelope namespace was not a supported SOAP version.
    VersionMismatch,
    /// A mandatory header block was not understood.
    MustUnderstand,
    /// The message was malformed or otherwise the sender's fault.
    Sender,
    /// The receiver failed to process a well-formed message.
    Receiver,
    /// An encoding style was not supported.
    DataEncodingUnknown,
}

impl FaultCode {
    pub fn local_name(self) -> &'static str {
        match self {
            FaultCode::VersionMismatch => "VersionMismatch",
            FaultCode::MustUnderstand => "MustUnderstand",
            FaultCode::Sender => "Sender",
            FaultCode::Receiver => "Receiver",
            FaultCode::DataEncodingUnknown => "DataEncodingUnknown",
        }
    }

    pub fn from_local_name(name: &str) -> Option<Self> {
        Some(match name {
            "VersionMismatch" => FaultCode::VersionMismatch,
            "MustUnderstand" => FaultCode::MustUnderstand,
            "Sender" => FaultCode::Sender,
            "Receiver" => FaultCode::Receiver,
            "DataEncodingUnknown" => FaultCode::DataEncodingUnknown,
            _ => return None,
        })
    }
}

impl fmt::Display for FaultCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.local_name())
    }
}

/// A SOAP fault: code, optional application subcode, human-readable
/// reason, and optional structured detail.
#[derive(Debug, Clone, PartialEq)]
pub struct Fault {
    pub code: FaultCode,
    /// Application-defined subcode (e.g. a WSPeer error identifier).
    pub subcode: Option<QName>,
    pub reason: String,
    /// Boxed so `Result<_, Fault>` stays small (the error path is cold,
    /// the success path is not).
    pub detail: Option<Box<Element>>,
}

impl Fault {
    pub fn new(code: FaultCode, reason: impl Into<String>) -> Self {
        Fault {
            code,
            subcode: None,
            reason: reason.into(),
            detail: None,
        }
    }

    /// Shorthand for a `Sender` fault.
    pub fn sender(reason: impl Into<String>) -> Self {
        Fault::new(FaultCode::Sender, reason)
    }

    /// Shorthand for a `Receiver` fault.
    pub fn receiver(reason: impl Into<String>) -> Self {
        Fault::new(FaultCode::Receiver, reason)
    }

    pub fn with_subcode(mut self, subcode: QName) -> Self {
        self.subcode = Some(subcode);
        self
    }

    pub fn with_detail(mut self, detail: Element) -> Self {
        self.detail = Some(Box::new(detail));
        self
    }

    /// Render as the `env:Fault` element placed inside a SOAP body.
    pub fn to_element(&self) -> Element {
        let mut value = Element::new(SOAP_ENV_NS, "Value");
        // The fault code value is a QName in the envelope namespace; the
        // writer guarantees a prefix exists for the envelope namespace on
        // an enclosing element, but value-space prefixes are not resolved
        // by XML itself, so we emit with a self-contained declaration.
        value.push_text(format!("env:{}", self.code.local_name()));
        value.set_attribute(QName::local("xmlns:env".to_string()), SOAP_ENV_NS);

        let mut code = Element::new(SOAP_ENV_NS, "Code");
        code.push_element(value);
        if let Some(sub) = &self.subcode {
            let mut sub_value = Element::new(SOAP_ENV_NS, "Value");
            sub_value.push_text(sub.local_name().to_owned());
            sub_value.set_attribute(QName::local("ns".to_string()), sub.namespace().to_owned());
            let mut subcode = Element::new(SOAP_ENV_NS, "Subcode");
            subcode.push_element(sub_value);
            code.push_element(subcode);
        }

        let text = Element::build(SOAP_ENV_NS, "Text")
            .attr(QName::new(wsp_xml::XML_NS, "lang"), "en")
            .text(self.reason.clone())
            .finish();
        let reason = Element::build(SOAP_ENV_NS, "Reason").child(text).finish();

        let mut fault = Element::new(SOAP_ENV_NS, "Fault");
        fault.push_element(code);
        fault.push_element(reason);
        if let Some(detail) = &self.detail {
            let mut d = Element::new(SOAP_ENV_NS, "Detail");
            d.push_element((**detail).clone());
            fault.push_element(d);
        }
        fault
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SOAP {} fault: {}", self.code, self.reason)?;
        if let Some(sub) = &self.subcode {
            write!(f, " [{sub:?}]")?;
        }
        Ok(())
    }
}

impl std::error::Error for Fault {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typed::Rule;
    use crate::{Envelope, SoapError};

    #[test]
    fn code_names_round_trip() {
        for code in [
            FaultCode::VersionMismatch,
            FaultCode::MustUnderstand,
            FaultCode::Sender,
            FaultCode::Receiver,
            FaultCode::DataEncodingUnknown,
        ] {
            assert_eq!(FaultCode::from_local_name(code.local_name()), Some(code));
        }
        assert_eq!(FaultCode::from_local_name("Nope"), None);
    }

    /// `xml`'s body as the one reader reads it.
    fn read(xml: &str) -> Result<Envelope, SoapError> {
        Envelope::from_xml(xml)
    }

    #[test]
    fn fault_element_round_trip() {
        let fault = Fault::sender("bad request")
            .with_subcode(QName::new("urn:wsp", "NoSuchOperation"))
            .with_detail(Element::build("urn:wsp", "op").text("missing").finish());
        let back = read(&Envelope::fault(fault.clone()).to_xml()).unwrap();
        let back = back.fault_body().unwrap();
        assert_eq!(back.code, FaultCode::Sender);
        assert_eq!(back.reason, "bad request");
        assert_eq!(
            back.subcode.as_ref().unwrap().local_name(),
            "NoSuchOperation"
        );
        assert_eq!(back.detail.as_ref().unwrap().text(), "missing");
        assert_eq!(back, &fault);
    }

    #[test]
    fn fault_survives_wire_round_trip() {
        // Written by the plain tree writer, not the SOAP codec.
        let xml = Envelope::fault(Fault::receiver("boom"))
            .to_element()
            .to_xml();
        let back = read(&xml).unwrap();
        let back = back.fault_body().unwrap();
        assert_eq!(back.code, FaultCode::Receiver);
        assert_eq!(back.reason, "boom");
    }

    #[test]
    fn non_fault_element_yields_none() {
        let back = read(&Envelope::request(Element::new("urn:x", "NotAFault")).to_xml()).unwrap();
        assert!(back.fault_body().is_none());
        assert!(back.payload().is_some());
    }

    #[test]
    fn malformed_fault_is_refused() {
        // No code, no reason.
        let xml = format!(
            r#"<env:Envelope xmlns:env="{SOAP_ENV_NS}"><env:Body><env:Fault/></env:Body></env:Envelope>"#
        );
        let Err(SoapError::Fault(refusal)) = read(&xml) else {
            panic!("a fault without Code read");
        };
        assert_eq!(Rule::of(&refusal), Some(Rule::Missing));
    }

    #[test]
    fn display_is_informative() {
        let f = Fault::sender("nope").with_subcode(QName::new("urn:x", "Sub"));
        let s = f.to_string();
        assert!(s.contains("Sender") && s.contains("nope") && s.contains("Sub"));
    }
}
