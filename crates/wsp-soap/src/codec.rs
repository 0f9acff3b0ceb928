//! Wire codec: envelope ⇄ XML text, plus the SOAP-level error type.

use crate::constants::{SOAP_ENV_NS, WSA_NS};
use crate::envelope::Envelope;
use crate::fault::{Fault, FaultCode};
use std::fmt;
use wsp_xml::{Writer, WriterConfig, XmlError};

/// Errors raised while decoding a SOAP message.
#[derive(Debug, Clone, PartialEq)]
pub enum SoapError {
    /// The bytes were not well-formed XML.
    Xml(XmlError),
    /// The root element was not a SOAP 1.2 envelope.
    VersionMismatch { found: String },
    /// The envelope had no `env:Body`.
    MissingBody,
}

impl SoapError {
    /// The fault a conforming node returns for this decode error.
    pub fn to_fault(&self) -> Fault {
        match self {
            SoapError::Xml(e) => Fault::new(FaultCode::Sender, format!("malformed XML: {e}")),
            SoapError::VersionMismatch { found } => Fault::new(
                FaultCode::VersionMismatch,
                format!("unsupported envelope {found}; this node speaks SOAP 1.2"),
            ),
            SoapError::MissingBody => Fault::new(FaultCode::Sender, "envelope has no Body"),
        }
    }
}

impl fmt::Display for SoapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SoapError::Xml(e) => write!(f, "XML error: {e}"),
            SoapError::VersionMismatch { found } => {
                write!(f, "not a SOAP 1.2 envelope (root {found})")
            }
            SoapError::MissingBody => write!(f, "envelope has no Body"),
        }
    }
}

impl std::error::Error for SoapError {}

impl From<XmlError> for SoapError {
    fn from(e: XmlError) -> Self {
        SoapError::Xml(e)
    }
}

/// Reusable encoder/decoder with conventional prefixes (`env`, `wsa`).
///
/// Holding one per connection/worker amortises the writer's buffer across
/// messages (perf-book guidance: reuse workhorse buffers).
pub struct SoapCodec {
    pub(crate) writer: Writer,
}

impl Default for SoapCodec {
    fn default() -> Self {
        SoapCodec::new()
    }
}

impl SoapCodec {
    pub fn new() -> Self {
        let config = WriterConfig::wire()
            .prefer(SOAP_ENV_NS, "env")
            .prefer(WSA_NS, "wsa");
        SoapCodec {
            writer: Writer::new(config),
        }
    }

    /// Run `f` against a per-thread codec, amortising the writer across
    /// every encode/decode on this thread. This is the codec behind
    /// [`Envelope::to_xml`] and friends.
    pub fn with_thread_local<R>(f: impl FnOnce(&mut SoapCodec) -> R) -> R {
        thread_local! {
            static CODEC: std::cell::RefCell<SoapCodec> =
                std::cell::RefCell::new(SoapCodec::new());
        }
        CODEC.with(|c| f(&mut c.borrow_mut()))
    }

    /// Serialise an envelope to wire XML (with XML declaration).
    pub fn encode(&mut self, envelope: &Envelope) -> String {
        let mut out = Vec::with_capacity(256);
        self.encode_into(envelope, &mut out);
        // The writer emits only `str` fragments, so the buffer is UTF-8.
        String::from_utf8(out).expect("writer output is UTF-8")
    }

    /// Serialise an envelope, appending the wire bytes to `out` — the
    /// allocation-lean path used by the transports with pooled buffers.
    pub fn encode_into(&mut self, envelope: &Envelope, out: &mut Vec<u8>) {
        self.writer
            .write_stream_into(out, |stream| envelope.write_to(stream));
    }

    /// Parse wire XML into an envelope.
    pub fn decode(&mut self, xml: &str) -> Result<Envelope, SoapError> {
        let root = wsp_xml::parse(xml)?;
        Envelope::from_root(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_xml::Element;

    #[test]
    fn codec_uses_conventional_prefixes() {
        let mut codec = SoapCodec::new();
        let mut env = Envelope::request(Element::new("urn:x", "op"));
        env.set_addressing(crate::MessageHeaders::request("urn:to", "urn:act"));
        let xml = codec.encode(&env);
        assert!(xml.contains("<env:Envelope"), "{xml}");
        assert!(xml.contains("<wsa:To"), "{xml}");
    }

    #[test]
    fn streamed_encode_is_the_tree_writers_bytes() {
        let payload = Element::build("urn:x", "op")
            .attr(wsp_xml::QName::new("urn:a", "k"), "v")
            .child(Element::build("urn:x", "arg").text("1 < 2 & 3").finish())
            .finish();
        let mut with_headers = Envelope::request(payload);
        with_headers.set_addressing(crate::MessageHeaders::request("urn:to", "urn:act"));
        let mut block = crate::HeaderBlock::mandatory(Element::new("urn:h", "Token"));
        block.role = Some("urn:role".into());
        with_headers.add_header(block);
        let mut codec = SoapCodec::new();
        for envelope in [
            with_headers,
            Envelope::fault(Fault::sender("no")),
            Envelope::empty(),
        ] {
            let tree = codec.writer.write(&envelope.to_element());
            assert_eq!(codec.encode(&envelope), tree);
        }
    }

    #[test]
    fn decode_errors_map_to_faults() {
        let mut codec = SoapCodec::new();
        let xml_err = codec.decode("<<<").unwrap_err();
        assert_eq!(xml_err.to_fault().code, FaultCode::Sender);

        let version = codec.decode("<a/>").unwrap_err();
        assert_eq!(version.to_fault().code, FaultCode::VersionMismatch);

        let missing = codec
            .decode(&format!(r#"<env:Envelope xmlns:env="{SOAP_ENV_NS}"/>"#))
            .unwrap_err();
        assert_eq!(missing.to_fault().code, FaultCode::Sender);
    }

    #[test]
    fn codec_is_reusable() {
        let mut codec = SoapCodec::new();
        for i in 0..3 {
            let env =
                Envelope::request(Element::build("urn:x", "op").text(format!("{i}")).finish());
            let xml = codec.encode(&env);
            let back = codec.decode(&xml).unwrap();
            assert_eq!(back.payload().unwrap().text(), format!("{i}"));
        }
    }

    #[test]
    fn display_variants() {
        assert!(SoapError::MissingBody.to_string().contains("Body"));
        assert!(SoapError::VersionMismatch { found: "x".into() }
            .to_string()
            .contains("SOAP 1.2"));
    }
}
