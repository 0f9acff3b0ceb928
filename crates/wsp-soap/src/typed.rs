//! The envelope without a tree: written around a body the caller
//! streams — the bytes [`Envelope::to_xml_into`] emits for the same
//! headers — and read off a [`PullReader`] up to a body the caller
//! reads. The reader knows one shape, what this workspace writes give
//! or take layout, and answers `None` ("not mine") for every other
//! document, well-formed or not: the caller then parses the tree, so
//! the two readers cannot disagree on a message.

use crate::addressing::{EndpointReference, MessageHeaders};
use crate::codec::SoapCodec;
use crate::constants::{SOAP_ENV_NS, WSA_NS};
use crate::envelope::Envelope;
use std::borrow::Cow;
use wsp_xml::{Element, Pull, PullReader, StreamWriter};

/// Append the envelope whose header blocks are `leading` followed by
/// the WS-Addressing `headers`, and whose `env:Body` holds what `body`
/// emits.
pub fn write_envelope(
    out: &mut Vec<u8>,
    leading: &[Element],
    headers: &MessageHeaders,
    body: impl FnOnce(&mut StreamWriter<'_>),
) {
    SoapCodec::with_thread_local(|codec| {
        codec.writer.write_stream_into(out, |out| {
            out.element(SOAP_ENV_NS, "Envelope", |out| {
                if !(leading.is_empty() && headers.is_empty()) {
                    out.element(SOAP_ENV_NS, "Header", |out| {
                        leading.iter().for_each(|block| out.tree(block));
                        headers.write_to(out);
                    });
                }
                out.element(SOAP_ENV_NS, "Body", body);
            });
        });
    });
}

/// The next start tag, end tag or end of document, layout whitespace
/// passed over; `None` for other character data or an XML error.
pub fn next_tag<'a>(reader: &mut PullReader<'a>) -> Option<Pull<'a>> {
    loop {
        match reader.next().ok()? {
            Pull::Text(text) if text.trim().is_empty() => {}
            Pull::Text(_) => return None,
            tag => return Some(tag),
        }
    }
}

/// The character data of the element whose start tag the cursor rests
/// on, through its end tag; `None` if it has element children.
pub fn read_text<'a>(reader: &mut PullReader<'a>) -> Option<Cow<'a, str>> {
    let mut text = Cow::Borrowed("");
    loop {
        match reader.next().ok()? {
            Pull::Text(run) if text.is_empty() => text = run,
            Pull::Text(run) => text.to_mut().push_str(&run),
            Pull::End => return Some(text),
            Pull::Start | Pull::Eof => return None,
        }
    }
}

/// True if the cursor rests on the attribute-less start tag of
/// `{ns}local`.
pub fn at_plain(reader: &PullReader<'_>, ns: &str, local: &str) -> bool {
    reader.is(ns, local) && reader.attribute_count() == 0
}

/// Read `xml` as an envelope: the frame and the WS-Addressing headers
/// here, other header blocks handed to `foreign` as trees, the body by
/// `body` — called with the cursor on `env:Body`'s start tag, to read
/// through its end tag. Declined: an `env:Header` after the body or a
/// second one, a repeated addressing header, an attribute the envelope
/// does not define, a reference without an address, a foreign block
/// marked `mustUnderstand`, character data between blocks, and
/// anything `body` declines.
pub fn read_envelope<'a, T>(
    xml: &'a str,
    foreign: &mut dyn FnMut(&Element),
    body: impl FnOnce(&mut PullReader<'a>) -> Option<T>,
) -> Option<(MessageHeaders, T)> {
    let reader = &mut PullReader::new(xml);
    let mut headers = MessageHeaders::default();
    if next_tag(reader)? != Pull::Start || !at_plain(reader, SOAP_ENV_NS, "Envelope") {
        return None;
    }
    let mut tag = next_tag(reader)?;
    if tag == Pull::Start && at_plain(reader, SOAP_ENV_NS, "Header") {
        while next_tag(reader)? == Pull::Start {
            read_header_block(reader, &mut headers, foreign)?;
        }
        tag = next_tag(reader)?;
    }
    if tag != Pull::Start || !at_plain(reader, SOAP_ENV_NS, "Body") {
        return None;
    }
    let body = body(reader)?;
    let closed = next_tag(reader)? == Pull::End && reader.next().ok()? == Pull::Eof;
    closed.then_some((headers, body))
}

/// Show `foreign` what [`read_envelope`] would have shown it of an
/// envelope that was parsed instead: the header blocks outside
/// WS-Addressing's namespace.
pub fn show_foreign(envelope: &Envelope, foreign: &mut dyn FnMut(&Element)) {
    let blocks = envelope.headers().iter().map(|block| &block.element);
    blocks
        .filter(|block| block.name().namespace() != WSA_NS)
        .for_each(foreign);
}

fn read_header_block(
    reader: &mut PullReader<'_>,
    headers: &mut MessageHeaders,
    foreign: &mut dyn FnMut(&Element),
) -> Option<()> {
    let (mut mandatory, mut env_only) = (false, true);
    reader.attributes(|ns, local, value| match (ns, local) {
        (SOAP_ENV_NS, "mustUnderstand") => mandatory = matches!(&*value, "true" | "1"),
        (SOAP_ENV_NS, "role") => {}
        _ => env_only = false,
    });
    let local = reader.local_name();
    let text = match reader.is(WSA_NS, local).then_some(local) {
        Some("To") => &mut headers.to,
        Some("Action") => &mut headers.action,
        Some("MessageID") => &mut headers.message_id,
        Some("RelatesTo") => &mut headers.relates_to,
        addressing => {
            let block = reader.read_subtree().ok()?;
            let reference = match addressing {
                Some("ReplyTo") => &mut headers.reply_to,
                Some("FaultTo") => &mut headers.fault_to,
                Some("From") => &mut headers.from,
                _ if mandatory => return None,
                // WS-Addressing this node does not use: nobody's.
                Some(_) => return Some(()),
                None => {
                    foreign(&block);
                    return Some(());
                }
            };
            if reference.is_some() {
                return None;
            }
            *reference = Some(EndpointReference::from_element(&block)?);
            return Some(());
        }
    };
    if text.is_some() || !env_only {
        return None;
    }
    *text = Some(read_text(reader)?.trim().to_owned());
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HeaderBlock;

    fn reply_to() -> EndpointReference {
        EndpointReference::new("p2ps://00bb")
            .with_property(Element::build("urn:p", "PipeName").text("r-1").finish())
    }

    /// Write `headers` around a one-element body and read it back with
    /// a body reader that takes that element's text.
    fn round_trip(leading: &[Element], headers: &MessageHeaders) -> (String, Vec<String>) {
        let mut out = Vec::new();
        write_envelope(&mut out, leading, headers, |out| {
            out.element("urn:b", "op", |out| out.text("a < b"));
        });
        let xml = String::from_utf8(out).unwrap();
        let mut seen = Vec::new();
        let mut foreign = |block: &Element| seen.push(block.text());
        let (read, body) = read_envelope(&xml, &mut foreign, |reader| {
            let op = next_tag(reader)? == Pull::Start && reader.is("urn:b", "op");
            let text = read_text(reader)?.into_owned();
            (op && next_tag(reader)? == Pull::End).then_some(text)
        })
        .expect("the reader knows what the writer writes");
        assert_eq!(body, "a < b");
        // Reference properties of the destination are ordinary blocks
        // to whoever receives them.
        let mut sent = headers.clone();
        sent.destination_properties.clear();
        assert_eq!(read, sent);
        (xml, seen)
    }

    #[test]
    fn streamed_envelope_is_the_tree_writers_and_reads_back() {
        let leading = [Element::build("", "budget").text("250").finish()];
        let headers = MessageHeaders::to_endpoint(&reply_to(), "urn:act")
            .with_reply_to(reply_to())
            .with_from(EndpointReference::new("urn:me"));
        let (xml, seen) = round_trip(&leading, &headers);
        assert_eq!(seen, ["250", "r-1"]);
        let mut tree = Envelope::request(Element::build("urn:b", "op").text("a < b").finish());
        tree.add_header(HeaderBlock::new(leading[0].clone()));
        tree.set_addressing(headers);
        assert_eq!(xml, tree.to_xml());
        // No header at all: no `env:Header` either.
        let (bare, _) = round_trip(&[], &MessageHeaders::default());
        assert!(!bare.contains("Header"), "{bare}");
    }

    #[test]
    fn shapes_the_reader_leaves_to_the_tree() {
        let (xml, _) = round_trip(&[], &MessageHeaders::request("urn:to", "urn:act"));
        let skip = |xml: &str| read_envelope(xml, &mut |_| {}, |body| body.skip().ok());
        assert!(skip(&xml).is_some());
        let to = xml.find("<wsa:To").unwrap();
        let body = xml.find("<env:Body>").unwrap();
        let spliced = |at: usize, what: &str| format!("{}{what}{}", &xml[..at], &xml[at..]);
        for (what, odd) in [
            (
                "a repeated header",
                spliced(to, "<wsa:To xmlns:wsa=\"{WSA}\">x</wsa:To>"),
            ),
            (
                "a mandatory stranger",
                spliced(to, "<s:S xmlns:s=\"urn:s\" env:mustUnderstand=\"1\"/>"),
            ),
            (
                "a reference without an address",
                spliced(to, "<wsa:From xmlns:wsa=\"{WSA}\"/>"),
            ),
            ("a second Header", spliced(body, "<env:Header/>")),
            ("text between blocks", spliced(to, "stray")),
            (
                "an attribute on the frame",
                xml.replacen("<env:Body>", "<env:Body id=\"b\">", 1),
            ),
            (
                "an attribute on a header",
                xml.replacen("<wsa:MessageID ", "<wsa:MessageID id=\"m\" ", 1),
            ),
            (
                "SOAP 1.1",
                xml.replace(SOAP_ENV_NS, "http://schemas.xmlsoap.org/soap/envelope/"),
            ),
            ("a cut", xml[..xml.len() - 1].to_owned()),
            ("a trailer", format!("{xml}<more/>")),
        ] {
            let odd = odd.replace("{WSA}", WSA_NS);
            assert!(skip(&odd).is_none(), "{what} was read typed: {odd}");
        }
        // Not shape: layout, an optional stranger, `mustUnderstand` and
        // `role` on a header this node understands.
        let stranger = spliced(
            to,
            "\n <s:S xmlns:s=\"urn:s\" env:mustUnderstand=\"false\">kept</s:S>\n ",
        );
        let role = stranger.replacen("<wsa:MessageID ", "<wsa:MessageID env:role=\"urn:r\" ", 1);
        let mut seen = Vec::new();
        let read = read_envelope(&role, &mut |b| seen.push(b.text()), |body| body.skip().ok());
        assert_eq!(
            read.map(|(headers, ())| headers),
            skip(&xml).map(|(headers, ())| headers)
        );
        assert_eq!(seen, ["kept"]);
    }
}
