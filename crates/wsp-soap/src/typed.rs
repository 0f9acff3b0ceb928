//! The envelope without a tree: written around a body the caller
//! streams — the bytes [`crate::Envelope::to_xml_into`] emits for the
//! same headers — and read off a [`PullReader`], the body handed to the
//! caller's reader. Reading is total: a document is read, refused as
//! parsing its tree refuses it ([`SoapError`]), or refused with a sender
//! fault — the body reader's, or a shape [`Rule`] (DESIGN.md §11).

use crate::addressing::{EndpointReference, MessageHeaders};
use crate::codec::{SoapCodec, SoapError};
use crate::constants::{FAULTS_NS, SOAP_ENV_NS, WSA_NS};
use crate::envelope::HeaderBlock;
use crate::fault::{Fault, FaultCode};
use std::borrow::Cow;
use std::fmt;
use wsp_xml::{Element, Pull, PullReader, QName, StreamWriter, XML_NS};

/// The shapes every reader refuses, whatever vocabulary it reads
/// (DESIGN.md §11). A refusal is a sender fault whose subcode, in
/// [`FAULTS_NS`], and the first word of whose reason are the rule's name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// A child that may appear once appears again.
    Repeated,
    /// An element the vocabulary does not define where it stands.
    UnknownElement,
    /// An attribute the vocabulary does not define.
    UnknownAttribute,
    /// Character data between elements.
    StrayText,
    /// A required child or attribute left out.
    Missing,
    /// A number or a fault code that does not parse.
    BadValue,
}

impl Rule {
    /// The fault for breaking this rule at `what`.
    pub fn fault(self, what: impl fmt::Display) -> Fault {
        let name = format!("{self:?}");
        Fault::sender(format!("{name}: {what}")).with_subcode(QName::new(FAULTS_NS, name))
    }

    pub fn refuse(self, what: impl fmt::Display) -> SoapError {
        SoapError::Fault(self.fault(what))
    }

    /// The rule `fault` was refused under, if any.
    pub fn of(fault: &Fault) -> Option<Rule> {
        use Rule::*;
        let subcode = fault
            .subcode
            .as_ref()
            .filter(|s| s.namespace() == FAULTS_NS)?;
        let rules = [
            Repeated,
            UnknownElement,
            UnknownAttribute,
            StrayText,
            Missing,
            BadValue,
        ];
        rules
            .into_iter()
            .find(|rule| format!("{rule:?}") == subcode.local_name())
    }
}

/// An envelope's body, as [`read_envelope`] shows it to the body reader.
pub enum Payload<'r, 'a> {
    Empty,
    Fault(Fault),
    /// Any other first child, the cursor on its start tag: read through
    /// its end tag, or stop anywhere — the envelope reader reads on.
    Element(&'r mut PullReader<'a>),
}

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

/// The next start tag, end tag or end of document; layout whitespace
/// passed over, other character data refused.
pub fn next_tag<'a>(reader: &mut PullReader<'a>) -> Result<Pull<'a>, SoapError> {
    loop {
        match reader.next()? {
            Pull::Text(text) if text.trim().is_empty() => {}
            Pull::Text(_) => return Err(Rule::StrayText.refuse("between elements")),
            tag => return Ok(tag),
        }
    }
}

/// The character data of the element whose start tag the cursor rests
/// on, through its end tag; a child element is refused.
pub fn read_text<'a>(reader: &mut PullReader<'a>) -> Result<Cow<'a, str>, SoapError> {
    let mut text = Cow::Borrowed("");
    loop {
        match reader.next()? {
            Pull::Text(run) if text.is_empty() => text = run,
            Pull::Text(run) => text.to_mut().push_str(&run),
            Pull::End | Pull::Eof => return Ok(text),
            Pull::Start => return Err(Rule::UnknownElement.refuse(name_of(reader))),
        }
    }
}

/// Refuse the start tag under the cursor if it carries an attribute.
pub fn plain(reader: &PullReader<'_>) -> Result<(), SoapError> {
    match reader.attribute_count() {
        0 => Ok(()),
        _ => Err(Rule::UnknownAttribute.refuse(format_args!("on {}", name_of(reader)))),
    }
}

/// The start tag under the cursor's name as a [`QName`] prints it.
pub fn name_of(reader: &PullReader<'_>) -> String {
    match reader.namespace() {
        "" => reader.local_name().to_owned(),
        ns => format!("{{{ns}}}{}", reader.local_name()),
    }
}

/// The children of the element whose start tag the cursor rests on,
/// through its end tag: each is one of `names` in `ns`, at most once,
/// read by `read` with its index in `names`.
pub fn read_parts<'a>(
    reader: &mut PullReader<'a>,
    ns: &str,
    names: &[&str],
    mut read: impl FnMut(&mut PullReader<'a>, usize) -> Result<(), SoapError>,
) -> Result<(), SoapError> {
    let mut seen = 0u64;
    while next_tag(reader)? == Pull::Start {
        let Some(at) = names.iter().position(|name| reader.is(ns, name)) else {
            return Err(Rule::UnknownElement.refuse(name_of(reader)));
        };
        if seen & 1 << at != 0 {
            return Err(Rule::Repeated.refuse(names[at]));
        }
        seen |= 1 << at;
        read(reader, at)?;
    }
    Ok(())
}

/// Read `xml` as an envelope: the frame and the WS-Addressing headers
/// here, every other header block shown to `foreign` (marked
/// `mustUnderstand` or not: judging it is the caller's business), the
/// body by `body`. The whole document is read, so an XML error anywhere
/// is [`SoapError::Xml`]; a root that is not a SOAP 1.2 envelope and an
/// envelope with no body are the other errors parsing a tree gives.
/// Otherwise the headers come back with the body's value, or with the
/// first fault the document earned: a [`Rule`] it broke, or the body
/// reader's — with the headers read before it.
pub fn read_envelope<'a, T>(
    xml: &'a str,
    foreign: &mut dyn FnMut(&HeaderBlock),
    body: impl FnOnce(Payload<'_, 'a>) -> Result<T, SoapError>,
) -> Result<(MessageHeaders, Result<T, Fault>), SoapError> {
    let reader = &mut PullReader::new(xml);
    reader.next()?;
    if !reader.is(SOAP_ENV_NS, "Envelope") {
        let found = name_of(reader);
        while reader.next()? != Pull::Eof {}
        return Err(SoapError::VersionMismatch { found });
    }
    let (mut headers, mut bodies) = (MessageHeaders::default(), 0);
    let refused = match read_frame(reader, &mut headers, &mut bodies, foreign, body) {
        Ok(value) => return Ok((headers, Ok(reader.next().map(|_| value)?))),
        Err(SoapError::Fault(fault)) => fault,
        Err(other) => return Err(other),
    };
    // Read to the end: an XML error, or a missing body, outranks a fault.
    while reader.next()? != Pull::Eof {
        bodies += usize::from(reader.depth() == 2 && reader.is(SOAP_ENV_NS, "Body"));
    }
    match bodies {
        0 => Err(SoapError::MissingBody),
        _ => Ok((headers, Err(refused))),
    }
}

/// The envelope's children, the cursor on its start tag, through its
/// end tag: an optional `Header`, then the `Body`.
fn read_frame<'a, T>(
    reader: &mut PullReader<'a>,
    headers: &mut MessageHeaders,
    bodies: &mut usize,
    foreign: &mut dyn FnMut(&HeaderBlock),
    body: impl FnOnce(Payload<'_, 'a>) -> Result<T, SoapError>,
) -> Result<T, SoapError> {
    plain(reader)?;
    let mut tag = next_tag(reader)?;
    if tag == Pull::Start && reader.is(SOAP_ENV_NS, "Header") {
        plain(reader)?;
        while next_tag(reader)? == Pull::Start {
            read_block(reader, headers, foreign)?;
        }
        tag = next_tag(reader)?;
    }
    if tag != Pull::Start || !reader.is(SOAP_ENV_NS, "Body") {
        return Err(out_of_place(reader));
    }
    *bodies += 1;
    plain(reader)?;
    let value = match next_tag(reader)? {
        Pull::Start if reader.is(SOAP_ENV_NS, "Fault") => body(Payload::Fault(read_fault(reader)?)),
        Pull::Start => body(Payload::Element(&mut *reader)),
        _ => return body(Payload::Empty).and_then(|value| end(reader).map(|()| value)),
    }?;
    while reader.depth() > 2 {
        reader.next()?;
    }
    if next_tag(reader)? == Pull::Start {
        return Err(Rule::Repeated.refuse(format_args!("body {}", name_of(reader))));
    }
    end(reader).map(|()| value)
}

/// The end tag of the element the cursor is in.
fn end(reader: &mut PullReader<'_>) -> Result<(), SoapError> {
    match next_tag(reader)? {
        Pull::Start => Err(out_of_place(reader)),
        _ => Ok(()),
    }
}

/// The refusal of the element under the cursor where the envelope has
/// none: a second `Header` or `Body` is repeated, anything else unknown.
fn out_of_place(reader: &PullReader<'_>) -> SoapError {
    let frame = reader.is(SOAP_ENV_NS, "Header") || reader.is(SOAP_ENV_NS, "Body");
    let rule = if frame {
        Rule::Repeated
    } else {
        Rule::UnknownElement
    };
    rule.refuse(name_of(reader))
}

/// One header block, the cursor on its start tag: a WS-Addressing
/// header this node reads into `headers`, any other block shown to
/// `foreign` as the tree holds it (the envelope's attributes on the
/// block, not in the element).
fn read_block(
    reader: &mut PullReader<'_>,
    headers: &mut MessageHeaders,
    foreign: &mut dyn FnMut(&HeaderBlock),
) -> Result<(), SoapError> {
    let (mut must_understand, mut role, mut other) = (false, None, false);
    reader.attributes(|ns, local, value| match (ns, local) {
        (SOAP_ENV_NS, "mustUnderstand") => must_understand = matches!(&*value, "true" | "1"),
        (SOAP_ENV_NS, "role") => role = Some(value.into_owned()),
        _ => other = true,
    });
    let local = reader.local_name();
    match reader.is(WSA_NS, local).then_some(local) {
        Some("To") => read_once(reader, &mut headers.to, other, read_address),
        Some("Action") => read_once(reader, &mut headers.action, other, read_address),
        Some("MessageID") => read_once(reader, &mut headers.message_id, other, read_address),
        Some("RelatesTo") => read_once(reader, &mut headers.relates_to, other, read_address),
        Some("ReplyTo") => read_once(reader, &mut headers.reply_to, other, read_reference),
        Some("FaultTo") => read_once(reader, &mut headers.fault_to, other, read_reference),
        Some("From") => read_once(reader, &mut headers.from, other, read_reference),
        _ => {
            let mut element = reader.read_subtree()?;
            (element.attributes_mut()).retain(|a| a.name.namespace() != SOAP_ENV_NS);
            foreign(&HeaderBlock {
                element,
                must_understand,
                role,
            });
            Ok(())
        }
    }
}

/// Fill `slot` from the header under the cursor: once, and with no
/// attribute but the envelope's (`other` says it has another).
fn read_once<'a, T>(
    reader: &mut PullReader<'a>,
    slot: &mut Option<T>,
    other: bool,
    read: fn(&mut PullReader<'a>) -> Result<T, SoapError>,
) -> Result<(), SoapError> {
    let local = reader.local_name();
    if slot.is_some() {
        return Err(Rule::Repeated.refuse(local));
    }
    if other {
        return Err(Rule::UnknownAttribute.refuse(format_args!("on {local}")));
    }
    *slot = Some(read(reader)?);
    Ok(())
}

fn read_address(reader: &mut PullReader<'_>) -> Result<String, SoapError> {
    Ok(read_text(reader)?.trim().to_owned())
}

/// An endpoint reference: its `Address`, and its `ReferenceProperties`
/// kept as trees.
fn read_reference(reader: &mut PullReader<'_>) -> Result<EndpointReference, SoapError> {
    let (mut address, mut properties) = (None, Vec::new());
    read_parts(
        reader,
        WSA_NS,
        &["Address", "ReferenceProperties"],
        |r, part| {
            plain(r)?;
            match part {
                0 => address = Some(read_address(r)?),
                _ => {
                    while next_tag(r)? == Pull::Start {
                        properties.push(r.read_subtree()?);
                    }
                }
            }
            Ok(())
        },
    )?;
    Ok(EndpointReference {
        address: required(address, "Address")?,
        reference_properties: properties,
    })
}

/// An `env:Fault`, the cursor on its start tag, through its end tag:
/// the tree writer's shape, the children of each part in any order.
fn read_fault(reader: &mut PullReader<'_>) -> Result<Fault, SoapError> {
    plain(reader)?;
    let (mut code, mut subcode, mut reason, mut detail) = (None, None, None, None);
    let env = SOAP_ENV_NS;
    read_parts(reader, env, &["Code", "Reason", "Detail"], |r, part| {
        plain(r)?;
        match part {
            0 => read_parts(r, env, &["Value", "Subcode"], |r, part| match part {
                0 => {
                    plain(r)?;
                    let text = read_text(r)?;
                    let local = text.rsplit(':').next().unwrap_or_default();
                    let known = FaultCode::from_local_name(local.trim());
                    code = Some(known.ok_or_else(|| Rule::BadValue.refuse("fault code"))?);
                    Ok(())
                }
                _ => {
                    plain(r)?;
                    subcode = Some(only(r, env, "Value", |r| {
                        let (mut ns, mut other) = (None, false);
                        r.attributes(|uri, local, value| match (uri, local) {
                            ("", "ns") => ns = Some(value.into_owned()),
                            _ => other = true,
                        });
                        if other {
                            return Err(Rule::UnknownAttribute.refuse("on a subcode"));
                        }
                        let ns = required(ns, "ns")?;
                        Ok(QName::new(ns, read_text(r)?.trim().to_owned()))
                    })?);
                    Ok(())
                }
            }),
            1 => {
                reason = Some(only(r, env, "Text", |r| {
                    let mut lang = true;
                    r.attributes(|ns, local, _| lang &= (ns, local) == (XML_NS, "lang"));
                    match lang {
                        true => Ok(read_text(r)?.into_owned()),
                        false => Err(Rule::UnknownAttribute.refuse("on Text")),
                    }
                })?);
                Ok(())
            }
            _ => {
                let mut children = Vec::new();
                while next_tag(r)? == Pull::Start {
                    children.push(r.read_subtree()?);
                }
                let child = children.pop().filter(|_| children.is_empty());
                detail = Some(Box::new(required(child, "one Detail child")?));
                Ok(())
            }
        }
    })?;
    Ok(Fault {
        code: required(code, "Code Value")?,
        subcode,
        reason: required(reason, "Reason")?,
        detail,
    })
}

/// The one child `{ns}local` of the element whose start tag the cursor
/// rests on, read by `read`, through the parent's end tag.
pub fn only<'a, T>(
    reader: &mut PullReader<'a>,
    ns: &str,
    local: &str,
    read: impl FnOnce(&mut PullReader<'a>) -> Result<T, SoapError>,
) -> Result<T, SoapError> {
    let mut read = Some(read);
    let mut value = None;
    read_parts(reader, ns, &[local], |r, _| {
        value = Some(read.take().expect("read_parts reads one of a name")(r)?);
        Ok(())
    })?;
    required(value, local)
}

/// A required part's value, or its refusal.
pub fn required<T>(part: Option<T>, name: &str) -> Result<T, SoapError> {
    part.ok_or_else(|| Rule::Missing.refuse(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Envelope;

    fn reply_to() -> EndpointReference {
        EndpointReference::new("p2ps://00bb")
            .with_property(Element::build("urn:p", "PipeName").text("r-1").finish())
    }

    /// The one-element body `round_trip` writes: that element's text.
    fn op_text(payload: Payload<'_, '_>) -> Result<String, SoapError> {
        let Payload::Element(reader) = payload else {
            return Err(Fault::sender("not an op").into());
        };
        assert!(reader.is("urn:b", "op"));
        Ok(read_text(reader)?.into_owned())
    }

    /// Write `headers` around a one-element body and read it back.
    fn round_trip(leading: &[Element], headers: &MessageHeaders) -> (String, Vec<String>) {
        let mut out = Vec::new();
        write_envelope(&mut out, leading, headers, |out| {
            out.element("urn:b", "op", |out| out.text("a < b"));
        });
        let xml = String::from_utf8(out).unwrap();
        let mut seen = Vec::new();
        let mut foreign = |block: &HeaderBlock| seen.push(block.element.text());
        let (read, body) = read_envelope(&xml, &mut foreign, op_text).expect("an envelope");
        assert_eq!(
            body.expect("the reader knows what the writer writes"),
            "a < b"
        );
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

    /// Each shape outside the vocabulary is refused by its rule; what
    /// parsing the tree refuses is refused as parsing it refuses it.
    #[test]
    fn shapes_the_frame_refuses_name_their_rule() {
        let (xml, _) = round_trip(&[], &MessageHeaders::request("urn:to", "urn:act"));
        let read = |xml: &str| read_envelope(xml, &mut |_| {}, op_text);
        let to = xml.find("<wsa:To").unwrap();
        let body = xml.find("<env:Body>").unwrap();
        let spliced = |at: usize, what: &str| format!("{}{what}{}", &xml[..at], &xml[at..]);
        for (odd, rule) in [
            (
                spliced(to, "<wsa:To xmlns:wsa=\"{WSA}\">x</wsa:To>"),
                Rule::Repeated,
            ),
            (
                spliced(to, "<wsa:From xmlns:wsa=\"{WSA}\"/>"),
                Rule::Missing,
            ),
            (
                spliced(
                    to,
                    "<wsa:From xmlns:wsa=\"{WSA}\"><wsa:PortType/></wsa:From>",
                ),
                Rule::UnknownElement,
            ),
            (spliced(body, "<env:Header/>"), Rule::Repeated),
            (spliced(to, "stray"), Rule::StrayText),
            (
                xml.replacen("<env:Body>", "<env:Body id=\"b\">", 1),
                Rule::UnknownAttribute,
            ),
            (
                xml.replacen("<wsa:MessageID ", "<wsa:MessageID id=\"m\" ", 1),
                Rule::UnknownAttribute,
            ),
            (
                xml.replacen("</env:Body>", "</env:Body><env:Body/>", 1),
                Rule::Repeated,
            ),
            (
                xml.replacen("</env:Body>", "<more/></env:Body>", 1),
                Rule::Repeated,
            ),
        ] {
            let odd = odd.replace("{WSA}", WSA_NS);
            let (_, refused) = read(&odd).unwrap_or_else(|e| panic!("{e}: {odd}"));
            assert_eq!(Rule::of(&refused.unwrap_err()), Some(rule), "{odd}");
        }
        // What parsing the tree refuses, refused alike.
        let soap11 = xml.replace(SOAP_ENV_NS, "http://schemas.xmlsoap.org/soap/envelope/");
        let missing = xml[..body].to_owned() + "</env:Envelope>";
        for odd in [
            soap11,
            missing,
            xml[..xml.len() - 1].to_owned(),
            format!("{xml}<more/>"),
        ] {
            let tree = Envelope::from_xml(&odd).map(|_| ());
            assert_eq!(read(&odd).map(|_| ()), tree, "{odd}");
            assert!(tree.is_err());
        }
        // Not shape: layout, an optional stranger, `mustUnderstand` and
        // `role` on a header this node reads; a mandatory stranger is
        // shown with its mark, for the caller to judge.
        let strangers = spliced(
            to,
            "\n <s:S xmlns:s=\"urn:s\" env:mustUnderstand=\"false\">kept</s:S>\n \
             <s:M xmlns:s=\"urn:s\" env:mustUnderstand=\"1\"/>",
        );
        let role = strangers.replacen("<wsa:MessageID ", "<wsa:MessageID env:role=\"urn:r\" ", 1);
        let mut seen = Vec::new();
        let mut foreign = |b: &HeaderBlock| seen.push((b.element.text(), b.must_understand));
        let (headers, body) = read_envelope(&role, &mut foreign, op_text).unwrap();
        assert_eq!(body.unwrap(), "a < b");
        assert_eq!(headers, read(&xml).unwrap().0);
        assert_eq!(seen, [("kept".to_owned(), false), (String::new(), true)]);
    }

    #[test]
    fn faults_read_as_the_tree_writer_writes_them() {
        let detailed = Fault::sender("bad <request>")
            .with_subcode(QName::new("urn:wsp", "NoSuchOperation"))
            .with_detail(Element::build("urn:d", "why").text("missing").finish());
        for fault in [Fault::receiver("boom"), detailed] {
            let xml = Envelope::fault(fault.clone()).to_xml();
            let (_, read) = read_envelope(&xml, &mut |_| {}, |payload| match payload {
                Payload::Fault(fault) => Ok(fault),
                _ => Err(Fault::sender("not a fault").into()),
            })
            .unwrap();
            assert_eq!(read.unwrap(), fault);
            // A code outside the five is refused, not read as another.
            let odd = xml
                .replacen(":Sender<", ":Bogus<", 1)
                .replacen(":Receiver<", ":Bogus<", 1);
            let (_, odd) = read_envelope(&odd, &mut |_| {}, |_| Ok(())).unwrap();
            assert_eq!(Rule::of(&odd.unwrap_err()), Some(Rule::BadValue));
        }
    }
}
