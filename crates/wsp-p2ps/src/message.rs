//! The P2PS wire protocol: the messages peers exchange, with XML
//! serialisation so the simulated wire carries the same bytes a real
//! deployment would.
//!
//! [`P2psMessage::from_xml`] is the one reader of that wire. It reads
//! what [`P2psMessage::to_xml`] writes off the pull reader — with any
//! prefix, in any layout, CDATA as text, the parts of an element in any
//! order, a peer id with layout around it — and refuses the rest by the
//! shape [`Rule`] it breaks (DESIGN.md §11): a foreign element or
//! attribute, markup in a text leaf, a single part repeated or a
//! required one missing, a bad number or peer id, anything after the
//! root.

use crate::advert::{PipeAdvertisement, ServiceAdvertisement, P2PS_NS};
use crate::id::PeerId;
use crate::query::P2psQuery;
use std::borrow::Cow;
use wsp_soap::typed::{attributes, name_of, next_tag, number, only, plain, read_parts, read_text};
use wsp_soap::typed::{required, Rule};
use wsp_soap::SoapError;
use wsp_xml::{Element, Pull, PullReader};

/// Messages between peers.
#[derive(Debug, Clone, PartialEq)]
pub enum P2psMessage {
    /// Push an advertisement into the network (publish).
    Advertise {
        advert: ServiceAdvertisement,
        ttl: u8,
    },
    /// Flooded discovery query.
    Query {
        id: u64,
        origin: PeerId,
        query: P2psQuery,
        ttl: u8,
    },
    /// Hits travelling back along the query's reverse path.
    QueryHit {
        id: u64,
        origin: PeerId,
        adverts: Vec<ServiceAdvertisement>,
    },
    /// Data sent down a pipe (a SOAP envelope, WSDL text, …).
    PipeData {
        to: PipeAdvertisement,
        payload: String,
    },
    /// Liveness probe between neighbours (used by churn experiments).
    Ping {
        nonce: u64,
    },
    Pong {
        nonce: u64,
    },
}

impl P2psMessage {
    /// Serialise to the wire form. Reuses a per-thread writer and a
    /// pooled buffer, so steady-state gossip does not allocate fresh
    /// serialisation state per message.
    pub fn to_xml(&self) -> String {
        let mut out = wsp_xml::BufPool::global().take();
        self.to_xml_into(&mut out);
        String::from_utf8(out).expect("writer output is UTF-8")
    }

    /// Serialise to the wire form, appending to `out`. `PipeData` — the
    /// one message every invocation pays for, twice — streams through
    /// the writer without an [`Element`] tree or a copy of its payload;
    /// the bytes are those of [`P2psMessage::to_element`] through the
    /// tree writer, which the rarer variants still use.
    pub fn to_xml_into(&self, out: &mut Vec<u8>) {
        thread_local! {
            static WRITER: std::cell::RefCell<wsp_xml::Writer> =
                std::cell::RefCell::new(wsp_xml::Writer::new(wsp_xml::WriterConfig::default()));
        }
        WRITER.with(|w| {
            let mut writer = w.borrow_mut();
            match self {
                P2psMessage::PipeData { to, payload } => writer.write_stream_into(out, |s| {
                    s.element(P2PS_NS, "PipeData", |s| {
                        s.element(P2PS_NS, "PipeAdvertisement", |s| {
                            s.element(P2PS_NS, "Peer", |s| s.text(to.peer.hex_into(&mut [0; 16])));
                            if let Some(service) = &to.service {
                                s.element(P2PS_NS, "Service", |s| s.text(service));
                            }
                            s.element(P2PS_NS, "Name", |s| s.text(&to.name));
                        });
                        s.element(P2PS_NS, "Payload", |s| s.text(payload));
                    });
                }),
                other => writer.write_into(&other.to_element(), out),
            }
        });
    }

    pub fn to_element(&self) -> Element {
        match self {
            P2psMessage::Advertise { advert, ttl } => Element::build(P2PS_NS, "Advertise")
                .attr_str("ttl", ttl.to_string())
                .child(advert.to_element())
                .finish(),
            P2psMessage::Query {
                id,
                origin,
                query,
                ttl,
            } => Element::build(P2PS_NS, "QueryMsg")
                .attr_str("id", id.to_string())
                .attr_str("origin", origin.to_hex())
                .attr_str("ttl", ttl.to_string())
                .child(query.to_element())
                .finish(),
            P2psMessage::QueryHit {
                id,
                origin,
                adverts,
            } => {
                let mut e = Element::new(P2PS_NS, "QueryHit");
                e.set_attribute(wsp_xml::QName::local("id"), id.to_string());
                e.set_attribute(wsp_xml::QName::local("origin"), origin.to_hex());
                for a in adverts {
                    e.push_element(a.to_element());
                }
                e
            }
            P2psMessage::PipeData { to, payload } => Element::build(P2PS_NS, "PipeData")
                .child(to.to_element())
                .child(
                    Element::build(P2PS_NS, "Payload")
                        .text(payload.clone())
                        .finish(),
                )
                .finish(),
            P2psMessage::Ping { nonce } => Element::build(P2PS_NS, "Ping")
                .attr_str("nonce", nonce.to_string())
                .finish(),
            P2psMessage::Pong { nonce } => Element::build(P2PS_NS, "Pong")
                .attr_str("nonce", nonce.to_string())
                .finish(),
        }
    }

    /// Parse the wire form: `None` for a document that is not what
    /// [`P2psMessage::to_xml`] writes (see the module docs).
    pub fn from_xml(xml: &str) -> Option<P2psMessage> {
        let reader = &mut PullReader::new(xml);
        reader.next().ok()?;
        let message = read_message(reader).ok()?;
        (reader.next().ok()? == Pull::Eof).then_some(message)
    }
}

/// The message whose root start tag the cursor rests on, through its
/// end tag.
fn read_message(r: &mut PullReader<'_>) -> Result<P2psMessage, SoapError> {
    let local = r.local_name();
    Ok(match local {
        _ if !r.is(P2PS_NS, local) => return Err(Rule::UnknownElement.refuse(name_of(r))),
        "PipeData" => {
            plain(r)?;
            let (mut to, mut payload) = (None, None);
            read_parts(r, P2PS_NS, &["PipeAdvertisement", "Payload"], |r, part| {
                match part {
                    0 => to = Some(read_pipe(r)?),
                    _ => payload = Some(leaf(r)?.into_owned()),
                }
                Ok(())
            })?;
            P2psMessage::PipeData {
                to: required(to, "PipeAdvertisement")?,
                payload: required(payload, "Payload")?,
            }
        }
        "Advertise" => {
            let [ttl] = attributes(r, ["ttl"])?;
            let ttl = number(required(ttl, "ttl")?, "ttl")?;
            let advert = only(r, P2PS_NS, "ServiceAdvertisement", read_service)?;
            P2psMessage::Advertise { advert, ttl }
        }
        "QueryMsg" => {
            let [id, origin, ttl] = attributes(r, ["id", "origin", "ttl"])?;
            let (id, ttl) = (
                number(required(id, "id")?, "id")?,
                number(required(ttl, "ttl")?, "ttl")?,
            );
            let origin = peer_id(origin.as_deref(), "origin")?;
            let query = only(r, P2PS_NS, "Query", read_query)?;
            P2psMessage::Query {
                id,
                origin,
                query,
                ttl,
            }
        }
        "QueryHit" => {
            let [id, origin] = attributes(r, ["id", "origin"])?;
            let (id, origin) = (
                number(required(id, "id")?, "id")?,
                peer_id(origin.as_deref(), "origin")?,
            );
            let mut adverts = Vec::new();
            read_children(r, &["ServiceAdvertisement"], |r, _| {
                adverts.push(read_service(r)?);
                Ok(())
            })?;
            P2psMessage::QueryHit {
                id,
                origin,
                adverts,
            }
        }
        "Ping" | "Pong" => {
            let [nonce] = attributes(r, ["nonce"])?;
            let nonce = number(required(nonce, "nonce")?, "nonce")?;
            read_parts(r, P2PS_NS, &[], |_, _| Ok(()))?;
            match local {
                "Ping" => P2psMessage::Ping { nonce },
                _ => P2psMessage::Pong { nonce },
            }
        }
        _ => return Err(Rule::UnknownElement.refuse(name_of(r))),
    })
}

fn read_pipe(r: &mut PullReader<'_>) -> Result<PipeAdvertisement, SoapError> {
    plain(r)?;
    let (mut peer, mut service, mut name) = (None, None, None);
    read_parts(r, P2PS_NS, &["Peer", "Service", "Name"], |r, part| {
        match part {
            0 => peer = Some(peer_id(Some(&leaf(r)?), "Peer")?),
            1 => service = Some(leaf(r)?.into_owned()),
            _ => name = Some(leaf(r)?.into_owned()),
        }
        Ok(())
    })?;
    Ok(PipeAdvertisement {
        peer: required(peer, "Peer")?,
        service,
        name: required(name, "Name")?,
    })
}

fn read_service(r: &mut PullReader<'_>) -> Result<ServiceAdvertisement, SoapError> {
    plain(r)?;
    let (mut name, mut peer, mut pipes, mut attrs) = (None, None, Vec::new(), Vec::new());
    let parts = ["Name", "Peer", "Attributes", "PipeAdvertisement"];
    read_children(r, &parts, |r, part| {
        match part {
            0 => name = Some(leaf(r)?.into_owned()),
            1 => peer = Some(peer_id(Some(&leaf(r)?), "Peer")?),
            2 => {
                plain(r)?;
                read_children(r, &["Attribute"], |r, _| {
                    attrs.push(read_attribute(r)?);
                    Ok(())
                })?;
            }
            _ => pipes.push(read_pipe(r)?),
        }
        Ok(())
    })?;
    Ok(ServiceAdvertisement {
        name: required(name, "Name")?,
        peer: required(peer, "Peer")?,
        pipes,
        attributes: attrs,
    })
}

fn read_query(r: &mut PullReader<'_>) -> Result<P2psQuery, SoapError> {
    plain(r)?;
    let mut query = P2psQuery::any();
    read_children(r, &["Name", "Attribute"], |r, part| {
        match part {
            0 => query.name_pattern = Some(leaf(r)?.into_owned()),
            _ => query.attributes.push(read_attribute(r)?),
        }
        Ok(())
    })?;
    Ok(query)
}

/// `<Attribute name="k">v</Attribute>`, of an advert or a query.
fn read_attribute(r: &mut PullReader<'_>) -> Result<(String, String), SoapError> {
    let [key] = attributes(r, ["name"])?;
    Ok((
        required(key, "name")?.into_owned(),
        read_text(r)?.into_owned(),
    ))
}

/// The children of the element whose start tag the cursor rests on,
/// through its end tag: each is one of `names` in [`P2PS_NS`] — the
/// last any number of times, the others at most once — read by `read`
/// with its index in `names`.
fn read_children<'a>(
    r: &mut PullReader<'a>,
    names: &[&str],
    mut read: impl FnMut(&mut PullReader<'a>, usize) -> Result<(), SoapError>,
) -> Result<(), SoapError> {
    let mut seen = 0u64;
    while next_tag(r)? == Pull::Start {
        let Some(at) = names.iter().position(|name| r.is(P2PS_NS, name)) else {
            return Err(Rule::UnknownElement.refuse(name_of(r)));
        };
        if at + 1 < names.len() && seen & 1 << at != 0 {
            return Err(Rule::Repeated.refuse(names[at]));
        }
        seen |= 1 << at;
        read(r, at)?;
    }
    Ok(())
}

/// The text of an attribute-less element.
fn leaf<'a>(r: &mut PullReader<'a>) -> Result<Cow<'a, str>, SoapError> {
    plain(r)?;
    read_text(r)
}

/// A required peer id, layout around it passed over.
fn peer_id(hex: Option<&str>, name: &str) -> Result<PeerId, SoapError> {
    PeerId::from_hex(required(hex, name)?.trim()).ok_or_else(|| Rule::BadValue.refuse(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn advert() -> ServiceAdvertisement {
        ServiceAdvertisement::new("Echo", PeerId(0xabc))
            .with_pipe("echoString")
            .with_definition_pipe()
            .with_attribute("domain", "demo")
    }

    #[test]
    fn all_variants_round_trip() {
        let messages = vec![
            P2psMessage::Advertise {
                advert: advert(),
                ttl: 3,
            },
            P2psMessage::Query {
                id: 42,
                origin: PeerId(0x99),
                query: P2psQuery::by_name("Echo%").with_attribute("domain", "demo"),
                ttl: 5,
            },
            P2psMessage::QueryHit {
                id: 42,
                origin: PeerId(0x99),
                adverts: vec![advert(), advert()],
            },
            P2psMessage::PipeData {
                to: PipeAdvertisement::new(PeerId(0xabc), Some("Echo".into()), "echoString"),
                payload: "<env>soap here &amp; escaped</env>".into(),
            },
            P2psMessage::Ping { nonce: 7 },
            P2psMessage::Pong { nonce: 7 },
        ];
        for msg in messages {
            let xml = msg.to_xml();
            let parsed = P2psMessage::from_xml(&xml).expect(&xml);
            assert_eq!(parsed, msg, "wire: {xml}");
        }
    }

    #[test]
    fn pipe_data_payload_with_markup() {
        // The payload is a SOAP envelope — full of angle brackets that
        // must survive being nested as character data.
        let inner = wsp_soap::Envelope::request(
            Element::build("urn:x", "op")
                .text("déjà <vu> & more")
                .finish(),
        )
        .to_xml();
        let msg = P2psMessage::PipeData {
            to: PipeAdvertisement::new(PeerId(1), None, "p"),
            payload: inner.clone(),
        };
        let parsed = P2psMessage::from_xml(&msg.to_xml()).unwrap();
        match parsed {
            P2psMessage::PipeData { payload, .. } => {
                let env = wsp_soap::Envelope::from_xml(&payload).unwrap();
                assert_eq!(env.payload().unwrap().text(), "déjà <vu> & more");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn garbage_rejected() {
        assert!(P2psMessage::from_xml("<nope/>").is_none());
        assert!(P2psMessage::from_xml("<<<").is_none());
        let wrong_ns = Element::build("urn:other", "Ping")
            .attr_str("nonce", "7")
            .finish();
        assert!(P2psMessage::from_xml(&wrong_ns.to_xml()).is_none());
    }
}
