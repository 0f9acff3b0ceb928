//! The P2PS wire protocol: the messages peers exchange, with XML
//! serialisation so the simulated wire carries the same bytes a real
//! deployment would.

use crate::advert::{PipeAdvertisement, ServiceAdvertisement, P2PS_NS};
use crate::id::PeerId;
use crate::query::P2psQuery;
use std::borrow::Cow;
use wsp_xml::escape::unescape;
use wsp_xml::{Element, Token, Tokenizer};

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

    /// Parse the wire form. A `PipeData` frame in the shape
    /// [`P2psMessage::to_xml_into`] writes is read straight off the
    /// tokenizer; every other document goes through the tree reader.
    pub fn from_xml(xml: &str) -> Option<P2psMessage> {
        if let Some(message) = pipe_data_from_tokens(xml) {
            return Some(message);
        }
        let root = wsp_xml::parse(xml).ok()?;
        P2psMessage::from_element(&root)
    }

    pub fn from_element(e: &Element) -> Option<P2psMessage> {
        if e.name().namespace() != P2PS_NS {
            return None;
        }
        match e.name().local_name() {
            "Advertise" => Some(P2psMessage::Advertise {
                advert: ServiceAdvertisement::from_element(
                    e.find(P2PS_NS, "ServiceAdvertisement")?,
                )?,
                ttl: e.attribute_local("ttl")?.parse().ok()?,
            }),
            "QueryMsg" => Some(P2psMessage::Query {
                id: e.attribute_local("id")?.parse().ok()?,
                origin: PeerId::from_hex(e.attribute_local("origin")?)?,
                query: P2psQuery::from_element(e.find(P2PS_NS, "Query")?)?,
                ttl: e.attribute_local("ttl")?.parse().ok()?,
            }),
            "QueryHit" => Some(P2psMessage::QueryHit {
                id: e.attribute_local("id")?.parse().ok()?,
                origin: PeerId::from_hex(e.attribute_local("origin")?)?,
                adverts: e
                    .find_all(P2PS_NS, "ServiceAdvertisement")
                    .filter_map(ServiceAdvertisement::from_element)
                    .collect(),
            }),
            "PipeData" => Some(P2psMessage::PipeData {
                to: PipeAdvertisement::from_element(e.find(P2PS_NS, "PipeAdvertisement")?)?,
                payload: e.child_text(P2PS_NS, "Payload").unwrap_or_default(),
            }),
            "Ping" => Some(P2psMessage::Ping {
                nonce: e.attribute_local("nonce")?.parse().ok()?,
            }),
            "Pong" => Some(P2psMessage::Pong {
                nonce: e.attribute_local("nonce")?.parse().ok()?,
            }),
            _ => None,
        }
    }

    /// Approximate wire size without serialising.
    pub fn approx_wire_size(&self) -> usize {
        match self {
            P2psMessage::Advertise { advert, .. } => 120 + advert_size(advert),
            P2psMessage::Query { query, .. } => {
                160 + query.name_pattern.as_deref().map(str::len).unwrap_or(0)
                    + query
                        .attributes
                        .iter()
                        .map(|(k, v)| k.len() + v.len() + 40)
                        .sum::<usize>()
            }
            P2psMessage::QueryHit { adverts, .. } => {
                120 + adverts.iter().map(advert_size).sum::<usize>()
            }
            P2psMessage::PipeData { payload, .. } => 200 + payload.len(),
            P2psMessage::Ping { .. } | P2psMessage::Pong { .. } => 60,
        }
    }
}

/// Decode a `PipeData` frame without building its tree. Accepts exactly
/// the shape the encoder emits — one prefix declared on the root bound
/// to [`P2PS_NS`], attribute-less children in writer order, nothing
/// around the root — and answers `None` for anything else, valid or
/// not: the caller then asks the tree reader, so the two decoders
/// cannot disagree on a document.
fn pipe_data_from_tokens(xml: &str) -> Option<P2psMessage> {
    let mut tokens = Tokenizer::new(xml);
    let Token::StartTag {
        name: root,
        attrs,
        self_closing: false,
        ..
    } = tokens.next_token().ok()??
    else {
        return None;
    };
    let (prefix, "PipeData") = root.split_once(':')? else {
        return None;
    };
    // `xml` is bound by the XML spec itself, whatever the document says.
    if prefix.is_empty() || prefix == "xml" {
        return None;
    }
    let [(declared, P2PS_NS)] = attrs[..] else {
        return None;
    };
    if declared.strip_prefix("xmlns:")? != prefix {
        return None;
    }

    let advert = open_tag(&mut tokens)?;
    if local_name(advert, prefix)? != "PipeAdvertisement" {
        return None;
    }
    let ("Peer", peer) = leaf(&mut tokens, prefix)? else {
        return None;
    };
    let peer = PeerId::from_hex(peer.trim())?;
    let (service, name) = match leaf(&mut tokens, prefix)? {
        ("Service", service) => match leaf(&mut tokens, prefix)? {
            ("Name", name) => (Some(service.into_owned()), name),
            _ => return None,
        },
        ("Name", name) => (None, name),
        _ => return None,
    };
    close_tag(&mut tokens, advert)?;
    let ("Payload", payload) = leaf(&mut tokens, prefix)? else {
        return None;
    };
    close_tag(&mut tokens, root)?;
    if tokens.next_token().ok()?.is_some() {
        return None;
    }
    Some(P2psMessage::PipeData {
        to: PipeAdvertisement {
            peer,
            service,
            name: name.into_owned(),
        },
        payload: payload.into_owned(),
    })
}

/// The local part of `name` if it carries exactly `prefix`.
fn local_name<'a>(name: &'a str, prefix: &str) -> Option<&'a str> {
    name.strip_prefix(prefix)?.strip_prefix(':')
}

/// Next token must be an attribute-less, non-empty open tag; returns
/// its lexical name.
fn open_tag<'a>(tokens: &mut Tokenizer<'a>) -> Option<&'a str> {
    match tokens.next_token().ok()?? {
        Token::StartTag {
            name,
            attrs: [],
            self_closing: false,
            ..
        } => Some(name),
        _ => None,
    }
}

fn close_tag(tokens: &mut Tokenizer<'_>, open: &str) -> Option<()> {
    match tokens.next_token().ok()?? {
        Token::EndTag { name, .. } if name == open => Some(()),
        _ => None,
    }
}

/// Next tokens must form an attribute-less text-only element under
/// `prefix`; returns its local name and unescaped text.
fn leaf<'a>(tokens: &mut Tokenizer<'a>, prefix: &str) -> Option<(&'a str, Cow<'a, str>)> {
    let Token::StartTag {
        name,
        attrs: [],
        self_closing,
        ..
    } = tokens.next_token().ok()??
    else {
        return None;
    };
    let local = local_name(name, prefix)?;
    if self_closing {
        return Some((local, Cow::Borrowed("")));
    }
    let text = match tokens.next_token().ok()?? {
        Token::Text { raw, offset } => {
            let text = unescape(raw, offset).ok()?;
            close_tag(tokens, name)?;
            text
        }
        Token::EndTag { name: close, .. } if close == name => Cow::Borrowed(""),
        _ => return None,
    };
    Some((local, text))
}

fn advert_size(a: &ServiceAdvertisement) -> usize {
    80 + a.name.len()
        + a.pipes.iter().map(|p| 90 + p.name.len()).sum::<usize>()
        + a.attributes
            .iter()
            .map(|(k, v)| k.len() + v.len() + 40)
            .sum::<usize>()
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
        let wrong_ns = Element::new("urn:other", "Ping");
        assert!(P2psMessage::from_element(&wrong_ns).is_none());
    }

    #[test]
    fn wire_size_tracks_payload() {
        let small = P2psMessage::PipeData {
            to: PipeAdvertisement::new(PeerId(1), None, "p"),
            payload: "x".into(),
        };
        let large = P2psMessage::PipeData {
            to: PipeAdvertisement::new(PeerId(1), None, "p"),
            payload: "x".repeat(10_000),
        };
        assert!(large.approx_wire_size() > small.approx_wire_size() + 9_000);
        // The estimate is within 2x of the real serialised size.
        let actual = small.to_xml().len();
        let estimate = small.approx_wire_size();
        assert!(
            estimate >= actual / 2 && estimate <= actual * 2,
            "{estimate} vs {actual}"
        );
    }
}
