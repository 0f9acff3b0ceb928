//! XML advertisements: how P2PS exposes pipes and services to the
//! network.
//!
//! A `ServiceAdvertisement` is "simply a collection of named
//! PipeAdvertisements"; WSPeer's extension adds a *definition pipe* from
//! which the service's WSDL can be retrieved, plus free-form attributes
//! enabling attribute-based search (Section IV, reason 1 for choosing
//! P2PS).

use crate::id::PeerId;
use crate::uri::{address_with, P2psUri};
use wsp_xml::Element;

/// Namespace of P2PS advertisements and protocol messages.
pub const P2PS_NS: &str = "urn:wspeer:p2ps";

/// Name of the definition pipe WSPeer adds to service adverts.
pub const DEFINITION_PIPE: &str = "definition";

/// An advertisement for one pipe: a named logical endpoint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PipeAdvertisement {
    /// The peer hosting the pipe.
    pub peer: PeerId,
    /// Name of the service advertisement this pipe belongs to, if any.
    pub service: Option<String>,
    /// The pipe's name — unique within its service.
    pub name: String,
}

impl PipeAdvertisement {
    pub fn new(peer: PeerId, service: Option<String>, name: impl Into<String>) -> Self {
        PipeAdvertisement {
            peer,
            service,
            name: name.into(),
        }
    }

    /// The address form of [`PipeAdvertisement::uri`] — peer and
    /// service, no pipe name — written without building the URI.
    pub fn address(&self) -> String {
        address_with(self.peer, self.service.as_deref(), None)
    }

    /// The action form of [`PipeAdvertisement::uri`]: the address, `#`,
    /// the pipe name.
    pub fn action(&self) -> String {
        address_with(self.peer, self.service.as_deref(), Some(&self.name))
    }

    /// The `p2ps://` URI identifying this pipe.
    pub fn uri(&self) -> P2psUri {
        let mut uri = P2psUri::new(self.peer).with_pipe(self.name.clone());
        if let Some(s) = &self.service {
            uri = uri.with_service(s.clone());
        }
        uri
    }

    pub fn to_element(&self) -> Element {
        let mut e = Element::new(P2PS_NS, "PipeAdvertisement");
        e.push_element(
            Element::build(P2PS_NS, "Peer")
                .text(self.peer.to_hex())
                .finish(),
        );
        if let Some(s) = &self.service {
            e.push_element(Element::build(P2PS_NS, "Service").text(s.clone()).finish());
        }
        e.push_element(
            Element::build(P2PS_NS, "Name")
                .text(self.name.clone())
                .finish(),
        );
        e
    }
}

/// An advertisement for a service: named pipes plus searchable
/// attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceAdvertisement {
    pub name: String,
    pub peer: PeerId,
    pub pipes: Vec<PipeAdvertisement>,
    /// Free-form metadata for attribute-based search.
    pub attributes: Vec<(String, String)>,
}

impl ServiceAdvertisement {
    pub fn new(name: impl Into<String>, peer: PeerId) -> Self {
        ServiceAdvertisement {
            name: name.into(),
            peer,
            pipes: Vec::new(),
            attributes: Vec::new(),
        }
    }

    /// Add a pipe named `pipe_name` on this service.
    pub fn with_pipe(mut self, pipe_name: impl Into<String>) -> Self {
        let pipe = PipeAdvertisement::new(self.peer, Some(self.name.clone()), pipe_name);
        self.pipes.push(pipe);
        self
    }

    /// Add WSPeer's definition pipe (serves the WSDL document).
    pub fn with_definition_pipe(self) -> Self {
        self.with_pipe(DEFINITION_PIPE)
    }

    pub fn with_attribute(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.push((key.into(), value.into()));
        self
    }

    /// Look up a pipe by name.
    pub fn pipe(&self, name: &str) -> Option<&PipeAdvertisement> {
        self.pipes.iter().find(|p| p.name == name)
    }

    /// The definition pipe, if the publisher exposed one.
    pub fn definition_pipe(&self) -> Option<&PipeAdvertisement> {
        self.pipe(DEFINITION_PIPE)
    }

    /// Value of a named attribute.
    pub fn attribute(&self, key: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The service's `p2ps://` address.
    pub fn uri(&self) -> P2psUri {
        P2psUri::new(self.peer).with_service(self.name.clone())
    }

    pub fn to_element(&self) -> Element {
        let mut e = Element::new(P2PS_NS, "ServiceAdvertisement");
        e.push_element(
            Element::build(P2PS_NS, "Name")
                .text(self.name.clone())
                .finish(),
        );
        e.push_element(
            Element::build(P2PS_NS, "Peer")
                .text(self.peer.to_hex())
                .finish(),
        );
        for pipe in &self.pipes {
            e.push_element(pipe.to_element());
        }
        if !self.attributes.is_empty() {
            let mut attrs = Element::new(P2PS_NS, "Attributes");
            for (k, v) in &self.attributes {
                attrs.push_element(
                    Element::build(P2PS_NS, "Attribute")
                        .attr_str("name", k.clone())
                        .text(v.clone())
                        .finish(),
                );
            }
            e.push_element(attrs);
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::P2psMessage;

    fn peer() -> PeerId {
        PeerId(0xfeed_beef_cafe_0001)
    }

    fn sample() -> ServiceAdvertisement {
        ServiceAdvertisement::new("Echo", peer())
            .with_pipe("echoString")
            .with_definition_pipe()
            .with_attribute("domain", "testing")
            .with_attribute("version", "1.0")
    }

    /// `message` written and read back.
    fn over_the_wire(message: P2psMessage) -> Option<P2psMessage> {
        P2psMessage::from_xml(&message.to_xml())
    }

    #[test]
    fn service_advert_round_trip() {
        let advert = P2psMessage::Advertise {
            advert: sample(),
            ttl: 1,
        };
        assert_eq!(over_the_wire(advert.clone()), Some(advert));
    }

    #[test]
    fn pipe_advert_round_trip() {
        let data = P2psMessage::PipeData {
            to: PipeAdvertisement::new(peer(), None, "return-7"),
            payload: String::new(),
        };
        assert_eq!(over_the_wire(data.clone()), Some(data));
    }

    #[test]
    fn pipes_inherit_service_and_peer() {
        let advert = sample();
        let echo = advert.pipe("echoString").unwrap();
        assert_eq!(echo.peer, peer());
        assert_eq!(echo.service.as_deref(), Some("Echo"));
        assert_eq!(
            echo.uri().to_string(),
            format!("p2ps://{}/Echo#echoString", peer().to_hex())
        );
        for pipe in [echo, &PipeAdvertisement::new(peer(), None, "return-7")] {
            assert_eq!(pipe.address(), pipe.uri().address());
            assert_eq!(pipe.action(), pipe.uri().action());
        }
    }

    #[test]
    fn definition_pipe_present() {
        let advert = sample();
        assert_eq!(advert.definition_pipe().unwrap().name, DEFINITION_PIPE);
        let bare = ServiceAdvertisement::new("NoDef", peer());
        assert!(bare.definition_pipe().is_none());
    }

    #[test]
    fn attributes_lookup() {
        let advert = sample();
        assert_eq!(advert.attribute("domain"), Some("testing"));
        assert_eq!(advert.attribute("missing"), None);
    }

    #[test]
    fn an_advert_without_its_name_or_peer_is_refused() {
        let wire = P2psMessage::Advertise {
            advert: sample(),
            ttl: 1,
        }
        .to_xml();
        let name = "<ns0:Name>Echo</ns0:Name>";
        let peer = format!("<ns0:Peer>{}</ns0:Peer>", peer().to_hex());
        for part in [name, &peer] {
            assert!(wire.contains(part), "{wire}");
            assert_eq!(P2psMessage::from_xml(&wire.replacen(part, "", 1)), None);
        }
    }

    #[test]
    fn service_uri() {
        assert_eq!(
            sample().uri().address(),
            format!("p2ps://{}/Echo", peer().to_hex())
        );
    }
}
