//! The advert ⇄ WS-Addressing mapping (Section IV.B, the numbered
//! rules): how a P2PS pipe becomes a standards-compliant
//! `EndpointReference`, and how `ReplyTo` headers overcome pipe
//! unidirectionality.

use crate::advert::{PipeAdvertisement, P2PS_NS};
use crate::uri::P2psUri;
use wsp_soap::{EndpointReference, Envelope, MessageHeaders};
use wsp_xml::Element;

/// Serialise a pipe advertisement to an `EndpointReference` per the
/// paper's rules:
///
/// 1. `Address` = peer id (+ service name when the pipe belongs to a
///    service) as a `p2ps://` URI;
/// 2. `ReferenceProperties` carry the remaining advert fields — here the
///    pipe name.
pub fn advert_to_epr(advert: &PipeAdvertisement) -> EndpointReference {
    let address = advert.uri().address();
    EndpointReference::new(address).with_property(
        Element::build(P2PS_NS, "PipeName")
            .text(advert.name.clone())
            .finish(),
    )
}

/// Recover a pipe advertisement from an `EndpointReference` built by
/// [`advert_to_epr`] (or by any conforming peer).
pub fn epr_to_advert(epr: &EndpointReference) -> Option<PipeAdvertisement> {
    let uri = P2psUri::parse(&epr.address).ok()?;
    let pipe_name = epr
        .reference_properties
        .iter()
        .find(|p| p.name().is(P2PS_NS, "PipeName"))
        .map(Element::text)
        .or(uri.pipe.clone())?;
    Some(PipeAdvertisement {
        peer: uri.peer,
        service: uri.service,
        name: pipe_name,
    })
}

/// Build the WS-Addressing headers for a SOAP invocation *of* the pipe
/// `target` (rule 3: `To` = the Address URI, `Action` = Address plus the
/// pipe-name fragment, reference properties copied into the header).
pub fn request_headers(target: &PipeAdvertisement) -> MessageHeaders {
    let epr = advert_to_epr(target);
    MessageHeaders::to_endpoint(&epr, target.uri().action())
}

/// Attach a return pipe to a request (rule 4: the header "can contain a
/// ReplyTo field which defines the endpoint (pipe advertisement) to send
/// a response to").
pub fn with_reply_pipe(headers: MessageHeaders, reply_pipe: &PipeAdvertisement) -> MessageHeaders {
    headers.with_reply_to(advert_to_epr(reply_pipe))
}

/// Provider side of Figures 5/6: extract the consumer's return pipe from
/// a request envelope's `ReplyTo` header.
pub fn reply_pipe_of(request: &Envelope) -> Option<PipeAdvertisement> {
    reply_pipe_in(&request.addressing()?)
}

/// [`reply_pipe_of`] over headers the caller has already extracted.
pub(crate) fn reply_pipe_in(headers: &MessageHeaders) -> Option<PipeAdvertisement> {
    epr_to_advert(headers.reply_to.as_ref()?)
}

/// Provider side: which local pipe is the request addressed to? Reads
/// the `To`/`Action` headers plus the copied `PipeName` reference
/// property.
pub fn target_pipe_of(request: &Envelope) -> Option<PipeAdvertisement> {
    let headers = request.addressing()?;
    let uri = P2psUri::parse(headers.to.as_deref()?).ok()?;
    // The pipe name arrives either as a copied ReferenceProperty header
    // or as the fragment of the Action URI.
    let from_property = request
        .find_header(P2PS_NS, "PipeName")
        .map(|h| h.element.text());
    let from_action = headers
        .action
        .as_deref()
        .and_then(|a| P2psUri::parse(a).ok())
        .and_then(|u| u.pipe);
    let name = from_property.or(from_action)?;
    Some(PipeAdvertisement {
        peer: uri.peer,
        service: uri.service,
        name,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::PeerId;
    use wsp_soap::Envelope;

    fn service_pipe() -> PipeAdvertisement {
        PipeAdvertisement::new(PeerId(0x1234), Some("Echo".into()), "echoString")
    }

    fn return_pipe() -> PipeAdvertisement {
        PipeAdvertisement::new(PeerId(0x5678), None, "return-42")
    }

    #[test]
    fn advert_epr_round_trip() {
        for advert in [service_pipe(), return_pipe()] {
            let epr = advert_to_epr(&advert);
            assert_eq!(epr_to_advert(&epr).unwrap(), advert, "{advert:?}");
        }
    }

    #[test]
    fn epr_address_follows_rule_1() {
        let with_service = advert_to_epr(&service_pipe());
        assert_eq!(with_service.address, "p2ps://0000000000001234/Echo");
        // "If there is no service associated with the pipe … the Address
        // field is just the scheme and the host component."
        let bare = advert_to_epr(&return_pipe());
        assert_eq!(bare.address, "p2ps://0000000000005678");
    }

    #[test]
    fn request_headers_follow_rule_3() {
        let headers = request_headers(&service_pipe());
        assert_eq!(headers.to.as_deref(), Some("p2ps://0000000000001234/Echo"));
        assert_eq!(
            headers.action.as_deref(),
            Some("p2ps://0000000000001234/Echo#echoString")
        );
        // Reference properties copied into the header set.
        assert_eq!(headers.destination_properties.len(), 1);
    }

    #[test]
    fn figures_5_and_6_flow() {
        // Consumer: build request with return pipe in ReplyTo.
        let payload = Element::build("urn:demo", "echoString").text("hi").finish();
        let mut request = Envelope::request(payload);
        let headers = with_reply_pipe(request_headers(&service_pipe()), &return_pipe());
        request.set_addressing(headers);

        // Over the wire…
        let wire = request.to_xml();
        let received = Envelope::from_xml(&wire).unwrap();

        // Provider: resolve target pipe and return pipe.
        let target = target_pipe_of(&received).unwrap();
        assert_eq!(target, service_pipe());
        let reply = reply_pipe_of(&received).unwrap();
        assert_eq!(reply, return_pipe());
    }

    #[test]
    fn target_pipe_falls_back_to_action_fragment() {
        // A minimal conforming peer that only sets To and Action.
        let mut request = Envelope::request(Element::new("urn:demo", "op"));
        request.set_addressing(MessageHeaders::request(
            "p2ps://0000000000001234/Echo",
            "p2ps://0000000000001234/Echo#echoString",
        ));
        let target = target_pipe_of(&request).unwrap();
        assert_eq!(target, service_pipe());
    }

    #[test]
    fn missing_reply_pipe_is_none() {
        let mut request = Envelope::request(Element::new("urn:demo", "op"));
        request.set_addressing(request_headers(&service_pipe()));
        assert!(reply_pipe_of(&request).is_none());
    }

    #[test]
    fn non_p2ps_addresses_rejected() {
        let epr = EndpointReference::new("http://host/Echo");
        assert!(epr_to_advert(&epr).is_none());
    }
}
