//! E6 — SOAP and WS-Addressing processing costs.
//!
//! Microbenchmark workloads for the messaging layer: envelope encode
//! and decode across payload scales, the per-message cost of the
//! WS-Addressing headers, and the advert ⇄ EndpointReference mapping of
//! Section IV.B. These quantify the overhead WSPeer pays for speaking
//! standards on every hop.

use wsp_p2ps::{advert_to_epr, epr_to_advert, PeerId, PipeAdvertisement};
use wsp_soap::{EndpointReference, Envelope, MessageHeaders, SoapCodec};
use wsp_wsdl::value::value_element;
use wsp_wsdl::Value;
use wsp_xml::Element;

/// A payload of roughly `scale` items.
pub fn payload(scale: usize) -> Element {
    let value = Value::Array(
        (0..scale)
            .map(|i| {
                Value::Struct(vec![
                    ("step".into(), Value::Int(i as i64)),
                    ("label".into(), Value::string(format!("t={i}"))),
                    ("magnitude".into(), Value::Double(i as f64 * 0.25)),
                ])
            })
            .collect(),
    );
    value_element("urn:bench", "frames", &value)
}

/// Request envelope with WS-Addressing headers and a payload of
/// `scale`.
pub fn addressed_envelope(scale: usize) -> Envelope {
    let mut env = Envelope::request(payload(scale));
    env.set_addressing(
        MessageHeaders::request(
            "p2ps://00000000000000aa/Feed",
            "p2ps://00000000000000aa/Feed#next",
        )
        .with_reply_to(EndpointReference::new("p2ps://00000000000000bb")),
    );
    env
}

/// Encode/decode round trip; returns wire size (the benches time it).
pub fn round_trip(codec: &mut SoapCodec, envelope: &Envelope) -> usize {
    let wire = codec.encode(envelope);
    let decoded = Envelope::from_xml(&wire).expect("round trip");
    assert!(decoded.payload().is_some());
    wire.len()
}

/// The advert ⇄ EPR mapping, both directions.
pub fn advert_epr_round_trip() -> PipeAdvertisement {
    let advert = PipeAdvertisement::new(PeerId(0xfeed), Some("Feed".into()), "next");
    let epr = advert_to_epr(&advert);
    epr_to_advert(&epr).expect("mapping round trip")
}

/// Wire sizes across scales — the table EXPERIMENTS.md reports.
#[derive(Debug, Clone)]
pub struct E6Row {
    pub items: usize,
    pub wire_bytes: usize,
    pub plain_wire_bytes: usize,
    pub addressing_overhead_bytes: usize,
}

pub fn rows() -> Vec<E6Row> {
    let mut codec = SoapCodec::new();
    [0usize, 1, 10, 100, 1000]
        .into_iter()
        .map(|items| {
            let addressed = codec.encode(&addressed_envelope(items));
            let plain = codec.encode(&Envelope::request(payload(items)));
            E6Row {
                items,
                wire_bytes: addressed.len(),
                plain_wire_bytes: plain.len(),
                addressing_overhead_bytes: addressed.len() - plain.len(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_is_lossless_at_scale() {
        let mut codec = SoapCodec::new();
        for scale in [0, 1, 50] {
            let env = addressed_envelope(scale);
            let wire = codec.encode(&env);
            let back = Envelope::from_xml(&wire).unwrap();
            assert_eq!(back, env, "scale {scale}");
        }
    }

    #[test]
    fn addressing_overhead_is_constant() {
        let rows = rows();
        let overheads: Vec<usize> = rows.iter().map(|r| r.addressing_overhead_bytes).collect();
        // Fixed headers: the overhead varies only by message-id length.
        let min = overheads.iter().min().unwrap();
        let max = overheads.iter().max().unwrap();
        assert!(max - min < 32, "{overheads:?}");
        assert!(
            *min > 200,
            "addressing headers are nontrivial: {overheads:?}"
        );
    }

    #[test]
    fn wire_size_scales_linearly() {
        let rows = rows();
        let per_item = (rows[4].wire_bytes - rows[2].wire_bytes) as f64 / 990.0;
        assert!(per_item > 40.0 && per_item < 200.0, "{per_item} bytes/item");
    }

    #[test]
    fn advert_mapping_round_trips() {
        let advert = advert_epr_round_trip();
        assert_eq!(advert.name, "next");
    }
}
