//! Property tests for the P2PS wire formats: every protocol message,
//! advert and URI the API can build survives serialisation, and the
//! advert ⇄ EPR mapping is lossless.

use proptest::prelude::*;
use wsp_p2ps::{
    advert_to_epr, epr_to_advert, P2psMessage, P2psQuery, P2psUri, PeerId, PipeAdvertisement,
    ServiceAdvertisement,
};

fn peer_id() -> impl Strategy<Value = PeerId> {
    any::<u64>().prop_map(PeerId)
}

fn name() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9_-]{0,10}"
}

fn text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~]{0,24}")
        .unwrap()
        .prop_map(|s| s.replace('\r', " ").trim().to_owned())
        .prop_filter("advert text fields are trimmed tokens", |s| {
            !s.contains('\n')
        })
}

fn advert() -> impl Strategy<Value = ServiceAdvertisement> {
    (
        name(),
        peer_id(),
        proptest::collection::vec(name(), 0..4),
        proptest::collection::vec((name(), text()), 0..3),
    )
        .prop_map(|(svc, peer, pipes, attrs)| {
            let mut a = ServiceAdvertisement::new(svc, peer);
            for (i, p) in pipes.into_iter().enumerate() {
                a = a.with_pipe(format!("{p}{i}"));
            }
            for (i, (k, v)) in attrs.into_iter().enumerate() {
                a = a.with_attribute(format!("{k}{i}"), v);
            }
            a
        })
}

fn pipe_advert() -> impl Strategy<Value = PipeAdvertisement> {
    (peer_id(), proptest::option::of(name()), name())
        .prop_map(|(peer, service, pipe)| PipeAdvertisement::new(peer, service, pipe))
}

fn query() -> impl Strategy<Value = P2psQuery> {
    (
        proptest::option::of(name()),
        proptest::collection::vec((name(), text()), 0..3),
    )
        .prop_map(|(pattern, attrs)| {
            let mut q = match pattern {
                Some(p) => P2psQuery::by_name(p),
                None => P2psQuery::any(),
            };
            for (i, (k, v)) in attrs.into_iter().enumerate() {
                q = q.with_attribute(format!("{k}{i}"), v);
            }
            q
        })
}

/// Hosts around the canonical peer id: the id itself, spellings
/// `u64::from_str_radix` would also read as an id, and near misses.
fn host() -> impl Strategy<Value = String> {
    let hex = any::<u64>().prop_map(|id| PeerId(id).to_hex());
    prop_oneof![
        hex.clone(),
        hex.clone().prop_map(|hex| hex.to_uppercase()),
        hex.prop_map(|hex| format!("+{}", &hex[1..])),
        "[0-9a-fA-F+]{15,17}",
    ]
}

/// `message` written and read back.
fn over_the_wire(message: &P2psMessage) -> P2psMessage {
    let xml = message.to_xml();
    P2psMessage::from_xml(&xml).unwrap_or_else(|| panic!("generated wire must parse: {xml}"))
}

/// `advert` sent in an `Advertise` and read back.
fn advert_over_the_wire(advert: &ServiceAdvertisement) -> ServiceAdvertisement {
    let sent = P2psMessage::Advertise {
        advert: advert.clone(),
        ttl: 1,
    };
    match over_the_wire(&sent) {
        P2psMessage::Advertise { advert, .. } => advert,
        other => panic!("{other:?}"),
    }
}

fn message() -> impl Strategy<Value = P2psMessage> {
    prop_oneof![
        (advert(), any::<u8>()).prop_map(|(advert, ttl)| P2psMessage::Advertise { advert, ttl }),
        (any::<u64>(), peer_id(), query(), any::<u8>()).prop_map(|(id, origin, query, ttl)| {
            P2psMessage::Query {
                id,
                origin,
                query,
                ttl,
            }
        }),
        (
            any::<u64>(),
            peer_id(),
            proptest::collection::vec(advert(), 0..3)
        )
            .prop_map(|(id, origin, adverts)| P2psMessage::QueryHit {
                id,
                origin,
                adverts
            }),
        (pipe_advert(), "[ -~]{0,64}")
            .prop_map(|(to, payload)| P2psMessage::PipeData { to, payload }),
        any::<u64>().prop_map(|nonce| P2psMessage::Ping { nonce }),
        any::<u64>().prop_map(|nonce| P2psMessage::Pong { nonce }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn messages_round_trip(msg in message()) {
        prop_assert_eq!(over_the_wire(&msg), msg);
    }

    #[test]
    fn adverts_round_trip(a in advert()) {
        prop_assert_eq!(advert_over_the_wire(&a), a);
    }

    #[test]
    fn advert_epr_mapping_is_lossless(p in pipe_advert()) {
        let epr = advert_to_epr(&p);
        let back = epr_to_advert(&epr).expect("mapping must invert");
        prop_assert_eq!(back, p);
    }

    #[test]
    fn uris_round_trip(peer in peer_id(),
                       service in proptest::option::of(name()),
                       pipe in proptest::option::of(name())) {
        let mut uri = P2psUri::new(peer);
        if let Some(s) = service { uri = uri.with_service(s); }
        if let Some(p) = pipe { uri = uri.with_pipe(p); }
        let text = uri.action();
        prop_assert_eq!(P2psUri::parse(&text).unwrap(), uri);
    }

    /// What the parser takes, the URI writes back as it was read — so
    /// a reply's `To` is the `ReplyTo` its request named. (An empty
    /// path or fragment reads as absent, and is not written.)
    #[test]
    fn every_uri_the_parser_takes_is_written_back_as_read(
        host in host(),
        service in proptest::option::of("[A-Za-z0-9/_-]{0,8}"),
        pipe in proptest::option::of("[A-Za-z0-9/#_-]{0,8}"),
    ) {
        let parts = [('/', service), ('#', pipe)];
        let (mut text, mut canonical) = (format!("p2ps://{host}"), format!("p2ps://{host}"));
        for (mark, part) in &parts {
            let Some(part) = part else { continue };
            text.push(*mark);
            text.push_str(part);
            if !part.is_empty() {
                canonical.push(*mark);
                canonical.push_str(part);
            }
        }
        if let Ok(uri) = P2psUri::parse(&text) {
            prop_assert_eq!(uri.action(), canonical);
        }
    }

    #[test]
    fn parser_never_panics(junk in "[ -~<>/]{0,100}") {
        let _ = P2psMessage::from_xml(&junk);
        let _ = P2psUri::parse(&junk);
    }

    #[test]
    fn query_matching_is_consistent_across_the_wire(q in query(), a in advert()) {
        // Matching before and after serialising both sides agrees.
        let sent = P2psMessage::Query { id: 1, origin: a.peer, query: q.clone(), ttl: 1 };
        let P2psMessage::Query { query: q2, .. } = over_the_wire(&sent) else {
            panic!("a query reads back as a query");
        };
        prop_assert_eq!(q.matches(&a), q2.matches(&advert_over_the_wire(&a)));
    }
}
