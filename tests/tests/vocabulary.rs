//! The interner's seeded vocabulary is what this workspace writes.
//!
//! One test in a binary of its own, so nothing else interns beside it:
//! one representative document per family — an addressed echo request
//! with a P2PS `ReplyTo`, `save_service` with its tModel and its
//! response, a `find_serviceDetail` exchange, a P2PS advertisement and
//! a `PipeData` frame, the shard map, a generated WSDL — is parsed, and
//! the process-wide name table may grow by the service's own namespace
//! and operation names and by nothing else. A name missing from
//! `SEEDED_VOCABULARY` is a reference-counted entry on every message
//! that carries it and one of 4 096 slots hostile peers compete for.

use std::borrow::Cow;
use std::collections::BTreeSet;
use wsp_p2ps::{advert_to_epr, P2psMessage, PeerId, PipeAdvertisement, ServiceAdvertisement};
use wsp_registry::{ClusterConfig, RegistryCluster};
use wsp_soap::{Envelope, MessageHeaders};
use wsp_uddi::wire::{write_request, write_response};
use wsp_uddi::{
    BindingTemplate, BusinessService, KeyedReference, Registry, ServiceQuery, TModel, UddiApi,
    UddiOp, UddiRequest,
};
use wsp_wsdl::value::value_element;
use wsp_wsdl::{Port, ServiceDescriptor, ServiceProxy, TransportKind, Value, WsdlDocument};
use wsp_xml::{Element, NameTable, Node};

/// What the echo service itself brings: its namespace, its operation
/// (and the response wrapper named after it) and its parameter.
const SERVICE_NAMES: [&str; 4] = [
    "urn:wspeer:echo",
    "echoString",
    "echoStringResponse",
    "text",
];

fn documents() -> Vec<(&'static str, String)> {
    let mut documents = Vec::new();

    let pipe = PipeAdvertisement::new(PeerId(0xBE01), Some("Echo".into()), "echoString");
    let proxy = ServiceProxy::new(ServiceDescriptor::echo(), "p2ps://be01/Echo");
    let mut request = proxy
        .encode_request("echoString", &[Value::string("hello")])
        .expect("encode echo request");
    request.set_addressing(
        MessageHeaders::to_endpoint(advert_to_epr(&pipe), "urn:wspeer:echo#echoString")
            .with_reply_to(advert_to_epr(&pipe))
            .with_from(advert_to_epr(&pipe)),
    );
    documents.push(("echo request", request.to_xml()));
    // Built, not served: serving reads the request, which would intern
    // the service's names before they are counted.
    let ns = "urn:wspeer:echo";
    let result = value_element(ns, "return", &Value::string("hello"));
    let mut response = Envelope::request(
        Element::build(ns, "echoStringResponse")
            .child(result)
            .finish(),
    );
    let asked = request.addressing().expect("addressed");
    response.set_addressing(MessageHeaders::response_to(
        asked,
        format!("{ns}#echoStringResponse"),
    ));
    documents.push(("echo response", response.to_xml()));
    documents.push((
        "fault",
        Envelope::fault(wsp_soap::Fault::sender("no such operation")).to_xml(),
    ));

    let api = UddiApi::new(Registry::new());
    let tmodel = TModel::new("uddi:wspeer:tm:echo", "Echo").with_overview("http://h/Echo?wsdl");
    let record = BusinessService::new("", "uddi:wspeer:biz", "Echo")
        .with_description("echoes")
        .with_lease_ttl_ms(30_000)
        .with_category(KeyedReference::new("uddi:wspeer:cat", "domain", "demo"))
        .with_binding(BindingTemplate::new("", "http://h/Echo").with_tmodel("uddi:wspeer:tm:echo"));
    let (tmodels, services) = ([tmodel], [record]);
    let save = UddiOp::SaveService {
        tmodels: Cow::Borrowed(&tmodels),
        services: Cow::Borrowed(&services),
    };
    let find = ServiceQuery::by_name("Echo")
        .with_category(KeyedReference::new("uddi:wspeer:cat", "domain", "demo"))
        .with_max_rows(5);
    let find = UddiOp::FindServiceDetail(Cow::Borrowed(&find));
    for (label, op) in [("save_service", save), ("find_serviceDetail", find)] {
        let request = UddiRequest::new(op);
        let (mut asked, mut answered) = (Vec::new(), Vec::new());
        write_request(&request, &mut asked);
        write_response(&api.process(&request), &mut answered);
        for bytes in [asked, answered] {
            documents.push((label, String::from_utf8(bytes).expect("UTF-8")));
        }
    }

    let advert = ServiceAdvertisement::new("Echo", PeerId(0xBE01))
        .with_pipe("echoString")
        .with_definition_pipe()
        .with_attribute("domain", "demo");
    documents.push((
        "p2ps advert",
        P2psMessage::Advertise { advert, ttl: 3 }.to_xml(),
    ));
    let frame = P2psMessage::PipeData {
        to: pipe,
        payload: "<x/>".into(),
    };
    documents.push(("PipeData", frame.to_xml()));

    let plane = RegistryCluster::new(ClusterConfig {
        nodes: 3,
        shard_count: 2,
        replication: 3,
        default_ttl: None,
    });
    documents.push(("shard map", plane.shard_map().to_element().to_xml()));

    let wsdl = WsdlDocument::new(
        ServiceDescriptor::echo(),
        vec![
            Port {
                name: "EchoPort".into(),
                transport: TransportKind::Http,
                location: "http://h/Echo".into(),
            },
            Port {
                name: "EchoP2psPort".into(),
                transport: TransportKind::P2ps,
                location: "p2ps://be01/Echo".into(),
            },
        ],
    );
    documents.push(("wsdl", wsdl.to_xml()));
    documents
}

/// Every namespace URI and local name in the tree under `e`.
fn names_of<'a>(e: &'a Element, into: &mut BTreeSet<&'a str>) {
    let attributes = e.attributes().iter().map(|a| &a.name);
    for name in attributes.chain([e.name()]) {
        into.extend([name.namespace(), name.local_name()]);
    }
    for child in e.children() {
        if let Node::Element(child) = child {
            names_of(child, into);
        }
    }
}

#[test]
fn documents_of_every_family_intern_only_the_services_own_names() {
    let documents = documents();
    let before = NameTable::global().dynamic_len();
    let trees: Vec<Element> = documents
        .iter()
        .map(|(label, xml)| wsp_xml::parse(xml).unwrap_or_else(|e| panic!("{label}: {e}")))
        .collect();
    let grown = NameTable::global().dynamic_len() - before;

    // A private table is seeded like the global one and counts exactly:
    // a name that makes it grow is a name the vocabulary lacks.
    let mut names = BTreeSet::new();
    trees.iter().for_each(|tree| names_of(tree, &mut names));
    let unseeded: BTreeSet<&str> = names
        .into_iter()
        .filter(|name| {
            let table = NameTable::new();
            table.qname("", name);
            table.dynamic_len() > 0
        })
        .collect();
    assert_eq!(
        unseeded,
        BTreeSet::from(SERVICE_NAMES),
        "names these documents carry that are not seeded"
    );
    assert_eq!(grown, SERVICE_NAMES.len(), "growth of the global table");
}
