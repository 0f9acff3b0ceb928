//! The tree writers of the P2PS and UDDI vocabularies, kept as byte
//! references. Production streams these documents (`P2psMessage::to_xml_into`,
//! `wsp_uddi::wire::write_request` / `write_response`); the functions
//! here build the same documents as [`Element`] trees, as the models'
//! `to_element` methods did before the streamed writers became the only
//! ones. The tests write these trees with the tree writer and hold the
//! streamed bytes to them on freshly generated values, and edit them to
//! make damaged and reshaped documents.

use wsp_p2ps::{P2psMessage, P2psQuery, PipeAdvertisement, ServiceAdvertisement, P2PS_NS};
use wsp_uddi::{
    BindingTemplate, BusinessEntity, BusinessService, KeyedReference, ServiceQuery, TModel,
    FIND_SERVICE, UDDI_NS,
};
use wsp_xml::{Element, QName};

// --- P2PS ----------------------------------------------------------------------

/// `message` as a tree.
pub fn message(message: &P2psMessage) -> Element {
    match message {
        P2psMessage::Advertise { advert, ttl } => Element::build(P2PS_NS, "Advertise")
            .attr_str("ttl", ttl.to_string())
            .child(service_advertisement(advert))
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
            .child(p2ps_query(query))
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
                e.push_element(service_advertisement(a));
            }
            e
        }
        P2psMessage::PipeData { to, payload } => Element::build(P2PS_NS, "PipeData")
            .child(pipe_advertisement(to))
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

pub fn pipe_advertisement(pipe: &PipeAdvertisement) -> Element {
    let mut e = Element::new(P2PS_NS, "PipeAdvertisement");
    e.push_element(
        Element::build(P2PS_NS, "Peer")
            .text(pipe.peer.to_hex())
            .finish(),
    );
    if let Some(s) = &pipe.service {
        e.push_element(Element::build(P2PS_NS, "Service").text(s.clone()).finish());
    }
    e.push_element(
        Element::build(P2PS_NS, "Name")
            .text(pipe.name.clone())
            .finish(),
    );
    e
}

pub fn service_advertisement(advert: &ServiceAdvertisement) -> Element {
    let mut e = Element::new(P2PS_NS, "ServiceAdvertisement");
    e.push_element(
        Element::build(P2PS_NS, "Name")
            .text(advert.name.clone())
            .finish(),
    );
    e.push_element(
        Element::build(P2PS_NS, "Peer")
            .text(advert.peer.to_hex())
            .finish(),
    );
    for pipe in &advert.pipes {
        e.push_element(pipe_advertisement(pipe));
    }
    if !advert.attributes.is_empty() {
        let mut attrs = Element::new(P2PS_NS, "Attributes");
        for (k, v) in &advert.attributes {
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

pub fn p2ps_query(query: &P2psQuery) -> Element {
    let mut e = Element::new(P2PS_NS, "Query");
    if let Some(p) = &query.name_pattern {
        e.push_element(Element::build(P2PS_NS, "Name").text(p.clone()).finish());
    }
    for (k, v) in &query.attributes {
        e.push_element(
            Element::build(P2PS_NS, "Attribute")
                .attr_str("name", k.clone())
                .text(v.clone())
                .finish(),
        );
    }
    e
}

// --- UDDI ----------------------------------------------------------------------

pub fn keyed_reference(reference: &KeyedReference) -> Element {
    Element::build(UDDI_NS, "keyedReference")
        .attr_str("tModelKey", reference.tmodel_key.clone())
        .attr_str("keyName", reference.key_name.clone())
        .attr_str("keyValue", reference.key_value.clone())
        .finish()
}

pub fn binding_template(binding: &BindingTemplate) -> Element {
    let mut e = Element::new(UDDI_NS, "bindingTemplate");
    e.set_attribute(QName::local("bindingKey"), binding.key.clone());
    e.push_element(
        Element::build(UDDI_NS, "accessPoint")
            .attr_str("URLType", url_type(&binding.access_point))
            .text(binding.access_point.clone())
            .finish(),
    );
    if !binding.tmodel_keys.is_empty() {
        let mut infos = Element::new(UDDI_NS, "tModelInstanceDetails");
        for key in &binding.tmodel_keys {
            infos.push_element(
                Element::build(UDDI_NS, "tModelInstanceInfo")
                    .attr_str("tModelKey", key.clone())
                    .finish(),
            );
        }
        e.push_element(infos);
    }
    e
}

fn url_type(uri: &str) -> &'static str {
    if uri.starts_with("https") || uri.starts_with("httpg") {
        "other"
    } else if uri.starts_with("http") {
        "http"
    } else {
        "other"
    }
}

pub fn business_service(service: &BusinessService) -> Element {
    let mut e = Element::new(UDDI_NS, "businessService");
    e.set_attribute(QName::local("serviceKey"), service.key.clone());
    e.set_attribute(QName::local("businessKey"), service.business_key.clone());
    if let Some(ttl) = service.lease_ttl_ms {
        e.set_attribute(QName::local("leaseTtlMs"), ttl.to_string());
    }
    e.push_element(
        Element::build(UDDI_NS, "name")
            .text(service.name.clone())
            .finish(),
    );
    if let Some(d) = &service.description {
        e.push_element(
            Element::build(UDDI_NS, "description")
                .text(d.clone())
                .finish(),
        );
    }
    if !service.bindings.is_empty() {
        let mut bts = Element::new(UDDI_NS, "bindingTemplates");
        for b in &service.bindings {
            bts.push_element(binding_template(b));
        }
        e.push_element(bts);
    }
    if !service.categories.is_empty() {
        let mut bag = Element::new(UDDI_NS, "categoryBag");
        for c in &service.categories {
            bag.push_element(keyed_reference(c));
        }
        e.push_element(bag);
    }
    e
}

pub fn business_entity(entity: &BusinessEntity) -> Element {
    let mut e = Element::new(UDDI_NS, "businessEntity");
    e.set_attribute(QName::local("businessKey"), entity.key.clone());
    e.push_element(
        Element::build(UDDI_NS, "name")
            .text(entity.name.clone())
            .finish(),
    );
    if let Some(d) = &entity.description {
        e.push_element(
            Element::build(UDDI_NS, "description")
                .text(d.clone())
                .finish(),
        );
    }
    e
}

pub fn tmodel(tmodel: &TModel) -> Element {
    let mut e = Element::new(UDDI_NS, "tModel");
    e.set_attribute(QName::local("tModelKey"), tmodel.key.clone());
    e.push_element(
        Element::build(UDDI_NS, "name")
            .text(tmodel.name.clone())
            .finish(),
    );
    if let Some(url) = &tmodel.overview_url {
        e.push_element(
            Element::build(UDDI_NS, "overviewDoc")
                .child(
                    Element::build(UDDI_NS, "overviewURL")
                        .text(url.clone())
                        .finish(),
                )
                .finish(),
        );
    }
    e
}

/// `query` as a `find_service` element.
pub fn service_query(query: &ServiceQuery) -> Element {
    query_request(query, FIND_SERVICE)
}

/// `query` as the request element of inquiry operation `op`
/// (`find_service` or `find_serviceDetail`: same children).
pub fn query_request(query: &ServiceQuery, op: &'static str) -> Element {
    let mut e = Element::new(UDDI_NS, op);
    if query.max_rows > 0 {
        e.set_attribute(wsp_xml::QName::local("maxRows"), query.max_rows.to_string());
    }
    if let Some(p) = &query.name_pattern {
        e.push_element(Element::build(UDDI_NS, "name").text(p.clone()).finish());
    }
    if !query.categories.is_empty() {
        let mut bag = Element::new(UDDI_NS, "categoryBag");
        for c in &query.categories {
            bag.push_element(keyed_reference(c));
        }
        e.push_element(bag);
    }
    e
}
