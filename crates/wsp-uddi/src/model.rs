//! UDDI data model: business entities, services, binding templates and
//! tModels, with XML (de)serialisation.
//!
//! Modelled on the UDDI v2 structures the paper's standard
//! implementation publishes to and searches: a service belongs to a
//! business, carries category references, and exposes binding templates
//! whose access points are endpoint URIs. A tModel with an overview URL
//! is the conventional way to point at the WSDL document.

use wsp_xml::{Element, QName};

/// Namespace of our UDDI messages and structures.
pub const UDDI_NS: &str = "urn:uddi-org:api_v2";

/// A keyed reference: categorisation metadata on services.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KeyedReference {
    pub tmodel_key: String,
    pub key_name: String,
    pub key_value: String,
}

impl KeyedReference {
    pub fn new(
        tmodel_key: impl Into<String>,
        key_name: impl Into<String>,
        key_value: impl Into<String>,
    ) -> Self {
        KeyedReference {
            tmodel_key: tmodel_key.into(),
            key_name: key_name.into(),
            key_value: key_value.into(),
        }
    }

    pub fn to_element(&self) -> Element {
        Element::build(UDDI_NS, "keyedReference")
            .attr_str("tModelKey", self.tmodel_key.clone())
            .attr_str("keyName", self.key_name.clone())
            .attr_str("keyValue", self.key_value.clone())
            .finish()
    }
}

/// A concrete endpoint of a service.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BindingTemplate {
    pub key: String,
    /// The endpoint URI a client connects to.
    pub access_point: String,
    /// tModel keys describing the binding (e.g. the WSDL tModel).
    pub tmodel_keys: Vec<String>,
}

impl BindingTemplate {
    pub fn new(key: impl Into<String>, access_point: impl Into<String>) -> Self {
        BindingTemplate {
            key: key.into(),
            access_point: access_point.into(),
            tmodel_keys: Vec::new(),
        }
    }

    pub fn with_tmodel(mut self, key: impl Into<String>) -> Self {
        self.tmodel_keys.push(key.into());
        self
    }

    pub fn to_element(&self) -> Element {
        let mut e = Element::new(UDDI_NS, "bindingTemplate");
        e.set_attribute(QName::local("bindingKey"), self.key.clone());
        e.push_element(
            Element::build(UDDI_NS, "accessPoint")
                .attr_str("URLType", url_type(&self.access_point))
                .text(self.access_point.clone())
                .finish(),
        );
        if !self.tmodel_keys.is_empty() {
            let mut infos = Element::new(UDDI_NS, "tModelInstanceDetails");
            for key in &self.tmodel_keys {
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
}

pub(crate) fn url_type(uri: &str) -> &'static str {
    if uri.starts_with("https") || uri.starts_with("httpg") {
        "other"
    } else if uri.starts_with("http") {
        "http"
    } else {
        "other"
    }
}

/// A published service.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BusinessService {
    pub key: String,
    pub business_key: String,
    pub name: String,
    pub description: Option<String>,
    pub categories: Vec<KeyedReference>,
    pub bindings: Vec<BindingTemplate>,
    /// Soft-state lease: how long this registration stays live without a
    /// refresh, in milliseconds. `None` means a classic permanent UDDI
    /// registration (and keeps the wire bytes of pre-lease documents
    /// unchanged — the attribute is only emitted when present).
    pub lease_ttl_ms: Option<u64>,
}

impl BusinessService {
    pub fn new(
        key: impl Into<String>,
        business_key: impl Into<String>,
        name: impl Into<String>,
    ) -> Self {
        BusinessService {
            key: key.into(),
            business_key: business_key.into(),
            name: name.into(),
            description: None,
            categories: Vec::new(),
            bindings: Vec::new(),
            lease_ttl_ms: None,
        }
    }

    pub fn with_description(mut self, d: impl Into<String>) -> Self {
        self.description = Some(d.into());
        self
    }

    pub fn with_lease_ttl_ms(mut self, ttl_ms: u64) -> Self {
        self.lease_ttl_ms = Some(ttl_ms);
        self
    }

    pub fn with_category(mut self, c: KeyedReference) -> Self {
        self.categories.push(c);
        self
    }

    pub fn with_binding(mut self, b: BindingTemplate) -> Self {
        self.bindings.push(b);
        self
    }

    pub fn to_element(&self) -> Element {
        let mut e = Element::new(UDDI_NS, "businessService");
        e.set_attribute(QName::local("serviceKey"), self.key.clone());
        e.set_attribute(QName::local("businessKey"), self.business_key.clone());
        if let Some(ttl) = self.lease_ttl_ms {
            e.set_attribute(QName::local("leaseTtlMs"), ttl.to_string());
        }
        e.push_element(
            Element::build(UDDI_NS, "name")
                .text(self.name.clone())
                .finish(),
        );
        if let Some(d) = &self.description {
            e.push_element(
                Element::build(UDDI_NS, "description")
                    .text(d.clone())
                    .finish(),
            );
        }
        if !self.bindings.is_empty() {
            let mut bts = Element::new(UDDI_NS, "bindingTemplates");
            for b in &self.bindings {
                bts.push_element(b.to_element());
            }
            e.push_element(bts);
        }
        if !self.categories.is_empty() {
            let mut bag = Element::new(UDDI_NS, "categoryBag");
            for c in &self.categories {
                bag.push_element(c.to_element());
            }
            e.push_element(bag);
        }
        e
    }
}

/// A publishing organisation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusinessEntity {
    pub key: String,
    pub name: String,
    pub description: Option<String>,
}

impl BusinessEntity {
    pub fn new(key: impl Into<String>, name: impl Into<String>) -> Self {
        BusinessEntity {
            key: key.into(),
            name: name.into(),
            description: None,
        }
    }

    pub fn to_element(&self) -> Element {
        let mut e = Element::new(UDDI_NS, "businessEntity");
        e.set_attribute(QName::local("businessKey"), self.key.clone());
        e.push_element(
            Element::build(UDDI_NS, "name")
                .text(self.name.clone())
                .finish(),
        );
        if let Some(d) = &self.description {
            e.push_element(
                Element::build(UDDI_NS, "description")
                    .text(d.clone())
                    .finish(),
            );
        }
        e
    }
}

/// A technical model — in WSPeer's usage, the pointer to a WSDL document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TModel {
    pub key: String,
    pub name: String,
    /// Conventionally the URL (or inline token) of the WSDL overview doc.
    pub overview_url: Option<String>,
}

impl TModel {
    pub fn new(key: impl Into<String>, name: impl Into<String>) -> Self {
        TModel {
            key: key.into(),
            name: name.into(),
            overview_url: None,
        }
    }

    pub fn with_overview(mut self, url: impl Into<String>) -> Self {
        self.overview_url = Some(url.into());
        self
    }

    pub fn to_element(&self) -> Element {
        let mut e = Element::new(UDDI_NS, "tModel");
        e.set_attribute(QName::local("tModelKey"), self.key.clone());
        e.push_element(
            Element::build(UDDI_NS, "name")
                .text(self.name.clone())
                .finish(),
        );
        if let Some(url) = &self.overview_url {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{read_response, write_response, UddiResponse};

    fn sample_service() -> BusinessService {
        BusinessService::new("svc-1", "biz-1", "Echo")
            .with_description("echo service")
            .with_category(KeyedReference::new("uddi:categories", "type", "wspeer"))
            .with_binding(
                BindingTemplate::new("bind-1", "http://h:8080/Echo").with_tmodel("tm-wsdl-1"),
            )
    }

    /// `answer` written and read back, as a client reads a registry's.
    fn read_back(answer: &UddiResponse) -> (String, UddiResponse) {
        let mut xml = Vec::new();
        write_response(answer, &mut xml);
        let xml = String::from_utf8(xml).unwrap();
        let read = read_response(&xml).unwrap();
        (xml, read)
    }

    fn services(services: &[BusinessService]) -> UddiResponse {
        UddiResponse::ServiceDetail(services.to_vec())
    }

    #[test]
    fn service_round_trip() {
        let detail = services(&[sample_service()]);
        assert_eq!(read_back(&detail).1, detail);
    }

    #[test]
    fn minimal_service_round_trip() {
        let detail = services(&[BusinessService::new("s", "b", "Name only")]);
        assert_eq!(read_back(&detail).1, detail);
    }

    #[test]
    fn lease_ttl_round_trips_and_stays_off_the_wire_when_absent() {
        let leased = services(&[sample_service().with_lease_ttl_ms(30_000)]);
        assert_eq!(read_back(&leased).1, leased);
        // Permanent registrations serialize exactly as before the lease
        // field existed — no attribute, identical bytes.
        let (xml, _) = read_back(&services(&[sample_service()]));
        assert!(!xml.contains("leaseTtlMs"));
        assert!(!sample_service()
            .to_element()
            .to_xml()
            .contains("leaseTtlMs"));
    }

    #[test]
    fn entity_round_trip() {
        let mut biz = BusinessEntity::new("biz-1", "Cardiff");
        biz.description = Some("School of Computer Science".into());
        let detail = UddiResponse::BusinessDetail(vec![biz]);
        assert_eq!(read_back(&detail).1, detail);
    }

    #[test]
    fn tmodel_round_trip() {
        let tm = TModel::new("tm-1", "Echo WSDL").with_overview("http://h/Echo?wsdl");
        let bare = TModel::new("tm-2", "no url");
        let detail = UddiResponse::TModelDetail(vec![tm, bare]);
        assert_eq!(read_back(&detail).1, detail);
    }

    #[test]
    fn binding_url_types() {
        let http = BindingTemplate::new("b", "http://h/x").to_element();
        assert_eq!(
            http.find(UDDI_NS, "accessPoint")
                .unwrap()
                .attribute_local("URLType"),
            Some("http")
        );
        let p2ps = BindingTemplate::new("b", "p2ps://peer/Svc").to_element();
        assert_eq!(
            p2ps.find(UDDI_NS, "accessPoint")
                .unwrap()
                .attribute_local("URLType"),
            Some("other")
        );
    }

    /// A record without its key or its name is refused — the tree
    /// decoder skipped it, and the answer lost a record unannounced.
    #[test]
    fn a_record_missing_its_key_or_name_is_refused() {
        let record = BusinessService::new("k", "b", "n").to_element();
        let mut no_key = record.clone();
        (no_key.attributes_mut()).retain(|a| a.name.local_name() != "serviceKey");
        let mut no_name = record;
        no_name.children_mut().clear();
        for (odd, missing) in [(no_key, "serviceKey"), (no_name, "name")] {
            let detail = Element::build(UDDI_NS, "serviceDetail").child(odd).finish();
            let xml = wsp_soap::Envelope::request(detail).to_xml();
            assert_eq!(read_response(&xml), Err(format!("Missing: {missing}")));
        }
    }
}
