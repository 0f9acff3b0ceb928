//! UDDI data model: business entities, services, binding templates and
//! tModels. [`crate::wire`] writes and reads them.
//!
//! Modelled on the UDDI v2 structures the paper's standard
//! implementation publishes to and searches: a service belongs to a
//! business, carries category references, and exposes binding templates
//! whose access points are endpoint URIs. A tModel with an overview URL
//! is the conventional way to point at the WSDL document.

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
        for (access_point, url_type) in [("http://h/x", "http"), ("p2ps://peer/Svc", "other")] {
            let record = BusinessService::new("s", "b", "n")
                .with_binding(BindingTemplate::new("b", access_point));
            let (xml, _) = read_back(&services(&[record]));
            let envelope = wsp_soap::Envelope::from_xml(&xml).unwrap();
            let written = (envelope.payload())
                .and_then(|detail| detail.find(UDDI_NS, "businessService"))
                .and_then(|record| record.find(UDDI_NS, "bindingTemplates"))
                .and_then(|bindings| bindings.find(UDDI_NS, "bindingTemplate"))
                .and_then(|binding| binding.find(UDDI_NS, "accessPoint"));
            assert_eq!(written.unwrap().attribute_local("URLType"), Some(url_type));
        }
    }

    /// A record without its key or its name is refused — the tree
    /// decoder skipped it, and the answer lost a record unannounced.
    #[test]
    fn a_record_missing_its_key_or_name_is_refused() {
        let (xml, _) = read_back(&services(&[BusinessService::new("k", "b", "n")]));
        let no_key = xml.replacen(r#" serviceKey="k""#, "", 1);
        let mut no_name = xml.clone();
        let text = xml.find(">n</").unwrap();
        let open = xml[..text].rfind('<').unwrap();
        let close = text + xml[text..].find("name>").unwrap() + "name>".len();
        no_name.replace_range(open..close, "");
        for (odd, missing) in [(no_key, "serviceKey"), (no_name, "name")] {
            assert_ne!(odd, xml);
            assert_eq!(read_response(&odd), Err(format!("Missing: {missing}")));
        }
    }
}
