//! Registry client: the consumer side of the UDDI protocol, over a
//! pluggable SOAP transport.

use crate::api::ServiceInfo;
use crate::model::{BusinessService, TModel, UDDI_NS};
use crate::query::{ServiceQuery, FIND_SERVICE_DETAIL};
use crate::registry::Registry;
use std::fmt;
use std::sync::Arc;
use wsp_soap::{Body, Envelope, Fault};
use wsp_xml::Element;

/// A function that carries a SOAP request envelope to the registry and
/// returns the response envelope. Implementations exist for in-process
/// registries ([`direct_transport`]) and HTTP ([`http_transport`]);
/// wsp-core's simulation binding supplies its own.
pub type SoapTransport = Arc<dyn Fn(&Envelope) -> Result<Envelope, String> + Send + Sync>;

/// Errors from registry interactions.
#[derive(Debug, Clone, PartialEq)]
pub enum UddiError {
    Transport(String),
    Fault(Box<Fault>),
    Malformed(String),
}

impl fmt::Display for UddiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UddiError::Transport(e) => write!(f, "registry unreachable: {e}"),
            UddiError::Fault(fault) => write!(f, "registry fault: {fault}"),
            UddiError::Malformed(why) => write!(f, "malformed registry response: {why}"),
        }
    }
}

impl std::error::Error for UddiError {}

/// A UDDI registry client.
#[derive(Clone)]
pub struct UddiClient {
    transport: SoapTransport,
    /// Where this client's transport lands, for per-endpoint circuit
    /// breakers and telemetry labels. `None` for anonymous transports.
    endpoint: Option<String>,
}

impl UddiClient {
    pub fn new(transport: SoapTransport) -> Self {
        UddiClient {
            transport,
            endpoint: None,
        }
    }

    /// Client talking directly to an in-process registry (no wire).
    pub fn direct(registry: Registry) -> Self {
        UddiClient::new(direct_transport(registry)).with_endpoint_hint("uddi:direct")
    }

    /// Client talking to a registry over HTTP at `uri`.
    pub fn http(uri: impl Into<String>) -> Self {
        let uri = uri.into();
        UddiClient::new(http_transport(uri.clone())).with_endpoint_hint(uri)
    }

    /// Label the endpoint this client reaches, keying its circuit
    /// breaker and `/metrics` series in the hosting binding.
    pub fn with_endpoint_hint(mut self, endpoint: impl Into<String>) -> Self {
        self.endpoint = Some(endpoint.into());
        self
    }

    /// The endpoint label, if one was supplied.
    pub fn endpoint_hint(&self) -> Option<&str> {
        self.endpoint.as_deref()
    }

    /// One exchange: the response body's payload, owned.
    fn call(&self, payload: Element) -> Result<Element, UddiError> {
        let request = Envelope::request(payload);
        let response = (self.transport)(&request).map_err(UddiError::Transport)?;
        match response.into_body() {
            Body::Payload(payload) => Ok(payload),
            Body::Fault(fault) => Err(UddiError::Fault(Box::new(fault))),
            Body::Empty => Err(UddiError::Malformed("response body is empty".into())),
        }
    }

    /// `find_service`: returns light summaries.
    pub fn find_services(&self, query: &ServiceQuery) -> Result<Vec<ServiceInfo>, UddiError> {
        let list = self.call(query.to_element())?;
        let infos = list
            .find(UDDI_NS, "serviceInfos")
            .ok_or_else(|| UddiError::Malformed("serviceList lacks serviceInfos".into()))?;
        Ok(infos
            .find_all(UDDI_NS, "serviceInfo")
            .filter_map(ServiceInfo::from_element)
            .collect())
    }

    /// `get_serviceDetail`: full records for the given keys.
    pub fn get_service_details(&self, keys: &[String]) -> Result<Vec<BusinessService>, UddiError> {
        let mut get = Element::new(UDDI_NS, "get_serviceDetail");
        for key in keys {
            get.push_element(
                Element::build(UDDI_NS, "serviceKey")
                    .text(key.clone())
                    .finish(),
            );
        }
        let detail = self.call(get)?;
        Ok(detail
            .find_all(UDDI_NS, "businessService")
            .filter_map(BusinessService::from_element)
            .collect())
    }

    /// `find_serviceDetail`: the full records matching `query`, in one
    /// exchange.
    pub fn locate(&self, query: &ServiceQuery) -> Result<Vec<BusinessService>, UddiError> {
        let detail = self.call(query.to_request(FIND_SERVICE_DETAIL))?;
        Ok(detail
            .find_all(UDDI_NS, "businessService")
            .filter_map(BusinessService::from_element)
            .collect())
    }

    /// `save_business`: register a publishing organisation.
    pub fn save_business(
        &self,
        business: &crate::model::BusinessEntity,
    ) -> Result<crate::model::BusinessEntity, UddiError> {
        let mut save = Element::new(UDDI_NS, "save_business");
        save.push_element(business.to_element());
        let detail = self.call(save)?;
        detail
            .find(UDDI_NS, "businessEntity")
            .and_then(crate::model::BusinessEntity::from_element)
            .ok_or_else(|| UddiError::Malformed("businessDetail lacks businessEntity".into()))
    }

    /// `find_business`: `(key, name)` summaries of businesses whose name
    /// matches `pattern` (`%` wildcards).
    pub fn find_businesses(&self, pattern: &str) -> Result<Vec<(String, String)>, UddiError> {
        let mut find = Element::new(UDDI_NS, "find_business");
        find.push_element(
            Element::build(UDDI_NS, "name")
                .text(pattern.to_owned())
                .finish(),
        );
        let list = self.call(find)?;
        let infos = list
            .find(UDDI_NS, "businessInfos")
            .ok_or_else(|| UddiError::Malformed("businessList lacks businessInfos".into()))?;
        Ok(infos
            .find_all(UDDI_NS, "businessInfo")
            .filter_map(|i| {
                let key = i.attribute_local("businessKey")?.to_owned();
                let name = i.child_text(UDDI_NS, "name")?;
                Some((key, name))
            })
            .collect())
    }

    /// `save_service`: publish a record; returns it with assigned keys.
    pub fn save_service(&self, service: &BusinessService) -> Result<BusinessService, UddiError> {
        self.save_service_body(None, service)
    }

    /// `save_service` carrying, ahead of the record, the tModel one of
    /// its bindings references: the registry saves the tModel first, so
    /// one exchange leaves what `save_tModel` then `save_service` would.
    /// The tModel's key is the caller's to assign — the record names it.
    pub fn save_service_with_tmodel(
        &self,
        tmodel: &TModel,
        service: &BusinessService,
    ) -> Result<BusinessService, UddiError> {
        self.save_service_body(Some(tmodel), service)
    }

    fn save_service_body(
        &self,
        tmodel: Option<&TModel>,
        service: &BusinessService,
    ) -> Result<BusinessService, UddiError> {
        let mut save = Element::new(UDDI_NS, "save_service");
        if let Some(tmodel) = tmodel {
            save.push_element(tmodel.to_element());
        }
        save.push_element(service.to_element());
        self.call(save)?
            .find(UDDI_NS, "businessService")
            .and_then(BusinessService::from_element)
            .ok_or_else(|| UddiError::Malformed("serviceDetail lacks businessService".into()))
    }

    /// `save_tModel`: publish a tModel (e.g. the WSDL pointer).
    pub fn save_tmodel(&self, tmodel: &TModel) -> Result<TModel, UddiError> {
        let mut save = Element::new(UDDI_NS, "save_tModel");
        save.push_element(tmodel.to_element());
        let detail = self.call(save)?;
        detail
            .find(UDDI_NS, "tModel")
            .and_then(TModel::from_element)
            .ok_or_else(|| UddiError::Malformed("tModelDetail lacks tModel".into()))
    }

    /// `get_tModelDetail` for a single key.
    pub fn get_tmodel(&self, key: &str) -> Result<TModel, UddiError> {
        let mut get = Element::new(UDDI_NS, "get_tModelDetail");
        get.push_element(
            Element::build(UDDI_NS, "tModelKey")
                .text(key.to_owned())
                .finish(),
        );
        let detail = self.call(get)?;
        detail
            .find(UDDI_NS, "tModel")
            .and_then(TModel::from_element)
            .ok_or_else(|| UddiError::Malformed("tModelDetail lacks tModel".into()))
    }

    /// `delete_service` for a single key. Returns whether it existed.
    pub fn delete_service(&self, key: &str) -> Result<bool, UddiError> {
        let mut del = Element::new(UDDI_NS, "delete_service");
        del.push_element(
            Element::build(UDDI_NS, "serviceKey")
                .text(key.to_owned())
                .finish(),
        );
        let report = self.call(del)?;
        Ok(report.attribute_local("deleted") == Some("1"))
    }
}

/// Transport that hands envelopes straight to an in-process registry.
pub fn direct_transport(registry: Registry) -> SoapTransport {
    let api = crate::api::UddiApi::new(registry);
    Arc::new(move |request: &Envelope| Ok(api.process(request)))
}

/// Transport that POSTs envelopes to a registry URI, serialising through
/// the full SOAP + HTTP codecs. The transport owns a keep-alive pool, so
/// consecutive registry calls share a connection.
pub fn http_transport(uri: String) -> SoapTransport {
    let pool = wsp_http::ConnectionPool::new();
    Arc::new(move |request: &Envelope| {
        let http_request = wsp_http::Request::post(
            "/",
            wsp_soap::constants::CONTENT_TYPE,
            request.to_xml_bytes(),
        );
        let response = pool
            .call_uri(&uri, http_request, wsp_http::DEFAULT_CLIENT_TIMEOUT)
            .map_err(|e| e.to_string())?;
        if !response.is_success() && response.status != 500 {
            // 500 carries SOAP faults; anything else is transport-level.
            return Err(format!("registry answered HTTP {}", response.status));
        }
        Envelope::from_xml(&response.body_str()).map_err(|e| e.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BindingTemplate, KeyedReference};

    fn client_with_data() -> (UddiClient, Registry) {
        let registry = Registry::new();
        registry.save_service(
            BusinessService::new("", "biz", "EchoService")
                .with_category(KeyedReference::new("uddi:types", "", "wspeer"))
                .with_binding(BindingTemplate::new("", "http://h/Echo")),
        );
        (UddiClient::direct(registry.clone()), registry)
    }

    #[test]
    fn locate_round_trip() {
        let (client, _) = client_with_data();
        let found = client.locate(&ServiceQuery::by_name("Echo%")).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].bindings[0].access_point, "http://h/Echo");
    }

    #[test]
    fn locate_no_match_is_empty() {
        let (client, _) = client_with_data();
        assert!(client
            .locate(&ServiceQuery::by_name("Nope%"))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn publish_flow() {
        let (client, registry) = client_with_data();
        let saved = client
            .save_service(&BusinessService::new("", "biz", "MathService"))
            .unwrap();
        assert!(saved.key.starts_with("uuid:svc-"));
        assert_eq!(registry.service_count(), 2);
    }

    #[test]
    fn tmodel_flow() {
        let (client, _) = client_with_data();
        let tm = client
            .save_tmodel(&TModel::new("", "Echo WSDL").with_overview("http://h/Echo?wsdl"))
            .unwrap();
        let fetched = client.get_tmodel(&tm.key).unwrap();
        assert_eq!(fetched, tm);
    }

    #[test]
    fn service_saved_with_its_tmodel_in_one_body() {
        let (client, registry) = client_with_data();
        let before = registry.tmodel_count();
        let tm =
            TModel::new("uuid:tm-wsdl:http://h/New", "New WSDL").with_overview("http://h/New?wsdl");
        let record = BusinessService::new("", "biz", "New").with_binding(
            crate::model::BindingTemplate::new("", "http://h/New").with_tmodel(&tm.key),
        );
        let saved = client.save_service_with_tmodel(&tm, &record).unwrap();
        assert_eq!(client.get_tmodel(&tm.key).unwrap(), tm);
        // Referenced by the record, so it goes when the record does.
        assert!(client.delete_service(&saved.key).unwrap());
        assert_eq!(registry.tmodel_count(), before);
    }

    #[test]
    fn delete_flow() {
        let (client, _) = client_with_data();
        let found = client.find_services(&ServiceQuery::all()).unwrap();
        assert!(client.delete_service(&found[0].key).unwrap());
        assert!(!client.delete_service(&found[0].key).unwrap());
    }

    #[test]
    fn fault_surfaces_as_error() {
        let (client, _) = client_with_data();
        let err = client.get_tmodel("uuid:ghost").unwrap_err();
        assert!(matches!(err, UddiError::Fault(_)));
    }

    #[test]
    fn transport_error_surfaces() {
        let client = UddiClient::new(Arc::new(|_e: &Envelope| Err("cable cut".to_string())));
        let err = client.find_services(&ServiceQuery::all()).unwrap_err();
        assert_eq!(err, UddiError::Transport("cable cut".into()));
    }
}

#[cfg(test)]
mod business_tests {
    use super::*;
    use crate::model::BusinessEntity;

    #[test]
    fn business_publish_and_find_flow() {
        let client = UddiClient::direct(Registry::new());
        let mut cardiff = BusinessEntity::new("", "Cardiff University");
        cardiff.description = Some("School of Computer Science".into());
        let saved = client.save_business(&cardiff).unwrap();
        assert!(saved.key.starts_with("uuid:biz-"));
        client
            .save_business(&BusinessEntity::new("", "LSU CCT"))
            .unwrap();

        let all = client.find_businesses("%").unwrap();
        assert_eq!(all.len(), 2);
        let cardiff_only = client.find_businesses("Cardiff%").unwrap();
        assert_eq!(cardiff_only.len(), 1);
        assert_eq!(cardiff_only[0].0, saved.key);
        assert!(client.find_businesses("Oxford%").unwrap().is_empty());
    }

    #[test]
    fn business_flow_over_http() {
        let server = crate::server::RegistryServer::launch(0).unwrap();
        let client = UddiClient::http(server.uri());
        client
            .save_business(&BusinessEntity::new("", "Cardiff University"))
            .unwrap();
        let found = client.find_businesses("cardiff%").unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].1, "Cardiff University");
        server.shutdown();
    }
}
