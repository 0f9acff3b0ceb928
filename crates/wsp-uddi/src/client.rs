//! Registry client: the consumer side of the UDDI protocol, over a
//! pluggable transport.

use crate::model::{BusinessEntity, BusinessService, TModel};
use crate::query::ServiceQuery;
use crate::registry::Registry;
use crate::wire::{ServiceInfo, UddiOp, UddiRequest, UddiResponse};
use std::borrow::Cow;
use std::fmt;
use std::slice;
use std::sync::Arc;
use wsp_soap::Fault;

/// A function that carries a registry request to the registry and
/// returns its answer. Implementations exist for in-process registries
/// ([`direct_transport`], which hands the request over as it is) and
/// HTTP ([`http_transport`], which writes and reads the SOAP envelopes).
pub type UddiTransport =
    Arc<dyn Fn(&UddiRequest<'_>) -> Result<UddiResponse, String> + Send + Sync>;

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
    transport: UddiTransport,
    /// Where this client's transport lands, for per-endpoint circuit
    /// breakers and telemetry labels. `None` for anonymous transports.
    endpoint: Option<String>,
}

impl UddiClient {
    pub fn new(transport: UddiTransport) -> Self {
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

    /// One exchange: the registry's answer, a fault as an error.
    fn call(&self, op: UddiOp<'_>) -> Result<UddiResponse, UddiError> {
        match (self.transport)(&UddiRequest::new(op)).map_err(UddiError::Transport)? {
            UddiResponse::Fault(fault) => Err(UddiError::Fault(Box::new(fault))),
            response => Ok(response),
        }
    }

    /// `find_service`: returns light summaries.
    pub fn find_services(&self, query: &ServiceQuery) -> Result<Vec<ServiceInfo>, UddiError> {
        match self.call(UddiOp::FindService(Cow::Borrowed(query)))? {
            UddiResponse::ServiceList(infos) => Ok(infos),
            _ => Err(malformed("serviceList lacks serviceInfos")),
        }
    }

    /// `find_serviceDetail`: the full records matching `query`, in one
    /// exchange.
    pub fn locate(&self, query: &ServiceQuery) -> Result<Vec<BusinessService>, UddiError> {
        self.service_detail(UddiOp::FindServiceDetail(Cow::Borrowed(query)))
    }

    fn service_detail(&self, op: UddiOp<'_>) -> Result<Vec<BusinessService>, UddiError> {
        match self.call(op)? {
            UddiResponse::ServiceDetail(found) => Ok(found),
            _ => Err(malformed("the answer is not a serviceDetail")),
        }
    }

    /// `save_business`: register a publishing organisation.
    pub fn save_business(&self, business: &BusinessEntity) -> Result<BusinessEntity, UddiError> {
        let op = UddiOp::SaveBusiness(Cow::Borrowed(slice::from_ref(business)));
        let saved = match self.call(op)? {
            UddiResponse::BusinessDetail(saved) => saved.into_iter().next(),
            _ => None,
        };
        saved.ok_or_else(|| malformed("businessDetail lacks businessEntity"))
    }

    /// `find_business`: `(key, name)` summaries of businesses whose name
    /// matches `pattern` (`%` wildcards).
    pub fn find_businesses(&self, pattern: &str) -> Result<Vec<(String, String)>, UddiError> {
        match self.call(UddiOp::FindBusiness(Cow::Borrowed(pattern)))? {
            UddiResponse::BusinessList(found) => Ok(found),
            _ => Err(malformed("businessList lacks businessInfos")),
        }
    }

    /// `save_service`: publish a record; returns it with assigned keys.
    pub fn save_service(&self, service: &BusinessService) -> Result<BusinessService, UddiError> {
        self.save_service_body(&[], service)
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
        self.save_service_body(slice::from_ref(tmodel), service)
    }

    fn save_service_body(
        &self,
        tmodels: &[TModel],
        service: &BusinessService,
    ) -> Result<BusinessService, UddiError> {
        let services = Cow::Borrowed(slice::from_ref(service));
        let op = UddiOp::SaveService {
            tmodels: Cow::Borrowed(tmodels),
            services,
        };
        let saved = self.service_detail(op)?.into_iter().next();
        saved.ok_or_else(|| malformed("serviceDetail lacks businessService"))
    }

    /// `save_tModel`: publish a tModel (e.g. the WSDL pointer).
    pub fn save_tmodel(&self, tmodel: &TModel) -> Result<TModel, UddiError> {
        self.tmodel(UddiOp::SaveTModel(Cow::Borrowed(slice::from_ref(tmodel))))
    }

    /// `get_tModelDetail` for a single key.
    pub fn get_tmodel(&self, key: &str) -> Result<TModel, UddiError> {
        self.tmodel(UddiOp::GetTModelDetail(Cow::Owned(vec![key.to_owned()])))
    }

    fn tmodel(&self, op: UddiOp<'_>) -> Result<TModel, UddiError> {
        let tmodel = match self.call(op)? {
            UddiResponse::TModelDetail(found) => found.into_iter().next(),
            _ => None,
        };
        tmodel.ok_or_else(|| malformed("tModelDetail lacks tModel"))
    }

    /// `delete_service` for a single key. Returns whether it existed.
    pub fn delete_service(&self, key: &str) -> Result<bool, UddiError> {
        let keys = Cow::Owned(vec![key.to_owned()]);
        match self.call(UddiOp::DeleteService(keys))? {
            UddiResponse::Disposition { deleted } => Ok(deleted == 1),
            _ => Err(malformed("the answer is not a dispositionReport")),
        }
    }
}

fn malformed(why: &str) -> UddiError {
    UddiError::Malformed(why.to_owned())
}

/// Transport that hands requests straight to an in-process registry:
/// no tree, no bytes.
pub fn direct_transport(registry: Registry) -> UddiTransport {
    let api = crate::api::UddiApi::new(registry);
    Arc::new(move |request: &UddiRequest<'_>| Ok(api.process(request)))
}

/// Transport that POSTs requests to a registry URI as SOAP envelopes,
/// written and read by [`crate::wire`]. The transport owns a keep-alive
/// pool, so consecutive registry calls share a connection.
pub fn http_transport(uri: String) -> UddiTransport {
    let pool = wsp_http::ConnectionPool::new();
    Arc::new(move |request: &UddiRequest<'_>| {
        let mut body = wsp_xml::BufPool::global().take();
        crate::wire::write_request(request, &mut body);
        let http_request = wsp_http::Request::post("/", wsp_soap::constants::CONTENT_TYPE, body);
        let response = pool
            .call_uri(&uri, http_request, wsp_http::DEFAULT_CLIENT_TIMEOUT)
            .map_err(|e| e.to_string())?;
        if !response.is_success() && response.status != 500 {
            // 500 carries SOAP faults; anything else is transport-level.
            return Err(format!("registry answered HTTP {}", response.status));
        }
        crate::wire::read_response(&response.body_str())
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
        let client = UddiClient::new(Arc::new(|_: &UddiRequest<'_>| Err("cable cut".to_string())));
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
