//! The registry's API: answering publish and inquiry requests.
//!
//! Like real UDDI, inquiry has a two-step form: `find_service` returns
//! a light `serviceList` of keys/names and `get_serviceDetail` returns
//! full records — the pair the registry-bottleneck experiment (E1)
//! drives, and that browsing tools want. A locate does not use it: two
//! exchanges cost two round trips and leave a window in which a found
//! key is deleted (or its lease expires) and the detail request faults.
//! `find_serviceDetail` takes `find_service`'s children and answers with
//! the matching records themselves, as a `serviceDetail`, from one read
//! of the store; [`crate::UddiClient::locate`] and the sharded client
//! are built on it.
//!
//! Requests and answers are values ([`crate::wire`]); how they reach
//! the API — in process or over HTTP — is the transport's business.

use crate::model::TModel;
use crate::registry::Registry;
use crate::wire::{ServiceInfo, UddiOp, UddiRequest, UddiResponse};
use wsp_soap::Fault;

/// The server side of the registry protocol.
#[derive(Clone)]
pub struct UddiApi {
    registry: Registry,
}

impl UddiApi {
    pub fn new(registry: Registry) -> Self {
        UddiApi { registry }
    }

    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Answer one request.
    pub fn process(&self, request: &UddiRequest<'_>) -> UddiResponse {
        self.answer(request).unwrap_or_else(UddiResponse::Fault)
    }

    fn answer(&self, request: &UddiRequest<'_>) -> Result<UddiResponse, Fault> {
        let registry = &self.registry;
        Ok(match &request.op {
            UddiOp::FindService(query) => UddiResponse::ServiceList(
                (registry.find_services(query).into_iter())
                    .map(ServiceInfo::from)
                    .collect(),
            ),
            // `find_service` and `get_serviceDetail` in one exchange,
            // under one read of the store: a key cannot vanish between
            // the two halves.
            UddiOp::FindServiceDetail(query) => {
                UddiResponse::ServiceDetail(registry.find_services(query))
            }
            UddiOp::GetServiceDetail(keys) => {
                UddiResponse::ServiceDetail(by_keys(keys, "service", |k| registry.get_service(k))?)
            }
            // Any tModels are saved first — a publish sends the WSDL
            // tModel with the record that references it, in one exchange.
            UddiOp::SaveService { tmodels, services } => {
                self.save_tmodels(tmodels);
                UddiResponse::ServiceDetail(
                    (services.iter())
                        .map(|service| registry.save_service(service.clone()))
                        .collect(),
                )
            }
            UddiOp::SaveTModel(tmodels) => UddiResponse::TModelDetail(self.save_tmodels(tmodels)),
            UddiOp::GetTModelDetail(keys) => {
                UddiResponse::TModelDetail(by_keys(keys, "tModel", |k| registry.get_tmodel(k))?)
            }
            UddiOp::DeleteService(keys) => UddiResponse::Disposition {
                deleted: (keys.iter())
                    .filter(|key| registry.delete_service(key.trim()))
                    .count(),
            },
            UddiOp::SaveBusiness(entities) => UddiResponse::BusinessDetail(
                (entities.iter())
                    .map(|entity| registry.save_business(entity.clone()))
                    .collect(),
            ),
            UddiOp::FindBusiness(pattern) => {
                UddiResponse::BusinessList(registry.find_businesses(pattern))
            }
            op @ (UddiOp::GetShardMap | UddiOp::GetDataVersions) => {
                let (_, local) = op.name();
                return Err(Fault::sender(format!("unknown UDDI operation {local:?}")));
            }
        })
    }

    fn save_tmodels(&self, tmodels: &[TModel]) -> Vec<TModel> {
        (tmodels.iter())
            .map(|tmodel| self.registry.save_tmodel(tmodel.clone()))
            .collect()
    }
}

/// What `get` finds under each of `keys`, or the fault for the first it
/// does not.
fn by_keys<T>(
    keys: &[String],
    what: &str,
    get: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, Fault> {
    let found = keys.iter().map(|key| {
        get(key.trim()).ok_or_else(|| Fault::sender(format!("no {what} with key {key:?}")))
    });
    found.collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BindingTemplate, BusinessService};
    use crate::query::ServiceQuery;
    use crate::wire::read_request;
    use std::borrow::Cow;

    fn api_with_service() -> (UddiApi, String) {
        let registry = Registry::new();
        let saved = registry.save_service(
            BusinessService::new("", "biz", "EchoService")
                .with_binding(BindingTemplate::new("", "http://h/Echo")),
        );
        (UddiApi::new(registry), saved.key)
    }

    fn request(op: UddiOp<'_>) -> UddiRequest<'_> {
        UddiRequest::new(op)
    }

    fn keys(keys: &[&str]) -> Cow<'static, [String]> {
        Cow::Owned(keys.iter().map(|k| k.to_string()).collect())
    }

    #[test]
    fn find_then_detail_flow() {
        let (api, key) = api_with_service();
        let query = ServiceQuery::by_name("Echo%");
        let UddiResponse::ServiceList(infos) =
            api.process(&request(UddiOp::FindService(Cow::Borrowed(&query))))
        else {
            panic!("find_service answers a serviceList");
        };
        assert_eq!(infos.len(), 1);
        assert_eq!(infos[0].key, key);

        let detail = api.process(&request(UddiOp::GetServiceDetail(keys(&[&key]))));
        let UddiResponse::ServiceDetail(found) = detail else {
            panic!("{detail:?}");
        };
        assert_eq!(found[0].name, "EchoService");
        assert_eq!(found[0].bindings[0].access_point, "http://h/Echo");
    }

    #[test]
    fn find_service_detail_is_find_and_detail_in_one_exchange() {
        let (api, key) = api_with_service();
        let query = ServiceQuery::by_name("echoservice");
        let detail = api.process(&request(UddiOp::FindServiceDetail(Cow::Borrowed(&query))));
        let UddiResponse::ServiceDetail(found) = detail else {
            panic!("{detail:?}");
        };
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].key, key);
        assert_eq!(found[0].bindings[0].access_point, "http://h/Echo");
        // No match is an empty detail, not a fault: there is no key
        // that could have gone missing.
        let nope = ServiceQuery::by_name("Nope");
        let none = api.process(&request(UddiOp::FindServiceDetail(Cow::Borrowed(&nope))));
        assert_eq!(none, UddiResponse::ServiceDetail(Vec::new()));
    }

    #[test]
    fn save_service_assigns_keys() {
        let api = UddiApi::new(Registry::new());
        let record = [BusinessService::new("", "biz", "New")];
        let response = api.process(&request(UddiOp::SaveService {
            tmodels: Cow::Borrowed(&[]),
            services: Cow::Borrowed(&record),
        }));
        let UddiResponse::ServiceDetail(saved) = response else {
            panic!("{response:?}");
        };
        assert!(saved[0].key.starts_with("uuid:svc-"));
        assert_eq!(api.registry().service_count(), 1);
    }

    #[test]
    fn unknown_service_key_faults() {
        let (api, _) = api_with_service();
        let response = api.process(&request(UddiOp::GetServiceDetail(keys(&["uuid:nope"]))));
        let UddiResponse::Fault(fault) = response else {
            panic!("{response:?}");
        };
        assert!(fault.reason.contains("uuid:nope"));
    }

    /// An operation outside the vocabulary is refused where the request
    /// is read — and the plane's own control operations by a registry
    /// that is not a plane.
    #[test]
    fn unknown_operation_faults() {
        let (api, _) = api_with_service();
        let xml = wsp_soap::Envelope::request(wsp_xml::Element::new(
            crate::UDDI_NS,
            "discard_everything",
        ))
        .to_xml();
        let refused = read_request(&xml).expect("a SOAP envelope").unwrap_err();
        assert!(refused.reason.contains("discard_everything"), "{refused}");
        let response = api.process(&request(UddiOp::GetShardMap));
        assert!(matches!(response, UddiResponse::Fault(_)), "{response:?}");
    }

    #[test]
    fn empty_body_faults() {
        let xml = wsp_soap::Envelope::empty().to_xml();
        let refused = read_request(&xml).expect("a SOAP envelope").unwrap_err();
        assert!(refused.reason.contains("no body"), "{refused}");
    }

    #[test]
    fn tmodel_save_and_get() {
        let api = UddiApi::new(Registry::new());
        let tmodel = [TModel::new("", "Echo WSDL").with_overview("http://h/Echo?wsdl")];
        let saved = api.process(&request(UddiOp::SaveTModel(Cow::Borrowed(&tmodel))));
        let UddiResponse::TModelDetail(saved) = saved else {
            panic!("{saved:?}");
        };
        let got = api.process(&request(UddiOp::GetTModelDetail(keys(&[&saved[0].key]))));
        assert_eq!(got, UddiResponse::TModelDetail(saved));
    }

    #[test]
    fn delete_service_reports_count() {
        let (api, key) = api_with_service();
        let response = api.process(&request(UddiOp::DeleteService(keys(&[&key, "uuid:ghost"]))));
        assert_eq!(response, UddiResponse::Disposition { deleted: 1 });
        assert_eq!(api.registry().service_count(), 0);
    }
}
