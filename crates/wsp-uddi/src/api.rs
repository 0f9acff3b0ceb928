//! The registry's SOAP API: dispatching publish and inquiry envelopes.
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

use crate::model::{BusinessEntity, BusinessService, TModel, UDDI_NS};
use crate::query::{ServiceQuery, FIND_SERVICE, FIND_SERVICE_DETAIL};
use crate::registry::Registry;
use wsp_soap::{Envelope, Fault};
use wsp_xml::{Element, QName};

/// Summary entry returned by `find_service`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceInfo {
    pub key: String,
    pub name: String,
    pub business_key: String,
}

impl ServiceInfo {
    pub fn to_element(&self) -> Element {
        let mut e = Element::new(UDDI_NS, "serviceInfo");
        e.set_attribute(QName::local("serviceKey"), self.key.clone());
        e.set_attribute(QName::local("businessKey"), self.business_key.clone());
        e.push_element(
            Element::build(UDDI_NS, "name")
                .text(self.name.clone())
                .finish(),
        );
        e
    }

    pub fn from_element(e: &Element) -> Option<ServiceInfo> {
        Some(ServiceInfo {
            key: e.attribute_local("serviceKey")?.to_owned(),
            name: e.child_text(UDDI_NS, "name").unwrap_or_default(),
            business_key: e.attribute_local("businessKey").unwrap_or("").to_owned(),
        })
    }
}

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

    /// Process one request envelope.
    pub fn process(&self, request: &Envelope) -> Envelope {
        let Some(payload) = request.payload() else {
            return Envelope::fault(Fault::sender("UDDI request carries no body"));
        };
        let result = match payload.name().local_name() {
            FIND_SERVICE => self.find_service(payload),
            FIND_SERVICE_DETAIL => self.find_service_detail(payload),
            "find_business" => self.find_business(payload),
            "get_serviceDetail" => self.get_service_detail(payload),
            "save_service" => self.save_service(payload),
            "save_business" => self.save_business(payload),
            "save_tModel" => self.save_tmodel(payload),
            "get_tModelDetail" => self.get_tmodel_detail(payload),
            "delete_service" => self.delete_service(payload),
            other => Err(Fault::sender(format!("unknown UDDI operation {other:?}"))),
        };
        match result {
            Ok(body) => Envelope::request(body),
            Err(fault) => Envelope::fault(fault),
        }
    }

    fn find_service(&self, payload: &Element) -> Result<Element, Fault> {
        let query = ServiceQuery::from_element(payload)
            .ok_or_else(|| Fault::sender("malformed find_service"))?;
        let hits = self.registry.find_services(&query);
        let mut infos = Element::new(UDDI_NS, "serviceInfos");
        for s in &hits {
            infos.push_element(
                ServiceInfo {
                    key: s.key.clone(),
                    name: s.name.clone(),
                    business_key: s.business_key.clone(),
                }
                .to_element(),
            );
        }
        Ok(Element::build(UDDI_NS, "serviceList").child(infos).finish())
    }

    /// `find_service` and `get_serviceDetail` in one exchange, under one
    /// read of the store: a key cannot vanish between the two halves.
    fn find_service_detail(&self, payload: &Element) -> Result<Element, Fault> {
        let query = ServiceQuery::from_element(payload)
            .ok_or_else(|| Fault::sender("malformed find_serviceDetail"))?;
        let mut detail = Element::new(UDDI_NS, "serviceDetail");
        for service in &self.registry.find_services(&query) {
            detail.push_element(service.to_element());
        }
        Ok(detail)
    }

    fn find_business(&self, payload: &Element) -> Result<Element, Fault> {
        let pattern = payload
            .child_text(UDDI_NS, "name")
            .unwrap_or_else(|| "%".to_owned());
        let mut infos = Element::new(UDDI_NS, "businessInfos");
        for (key, name) in self.registry.find_businesses(&pattern) {
            let mut info = Element::new(UDDI_NS, "businessInfo");
            info.set_attribute(QName::local("businessKey"), key);
            info.push_element(Element::build(UDDI_NS, "name").text(name).finish());
            infos.push_element(info);
        }
        Ok(Element::build(UDDI_NS, "businessList")
            .child(infos)
            .finish())
    }

    fn get_service_detail(&self, payload: &Element) -> Result<Element, Fault> {
        let mut detail = Element::new(UDDI_NS, "serviceDetail");
        for key_elem in payload.find_all(UDDI_NS, "serviceKey") {
            let key = key_elem.text();
            let svc = self
                .registry
                .get_service(key.trim())
                .ok_or_else(|| Fault::sender(format!("no service with key {key:?}")))?;
            detail.push_element(svc.to_element());
        }
        Ok(detail)
    }

    /// Any `tModel` children are saved first — a publish sends the WSDL
    /// tModel with the record that references it, in one exchange.
    fn save_service(&self, payload: &Element) -> Result<Element, Fault> {
        self.save_tmodel(payload)?;
        let mut detail = Element::new(UDDI_NS, "serviceDetail");
        for svc_elem in payload.find_all(UDDI_NS, "businessService") {
            let svc = BusinessService::from_element(svc_elem)
                .ok_or_else(|| Fault::sender("malformed businessService"))?;
            detail.push_element(self.registry.save_service(svc).to_element());
        }
        Ok(detail)
    }

    fn save_business(&self, payload: &Element) -> Result<Element, Fault> {
        let mut detail = Element::new(UDDI_NS, "businessDetail");
        for biz_elem in payload.find_all(UDDI_NS, "businessEntity") {
            let biz = BusinessEntity::from_element(biz_elem)
                .ok_or_else(|| Fault::sender("malformed businessEntity"))?;
            detail.push_element(self.registry.save_business(biz).to_element());
        }
        Ok(detail)
    }

    fn save_tmodel(&self, payload: &Element) -> Result<Element, Fault> {
        let mut detail = Element::new(UDDI_NS, "tModelDetail");
        for tm_elem in payload.find_all(UDDI_NS, "tModel") {
            let tm =
                TModel::from_element(tm_elem).ok_or_else(|| Fault::sender("malformed tModel"))?;
            detail.push_element(self.registry.save_tmodel(tm).to_element());
        }
        Ok(detail)
    }

    fn get_tmodel_detail(&self, payload: &Element) -> Result<Element, Fault> {
        let mut detail = Element::new(UDDI_NS, "tModelDetail");
        for key_elem in payload.find_all(UDDI_NS, "tModelKey") {
            let key = key_elem.text();
            let tm = self
                .registry
                .get_tmodel(key.trim())
                .ok_or_else(|| Fault::sender(format!("no tModel with key {key:?}")))?;
            detail.push_element(tm.to_element());
        }
        Ok(detail)
    }

    fn delete_service(&self, payload: &Element) -> Result<Element, Fault> {
        let mut deleted = 0usize;
        for key_elem in payload.find_all(UDDI_NS, "serviceKey") {
            if self.registry.delete_service(key_elem.text().trim()) {
                deleted += 1;
            }
        }
        Ok(Element::build(UDDI_NS, "dispositionReport")
            .attr_str("deleted", deleted.to_string())
            .finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::BindingTemplate;

    fn api_with_service() -> (UddiApi, String) {
        let registry = Registry::new();
        let saved = registry.save_service(
            BusinessService::new("", "biz", "EchoService")
                .with_binding(BindingTemplate::new("", "http://h/Echo")),
        );
        (UddiApi::new(registry), saved.key)
    }

    fn request(payload: Element) -> Envelope {
        Envelope::request(payload)
    }

    #[test]
    fn find_then_detail_flow() {
        let (api, key) = api_with_service();
        let list = api.process(&request(ServiceQuery::by_name("Echo%").to_element()));
        let infos: Vec<ServiceInfo> = list
            .payload()
            .unwrap()
            .find(UDDI_NS, "serviceInfos")
            .unwrap()
            .find_all(UDDI_NS, "serviceInfo")
            .filter_map(ServiceInfo::from_element)
            .collect();
        assert_eq!(infos.len(), 1);
        assert_eq!(infos[0].key, key);

        let mut get = Element::new(UDDI_NS, "get_serviceDetail");
        get.push_element(
            Element::build(UDDI_NS, "serviceKey")
                .text(key.clone())
                .finish(),
        );
        let detail = api.process(&request(get));
        let svc = BusinessService::from_element(
            detail
                .payload()
                .unwrap()
                .find(UDDI_NS, "businessService")
                .unwrap(),
        )
        .unwrap();
        assert_eq!(svc.name, "EchoService");
        assert_eq!(svc.bindings[0].access_point, "http://h/Echo");
    }

    #[test]
    fn find_service_detail_is_find_and_detail_in_one_exchange() {
        let (api, key) = api_with_service();
        let query = ServiceQuery::by_name("echoservice");
        let detail = api.process(&request(query.to_request(FIND_SERVICE_DETAIL)));
        let body = detail.payload().unwrap();
        assert!(body.name().is(UDDI_NS, "serviceDetail"));
        let found: Vec<BusinessService> = body
            .find_all(UDDI_NS, "businessService")
            .filter_map(BusinessService::from_element)
            .collect();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].key, key);
        assert_eq!(found[0].bindings[0].access_point, "http://h/Echo");
        // No match is an empty detail, not a fault: there is no key
        // that could have gone missing.
        let none = api.process(&request(
            ServiceQuery::by_name("Nope").to_request(FIND_SERVICE_DETAIL),
        ));
        assert!(none.fault_body().is_none());
        assert_eq!(
            none.payload()
                .unwrap()
                .find_all(UDDI_NS, "businessService")
                .count(),
            0
        );
    }

    #[test]
    fn save_service_assigns_keys() {
        let api = UddiApi::new(Registry::new());
        let mut save = Element::new(UDDI_NS, "save_service");
        save.push_element(BusinessService::new("", "biz", "New").to_element());
        let response = api.process(&request(save));
        let svc = BusinessService::from_element(
            response
                .payload()
                .unwrap()
                .find(UDDI_NS, "businessService")
                .unwrap(),
        )
        .unwrap();
        assert!(svc.key.starts_with("uuid:svc-"));
        assert_eq!(api.registry().service_count(), 1);
    }

    #[test]
    fn unknown_service_key_faults() {
        let (api, _) = api_with_service();
        let mut get = Element::new(UDDI_NS, "get_serviceDetail");
        get.push_element(
            Element::build(UDDI_NS, "serviceKey")
                .text("uuid:nope")
                .finish(),
        );
        let response = api.process(&request(get));
        assert!(response.fault_body().unwrap().reason.contains("uuid:nope"));
    }

    #[test]
    fn unknown_operation_faults() {
        let (api, _) = api_with_service();
        let response = api.process(&request(Element::new(UDDI_NS, "discard_everything")));
        assert!(response.fault_body().is_some());
    }

    #[test]
    fn empty_body_faults() {
        let (api, _) = api_with_service();
        assert!(api.process(&Envelope::empty()).fault_body().is_some());
    }

    #[test]
    fn tmodel_save_and_get() {
        let api = UddiApi::new(Registry::new());
        let mut save = Element::new(UDDI_NS, "save_tModel");
        save.push_element(
            TModel::new("", "Echo WSDL")
                .with_overview("http://h/Echo?wsdl")
                .to_element(),
        );
        let saved = api.process(&request(save));
        let tm = TModel::from_element(saved.payload().unwrap().find(UDDI_NS, "tModel").unwrap())
            .unwrap();

        let mut get = Element::new(UDDI_NS, "get_tModelDetail");
        get.push_element(
            Element::build(UDDI_NS, "tModelKey")
                .text(tm.key.clone())
                .finish(),
        );
        let got = api.process(&request(get));
        let fetched =
            TModel::from_element(got.payload().unwrap().find(UDDI_NS, "tModel").unwrap()).unwrap();
        assert_eq!(fetched, tm);
    }

    #[test]
    fn delete_service_reports_count() {
        let (api, key) = api_with_service();
        let mut del = Element::new(UDDI_NS, "delete_service");
        del.push_element(Element::build(UDDI_NS, "serviceKey").text(key).finish());
        del.push_element(
            Element::build(UDDI_NS, "serviceKey")
                .text("uuid:ghost")
                .finish(),
        );
        let response = api.process(&request(del));
        let report = response.payload().unwrap();
        assert_eq!(report.attribute_local("deleted"), Some("1"));
        assert_eq!(api.registry().service_count(), 0);
    }
}
