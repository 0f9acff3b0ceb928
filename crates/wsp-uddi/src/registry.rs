//! The registry proper: a thread-safe store with publish and inquiry
//! operations.

use crate::model::{BusinessEntity, BusinessService, TModel};
use crate::query::ServiceQuery;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An in-memory UDDI registry. Cloning shares the underlying store, so
/// one registry can sit behind a server loop while tests inspect it.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

#[derive(Default)]
struct RegistryInner {
    businesses: RwLock<BTreeMap<String, BusinessEntity>>,
    services: RwLock<BTreeMap<String, BusinessService>>,
    tmodels: RwLock<BTreeMap<String, TModel>>,
    next_key: AtomicU64,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Mint a registry-unique key with the given prefix.
    pub fn generate_key(&self, prefix: &str) -> String {
        let n = self.inner.next_key.fetch_add(1, Ordering::Relaxed);
        format!("uuid:{prefix}-{n:08x}")
    }

    // --- publish API -----------------------------------------------------

    /// Save (insert or replace) a business entity. Empty key → minted.
    pub fn save_business(&self, mut business: BusinessEntity) -> BusinessEntity {
        if business.key.is_empty() {
            business.key = self.generate_key("biz");
        }
        self.inner
            .businesses
            .write()
            .insert(business.key.clone(), business.clone());
        business
    }

    /// Save (insert or replace) a service. Empty keys are minted.
    pub fn save_service(&self, mut service: BusinessService) -> BusinessService {
        if service.key.is_empty() {
            service.key = self.generate_key("svc");
        }
        for binding in &mut service.bindings {
            if binding.key.is_empty() {
                binding.key = self.generate_key("bind");
            }
        }
        self.inner
            .services
            .write()
            .insert(service.key.clone(), service.clone());
        service
    }

    /// Save (insert or replace) a tModel. Empty key → minted.
    pub fn save_tmodel(&self, mut tmodel: TModel) -> TModel {
        if tmodel.key.is_empty() {
            tmodel.key = self.generate_key("tm");
        }
        self.inner
            .tmodels
            .write()
            .insert(tmodel.key.clone(), tmodel.clone());
        tmodel
    }

    /// Remove a service, and with it every tModel its bindings named
    /// that no remaining service references (a publish saves one WSDL
    /// tModel per service; without this each deploy/undeploy cycle
    /// leaks it). True if the service existed.
    pub fn delete_service(&self, key: &str) -> bool {
        let mut services = self.inner.services.write();
        let Some(removed) = services.remove(key) else {
            return false;
        };
        let orphaned: Vec<&String> = removed
            .bindings
            .iter()
            .flat_map(|binding| &binding.tmodel_keys)
            .filter(|tmodel| {
                !services
                    .values()
                    .flat_map(|service| &service.bindings)
                    .any(|binding| binding.tmodel_keys.contains(tmodel))
            })
            .collect();
        if !orphaned.is_empty() {
            // Still under the services lock: a concurrent save cannot
            // start referencing a tModel between the scan and the drop.
            let mut tmodels = self.inner.tmodels.write();
            for tmodel in orphaned {
                tmodels.remove(tmodel);
            }
        }
        true
    }

    /// Remove a service record and nothing else. For stores that hold
    /// only a slice of the services (a shard replica), which cannot
    /// tell whether a tModel is still referenced elsewhere.
    pub fn remove_service_record(&self, key: &str) -> bool {
        self.inner.services.write().remove(key).is_some()
    }

    // --- inquiry API -----------------------------------------------------

    /// Run a `find_service` query.
    pub fn find_services(&self, query: &ServiceQuery) -> Vec<BusinessService> {
        let services = self.inner.services.read();
        let mut out: Vec<BusinessService> = services
            .values()
            .filter(|s| query.matches(s))
            .cloned()
            .collect();
        if query.max_rows > 0 {
            out.truncate(query.max_rows);
        }
        out
    }

    pub fn get_service(&self, key: &str) -> Option<BusinessService> {
        self.inner.services.read().get(key).cloned()
    }

    pub fn get_business(&self, key: &str) -> Option<BusinessEntity> {
        self.inner.businesses.read().get(key).cloned()
    }

    /// Keys of all registered businesses (inquiry support).
    pub fn business_keys(&self) -> Vec<String> {
        self.inner.businesses.read().keys().cloned().collect()
    }

    pub fn get_tmodel(&self, key: &str) -> Option<TModel> {
        self.inner.tmodels.read().get(key).cloned()
    }

    pub fn service_count(&self) -> usize {
        self.inner.services.read().len()
    }

    pub fn business_count(&self) -> usize {
        self.inner.businesses.read().len()
    }

    pub fn tmodel_count(&self) -> usize {
        self.inner.tmodels.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BindingTemplate, KeyedReference};

    #[test]
    fn keys_minted_when_empty() {
        let r = Registry::new();
        let saved = r.save_service(BusinessService::new("", "b", "Echo"));
        assert!(saved.key.starts_with("uuid:svc-"));
        assert!(r.get_service(&saved.key).is_some());
    }

    #[test]
    fn binding_keys_minted_too() {
        let r = Registry::new();
        let svc = BusinessService::new("", "b", "Echo")
            .with_binding(BindingTemplate::new("", "http://h/Echo"));
        let saved = r.save_service(svc);
        assert!(saved.bindings[0].key.starts_with("uuid:bind-"));
    }

    #[test]
    fn save_replaces_by_key() {
        let r = Registry::new();
        r.save_service(BusinessService::new("svc-1", "b", "Old"));
        r.save_service(BusinessService::new("svc-1", "b", "New"));
        assert_eq!(r.service_count(), 1);
        assert_eq!(r.get_service("svc-1").unwrap().name, "New");
    }

    #[test]
    fn find_by_name_and_category() {
        let r = Registry::new();
        r.save_service(
            BusinessService::new("", "b", "EchoService").with_category(KeyedReference::new(
                "uddi:types",
                "",
                "wspeer",
            )),
        );
        r.save_service(BusinessService::new("", "b", "MathService"));
        let hits = r.find_services(&ServiceQuery::by_name("Echo%"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].name, "EchoService");
        let by_cat = r.find_services(&ServiceQuery::all().with_category(KeyedReference::new(
            "uddi:types",
            "",
            "wspeer",
        )));
        assert_eq!(by_cat.len(), 1);
        assert_eq!(r.find_services(&ServiceQuery::all()).len(), 2);
    }

    #[test]
    fn max_rows_truncates() {
        let r = Registry::new();
        for i in 0..10 {
            r.save_service(BusinessService::new("", "b", format!("S{i}")));
        }
        assert_eq!(
            r.find_services(&ServiceQuery::all().with_max_rows(3)).len(),
            3
        );
    }

    #[test]
    fn delete_service() {
        let r = Registry::new();
        let saved = r.save_service(BusinessService::new("", "b", "Echo"));
        assert!(r.delete_service(&saved.key));
        assert!(!r.delete_service(&saved.key));
        assert_eq!(r.service_count(), 0);
    }

    #[test]
    fn deleting_a_service_drops_its_unreferenced_tmodels() {
        let r = Registry::new();
        let shared = r.save_tmodel(TModel::new("", "shared interface"));
        let keeper = r.save_service(
            BusinessService::new("", "b", "Keeper")
                .with_binding(BindingTemplate::new("", "http://h/K").with_tmodel(&shared.key)),
        );
        let baseline = r.tmodel_count();
        for i in 0..100 {
            // What `UddiPublisher::publish` does: one WSDL tModel per
            // service, referenced from its binding.
            let wsdl = r.save_tmodel(TModel::new("", format!("S{i} WSDL")));
            let saved = r.save_service(
                BusinessService::new("", "b", format!("S{i}")).with_binding(
                    BindingTemplate::new("", "http://h/S")
                        .with_tmodel(&wsdl.key)
                        .with_tmodel(&shared.key),
                ),
            );
            assert_eq!(r.tmodel_count(), baseline + 1);
            assert!(r.delete_service(&saved.key));
            assert_eq!(r.tmodel_count(), baseline, "cycle {i} leaked a tModel");
        }
        assert!(
            r.get_tmodel(&shared.key).is_some(),
            "a tModel another service still references survives"
        );
        assert!(r.delete_service(&keeper.key));
        assert_eq!(r.tmodel_count(), baseline - 1, "last reference gone");
        // The record-only removal never touches tModels.
        let lone = r.save_tmodel(TModel::new("", "lone"));
        let svc = r.save_service(
            BusinessService::new("", "b", "Sliced")
                .with_binding(BindingTemplate::new("", "http://h/X").with_tmodel(&lone.key)),
        );
        assert!(r.remove_service_record(&svc.key));
        assert!(r.get_tmodel(&lone.key).is_some());
    }

    #[test]
    fn business_and_tmodel_storage() {
        let r = Registry::new();
        let biz = r.save_business(BusinessEntity::new("", "Cardiff"));
        let tm = r.save_tmodel(TModel::new("", "Echo WSDL").with_overview("http://h/Echo?wsdl"));
        assert_eq!(r.get_business(&biz.key).unwrap().name, "Cardiff");
        assert_eq!(
            r.get_tmodel(&tm.key).unwrap().overview_url.as_deref(),
            Some("http://h/Echo?wsdl")
        );
        assert_eq!(r.business_count(), 1);
        assert_eq!(r.tmodel_count(), 1);
    }

    #[test]
    fn clones_share_state() {
        let r = Registry::new();
        let r2 = r.clone();
        r.save_service(BusinessService::new("", "b", "Echo"));
        assert_eq!(r2.service_count(), 1);
    }

    #[test]
    fn concurrent_publish_and_find() {
        let r = Registry::new();
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        r.save_service(BusinessService::new("", "b", format!("S{w}-{i}")));
                    }
                })
            })
            .collect();
        let reader = {
            let r = r.clone();
            std::thread::spawn(move || {
                for _ in 0..100 {
                    let _ = r.find_services(&ServiceQuery::all());
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();
        assert_eq!(r.service_count(), 200);
    }
}
