//! The registry proper: a thread-safe store with publish and inquiry
//! operations.
//!
//! Services live in one [`ServiceStore`] under one lock: the records by
//! key, and two derived maps that every write keeps in step with them so
//! that no inquiry or undeploy has to walk the records —
//!
//! * `by_name`: case-folded name → keys of the records carrying it.
//!   `records[k].name` folds to `n` **iff** `by_name[n]` contains `k`;
//!   each key list is sorted (results come back in key order, exactly as
//!   a scan of the records would give them) and never empty.
//! * `tmodel_refs`: tModel key → how many binding references to it the
//!   records hold; an entry exists **iff** its count is positive.
//!
//! The fold is [`crate::query::fold`], the same one `wildcard_match`
//! compares through, so the index answers exactly the queries a scan
//! would.

use crate::model::{BusinessEntity, BusinessService, TModel};
use crate::query::{fold, wildcard_match, ServiceQuery};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
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
    services: RwLock<ServiceStore>,
    tmodels: RwLock<BTreeMap<String, TModel>>,
    next_key: AtomicU64,
}

/// The service records and the two maps derived from them (module doc).
#[derive(Default)]
struct ServiceStore {
    records: BTreeMap<String, BusinessService>,
    by_name: HashMap<String, Vec<String>>,
    tmodel_refs: HashMap<String, usize>,
}

fn tmodel_keys(service: &BusinessService) -> impl Iterator<Item = &String> {
    service.bindings.iter().flat_map(|b| &b.tmodel_keys)
}

impl ServiceStore {
    fn index_name(&mut self, name: &str, key: &str) {
        let keys = self.by_name.entry(fold(name).collect()).or_default();
        if let Err(at) = keys.binary_search_by(|k| k.as_str().cmp(key)) {
            keys.insert(at, key.to_owned());
        }
    }

    fn unindex_name(&mut self, name: &str, key: &str) {
        let folded: String = fold(name).collect();
        if let Some(keys) = self.by_name.get_mut(&folded) {
            keys.retain(|k| k != key);
            if keys.is_empty() {
                self.by_name.remove(&folded);
            }
        }
    }

    fn add_refs(&mut self, service: &BusinessService) {
        for tmodel in tmodel_keys(service) {
            *self.tmodel_refs.entry(tmodel.clone()).or_default() += 1;
        }
    }

    /// Drop `service`'s references; returns the tModels nothing
    /// references any more.
    fn drop_refs(&mut self, service: &BusinessService) -> Vec<String> {
        let mut orphaned = Vec::new();
        for tmodel in tmodel_keys(service) {
            if let Some(count) = self.tmodel_refs.get_mut(tmodel) {
                *count -= 1;
                if *count == 0 {
                    self.tmodel_refs.remove(tmodel);
                    orphaned.push(tmodel.clone());
                }
            }
        }
        orphaned
    }

    /// Insert or replace. A republish that changes neither the name nor
    /// the tModel references — a lease refresh, a moved access point —
    /// touches neither derived map and folds nothing.
    fn save(&mut self, service: BusinessService) {
        match self.records.get_mut(&service.key) {
            Some(slot) => {
                let renamed = slot.name != service.name;
                let rebound = !tmodel_keys(slot).eq(tmodel_keys(&service));
                if !renamed && !rebound {
                    *slot = service;
                    return;
                }
                let old = std::mem::replace(slot, service.clone());
                if renamed {
                    self.unindex_name(&old.name, &old.key);
                    self.index_name(&service.name, &service.key);
                }
                if rebound {
                    self.drop_refs(&old);
                    self.add_refs(&service);
                }
            }
            None => {
                self.index_name(&service.name, &service.key);
                self.add_refs(&service);
                self.records.insert(service.key.clone(), service);
            }
        }
    }

    /// Remove a record and its index entries; returns the tModels it
    /// was the last to reference (`None`: no such record).
    fn remove(&mut self, key: &str) -> Option<Vec<String>> {
        let removed = self.records.remove(key)?;
        self.unindex_name(&removed.name, key);
        Some(self.drop_refs(&removed))
    }

    fn find(&self, query: &ServiceQuery) -> Vec<BusinessService> {
        let limit = if query.max_rows > 0 {
            query.max_rows
        } else {
            usize::MAX
        };
        match query.exact_name() {
            Some(name) => {
                let folded: String = fold(name).collect();
                let keys = self.by_name.get(&folded).map_or(&[][..], Vec::as_slice);
                keys.iter()
                    .map(|key| &self.records[key])
                    .filter(|s| query.matches_categories(s))
                    .take(limit)
                    .cloned()
                    .collect()
            }
            None => self
                .records
                .values()
                .filter(|s| query.matches(s))
                .take(limit)
                .cloned()
                .collect(),
        }
    }
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
        self.put_service(service.clone());
        service
    }

    /// Insert or replace a record keyed elsewhere, as it is: a shard
    /// replica stores the record its group logged, keys and all.
    pub fn put_service(&self, service: BusinessService) {
        self.inner.services.write().save(service);
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
    /// leaks it). True if the service existed. Costs the removed
    /// record's own bindings, whatever else the registry holds.
    pub fn delete_service(&self, key: &str) -> bool {
        let mut services = self.inner.services.write();
        let Some(orphaned) = services.remove(key) else {
            return false;
        };
        if !orphaned.is_empty() {
            // Still under the services lock: a concurrent save cannot
            // start referencing a tModel between the count and the drop.
            let mut tmodels = self.inner.tmodels.write();
            for tmodel in &orphaned {
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

    /// Run a `find_service` query; results in key order. A `%`-free
    /// name is answered from the name index, anything else by matching
    /// every record.
    pub fn find_services(&self, query: &ServiceQuery) -> Vec<BusinessService> {
        self.inner.services.read().find(query)
    }

    pub fn get_service(&self, key: &str) -> Option<BusinessService> {
        self.inner.services.read().records.get(key).cloned()
    }

    pub fn get_business(&self, key: &str) -> Option<BusinessEntity> {
        self.inner.businesses.read().get(key).cloned()
    }

    /// `(key, name)` of every business whose name matches `pattern`
    /// (`%` wildcards), in key order.
    pub fn find_businesses(&self, pattern: &str) -> Vec<(String, String)> {
        self.inner
            .businesses
            .read()
            .values()
            .filter(|biz| wildcard_match(pattern, &biz.name))
            .map(|biz| (biz.key.clone(), biz.name.clone()))
            .collect()
    }

    pub fn get_tmodel(&self, key: &str) -> Option<TModel> {
        self.inner.tmodels.read().get(key).cloned()
    }

    pub fn service_count(&self) -> usize {
        self.inner.services.read().records.len()
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
