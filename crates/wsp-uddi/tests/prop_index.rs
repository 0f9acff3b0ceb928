//! The registry's derived maps against the scan they replaced.
//!
//! `Registry` answers `%`-free name queries from a folded-name index and
//! finds orphaned tModels from a reference count. Here both are checked
//! against the brute-force reference — a filter over all records, kept
//! in this test only — across generated histories of saves, renames
//! under an unchanged key, deletes and record-only removals.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use wsp_uddi::{BindingTemplate, BusinessService, KeyedReference, Registry, ServiceQuery, TModel};

const KEYS: u64 = 6;
const TMODELS: u64 = 3;

#[derive(Debug, Clone)]
enum Op {
    Save(BusinessService),
    Delete(String),
    RemoveRecord(String),
}

fn key() -> impl Strategy<Value = String> {
    (0..KEYS).prop_map(|k| format!("svc-{k}"))
}

/// Few letters in both cases (one of them outside ASCII), so that
/// generated names collide, differ only by case, and are renamed onto
/// each other.
fn name() -> impl Strategy<Value = String> {
    "[abABéÉ]{0,3}"
}

fn category() -> impl Strategy<Value = KeyedReference> {
    (0..2u8, 0..2u8)
        .prop_map(|(tm, v)| KeyedReference::new(format!("cat-{tm}"), "", format!("v{v}")))
}

fn service() -> impl Strategy<Value = BusinessService> {
    (
        key(),
        name(),
        proptest::collection::vec(category(), 0..3),
        proptest::collection::vec(0..TMODELS, 0..3),
    )
        .prop_map(|(key, name, categories, tmodels)| {
            let mut binding = BindingTemplate::new(format!("bind-{key}"), "http://h/x");
            for tm in tmodels {
                binding = binding.with_tmodel(format!("tm-{tm}"));
            }
            let mut svc = BusinessService::new(key, "biz", name).with_binding(binding);
            svc.categories = categories;
            svc
        })
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        service().prop_map(Op::Save),
        service().prop_map(Op::Save),
        key().prop_map(Op::Delete),
        key().prop_map(Op::RemoveRecord),
    ]
}

fn query() -> impl Strategy<Value = ServiceQuery> {
    (
        proptest::option::of(prop_oneof![name(), "[abAB%éÉ]{0,4}"]),
        proptest::collection::vec(category(), 0..2),
        0..4usize,
    )
        .prop_map(|(name_pattern, categories, max_rows)| ServiceQuery {
            name_pattern,
            categories,
            max_rows,
        })
}

/// What `find_services` must return: every record, in key order,
/// filtered and then cut.
fn scan(records: &BTreeMap<String, BusinessService>, query: &ServiceQuery) -> Vec<BusinessService> {
    let mut out: Vec<BusinessService> = records
        .values()
        .filter(|s| query.matches(s))
        .cloned()
        .collect();
    if query.max_rows > 0 {
        out.truncate(query.max_rows);
    }
    out
}

fn referenced(records: &BTreeMap<String, BusinessService>, tmodel: &str) -> bool {
    records
        .values()
        .flat_map(|s| &s.bindings)
        .any(|b| b.tmodel_keys.iter().any(|k| k == tmodel))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn find_and_orphan_collection_equal_the_scan(
        ops in proptest::collection::vec(op(), 0..24),
        queries in proptest::collection::vec(query(), 1..8),
    ) {
        let registry = Registry::new();
        let mut records: BTreeMap<String, BusinessService> = BTreeMap::new();
        let mut tmodels: BTreeSet<String> = (0..TMODELS).map(|tm| format!("tm-{tm}")).collect();
        for tm in &tmodels {
            registry.save_tmodel(TModel::new(tm.clone(), "interface"));
        }
        for op in ops {
            match op {
                Op::Save(svc) => {
                    registry.save_service(svc.clone());
                    records.insert(svc.key.clone(), svc);
                }
                Op::Delete(key) => {
                    let removed = records.remove(&key);
                    prop_assert_eq!(registry.delete_service(&key), removed.is_some());
                    for binding in removed.iter().flat_map(|s| &s.bindings) {
                        for tm in &binding.tmodel_keys {
                            if !referenced(&records, tm) {
                                tmodels.remove(tm);
                            }
                        }
                    }
                }
                Op::RemoveRecord(key) => {
                    let existed = records.remove(&key).is_some();
                    prop_assert_eq!(registry.remove_service_record(&key), existed);
                }
            }
            for query in &queries {
                prop_assert_eq!(registry.find_services(query), scan(&records, query), "{query:?}");
            }
            // Mixed-case spellings of a stored name find the same records.
            for stored in records.values() {
                let shouted = ServiceQuery::by_name(stored.name.to_uppercase());
                if shouted.exact_name().is_some() {
                    prop_assert_eq!(registry.find_services(&shouted), scan(&records, &shouted));
                }
            }
        }
        prop_assert_eq!(registry.service_count(), records.len());
        for tm in 0..TMODELS {
            let tm = format!("tm-{tm}");
            prop_assert_eq!(registry.get_tmodel(&tm).is_some(), tmodels.contains(&tm), "{tm}");
        }
    }
}
