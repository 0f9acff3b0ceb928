//! Advertisement caches with expiry — the peer-local store that
//! queries are answered from.

use crate::advert::ServiceAdvertisement;
use crate::id::PeerId;
use crate::query::P2psQuery;
use std::sync::{Arc, OnceLock};
use wsp_simnet::Time;
use wsp_telemetry::Counter;

/// `advert_cache_{hits,misses,expired,evicted}`, summed over every cache
/// in the process: lookups with and without a live advert, entries
/// dropped by their TTL and by capacity pressure.
fn counters() -> &'static [Arc<Counter>; 4] {
    static COUNTERS: OnceLock<[Arc<Counter>; 4]> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let registry = wsp_telemetry::global();
        ["hits", "misses", "expired", "evicted"]
            .map(|n| registry.counter(format!("advert_cache_{n}")))
    })
}

/// Key identifying an advert in the cache: publisher + service name.
fn key_of(advert: &ServiceAdvertisement) -> (PeerId, String) {
    (advert.peer, advert.name.clone())
}

#[derive(Debug, Clone)]
struct Entry {
    advert: ServiceAdvertisement,
    /// `None` = never expires (the peer's own adverts).
    expires: Option<Time>,
}

/// A peer's advertisement cache. Expiry is lazy: entries are dropped
/// when observed past their deadline, so the machine needs no timers.
#[derive(Debug, Default)]
pub struct AdvertCache {
    entries: Vec<Entry>,
    capacity: usize,
}

impl AdvertCache {
    /// An unbounded cache (rendezvous peers); bound it for ordinary
    /// peers with [`AdvertCache::with_capacity`].
    pub fn new() -> Self {
        AdvertCache {
            entries: Vec::new(),
            capacity: usize::MAX,
        }
    }

    pub fn with_capacity(capacity: usize) -> Self {
        AdvertCache {
            entries: Vec::new(),
            capacity,
        }
    }

    /// Insert or refresh an advert. Replaces an entry for the same
    /// (peer, service); evicts the soonest-expiring remote entry when
    /// full.
    pub fn insert(&mut self, advert: ServiceAdvertisement, expires: Option<Time>) {
        let key = key_of(&advert);
        if let Some(existing) = self.entries.iter_mut().find(|e| key_of(&e.advert) == key) {
            existing.advert = advert;
            // Keep the later of the two deadlines (refresh extends).
            existing.expires = match (existing.expires, expires) {
                (None, _) | (_, None) => None,
                (Some(a), Some(b)) => Some(a.max(b)),
            };
            return;
        }
        if self.entries.len() >= self.capacity {
            // Evict the remote entry closest to expiry; never evict own
            // (non-expiring) adverts.
            if let Some(victim) = self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.expires.is_some())
                .min_by_key(|(_, e)| e.expires)
                .map(|(i, _)| i)
            {
                self.entries.swap_remove(victim);
                let [.., evicted] = counters();
                evicted.incr();
            } else {
                return; // full of permanent entries: drop the newcomer
            }
        }
        self.entries.push(Entry { advert, expires });
    }

    /// Drop entries expired at `now`.
    pub fn sweep(&mut self, now: Time) {
        let before = self.entries.len();
        self.entries
            .retain(|e| e.expires.map(|t| t > now).unwrap_or(true));
        let dropped = (before - self.entries.len()) as u64;
        if dropped > 0 {
            let [_, _, expired, _] = counters();
            expired.add(dropped);
        }
    }

    /// All live adverts matching `query`.
    pub fn find(&mut self, query: &P2psQuery, now: Time) -> Vec<ServiceAdvertisement> {
        self.sweep(now);
        let found: Vec<ServiceAdvertisement> = self
            .entries
            .iter()
            .filter(|e| query.matches(&e.advert))
            .map(|e| e.advert.clone())
            .collect();
        let [hits, misses, ..] = counters();
        if found.is_empty() {
            misses.incr();
        } else {
            hits.incr();
        }
        found
    }

    /// Remove adverts published by `peer` (e.g. its own on unpublish).
    pub fn remove_from(&mut self, peer: PeerId, service: &str) -> bool {
        let before = self.entries.len();
        self.entries
            .retain(|e| !(e.advert.peer == peer && e.advert.name == service));
        self.entries.len() != before
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn advert(peer: u64, name: &str) -> ServiceAdvertisement {
        ServiceAdvertisement::new(name, PeerId(peer))
    }

    #[test]
    fn find_matches_and_sweeps() {
        let mut cache = AdvertCache::new();
        cache.insert(advert(1, "Echo"), Some(Time::secs(10)));
        cache.insert(advert(2, "Math"), Some(Time::secs(100)));
        let hits = cache.find(&P2psQuery::by_name("Echo"), Time::secs(5));
        assert_eq!(hits.len(), 1);
        // At t=50 the Echo advert expired.
        let hits = cache.find(&P2psQuery::any(), Time::secs(50));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].name, "Math");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn permanent_entries_never_expire() {
        let mut cache = AdvertCache::new();
        cache.insert(advert(1, "Own"), None);
        cache.sweep(Time::secs(1_000_000));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn refresh_replaces_and_extends() {
        let mut cache = AdvertCache::new();
        cache.insert(advert(1, "Echo"), Some(Time::secs(10)));
        let updated = advert(1, "Echo").with_attribute("v", "2");
        cache.insert(updated.clone(), Some(Time::secs(30)));
        assert_eq!(cache.len(), 1);
        let hits = cache.find(&P2psQuery::any(), Time::secs(20));
        assert_eq!(hits, vec![updated]);
    }

    #[test]
    fn refresh_never_shortens_deadline() {
        let mut cache = AdvertCache::new();
        cache.insert(advert(1, "Echo"), Some(Time::secs(100)));
        cache.insert(advert(1, "Echo"), Some(Time::secs(10)));
        assert_eq!(cache.find(&P2psQuery::any(), Time::secs(50)).len(), 1);
    }

    #[test]
    fn capacity_evicts_soonest_expiring() {
        let mut cache = AdvertCache::with_capacity(2);
        cache.insert(advert(1, "A"), Some(Time::secs(10)));
        cache.insert(advert(2, "B"), Some(Time::secs(99)));
        cache.insert(advert(3, "C"), Some(Time::secs(50)));
        let names: Vec<String> = cache
            .find(&P2psQuery::any(), Time::ZERO)
            .into_iter()
            .map(|a| a.name)
            .collect();
        assert_eq!(cache.len(), 2);
        assert!(
            names.contains(&"B".to_owned()) && names.contains(&"C".to_owned()),
            "{names:?}"
        );
    }

    #[test]
    fn own_adverts_survive_eviction_pressure() {
        let mut cache = AdvertCache::with_capacity(1);
        cache.insert(advert(1, "Own"), None);
        cache.insert(advert(2, "Remote"), Some(Time::secs(5)));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.find(&P2psQuery::any(), Time::ZERO)[0].name, "Own");
    }

    #[test]
    fn remove_from_unpublishes() {
        let mut cache = AdvertCache::new();
        cache.insert(advert(1, "Echo"), None);
        cache.insert(advert(1, "Math"), None);
        assert!(cache.remove_from(PeerId(1), "Echo"));
        assert!(!cache.remove_from(PeerId(1), "Echo"));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn stats_count_hits_misses_expiry_and_eviction() {
        let registry = wsp_telemetry::global();
        let [hits, misses, expired, evicted] = ["hits", "misses", "expired", "evicted"]
            .map(|n| registry.counter(format!("advert_cache_{n}")));
        let (h0, m0, x0, v0) = (hits.get(), misses.get(), expired.get(), evicted.get());
        let mut cache = AdvertCache::with_capacity(1);
        cache.insert(advert(1, "Echo"), Some(Time::secs(10)));
        assert_eq!(cache.find(&P2psQuery::by_name("Echo"), Time::ZERO).len(), 1);
        assert!(hits.get() > h0);
        assert!(cache
            .find(&P2psQuery::by_name("Nope"), Time::ZERO)
            .is_empty());
        assert!(misses.get() > m0);
        // Capacity pressure evicts the held entry...
        cache.insert(advert(2, "Math"), Some(Time::secs(10)));
        assert!(evicted.get() > v0);
        // ...and the survivor expires off the clock.
        cache.sweep(Time::secs(11));
        assert!(expired.get() > x0);
        assert!(cache.is_empty());
    }

    #[test]
    fn same_service_name_different_peers_coexist() {
        let mut cache = AdvertCache::new();
        cache.insert(advert(1, "Echo"), None);
        cache.insert(advert(2, "Echo"), None);
        assert_eq!(cache.find(&P2psQuery::by_name("Echo"), Time::ZERO).len(), 2);
    }
}
