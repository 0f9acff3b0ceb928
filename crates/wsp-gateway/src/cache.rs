//! The gateway's three caches — locate results, WSDL documents,
//! idempotent responses — behind one mutex and one [`EventWheel`].
//!
//! TTLs are enforced by wheel entries, not per-lookup timestamp
//! comparisons: every insert schedules an `Expiry` event and remembers
//! its [`EventKey`]; every replace or invalidation cancels the old key
//! (the wheel's exactness contract means a cancelled key never fires),
//! so any expiry event that *does* pop refers to a live entry and can
//! drop it without re-checking. The wheel runs on the µs of
//! [`wsp_core::telemetry::clock::micros`], advanced lazily at the top of
//! every cache operation.
//!
//! TTL expiry is the backstop, not the invalidation path. Freshness
//! comes from the registry's version stamps, piggybacked two ways:
//!
//! * **map epoch** — an epoch different from the one the routing
//!   entries were filled at means placement changed (a failover moved
//!   primaries); every locate and WSDL entry is flushed;
//! * **per-shard data versions** — a bumped shard version means some
//!   service on that shard was republished, deleted, or lease-expired;
//!   only that shard's entries are dropped, so a republish reaches
//!   gateway clients on the next revalidation probe instead of waiting
//!   out the TTL.
//!
//! The response cache is bounded (FIFO eviction) and recycles its
//! buffers through the wire-path [`BufPool`], so cache-hit responses
//! are assembled from pooled buffers instead of fresh allocations.

use crate::bump;
use crate::pool::Backend;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;
use wsp_core::telemetry::clock;
use wsp_registry::DataVersions;
use wsp_simnet::{EventKey, EventWheel, Time};
use wsp_xml::BufPool;

/// TTLs and bounds for the three caches.
#[derive(Debug, Clone)]
pub struct GatewayCacheConfig {
    pub locate_ttl: Duration,
    pub wsdl_ttl: Duration,
    pub response_ttl: Duration,
    /// Max resident cached responses; FIFO eviction beyond it.
    pub response_capacity: usize,
}

impl Default for GatewayCacheConfig {
    fn default() -> Self {
        GatewayCacheConfig {
            locate_ttl: Duration::from_secs(5),
            wsdl_ttl: Duration::from_secs(30),
            response_ttl: Duration::from_secs(2),
            response_capacity: 256,
        }
    }
}

/// Identity of a cached response: service + operation + request-body
/// hash. The entry also stores the exact request bytes — a hit requires
/// a byte-equal request, so a hash collision degrades to a miss, never
/// to serving the wrong response.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResponseKey {
    pub service: String,
    pub operation: String,
    pub body_hash: u64,
}

/// A cached backend response, ready to replay.
#[derive(Debug, Clone)]
pub struct CachedResponse {
    pub status: u16,
    pub content_type: String,
    pub body: Vec<u8>,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Expiry {
    Locate(String),
    Wsdl(String),
    Response(ResponseKey),
}

struct LocateEntry {
    backends: Arc<[Backend]>,
    shard: u32,
    key: EventKey,
}

struct WsdlEntry {
    body: String,
    shard: u32,
    key: EventKey,
}

struct ResponseEntry {
    request: Vec<u8>,
    status: u16,
    content_type: String,
    body: Vec<u8>,
    shard: u32,
    key: EventKey,
}

struct CacheInner {
    wheel: EventWheel<Expiry>,
    locate: HashMap<String, LocateEntry>,
    wsdl: HashMap<String, WsdlEntry>,
    response: HashMap<ResponseKey, ResponseEntry>,
    response_order: VecDeque<ResponseKey>,
    /// The map epoch the routing entries were filled under.
    epoch: u64,
    /// Last adopted per-shard data versions.
    versions: Vec<u64>,
}

pub struct GatewayCaches {
    cfg: GatewayCacheConfig,
    inner: Mutex<CacheInner>,
}

impl GatewayCaches {
    pub fn new(cfg: GatewayCacheConfig) -> GatewayCaches {
        GatewayCaches {
            cfg,
            inner: Mutex::new(CacheInner {
                wheel: EventWheel::new(),
                locate: HashMap::new(),
                wsdl: HashMap::new(),
                response: HashMap::new(),
                response_order: VecDeque::new(),
                epoch: 0,
                versions: Vec::new(),
            }),
        }
    }

    pub fn config(&self) -> &GatewayCacheConfig {
        &self.cfg
    }

    fn dur(d: Duration) -> wsp_simnet::Dur {
        wsp_simnet::Dur(d.as_micros() as u64)
    }

    /// Fire every expiry due by now. Popped events always refer to
    /// live entries (replaced/invalidated entries cancelled theirs).
    fn sweep(inner: &mut CacheInner) {
        let now = Time(clock::micros());
        while let Some(t) = inner.wheel.next_time() {
            if t > now {
                break;
            }
            let Some((_, expiry)) = inner.wheel.pop() else {
                break;
            };
            match expiry {
                Expiry::Locate(service) => {
                    if inner.locate.remove(&service).is_some() {
                        bump("gateway.cache.locate.evict");
                    }
                }
                Expiry::Wsdl(service) => {
                    if inner.wsdl.remove(&service).is_some() {
                        bump("gateway.cache.wsdl.evict");
                    }
                }
                Expiry::Response(key) => {
                    if let Some(entry) = inner.response.remove(&key) {
                        inner.response_order.retain(|k| k != &key);
                        recycle(entry);
                        bump("gateway.cache.response.evict");
                    }
                }
            }
        }
        inner.wheel.advance_to(now);
    }

    // -- locate ------------------------------------------------------------

    /// Cached backends for `service` (shared, not copied), if still
    /// fresh.
    pub fn get_locate(&self, service: &str) -> Option<(Arc<[Backend]>, u32)> {
        let mut inner = self.inner.lock();
        Self::sweep(&mut inner);
        match inner.locate.get(service) {
            Some(entry) => {
                bump("gateway.cache.locate.hit");
                Some((Arc::clone(&entry.backends), entry.shard))
            }
            None => {
                bump("gateway.cache.locate.miss");
                None
            }
        }
    }

    pub fn put_locate(&self, service: &str, backends: Arc<[Backend]>, shard: u32) {
        let mut inner = self.inner.lock();
        Self::sweep(&mut inner);
        let key = inner.wheel.schedule_after(
            Self::dur(self.cfg.locate_ttl),
            Expiry::Locate(service.to_owned()),
        );
        if let Some(old) = inner.locate.insert(
            service.to_owned(),
            LocateEntry {
                backends,
                shard,
                key,
            },
        ) {
            inner.wheel.cancel(old.key);
        }
    }

    // -- wsdl --------------------------------------------------------------

    pub fn get_wsdl(&self, service: &str) -> Option<String> {
        let mut inner = self.inner.lock();
        Self::sweep(&mut inner);
        match inner.wsdl.get(service) {
            Some(entry) => {
                bump("gateway.cache.wsdl.hit");
                Some(entry.body.clone())
            }
            None => {
                bump("gateway.cache.wsdl.miss");
                None
            }
        }
    }

    pub fn put_wsdl(&self, service: &str, body: String, shard: u32) {
        let mut inner = self.inner.lock();
        Self::sweep(&mut inner);
        let key = inner.wheel.schedule_after(
            Self::dur(self.cfg.wsdl_ttl),
            Expiry::Wsdl(service.to_owned()),
        );
        if let Some(old) = inner
            .wsdl
            .insert(service.to_owned(), WsdlEntry { body, shard, key })
        {
            inner.wheel.cancel(old.key);
        }
    }

    // -- responses ---------------------------------------------------------

    /// A cached response for this exact request (byte-equal), if fresh.
    /// The returned body is assembled from a pooled buffer.
    pub fn get_response(&self, key: &ResponseKey, request: &[u8]) -> Option<CachedResponse> {
        let mut inner = self.inner.lock();
        Self::sweep(&mut inner);
        match inner.response.get(key) {
            Some(entry) if entry.request == request => {
                bump("gateway.cache.response.hit");
                let mut body = BufPool::global().take();
                body.extend_from_slice(&entry.body);
                Some(CachedResponse {
                    status: entry.status,
                    content_type: entry.content_type.clone(),
                    body,
                })
            }
            _ => {
                bump("gateway.cache.response.miss");
                None
            }
        }
    }

    pub fn put_response(
        &self,
        key: ResponseKey,
        request: Vec<u8>,
        status: u16,
        content_type: String,
        body: Vec<u8>,
        shard: u32,
    ) {
        let mut inner = self.inner.lock();
        Self::sweep(&mut inner);
        // Replacing an existing key does not grow the cache, so only a
        // genuinely new key may need to evict a FIFO victim.
        if !inner.response.contains_key(&key) {
            while inner.response.len() >= self.cfg.response_capacity.max(1) {
                // FIFO victim; bounded cache, never grows past capacity.
                let Some(victim) = inner.response_order.pop_front() else {
                    break;
                };
                if let Some(entry) = inner.response.remove(&victim) {
                    inner.wheel.cancel(entry.key);
                    recycle(entry);
                    bump("gateway.cache.response.evict");
                }
            }
        }
        let wheel_key = inner.wheel.schedule_after(
            Self::dur(self.cfg.response_ttl),
            Expiry::Response(key.clone()),
        );
        if let Some(old) = inner.response.insert(
            key.clone(),
            ResponseEntry {
                request,
                status,
                content_type,
                body,
                shard,
                key: wheel_key,
            },
        ) {
            inner.wheel.cancel(old.key);
            inner.response_order.retain(|k| k != &key);
            recycle(old);
        }
        inner.response_order.push_back(key);
    }

    // -- invalidation ------------------------------------------------------

    /// Drop the routing entry and every cached response for `service`
    /// (used when every backend attempt failed — stale endpoints).
    pub fn invalidate_service(&self, service: &str) {
        let mut inner = self.inner.lock();
        Self::sweep(&mut inner);
        Self::drop_service_locked(&mut inner, service);
    }

    fn drop_service_locked(inner: &mut CacheInner, service: &str) {
        if let Some(entry) = inner.locate.remove(service) {
            inner.wheel.cancel(entry.key);
            bump("gateway.cache.locate.evict");
        }
        if let Some(entry) = inner.wsdl.remove(service) {
            inner.wheel.cancel(entry.key);
            bump("gateway.cache.wsdl.evict");
        }
        let doomed: Vec<ResponseKey> = inner
            .response
            .keys()
            .filter(|k| k.service == service)
            .cloned()
            .collect();
        for key in doomed {
            if let Some(entry) = inner.response.remove(&key) {
                inner.wheel.cancel(entry.key);
                inner.response_order.retain(|k| k != &key);
                recycle(entry);
                bump("gateway.cache.response.evict");
            }
        }
    }

    /// Adopt a registry version snapshot: flush everything on an epoch
    /// change (placement moved), or just the entries of shards whose
    /// data version bumped (records changed). Returns how many distinct
    /// services had entries dropped.
    pub fn revalidate(&self, dv: &DataVersions) -> usize {
        let mut inner = self.inner.lock();
        Self::sweep(&mut inner);
        let mut dropped = 0;
        if dv.epoch != inner.epoch {
            let services: HashSet<String> = inner
                .locate
                .keys()
                .chain(inner.wsdl.keys())
                .chain(inner.response.keys().map(|k| &k.service))
                .cloned()
                .collect();
            for service in services {
                Self::drop_service_locked(&mut inner, &service);
                dropped += 1;
            }
            inner.epoch = dv.epoch;
        } else {
            let changed: Vec<u32> = (0..dv.versions.len() as u32)
                .filter(|&s| {
                    let seen = inner.versions.get(s as usize).copied().unwrap_or(0);
                    dv.versions[s as usize] != seen
                })
                .collect();
            if !changed.is_empty() {
                // Every cached entry carries the shard it was filled
                // from — the locate entries alone are not enough, since
                // WSDL and response TTLs outlive the locate TTL and a
                // republish must flush those too.
                let stale: HashSet<String> = inner
                    .locate
                    .iter()
                    .filter(|(_, e)| changed.contains(&e.shard))
                    .map(|(name, _)| name.clone())
                    .chain(
                        inner
                            .wsdl
                            .iter()
                            .filter(|(_, e)| changed.contains(&e.shard))
                            .map(|(name, _)| name.clone()),
                    )
                    .chain(
                        inner
                            .response
                            .iter()
                            .filter(|(_, e)| changed.contains(&e.shard))
                            .map(|(k, _)| k.service.clone()),
                    )
                    .collect();
                for service in stale {
                    Self::drop_service_locked(&mut inner, &service);
                    dropped += 1;
                }
            }
        }
        inner.versions = dv.versions.clone();
        dropped
    }

    /// The epoch routing entries are currently filled under.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().epoch
    }

    /// Gauge lines for the `/metrics` splice.
    pub fn metrics_lines(&self) -> String {
        let mut inner = self.inner.lock();
        Self::sweep(&mut inner);
        format!(
            "gateway_locate_entries {}\ngateway_wsdl_entries {}\ngateway_response_entries {}\n",
            inner.locate.len(),
            inner.wsdl.len(),
            inner.response.len()
        )
    }

    pub fn locate_entries(&self) -> usize {
        self.inner.lock().locate.len()
    }

    pub fn response_entries(&self) -> usize {
        self.inner.lock().response.len()
    }
}

/// Return an evicted entry's buffers to the wire-path pool.
fn recycle(entry: ResponseEntry) {
    BufPool::global().put(entry.body);
    BufPool::global().put(entry.request);
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_simnet::fnv1a;

    fn caches(ttl_ms: u64, capacity: usize) -> GatewayCaches {
        GatewayCaches::new(GatewayCacheConfig {
            locate_ttl: Duration::from_millis(ttl_ms),
            wsdl_ttl: Duration::from_millis(ttl_ms),
            response_ttl: Duration::from_millis(ttl_ms),
            response_capacity: capacity,
        })
    }

    fn backends(endpoints: &[&str]) -> Arc<[Backend]> {
        endpoints
            .iter()
            .map(|e| Backend::parse((*e).to_owned()).expect("test endpoint parses"))
            .collect()
    }

    fn key(service: &str, body: &[u8]) -> ResponseKey {
        ResponseKey {
            service: service.to_owned(),
            operation: "op".to_owned(),
            body_hash: fnv1a(body),
        }
    }

    #[test]
    fn locate_round_trips_and_expires() {
        let c = caches(30, 8);
        assert!(c.get_locate("Echo").is_none());
        c.put_locate("Echo", backends(&["http://a/Echo"]), 2);
        let (eps, shard) = c.get_locate("Echo").unwrap();
        assert_eq!(eps, backends(&["http://a/Echo"]));
        assert_eq!(shard, 2);
        std::thread::sleep(Duration::from_millis(60));
        assert!(c.get_locate("Echo").is_none(), "TTL must expire the entry");
    }

    #[test]
    fn response_hits_are_byte_identical_and_collision_safe() {
        let c = caches(5_000, 8);
        let req = b"<env>request</env>".to_vec();
        let k = key("Echo", &req);
        c.put_response(
            k.clone(),
            req.clone(),
            200,
            "text/xml".into(),
            b"<env>reply</env>".to_vec(),
            0,
        );
        let hit = c.get_response(&k, &req).unwrap();
        assert_eq!(hit.body, b"<env>reply</env>");
        assert_eq!(hit.status, 200);
        // Same key, different bytes (a forced collision): must miss.
        assert!(c.get_response(&k, b"<env>other</env>").is_none());
    }

    #[test]
    fn response_cache_is_bounded_fifo() {
        let c = caches(60_000, 2);
        for i in 0..3 {
            let req = format!("<r>{i}</r>").into_bytes();
            c.put_response(
                key(&format!("S{i}"), &req),
                req,
                200,
                "t".into(),
                vec![i],
                0,
            );
        }
        assert_eq!(c.response_entries(), 2, "capacity bound must hold");
        let req0 = b"<r>0</r>".to_vec();
        assert!(
            c.get_response(&key("S0", &req0), &req0).is_none(),
            "the oldest entry is the FIFO victim"
        );
    }

    #[test]
    fn replacing_an_entry_cancels_the_old_expiry() {
        let c = caches(40, 8);
        c.put_locate("Echo", backends(&["http://a/Echo"]), 0);
        std::thread::sleep(Duration::from_millis(25));
        // Refresh: the original expiry (due at ~40ms) must not fire on
        // the refreshed entry.
        c.put_locate("Echo", backends(&["http://b/Echo"]), 0);
        std::thread::sleep(Duration::from_millis(25));
        let (eps, _) = c.get_locate("Echo").expect("refreshed entry still live");
        assert_eq!(eps, backends(&["http://b/Echo"]));
    }

    #[test]
    fn epoch_change_flushes_routing_entries() {
        let c = caches(60_000, 8);
        c.put_locate("A", backends(&["http://a/A"]), 0);
        c.put_locate("B", backends(&["http://b/B"]), 1);
        c.put_wsdl("A", "<wsdl/>".into(), 0);
        let dropped = c.revalidate(&DataVersions {
            epoch: 3,
            versions: vec![0, 0],
        });
        assert!(dropped >= 2);
        assert!(c.get_locate("A").is_none());
        assert!(c.get_locate("B").is_none());
        assert!(c.get_wsdl("A").is_none());
        assert_eq!(c.epoch(), 3);
    }

    #[test]
    fn shard_version_bump_drops_only_that_shard() {
        let c = caches(60_000, 8);
        c.revalidate(&DataVersions {
            epoch: 0,
            versions: vec![0, 0],
        });
        c.put_locate("A", backends(&["http://a/A"]), 0);
        c.put_locate("B", backends(&["http://b/B"]), 1);
        let req = b"<r/>".to_vec();
        c.put_response(key("A", &req), req.clone(), 200, "t".into(), vec![1], 0);
        c.revalidate(&DataVersions {
            epoch: 0,
            versions: vec![7, 0],
        });
        assert!(c.get_locate("A").is_none(), "shard 0 changed");
        assert!(c.get_locate("B").is_some(), "shard 1 did not");
        assert!(
            c.get_response(&key("A", &req), &req).is_none(),
            "responses for the changed service must go too"
        );
        // An identical snapshot is a no-op.
        c.put_locate("A", backends(&["http://a/A"]), 0);
        assert_eq!(
            c.revalidate(&DataVersions {
                epoch: 0,
                versions: vec![7, 0],
            }),
            0
        );
        assert!(c.get_locate("A").is_some());
    }

    #[test]
    fn shard_version_bump_flushes_wsdl_and_responses_without_a_locate_entry() {
        // Regression: with locate_ttl < wsdl_ttl the locate entry
        // expires first; a republish after that must still flush the
        // cached WSDL and responses, which carry their own shard tags.
        let c = caches(60_000, 8);
        c.revalidate(&DataVersions {
            epoch: 0,
            versions: vec![0, 0],
        });
        c.put_wsdl("A", "<wsdl old/>".into(), 0);
        let req = b"<r/>".to_vec();
        c.put_response(key("B", &req), req.clone(), 200, "t".into(), vec![9], 1);
        // No locate entries at all — exactly the post-locate-expiry
        // state — yet both shard bumps must reach their entries.
        let dropped = c.revalidate(&DataVersions {
            epoch: 0,
            versions: vec![5, 5],
        });
        assert_eq!(dropped, 2, "one service per changed shard");
        assert!(
            c.get_wsdl("A").is_none(),
            "stale WSDL flushed via its shard"
        );
        assert!(
            c.get_response(&key("B", &req), &req).is_none(),
            "stale response flushed via its shard"
        );
    }

    #[test]
    fn replacing_a_response_does_not_evict_an_unrelated_entry() {
        let c = caches(60_000, 2);
        let req0 = b"<r>0</r>".to_vec();
        let req1 = b"<r>1</r>".to_vec();
        c.put_response(key("S0", &req0), req0.clone(), 200, "t".into(), vec![0], 0);
        c.put_response(key("S1", &req1), req1.clone(), 200, "t".into(), vec![1], 0);
        // Replace S1 at capacity: no growth, so no victim is owed.
        c.put_response(key("S1", &req1), req1.clone(), 200, "t".into(), vec![2], 0);
        assert_eq!(c.response_entries(), 2);
        assert!(
            c.get_response(&key("S0", &req0), &req0).is_some(),
            "a replacement must not evict an unrelated entry"
        );
        assert_eq!(
            c.get_response(&key("S1", &req1), &req1).unwrap().body,
            vec![2]
        );
    }

    #[test]
    fn epoch_flush_counts_each_service_once() {
        let c = caches(60_000, 8);
        c.put_locate("A", backends(&["http://a/A"]), 0);
        c.put_wsdl("A", "<wsdl/>".into(), 0);
        let dropped = c.revalidate(&DataVersions {
            epoch: 9,
            versions: vec![0],
        });
        assert_eq!(
            dropped, 1,
            "a service in both maps is one flushed service, not two"
        );
    }
}
