//! [`ShardedUddiClient`]: the consumer side of the replicated
//! discovery plane.
//!
//! The client caches the version-stamped [`ShardMap`], routes every
//! publish to the owning shard's primary and stamps the epoch it
//! believes in on the request.
//!
//! A locate is one `find_serviceDetail` exchange per node asked, and
//! how many nodes are asked depends on the query alone. A name without
//! a `%` can only match records whose name has the same case fold, and
//! placement hashes that fold — so an **exact-name** locate is *routed*:
//! one exchange with the primary of the one shard that can own the
//! name, answered from that node's name index. Anything else — a `%`
//! pattern, `ServiceQuery::all()` — is *scattered* over a minimal cover
//! (one node per shard, a node answering for every shard it hosts) and
//! the answers merged by key, in key order, cut to `max_rows` after the
//! merge. Either way a node that redirects or does not answer costs a
//! map refresh and a second try, then a walk over the members of the
//! shards concerned; reads are served from the local replica of
//! whichever member answers, so they tolerate the staleness of one
//! in-flight commit, never a missing record.
//!
//! Three things can go wrong, and each has a recovery path that needs
//! no operator:
//!
//! * **stale map** — the node answers `wsp:staleShardMap` with the
//!   fresh map in the fault detail; the client swaps its cache and
//!   retries (`ShardMapChanged` invalidation);
//! * **wrong primary** — `wsp:notPrimary` carries the same detail;
//!   refresh and retry against the real primary;
//! * **dead primary** — the transport errors; the per-endpoint circuit
//!   breaker records the failure and the client fails over to the
//!   shard's backups in preference order, whose write path runs the
//!   view change server-side.
//!
//! Retry counts come from the session [`ResiliencePolicy`]; every
//! publish/locate lands in the `registry.publish` / `registry.locate`
//! telemetry series the `/metrics` endpoint exports
//! (`registry.locate.routed` / `.scattered` say which kind it was). The
//! series' handles are resolved once per client, not per call.

use crate::shard::ShardMap;
use parking_lot::RwLock;
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;
use wsp_core::telemetry::{self, Counter, Histogram};
use wsp_core::{Admission, BreakerConfig, EndpointHealth, ResiliencePolicy};
use wsp_soap::Fault;
pub use wsp_uddi::DataVersions;
use wsp_uddi::{
    BusinessService, ServiceQuery, UddiError, UddiOp, UddiRequest, UddiResponse, UddiTransport,
};

/// Errors from the sharded discovery plane.
#[derive(Debug)]
pub enum RegistryError {
    /// No quorum / no reachable replica for the shard after failover.
    Unavailable(String),
    /// The registry answered, but with a non-recoverable error.
    Uddi(UddiError),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Unavailable(why) => write!(f, "discovery plane unavailable: {why}"),
            RegistryError::Uddi(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<UddiError> for RegistryError {
    fn from(e: UddiError) -> Self {
        RegistryError::Uddi(e)
    }
}

/// The shard map `transport`'s node answers `get_shardMap` with.
fn fetch_map(transport: &UddiTransport) -> Option<ShardMap> {
    match transport(&UddiRequest::new(UddiOp::GetShardMap)).ok()? {
        UddiResponse::Other(map) => ShardMap::from_element(&map),
        _ => None,
    }
}

/// What a routed call's fault told us to do next.
enum Recovery {
    /// Fresh map adopted; re-route and retry.
    Rerouted,
    /// Transport-level failure; try the next replica.
    NextReplica,
}

enum CallError {
    Recover(Recovery),
    Fatal(RegistryError),
}

/// The client's telemetry series, looked up once: a lookup takes the
/// telemetry registry's lock and allocates the name.
struct Series {
    publish: Arc<Counter>,
    publish_rtt_us: Arc<Histogram>,
    publish_errors: Arc<Counter>,
    publish_failovers: Arc<Counter>,
    publish_redirects: Arc<Counter>,
    locate: Arc<Counter>,
    locate_rtt_us: Arc<Histogram>,
    locate_errors: Arc<Counter>,
    locate_routed: Arc<Counter>,
    locate_scattered: Arc<Counter>,
}

impl Series {
    fn resolve() -> Series {
        let t = telemetry::global();
        Series {
            publish: t.counter("registry.publish"),
            publish_rtt_us: t.histogram("registry.publish.rtt_us"),
            publish_errors: t.counter("registry.publish.errors"),
            publish_failovers: t.counter("registry.publish.failovers"),
            publish_redirects: t.counter("registry.publish.redirects"),
            locate: t.counter("registry.locate"),
            locate_rtt_us: t.histogram("registry.locate.rtt_us"),
            locate_errors: t.counter("registry.locate.errors"),
            locate_routed: t.counter("registry.locate.routed"),
            locate_scattered: t.counter("registry.locate.scattered"),
        }
    }
}

/// A UDDI client that speaks to the whole discovery plane.
pub struct ShardedUddiClient {
    transports: Vec<UddiTransport>,
    endpoints: Vec<String>,
    map: RwLock<Arc<ShardMap>>,
    policy: ResiliencePolicy,
    health: EndpointHealth,
    series: Series,
}

impl ShardedUddiClient {
    /// Connect over per-node transports, bootstrapping the shard map
    /// from the first node that answers `get_shardMap`.
    pub fn connect(transports: Vec<UddiTransport>) -> Result<ShardedUddiClient, RegistryError> {
        assert!(!transports.is_empty(), "need at least one node transport");
        let map = transports.iter().find_map(fetch_map).ok_or_else(|| {
            RegistryError::Unavailable("no node answered get_shardMap".to_owned())
        })?;
        let endpoints = map.nodes().to_vec();
        Ok(ShardedUddiClient {
            transports,
            endpoints,
            map: RwLock::new(Arc::new(map)),
            policy: ResiliencePolicy::retrying(3),
            health: EndpointHealth::new(BreakerConfig::default()),
            series: Series::resolve(),
        })
    }

    /// Convenience: a client wired straight onto an in-process cluster.
    pub fn for_cluster(
        cluster: &crate::cluster::RegistryCluster,
    ) -> Result<ShardedUddiClient, RegistryError> {
        let transports = (0..cluster.endpoints().len())
            .map(|n| cluster.node_transport(n))
            .collect();
        ShardedUddiClient::connect(transports)
    }

    pub fn with_breaker_config(self, config: BreakerConfig) -> Self {
        self.health.set_config(config);
        self
    }

    /// The epoch of the currently cached map.
    pub fn cached_epoch(&self) -> u64 {
        self.map.read().epoch()
    }

    pub fn cached_map(&self) -> Arc<ShardMap> {
        self.map.read().clone()
    }

    pub fn health(&self) -> &EndpointHealth {
        &self.health
    }

    /// Fetch a fresh map from any answering node.
    pub fn refresh_map(&self) -> Result<Arc<ShardMap>, RegistryError> {
        match self.transports.iter().find_map(fetch_map) {
            Some(map) => Ok(self.adopt(map)),
            None => Err(RegistryError::Unavailable(
                "no node answered get_shardMap".to_owned(),
            )),
        }
    }

    /// The shard the cached map places `name` on.
    pub fn shard_of(&self, name: &str) -> u32 {
        self.map.read().shard_of(name)
    }

    /// Fetch the per-shard data versions from any answering node — the
    /// cheap revalidation probe caching consumers run between TTLs.
    pub fn data_versions(&self) -> Result<DataVersions, RegistryError> {
        let request = UddiRequest::new(UddiOp::GetDataVersions);
        let answered = self
            .transports
            .iter()
            .find_map(|transport| match transport(&request) {
                Ok(UddiResponse::DataVersions(versions)) => Some(versions),
                _ => None,
            });
        answered.ok_or_else(|| {
            RegistryError::Unavailable("no node answered get_dataVersions".to_owned())
        })
    }

    fn adopt(&self, map: ShardMap) -> Arc<ShardMap> {
        let mut cached = self.map.write();
        if map.epoch() >= cached.epoch() {
            *cached = Arc::new(map);
        }
        cached.clone()
    }

    /// Publish (or lease-refresh: same record, same key) a service.
    /// Routes to the owning shard's primary, failing over to backups on
    /// transport errors and re-routing on versioned redirects.
    pub fn publish(&self, service: &BusinessService) -> Result<BusinessService, RegistryError> {
        if service.name.is_empty() {
            return Err(RegistryError::Uddi(UddiError::Malformed(
                "service needs a name to shard on".into(),
            )));
        }
        let started = Instant::now();
        let shard = self.map.read().shard_of(&service.name);
        let save = UddiRequest::new(UddiOp::SaveService {
            tmodels: Cow::Borrowed(&[]),
            services: Cow::Borrowed(std::slice::from_ref(service)),
        });
        let result = self.routed_write_to_shard(shard, save, |response| match response {
            UddiResponse::ServiceDetail(saved) => saved.into_iter().next(),
            _ => None,
        });
        match &result {
            Ok(_) => {
                self.series.publish.incr();
                self.series.publish_rtt_us.record_micros(started.elapsed());
            }
            Err(_) => self.series.publish_errors.incr(),
        }
        result?.ok_or_else(|| {
            RegistryError::Uddi(UddiError::Malformed(
                "serviceDetail lacks businessService".into(),
            ))
        })
    }

    /// Unregister by key (cluster-minted keys embed their shard).
    pub fn delete(&self, key: &str) -> Result<bool, RegistryError> {
        let Some(shard) = crate::cluster::shard_of_key(key) else {
            return Ok(false);
        };
        let delete = UddiRequest::new(UddiOp::DeleteService(Cow::Owned(vec![key.to_owned()])));
        self.routed_write_to_shard(shard, delete, |response| {
            matches!(response, UddiResponse::Disposition { deleted: 1 })
        })
    }

    /// The failover write loop: primary first, then backups; versioned
    /// redirects refresh the cached map and restart the route. `request`
    /// goes out stamped with the epoch of the map it was routed by;
    /// `read` takes what the caller needs out of the answer.
    fn routed_write_to_shard<T>(
        &self,
        shard: u32,
        mut request: UddiRequest<'_>,
        read: impl Fn(UddiResponse) -> T,
    ) -> Result<T, RegistryError> {
        let attempts = self.policy.schedule().len().max(1) + 1;
        let mut last_err = "no replica reachable".to_owned();
        for _ in 0..attempts {
            let map = self.cached_map();
            let order = map.shard(shard).failover_order();
            let mut rerouted = false;
            for (hop, node) in order.iter().copied().enumerate() {
                if hop > 0 {
                    self.series.publish_failovers.incr();
                }
                request.map_epoch = Some(map.epoch());
                match self.call_node(node, &request, &read) {
                    Ok(body) => return Ok(body),
                    Err(CallError::Recover(Recovery::Rerouted)) => {
                        self.series.publish_redirects.incr();
                        rerouted = true;
                        break;
                    }
                    Err(CallError::Recover(Recovery::NextReplica)) => {
                        last_err = format!("node {node} unreachable");
                        continue;
                    }
                    Err(CallError::Fatal(e)) => return Err(e),
                }
            }
            if !rerouted {
                // Every replica refused at this epoch; one map refresh
                // may reveal a new view before we give up.
                if self.refresh_map().is_err() {
                    break;
                }
            }
        }
        Err(RegistryError::Unavailable(last_err))
    }

    /// One exchange with `node`, classified for the failover loop; `read`
    /// takes the answer unless it is a fault.
    fn call_node<T>(
        &self,
        node: usize,
        request: &UddiRequest<'_>,
        read: impl FnOnce(UddiResponse) -> T,
    ) -> Result<T, CallError> {
        let endpoint = &self.endpoints[node];
        let breaker = self.health.breaker(endpoint);
        let now = Instant::now();
        if matches!(breaker.try_acquire(now), Admission::Rejected) {
            return Err(CallError::Recover(Recovery::NextReplica));
        }
        let Ok(response) = (self.transports[node])(request) else {
            breaker.on_failure(Instant::now());
            return Err(CallError::Recover(Recovery::NextReplica));
        };
        breaker.on_success(Instant::now());
        match response {
            UddiResponse::Fault(fault) => Err(self.classify_fault(fault)),
            response => Ok(read(response)),
        }
    }

    /// Versioned redirects carry the fresh map in the fault detail;
    /// adopt it and re-route. Quorum loss is terminal for this call.
    fn classify_fault(&self, fault: Fault) -> CallError {
        let redirect = fault.reason.contains("wsp:staleShardMap")
            || fault.reason.contains("wsp:notPrimary")
            || fault.reason.contains("wsp:notMember");
        if redirect {
            if let Some(map) = fault.detail.as_deref().and_then(ShardMap::from_element) {
                self.adopt(map);
            } else {
                let _ = self.refresh_map();
            }
            return CallError::Recover(Recovery::Rerouted);
        }
        if fault.reason.contains("wsp:unavailable") {
            return CallError::Fatal(RegistryError::Unavailable(fault.reason));
        }
        CallError::Fatal(RegistryError::Uddi(UddiError::Fault(Box::new(fault))))
    }

    /// Locate services matching `query`: routed to the owning shard for
    /// an exact name, scattered over a cover of the shards otherwise
    /// (module doc). Results are in key order, at most `max_rows`.
    pub fn locate(&self, query: &ServiceQuery) -> Result<Vec<BusinessService>, RegistryError> {
        let started = Instant::now();
        match query.exact_name() {
            Some(_) => self.series.locate_routed.incr(),
            None => self.series.locate_scattered.incr(),
        }
        let result = self.locate_inner(query);
        match &result {
            Ok(_) => {
                self.series.locate.incr();
                self.series.locate_rtt_us.record_micros(started.elapsed());
            }
            Err(_) => self.series.locate_errors.incr(),
        }
        result
    }

    fn locate_inner(&self, query: &ServiceQuery) -> Result<Vec<BusinessService>, RegistryError> {
        // The shards that can hold an answer: the name's owner, or all.
        let shards_asked = |map: &ShardMap| match query.exact_name() {
            Some(name) => {
                let shard = map.shard_of(name);
                shard..shard + 1
            }
            None => 0..map.shard_count(),
        };
        for _ in 0..2 {
            let map = self.cached_map();
            // Greedy cover: one reachable node per shard, deduplicated —
            // a node serves every shard it hosts from its local store.
            let mut cover: Vec<usize> = Vec::new();
            for s in shards_asked(&map) {
                let info = map.shard(s);
                if !info.members.iter().any(|m| cover.contains(m)) {
                    cover.push(info.primary());
                }
            }
            let mut found = Vec::new();
            match cover
                .iter()
                .try_for_each(|&node| self.find_detail(query, map.epoch(), node, &mut found))
            {
                Ok(()) => return Ok(merged(found, query)),
                Err(CallError::Recover(_)) => {
                    // A cover node died or redirected: refresh the map
                    // (new views move primaries) and ask again.
                    let _ = self.refresh_map();
                }
                Err(CallError::Fatal(e)) => return Err(e),
            }
        }
        // Final attempt: walk every member per shard before giving up.
        let map = self.cached_map();
        let mut found = Vec::new();
        for s in shards_asked(&map) {
            let mut shard_ok = false;
            for &node in &map.shard(s).failover_order() {
                match self.find_detail(query, map.epoch(), node, &mut found) {
                    Ok(()) => {
                        shard_ok = true;
                        break;
                    }
                    Err(CallError::Recover(_)) => continue,
                    Err(CallError::Fatal(e)) => return Err(e),
                }
            }
            if !shard_ok {
                return Err(RegistryError::Unavailable(format!(
                    "no live replica for shard {s}"
                )));
            }
        }
        Ok(merged(found, query))
    }

    /// One `find_serviceDetail` exchange with `node`: the records it
    /// holds that match, appended to `found`.
    fn find_detail(
        &self,
        query: &ServiceQuery,
        epoch: u64,
        node: usize,
        found: &mut Vec<BusinessService>,
    ) -> Result<(), CallError> {
        let find = UddiRequest::new(UddiOp::FindServiceDetail(Cow::Borrowed(query))).stamped(epoch);
        let read = |response: UddiResponse| {
            match response {
                UddiResponse::ServiceDetail(records) if found.is_empty() => *found = records,
                UddiResponse::ServiceDetail(records) => found.extend(records),
                _ => return false,
            }
            true
        };
        match self.call_node(node, &find, read)? {
            true => Ok(()),
            false => Err(CallError::Fatal(RegistryError::Uddi(UddiError::Malformed(
                "the answer to find_serviceDetail is not a serviceDetail".into(),
            )))),
        }
    }
}

/// Merge what the nodes asked returned: one record per key, key order,
/// cut to the query's `max_rows` — each node applied the cap to its own
/// records, the merge must apply it again. (A single node's answer is
/// already all of that; the pass over it changes nothing.)
fn merged(mut found: Vec<BusinessService>, query: &ServiceQuery) -> Vec<BusinessService> {
    found.sort_by(|a, b| a.key.cmp(&b.key));
    found.dedup_by(|a, b| a.key == b.key);
    if query.max_rows > 0 {
        found.truncate(query.max_rows);
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, RegistryCluster};
    use wsp_uddi::{BindingTemplate, ServiceQuery};

    fn plane() -> (RegistryCluster, ShardedUddiClient) {
        let cluster = RegistryCluster::new(ClusterConfig {
            nodes: 3,
            shard_count: 4,
            replication: 3,
            default_ttl: None,
        });
        let client = ShardedUddiClient::for_cluster(&cluster).unwrap();
        (cluster, client)
    }

    fn svc(name: &str) -> BusinessService {
        BusinessService::new("", "biz", name)
            .with_binding(BindingTemplate::new("", format!("http://h/{name}")))
    }

    #[test]
    fn publish_then_locate_round_trip() {
        let (_cluster, client) = plane();
        let saved = client.publish(&svc("EchoService")).unwrap();
        assert!(saved.key.starts_with("uuid:svc-s"));
        let found = client
            .locate(&ServiceQuery::by_name("EchoService"))
            .unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].key, saved.key);
    }

    #[test]
    fn scatter_locate_merges_across_shards() {
        let (_cluster, client) = plane();
        for i in 0..16 {
            client.publish(&svc(&format!("Svc{i}"))).unwrap();
        }
        let found = client.locate(&ServiceQuery::by_name("Svc%")).unwrap();
        assert_eq!(found.len(), 16, "every shard's records must merge");
    }

    #[test]
    fn publish_fails_over_when_primary_dies() {
        let (cluster, client) = plane();
        let name = "FailoverService";
        let saved = client.publish(&svc(name)).unwrap();
        let route = cluster.shard_map().route(name);
        let epoch_before = client.cached_epoch();

        cluster.crash(route.primary);
        // The client retries against backups; the server-side view
        // change elects a new primary; the republish commits.
        let refreshed = client.publish(&svc(name)).unwrap();
        assert!(refreshed.key.starts_with("uuid:svc-s"));
        assert!(
            client.cached_epoch() > epoch_before,
            "failover must teach the client a newer map"
        );
        // The original committed record survived on the survivors.
        for &m in &route.backups {
            assert!(cluster.node_registry(m).get_service(&saved.key).is_some());
        }
    }

    #[test]
    fn locate_survives_one_node_down() {
        let (cluster, client) = plane();
        for i in 0..8 {
            client.publish(&svc(&format!("Wide{i}"))).unwrap();
        }
        cluster.crash(0);
        let found = client.locate(&ServiceQuery::by_name("Wide%")).unwrap();
        assert_eq!(found.len(), 8, "replication must cover the dead node");
    }

    #[test]
    fn stale_client_is_rerouted_transparently() {
        let (cluster, client) = plane();
        let name = "StaleService";
        let saved = client.publish(&svc(name)).unwrap();
        // A second client with its own (soon stale) cache.
        let other = ShardedUddiClient::for_cluster(&cluster).unwrap();
        let route = cluster.shard_map().route(name);
        cluster.crash(route.primary);
        // First client fails over (refreshing its own lease: same key),
        // bumping the server-side epoch.
        client.publish(&saved).unwrap();
        // The other client still quotes the old epoch: the versioned
        // redirect must refresh it mid-call, without surfacing an error.
        let found = other.locate(&ServiceQuery::by_name(name)).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(other.cached_epoch(), cluster.shard_map().epoch());
    }

    #[test]
    fn delete_routes_by_key_embedded_shard() {
        let (_cluster, client) = plane();
        let saved = client.publish(&svc("Doomed")).unwrap();
        assert!(client.delete(&saved.key).unwrap());
        assert!(client
            .locate(&ServiceQuery::by_name("Doomed"))
            .unwrap()
            .is_empty());
        assert!(!client.delete(&saved.key).unwrap());
    }

    #[test]
    fn unavailable_when_quorum_lost() {
        let (cluster, client) = plane();
        cluster.crash(1);
        cluster.crash(2);
        let err = client.publish(&svc("NoQuorum")).unwrap_err();
        assert!(matches!(err, RegistryError::Unavailable(_)), "{err}");
    }

    #[test]
    fn data_versions_track_commits_and_lease_expiry() {
        let (cluster, client) = plane();
        let before = client.data_versions().unwrap();
        assert!(before.versions.iter().all(|&v| v == 0));

        let name = "VersionedService";
        let shard = client.shard_of(name) as usize;
        let saved = client.publish(&svc(name)).unwrap();
        let after_save = client.data_versions().unwrap();
        assert!(
            after_save.versions[shard] > before.versions[shard],
            "a committed save must bump its shard's data version"
        );
        let untouched: Vec<usize> = (0..after_save.versions.len())
            .filter(|&s| s != shard)
            .collect();
        for s in untouched {
            assert_eq!(
                after_save.versions[s], before.versions[s],
                "other shards' versions must not move"
            );
        }

        client.delete(&saved.key).unwrap();
        let after_delete = client.data_versions().unwrap();
        assert!(after_delete.versions[shard] > after_save.versions[shard]);

        // Lease expiry is a data change too: cached consumers must
        // learn the record vanished.
        let leased = BusinessService::new("", "biz", name).with_lease_ttl_ms(500);
        client.publish(&leased).unwrap();
        let at_grant = client.data_versions().unwrap();
        cluster.advance_to(wsp_simnet::Time::millis(600));
        let after_expiry = client.data_versions().unwrap();
        assert!(
            after_expiry.versions[shard] > at_grant.versions[shard],
            "lease expiry must bump the shard's data version"
        );
    }

    /// Regression for the redirect/refresh race: many writers receiving
    /// `wsp:staleShardMap` faults (each carrying a fresh map) while
    /// another thread hammers `refresh_map`. The cached epoch must be
    /// monotone non-decreasing under the interleaving (an older map
    /// adopted after a newer one would re-route writes to dead
    /// primaries) and must settle at the newest epoch any node served.
    #[test]
    fn concurrent_redirects_racing_refresh_never_regress_the_epoch() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::Arc;

        let endpoints = vec!["wsp://registry/0".to_owned()];
        let server_epoch = Arc::new(AtomicU64::new(0));
        let max_served = Arc::new(AtomicU64::new(0));

        let transport: UddiTransport = {
            let server_epoch = server_epoch.clone();
            let max_served = max_served.clone();
            let endpoints = endpoints.clone();
            Arc::new(move |request: &UddiRequest<'_>| {
                let map_at = |epoch: u64| ShardMap::build(endpoints.clone(), 2, 1, epoch);
                // Each refresh observes a (possibly) newer map.
                let e = server_epoch.fetch_add(1, Ordering::SeqCst) + 1;
                max_served.fetch_max(e, Ordering::SeqCst);
                match request.op {
                    UddiOp::GetShardMap => Ok(UddiResponse::Other(map_at(e).to_element())),
                    // Every write is refused with a stale-map redirect
                    // quoting a bumped epoch in the detail.
                    _ => Ok(UddiResponse::Fault(
                        Fault::sender(format!("wsp:staleShardMap epoch={e}"))
                            .with_detail(map_at(e).to_element()),
                    )),
                }
            })
        };
        // Bootstrap consumed epoch 1; reset the odometer's floor.
        let client = Arc::new(ShardedUddiClient::connect(vec![transport]).unwrap());
        assert_eq!(client.cached_epoch(), 1);

        let stop = Arc::new(AtomicBool::new(false));
        let monotone = {
            let client = client.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut last = 0u64;
                let mut ok = true;
                while !stop.load(Ordering::SeqCst) {
                    let seen = client.cached_epoch();
                    ok &= seen >= last;
                    last = seen;
                    std::thread::yield_now();
                }
                ok
            })
        };
        let mut workers = Vec::new();
        for w in 0..4 {
            let client = client.clone();
            workers.push(std::thread::spawn(move || {
                for i in 0..40 {
                    // Writers chase redirects; refreshers race them.
                    let _ = client.publish(&svc(&format!("Race{w}x{i}")));
                    let _ = client.refresh_map();
                }
            }));
        }
        for w in workers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::SeqCst);
        assert!(
            monotone.join().unwrap(),
            "cached epoch regressed under concurrent redirect/refresh"
        );
        // One final refresh: the cache must land on the newest map any
        // response carried — no adopted epoch bump may be dropped.
        client.refresh_map().unwrap();
        assert_eq!(client.cached_epoch(), max_served.load(Ordering::SeqCst));
    }

    #[test]
    fn telemetry_counters_move() {
        let t = telemetry::global();
        let published = t.counter("registry.publish").get();
        let located = t.counter("registry.locate").get();
        let (_cluster, client) = plane();
        client.publish(&svc("Counted")).unwrap();
        let routed = t.counter("registry.locate.routed").get();
        client.locate(&ServiceQuery::by_name("Counted")).unwrap();
        assert!(t.counter("registry.publish").get() > published);
        assert!(t.counter("registry.locate").get() > located);
        assert!(t.counter("registry.locate.routed").get() > routed);
        let scattered = t.counter("registry.locate.scattered").get();
        client.locate(&ServiceQuery::by_name("Count%")).unwrap();
        assert!(t.counter("registry.locate.scattered").get() > scattered);
        // The replication shell samples the primary's retained log at
        // every commit, and the publish above committed.
        assert!(t.histogram("registry.replication.log_len").count() > 0);
    }
}
