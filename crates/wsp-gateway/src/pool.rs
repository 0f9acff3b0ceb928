//! Backend pools: per-endpoint in-flight accounting and circuit
//! breakers, with a least-loaded, breaker-aware pick.
//!
//! The gateway resolves a service to a set of backend endpoints (from
//! the cached locate result) and asks the pool for one. The pick is:
//!
//! * among endpoints whose breaker admits (closed, or half-open and
//!   due a probe) and that the caller has not already tried this
//!   request, the one with the fewest gateway-side in-flight calls —
//!   ties break on candidate order, so a healthy, idle primary wins;
//! * a [`BackendLease`] tracks the call: it bumps the endpoint's
//!   in-flight count on pick, records the breaker outcome via
//!   [`BackendLease::succeed`]/[`BackendLease::fail`], and decrements
//!   the count on drop (RAII, shed-proof).
//!
//! Breaker state is shared across tenants on purpose: a backend that
//! has fallen over is down for everyone, and the first tenant to trip
//! the breaker spares the rest the timeout.
//!
//! The lease owns the *routing* side of a call — the in-flight slot and
//! the breaker outcome. The socket belongs to the gateway's
//! `wsp_http::ConnectionPool`, keyed by the leased [`Backend`]'s
//! authority: a lease that fails drops its connection there, and the
//! failover loop moves on to a different endpoint.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use wsp_core::{Admission, BreakerConfig, CircuitBreaker, EndpointHealth};
use wsp_http::HttpUri;

/// One backend of a located service: the access point exactly as the
/// registry spelled it (the breaker and in-flight key) and where it
/// parses to. Parsed once, when the locate result enters the cache, so
/// a mediated call neither re-parses the URI nor re-formats its parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Backend {
    endpoint: String,
    uri: HttpUri,
}

impl Backend {
    /// `None` when `endpoint` is not an `http(g)://` URI — an access
    /// point this gateway could never call (a P2PS binding of the same
    /// service, or a typo in the registry).
    pub fn parse(endpoint: String) -> Option<Backend> {
        let uri = HttpUri::parse(&endpoint).ok()?;
        Some(Backend { endpoint, uri })
    }

    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    pub fn host(&self) -> &str {
        &self.uri.host
    }

    pub fn port(&self) -> u16 {
        self.uri.port
    }

    /// Path (plus query) the service answers on.
    pub fn target(&self) -> &str {
        &self.uri.target
    }
}

impl AsRef<str> for Backend {
    fn as_ref(&self) -> &str {
        &self.endpoint
    }
}

struct PoolState {
    active: HashMap<String, u64>,
}

/// Shared backend routing state: breakers + in-flight counts.
#[derive(Clone)]
pub struct BackendPools {
    health: Arc<EndpointHealth>,
    state: Arc<Mutex<PoolState>>,
}

impl Default for BackendPools {
    fn default() -> Self {
        BackendPools::new(BreakerConfig::default())
    }
}

impl BackendPools {
    pub fn new(config: BreakerConfig) -> BackendPools {
        BackendPools {
            health: Arc::new(EndpointHealth::new(config)),
            state: Arc::new(Mutex::new(PoolState {
                active: HashMap::new(),
            })),
        }
    }

    pub fn health(&self) -> &EndpointHealth {
        &self.health
    }

    /// Gateway-side in-flight calls to `endpoint` right now.
    pub fn active(&self, endpoint: &str) -> u64 {
        self.state.lock().active.get(endpoint).copied().unwrap_or(0)
    }

    /// Least-loaded breaker-admitted candidate not in `exclude`, leased.
    ///
    /// Candidates are ranked by load *first* and only then asked for a
    /// breaker admission, in rank order, taking the first that admits.
    /// `try_acquire` is stateful — on a half-open breaker it consumes
    /// the single probe slot — so it must only ever be called on an
    /// endpoint that will actually be leased; acquiring during the scan
    /// would strand the probe slot of any candidate that then lost the
    /// load comparison, removing a recovered backend from rotation
    /// forever.
    pub fn pick<E: AsRef<str>>(
        &self,
        candidates: &[E],
        exclude: &[String],
    ) -> Option<BackendLease> {
        let now = Instant::now();
        let mut state = self.state.lock();
        let mut ranked: Vec<(u64, usize)> = candidates
            .iter()
            .enumerate()
            .filter(|(_, endpoint)| !exclude.iter().any(|tried| tried == endpoint.as_ref()))
            .map(|(i, endpoint)| (state.active.get(endpoint.as_ref()).copied().unwrap_or(0), i))
            .collect();
        // (load, index): ties break on candidate order.
        ranked.sort_unstable();
        for (_, index) in ranked {
            let endpoint = candidates[index].as_ref();
            let breaker = self.health.breaker(endpoint);
            let admission = breaker.try_acquire(now);
            if matches!(admission, Admission::Rejected) {
                continue;
            }
            *state.active.entry(endpoint.to_owned()).or_insert(0) += 1;
            return Some(BackendLease {
                endpoint: endpoint.to_owned(),
                index,
                probe: admission == Admission::Probe,
                reported: AtomicBool::new(false),
                breaker,
                state: self.state.clone(),
            });
        }
        None
    }
}

/// RAII lease on one backend call (see [`BackendPools::pick`]).
pub struct BackendLease {
    endpoint: String,
    /// Position of the leased endpoint in the `candidates` it was
    /// picked from.
    index: usize,
    /// This lease holds the breaker's single half-open probe slot.
    probe: bool,
    /// Whether [`succeed`](BackendLease::succeed)/[`fail`](BackendLease::fail)
    /// has been called; a probe lease dropped unreported must abort the
    /// probe or the slot strands and the breaker rejects forever.
    reported: AtomicBool,
    breaker: Arc<CircuitBreaker>,
    state: Arc<Mutex<PoolState>>,
}

impl BackendLease {
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// Which of the `candidates` given to [`BackendPools::pick`] this
    /// lease is on.
    pub fn index(&self) -> usize {
        self.index
    }

    pub fn succeed(&self) {
        self.reported.store(true, Ordering::Relaxed);
        self.breaker.on_success(Instant::now());
    }

    pub fn fail(&self) {
        self.reported.store(true, Ordering::Relaxed);
        self.breaker.on_failure(Instant::now());
    }
}

impl Drop for BackendLease {
    fn drop(&mut self) {
        if self.probe && !self.reported.load(Ordering::Relaxed) {
            self.breaker.on_probe_aborted(Instant::now());
        }
        let mut state = self.state.lock();
        if let Some(n) = state.active.get_mut(&self.endpoint) {
            *n = n.saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eps(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn pick_prefers_the_least_loaded_endpoint() {
        let pools = BackendPools::default();
        let candidates = eps(&["http://a", "http://b"]);
        let a1 = pools.pick(&candidates, &[]).unwrap();
        assert_eq!(a1.endpoint(), "http://a", "ties break on order");
        let b1 = pools.pick(&candidates, &[]).unwrap();
        assert_eq!(b1.endpoint(), "http://b", "a is busier now");
        assert_eq!((a1.index(), b1.index()), (0, 1));
        assert_eq!(pools.active("http://a"), 1);
        assert_eq!(pools.active("http://b"), 1);
        drop(a1);
        assert_eq!(pools.active("http://a"), 0, "lease drop releases");
        drop(b1);
    }

    #[test]
    fn backends_parse_once_and_lease_by_their_registry_spelling() {
        let backend = Backend::parse("http://10.0.0.7:8080/Echo".to_owned()).unwrap();
        assert_eq!(
            (backend.host(), backend.port(), backend.target()),
            ("10.0.0.7", 8080, "/Echo")
        );
        assert!(Backend::parse("p2ps://peer/Echo".to_owned()).is_none());
        let pools = BackendPools::default();
        let lease = pools.pick(std::slice::from_ref(&backend), &[]).unwrap();
        assert_eq!(lease.endpoint(), backend.endpoint());
        assert_eq!(pools.active("http://10.0.0.7:8080/Echo"), 1);
    }

    #[test]
    fn exclude_skips_already_tried_endpoints() {
        let pools = BackendPools::default();
        let candidates = eps(&["http://a", "http://b"]);
        let lease = pools.pick(&candidates, &["http://a".to_owned()]).unwrap();
        assert_eq!(lease.endpoint(), "http://b");
        assert!(pools.pick(&candidates, &candidates.to_vec()).is_none());
    }

    fn quick_config() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 1,
            cooldown: std::time::Duration::from_millis(20),
        }
    }

    #[test]
    fn losing_the_pick_does_not_consume_a_half_open_probe_slot() {
        let pools = BackendPools::new(quick_config());
        // Trip "http://b" and let its cooldown elapse: half-open, one
        // probe slot available.
        let lease = pools.pick(&eps(&["http://b"]), &[]).unwrap();
        lease.fail();
        drop(lease);
        std::thread::sleep(std::time::Duration::from_millis(40));
        // Both idle: "http://a" wins the tie on candidate order. The
        // scan must not have burned b's probe slot on the way.
        let candidates = eps(&["http://a", "http://b"]);
        let a = pools.pick(&candidates, &[]).unwrap();
        assert_eq!(a.endpoint(), "http://a");
        let b = pools
            .pick(&candidates, &[])
            .expect("the half-open endpoint must still be probeable after losing a pick");
        assert_eq!(b.endpoint(), "http://b", "b is least loaded now");
        b.succeed();
        drop(b);
        drop(a);
        // The successful probe closed b's breaker: it admits freely.
        let again = pools.pick(&eps(&["http://b"]), &[]).unwrap();
        assert_eq!(again.endpoint(), "http://b");
    }

    #[test]
    fn probe_lease_dropped_without_an_outcome_frees_the_slot() {
        let pools = BackendPools::new(quick_config());
        let only = eps(&["http://flaky"]);
        let lease = pools.pick(&only, &[]).unwrap();
        lease.fail();
        drop(lease);
        std::thread::sleep(std::time::Duration::from_millis(40));
        // Take the probe and drop it unreported (e.g. the request was
        // shed upstream): the slot must not strand.
        let probe = pools.pick(&only, &[]).expect("half-open probe");
        drop(probe);
        // The abort re-opened for a fresh cooldown; after it, a new
        // probe is admitted — the endpoint is not locked out forever.
        std::thread::sleep(std::time::Duration::from_millis(40));
        let retry = pools.pick(&only, &[]).expect("fresh probe after abort");
        retry.succeed();
    }

    #[test]
    fn tripped_breaker_removes_the_endpoint_from_rotation() {
        let pools = BackendPools::default();
        let candidates = eps(&["http://down", "http://up"]);
        // Trip the breaker on the first endpoint.
        for _ in 0..32 {
            if let Some(lease) = pools.pick(&candidates[..1], &[]) {
                lease.fail();
            } else {
                break;
            }
        }
        let lease = pools.pick(&candidates, &[]).expect("the healthy one");
        assert_eq!(lease.endpoint(), "http://up");
    }
}
