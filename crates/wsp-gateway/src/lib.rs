//! `wsp-gateway` — the multi-tenant mediation tier in front of the
//! service fabric.
//!
//! WSPeer's interface (the paper, Section III) mediates between
//! application code and whichever hosting/discovery machinery sits
//! behind it. This crate scales that mediation role out to a shared
//! gateway that many tenants call through, composed from the layers
//! underneath instead of re-implementing them:
//!
//! * [`cache`] — locate-result, WSDL and idempotent-response caches
//!   with [`wsp_simnet::EventWheel`]-driven TTLs; invalidated by the
//!   registry's version stamps (map epoch for placement, per-shard
//!   data versions for record churn) so a republish reaches gateway
//!   clients without waiting out a TTL;
//! * per-tenant **fair-share admission** — `wsp-core`'s one admission
//!   controller with a slot per tenant ([`wsp_core::KeyedAdmissionController`],
//!   a pure machine explored by `wsp-check`): every tenant keeps a
//!   weighted guaranteed share of the global permit budget, idle
//!   capacity is borrowable, and a flooding tenant is shed with a
//!   scaled retry hint before it can starve anyone;
//! * [`pool`] — content-based backend routing: service + operation
//!   select the backend set, the least-loaded breaker-admitted
//!   endpoint wins, failover walks the remainder;
//! * [`gateway`] — the pipeline itself plus the HTTP and P2PS fronts,
//!   both hosted on the reactor-backed servers.

pub mod cache;
pub mod gateway;
pub mod pool;

pub use cache::{CachedResponse, GatewayCacheConfig, GatewayCaches, ResponseKey};
pub use gateway::{Gateway, GatewayConfig, GatewayError, GatewayReply, IdempotentSet};
pub use pool::{BackendLease, BackendPools};
/// The response-cache key hashes a request body with the workspace's
/// one FNV-1a (shard placement uses the same function).
pub use wsp_simnet::fnv1a;

use std::{cell::RefCell, collections::HashMap, sync::Arc};
use wsp_core::telemetry::{self, Counter};

/// Count `name`, by a handle resolved once per thread (DESIGN.md §8):
/// counting takes no registry lock and builds no name.
fn bump(name: &'static str) {
    thread_local! {
        static COUNTERS: RefCell<HashMap<&'static str, Arc<Counter>>> = RefCell::default();
    }
    COUNTERS.with_borrow_mut(|counters| {
        let resolve = || telemetry::global().counter(name);
        counters.entry(name).or_insert_with(resolve).incr();
    });
}
