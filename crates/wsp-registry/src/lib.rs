//! `wsp-registry` — the sharded, replicated discovery plane.
//!
//! The paper's critique C5 is that a single UDDI registry is both the
//! bottleneck and the single point of failure of service discovery.
//! This crate turns the one-node `wsp_uddi::Registry` into a discovery
//! *plane*:
//!
//! * [`shard`] — consistent-hash placement of service names across N
//!   registry nodes, published to clients as a version-stamped
//!   [`ShardMap`] (stale copies earn a versioned redirect fault and an
//!   epoch-bumped refresh);
//! * [`lease`] — soft-state registrations: every publish carries a TTL,
//!   providers refresh, and a wheel-driven sweep retires what is not
//!   refreshed — crashed providers vanish without an unregister;
//! * [`replication`] — VR-lite primary/backup replication per shard as
//!   a *pure* [`wsp_simnet::Machine`] transition function (view
//!   numbers, an op log truncated behind the group-stable point,
//!   prepare/prepare-ok/commit, view change on primary timeout),
//!   exhaustively explored by `wsp-check`;
//! * [`cluster`] — the thin runtime shell: N in-process registry nodes,
//!   a synchronous message pump executing the pure machine's effects,
//!   a front per node that answers `wsp_uddi` requests — in process, or
//!   as SOAP over the HTTP and P2PS bindings;
//! * [`client`] — [`ShardedUddiClient`]: shard-map routing (an
//!   exact-name locate is one exchange with the owning shard, only
//!   patterns scatter), primary→backup failover through
//!   `ResiliencePolicy` and the per-endpoint circuit breakers, map
//!   refresh on redirect.

pub mod client;
pub mod cluster;
pub mod lease;
pub mod replication;
pub mod shard;

pub use client::{DataVersions, RegistryError, ShardedUddiClient};
pub use cluster::{
    shard_of_key, ClusterConfig, ClusterOp, LogFootprint, RegistryCluster, MAX_LEASE_TTL_MS,
};
pub use lease::{
    LeaseAction, LeaseEffect, LeaseEvent, LeaseMachine, LeaseState, LeaseStatus, LeaseTable,
    LeaseTrace,
};
pub use replication::{
    GroupEffect, GroupEvent, GroupMachine, GroupState, ReplEffect, ReplEvent, ReplMsg,
    ReplicaMachine, ReplicaState, SkipLogCatchup, Status, TruncateToOwnCommit,
};
pub use shard::{Route, ShardInfo, ShardMap, REGISTRY_NS};
