//! The runtime shell: N in-process registry nodes, one replication
//! group per shard, a synchronous message pump executing the pure
//! [`crate::replication`] machine's effects against real
//! `wsp_uddi::Registry` stores.
//!
//! The shell owns everything the pure machine refuses to: clocks (a
//! logical clock in virtual time drives the lease sweeps), transports
//! (per-node [`UddiTransport`]s and an HTTP handler), and crash faults
//! (a node marked down drops every message addressed to it, exactly
//! like the checker's `Crash` event prunes the net). Because the same
//! transition runs here and under `wsp-check`'s exhaustive exploration
//! — the pump calls `step_replica_in_place` on the states it owns, the
//! checker the clone-then-that-call `step_replica` — the failover
//! behaviour the checker proves is the failover behaviour the cluster
//! executes.
//!
//! A replicated write costs what its own op costs: the pump mutates the
//! replicas in place, and each replica's log keeps only the slots behind
//! which some member still lags (see [`crate::replication`]). With every
//! member up that is a slot or two; a crashed member pins the
//! group-stable point, so the survivors' logs grow by what is published
//! while it is away and fall back when it has returned and acknowledged.
//! The shell's straggler transfer re-delivers the primary's
//! `(log_start, suffix)`; what it exports about all this is
//! `registry.replication.log_len` (histogram: the primary's retained
//! slots at each commit), `registry.replication.truncated` (slots
//! dropped, all replicas) and `registry.replication.state_transfers`
//! (`StartView`s sent outside an election).

use crate::lease::{LeaseTable, LeaseTrace};
use crate::replication::{
    step_replica_in_place, ReplEffect, ReplEvent, ReplMsg, ReplicaId, ReplicaMachine, ReplicaState,
    Status,
};
use crate::shard::ShardMap;
use parking_lot::{Mutex, RwLock};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use wsp_core::telemetry::{self, Counter, Histogram};
use wsp_http::{HttpHandler, Request, Response};
use wsp_simnet::{Dur, Time};
use wsp_soap::Fault;
use wsp_uddi::{
    BusinessEntity, BusinessService, DataVersions, Registry, TModel, UddiApi, UddiOp, UddiRequest,
    UddiResponse, UddiTransport,
};

/// The longest lease a publisher may ask for (`leaseTtlMs`), a year:
/// the cluster refuses a longer one where it admits the record, so the
/// lease arithmetic never sees a remote number it cannot hold.
/// Permanence is asked for by sending no lease at all.
pub const MAX_LEASE_TTL_MS: u64 = 365 * 24 * 3_600 * 1_000;

/// The replicated op, generic payload of [`step_replica_in_place`].
/// A save carries the record itself — every key minted, the lease
/// admitted — so a replica applying it stores it and parses nothing.
/// The record is shared, not owned: the op is cloned into every
/// `Prepare` and every replica's log.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ClusterOp {
    Save {
        service: Arc<BusinessService>,
        /// Virtual-time stamp (µs) the shard primary granted the lease
        /// at; keeps expiry deterministic across replicas and runs.
        granted_at_us: u64,
    },
    Delete {
        key: String,
    },
}

/// Shape of the discovery plane.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    pub nodes: usize,
    pub shard_count: u32,
    pub replication: usize,
    /// TTL applied to publishes that carry no `leaseTtlMs` of their
    /// own. `None` = permanent registrations unless the publisher asks.
    pub default_ttl: Option<Dur>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 3,
            shard_count: 4,
            replication: 3,
            default_ttl: None,
        }
    }
}

/// One registry node: the store plus its liveness flag.
struct NodeSlot {
    registry: Registry,
    api: UddiApi,
    up: AtomicBool,
}

/// One shard's replication group runtime.
struct Group {
    shard: u32,
    /// Node ids, preference order (mirrors the shard map).
    members: Vec<usize>,
    machines: Vec<ReplicaMachine>,
    states: Vec<ReplicaState<ClusterOp>>,
    leases: LeaseTable,
    /// How many log slots have had their group-level (once-per-op)
    /// side effects executed: lease grants/cancels.
    group_applied: u32,
}

/// What one member of a shard's group currently holds of the op log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogFootprint {
    pub node: usize,
    /// Slots dropped behind the group-stable point.
    pub log_start: u32,
    /// Slots still held.
    pub retained: usize,
    /// Entries in the acknowledgement structure (one mark per member).
    pub ack_entries: usize,
}

/// What one synchronous pump of the group produced.
#[derive(Default)]
struct PumpOut {
    acks: Vec<u32>,
    redirected: bool,
    new_view: Option<u32>,
}

struct Inner {
    cfg: ClusterConfig,
    nodes: Vec<NodeSlot>,
    map: RwLock<Arc<ShardMap>>,
    groups: Vec<Mutex<Group>>,
    /// Logical clock, µs of virtual time. Drives lease grant stamps.
    clock_us: AtomicU64,
    /// Per-shard key mint for deterministic service keys.
    key_seqs: Vec<AtomicU64>,
    /// Mint for globally replicated records (tModels, businesses) and
    /// for binding keys.
    global_seq: AtomicU64,
    /// Per-shard *data* version: bumped once per committed Save/Delete
    /// and per lease expiry sweep that dropped something. Orthogonal to
    /// the map epoch (which versions *placement*): caching consumers
    /// (the mediation gateway) poll these to learn that a shard's
    /// records changed without waiting out their TTLs, while epoch
    /// redirects keep handling placement changes.
    data_versions: Vec<AtomicU64>,
    log_len: Arc<Histogram>,
    truncated: Arc<Counter>,
    state_transfers: Arc<Counter>,
}

/// The replicated discovery plane: `cfg.nodes` in-process registry
/// nodes, each service name placed on a shard, each shard replicated
/// across `cfg.replication` nodes by the VR-lite machine.
#[derive(Clone)]
pub struct RegistryCluster {
    inner: Arc<Inner>,
}

impl RegistryCluster {
    pub fn new(cfg: ClusterConfig) -> RegistryCluster {
        assert!(cfg.nodes >= 1, "a cluster needs at least one node");
        let endpoints: Vec<String> = (0..cfg.nodes)
            .map(|i| format!("wsp://registry/{i}"))
            .collect();
        let map = ShardMap::build(endpoints, cfg.shard_count, cfg.replication, 0);
        let nodes: Vec<NodeSlot> = (0..cfg.nodes)
            .map(|_| {
                let registry = Registry::new();
                NodeSlot {
                    api: UddiApi::new(registry.clone()),
                    registry,
                    up: AtomicBool::new(true),
                }
            })
            .collect();
        let groups = (0..cfg.shard_count)
            .map(|s| {
                let members = map.shard(s).members.clone();
                let n = members.len() as u8;
                let machines: Vec<ReplicaMachine> =
                    (0..n).map(|id| ReplicaMachine { n, id }).collect();
                Mutex::new(Group {
                    shard: s,
                    states: machines.iter().map(ReplicaMachine::initial_state).collect(),
                    machines,
                    members,
                    leases: LeaseTable::new(),
                    group_applied: 0,
                })
            })
            .collect();
        let key_seqs = (0..cfg.shard_count).map(|_| AtomicU64::new(0)).collect();
        let data_versions = (0..cfg.shard_count).map(|_| AtomicU64::new(0)).collect();
        let t = telemetry::global();
        RegistryCluster {
            inner: Arc::new(Inner {
                nodes,
                map: RwLock::new(Arc::new(map)),
                groups,
                clock_us: AtomicU64::new(0),
                key_seqs,
                global_seq: AtomicU64::new(0),
                data_versions,
                log_len: t.histogram("registry.replication.log_len"),
                truncated: t.counter("registry.replication.truncated"),
                state_transfers: t.counter("registry.replication.state_transfers"),
                cfg,
            }),
        }
    }

    // -- plumbing ----------------------------------------------------------

    pub fn config(&self) -> &ClusterConfig {
        &self.inner.cfg
    }

    pub fn shard_map(&self) -> Arc<ShardMap> {
        self.inner.map.read().clone()
    }

    pub fn endpoints(&self) -> Vec<String> {
        self.shard_map().nodes().to_vec()
    }

    /// Direct handle on one node's store, for assertions and embedding.
    pub fn node_registry(&self, node: usize) -> &Registry {
        &self.inner.nodes[node].registry
    }

    pub fn is_up(&self, node: usize) -> bool {
        self.inner.nodes[node].up.load(Ordering::SeqCst)
    }

    /// Fail-stop the node: requests to it error at the transport and
    /// replication messages addressed to it are dropped.
    pub fn crash(&self, node: usize) {
        self.inner.nodes[node].up.store(false, Ordering::SeqCst);
    }

    /// Bring a crashed node back (it catches up on the next view it
    /// adopts; its store keeps whatever it held before the crash).
    pub fn restart(&self, node: usize) {
        self.inner.nodes[node].up.store(true, Ordering::SeqCst);
    }

    /// The deterministic lease trace of one shard's group.
    pub fn lease_trace(&self, shard: u32) -> Vec<LeaseTrace> {
        self.inner.groups[shard as usize]
            .lock()
            .leases
            .trace()
            .to_vec()
    }

    /// What each member of `shard`'s group (preference order) holds of
    /// the op log — the numbers that must not grow with the shard's age.
    pub fn log_footprint(&self, shard: u32) -> Vec<LogFootprint> {
        let group = self.inner.groups[shard as usize].lock();
        group
            .members
            .iter()
            .zip(&group.states)
            .map(|(&node, state)| LogFootprint {
                node,
                log_start: state.log_start,
                retained: state.log.len(),
                ack_entries: state.acked.len(),
            })
            .collect()
    }

    /// Advance the logical clock, sweeping every shard's lease wheel.
    /// Expired registrations are deleted from all replica stores —
    /// deterministically, in wheel order.
    pub fn advance_to(&self, t: Time) {
        self.inner
            .clock_us
            .fetch_max(t.as_micros(), Ordering::SeqCst);
        for group in &self.inner.groups {
            let mut g = group.lock();
            let expired = g.leases.advance_to(t);
            if !expired.is_empty() {
                self.bump_data_version(g.shard);
            }
            for key in &expired {
                for &m in &g.members {
                    self.inner.nodes[m].registry.remove_service_record(key);
                }
            }
        }
    }

    pub fn now(&self) -> Time {
        Time(self.inner.clock_us.load(Ordering::SeqCst))
    }

    /// All shards' data versions, indexed by shard id. Any committed
    /// write to a shard (save, delete, lease expiry) makes its version
    /// strictly larger, so `version unchanged` ⇒ `cached locate results
    /// for the shard are still exact` — the cheap revalidation
    /// handshake the mediation gateway runs instead of waiting out its
    /// TTLs.
    pub fn data_versions(&self) -> Vec<u64> {
        self.inner
            .data_versions
            .iter()
            .map(|v| v.load(Ordering::SeqCst))
            .collect()
    }

    fn bump_data_version(&self, shard: u32) {
        self.inner.data_versions[shard as usize].fetch_add(1, Ordering::SeqCst);
    }

    // -- the registry front ------------------------------------------------

    /// A [`UddiTransport`] landing on `node`, for `UddiClient` and the
    /// sharded client: the request is answered in process, as it is.
    /// Errors like a dead socket while the node is down.
    pub fn node_transport(&self, node: usize) -> UddiTransport {
        let cluster = self.clone();
        Arc::new(move |request: &UddiRequest<'_>| {
            if !cluster.is_up(node) {
                return Err(format!("connection refused: registry node {node} is down"));
            }
            Ok(cluster.process(node, request))
        })
    }

    /// An HTTP handler fronting `node`, SOAP-over-HTTP like
    /// `wsp_uddi::registry_handler` (faults ride HTTP 500).
    pub fn node_http_handler(&self, node: usize) -> HttpHandler {
        let cluster = self.clone();
        Arc::new(move |request: &Request| {
            if !cluster.is_up(node) {
                return Response::new(503, "Service Unavailable");
            }
            wsp_uddi::serve_http(request, |request| cluster.process(node, request))
        })
    }

    /// Answer one request arriving at `node`.
    pub fn process(&self, node: usize, request: &UddiRequest<'_>) -> UddiResponse {
        self.answer(node, request)
            .unwrap_or_else(UddiResponse::Fault)
    }

    fn answer(&self, node: usize, request: &UddiRequest<'_>) -> Result<UddiResponse, Fault> {
        let guard = || self.epoch_guard(request.map_epoch);
        Ok(match &request.op {
            UddiOp::GetShardMap => UddiResponse::Other(self.shard_map().to_element()),
            UddiOp::GetDataVersions => {
                let epoch = self.shard_map().epoch();
                let versions = self.data_versions();
                UddiResponse::DataVersions(DataVersions { epoch, versions })
            }
            UddiOp::SaveTModel(tmodels) => {
                UddiResponse::TModelDetail(self.save_global_tmodels(tmodels))
            }
            UddiOp::SaveBusiness(entities) => {
                UddiResponse::BusinessDetail(self.save_global_businesses(entities))
            }
            UddiOp::SaveService { tmodels, services } => {
                guard()?;
                self.save_service(node, tmodels, services)?
            }
            UddiOp::DeleteService(keys) => {
                guard()?;
                self.delete_service(node, keys)?
            }
            // Inquiry is served from the local replica: reads tolerate
            // bounded staleness, that is the soft-state bargain.
            _ => {
                guard()?;
                self.inner.nodes[node].api.process(request)
            }
        })
    }

    /// The versioned redirect: a request quoting a stale map epoch is
    /// refused with the fresh map in the fault detail.
    fn epoch_guard(&self, quoted: Option<u64>) -> Result<(), Fault> {
        let Some(quoted) = quoted else {
            return Ok(());
        };
        let map = self.shard_map();
        if quoted == map.epoch() {
            return Ok(());
        }
        Err(
            Fault::sender(format!("wsp:staleShardMap epoch={}", map.epoch()))
                .with_detail(map.to_element()),
        )
    }

    /// Any tModels are saved first (see [`wsp_uddi::UddiApi`]), then
    /// each record, admitted, through its shard's log.
    fn save_service(
        &self,
        node: usize,
        tmodels: &[TModel],
        services: &[BusinessService],
    ) -> Result<UddiResponse, Fault> {
        self.save_global_tmodels(tmodels);
        let mut saved = Vec::with_capacity(services.len());
        for service in services {
            if service.name.is_empty() {
                return Err(Fault::sender("businessService needs a name to shard on"));
            }
            let shard = self.shard_map().shard_of(&service.name);
            let record = self.admit(shard, service)?;
            let op = ClusterOp::Save {
                service: Arc::new(record.clone()),
                granted_at_us: self.inner.clock_us.load(Ordering::SeqCst),
            };
            self.submit(shard, node, op)?;
            saved.push(record);
        }
        Ok(UddiResponse::ServiceDetail(saved))
    }

    /// The record the cluster logs for `service`: every key minted here
    /// — the service's from its shard's sequence, each unkeyed binding's
    /// from the cluster's — so that the replicas applying the op mint
    /// nothing and hold what the publisher is told; the lease defaulted,
    /// or refused past [`MAX_LEASE_TTL_MS`].
    fn admit(&self, shard: u32, service: &BusinessService) -> Result<BusinessService, Fault> {
        let mut record = service.clone();
        if record.key.is_empty() {
            record.key = self.mint_service_key(shard);
        }
        for binding in record.bindings.iter_mut().filter(|b| b.key.is_empty()) {
            binding.key = self.mint_global("bind");
        }
        match record.lease_ttl_ms {
            None => record.lease_ttl_ms = self.inner.cfg.default_ttl.map(|d| d.as_micros() / 1_000),
            Some(ttl) if ttl > MAX_LEASE_TTL_MS => {
                return Err(Fault::sender(format!(
                    "leaseTtlMs={ttl} is longer than the longest lease, {MAX_LEASE_TTL_MS} ms"
                )))
            }
            Some(_) => {}
        }
        Ok(record)
    }

    fn delete_service(&self, node: usize, keys: &[String]) -> Result<UddiResponse, Fault> {
        let mut deleted = 0usize;
        for key in keys {
            let key = key.trim();
            let Some(shard) = shard_of_key(key) else {
                continue; // not a cluster-minted key: nothing to delete
            };
            if self.inner.nodes[node].registry.get_service(key).is_none() {
                continue;
            }
            let key = key.to_owned();
            self.submit(shard, node, ClusterOp::Delete { key })?;
            deleted += 1;
        }
        Ok(UddiResponse::Disposition { deleted })
    }

    /// tModels (WSDL pointers) are tiny global metadata: replicated to
    /// every live node outside the sharded log.
    fn save_global_tmodels(&self, tmodels: &[TModel]) -> Vec<TModel> {
        let saved = tmodels.iter().map(|tmodel| {
            let mut tmodel = tmodel.clone();
            if tmodel.key.is_empty() {
                tmodel.key = self.mint_global("tm");
            }
            for slot in self.live_nodes() {
                self.inner.nodes[slot].registry.save_tmodel(tmodel.clone());
            }
            tmodel
        });
        saved.collect()
    }

    fn save_global_businesses(&self, entities: &[BusinessEntity]) -> Vec<BusinessEntity> {
        let saved = entities.iter().map(|entity| {
            let mut entity = entity.clone();
            if entity.key.is_empty() {
                entity.key = self.mint_global("biz");
            }
            for slot in self.live_nodes() {
                self.inner.nodes[slot]
                    .registry
                    .save_business(entity.clone());
            }
            entity
        });
        saved.collect()
    }

    fn live_nodes(&self) -> Vec<usize> {
        (0..self.inner.nodes.len())
            .filter(|&n| self.is_up(n))
            .collect()
    }

    fn mint_service_key(&self, shard: u32) -> String {
        let seq = self.inner.key_seqs[shard as usize].fetch_add(1, Ordering::SeqCst);
        format!("uuid:svc-s{shard:02x}-{seq:06x}")
    }

    /// A key from the cluster-wide sequence: tModels, businesses and
    /// bindings.
    fn mint_global(&self, prefix: &str) -> String {
        let seq = self.inner.global_seq.fetch_add(1, Ordering::SeqCst);
        format!("uuid:{prefix}-c{seq:06x}")
    }

    // -- replication plumbing ----------------------------------------------

    /// Submit `op` to `shard`'s group via the replica hosted on
    /// `entry_node`. Runs the synchronous pump to completion: either
    /// the op commits (quorum of live replicas) or a fault explains
    /// where the client should go instead.
    fn submit(&self, shard: u32, entry_node: usize, op: ClusterOp) -> Result<u32, Fault> {
        let mut group = self.inner.groups[shard as usize].lock();
        let Some(member) = group.members.iter().position(|&n| n == entry_node) else {
            return Err(self.redirect_fault(shard, "wsp:notMember"));
        };
        self.ensure_live_primary(&mut group)?;
        let view = group.states[member].view;
        let primary = group.machines[member].primary_of(view) as usize;
        if group.members[primary] != entry_node {
            drop(group);
            return Err(self.redirect_fault(shard, "wsp:notPrimary"));
        }
        let out = self.pump(&mut group, member, ReplEvent::Client(op));
        if let Some(view) = out.new_view {
            self.bump_view(shard, view);
        }
        if out.redirected {
            drop(group);
            return Err(self.redirect_fault(shard, "wsp:notPrimary"));
        }
        out.acks.into_iter().max().ok_or_else(|| {
            Fault::receiver(format!(
                "wsp:unavailable shard={shard} lost its replication quorum"
            ))
        })
    }

    /// Drive view changes until the shard's primary is a live node (or
    /// fail if no quorum of live members remains).
    fn ensure_live_primary(&self, group: &mut Group) -> Result<(), Fault> {
        let shard = group.shard;
        let live: Vec<usize> = (0..group.members.len())
            .filter(|&m| self.is_up(group.members[m]))
            .collect();
        if live.len() < group.machines[0].quorum() {
            return Err(Fault::receiver(format!(
                "wsp:unavailable shard={shard} lost its replication quorum"
            )));
        }
        for _ in 0..group.members.len() * 2 {
            let view = live
                .iter()
                .map(|&m| group.states[m].view)
                .max()
                .unwrap_or(0);
            let primary = group.machines[0].primary_of(view) as usize;
            // A live primary is not enough: after a crash mid-election
            // the survivors can sit in ViewChange at view v+1 while the
            // revived suspect still believes view v — its DoViewChange
            // quorum was dropped while it was down, and nothing in the
            // message flow ever completes that election. The primary
            // must be up AND actually serving (Normal at the group's
            // max view); anything else gets the watchdog.
            if self.is_up(group.members[primary])
                && group.states[primary].status == Status::Normal
                && group.states[primary].view == view
            {
                // State transfer for stragglers: a backup that slept
                // through the election still holds an older view and
                // silently ignores the new primary's higher-view
                // Prepares — two such stragglers starve the commit
                // quorum forever. Re-delivering the primary's StartView
                // (the same message a live election ends with) catches
                // them up; retransmission is shell policy, exactly like
                // the watchdog that starts elections.
                //
                // Every submit passes through here, so the primary's
                // retained log (everything since the straggler went
                // quiet) is copied only once a straggler needs it.
                for &b in &live {
                    let lagging =
                        group.states[b].view < view || group.states[b].status != Status::Normal;
                    if b != primary && lagging {
                        let state = &group.states[primary];
                        let msg = ReplMsg::StartView {
                            view,
                            log_start: state.log_start,
                            log: state.log.clone(),
                            commit_num: state.commit_num,
                        };
                        self.inner.state_transfers.incr();
                        self.pump(
                            group,
                            b,
                            ReplEvent::Recv {
                                from: primary as ReplicaId,
                                msg,
                            },
                        );
                    }
                }
                return Ok(());
            }
            // The watchdog fires on every live backup: each joins the
            // view change, the pump runs it to quorum.
            let mut adopted = None;
            for &m in &live {
                let out = self.pump(group, m, ReplEvent::PrimaryTimeout);
                if out.new_view.is_some() {
                    adopted = out.new_view;
                }
            }
            if let Some(view) = adopted {
                self.bump_view(shard, view);
            }
        }
        Err(Fault::receiver(format!(
            "wsp:unavailable shard={shard} could not elect a live primary"
        )))
    }

    /// Publish a view change into the shard map: the `ShardMapChanged`
    /// epoch bump every cached client invalidates on.
    fn bump_view(&self, shard: u32, view: u32) {
        let mut map = self.inner.map.write();
        if map.shard(shard).view < view {
            *map = Arc::new(map.with_view(shard, view));
        }
    }

    fn redirect_fault(&self, shard: u32, why: &str) -> Fault {
        let map = self.shard_map();
        let info = map.shard(shard);
        let primary = info.primary();
        Fault::sender(format!(
            "{why} shard={shard} primary={} epoch={}",
            map.nodes()[primary],
            map.epoch()
        ))
        .with_detail(map.to_element())
    }

    /// The synchronous message pump: feed `event` to `member`'s
    /// replica, then execute effects (deliveries to live members, store
    /// applies, acks) until the group quiesces.
    fn pump(&self, group: &mut Group, member: usize, event: ReplEvent<ClusterOp>) -> PumpOut {
        let mut out = PumpOut::default();
        let mut inbox: VecDeque<(usize, ReplEvent<ClusterOp>)> = VecDeque::new();
        inbox.push_back((member, event));
        while let Some((at, event)) = inbox.pop_front() {
            if !self.is_up(group.members[at]) {
                continue;
            }
            let kept_before = group.states[at].log_start;
            let effects = step_replica_in_place(&group.machines[at], &mut group.states[at], &event);
            let dropped = group.states[at].log_start - kept_before;
            if dropped > 0 {
                self.inner.truncated.add(dropped as u64);
            }
            // A StartView from a step that did not win an election is a
            // state transfer (the reply to a gapped backup's NeedState).
            let elected = effects
                .iter()
                .any(|e| matches!(e, ReplEffect::BecamePrimary { .. }));
            for effect in effects {
                match effect {
                    ReplEffect::Send { to, msg } => {
                        let to = to as usize;
                        if !elected && matches!(msg, ReplMsg::StartView { .. }) {
                            self.inner.state_transfers.incr();
                        }
                        // Down nodes drop the message on the floor —
                        // the same pruning the checker's Crash does.
                        if self.is_up(group.members[to]) {
                            inbox.push_back((
                                to,
                                ReplEvent::Recv {
                                    from: at as ReplicaId,
                                    msg,
                                },
                            ));
                        }
                    }
                    ReplEffect::Apply { op_num, op } => {
                        self.apply_op(group, at, op_num, &op);
                    }
                    ReplEffect::ClientAck { op_num } => {
                        self.inner.log_len.record(group.states[at].log.len() as u64);
                        out.acks.push(op_num);
                    }
                    ReplEffect::Redirect { .. } => out.redirected = true,
                    ReplEffect::BecamePrimary { view } => out.new_view = Some(view),
                    ReplEffect::AdoptedView { .. } => {}
                }
            }
        }
        out
    }

    /// Execute one committed op against `member`'s store; the first
    /// applier of each slot also runs the group-level lease side
    /// effects (exactly once per slot).
    fn apply_op(&self, group: &mut Group, member: usize, op_num: u32, op: &ClusterOp) {
        let registry = &self.inner.nodes[group.members[member]].registry;
        let first_applier = op_num > group.group_applied;
        if first_applier {
            group.group_applied = op_num;
            self.bump_data_version(group.shard);
        }
        match op {
            ClusterOp::Save {
                service,
                granted_at_us,
            } => {
                registry.put_service(BusinessService::clone(service));
                if first_applier {
                    if let Some(ttl_ms) = service.lease_ttl_ms {
                        // Shed anything due strictly before the grant,
                        // then arm at the primary's stamped instant.
                        let granted_at = Time(*granted_at_us);
                        let expired = group.leases.advance_to(granted_at);
                        for key in &expired {
                            for &m in &group.members {
                                self.inner.nodes[m].registry.remove_service_record(key);
                            }
                        }
                        group.leases.grant(&service.key, Dur::millis(ttl_ms));
                    }
                }
            }
            ClusterOp::Delete { key } => {
                registry.remove_service_record(key);
                if first_applier {
                    group.leases.cancel(key);
                }
            }
        }
    }
}

/// Parse the shard id out of a cluster-minted service key
/// (`uuid:svc-s{shard:02x}-{seq:06x}`), so deletes route without a
/// lookup.
pub fn shard_of_key(key: &str) -> Option<u32> {
    let rest = key.strip_prefix("uuid:svc-s")?;
    let (shard_hex, _) = rest.split_once('-')?;
    u32::from_str_radix(shard_hex, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;
    use wsp_uddi::{BindingTemplate, ServiceQuery, UddiClient};

    fn cluster() -> RegistryCluster {
        RegistryCluster::new(ClusterConfig {
            nodes: 3,
            shard_count: 4,
            replication: 3,
            default_ttl: None,
        })
    }

    /// `save_service` of `record` at `node`, stamped with `epoch`.
    fn save(
        c: &RegistryCluster,
        node: usize,
        record: BusinessService,
        epoch: Option<u64>,
    ) -> Result<BusinessService, Fault> {
        let services = [record];
        let request = UddiRequest {
            op: UddiOp::SaveService {
                tmodels: Cow::Borrowed(&[]),
                services: Cow::Borrowed(&services),
            },
            map_epoch: epoch,
        };
        match c.process(node, &request) {
            UddiResponse::ServiceDetail(saved) => Ok(saved.into_iter().next().unwrap()),
            UddiResponse::Fault(fault) => Err(fault),
            other => panic!("{other:?}"),
        }
    }

    fn publish(c: &RegistryCluster, node: usize, name: &str) -> Result<BusinessService, Fault> {
        let svc = BusinessService::new("", "biz", name)
            .with_binding(BindingTemplate::new("", format!("http://h/{name}")));
        save(c, node, svc, Some(c.shard_map().epoch()))
    }

    fn primary_node(c: &RegistryCluster, name: &str) -> usize {
        c.shard_map().route(name).primary
    }

    #[test]
    fn publish_replicates_to_every_member() {
        let c = cluster();
        let node = primary_node(&c, "EchoService");
        let saved = publish(&c, node, "EchoService").unwrap();
        assert!(saved.key.starts_with("uuid:svc-s"));
        let shard = c.shard_map().shard_of("EchoService");
        for &m in &c.shard_map().shard(shard).members {
            assert!(
                c.node_registry(m).get_service(&saved.key).is_some(),
                "member {m} must hold the committed record"
            );
        }
    }

    #[test]
    fn non_primary_entry_gets_redirect_fault() {
        let c = cluster();
        let name = "EchoService";
        let route = c.shard_map().route(name);
        let backup = route.backups[0];
        let fault = publish(&c, backup, name).unwrap_err();
        assert!(fault.reason.contains("wsp:notPrimary"), "{}", fault.reason);
        // The fresh map rides in the fault detail.
        let detail = fault.detail.as_deref().unwrap();
        assert!(ShardMap::from_element(detail).is_some());
    }

    #[test]
    fn stale_epoch_gets_versioned_redirect() {
        let c = cluster();
        let fault = save(&c, 0, BusinessService::new("", "biz", "X"), Some(999)).unwrap_err();
        assert!(
            fault.reason.contains("wsp:staleShardMap epoch=0"),
            "{}",
            fault.reason
        );
        let map = ShardMap::from_element(fault.detail.as_deref().unwrap()).unwrap();
        assert_eq!(map.epoch(), 0);
    }

    #[test]
    fn committed_publish_survives_primary_crash() {
        let c = cluster();
        let name = "SurvivorService";
        let route = c.shard_map().route(name);
        let saved = publish(&c, route.primary, name).unwrap();
        let epoch_before = c.shard_map().epoch();

        c.crash(route.primary);
        // Writing through a backup triggers the view change; a backup
        // that is not the new primary redirects, the new primary
        // commits.
        let mut found = None;
        for &node in &route.backups {
            match publish(&c, node, name) {
                Ok(svc) => {
                    found = Some(svc);
                    break;
                }
                Err(fault) => {
                    assert!(fault.reason.contains("wsp:notPrimary"), "{}", fault.reason);
                }
            }
        }
        let republished = found.expect("one backup is the new primary");
        assert!(c.shard_map().epoch() > epoch_before, "epoch must bump");
        // Both the old committed record and the new one live on every
        // surviving member.
        for &m in &route.backups {
            assert!(c.node_registry(m).get_service(&saved.key).is_some());
            assert!(c.node_registry(m).get_service(&republished.key).is_some());
        }
    }

    #[test]
    fn quorum_loss_is_unavailable() {
        let c = cluster();
        let name = "DoomedService";
        let route = c.shard_map().route(name);
        c.crash(route.backups[0]);
        c.crash(route.backups[1]);
        let fault = publish(&c, route.primary, name).unwrap_err();
        assert!(fault.reason.contains("wsp:unavailable"), "{}", fault.reason);
    }

    #[test]
    fn leases_expire_on_the_logical_clock() {
        let c = cluster();
        let name = "LeasedService";
        let route = c.shard_map().route(name);
        let svc = BusinessService::new("", "biz", name).with_lease_ttl_ms(500);
        let saved = save(&c, route.primary, svc, None).unwrap();

        c.advance_to(Time::millis(400));
        assert!(c
            .node_registry(route.primary)
            .get_service(&saved.key)
            .is_some());
        c.advance_to(Time::millis(600));
        for &m in [route.primary].iter().chain(&route.backups) {
            assert!(
                c.node_registry(m).get_service(&saved.key).is_none(),
                "member {m} must shed the expired lease"
            );
        }
    }

    #[test]
    fn refresh_extends_the_lease() {
        let c = cluster();
        let name = "RefreshedService";
        let route = c.shard_map().route(name);
        let svc = BusinessService::new("", "biz", name).with_lease_ttl_ms(500);
        let saved = save(&c, route.primary, svc, None).unwrap();

        // Refresh at t=300 by republishing the same record (same key).
        c.advance_to(Time::millis(300));
        save(&c, route.primary, saved.clone(), None).unwrap();
        c.advance_to(Time::millis(600));
        assert!(
            c.node_registry(route.primary)
                .get_service(&saved.key)
                .is_some(),
            "refreshed lease must outlive the original TTL"
        );
        c.advance_to(Time::millis(900));
        assert!(c
            .node_registry(route.primary)
            .get_service(&saved.key)
            .is_none());
    }

    #[test]
    fn uddi_client_works_through_node_transport() {
        let c = cluster();
        let name = "TransportService";
        let node = primary_node(&c, name);
        let client = UddiClient::new(c.node_transport(node));
        let saved = client
            .save_service(&BusinessService::new("", "biz", name))
            .unwrap();
        assert!(saved.key.starts_with("uuid:svc-s"));
        let found = client.locate(&ServiceQuery::by_name(name)).unwrap();
        assert_eq!(found.len(), 1);
        c.crash(node);
        let err = client
            .save_service(&BusinessService::new("", "biz", name))
            .unwrap_err();
        assert!(matches!(err, wsp_uddi::UddiError::Transport(_)));
    }

    #[test]
    fn tmodels_replicate_to_all_live_nodes() {
        let c = cluster();
        let client = UddiClient::new(c.node_transport(0));
        let tm = client
            .save_tmodel(&TModel::new("", "Echo WSDL").with_overview("http://h/Echo?wsdl"))
            .unwrap();
        for n in 0..3 {
            assert!(c.node_registry(n).get_tmodel(&tm.key).is_some());
        }
    }

    #[test]
    fn shard_of_key_round_trips() {
        let c = cluster();
        let name = "KeyedService";
        let saved = publish(&c, primary_node(&c, name), name).unwrap();
        assert_eq!(shard_of_key(&saved.key), Some(c.shard_map().shard_of(name)));
        assert_eq!(shard_of_key("uuid:svc-12345"), None);
    }
}
