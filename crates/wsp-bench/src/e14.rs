//! E14 — population-scale simulation: 10^5–10^6 peers on the event
//! wheel.
//!
//! The WSPeer paper's unfinished evaluation plan (Section IV.B, point
//! 3) was to simulate "large networks of peers publishing, discovering
//! and invoking Web services". E1–E13 cover the protocol mechanics at
//! 10^2–10^3 nodes with boxed behaviours; E14 is the scale experiment:
//! every peer is a few bytes of struct-of-arrays state driven by the
//! pure `Machine` transitions of PR 6 (`wsp-core::machines`), and the
//! whole population schedules through one [`wsp_simnet::EventWheel`].
//!
//! Three scenarios, each a deterministic function of
//! `(seed, population)` with a [`wsp_simnet::TraceDigest`] fingerprint:
//!
//! * **flash crowd** — N clients wake over a short ramp, locate one
//!   provider through a small rendezvous layer and invoke it. The
//!   provider runs the model-checked [`KeyedAdmissionMachine`] in its
//!   one-tenant host configuration; every client runs the
//!   model-checked [`BreakerMachine`] with timeouts, jittered backoff
//!   and a bounded retry budget.
//! * **partition + heal** — a rendezvous mesh split into two halves
//!   that heartbeat across the divide; a scheduled blackout window
//!   trips the per-peer breakers, and the heal lets their half-open
//!   probes close them again. Light churn rides along through the same
//!   wheel.
//! * **straggler sweep** — clients spread invocations over a provider
//!   pool in which a fraction of providers is pathologically slow;
//!   timeouts convert stragglers into breaker failures and retries onto
//!   other providers, and the tail latency tells the story.
//!
//! The seed-sweep tier (`tests/tests/sim_scale.rs`) asserts
//! bit-identical digests across reruns; the `e14` binary prints the
//! scaling tables recorded in `EXPERIMENTS.md` and writes
//! `target/BENCH_E14.json`.

use rand::Rng;
use std::time::Instant;
use wsp_core::machines::breaker::{
    Admit, BreakerEffect, BreakerEvent, BreakerMachine, BreakerState,
};
use wsp_core::machines::keyed_admission::{
    KeyedAdmissionEffect, KeyedAdmissionEvent, KeyedAdmissionMachine, KeyedAdmissionState,
};
use wsp_simnet::wheel::EventKey;
use wsp_simnet::{
    ChurnModel, Dur, LinkSpec, Machine, NodeId, PeerCtx, PeerEvent, PeerModel, PeerMsg, PeerSim,
    Time,
};

/// A clean request against a provider's single tenant slot.
const ADMIT: KeyedAdmissionEvent = KeyedAdmissionEvent::Admit {
    tenant: 0,
    queue_depth: 0,
    deadline_expired: false,
};

/// The one message vocabulary shared by all E14 scenarios. `Copy` and
/// word-sized so a million in-flight messages stay cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Msg {
    /// Client → rendezvous: where is the service?
    Locate,
    /// Rendezvous → client: invoke this provider.
    LocateOk { provider: NodeId },
    /// Client → provider: one invocation.
    Invoke,
    /// Provider → client: invocation completed.
    InvokeOk,
    /// Provider → client: shed by admission control.
    Busy,
    /// Mesh heartbeat request.
    Ping,
    /// Mesh heartbeat reply.
    Pong,
}

impl PeerMsg for Msg {
    fn wire_size(&self) -> usize {
        // Rough SOAP-envelope sizes from the E6 measurements: requests
        // carry a body, replies are mostly envelope.
        match self {
            Msg::Locate => 412,
            Msg::LocateOk { .. } => 287,
            Msg::Invoke => 540,
            Msg::InvokeOk => 231,
            Msg::Busy => 189,
            Msg::Ping | Msg::Pong => 96,
        }
    }

    fn digest(&self) -> u64 {
        match *self {
            Msg::Locate => 1,
            Msg::LocateOk { provider } => 2 | ((provider as u64) << 8),
            Msg::Invoke => 3,
            Msg::InvokeOk => 4,
            Msg::Busy => 5,
            Msg::Ping => 6,
            Msg::Pong => 7,
        }
    }
}

// Timer tags: kind in the high 32 bits, argument (peer id, round) low.
const TAG_START: u64 = 1 << 32;
const TAG_RETRY: u64 = 2 << 32;
const TAG_TIMEOUT: u64 = 3 << 32;
const TAG_SERVICE: u64 = 4 << 32;
const TAG_ROUND: u64 = 5 << 32;

fn tag_kind(tag: u64) -> u64 {
    tag & (0xffff_ffff << 32)
}

fn tag_arg(tag: u64) -> u64 {
    tag & 0xffff_ffff
}

/// One row of the E14 table: a complete scenario run.
#[derive(Debug, Clone)]
pub struct E14Row {
    pub scenario: &'static str,
    pub seed: u64,
    pub peers: u32,
    pub events: u64,
    pub wall_ms: u64,
    pub events_per_sec: f64,
    /// Invocations (or heartbeats) that completed successfully.
    pub completed: u64,
    /// Requests shed by admission control plus locally suppressed
    /// attempts (open breakers).
    pub shed: u64,
    /// Clients that exhausted their retry budget.
    pub gave_up: u64,
    pub p50_us: u64,
    pub p99_us: u64,
    /// `hash/folded` trace digest — the bit-identity fingerprint.
    pub digest: String,
}

#[allow(clippy::too_many_arguments)]
fn finish(
    scenario: &'static str,
    seed: u64,
    sim_events: u64,
    started: Instant,
    sim: &PeerSim<impl PeerModel>,
    completed: u64,
    shed: u64,
    gave_up: u64,
) -> E14Row {
    let wall = started.elapsed();
    let wall_ms = wall.as_millis() as u64;
    let lat = sim.metrics().summary("e14.latency_us");
    E14Row {
        scenario,
        seed,
        peers: sim.node_count(),
        events: sim_events,
        wall_ms,
        events_per_sec: sim_events as f64 / wall.as_secs_f64().max(1e-9),
        completed,
        shed,
        gave_up,
        p50_us: lat.map(|s| s.p50).unwrap_or(0),
        p99_us: lat.map(|s| s.p99).unwrap_or(0),
        digest: sim.digest().to_string(),
    }
}

// ---------------------------------------------------------------------------
// Flash crowd
// ---------------------------------------------------------------------------

const MAX_ATTEMPTS: u8 = 6;

#[derive(Debug, Clone, Copy)]
struct Client {
    breaker: BreakerState,
    attempts: u8,
    done: bool,
    started_us: u64,
    timeout: Option<EventKey>,
}

/// The flash-crowd model: one provider behind a one-tenant
/// [`KeyedAdmissionMachine`], a thin rendezvous layer, and N
/// breaker-guarded clients.
pub struct FlashCrowd {
    breaker: BreakerMachine,
    admission: KeyedAdmissionMachine,
    provider: NodeId,
    first_rdv: NodeId,
    n_rdv: u32,
    first_client: NodeId,
    clients: Vec<Client>,
    admission_state: KeyedAdmissionState,
    service: Dur,
    timeout: Dur,
    completed: u64,
    gave_up: u64,
}

impl FlashCrowd {
    fn client_mut(&mut self, peer: NodeId) -> &mut Client {
        &mut self.clients[(peer - self.first_client) as usize]
    }

    /// Ask the breaker, then send a `Locate` (or back off / give up).
    fn try_call(&mut self, ctx: &mut PeerCtx<'_, Msg>, peer: NodeId) {
        let now_ms = ctx.now().as_micros() / 1000;
        let first_client = self.first_client;
        let c = &mut self.clients[(peer - first_client) as usize];
        if c.done || c.attempts >= MAX_ATTEMPTS {
            return;
        }
        c.attempts += 1;
        let effects = wsp_simnet::step_mut(
            &self.breaker,
            &mut c.breaker,
            &BreakerEvent::Acquire { now: now_ms },
        );
        match effects[0] {
            BreakerEffect::Admit(Admit::Allowed) | BreakerEffect::Admit(Admit::Probe) => {
                let rdv = self.first_rdv + ctx.rng().random_range(0..self.n_rdv);
                ctx.send(rdv, Msg::Locate);
                let key = ctx.set_timer(self.timeout, TAG_TIMEOUT);
                self.clients[(peer - first_client) as usize].timeout = Some(key);
            }
            _ => {
                // Open breaker: suppress locally and retry after roughly
                // a cooldown, when the half-open window admits a probe.
                ctx.count("e14.suppressed");
                self.retry(ctx, peer);
            }
        }
    }

    fn retry(&mut self, ctx: &mut PeerCtx<'_, Msg>, peer: NodeId) {
        let c = self.client_mut(peer);
        if c.done {
            return;
        }
        if c.attempts >= MAX_ATTEMPTS {
            self.gave_up += 1;
            ctx.count("e14.gave_up");
            return;
        }
        let backoff = Dur::millis(150).mul_f64(c.attempts as f64)
            + Dur::micros(ctx.rng().random_range(0..100_000));
        ctx.set_timer(backoff, TAG_RETRY);
    }

    fn fail(&mut self, ctx: &mut PeerCtx<'_, Msg>, peer: NodeId) {
        let now_ms = ctx.now().as_micros() / 1000;
        let idx = (peer - self.first_client) as usize;
        let c = &mut self.clients[idx];
        if let Some(key) = c.timeout.take() {
            ctx.cancel_timer(key);
        }
        let effects = wsp_simnet::step_mut(
            &self.breaker,
            &mut c.breaker,
            &BreakerEvent::Failure { now: now_ms },
        );
        if effects.contains(&BreakerEffect::Tripped) {
            ctx.count("e14.trips");
        }
        self.retry(ctx, peer);
    }

    fn client_event(&mut self, ctx: &mut PeerCtx<'_, Msg>, peer: NodeId, event: PeerEvent<Msg>) {
        match event {
            PeerEvent::Timer { tag } => match tag_kind(tag) {
                TAG_START | TAG_RETRY => self.try_call(ctx, peer),
                TAG_TIMEOUT => {
                    self.client_mut(peer).timeout = None;
                    ctx.count("e14.timeouts");
                    self.fail(ctx, peer);
                }
                _ => {}
            },
            PeerEvent::Message { msg, .. } => match msg {
                Msg::LocateOk { provider } if !self.client_mut(peer).done => {
                    let timeout = self.timeout;
                    let c = self.client_mut(peer);
                    if let Some(key) = c.timeout.take() {
                        ctx.cancel_timer(key);
                    }
                    ctx.send(provider, Msg::Invoke);
                    let key = ctx.set_timer(timeout, TAG_TIMEOUT);
                    self.client_mut(peer).timeout = Some(key);
                }
                Msg::Busy => self.fail(ctx, peer),
                Msg::InvokeOk if !self.client_mut(peer).done => {
                    let now = ctx.now().as_micros();
                    let idx = (peer - self.first_client) as usize;
                    let c = &mut self.clients[idx];
                    c.done = true;
                    if let Some(key) = c.timeout.take() {
                        ctx.cancel_timer(key);
                    }
                    let latency = now - c.started_us;
                    let effects =
                        wsp_simnet::step_mut(&self.breaker, &mut c.breaker, &BreakerEvent::Success);
                    if effects.contains(&BreakerEffect::Recovered) {
                        ctx.count("e14.recoveries");
                    }
                    self.completed += 1;
                    ctx.sample("e14.latency_us", latency);
                }
                _ => {}
            },
            _ => {}
        }
    }

    fn provider_event(&mut self, ctx: &mut PeerCtx<'_, Msg>, event: PeerEvent<Msg>) {
        match event {
            PeerEvent::Message {
                from,
                msg: Msg::Invoke,
            } => {
                let effects =
                    wsp_simnet::step_mut(&self.admission, &mut self.admission_state, &ADMIT);
                match effects[0] {
                    KeyedAdmissionEffect::Admitted { .. } => {
                        ctx.count("e14.admitted");
                        ctx.set_timer(self.service, TAG_SERVICE | from as u64);
                    }
                    _ => {
                        ctx.count("e14.shed");
                        ctx.send(from, Msg::Busy);
                    }
                }
            }
            PeerEvent::Timer { tag } if tag_kind(tag) == TAG_SERVICE => {
                wsp_simnet::step_mut(
                    &self.admission,
                    &mut self.admission_state,
                    &KeyedAdmissionEvent::Release { tenant: 0 },
                );
                ctx.send(tag_arg(tag) as NodeId, Msg::InvokeOk);
            }
            _ => {}
        }
    }
}

impl PeerModel for FlashCrowd {
    type Msg = Msg;

    fn on_event(&mut self, ctx: &mut PeerCtx<'_, Msg>, peer: NodeId, event: PeerEvent<Msg>) {
        if peer == self.provider {
            self.provider_event(ctx, event);
        } else if peer >= self.first_client {
            self.client_event(ctx, peer, event);
        } else if let PeerEvent::Message {
            from,
            msg: Msg::Locate,
        } = event
        {
            // Rendezvous: stateless redirect to the provider.
            ctx.send(
                from,
                Msg::LocateOk {
                    provider: self.provider,
                },
            );
        }
    }
}

/// Run the flash crowd: `clients` peers wake over a 2 s ramp, locate
/// the one provider through 16 rendezvous peers, and invoke it.
pub fn flash_crowd(seed: u64, clients: u32) -> E14Row {
    const N_RDV: u32 = 16;
    const RAMP: Dur = Dur::secs(2);
    let started = Instant::now();

    let admission = KeyedAdmissionMachine::one_tenant(256, u64::MAX);
    let model = FlashCrowd {
        breaker: BreakerMachine {
            failure_threshold: 3,
            cooldown: 400, // ms
        },
        admission_state: admission.initial(),
        admission,
        provider: 0,
        first_rdv: 1,
        n_rdv: N_RDV,
        first_client: 1 + N_RDV,
        clients: Vec::new(),
        service: Dur::millis(2),
        timeout: Dur::millis(800),
        completed: 0,
        gave_up: 0,
    };
    let mut sim = PeerSim::new(seed, model);

    let provider = sim.add_peers(1, 2);
    debug_assert_eq!(provider, 0);
    sim.add_peers(N_RDV as usize, 1);
    let first_client = sim.add_peers(clients as usize, 0);

    // Clients and rendezvous reach each other over the WAN profile
    // (1% loss drives the retry path); the rendezvous → provider hop is
    // a LAN.
    let wan = LinkSpec::wan();
    sim.set_class_link_sym(0, 1, wan);
    sim.set_class_link_sym(0, 2, wan);
    sim.set_class_link_sym(1, 2, LinkSpec::lan());

    // Deterministic ramp: client i wakes at i/N of the ramp window, and
    // records that instant as its start for end-to-end latency.
    let ramp_us = RAMP.as_micros();
    for i in 0..clients {
        let at = Time::micros(i as u64 * ramp_us / clients as u64);
        sim.model_mut().clients.push(Client {
            breaker: BreakerState::Closed { failures: 0 },
            attempts: 0,
            done: false,
            started_us: at.as_micros(),
            timeout: None,
        });
        sim.schedule_timer_at(at, first_client + i, TAG_START);
    }

    sim.set_event_budget(200 * clients as u64 + 1_000_000);
    sim.run_to_quiescence();

    let completed = sim.model().completed;
    let gave_up = sim.model().gave_up;
    let shed = sim.metrics().counter("e14.shed") + sim.metrics().counter("e14.suppressed");
    let events = sim.events_dispatched();
    finish(
        "flash_crowd",
        seed,
        events,
        started,
        &sim,
        completed,
        shed,
        gave_up,
    )
}

// ---------------------------------------------------------------------------
// Partition + heal
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct MeshPeer {
    breaker: BreakerState,
    timeout: Option<EventKey>,
    sent_at: u64,
}

/// The rendezvous-mesh model: every peer heartbeats a random peer on
/// the *other* side of the mesh each round, guarded by its own breaker.
pub struct Mesh {
    breaker: BreakerMachine,
    peers: Vec<MeshPeer>,
    half: u32,
    round: Dur,
    timeout: Dur,
    horizon: Time,
    completed: u64,
}

impl Mesh {
    fn next_round(&self, ctx: &mut PeerCtx<'_, Msg>) {
        if ctx.now() + self.round <= self.horizon {
            ctx.set_timer(self.round, TAG_ROUND);
        }
    }
}

impl PeerModel for Mesh {
    type Msg = Msg;

    fn on_event(&mut self, ctx: &mut PeerCtx<'_, Msg>, peer: NodeId, event: PeerEvent<Msg>) {
        match event {
            PeerEvent::Timer { tag } => match tag_kind(tag) {
                TAG_ROUND => {
                    self.next_round(ctx);
                    let now_ms = ctx.now().as_micros() / 1000;
                    let p = &mut self.peers[peer as usize];
                    if p.timeout.is_some() {
                        return; // previous heartbeat still outstanding
                    }
                    let effects = wsp_simnet::step_mut(
                        &self.breaker,
                        &mut p.breaker,
                        &BreakerEvent::Acquire { now: now_ms },
                    );
                    match effects[0] {
                        BreakerEffect::Admit(Admit::Allowed)
                        | BreakerEffect::Admit(Admit::Probe) => {
                            // A random peer on the other side.
                            let other = if peer < self.half {
                                self.half + ctx.rng().random_range(0..self.half)
                            } else {
                                ctx.rng().random_range(0..self.half)
                            };
                            p.sent_at = ctx.now().as_micros();
                            ctx.send(other, Msg::Ping);
                            let key = ctx.set_timer(self.timeout, TAG_TIMEOUT);
                            self.peers[peer as usize].timeout = Some(key);
                        }
                        _ => ctx.count("e14.suppressed"),
                    }
                }
                TAG_TIMEOUT => {
                    let now_ms = ctx.now().as_micros() / 1000;
                    let p = &mut self.peers[peer as usize];
                    p.timeout = None;
                    ctx.count("e14.timeouts");
                    let effects = wsp_simnet::step_mut(
                        &self.breaker,
                        &mut p.breaker,
                        &BreakerEvent::Failure { now: now_ms },
                    );
                    if effects.contains(&BreakerEffect::Tripped) {
                        ctx.count("e14.trips");
                    }
                }
                _ => {}
            },
            PeerEvent::Message { from, msg } => match msg {
                Msg::Ping => ctx.send(from, Msg::Pong),
                Msg::Pong => {
                    let now = ctx.now().as_micros();
                    let p = &mut self.peers[peer as usize];
                    let Some(key) = p.timeout.take() else {
                        return; // stale pong after its timeout already fired
                    };
                    ctx.cancel_timer(key);
                    let effects =
                        wsp_simnet::step_mut(&self.breaker, &mut p.breaker, &BreakerEvent::Success);
                    if effects.contains(&BreakerEffect::Recovered) {
                        ctx.count("e14.recoveries");
                    }
                    self.completed += 1;
                    ctx.sample("e14.latency_us", now - p.sent_at);
                }
                _ => {}
            },
            PeerEvent::WentUp => {
                // Churned-back peers lost their round timer while down;
                // rejoin the heartbeat schedule.
                self.next_round(ctx);
            }
            PeerEvent::Start | PeerEvent::WentDown => {}
        }
    }
}

/// How many mesh breakers are closed (healed) right now.
pub fn mesh_closed_breakers(sim: &PeerSim<Mesh>) -> u32 {
    sim.model()
        .peers
        .iter()
        .filter(|p| matches!(p.breaker, BreakerState::Closed { .. }))
        .count() as u32
}

/// Build and run the partition scenario, returning the sim for
/// fine-grained assertions (the row is derivable via
/// [`partition_heal`]).
pub fn partition_heal_sim(seed: u64, peers: u32) -> PeerSim<Mesh> {
    assert!(
        peers >= 2 && peers.is_multiple_of(2),
        "mesh needs two equal halves"
    );
    let half = peers / 2;
    let horizon = Time::secs(12);

    let model = Mesh {
        breaker: BreakerMachine {
            failure_threshold: 2,
            cooldown: 1_000, // ms
        },
        peers: vec![
            MeshPeer {
                breaker: BreakerState::Closed { failures: 0 },
                timeout: None,
                sent_at: 0,
            };
            peers as usize
        ],
        half,
        round: Dur::millis(250),
        timeout: Dur::millis(300),
        horizon,
        completed: 0,
    };
    let mut sim = PeerSim::new(seed, model);
    let first = sim.add_peers(half as usize, 0);
    sim.add_peers(half as usize, 1);

    let flat = LinkSpec::lan();
    sim.set_class_link_sym(0, 1, flat);

    // Blackout the cross-half links for [3 s, 6 s): every heartbeat in
    // the window is lost, breakers trip after two timeouts, and the
    // post-heal half-open probes close them again.
    sim.schedule_class_link_sym(Time::secs(3), 0, 1, flat.with_loss(1.0));
    sim.schedule_class_link_sym(Time::secs(6), 0, 1, flat);

    // Light churn on a tenth of the mesh, scheduled through the same
    // wheel as everything else.
    let churn = ChurnModel::new(Dur::secs(4), Dur::millis(500));
    churn.apply(&mut sim, first..first + peers / 10, horizon, seed ^ 0x5eed);

    // Stagger round starts across one round length.
    let round_us = Dur::millis(250).as_micros();
    for i in 0..peers {
        let at = Time::micros(i as u64 * round_us / peers as u64);
        sim.schedule_timer_at(at, i, TAG_ROUND);
    }

    sim.set_event_budget(2_000 * peers as u64 + 1_000_000);
    sim.run_to_quiescence();
    sim
}

/// Run the partition scenario and summarise it as a row.
pub fn partition_heal(seed: u64, peers: u32) -> E14Row {
    let started = Instant::now();
    let sim = partition_heal_sim(seed, peers);
    let completed = sim.model().completed;
    let shed = sim.metrics().counter("e14.suppressed");
    let events = sim.events_dispatched();
    finish(
        "partition_heal",
        seed,
        events,
        started,
        &sim,
        completed,
        shed,
        0,
    )
}

// ---------------------------------------------------------------------------
// Straggler sweep
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Provider {
    admission: KeyedAdmissionState,
    service: Dur,
}

/// The straggler model: a provider pool where a fraction is slow enough
/// to blow the client timeout; clients retry onto a different provider.
pub struct Stragglers {
    breaker: BreakerMachine,
    admission: KeyedAdmissionMachine,
    providers: Vec<Provider>,
    first_client: NodeId,
    clients: Vec<Client>,
    /// Last provider each client tried (retries avoid it).
    last_provider: Vec<NodeId>,
    timeout: Dur,
    completed: u64,
    gave_up: u64,
}

impl Stragglers {
    fn try_call(&mut self, ctx: &mut PeerCtx<'_, Msg>, peer: NodeId) {
        let now_ms = ctx.now().as_micros() / 1000;
        let idx = (peer - self.first_client) as usize;
        let c = &mut self.clients[idx];
        if c.done || c.attempts >= MAX_ATTEMPTS {
            return;
        }
        c.attempts += 1;
        let effects = wsp_simnet::step_mut(
            &self.breaker,
            &mut c.breaker,
            &BreakerEvent::Acquire { now: now_ms },
        );
        match effects[0] {
            BreakerEffect::Admit(Admit::Allowed) | BreakerEffect::Admit(Admit::Probe) => {
                let n = self.providers.len() as u32;
                let mut provider = ctx.rng().random_range(0..n);
                if n > 1 && provider == self.last_provider[idx] {
                    provider = (provider + 1) % n;
                }
                self.last_provider[idx] = provider;
                ctx.send(provider, Msg::Invoke);
                let key = ctx.set_timer(self.timeout, TAG_TIMEOUT);
                self.clients[idx].timeout = Some(key);
            }
            _ => {
                ctx.count("e14.suppressed");
                self.retry(ctx, peer);
            }
        }
    }

    fn retry(&mut self, ctx: &mut PeerCtx<'_, Msg>, peer: NodeId) {
        let idx = (peer - self.first_client) as usize;
        let c = &mut self.clients[idx];
        if c.done {
            return;
        }
        if c.attempts >= MAX_ATTEMPTS {
            self.gave_up += 1;
            ctx.count("e14.gave_up");
            return;
        }
        let backoff = Dur::millis(50).mul_f64(c.attempts as f64)
            + Dur::micros(ctx.rng().random_range(0..50_000));
        ctx.set_timer(backoff, TAG_RETRY);
    }

    fn fail(&mut self, ctx: &mut PeerCtx<'_, Msg>, peer: NodeId) {
        let now_ms = ctx.now().as_micros() / 1000;
        let idx = (peer - self.first_client) as usize;
        let c = &mut self.clients[idx];
        if let Some(key) = c.timeout.take() {
            ctx.cancel_timer(key);
        }
        let effects = wsp_simnet::step_mut(
            &self.breaker,
            &mut c.breaker,
            &BreakerEvent::Failure { now: now_ms },
        );
        if effects.contains(&BreakerEffect::Tripped) {
            ctx.count("e14.trips");
        }
        self.retry(ctx, peer);
    }
}

impl PeerModel for Stragglers {
    type Msg = Msg;

    fn on_event(&mut self, ctx: &mut PeerCtx<'_, Msg>, peer: NodeId, event: PeerEvent<Msg>) {
        if peer >= self.first_client {
            // Client side.
            match event {
                PeerEvent::Timer { tag } => match tag_kind(tag) {
                    TAG_START | TAG_RETRY => self.try_call(ctx, peer),
                    TAG_TIMEOUT => {
                        let idx = (peer - self.first_client) as usize;
                        self.clients[idx].timeout = None;
                        ctx.count("e14.timeouts");
                        self.fail(ctx, peer);
                    }
                    _ => {}
                },
                PeerEvent::Message { msg, .. } => {
                    let idx = (peer - self.first_client) as usize;
                    match msg {
                        Msg::Busy => self.fail(ctx, peer),
                        Msg::InvokeOk if !self.clients[idx].done => {
                            let now = ctx.now().as_micros();
                            let c = &mut self.clients[idx];
                            c.done = true;
                            if let Some(key) = c.timeout.take() {
                                ctx.cancel_timer(key);
                            }
                            let latency = now - c.started_us;
                            let effects = wsp_simnet::step_mut(
                                &self.breaker,
                                &mut c.breaker,
                                &BreakerEvent::Success,
                            );
                            if effects.contains(&BreakerEffect::Recovered) {
                                ctx.count("e14.recoveries");
                            }
                            self.completed += 1;
                            ctx.sample("e14.latency_us", latency);
                        }
                        _ => {}
                    }
                }
                _ => {}
            }
        } else {
            // Provider side: per-provider admission + service time.
            match event {
                PeerEvent::Message {
                    from,
                    msg: Msg::Invoke,
                } => {
                    let p = &mut self.providers[peer as usize];
                    let effects = wsp_simnet::step_mut(&self.admission, &mut p.admission, &ADMIT);
                    match effects[0] {
                        KeyedAdmissionEffect::Admitted { .. } => {
                            ctx.count("e14.admitted");
                            let service = p.service;
                            ctx.set_timer(service, TAG_SERVICE | from as u64);
                        }
                        _ => {
                            ctx.count("e14.shed");
                            ctx.send(from, Msg::Busy);
                        }
                    }
                }
                PeerEvent::Timer { tag } if tag_kind(tag) == TAG_SERVICE => {
                    wsp_simnet::step_mut(
                        &self.admission,
                        &mut self.providers[peer as usize].admission,
                        &KeyedAdmissionEvent::Release { tenant: 0 },
                    );
                    ctx.send(tag_arg(tag) as NodeId, Msg::InvokeOk);
                }
                _ => {}
            }
        }
    }
}

/// Run the straggler sweep point: `clients` invoke a pool of
/// `providers` of which `slow_permille`/1000 are 100× slower than the
/// client timeout allows.
pub fn straggler_sweep(seed: u64, clients: u32, providers: u32, slow_permille: u32) -> E14Row {
    assert!(providers >= 2);
    const RAMP: Dur = Dur::secs(1);
    let started = Instant::now();
    let timeout = Dur::millis(400);
    let n_slow = (providers as u64 * slow_permille as u64 / 1000) as u32;

    let model = Stragglers {
        breaker: BreakerMachine {
            failure_threshold: 3,
            cooldown: 300, // ms
        },
        admission: KeyedAdmissionMachine::one_tenant(64, u64::MAX),
        providers: Vec::new(),
        first_client: providers,
        clients: Vec::new(),
        last_provider: vec![u32::MAX; clients as usize],
        timeout,
        completed: 0,
        gave_up: 0,
    };
    let mut sim = PeerSim::new(seed, model);
    sim.add_peers(providers as usize, 1);
    let first_client = sim.add_peers(clients as usize, 0);
    sim.set_class_link_sym(0, 1, LinkSpec::wan());

    for i in 0..providers {
        // The first n_slow provider ids are the stragglers: their
        // service time alone exceeds the client timeout, so every call
        // that lands on one converts into a timeout + retry elsewhere.
        let service = if i < n_slow {
            Dur::millis(1_000)
        } else {
            Dur::millis(2)
        };
        let admission = sim.model().admission.initial();
        sim.model_mut()
            .providers
            .push(Provider { admission, service });
    }

    let ramp_us = RAMP.as_micros();
    for i in 0..clients {
        let at = Time::micros(i as u64 * ramp_us / clients as u64);
        sim.model_mut().clients.push(Client {
            breaker: BreakerState::Closed { failures: 0 },
            attempts: 0,
            done: false,
            started_us: at.as_micros(),
            timeout: None,
        });
        sim.schedule_timer_at(at, first_client + i, TAG_START);
    }

    sim.set_event_budget(200 * clients as u64 + 1_000_000);
    sim.run_to_quiescence();

    let completed = sim.model().completed;
    let gave_up = sim.model().gave_up;
    let shed = sim.metrics().counter("e14.shed") + sim.metrics().counter("e14.suppressed");
    let events = sim.events_dispatched();
    finish(
        "straggler",
        seed,
        events,
        started,
        &sim,
        completed,
        shed,
        gave_up,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flash_crowd_small_is_deterministic_and_mostly_completes() {
        let a = flash_crowd(7, 2_000);
        let b = flash_crowd(7, 2_000);
        assert_eq!(a.digest, b.digest, "same seed, same digest");
        assert_eq!(a.completed, b.completed);
        assert!(
            a.completed as f64 >= 0.95 * 2_000.0,
            "most clients should complete: {}",
            a.completed
        );
        let c = flash_crowd(8, 2_000);
        assert_ne!(a.digest, c.digest, "different seed diverges");
    }

    #[test]
    fn partition_trips_then_heals() {
        let sim = partition_heal_sim(7, 200);
        assert!(
            sim.metrics().counter("e14.trips") > 0,
            "blackout must trip breakers"
        );
        assert!(
            sim.metrics().counter("e14.recoveries") > 0,
            "heal must recover breakers"
        );
        // By the horizon every surviving breaker has had seconds of
        // healthy heartbeats: the overwhelming majority must be closed.
        let closed = mesh_closed_breakers(&sim);
        assert!(
            closed >= 190,
            "mesh should re-close after heal: {closed}/200"
        );
    }

    #[test]
    fn stragglers_raise_tail_latency() {
        let clean = straggler_sweep(7, 2_000, 20, 0);
        let slow = straggler_sweep(7, 2_000, 20, 300);
        assert!(clean.completed as f64 >= 0.95 * 2_000.0);
        assert!(slow.completed as f64 >= 0.90 * 2_000.0);
        assert!(
            slow.p99_us > clean.p99_us,
            "30% stragglers must show in the tail: clean {} vs slow {}",
            clean.p99_us,
            slow.p99_us
        );
        assert_eq!(
            straggler_sweep(7, 2_000, 20, 300).digest,
            slow.digest,
            "sweep points are deterministic too"
        );
    }
}
