//! The simulation engine: one event loop, one link table, one seeded
//! RNG and one run digest, for 10^2 boxed nodes or 10^6 lightweight
//! peers alike.
//!
//! `PeerSim` is the process/node separation taken to its limit (the
//! `dslab` shape): **one** [`PeerModel`] value owns the state of *every*
//! peer, and the engine calls it with a peer index. The engine's own
//! per-peer state is two bytes — one in the up table, one in the class
//! table — so an idle peer costs no allocation, no box and no thread,
//! which is what lets a flash crowd of 10^6 clients fit in memory and
//! run in seconds. A model is free to spend more: [`crate::SimNet`] is
//! the model whose per-peer state is a `Box<dyn Node>`, and it is the
//! only other front-end — it adds nodes and their `Start` events and
//! owns no loop, clock, link or counter of its own.
//!
//! Population models are intended to be driven by the pure `Machine`
//! transitions of PR 6 (`wsp-core::machines`): the model stores each
//! peer's `Machine::State` inline (struct-of-arrays `Vec`s indexed by
//! `NodeId`) and calls `step` on dispatch, so the same
//! breaker/admission/correlation semantics that are exhaustively
//! model-checked in `wsp-check` execute at population scale (see
//! `wsp-bench::e14`).
//!
//! The link table is a class matrix plus pair overrides. A per-pair map
//! alone is O(n²) and unrepresentable at 10^6 peers, while large
//! scenarios only distinguish a handful of populations (clients vs
//! infrastructure, partition side A vs side B): each peer carries a
//! `u8` class and `LinkSpec`s live in a small class×class matrix.
//! Boxed nodes are all class 0, so cell `[0][0]` is their *default
//! link*. A fault that singles out one pair (`set_link`,
//! `schedule_link`, a [`crate::FaultPlan`] blackout) goes into a pair
//! map consulted first; it is empty in population runs, which then pay
//! one `is_empty()` branch per send. Link changes — matrix cells and
//! pairs alike — are scheduled *through the wheel* like everything
//! else.
//!
//! Determinism, stated once for both front-ends: one seeded [`StdRng`]
//! samples every loss/jitter decision at send time, in dispatch order;
//! the wheel fires simultaneous events in schedule order; a node goes
//! down *after* it has seen `WentDown` and comes up *before* it sees
//! `WentUp`; and every dispatched event and every drop is folded into a
//! [`TraceDigest`], so `(seed, model, schedule)` → digest is a pure
//! function. Two runs with the same `WSP_FAULT_SEED` produce
//! bit-identical digests — asserted, at 10^5 peers, by
//! `tests/tests/sim_scale.rs`. A [`Trace`] is the same observation kept
//! as records instead of a hash: opt-in, fed where the digest is fed.

use crate::digest::TraceDigest;
use crate::link::LinkSpec;
use crate::metrics::Metrics;
use crate::node::{NodeId, Payload};
use crate::time::{Dur, Time};
use crate::trace::{Trace, TraceEvent};
use crate::wheel::{EventKey, EventWheel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Number of distinguishable link classes.
pub const LINK_CLASSES: usize = 8;

/// Everything a peer can observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerEvent<Msg> {
    /// Fired once when a node joins through [`crate::SimNet::add_node`].
    /// [`PeerSim::add_peers`] schedules nothing — a population model
    /// kicks its peers off with [`PeerSim::schedule_timer_at`] — so a
    /// million idle peers cost no events.
    Start,
    /// A message arrived.
    Message { from: NodeId, msg: Msg },
    /// A timer set with [`PeerCtx::set_timer`] (or injected with
    /// [`PeerSim::schedule_timer_at`]) fired.
    Timer { tag: u64 },
    /// The peer came back up after churn.
    WentUp,
    /// The peer went down (it receives nothing until `WentUp`).
    WentDown,
}

/// The single behaviour object driving every peer.
///
/// There is one model per *simulation*, not per peer: per-peer state
/// lives inside the model, indexed by `NodeId`.
pub trait PeerModel {
    type Msg: Payload;
    fn on_event(
        &mut self,
        ctx: &mut PeerCtx<'_, Self::Msg>,
        peer: NodeId,
        event: PeerEvent<Self::Msg>,
    );
}

/// Wheel payload: something happens to one peer, or a link changes.
enum Fire<Msg> {
    /// `WentUp` / `WentDown` here are the transitions themselves: the
    /// up table changes when they fire.
    Event(NodeId, PeerEvent<Msg>),
    /// Replace one cell of the class-link matrix (partition windows,
    /// slow-class onsets, default-link changes).
    ClassLink { from: u8, to: u8, spec: LinkSpec },
    /// Replace the override for one directed pair.
    PairLink {
        from: NodeId,
        to: NodeId,
        spec: LinkSpec,
    },
}

// Digest tags, folded ahead of each record.
const D_DELIVER: u64 = 1;
const D_TIMER: u64 = 2;
const D_UP: u64 = 3;
const D_DOWN: u64 = 4;
const D_DROP_LOSS: u64 = 5;
const D_DROP_DOWN: u64 = 6;
const D_LINK: u64 = 7;
const D_PAIR_LINK: u64 = 8;
const D_START: u64 = 9;
const D_DROP_NO_SUCH_NODE: u64 = 10;

/// Everything the engine owns except the model — what a dispatch may
/// touch while the model is mutably borrowed.
struct World<Msg> {
    wheel: EventWheel<Fire<Msg>>,
    up: Vec<bool>,
    class_of: Vec<u8>,
    links: [[LinkSpec; LINK_CLASSES]; LINK_CLASSES],
    pair_links: HashMap<(NodeId, NodeId), LinkSpec>,
    rng: StdRng,
    metrics: Metrics,
    digest: TraceDigest,
    trace: Option<Trace>,
}

impl<Msg: Payload> World<Msg> {
    fn is_up(&self, peer: NodeId) -> bool {
        self.up.get(peer as usize).copied().unwrap_or(false)
    }

    /// An id nobody added (only an outside caller can name one as a
    /// sender) is class 0, like every boxed node.
    fn class(&self, peer: NodeId) -> usize {
        self.class_of.get(peer as usize).copied().unwrap_or(0) as usize
    }

    fn link(&self, from: NodeId, to: NodeId) -> LinkSpec {
        if !self.pair_links.is_empty() {
            if let Some(spec) = self.pair_links.get(&(from, to)) {
                return *spec;
            }
        }
        self.links[self.class(from)][self.class(to)]
    }

    fn observe(&mut self, event: impl FnOnce() -> TraceEvent) {
        if let Some(trace) = &mut self.trace {
            trace.record(self.wheel.now(), event());
        }
    }

    /// Loss and latency are sampled now (deterministically, in dispatch
    /// order); delivery is asynchronous via the wheel.
    fn send(&mut self, from: NodeId, to: NodeId, msg: Msg) {
        self.metrics.incr("simnet.sent", 1);
        let t = self.wheel.now().as_micros();
        if to as usize >= self.up.len() {
            self.metrics.incr("simnet.dropped_no_such_node", 1);
            self.digest
                .fold_all(&[D_DROP_NO_SUCH_NODE, t, from as u64, to as u64]);
            return;
        }
        self.observe(|| TraceEvent::Sent {
            from,
            to,
            bytes: msg.wire_size(),
        });
        match self.link(from, to).sample(&mut self.rng) {
            Some(delay) => {
                let event = PeerEvent::Message { from, msg };
                self.wheel.schedule_after(delay, Fire::Event(to, event));
            }
            None => {
                self.metrics.incr("simnet.dropped_loss", 1);
                self.digest
                    .fold_all(&[D_DROP_LOSS, t, from as u64, to as u64]);
                self.observe(|| TraceEvent::DroppedLoss { from, to });
            }
        }
    }

    /// Account for `event` firing at `peer` — up table, counters, digest,
    /// trace. Returns whether the peer gets to see it: a down peer sees
    /// nothing until its `WentUp` (messages to it are counted, its
    /// timers are lost), and a transition into the state the peer is
    /// already in is not a transition.
    fn admit(&mut self, t: u64, peer: NodeId, event: &PeerEvent<Msg>) -> bool {
        let p = peer as u64;
        match event {
            PeerEvent::WentUp => {
                if self.up.get(peer as usize) != Some(&false) {
                    return false;
                }
                self.up[peer as usize] = true;
                self.metrics.incr("simnet.node_up", 1);
                self.digest.fold_all(&[D_UP, t, p]);
                self.observe(|| TraceEvent::NodeUp(peer));
            }
            _ if !self.is_up(peer) => {
                if let PeerEvent::Message { .. } = event {
                    self.metrics.incr("simnet.dropped_down", 1);
                    self.digest.fold_all(&[D_DROP_DOWN, t, p]);
                    self.observe(|| TraceEvent::DroppedDown { to: peer });
                }
                return false;
            }
            PeerEvent::Message { from, msg } => {
                self.metrics.incr("simnet.delivered", 1);
                self.digest
                    .fold_all(&[D_DELIVER, t, *from as u64, p, msg.digest()]);
                self.observe(|| TraceEvent::Delivered {
                    from: *from,
                    to: peer,
                    bytes: msg.wire_size(),
                });
            }
            PeerEvent::Timer { tag } => self.digest.fold_all(&[D_TIMER, t, p, *tag]),
            PeerEvent::Start => self.digest.fold_all(&[D_START, t, p]),
            PeerEvent::WentDown => {
                self.metrics.incr("simnet.node_down", 1);
                self.digest.fold_all(&[D_DOWN, t, p]);
                self.observe(|| TraceEvent::NodeDown(peer));
            }
        }
        true
    }
}

/// The deterministic discrete-event simulator.
pub struct PeerSim<P: PeerModel> {
    model: P,
    world: World<P::Msg>,
    events_dispatched: u64,
    /// Hard cap on dispatched events, to catch runaway behaviours.
    event_budget: u64,
}

impl<P: PeerModel> PeerSim<P> {
    pub fn new(seed: u64, model: P) -> Self {
        PeerSim {
            model,
            world: World {
                wheel: EventWheel::new(),
                up: Vec::new(),
                class_of: Vec::new(),
                links: [[LinkSpec::lan(); LINK_CLASSES]; LINK_CLASSES],
                pair_links: HashMap::new(),
                rng: StdRng::seed_from_u64(seed),
                metrics: Metrics::new(),
                digest: TraceDigest::new(),
                trace: None,
            },
            events_dispatched: 0,
            event_budget: u64::MAX,
        }
    }

    /// Add `count` peers of link class `class`; returns the id of the
    /// first (ids are dense and ascending). No events are scheduled —
    /// kick peers off with [`PeerSim::schedule_timer_at`].
    pub fn add_peers(&mut self, count: usize, class: u8) -> NodeId {
        assert!((class as usize) < LINK_CLASSES, "link class out of range");
        let first = self.world.up.len() as NodeId;
        self.world.up.resize(self.world.up.len() + count, true);
        self.world
            .class_of
            .resize(self.world.class_of.len() + count, class);
        first
    }

    /// Number of nodes ever added (ids are `0..node_count`).
    pub fn node_count(&self) -> u32 {
        self.world.up.len() as u32
    }

    pub fn now(&self) -> Time {
        self.world.wheel.now()
    }

    pub fn is_up(&self, peer: NodeId) -> bool {
        self.world.is_up(peer)
    }

    pub fn model(&self) -> &P {
        &self.model
    }

    pub fn model_mut(&mut self) -> &mut P {
        &mut self.model
    }

    pub fn metrics(&self) -> &Metrics {
        &self.world.metrics
    }

    /// The rolling digest of everything dispatched so far.
    pub fn digest(&self) -> TraceDigest {
        self.world.digest
    }

    /// Keep an NS2-style trace of the most recent `capacity` events.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.world.trace = Some(Trace::with_capacity(capacity));
    }

    /// The trace, if enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.world.trace.as_ref()
    }

    /// Number of events dispatched so far.
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Cap the total number of dispatched events (runaway guard).
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = budget;
    }

    /// Set the link spec for traffic from class `from` to class `to`.
    pub fn set_class_link(&mut self, from: u8, to: u8, spec: LinkSpec) {
        self.world.links[from as usize][to as usize] = spec;
    }

    /// Set both directions between two classes.
    pub fn set_class_link_sym(&mut self, a: u8, b: u8, spec: LinkSpec) {
        self.set_class_link(a, b, spec);
        self.set_class_link(b, a, spec);
    }

    /// Replace one class-link cell at `at` (fault windows). Messages
    /// already in flight keep the delay they sampled at send time; only
    /// traffic sent after the change sees the new spec.
    pub fn schedule_class_link(&mut self, at: Time, from: u8, to: u8, spec: LinkSpec) {
        self.world
            .wheel
            .schedule_at(at, Fire::ClassLink { from, to, spec });
    }

    /// Replace both directions between two classes at `at`.
    pub fn schedule_class_link_sym(&mut self, at: Time, a: u8, b: u8, spec: LinkSpec) {
        self.schedule_class_link(at, a, b, spec);
        self.schedule_class_link(at, b, a, spec);
    }

    /// The default link: class 0 to class 0, which is every pair of
    /// boxed nodes that has no override.
    pub fn default_link(&self) -> LinkSpec {
        self.world.links[0][0]
    }

    pub fn set_default_link(&mut self, spec: LinkSpec) {
        self.set_class_link(0, 0, spec);
    }

    /// Replace the default link at `at`.
    pub fn schedule_default_link(&mut self, at: Time, spec: LinkSpec) {
        self.schedule_class_link(at, 0, 0, spec);
    }

    /// Override the directed link `from → to`, whatever its classes.
    pub fn set_link(&mut self, from: NodeId, to: NodeId, spec: LinkSpec) {
        self.world.pair_links.insert((from, to), spec);
    }

    /// Replace the override for `from → to` at `at`.
    pub fn schedule_link(&mut self, at: Time, from: NodeId, to: NodeId, spec: LinkSpec) {
        self.world
            .wheel
            .schedule_at(at, Fire::PairLink { from, to, spec });
    }

    /// The link spec in effect from `from` to `to` right now.
    pub fn link(&self, from: NodeId, to: NodeId) -> LinkSpec {
        self.world.link(from, to)
    }

    /// Make `event` happen to `peer` at `at` (clamped to now if in the
    /// past) from outside the simulation: drivers start application
    /// actions this way. `WentDown` / `WentUp` take the peer down and
    /// bring it back, as [`PeerSim::schedule_down`] / `schedule_up` do.
    pub fn inject_at(&mut self, at: Time, peer: NodeId, event: PeerEvent<P::Msg>) -> EventKey {
        self.world.wheel.schedule_at(at, Fire::Event(peer, event))
    }

    /// Inject an event at the current time.
    pub fn inject(&mut self, peer: NodeId, event: PeerEvent<P::Msg>) -> EventKey {
        self.inject_at(self.now(), peer, event)
    }

    /// Inject a timer event (scenario kickoffs, deadlines).
    pub fn schedule_timer_at(&mut self, at: Time, peer: NodeId, tag: u64) -> EventKey {
        self.inject_at(at, peer, PeerEvent::Timer { tag })
    }

    /// Take a peer down at `at`; messages to it and its timers are lost
    /// until it comes back up.
    pub fn schedule_down(&mut self, peer: NodeId, at: Time) {
        self.inject_at(at, peer, PeerEvent::WentDown);
    }

    /// Bring a peer back up at `at`.
    pub fn schedule_up(&mut self, peer: NodeId, at: Time) {
        self.inject_at(at, peer, PeerEvent::WentUp);
    }

    /// Test/bench helper: send a message between two peers from outside
    /// any behaviour (e.g. to kick off a scenario).
    pub fn transmit_for_test(&mut self, from: NodeId, to: NodeId, msg: P::Msg) {
        self.world.send(from, to, msg);
    }

    /// Run until the wheel is dry or `deadline` passes; returns the
    /// virtual time reached.
    pub fn run_until(&mut self, deadline: Time) -> Time {
        while let Some(next_at) = self.world.wheel.next_time() {
            if next_at > deadline || self.events_dispatched >= self.event_budget {
                break;
            }
            self.step();
        }
        let rest = self.world.wheel.next_time().unwrap_or(deadline);
        self.world.wheel.advance_to(deadline.min(rest));
        self.now()
    }

    /// Drain every event (models must quiesce).
    pub fn run_to_quiescence(&mut self) -> Time {
        while self.events_dispatched < self.event_budget && self.step() {}
        self.now()
    }

    /// Process one event. Returns `false` when the wheel is dry.
    pub fn step(&mut self) -> bool {
        let Some((at, fire)) = self.world.wheel.pop() else {
            return false;
        };
        self.events_dispatched += 1;
        let t = at.as_micros();
        let world = &mut self.world;
        match fire {
            Fire::Event(peer, event) => {
                if world.admit(t, peer, &event) {
                    let going_down = matches!(event, PeerEvent::WentDown);
                    self.model
                        .on_event(&mut PeerCtx { world, peer }, peer, event);
                    if going_down {
                        self.world.up[peer as usize] = false;
                    }
                }
            }
            Fire::ClassLink { from, to, spec } => {
                world.links[from as usize][to as usize] = spec;
                world.metrics.incr("simnet.link_change", 1);
                world.digest.fold_all(&[D_LINK, t, from as u64, to as u64]);
            }
            Fire::PairLink { from, to, spec } => {
                world.pair_links.insert((from, to), spec);
                world.metrics.incr("simnet.link_change", 1);
                world
                    .digest
                    .fold_all(&[D_PAIR_LINK, t, from as u64, to as u64]);
            }
        }
        true
    }
}

/// The API a behaviour uses to act on the world during one dispatch.
pub struct PeerCtx<'a, Msg: Payload> {
    world: &'a mut World<Msg>,
    peer: NodeId,
}

impl<Msg: Payload> PeerCtx<'_, Msg> {
    /// The peer being dispatched.
    pub fn id(&self) -> NodeId {
        self.peer
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.world.wheel.now()
    }

    /// Number of nodes ever added (ids are `0..node_count`).
    pub fn node_count(&self) -> u32 {
        self.world.up.len() as u32
    }

    /// Whether a node is currently up.
    pub fn is_up(&self, peer: NodeId) -> bool {
        self.world.is_up(peer)
    }

    /// Send `msg` to `to` over the link in effect now. Loss and latency
    /// are sampled per the link spec; delivery is asynchronous. A
    /// destination that does not exist is counted
    /// (`simnet.dropped_no_such_node`), not an error.
    pub fn send(&mut self, to: NodeId, msg: Msg) {
        self.world.send(self.peer, to, msg);
    }

    /// Send to several recipients (clones the message per recipient).
    pub fn broadcast<I: IntoIterator<Item = NodeId>>(&mut self, to: I, msg: Msg) {
        for peer in to {
            self.send(peer, msg.clone());
        }
    }

    /// Arrange a [`PeerEvent::Timer`] with `tag` after `delay`.
    pub fn set_timer(&mut self, delay: Dur, tag: u64) -> EventKey {
        let fire = Fire::Event(self.peer, PeerEvent::Timer { tag });
        self.world.wheel.schedule_after(delay, fire)
    }

    /// Cancel a timer if it has not fired yet.
    pub fn cancel_timer(&mut self, key: EventKey) {
        self.world.wheel.cancel(key);
    }

    /// Deterministic RNG shared by the whole simulation.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.world.rng
    }

    /// Increment a named experiment counter.
    pub fn count(&mut self, key: &'static str) {
        self.world.metrics.incr(key, 1);
    }

    /// Record a named sample (e.g. an observed latency in microseconds).
    pub fn sample(&mut self, key: &'static str, value: u64) {
        self.world.metrics.record(key, value);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Echo world: peers echo `msg + 1` back to the sender of an even
    /// `msg`.
    pub(crate) struct Echo {
        pub(crate) seen: Vec<u64>,
    }

    impl PeerModel for Echo {
        type Msg = u64;
        fn on_event(&mut self, ctx: &mut PeerCtx<'_, u64>, _peer: NodeId, event: PeerEvent<u64>) {
            match event {
                PeerEvent::Message { from, msg } => {
                    self.seen.push(msg);
                    if msg % 2 == 0 {
                        ctx.send(from, msg + 1);
                    }
                }
                PeerEvent::Timer { tag } => {
                    // Kickoff: peer 0 pings peer 1 with an even payload.
                    ctx.send(1, tag * 2);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn round_trip_and_metrics() {
        let mut sim = PeerSim::new(1, Echo { seen: Vec::new() });
        sim.add_peers(2, 0);
        sim.schedule_timer_at(Time::ZERO, 0, 3);
        sim.run_to_quiescence();
        assert_eq!(sim.model().seen, vec![6, 7]);
        assert_eq!(sim.metrics().counter("simnet.sent"), 2);
        assert_eq!(sim.metrics().counter("simnet.delivered"), 2);
    }

    #[test]
    fn same_seed_same_digest_different_seed_diverges() {
        fn run(seed: u64) -> (u64, u64) {
            let mut sim = PeerSim::new(seed, Echo { seen: Vec::new() });
            sim.add_peers(50, 0);
            sim.set_class_link(0, 0, LinkSpec::wan());
            for i in 0..50 {
                sim.schedule_timer_at(Time::millis(i as u64 % 7), i, i as u64);
            }
            sim.run_to_quiescence();
            (sim.digest().value(), sim.digest().folded())
        }
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0);
    }

    #[test]
    fn down_peers_lose_messages_and_timers() {
        let mut sim = PeerSim::new(1, Echo { seen: Vec::new() });
        sim.add_peers(2, 0);
        sim.schedule_down(1, Time::ZERO);
        sim.schedule_timer_at(Time::millis(1), 0, 4); // 0 sends 8 to 1
        sim.schedule_timer_at(Time::millis(2), 1, 9); // lost: 1 is down
        sim.schedule_up(1, Time::millis(10));
        sim.run_to_quiescence();
        assert!(sim.model().seen.is_empty());
        assert_eq!(sim.metrics().counter("simnet.dropped_down"), 1);
        assert_eq!(sim.metrics().counter("simnet.node_up"), 1);
    }

    #[test]
    fn scheduled_class_link_partitions_then_heals() {
        let mut sim = PeerSim::new(1, Echo { seen: Vec::new() });
        sim.add_peers(1, 0);
        sim.add_peers(1, 1);
        let flat = LinkSpec::lan().with_jitter(Dur::ZERO);
        for a in 0..2 {
            for b in 0..2 {
                sim.set_class_link(a, b, flat);
            }
        }
        sim.schedule_class_link_sym(Time::millis(5), 0, 1, flat.with_loss(1.0));
        sim.schedule_class_link_sym(Time::millis(15), 0, 1, flat);
        sim.schedule_timer_at(Time::millis(7), 0, 1); // blackout: dropped
        sim.schedule_timer_at(Time::millis(20), 0, 2); // healed: delivered
        sim.run_to_quiescence();
        // The healed probe (4) arrives and its echo (5) comes back; the
        // blackout probe (2) was dropped on the floor.
        assert_eq!(sim.model().seen, vec![4, 5]);
        assert_eq!(sim.metrics().counter("simnet.dropped_loss"), 1);
        assert_eq!(sim.metrics().counter("simnet.link_change"), 4);
    }

    #[test]
    fn idle_peers_cost_no_events() {
        // A million idle peers: adding them schedules nothing.
        let mut sim = PeerSim::new(1, Echo { seen: Vec::new() });
        sim.add_peers(1_000_000, 0);
        assert_eq!(sim.node_count(), 1_000_000);
        sim.run_to_quiescence();
        assert_eq!(sim.events_dispatched(), 0);
    }
}
