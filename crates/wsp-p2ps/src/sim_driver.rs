//! Simulator driver: runs [`PeerMachine`]s as simnet nodes, with the
//! real XML wire format on every hop.

use crate::advert::{PipeAdvertisement, ServiceAdvertisement};
use crate::id::PeerId;
use crate::machine::{PeerConfig, PeerMachine, PeerOutput};
use crate::message::P2psMessage;
use crate::query::P2psQuery;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use wsp_simnet::{Context, Dur, Node, NodeEvent, NodeId, SimNet, Time, TimerId, Topology};

/// Timer tag that makes a peer drain its command queue.
pub const WAKE_TAG: u64 = 0xB001;
/// Timer tag for periodic soft-state refresh.
const REFRESH_TAG: u64 = 0xB002;
/// Timer-tag namespace for resilient-query attempt timeouts.
pub const RQ_TIMEOUT_TAG: u64 = 0xE000_0000_0000_0000;
/// Timer-tag namespace for resilient-query backed-off re-issues.
pub const RQ_RESEND_TAG: u64 = 0xF000_0000_0000_0000;
const RQ_PHASE_MASK: u64 = 0xF000_0000_0000_0000;
const RQ_ID_MASK: u64 = !RQ_PHASE_MASK;

/// Application commands injected into a simulated peer.
#[derive(Debug, Clone)]
pub enum PeerCommand {
    Publish(ServiceAdvertisement),
    Unpublish(String),
    Query {
        token: u64,
        query: P2psQuery,
        ttl: Option<u8>,
    },
    /// A query that re-issues itself until a non-empty result arrives
    /// or the attempt budget is spent — `backoff` of virtual time
    /// between attempts, each attempt given `attempt_timeout`. Ends in
    /// exactly one [`PeerEvent::QueryResult`] (non-empty) or
    /// [`PeerEvent::QueryFailed`]; never hangs.
    ResilientQuery {
        token: u64,
        query: P2psQuery,
        ttl: Option<u8>,
        attempt_timeout: Dur,
        max_attempts: u32,
        backoff: Dur,
    },
    OpenPipe {
        name: String,
    },
    SendPipe {
        to: PipeAdvertisement,
        payload: String,
    },
    Ping {
        to: PeerId,
        nonce: u64,
    },
}

/// Application-visible events surfaced by a simulated peer.
#[derive(Debug, Clone, PartialEq)]
pub enum PeerEvent {
    QueryResult {
        token: u64,
        adverts: Vec<ServiceAdvertisement>,
    },
    /// A [`PeerCommand::ResilientQuery`] spent its attempt budget
    /// without a non-empty result.
    QueryFailed {
        token: u64,
        attempts: u32,
    },
    PipeDelivery {
        pipe: PipeAdvertisement,
        from: PeerId,
        payload: String,
    },
    UnknownPipe {
        pipe: PipeAdvertisement,
    },
    Pong {
        from: PeerId,
        nonce: u64,
    },
}

/// The peer-id ⇄ node-id directory — the simulation's
/// `EndpointResolver`.
#[derive(Clone, Default)]
pub struct Directory {
    forward: Rc<RefCell<HashMap<PeerId, NodeId>>>,
    reverse: Rc<RefCell<HashMap<NodeId, PeerId>>>,
}

impl Directory {
    pub fn new() -> Self {
        Directory::default()
    }

    pub fn register(&self, peer: PeerId, node: NodeId) {
        self.forward.borrow_mut().insert(peer, node);
        self.reverse.borrow_mut().insert(node, peer);
    }

    pub fn resolve(&self, peer: PeerId) -> Option<NodeId> {
        self.forward.borrow().get(&peer).copied()
    }

    pub fn peer_of(&self, node: NodeId) -> Option<PeerId> {
        self.reverse.borrow().get(&node).copied()
    }
}

/// Shared handle used by experiment code to drive one peer and observe
/// its events.
#[derive(Clone)]
pub struct P2psHandle {
    peer: PeerId,
    node: Rc<Cell<NodeId>>,
    commands: Rc<RefCell<VecDeque<PeerCommand>>>,
    events: Rc<RefCell<Vec<(Time, PeerEvent)>>>,
}

impl P2psHandle {
    pub fn peer(&self) -> PeerId {
        self.peer
    }

    pub fn node(&self) -> NodeId {
        self.node.get()
    }

    /// Queue a command; call [`P2psHandle::wake`] (or inject the wake
    /// timer yourself) to have the peer act on it.
    pub fn enqueue(&self, command: PeerCommand) {
        self.commands.borrow_mut().push_back(command);
    }

    /// Queue a command and schedule the peer to process it at `at`.
    pub fn enqueue_at(&self, net: &mut SimNet<String>, at: Time, command: PeerCommand) {
        self.enqueue(command);
        net.inject_at(at, self.node(), NodeEvent::Timer { tag: WAKE_TAG });
    }

    /// Wake the peer now.
    pub fn wake(&self, net: &mut SimNet<String>) {
        net.inject(self.node(), NodeEvent::Timer { tag: WAKE_TAG });
    }

    /// Drain accumulated events.
    pub fn take_events(&self) -> Vec<(Time, PeerEvent)> {
        std::mem::take(&mut *self.events.borrow_mut())
    }

    /// Peek events without draining.
    pub fn events(&self) -> Vec<(Time, PeerEvent)> {
        self.events.borrow().clone()
    }
}

/// One in-flight [`PeerCommand::ResilientQuery`].
#[derive(Debug)]
struct ResilientQueryState {
    token: u64,
    query: P2psQuery,
    ttl: Option<u8>,
    attempt_timeout: Dur,
    max_attempts: u32,
    backoff: Dur,
    attempts: u32,
    timeout: Option<TimerId>,
}

/// A simulated P2PS peer node.
pub struct P2psSimNode {
    machine: PeerMachine,
    directory: Directory,
    commands: Rc<RefCell<VecDeque<PeerCommand>>>,
    events: Rc<RefCell<Vec<(Time, PeerEvent)>>>,
    tokens: HashMap<u64, u64>, // query id -> application token
    refresh_every: Option<Dur>,
    rqueries: HashMap<u64, ResilientQueryState>, // rq id -> state
    rq_by_token: HashMap<u64, u64>,              // application token -> rq id
    next_rq: u64,
}

impl P2psSimNode {
    /// Create a node and its control handle. Register the node id on
    /// the handle (and the directory) once the node is added to the net;
    /// [`add_peer`] does all of this in one step.
    pub fn create(
        config: PeerConfig,
        directory: Directory,
        refresh_every: Option<Dur>,
    ) -> (P2psSimNode, P2psHandle) {
        let commands = Rc::new(RefCell::new(VecDeque::new()));
        let events = Rc::new(RefCell::new(Vec::new()));
        let handle = P2psHandle {
            peer: config.id,
            node: Rc::new(Cell::new(0)),
            commands: commands.clone(),
            events: events.clone(),
        };
        let node = P2psSimNode {
            machine: PeerMachine::new(config),
            directory,
            commands,
            events,
            tokens: HashMap::new(),
            refresh_every,
            rqueries: HashMap::new(),
            rq_by_token: HashMap::new(),
            next_rq: 0,
        };
        (node, handle)
    }

    /// Mutable access to the machine pre-insertion (neighbour setup).
    pub fn machine_mut(&mut self) -> &mut PeerMachine {
        &mut self.machine
    }

    fn dispatch(&mut self, ctx: &mut Context<'_, String>, outputs: Vec<PeerOutput>) {
        for output in outputs {
            match output {
                PeerOutput::Send { to, message } => match self.directory.resolve(to) {
                    Some(node) => {
                        ctx.count("p2ps.sent");
                        ctx.send(node, message.to_xml());
                    }
                    None => ctx.count("p2ps.unresolved"),
                },
                PeerOutput::QueryResult { id, adverts } => {
                    let token = self.tokens.get(&id).copied().unwrap_or(id);
                    if let Some(&rq) = self.rq_by_token.get(&token) {
                        if adverts.is_empty() {
                            // A "nothing found" answer does not finish a
                            // resilient query — a later attempt may hit
                            // a repopulated cache.
                            ctx.count("p2ps.rq_empty_result");
                            continue;
                        }
                        if let Some(state) = self.rqueries.remove(&rq) {
                            self.rq_by_token.remove(&state.token);
                            if let Some(timer) = state.timeout {
                                ctx.cancel_timer(timer);
                            }
                            ctx.count("p2ps.rq_completed");
                        }
                    }
                    ctx.count("p2ps.query_results");
                    self.events
                        .borrow_mut()
                        .push((ctx.now(), PeerEvent::QueryResult { token, adverts }));
                }
                PeerOutput::PipeDelivery {
                    pipe,
                    from,
                    payload,
                } => {
                    ctx.count("p2ps.pipe_deliveries");
                    self.events.borrow_mut().push((
                        ctx.now(),
                        PeerEvent::PipeDelivery {
                            pipe,
                            from,
                            payload,
                        },
                    ));
                }
                PeerOutput::UnknownPipe { pipe } => {
                    ctx.count("p2ps.unknown_pipe");
                    self.events
                        .borrow_mut()
                        .push((ctx.now(), PeerEvent::UnknownPipe { pipe }));
                }
                PeerOutput::PongReceived { from, nonce } => {
                    self.events
                        .borrow_mut()
                        .push((ctx.now(), PeerEvent::Pong { from, nonce }));
                }
            }
        }
    }

    /// Process exactly one queued command — each wake timer corresponds
    /// to one enqueued command, so commands scheduled for later times
    /// are not executed early.
    fn process_next_command(&mut self, ctx: &mut Context<'_, String>) {
        {
            let Some(command) = self.commands.borrow_mut().pop_front() else {
                return;
            };
            let now = ctx.now();
            let outputs = match command {
                PeerCommand::Publish(advert) => self.machine.publish(now, advert),
                PeerCommand::Unpublish(service) => {
                    self.machine.unpublish(&service);
                    Vec::new()
                }
                PeerCommand::Query { token, query, ttl } => {
                    let (id, outputs) = self.machine.query(now, query, ttl);
                    self.tokens.insert(id, token);
                    // Re-tag any immediate local-cache result.
                    outputs
                }
                PeerCommand::ResilientQuery {
                    token,
                    query,
                    ttl,
                    attempt_timeout,
                    max_attempts,
                    backoff,
                } => {
                    let rq = self.next_rq;
                    self.next_rq += 1;
                    self.rqueries.insert(
                        rq,
                        ResilientQueryState {
                            token,
                            query,
                            ttl,
                            attempt_timeout,
                            max_attempts: max_attempts.max(1),
                            backoff,
                            attempts: 0,
                            timeout: None,
                        },
                    );
                    self.rq_by_token.insert(token, rq);
                    self.issue_rq_attempt(ctx, rq);
                    Vec::new()
                }
                PeerCommand::OpenPipe { name } => {
                    self.machine.open_pipe(Some(name));
                    Vec::new()
                }
                PeerCommand::SendPipe { to, payload } => self.machine.send_pipe_data(to, payload),
                PeerCommand::Ping { to, nonce } => self.machine.ping(to, nonce),
            };
            self.dispatch(ctx, outputs);
        }
    }

    /// Issue (or re-issue) one attempt of a resilient query and arm its
    /// timeout. The timer is armed *before* dispatching, so a local
    /// cache hit that completes the query immediately also cancels it.
    fn issue_rq_attempt(&mut self, ctx: &mut Context<'_, String>, rq: u64) {
        let (query, ttl, attempt_timeout) = {
            let Some(state) = self.rqueries.get_mut(&rq) else {
                return;
            };
            state.attempts += 1;
            (state.query.clone(), state.ttl, state.attempt_timeout)
        };
        ctx.count("p2ps.rq_attempt");
        let now = ctx.now();
        let (id, outputs) = self.machine.query(now, query, ttl);
        let state = self.rqueries.get_mut(&rq).expect("state survives query");
        self.tokens.insert(id, state.token);
        state.timeout = Some(ctx.set_timer(attempt_timeout, RQ_TIMEOUT_TAG | rq));
        self.dispatch(ctx, outputs);
    }

    fn on_rq_timer(&mut self, ctx: &mut Context<'_, String>, tag: u64) {
        let rq = tag & RQ_ID_MASK;
        match tag & RQ_PHASE_MASK {
            RQ_TIMEOUT_TAG => {
                let (give_up, backoff) = {
                    let Some(state) = self.rqueries.get_mut(&rq) else {
                        return;
                    };
                    state.timeout = None;
                    (state.attempts >= state.max_attempts, state.backoff)
                };
                if give_up {
                    let state = self.rqueries.remove(&rq).expect("checked above");
                    self.rq_by_token.remove(&state.token);
                    ctx.count("p2ps.rq_failed");
                    self.events.borrow_mut().push((
                        ctx.now(),
                        PeerEvent::QueryFailed {
                            token: state.token,
                            attempts: state.attempts,
                        },
                    ));
                } else if backoff == Dur::ZERO {
                    self.issue_rq_attempt(ctx, rq);
                } else {
                    ctx.set_timer(backoff, RQ_RESEND_TAG | rq);
                }
            }
            RQ_RESEND_TAG => self.issue_rq_attempt(ctx, rq),
            _ => {}
        }
    }
}

impl Node<String> for P2psSimNode {
    fn handle(&mut self, ctx: &mut Context<'_, String>, event: NodeEvent<String>) {
        match event {
            NodeEvent::Start => {
                if let Some(every) = self.refresh_every {
                    ctx.set_timer(every, REFRESH_TAG);
                }
            }
            NodeEvent::Timer { tag: WAKE_TAG } => self.process_next_command(ctx),
            NodeEvent::Timer { tag: REFRESH_TAG } => {
                let now = ctx.now();
                let outputs = self.machine.refresh(now);
                self.dispatch(ctx, outputs);
                if let Some(every) = self.refresh_every {
                    ctx.set_timer(every, REFRESH_TAG);
                }
            }
            NodeEvent::Timer { tag } => self.on_rq_timer(ctx, tag),
            NodeEvent::Message { from, msg } => {
                let Some(from_peer) = self.directory.peer_of(from) else {
                    ctx.count("p2ps.unknown_sender");
                    return;
                };
                let Some(message) = P2psMessage::from_xml(&msg) else {
                    ctx.count("p2ps.unparseable");
                    return;
                };
                let now = ctx.now();
                let outputs = self.machine.on_message(now, from_peer, message);
                self.dispatch(ctx, outputs);
            }
            NodeEvent::WentUp => {
                // Rejoin: re-advertise own services so rendezvous caches
                // repopulate.
                let now = ctx.now();
                let outputs = self.machine.refresh(now);
                self.dispatch(ctx, outputs);
            }
            NodeEvent::WentDown => {}
        }
    }
}

/// Add one P2PS peer to a simulation and register it in the directory.
pub fn add_peer(
    net: &mut SimNet<String>,
    directory: &Directory,
    config: PeerConfig,
    refresh_every: Option<Dur>,
) -> P2psHandle {
    let peer = config.id;
    let (node, handle) = P2psSimNode::create(config, directory.clone(), refresh_every);
    let node_id = net.add_node(Box::new(node));
    handle.node.set(node_id);
    directory.register(peer, node_id);
    handle
}

/// Deterministic peer id for a topology slot.
pub fn peer_id_for(slot: usize) -> PeerId {
    PeerId(0x5EED_0000_0000_0000 + slot as u64)
}

/// Build an entire P2PS overlay in one go: one peer per topology node
/// (node ids equal topology indices — the net must be fresh), neighbour
/// sets from the topology, rendezvous flags from `rendezvous`.
///
/// Returns the control handles, indexed by topology slot.
pub fn build_overlay(
    net: &mut SimNet<String>,
    topology: &Topology,
    rendezvous: &[NodeId],
    refresh_every: Option<Dur>,
) -> (Directory, Vec<P2psHandle>) {
    assert_eq!(net.node_count(), 0, "build_overlay needs a fresh SimNet");
    let directory = Directory::new();
    let mut nodes: Vec<P2psSimNode> = Vec::with_capacity(topology.node_count());
    let mut handles = Vec::with_capacity(topology.node_count());
    for slot in 0..topology.node_count() {
        let id = peer_id_for(slot);
        let config = if rendezvous.contains(&(slot as NodeId)) {
            PeerConfig::rendezvous(id)
        } else {
            PeerConfig::ordinary(id)
        };
        let (node, handle) = P2psSimNode::create(config, directory.clone(), refresh_every);
        nodes.push(node);
        handles.push(handle);
    }
    for (slot, node) in nodes.iter_mut().enumerate() {
        for &neighbour in topology.neighbours(slot as NodeId) {
            let is_rv = rendezvous.contains(&neighbour);
            node.machine_mut()
                .add_neighbour(peer_id_for(neighbour as usize), is_rv);
        }
    }
    for (slot, node) in nodes.into_iter().enumerate() {
        let peer = peer_id_for(slot);
        let node_id = net.add_node(Box::new(node));
        assert_eq!(node_id, slot as NodeId);
        handles[slot].node.set(node_id);
        directory.register(peer, node_id);
    }
    (directory, handles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wsp_simnet::LinkSpec;

    fn advert_for(handle: &P2psHandle, name: &str) -> ServiceAdvertisement {
        ServiceAdvertisement::new(name, handle.peer()).with_pipe("in")
    }

    /// Two leaves under one rendezvous: publish on one, discover from
    /// the other.
    #[test]
    fn publish_and_discover_through_rendezvous() {
        let mut net: SimNet<String> = SimNet::new(11);
        let mut rng = StdRng::seed_from_u64(1);
        let (topology, rendezvous) = Topology::rendezvous_groups(1, 3, 1, &mut rng);
        let (_dir, handles) = build_overlay(&mut net, &topology, &rendezvous, None);

        let publisher = &handles[1];
        let seeker = &handles[2];
        publisher.enqueue_at(
            &mut net,
            Time::ZERO,
            PeerCommand::Publish(advert_for(publisher, "Echo")),
        );
        seeker.enqueue_at(
            &mut net,
            Time::millis(100),
            PeerCommand::Query {
                token: 77,
                query: P2psQuery::by_name("Echo"),
                ttl: None,
            },
        );
        net.run_to_quiescence();

        let events = seeker.take_events();
        let hit = events
            .iter()
            .find_map(|(_, e)| match e {
                PeerEvent::QueryResult { token: 77, adverts } if !adverts.is_empty() => {
                    Some(adverts.clone())
                }
                _ => None,
            })
            .expect("seeker should discover Echo");
        assert_eq!(hit[0].peer, publisher.peer());
    }

    /// Discovery across groups: queries propagate rendezvous-to-
    /// rendezvous.
    #[test]
    fn discovery_across_groups() {
        let mut net: SimNet<String> = SimNet::new(12);
        net.set_default_link(LinkSpec::lan());
        let mut rng = StdRng::seed_from_u64(2);
        let (topology, rendezvous) = Topology::rendezvous_groups(4, 5, 2, &mut rng);
        let (_dir, handles) = build_overlay(&mut net, &topology, &rendezvous, None);

        // Publisher is a leaf in group 0; seeker is a leaf in group 3.
        let publisher = &handles[1];
        let seeker = &handles[16];
        publisher.enqueue_at(
            &mut net,
            Time::ZERO,
            PeerCommand::Publish(advert_for(publisher, "Cactus")),
        );
        seeker.enqueue_at(
            &mut net,
            Time::millis(500),
            PeerCommand::Query {
                token: 1,
                query: P2psQuery::by_name("Cactus"),
                ttl: None,
            },
        );
        net.run_to_quiescence();

        let found = seeker.take_events().iter().any(
            |(_, e)| matches!(e, PeerEvent::QueryResult { adverts, .. } if !adverts.is_empty()),
        );
        assert!(found, "cross-group discovery failed");
    }

    #[test]
    fn pipe_data_round_trip_between_peers() {
        let mut net: SimNet<String> = SimNet::new(13);
        let mut rng = StdRng::seed_from_u64(3);
        let (topology, rendezvous) = Topology::rendezvous_groups(1, 3, 1, &mut rng);
        let (_dir, handles) = build_overlay(&mut net, &topology, &rendezvous, None);

        let provider = &handles[1];
        let consumer = &handles[2];
        provider.enqueue_at(
            &mut net,
            Time::ZERO,
            PeerCommand::Publish(advert_for(provider, "Echo")),
        );
        let target = PipeAdvertisement::new(provider.peer(), Some("Echo".into()), "in");
        consumer.enqueue_at(
            &mut net,
            Time::millis(10),
            PeerCommand::SendPipe {
                to: target.clone(),
                payload: "<hello/>".into(),
            },
        );
        net.run_to_quiescence();

        let events = provider.take_events();
        let delivery = events
            .iter()
            .find_map(|(_, e)| match e {
                PeerEvent::PipeDelivery { pipe, payload, .. } => {
                    Some((pipe.clone(), payload.clone()))
                }
                _ => None,
            })
            .expect("provider should receive pipe data");
        assert_eq!(delivery.0, target);
        assert_eq!(delivery.1, "<hello/>");
    }

    #[test]
    fn unknown_pipe_surfaces() {
        let mut net: SimNet<String> = SimNet::new(14);
        let directory = Directory::new();
        let a = add_peer(&mut net, &directory, PeerConfig::ordinary(PeerId(1)), None);
        let b = add_peer(&mut net, &directory, PeerConfig::ordinary(PeerId(2)), None);
        let ghost = PipeAdvertisement::new(b.peer(), None, "ghost");
        a.enqueue_at(
            &mut net,
            Time::ZERO,
            PeerCommand::SendPipe {
                to: ghost.clone(),
                payload: "x".into(),
            },
        );
        net.run_to_quiescence();
        let events = b.take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].1, PeerEvent::UnknownPipe { pipe: ghost });
    }

    #[test]
    fn refresh_repopulates_after_rendezvous_restart() {
        let mut net: SimNet<String> = SimNet::new(15);
        let mut rng = StdRng::seed_from_u64(4);
        let (topology, rendezvous) = Topology::rendezvous_groups(1, 3, 1, &mut rng);
        let (_dir, handles) = build_overlay(&mut net, &topology, &rendezvous, Some(Dur::secs(10)));

        let publisher = &handles[1];
        let seeker = &handles[2];
        publisher.enqueue_at(
            &mut net,
            Time::ZERO,
            PeerCommand::Publish(advert_for(publisher, "Echo")),
        );
        // The rendezvous (node 0) crashes and comes back; its cache
        // survives in this model, but even with a cleared network the
        // publisher's periodic refresh would repopulate it.
        net.schedule_down(0, Time::secs(1));
        net.schedule_up(0, Time::secs(2));
        seeker.enqueue_at(
            &mut net,
            Time::secs(25), // after at least one refresh cycle
            PeerCommand::Query {
                token: 5,
                query: P2psQuery::by_name("Echo"),
                ttl: None,
            },
        );
        net.run_until(Time::secs(30));
        let found = seeker.take_events().iter().any(
            |(_, e)| matches!(e, PeerEvent::QueryResult { adverts, .. } if !adverts.is_empty()),
        );
        assert!(found);
    }

    #[test]
    fn resilient_query_retries_until_the_service_appears() {
        // The seeker starts asking *before* the publisher advertises:
        // early attempts find nothing, a later one hits.
        let mut net: SimNet<String> = SimNet::new(21);
        let mut rng = StdRng::seed_from_u64(5);
        let (topology, rendezvous) = Topology::rendezvous_groups(1, 3, 1, &mut rng);
        let (_dir, handles) = build_overlay(&mut net, &topology, &rendezvous, None);

        let publisher = &handles[1];
        let seeker = &handles[2];
        seeker.enqueue_at(
            &mut net,
            Time::ZERO,
            PeerCommand::ResilientQuery {
                token: 42,
                query: P2psQuery::by_name("Echo"),
                ttl: None,
                attempt_timeout: Dur::millis(100),
                max_attempts: 10,
                backoff: Dur::millis(20),
            },
        );
        publisher.enqueue_at(
            &mut net,
            Time::millis(350),
            PeerCommand::Publish(advert_for(publisher, "Echo")),
        );
        net.run_to_quiescence();

        let events = seeker.take_events();
        let hit = events
            .iter()
            .find_map(|(_, e)| match e {
                PeerEvent::QueryResult { token: 42, adverts } if !adverts.is_empty() => {
                    Some(adverts.clone())
                }
                _ => None,
            })
            .expect("a later attempt should discover Echo");
        assert_eq!(hit[0].peer, publisher.peer());
        assert!(
            !events
                .iter()
                .any(|(_, e)| matches!(e, PeerEvent::QueryFailed { .. })),
            "the query succeeded, so it must not also fail"
        );
        assert!(
            net.metrics().counter("p2ps.rq_attempt") >= 2,
            "publishing at 350ms forces at least one retry"
        );
    }

    #[test]
    fn resilient_query_exhausts_into_query_failed() {
        let mut net: SimNet<String> = SimNet::new(22);
        let mut rng = StdRng::seed_from_u64(6);
        let (topology, rendezvous) = Topology::rendezvous_groups(1, 3, 1, &mut rng);
        let (_dir, handles) = build_overlay(&mut net, &topology, &rendezvous, None);

        let seeker = &handles[2];
        seeker.enqueue_at(
            &mut net,
            Time::ZERO,
            PeerCommand::ResilientQuery {
                token: 9,
                query: P2psQuery::by_name("Nowhere"),
                ttl: None,
                attempt_timeout: Dur::millis(50),
                max_attempts: 3,
                backoff: Dur::millis(10),
            },
        );
        net.run_to_quiescence();

        let events = seeker.take_events();
        assert!(
            events.iter().any(|(_, e)| matches!(
                e,
                PeerEvent::QueryFailed {
                    token: 9,
                    attempts: 3
                }
            )),
            "budget spent classifies as failure: {events:?}"
        );
        assert!(
            !events.iter().any(
                |(_, e)| matches!(e, PeerEvent::QueryResult { adverts, .. } if !adverts.is_empty())
            ),
            "nothing to find"
        );
    }

    #[test]
    fn resilient_query_is_reproducible_per_seed() {
        let run = || {
            let mut net: SimNet<String> = SimNet::new(23);
            net.set_default_link(LinkSpec {
                latency: Dur::millis(5),
                jitter: Dur::millis(2),
                loss: 0.3,
            });
            let mut rng = StdRng::seed_from_u64(7);
            let (topology, rendezvous) = Topology::rendezvous_groups(1, 4, 1, &mut rng);
            let (_dir, handles) = build_overlay(&mut net, &topology, &rendezvous, None);
            let publisher = &handles[1];
            let seeker = &handles[3];
            publisher.enqueue_at(
                &mut net,
                Time::ZERO,
                PeerCommand::Publish(advert_for(publisher, "Echo")),
            );
            seeker.enqueue_at(
                &mut net,
                Time::millis(50),
                PeerCommand::ResilientQuery {
                    token: 1,
                    query: P2psQuery::by_name("Echo"),
                    ttl: None,
                    attempt_timeout: Dur::millis(80),
                    max_attempts: 8,
                    backoff: Dur::millis(15),
                },
            );
            net.run_to_quiescence();
            (
                net.metrics().counter("p2ps.rq_attempt"),
                seeker.take_events(),
            )
        };
        let (attempts_a, events_a) = run();
        let (attempts_b, events_b) = run();
        assert_eq!(attempts_a, attempts_b, "same seed, same attempt count");
        assert_eq!(events_a, events_b, "same seed, same event sequence");
    }

    #[test]
    fn ping_pong_over_simnet() {
        let mut net: SimNet<String> = SimNet::new(16);
        let directory = Directory::new();
        let a = add_peer(&mut net, &directory, PeerConfig::ordinary(PeerId(1)), None);
        let b = add_peer(&mut net, &directory, PeerConfig::ordinary(PeerId(2)), None);
        a.enqueue_at(
            &mut net,
            Time::ZERO,
            PeerCommand::Ping {
                to: b.peer(),
                nonce: 99,
            },
        );
        net.run_to_quiescence();
        assert!(a
            .take_events()
            .iter()
            .any(|(_, e)| matches!(e, PeerEvent::Pong { nonce: 99, .. })));
    }
}
