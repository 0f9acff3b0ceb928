//! The P2PS peer as a sans-IO state machine.
//!
//! All protocol behaviour lives here: publish broadcast, rendezvous
//! caching and query propagation, reverse-path query hits, pipe
//! delivery and soft-state refresh. The machine consumes
//! `(now, input)` and emits [`PeerOutput`]s; the simulation driver
//! ([`crate::sim_driver`]) and the threaded driver
//! ([`crate::thread_driver`]) both execute this same code, so simulator
//! results exercise the production logic.

use crate::advert::{PipeAdvertisement, ServiceAdvertisement};
use crate::cache::AdvertCache;
use crate::id::PeerId;
use crate::message::P2psMessage;
use crate::query::P2psQuery;
use std::collections::{HashMap, HashSet, VecDeque};
use wsp_simnet::{Dur, Time};

/// Static configuration of one peer.
#[derive(Debug, Clone)]
pub struct PeerConfig {
    pub id: PeerId,
    /// Rendezvous peers cache adverts from their group and propagate
    /// queries/adverts to other rendezvous peers.
    pub rendezvous: bool,
    /// How long remote adverts stay cached (soft state).
    pub advert_ttl: Dur,
    /// Default hop budget for flooded queries.
    pub query_ttl: u8,
    /// Default hop budget for advert propagation.
    pub advertise_ttl: u8,
}

impl PeerConfig {
    pub fn ordinary(id: PeerId) -> Self {
        PeerConfig {
            id,
            rendezvous: false,
            advert_ttl: Dur::secs(60),
            query_ttl: 7,
            advertise_ttl: 7,
        }
    }

    pub fn rendezvous(id: PeerId) -> Self {
        PeerConfig {
            rendezvous: true,
            ..PeerConfig::ordinary(id)
        }
    }
}

/// Effects the driver must carry out.
#[derive(Debug, Clone, PartialEq)]
pub enum PeerOutput {
    /// Transmit a protocol message to another peer (the driver resolves
    /// the peer id to a transport address — the `EndpointResolver` role).
    Send { to: PeerId, message: P2psMessage },
    /// A query this peer originated produced (more) results.
    QueryResult {
        id: u64,
        adverts: Vec<ServiceAdvertisement>,
    },
    /// Data arrived on a local pipe.
    PipeDelivery {
        pipe: PipeAdvertisement,
        from: PeerId,
        payload: String,
    },
    /// Data arrived for a pipe this peer does not have.
    UnknownPipe { pipe: PipeAdvertisement },
    /// A pong came back (liveness probing).
    PongReceived { from: PeerId, nonce: u64 },
}

/// Upper bound on remembered query ids (reverse-path state).
const SEEN_QUERY_CAP: usize = 16_384;

/// The peer state machine.
pub struct PeerMachine {
    config: PeerConfig,
    /// Group neighbours (for a leaf: its rendezvous; for a rendezvous:
    /// its leaves plus fellow rendezvous).
    neighbours: Vec<PeerId>,
    /// The subset of neighbours known to be rendezvous peers.
    rendezvous_neighbours: Vec<PeerId>,
    cache: AdvertCache,
    /// Reverse-path routing state: query id → the peer it arrived from.
    seen_queries: HashMap<u64, PeerId>,
    seen_order: VecDeque<u64>,
    /// Queries this peer originated.
    own_queries: HashSet<u64>,
    /// Advert flood dedup: (publisher, service) → last forwarded time.
    forwarded_adverts: HashMap<(PeerId, String), Time>,
    /// Locally opened pipes: (service, pipe name).
    local_pipes: HashSet<(Option<String>, String)>,
    /// Own published adverts (refreshed periodically / on rejoin).
    own_adverts: Vec<ServiceAdvertisement>,
    query_counter: u64,
    pipe_counter: u64,
}

impl PeerMachine {
    pub fn new(config: PeerConfig) -> Self {
        PeerMachine {
            config,
            neighbours: Vec::new(),
            rendezvous_neighbours: Vec::new(),
            cache: AdvertCache::new(),
            seen_queries: HashMap::new(),
            seen_order: VecDeque::new(),
            own_queries: HashSet::new(),
            forwarded_adverts: HashMap::new(),
            local_pipes: HashSet::new(),
            own_adverts: Vec::new(),
            query_counter: 0,
            pipe_counter: 0,
        }
    }

    pub fn id(&self) -> PeerId {
        self.config.id
    }

    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Declare a neighbour. `rendezvous` marks it as a gateway that
    /// queries/adverts may be propagated to.
    pub fn add_neighbour(&mut self, peer: PeerId, rendezvous: bool) {
        if !self.neighbours.contains(&peer) {
            self.neighbours.push(peer);
        }
        if rendezvous && !self.rendezvous_neighbours.contains(&peer) {
            self.rendezvous_neighbours.push(peer);
        }
    }

    pub fn neighbours(&self) -> &[PeerId] {
        &self.neighbours
    }

    // --- application actions ---------------------------------------------

    /// Register a service locally — open its pipes and cache its advert
    /// — without announcing it (the *deploy* half of deploy/publish).
    pub fn register_local(&mut self, advert: ServiceAdvertisement) {
        debug_assert_eq!(advert.peer, self.config.id, "register own adverts only");
        for pipe in &advert.pipes {
            self.local_pipes
                .insert((pipe.service.clone(), pipe.name.clone()));
        }
        self.cache.insert(advert.clone(), None);
        self.own_adverts.retain(|a| a.name != advert.name);
        self.own_adverts.push(advert);
    }

    /// Publish a service advertisement: register it locally and
    /// broadcast it to the group.
    pub fn publish(&mut self, _now: Time, advert: ServiceAdvertisement) -> Vec<PeerOutput> {
        self.register_local(advert.clone());
        self.broadcast_advert(&advert)
    }

    /// Withdraw a service: close its pipes and stop refreshing it.
    /// Remote caches age it out (soft state).
    pub fn unpublish(&mut self, service: &str) {
        self.cache.remove_from(self.config.id, service);
        self.own_adverts.retain(|a| a.name != service);
        self.local_pipes
            .retain(|(s, _)| s.as_deref() != Some(service));
    }

    /// Re-broadcast own adverts (periodic soft-state refresh, and the
    /// recovery action after churn).
    pub fn refresh(&mut self, _now: Time) -> Vec<PeerOutput> {
        let adverts = self.own_adverts.clone();
        adverts
            .iter()
            .flat_map(|a| self.broadcast_advert(a))
            .collect()
    }

    fn broadcast_advert(&mut self, advert: &ServiceAdvertisement) -> Vec<PeerOutput> {
        let ttl = self.config.advertise_ttl;
        self.neighbours
            .iter()
            .map(|&to| PeerOutput::Send {
                to,
                message: P2psMessage::Advertise {
                    advert: advert.clone(),
                    ttl,
                },
            })
            .collect()
    }

    /// Start a discovery query. Returns the query id plus outputs. Local
    /// cache hits surface immediately as a `QueryResult`.
    pub fn query(
        &mut self,
        now: Time,
        query: P2psQuery,
        ttl: Option<u8>,
    ) -> (u64, Vec<PeerOutput>) {
        self.query_counter += 1;
        let id = self.config.id.0.rotate_left(17) ^ self.query_counter;
        self.own_queries.insert(id);
        self.remember_query(id, self.config.id);
        let mut outputs = Vec::new();
        let local = self.cache.find(&query, now);
        if !local.is_empty() {
            outputs.push(PeerOutput::QueryResult { id, adverts: local });
        }
        let ttl = ttl.unwrap_or(self.config.query_ttl);
        let message = P2psMessage::Query {
            id,
            origin: self.config.id,
            query,
            ttl,
        };
        for &to in &self.neighbours {
            outputs.push(PeerOutput::Send {
                to,
                message: message.clone(),
            });
        }
        (id, outputs)
    }

    /// Open a local pipe outside any service (e.g. an invocation return
    /// channel). Returns its advertisement for serialisation into a
    /// `ReplyTo` header.
    pub fn open_pipe(&mut self, name: Option<String>) -> PipeAdvertisement {
        let name = name.unwrap_or_else(|| {
            self.pipe_counter += 1;
            format!("pipe-{}", self.pipe_counter)
        });
        self.local_pipes.insert((None, name.clone()));
        PipeAdvertisement::new(self.config.id, None, name)
    }

    /// Close a local pipe.
    pub fn close_pipe(&mut self, pipe: &PipeAdvertisement) -> bool {
        self.local_pipes
            .remove(&(pipe.service.clone(), pipe.name.clone()))
    }

    /// True if the pipe is open locally.
    pub fn has_pipe(&self, pipe: &PipeAdvertisement) -> bool {
        self.local_pipes
            .contains(&(pipe.service.clone(), pipe.name.clone()))
    }

    /// Send data down a (possibly remote) pipe.
    pub fn send_pipe_data(&mut self, to: PipeAdvertisement, payload: String) -> Vec<PeerOutput> {
        if to.peer == self.config.id {
            // Loopback delivery.
            return self.deliver_pipe_data(self.config.id, to, payload);
        }
        vec![PeerOutput::Send {
            to: to.peer,
            message: P2psMessage::PipeData { to, payload },
        }]
    }

    /// Probe a peer's liveness.
    pub fn ping(&mut self, to: PeerId, nonce: u64) -> Vec<PeerOutput> {
        vec![PeerOutput::Send {
            to,
            message: P2psMessage::Ping { nonce },
        }]
    }

    // --- network input ----------------------------------------------------

    /// Process one incoming protocol message.
    pub fn on_message(&mut self, now: Time, from: PeerId, message: P2psMessage) -> Vec<PeerOutput> {
        match message {
            P2psMessage::Advertise { advert, ttl } => self.on_advertise(now, from, advert, ttl),
            P2psMessage::Query {
                id,
                origin,
                query,
                ttl,
            } => self.on_query(now, from, id, origin, query, ttl),
            P2psMessage::QueryHit {
                id,
                origin,
                adverts,
            } => self.on_query_hit(now, id, origin, adverts),
            P2psMessage::PipeData { to, payload } => self.on_pipe_data(from, to, payload),
            P2psMessage::Ping { nonce } => {
                vec![PeerOutput::Send {
                    to: from,
                    message: P2psMessage::Pong { nonce },
                }]
            }
            P2psMessage::Pong { nonce } => vec![PeerOutput::PongReceived { from, nonce }],
        }
    }

    fn on_advertise(
        &mut self,
        now: Time,
        from: PeerId,
        advert: ServiceAdvertisement,
        ttl: u8,
    ) -> Vec<PeerOutput> {
        if advert.peer == self.config.id {
            return Vec::new(); // our own advert echoed back
        }
        self.cache
            .insert(advert.clone(), Some(now + self.config.advert_ttl));
        if !self.config.rendezvous || ttl == 0 {
            return Vec::new();
        }
        // Flood dedup: don't re-forward what we forwarded recently.
        let key = (advert.peer, advert.name.clone());
        let recently = self
            .forwarded_adverts
            .get(&key)
            .map(|&t| now.since(t) < self.config.advert_ttl.mul_f64(0.5))
            .unwrap_or(false);
        if recently {
            return Vec::new();
        }
        self.forwarded_adverts.insert(key, now);
        self.rendezvous_neighbours
            .iter()
            .filter(|&&to| to != from && to != advert.peer)
            .map(|&to| PeerOutput::Send {
                to,
                message: P2psMessage::Advertise {
                    advert: advert.clone(),
                    ttl: ttl - 1,
                },
            })
            .collect()
    }

    fn on_query(
        &mut self,
        now: Time,
        from: PeerId,
        id: u64,
        origin: PeerId,
        query: P2psQuery,
        ttl: u8,
    ) -> Vec<PeerOutput> {
        if self.seen_queries.contains_key(&id) {
            return Vec::new(); // already handled (flood duplicate)
        }
        self.remember_query(id, from);
        let mut outputs = Vec::new();
        let hits = self.cache.find(&query, now);
        if !hits.is_empty() {
            // Hits travel hop-by-hop back along the reverse path.
            outputs.push(PeerOutput::Send {
                to: from,
                message: P2psMessage::QueryHit {
                    id,
                    origin,
                    adverts: hits,
                },
            });
        }
        if self.config.rendezvous && ttl > 0 {
            let message = P2psMessage::Query {
                id,
                origin,
                query,
                ttl: ttl - 1,
            };
            for &to in &self.rendezvous_neighbours {
                if to != from && to != origin {
                    outputs.push(PeerOutput::Send {
                        to,
                        message: message.clone(),
                    });
                }
            }
        }
        outputs
    }

    fn on_query_hit(
        &mut self,
        now: Time,
        id: u64,
        origin: PeerId,
        adverts: Vec<ServiceAdvertisement>,
    ) -> Vec<PeerOutput> {
        if self.own_queries.contains(&id) {
            // Ours: cache what we learned and report up.
            for advert in &adverts {
                self.cache
                    .insert(advert.clone(), Some(now + self.config.advert_ttl));
            }
            return vec![PeerOutput::QueryResult { id, adverts }];
        }
        // Relay towards the origin along the reverse path.
        match self.seen_queries.get(&id) {
            Some(&prev) if prev != self.config.id => vec![PeerOutput::Send {
                to: prev,
                message: P2psMessage::QueryHit {
                    id,
                    origin,
                    adverts,
                },
            }],
            _ => Vec::new(), // path forgotten: drop (soft state)
        }
    }

    fn on_pipe_data(
        &mut self,
        from: PeerId,
        to: PipeAdvertisement,
        payload: String,
    ) -> Vec<PeerOutput> {
        if to.peer == self.config.id {
            self.deliver_pipe_data(from, to, payload)
        } else {
            // Acting as a relay (the EndpointResolver found us on the
            // path); forward towards the owner.
            vec![PeerOutput::Send {
                to: to.peer,
                message: P2psMessage::PipeData { to, payload },
            }]
        }
    }

    fn deliver_pipe_data(
        &mut self,
        from: PeerId,
        to: PipeAdvertisement,
        payload: String,
    ) -> Vec<PeerOutput> {
        if self.has_pipe(&to) {
            vec![PeerOutput::PipeDelivery {
                pipe: to,
                from,
                payload,
            }]
        } else {
            vec![PeerOutput::UnknownPipe { pipe: to }]
        }
    }

    fn remember_query(&mut self, id: u64, from: PeerId) {
        if self.seen_queries.len() >= SEEN_QUERY_CAP {
            if let Some(old) = self.seen_order.pop_front() {
                self.seen_queries.remove(&old);
                self.own_queries.remove(&old);
            }
        }
        self.seen_queries.insert(id, from);
        self.seen_order.push_back(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn advert(peer: PeerId, name: &str) -> ServiceAdvertisement {
        ServiceAdvertisement::new(name, peer)
            .with_pipe("in")
            .with_definition_pipe()
    }

    fn sends(outputs: &[PeerOutput]) -> Vec<(PeerId, &P2psMessage)> {
        outputs
            .iter()
            .filter_map(|o| match o {
                PeerOutput::Send { to, message } => Some((*to, message)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn publish_broadcasts_to_group() {
        let mut peer = PeerMachine::new(PeerConfig::ordinary(PeerId(1)));
        peer.add_neighbour(PeerId(10), true);
        peer.add_neighbour(PeerId(11), false);
        let outputs = peer.publish(Time::ZERO, advert(PeerId(1), "Echo"));
        assert_eq!(sends(&outputs).len(), 2);
        assert!(peer.has_pipe(&PipeAdvertisement::new(
            PeerId(1),
            Some("Echo".into()),
            "in"
        )));
    }

    #[test]
    fn local_query_hits_own_cache_immediately() {
        let mut peer = PeerMachine::new(PeerConfig::ordinary(PeerId(1)));
        peer.publish(Time::ZERO, advert(PeerId(1), "Echo"));
        let (_id, outputs) = peer.query(Time::ZERO, P2psQuery::by_name("Echo"), None);
        assert!(outputs
            .iter()
            .any(|o| matches!(o, PeerOutput::QueryResult { adverts, .. } if adverts.len() == 1)));
    }

    #[test]
    fn rendezvous_answers_and_propagates_query() {
        let mut rv = PeerMachine::new(PeerConfig::rendezvous(PeerId(100)));
        rv.add_neighbour(PeerId(1), false); // leaf
        rv.add_neighbour(PeerId(101), true); // other rendezvous
        rv.add_neighbour(PeerId(102), true);
        // A leaf published through us earlier.
        let outputs = rv.on_message(
            Time::ZERO,
            PeerId(1),
            P2psMessage::Advertise {
                advert: advert(PeerId(1), "Echo"),
                ttl: 3,
            },
        );
        // Advert propagated to the other rendezvous only.
        let fw = sends(&outputs);
        assert_eq!(fw.len(), 2);
        assert!(fw
            .iter()
            .all(|(to, _)| *to == PeerId(101) || *to == PeerId(102)));

        // A query arrives from rendezvous 101.
        let outputs = rv.on_message(
            Time::millis(1),
            PeerId(101),
            P2psMessage::Query {
                id: 9,
                origin: PeerId(50),
                query: P2psQuery::by_name("Echo"),
                ttl: 2,
            },
        );
        let replies = sends(&outputs);
        // Hit back to 101 (reverse path), query forwarded to 102 only.
        assert!(replies
            .iter()
            .any(|(to, m)| *to == PeerId(101) && matches!(m, P2psMessage::QueryHit { id: 9, .. })));
        assert!(replies
            .iter()
            .any(|(to, m)| *to == PeerId(102) && matches!(m, P2psMessage::Query { ttl: 1, .. })));
        assert_eq!(replies.len(), 2);
    }

    #[test]
    fn query_flood_deduplicated() {
        let mut rv = PeerMachine::new(PeerConfig::rendezvous(PeerId(100)));
        rv.add_neighbour(PeerId(101), true);
        let q = P2psMessage::Query {
            id: 9,
            origin: PeerId(50),
            query: P2psQuery::any(),
            ttl: 5,
        };
        let first = rv.on_message(Time::ZERO, PeerId(101), q.clone());
        let second = rv.on_message(Time::ZERO, PeerId(101), q);
        assert!(second.is_empty());
        let _ = first;
    }

    #[test]
    fn ttl_zero_stops_propagation() {
        let mut rv = PeerMachine::new(PeerConfig::rendezvous(PeerId(100)));
        rv.add_neighbour(PeerId(101), true);
        let outputs = rv.on_message(
            Time::ZERO,
            PeerId(102),
            P2psMessage::Query {
                id: 9,
                origin: PeerId(50),
                query: P2psQuery::any(),
                ttl: 0,
            },
        );
        assert!(sends(&outputs)
            .iter()
            .all(|(_, m)| !matches!(m, P2psMessage::Query { .. })));
    }

    #[test]
    fn ordinary_peer_never_propagates() {
        let mut leaf = PeerMachine::new(PeerConfig::ordinary(PeerId(2)));
        leaf.add_neighbour(PeerId(100), true);
        leaf.add_neighbour(PeerId(3), false);
        let outputs = leaf.on_message(
            Time::ZERO,
            PeerId(100),
            P2psMessage::Query {
                id: 9,
                origin: PeerId(50),
                query: P2psQuery::any(),
                ttl: 5,
            },
        );
        assert!(outputs.is_empty()); // empty cache, no propagation
    }

    #[test]
    fn query_hit_routes_along_reverse_path() {
        // origin(50) -> rv(100) -> rv(101): hit at 101 flows back via 100.
        let mut rv100 = PeerMachine::new(PeerConfig::rendezvous(PeerId(100)));
        rv100.add_neighbour(PeerId(101), true);
        let from_origin = P2psMessage::Query {
            id: 7,
            origin: PeerId(50),
            query: P2psQuery::by_name("Echo"),
            ttl: 3,
        };
        let outputs = rv100.on_message(Time::ZERO, PeerId(50), from_origin);
        assert!(!sends(&outputs).is_empty());

        // The hit comes back from 101.
        let hit = P2psMessage::QueryHit {
            id: 7,
            origin: PeerId(50),
            adverts: vec![advert(PeerId(9), "Echo")],
        };
        let outputs = rv100.on_message(Time::millis(1), PeerId(101), hit);
        let relayed = sends(&outputs);
        assert_eq!(relayed.len(), 1);
        assert_eq!(relayed[0].0, PeerId(50));
    }

    #[test]
    fn own_query_results_cached_for_later() {
        let mut peer = PeerMachine::new(PeerConfig::ordinary(PeerId(1)));
        peer.add_neighbour(PeerId(100), true);
        let (id, _) = peer.query(Time::ZERO, P2psQuery::by_name("Echo"), None);
        let outputs = peer.on_message(
            Time::millis(5),
            PeerId(100),
            P2psMessage::QueryHit {
                id,
                origin: PeerId(1),
                adverts: vec![advert(PeerId(9), "Echo")],
            },
        );
        assert!(outputs
            .iter()
            .any(|o| matches!(o, PeerOutput::QueryResult { .. })));
        // Second identical query answered from cache without the network.
        let (_id2, outputs) = peer.query(Time::millis(10), P2psQuery::by_name("Echo"), None);
        assert!(outputs
            .iter()
            .any(|o| matches!(o, PeerOutput::QueryResult { adverts, .. } if adverts.len() == 1)));
    }

    #[test]
    fn pipe_data_delivery_and_unknown() {
        let mut peer = PeerMachine::new(PeerConfig::ordinary(PeerId(1)));
        peer.publish(Time::ZERO, advert(PeerId(1), "Echo"));
        let pipe = PipeAdvertisement::new(PeerId(1), Some("Echo".into()), "in");
        let outputs = peer.on_message(
            Time::ZERO,
            PeerId(2),
            P2psMessage::PipeData {
                to: pipe.clone(),
                payload: "data".into(),
            },
        );
        assert_eq!(
            outputs,
            vec![PeerOutput::PipeDelivery {
                pipe,
                from: PeerId(2),
                payload: "data".into()
            }]
        );
        let ghost = PipeAdvertisement::new(PeerId(1), None, "ghost");
        let outputs = peer.on_message(
            Time::ZERO,
            PeerId(2),
            P2psMessage::PipeData {
                to: ghost.clone(),
                payload: "data".into(),
            },
        );
        assert_eq!(outputs, vec![PeerOutput::UnknownPipe { pipe: ghost }]);
    }

    #[test]
    fn pipe_data_for_other_peer_is_relayed() {
        let mut peer = PeerMachine::new(PeerConfig::rendezvous(PeerId(1)));
        let remote = PipeAdvertisement::new(PeerId(9), None, "p");
        let outputs = peer.on_message(
            Time::ZERO,
            PeerId(2),
            P2psMessage::PipeData {
                to: remote.clone(),
                payload: "x".into(),
            },
        );
        assert_eq!(
            sends(&outputs),
            vec![(
                PeerId(9),
                &P2psMessage::PipeData {
                    to: remote,
                    payload: "x".into()
                }
            )]
        );
    }

    #[test]
    fn loopback_pipe_send() {
        let mut peer = PeerMachine::new(PeerConfig::ordinary(PeerId(1)));
        let pipe = peer.open_pipe(Some("return-1".into()));
        let outputs = peer.send_pipe_data(pipe.clone(), "self".into());
        assert!(matches!(&outputs[0], PeerOutput::PipeDelivery { pipe: p, .. } if *p == pipe));
    }

    #[test]
    fn open_pipe_generates_unique_names() {
        let mut peer = PeerMachine::new(PeerConfig::ordinary(PeerId(1)));
        let a = peer.open_pipe(None);
        let b = peer.open_pipe(None);
        assert_ne!(a.name, b.name);
        assert!(peer.has_pipe(&a) && peer.has_pipe(&b));
        assert!(peer.close_pipe(&a));
        assert!(!peer.has_pipe(&a));
    }

    #[test]
    fn unpublish_closes_pipes_and_stops_refresh() {
        let mut peer = PeerMachine::new(PeerConfig::ordinary(PeerId(1)));
        peer.add_neighbour(PeerId(100), true);
        peer.publish(Time::ZERO, advert(PeerId(1), "Echo"));
        peer.unpublish("Echo");
        assert!(!peer.has_pipe(&PipeAdvertisement::new(
            PeerId(1),
            Some("Echo".into()),
            "in"
        )));
        assert!(peer.refresh(Time::ZERO).is_empty());
        let (_, outputs) = peer.query(Time::millis(1), P2psQuery::by_name("Echo"), None);
        assert!(!outputs
            .iter()
            .any(|o| matches!(o, PeerOutput::QueryResult { .. })));
    }

    #[test]
    fn refresh_rebroadcasts_own_adverts() {
        let mut peer = PeerMachine::new(PeerConfig::ordinary(PeerId(1)));
        peer.add_neighbour(PeerId(100), true);
        peer.publish(Time::ZERO, advert(PeerId(1), "Echo"));
        let outputs = peer.refresh(Time::secs(30));
        assert_eq!(sends(&outputs).len(), 1);
    }

    #[test]
    fn remote_adverts_expire() {
        let mut peer = PeerMachine::new(PeerConfig::ordinary(PeerId(1)));
        peer.on_message(
            Time::ZERO,
            PeerId(100),
            P2psMessage::Advertise {
                advert: advert(PeerId(9), "Echo"),
                ttl: 0,
            },
        );
        let (_, outputs) = peer.query(Time::secs(30), P2psQuery::by_name("Echo"), None);
        assert!(outputs
            .iter()
            .any(|o| matches!(o, PeerOutput::QueryResult { .. })));
        // After the advert TTL (60s) the entry is gone.
        let (_, outputs) = peer.query(Time::secs(120), P2psQuery::by_name("Echo"), None);
        assert!(!outputs
            .iter()
            .any(|o| matches!(o, PeerOutput::QueryResult { .. })));
    }

    #[test]
    fn ping_pong() {
        let mut peer = PeerMachine::new(PeerConfig::ordinary(PeerId(1)));
        let outputs = peer.on_message(Time::ZERO, PeerId(2), P2psMessage::Ping { nonce: 5 });
        assert_eq!(
            sends(&outputs),
            vec![(PeerId(2), &P2psMessage::Pong { nonce: 5 })]
        );
        let outputs = peer.on_message(Time::ZERO, PeerId(2), P2psMessage::Pong { nonce: 5 });
        assert_eq!(
            outputs,
            vec![PeerOutput::PongReceived {
                from: PeerId(2),
                nonce: 5
            }]
        );
    }

    #[test]
    fn advert_flood_terminates_in_cyclic_rendezvous_graph() {
        // Three rendezvous peers in a triangle: an advert injected at A
        // must not circulate forever.
        let ids = [PeerId(1), PeerId(2), PeerId(3)];
        let mut peers: Vec<PeerMachine> = ids
            .iter()
            .map(|&id| {
                let mut m = PeerMachine::new(PeerConfig::rendezvous(id));
                for &other in &ids {
                    if other != id {
                        m.add_neighbour(other, true);
                    }
                }
                m
            })
            .collect();
        let mut inflight: Vec<(PeerId, PeerId, P2psMessage)> = vec![(
            PeerId(9),
            PeerId(1),
            P2psMessage::Advertise {
                advert: advert(PeerId(9), "Echo"),
                ttl: 10,
            },
        )];
        let mut hops = 0;
        while let Some((from, to, msg)) = inflight.pop() {
            hops += 1;
            assert!(hops < 100, "advert flood did not terminate");
            let machine = peers.iter_mut().find(|p| p.id() == to).unwrap();
            for out in machine.on_message(Time::ZERO, from, msg.clone()) {
                if let PeerOutput::Send { to: next, message } = out {
                    inflight.push((to, next, message));
                }
            }
        }
        for peer in &peers {
            assert_eq!(peer.cache_len(), 1, "every rendezvous learned the advert");
        }
    }
}
