//! Threaded driver: the same [`PeerMachine`] running on real threads —
//! messages routed through a shared directory that resolves peer ids,
//! the XML wire format on every hop.
//!
//! # Threading
//!
//! A peer's machine sits behind a mutex and is stepped by whichever
//! thread has an input for it, run to completion:
//!
//! * the **application's thread** steps it for every [`ThreadPeer`]
//!   call (`open_pipe`, `send_pipe`, `publish`, `query`, …) and routes
//!   the resulting sends itself — there is no command queue and no
//!   reply channel;
//! * the peer's one own thread, its **inbox**, steps it for wire
//!   traffic from other peers (which therefore stays asynchronous and
//!   FIFO per receiver) and for the periodic advert refresh; it blocks
//!   until the next message arrives or the next refresh is due.
//!
//! Whatever the step delivers to the application (`PipeDelivery`,
//! `QueryResult`, `UnknownPipe`, `Pong`) is handed, on the stepping
//! thread, to the [`DeliverySink`] the embedder installed; with none
//! installed it lands in the event channel behind
//! [`ThreadPeer::recv_event`].
//!
//! **Lock rule:** the machine lock is held for the step alone — never
//! across [`ThreadNetwork::route`] and never across a sink call — so a
//! sink may re-enter the peer (`send_pipe` from inside a delivery), two
//! peers may send to each other concurrently, and a loopback send
//! delivers on the caller's own stack.

use crate::advert::{PipeAdvertisement, ServiceAdvertisement};
use crate::id::PeerId;
use crate::machine::{PeerConfig, PeerMachine, PeerOutput};
use crate::message::P2psMessage;
use crate::query::P2psQuery;
use crossbeam_channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use wsp_simnet::Time;

/// How often a peer re-broadcasts its own adverts (soft-state refresh).
const REFRESH_INTERVAL: Duration = Duration::from_secs(5);

/// Events surfaced to the embedding application (mirrors
/// [`crate::sim_driver::PeerEvent`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ThreadPeerEvent {
    QueryResult {
        token: u64,
        adverts: Vec<ServiceAdvertisement>,
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

/// Where a peer's events go instead of the event channel; see
/// [`ThreadPeer::set_sink`]. Called on the thread that stepped the
/// machine, with no peer lock held.
pub type DeliverySink = Box<dyn Fn(ThreadPeerEvent) + Send + Sync>;

type WireMessage = (PeerId, String); // (sender, serialised message)

/// A peer's queue of wire traffic from other peers. `closed` shares the
/// queue's mutex so the inbox thread cannot miss it between its check
/// and its wait.
#[derive(Default)]
struct Inbox {
    state: Mutex<InboxState>,
    ready: Condvar,
}

#[derive(Default)]
struct InboxState {
    messages: VecDeque<WireMessage>,
    closed: bool,
}

enum Next {
    Message(WireMessage),
    RefreshDue,
    Closed,
}

impl Inbox {
    /// Queue `message` unless the inbox has closed. `routed` is bumped
    /// before the receiver can see the message, so whoever observes the
    /// message's effects also observes it counted.
    fn push(&self, message: WireMessage, routed: &AtomicU64) -> bool {
        let mut state = self.state.lock();
        if state.closed {
            return false;
        }
        state.messages.push_back(message);
        routed.fetch_add(1, Relaxed);
        drop(state);
        self.ready.notify_one();
        true
    }

    fn close(&self) {
        self.state.lock().closed = true;
        self.ready.notify_one();
    }

    /// Block until a message arrives, `refresh_at` passes or the inbox
    /// closes. A due refresh wins over queued traffic, so sustained
    /// load cannot starve it; closing discards what is still queued.
    fn next(&self, refresh_at: Instant) -> Next {
        let mut state = self.state.lock();
        loop {
            if state.closed {
                return Next::Closed;
            }
            let Some(until_refresh) = refresh_at
                .checked_duration_since(Instant::now())
                .filter(|d| !d.is_zero())
            else {
                return Next::RefreshDue;
            };
            if let Some(message) = state.messages.pop_front() {
                return Next::Message(message);
            }
            self.ready.wait_for(&mut state, until_refresh);
        }
    }
}

/// Wire-traffic counters for a [`ThreadNetwork`] — every message hop
/// between peers (publishes, query floods, pipe data) counts as one
/// routed message, so discovery round-trips are directly visible.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadNetworkStats {
    /// Messages delivered to a live peer's inbox.
    pub routed: u64,
    /// Messages addressed to a departed (or never-known) peer.
    pub dropped: u64,
}

/// The shared routing fabric for a threaded P2PS network.
#[derive(Clone)]
pub struct ThreadNetwork {
    directory: Arc<RwLock<HashMap<PeerId, Arc<Inbox>>>>,
    epoch: Instant,
    routed: Arc<AtomicU64>,
    dropped: Arc<AtomicU64>,
}

impl Default for ThreadNetwork {
    fn default() -> Self {
        ThreadNetwork {
            directory: Arc::default(),
            epoch: Instant::now(),
            routed: Arc::default(),
            dropped: Arc::default(),
        }
    }
}

impl ThreadNetwork {
    pub fn new() -> Self {
        ThreadNetwork::default()
    }

    /// Routed/dropped message counts since construction.
    pub fn stats(&self) -> ThreadNetworkStats {
        ThreadNetworkStats {
            routed: self.routed.load(Relaxed),
            dropped: self.dropped.load(Relaxed),
        }
    }

    fn now(&self) -> Time {
        Time::micros(self.epoch.elapsed().as_micros() as u64)
    }

    fn route(&self, to: PeerId, message: WireMessage) {
        let delivered = self
            .directory
            .read()
            .get(&to)
            .is_some_and(|inbox| inbox.push(message, &self.routed));
        if !delivered {
            self.dropped.fetch_add(1, Relaxed);
        }
    }

    /// Add a peer to the network and start its inbox thread. The
    /// returned [`ThreadPeer`] is the application's handle; dropping it
    /// removes the peer and joins the thread.
    pub fn spawn(&self, config: PeerConfig) -> ThreadPeer {
        let id = config.id;
        let inbox = Arc::new(Inbox::default());
        let (event_tx, event_rx) = unbounded::<ThreadPeerEvent>();
        let core = Arc::new(PeerCore {
            id,
            network: self.clone(),
            stepped: Mutex::new(Stepped {
                machine: PeerMachine::new(config),
                tokens: HashMap::new(),
            }),
            sink: OnceLock::new(),
            events: event_tx,
        });
        self.directory.write().insert(id, inbox.clone());
        let join = {
            let (core, inbox) = (core.clone(), inbox.clone());
            std::thread::Builder::new()
                .name(format!("p2ps-{id}"))
                .spawn(move || inbox_loop(&core, &inbox))
                .expect("spawn peer inbox thread")
        };
        ThreadPeer {
            core,
            inbox,
            events: event_rx,
            join: Some(join),
        }
    }
}

/// What the machine lock guards: the machine, and the mapping from its
/// query ids to the tokens the application chose.
struct Stepped {
    machine: PeerMachine,
    tokens: HashMap<u64, u64>,
}

/// The part of a peer shared between its handle and its inbox thread.
struct PeerCore {
    id: PeerId,
    network: ThreadNetwork,
    stepped: Mutex<Stepped>,
    sink: OnceLock<DeliverySink>,
    events: Sender<ThreadPeerEvent>,
}

impl PeerCore {
    /// Step the machine on the calling thread and carry out what it
    /// asks for. The lock covers `step` alone (see the module docs).
    fn step(&self, step: impl FnOnce(&mut Stepped, Time) -> Vec<PeerOutput>) {
        let outputs = {
            let mut stepped = self.stepped.lock();
            let mut outputs = step(&mut stepped, self.network.now());
            for output in &mut outputs {
                if let PeerOutput::QueryResult { id, .. } = output {
                    *id = stepped.tokens.get(id).copied().unwrap_or(*id);
                }
            }
            outputs
        };
        for output in outputs {
            match output {
                PeerOutput::Send { to, message } => {
                    self.network.route(to, (self.id, message.to_xml()));
                    // Payloads are envelopes serialised into pooled
                    // buffers; this is where they leave the pipeline.
                    if let P2psMessage::PipeData { payload, .. } = message {
                        wsp_xml::BufPool::global().put_string(payload);
                    }
                }
                PeerOutput::QueryResult { id, adverts } => {
                    self.deliver(ThreadPeerEvent::QueryResult { token: id, adverts });
                }
                PeerOutput::PipeDelivery {
                    pipe,
                    from,
                    payload,
                } => self.deliver(ThreadPeerEvent::PipeDelivery {
                    pipe,
                    from,
                    payload,
                }),
                PeerOutput::UnknownPipe { pipe } => {
                    self.deliver(ThreadPeerEvent::UnknownPipe { pipe });
                }
                PeerOutput::PongReceived { from, nonce } => {
                    self.deliver(ThreadPeerEvent::Pong { from, nonce });
                }
            }
        }
    }

    fn deliver(&self, event: ThreadPeerEvent) {
        match self.sink.get() {
            Some(sink) => sink(event),
            None => {
                let _ = self.events.send(event);
            }
        }
    }
}

fn inbox_loop(core: &PeerCore, inbox: &Inbox) {
    let mut refresh_at = Instant::now() + REFRESH_INTERVAL;
    loop {
        match inbox.next(refresh_at) {
            Next::Message((from, wire)) => {
                let message = P2psMessage::from_xml(&wire);
                // Close the cycle `to_xml` opened on the sender's side.
                wsp_xml::BufPool::global().put_string(wire);
                if let Some(message) = message {
                    core.step(|s, now| s.machine.on_message(now, from, message));
                }
            }
            Next::RefreshDue => {
                refresh_at = Instant::now() + REFRESH_INTERVAL;
                core.step(|s, now| s.machine.refresh(now));
            }
            Next::Closed => return,
        }
    }
}

/// Application handle for one threaded peer.
pub struct ThreadPeer {
    core: Arc<PeerCore>,
    inbox: Arc<Inbox>,
    events: Receiver<ThreadPeerEvent>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ThreadPeer {
    pub fn id(&self) -> PeerId {
        self.core.id
    }

    /// Hand this peer's events to `sink` instead of the event channel.
    /// The sink runs on whichever thread stepped the machine — the
    /// caller of a `ThreadPeer` method for a loopback delivery or a
    /// local query hit, the inbox thread for everything off the wire —
    /// with no peer lock held, so it may call back into the peer; it
    /// must not block on work that needs the inbox thread. Install it
    /// before the peer sees traffic: events delivered earlier stay in
    /// the channel. Returns `false` (and drops `sink`) if one is
    /// already installed.
    pub fn set_sink(&self, sink: DeliverySink) -> bool {
        self.core.sink.set(sink).is_ok()
    }

    /// Register a service locally (deploy) without announcing it.
    pub fn register(&self, advert: ServiceAdvertisement) {
        self.core.stepped.lock().machine.register_local(advert);
    }

    pub fn publish(&self, advert: ServiceAdvertisement) {
        self.core.step(|s, now| s.machine.publish(now, advert));
    }

    pub fn unpublish(&self, service: &str) {
        self.core.stepped.lock().machine.unpublish(service);
    }

    pub fn query(&self, token: u64, query: P2psQuery) {
        self.core.step(|s, now| {
            let (id, outputs) = s.machine.query(now, query, None);
            s.tokens.insert(id, token);
            outputs
        });
    }

    /// Open a local pipe and return its advertisement.
    pub fn open_pipe(&self, name: Option<String>) -> PipeAdvertisement {
        self.core.stepped.lock().machine.open_pipe(name)
    }

    pub fn close_pipe(&self, pipe: PipeAdvertisement) {
        self.core.stepped.lock().machine.close_pipe(&pipe);
    }

    /// True if `pipe` is currently open on this peer.
    pub fn has_pipe(&self, pipe: &PipeAdvertisement) -> bool {
        self.core.stepped.lock().machine.has_pipe(pipe)
    }

    pub fn send_pipe(&self, to: PipeAdvertisement, payload: String) {
        self.core.step(|s, _| s.machine.send_pipe_data(to, payload));
    }

    pub fn add_neighbour(&self, peer: PeerId, rendezvous: bool) {
        self.core
            .stepped
            .lock()
            .machine
            .add_neighbour(peer, rendezvous);
    }

    /// Block for the next event, up to `timeout`.
    pub fn recv_event(&self, timeout: Duration) -> Option<ThreadPeerEvent> {
        self.events.recv_timeout(timeout).ok()
    }

    /// Non-blocking event poll.
    pub fn try_event(&self) -> Option<ThreadPeerEvent> {
        self.events.try_recv().ok()
    }
}

impl Drop for ThreadPeer {
    fn drop(&mut self) {
        self.core.network.directory.write().remove(&self.core.id);
        self.inbox.close();
        if let Some(join) = self.join.take() {
            // A sink may hold the last reference to whatever owns this
            // handle, so the drop can run on the inbox thread itself —
            // which cannot join itself; it sees `closed` and returns
            // as soon as the sink does.
            if join.thread().id() != std::thread::current().id() {
                let _ = join.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WAIT: Duration = Duration::from_secs(5);

    fn advert(peer: &ThreadPeer, name: &str) -> ServiceAdvertisement {
        ServiceAdvertisement::new(name, peer.id()).with_pipe("in")
    }

    fn wire_up(rv: &ThreadPeer, leaves: &[&ThreadPeer]) {
        for leaf in leaves {
            leaf.add_neighbour(rv.id(), true);
            rv.add_neighbour(leaf.id(), false);
        }
    }

    #[test]
    fn publish_discover_over_threads() {
        let network = ThreadNetwork::new();
        let rv = network.spawn(PeerConfig::rendezvous(PeerId(100)));
        let publisher = network.spawn(PeerConfig::ordinary(PeerId(1)));
        let seeker = network.spawn(PeerConfig::ordinary(PeerId(2)));
        wire_up(&rv, &[&publisher, &seeker]);

        // `publish` has put the advert in the rendezvous' inbox by the
        // time it returns, so the query queues up behind it.
        publisher.publish(advert(&publisher, "Echo"));
        seeker.query(7, P2psQuery::by_name("Echo"));

        let event = seeker
            .recv_event(WAIT)
            .expect("query should produce an event");
        match event {
            ThreadPeerEvent::QueryResult { token, adverts } => {
                assert_eq!(token, 7);
                assert_eq!(adverts[0].peer, publisher.id());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pipe_round_trip_over_threads() {
        let network = ThreadNetwork::new();
        let provider = network.spawn(PeerConfig::ordinary(PeerId(1)));
        let consumer = network.spawn(PeerConfig::ordinary(PeerId(2)));
        // Direct pipes need no rendezvous: the directory resolves ids.
        provider.publish(advert(&provider, "Echo"));

        let target = PipeAdvertisement::new(provider.id(), Some("Echo".into()), "in");
        consumer.send_pipe(target.clone(), "<ping/>".into());
        let event = provider.recv_event(WAIT).expect("pipe delivery");
        match event {
            ThreadPeerEvent::PipeDelivery {
                pipe,
                from,
                payload,
            } => {
                assert_eq!(pipe, target);
                assert_eq!(from, consumer.id());
                assert_eq!(payload, "<ping/>");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn return_pipe_reply_flow() {
        // The Figures 5/6 shape over real threads: consumer opens a
        // return pipe, provider replies down it.
        let network = ThreadNetwork::new();
        let provider = network.spawn(PeerConfig::ordinary(PeerId(1)));
        let consumer = network.spawn(PeerConfig::ordinary(PeerId(2)));
        provider.publish(advert(&provider, "Echo"));

        let return_pipe = consumer.open_pipe(None);
        let target = PipeAdvertisement::new(provider.id(), Some("Echo".into()), "in");
        consumer.send_pipe(target, format!("request via {}", return_pipe.name));

        // Provider: receive and answer down the consumer's return pipe.
        match provider.recv_event(WAIT).expect("request") {
            ThreadPeerEvent::PipeDelivery { .. } => {
                provider.send_pipe(return_pipe.clone(), "response".into());
            }
            other => panic!("unexpected {other:?}"),
        }
        match consumer.recv_event(WAIT).expect("response") {
            ThreadPeerEvent::PipeDelivery { pipe, payload, .. } => {
                assert_eq!(pipe, return_pipe);
                assert_eq!(payload, "response");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn departed_peer_messages_dropped() {
        let network = ThreadNetwork::new();
        let a = network.spawn(PeerConfig::ordinary(PeerId(1)));
        let b = network.spawn(PeerConfig::ordinary(PeerId(2)));
        let b_id = b.id();
        drop(b);
        // Sending to a departed peer does not panic or wedge.
        a.send_pipe(PipeAdvertisement::new(b_id, None, "p"), "x".into());
        assert!(a.try_event().is_none());
    }

    #[test]
    fn network_counts_routed_and_dropped_traffic() {
        let network = ThreadNetwork::new();
        let provider = network.spawn(PeerConfig::ordinary(PeerId(1)));
        let consumer = network.spawn(PeerConfig::ordinary(PeerId(2)));
        assert_eq!(network.stats(), ThreadNetworkStats::default());

        let target = PipeAdvertisement::new(provider.id(), None, "in");
        consumer.send_pipe(target, "<ping/>".into());
        provider.recv_event(WAIT); // wait until the hop has been routed
        let after_hop = network.stats();
        assert!(after_hop.routed >= 1, "{after_hop:?}");
        assert_eq!(after_hop.dropped, 0, "{after_hop:?}");

        let ghost = PeerId(99);
        // Routed on the calling thread: counted by the time it returns.
        consumer.send_pipe(PipeAdvertisement::new(ghost, None, "p"), "x".into());
        assert_eq!(network.stats().dropped, 1);
    }

    #[test]
    fn a_due_refresh_wins_over_queued_traffic_and_close_over_both() {
        let inbox = Inbox::default();
        let routed = AtomicU64::new(0);
        assert!(inbox.push((PeerId(1), "m".into()), &routed));
        let overdue = Instant::now() - Duration::from_millis(1);
        assert!(matches!(inbox.next(overdue), Next::RefreshDue));
        let later = Instant::now() + WAIT;
        assert!(matches!(inbox.next(later), Next::Message((PeerId(1), _))));
        inbox.close();
        assert!(!inbox.push((PeerId(1), "late".into()), &routed));
        assert_eq!(routed.load(Relaxed), 1);
        assert!(matches!(inbox.next(overdue), Next::Closed));
    }

    /// A sink that answers every request from inside the delivery: the
    /// machine lock is not held across the call, so re-entering
    /// `send_pipe` — remote and loopback — cannot self-deadlock.
    #[test]
    fn sink_may_reenter_the_peer_from_inside_a_delivery() {
        let network = ThreadNetwork::new();
        let provider = Arc::new(network.spawn(PeerConfig::ordinary(PeerId(1))));
        let consumer = network.spawn(PeerConfig::ordinary(PeerId(2)));
        provider.register(advert(&provider, "Echo"));
        let loopback = provider.open_pipe(Some("loop".into()));
        let return_pipe = consumer.open_pipe(None);

        let (seen_tx, seen_rx) = unbounded::<String>();
        let (weak, reply_to, via) = (
            Arc::downgrade(&provider),
            return_pipe.clone(),
            loopback.clone(),
        );
        assert!(provider.set_sink(Box::new(move |event| {
            let ThreadPeerEvent::PipeDelivery { pipe, payload, .. } = event else {
                return;
            };
            let Some(provider) = weak.upgrade() else {
                return;
            };
            if pipe == via {
                // Second hop, delivered on this same stack.
                provider.send_pipe(reply_to.clone(), format!("echo {payload}"));
            } else {
                provider.send_pipe(via.clone(), payload);
            }
            let _ = seen_tx.send(pipe.name);
        })));
        assert!(
            !provider.set_sink(Box::new(|_| {})),
            "a second sink is refused"
        );

        let target = PipeAdvertisement::new(provider.id(), Some("Echo".into()), "in");
        consumer.send_pipe(target, "ping".into());
        match consumer.recv_event(WAIT).expect("reply") {
            ThreadPeerEvent::PipeDelivery { pipe, payload, .. } => {
                assert_eq!(pipe, return_pipe);
                assert_eq!(payload, "echo ping");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Inner (loopback) delivery finished before the outer returned.
        assert_eq!(seen_rx.recv_timeout(WAIT).unwrap(), "loop");
        assert_eq!(seen_rx.recv_timeout(WAIT).unwrap(), "in");
        assert!(provider.try_event().is_none(), "sink replaces the channel");
    }

    #[test]
    fn dropping_a_peer_leaves_the_directory_joins_its_thread_and_frees_its_sink() {
        let network = ThreadNetwork::new();
        let a = network.spawn(PeerConfig::ordinary(PeerId(1)));
        let b = network.spawn(PeerConfig::ordinary(PeerId(2)));
        let held_by_sink = Arc::new(());
        let probe = Arc::downgrade(&held_by_sink);
        assert!(b.set_sink(Box::new(move |_| {
            let _ = &held_by_sink;
        })));
        let b_pipe = b.open_pipe(None);
        drop(b);
        // The inbox thread shared the peer's core with the handle: the
        // sink is only freed once the thread has exited too.
        assert!(probe.upgrade().is_none(), "sink outlived its peer");
        a.send_pipe(b_pipe, "x".into());
        assert_eq!(network.stats().dropped, 1);
    }

    #[test]
    fn handle_dropped_from_inside_its_own_sink_does_not_join_itself() {
        let network = ThreadNetwork::new();
        let a = network.spawn(PeerConfig::ordinary(PeerId(1)));
        let b = network.spawn(PeerConfig::ordinary(PeerId(2)));
        let b_pipe = b.open_pipe(None);
        let slot = Arc::new(Mutex::new(None::<ThreadPeer>));
        let (gone_tx, gone_rx) = unbounded::<()>();
        let in_sink = slot.clone();
        assert!(b.set_sink(Box::new(move |_| {
            drop(in_sink.lock().take()); // runs on b's inbox thread
            let _ = gone_tx.send(());
        })));
        *slot.lock() = Some(b);
        a.send_pipe(b_pipe.clone(), "x".into());
        gone_rx
            .recv_timeout(WAIT)
            .expect("drop inside the sink returned");
        a.send_pipe(b_pipe, "y".into());
        assert_eq!(network.stats().dropped, 1);
    }
}
