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
//! * a **sending thread** steps it for wire traffic from another peer
//!   when this peer is idle — nothing queued for it and no thread
//!   delivering to it: the sender parses the message and steps the
//!   receiver on its own stack, so a request and its reply cost no
//!   hand-off between threads;
//! * the peer's one own thread, its **inbox**, steps it for wire
//!   traffic that found the peer busy (or a sender already
//!   [`MAX_INLINE_DEPTH`] deliveries deep) and for the periodic advert
//!   refresh; it blocks until the next message is queued or the next
//!   refresh is due.
//!
//! Wire traffic stays FIFO per receiver, one message per claim: a
//! message is delivered on the sending thread only if everything routed
//! to the receiver before it has been delivered, and while one delivery
//! runs (the receiver's `busy` flag, set under its inbox lock) later
//! messages queue behind it, for the inbox thread. One way in,
//! `Inbox::offer`, and one delivery path, `process`, serve both
//! threads; a delivery that unwinds closes the receiver's inbox, so a
//! peer whose sink panicked takes no more traffic and the panic never
//! reaches the delivering thread's caller.
//!
//! Whatever the step delivers to the application (`PipeDelivery`,
//! `QueryResult`, `UnknownPipe`, `Pong`) is handed, on the stepping
//! thread, to the [`DeliverySink`] the embedder installed; with none
//! installed it lands in the event channel behind
//! [`ThreadPeer::recv_event`]. A sink runs inside its peer's claim, and
//! may leave work ([`after_release`]) that its thread runs, in order,
//! once it has let go of its last claim. The sink of a message its
//! sender brought with no delivery or serve further up its stack may
//! leave the one serve ([`serve_after`]) that the sender runs, last,
//! before its send returns; an inbox thread brings no request.
//!
//! **Lock rule:** the machine lock is held for the step alone — never
//! across `ThreadNetwork::route` and never across a sink call — so a
//! sink may re-enter the peer (`send_pipe` from inside a delivery), two
//! peers may send to each other concurrently, and a loopback send
//! delivers on the caller's own stack. Since a sink may run on another
//! peer's thread, it must not block on its sender. **Wake rule:** a
//! thread that holds a peer's claim wakes nobody: a wake-up goes through
//! [`after_release`], which gives it at once on a thread that holds no
//! claim and otherwise when the thread lets go of its last. On one CPU a
//! woken thread runs at once, while the waker still holds the peer, and
//! its next message to that peer queues for the inbox thread: a caller
//! woken by the thread delivering its reply sent its next call's reply
//! into that queue, and the two kept meeting there. A claim carries one
//! message and a serve is the last work its delivery leaves, so no
//! wake-up waits behind a serve: a serve may block — on a nested call,
//! say, whose worker it would keep asleep — and a sink may not.

use crate::advert::{PipeAdvertisement, ServiceAdvertisement};
use crate::id::PeerId;
use crate::machine::{PeerConfig, PeerMachine, PeerOutput, SEEN_QUERY_CAP};
use crate::message::P2psMessage;
use crate::query::P2psQuery;
use parking_lot::{Condvar, Mutex, RwLock};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};
use wsp_simnet::Time;
use wsp_telemetry::clock;

/// How often a peer re-broadcasts its own adverts (soft-state refresh).
const REFRESH_INTERVAL: Duration = Duration::from_secs(5);

/// How many deliveries may nest on one thread. A sink that sends from
/// inside a delivery to another idle peer delivers on the same stack;
/// a thread already this deep queues the message for the receiver's
/// inbox thread instead, so a flood through a chain of peers uses a
/// bounded stack. A left serve ([`serve_after`]) counts as one.
pub const MAX_INLINE_DEPTH: usize = 4;

thread_local! {
    /// Deliveries (`process` calls) and left work running on this
    /// thread's stack.
    static DELIVERY_DEPTH: Cell<usize> = const { Cell::new(0) };
    /// Peers this thread has claimed: deliveries alone, not left work.
    static CLAIMS: Cell<usize> = const { Cell::new(0) };
    /// Whether the running sink may still leave a serve.
    static OPEN: Cell<bool> = const { Cell::new(false) };
    /// Work left to run, in order, once this thread's last claim goes.
    static AFTER: RefCell<VecDeque<Box<dyn FnOnce()>>> = const { RefCell::new(VecDeque::new()) };
}

/// Whether this thread holds a peer's claim: a sink running now does.
fn claimed() -> bool {
    CLAIMS.get() > 0
}

/// Run `run` once this thread holds no peer's claim: at once if it holds
/// none now, else after what was left before it, when it releases its
/// last (the wake rule: see the module docs).
pub fn after_release(run: impl FnOnce() + 'static) {
    if claimed() {
        AFTER.with_borrow_mut(|after| after.push_back(Box::new(run)));
    } else {
        run();
    }
}

/// Whether the sink running now may [`serve_after`]: it delivers the
/// message its thread brought (see the module docs) and left no serve.
pub fn may_serve_after() -> bool {
    OPEN.get()
}

/// Leave `serve` for this thread to run once the delivery whose sink
/// calls this has released its peer. Only where [`may_serve_after`].
pub fn serve_after(serve: impl FnOnce() + 'static) {
    debug_assert!(may_serve_after(), "no serve may be left here");
    OPEN.set(false);
    after_release(serve);
}

/// Run what was left to run after this thread's claims, one level of
/// [`MAX_INLINE_DEPTH`] each, isolated from one another.
fn run_after() {
    while let Some(run) = AFTER.with_borrow_mut(VecDeque::pop_front) {
        DELIVERY_DEPTH.set(DELIVERY_DEPTH.get() + 1);
        let _ = catch_unwind(AssertUnwindSafe(run));
        DELIVERY_DEPTH.set(DELIVERY_DEPTH.get() - 1);
    }
}

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

/// A peer's queue of wire traffic from other peers. `busy` and
/// `closed` share the queue's mutex, so the inbox thread cannot miss
/// either between its check and its wait.
#[derive(Default)]
struct Inbox {
    state: Mutex<InboxState>,
    ready: Condvar,
}

#[derive(Default)]
struct InboxState {
    messages: VecDeque<WireMessage>,
    /// A thread is delivering a message to the peer — its inbox thread
    /// one it popped, or a sender one it brought. Messages routed
    /// meanwhile queue behind it; whoever clears the flag wakes the
    /// inbox thread for them.
    busy: bool,
    closed: bool,
}

enum Next {
    Message(WireMessage),
    RefreshDue,
    Closed,
}

/// What [`Inbox::offer`] did with a message.
enum Offer {
    /// The peer was idle and is now claimed for the caller, who
    /// delivers the message itself.
    Idle(WireMessage),
    Queued,
    Closed,
}

impl Inbox {
    /// Take `message` unless the inbox has closed. A message for an idle
    /// peer — empty queue, nobody delivering — from a thread less than
    /// [`MAX_INLINE_DEPTH`] deliveries deep is handed back with the peer
    /// claimed (`busy`), for the caller to deliver and [`Inbox::finish`];
    /// any other is queued for the inbox thread. `routed` is bumped
    /// before the receiver can see the message, so whoever observes the
    /// message's effects also observes it counted.
    fn offer(&self, message: WireMessage, routed: &AtomicU64) -> Offer {
        let deep = DELIVERY_DEPTH.get() >= MAX_INLINE_DEPTH;
        let mut state = self.state.lock();
        if state.closed {
            return Offer::Closed;
        }
        routed.fetch_add(1, Relaxed);
        if deep || state.busy || !state.messages.is_empty() {
            state.messages.push_back(message);
            // A busy peer's deliverer wakes the inbox when it finishes.
            let wake = !state.busy;
            drop(state);
            if wake {
                self.ready.notify_one();
            }
            return Offer::Queued;
        }
        state.busy = true;
        Offer::Idle(message)
    }

    /// The delivery that claimed the peer is over: release it, and wake
    /// the inbox thread if messages queued up behind it — unless it is
    /// the inbox thread's own delivery (`wake` false): that thread looks
    /// at the queue before it waits, and nobody else waits on `ready`.
    fn finish(&self, wake: bool) {
        let mut state = self.state.lock();
        state.busy = false;
        let queued = !state.messages.is_empty();
        drop(state);
        if wake && queued {
            self.ready.notify_one();
        }
    }

    /// Refuse all further traffic and discard what is still queued.
    fn close(&self) {
        let mut state = self.state.lock();
        state.closed = true;
        state.messages.clear();
        drop(state);
        self.ready.notify_one();
    }

    /// Block until a message can be delivered, `refresh_at` passes or
    /// the inbox closes; a message comes with the peer claimed. A due
    /// refresh wins over queued traffic, so sustained load cannot
    /// starve it.
    fn next(&self, refresh_at: Instant) -> Next {
        let mut state = self.state.lock();
        loop {
            if state.closed {
                return Next::Closed;
            }
            let until_refresh = refresh_at.saturating_duration_since(clock::now());
            if until_refresh.is_zero() {
                return Next::RefreshDue;
            }
            if !state.busy {
                if let Some(message) = state.messages.pop_front() {
                    state.busy = true;
                    return Next::Message(message);
                }
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
    /// Messages accepted by a live peer: delivered on the sending
    /// thread, or queued for the peer's inbox thread.
    pub routed: u64,
    /// Of `routed`, the messages delivered on the sending thread. The
    /// rest found the receiver busy, or the sender
    /// [`MAX_INLINE_DEPTH`] deliveries deep, and were queued for the
    /// receiver's inbox thread.
    pub inline: u64,
    /// Messages addressed to a departed (or never-known) peer, or to
    /// one whose inbox closed.
    pub dropped: u64,
}

/// The counters behind [`ThreadNetworkStats`], side by side: a route
/// that bumps two of them pays for one cache line.
#[derive(Default)]
struct Traffic {
    routed: AtomicU64,
    inline: AtomicU64,
    dropped: AtomicU64,
}

/// The shared routing fabric for a threaded P2PS network.
#[derive(Clone, Default)]
pub struct ThreadNetwork {
    directory: Arc<RwLock<HashMap<PeerId, Weak<PeerCore>>>>,
    traffic: Arc<Traffic>,
}

impl ThreadNetwork {
    pub fn new() -> Self {
        ThreadNetwork::default()
    }

    /// Routed/inline/dropped message counts since construction.
    pub fn stats(&self) -> ThreadNetworkStats {
        let traffic = &self.traffic;
        ThreadNetworkStats {
            routed: traffic.routed.load(Relaxed),
            inline: traffic.inline.load(Relaxed),
            dropped: traffic.dropped.load(Relaxed),
        }
    }

    /// Hand `message` to peer `to`: delivered on this thread if the
    /// peer is idle and this thread is less than [`MAX_INLINE_DEPTH`]
    /// deliveries deep, else queued for its inbox thread. The
    /// directory's lock is released before the delivery, which may
    /// route again.
    fn route(&self, to: PeerId, message: WireMessage) {
        let traffic = &self.traffic;
        let receiver = self.directory.read().get(&to).and_then(Weak::upgrade);
        let accepted =
            receiver.is_some_and(|core| match core.inbox.offer(message, &traffic.routed) {
                Offer::Idle(message) => {
                    traffic.inline.fetch_add(1, Relaxed);
                    process(&core, message, true);
                    true
                }
                Offer::Queued => true,
                Offer::Closed => false,
            });
        if !accepted {
            traffic.dropped.fetch_add(1, Relaxed);
        }
    }

    /// Add a peer to the network and start its inbox thread. The
    /// returned [`ThreadPeer`] is the application's handle; dropping it
    /// removes the peer and joins the thread.
    pub fn spawn(&self, config: PeerConfig) -> ThreadPeer {
        let id = config.id;
        let (event_tx, event_rx) = channel::<ThreadPeerEvent>();
        let core = Arc::new(PeerCore {
            id,
            network: self.clone(),
            inbox: Inbox::default(),
            stepped: Mutex::new(Stepped {
                machine: PeerMachine::new(config),
                tokens: HashMap::new(),
                token_order: VecDeque::new(),
            }),
            sink: OnceLock::new(),
            events: event_tx,
        });
        self.directory.write().insert(id, Arc::downgrade(&core));
        let join = {
            let core = core.clone();
            std::thread::Builder::new()
                .name(format!("p2ps-{id}"))
                .spawn(move || inbox_loop(&core))
                .expect("spawn peer inbox thread")
        };
        ThreadPeer {
            core,
            events: Mutex::new(event_rx),
            join: Some(join),
        }
    }
}

/// What the machine lock guards: the machine, and the mapping from its
/// query ids to the tokens the application chose.
struct Stepped {
    machine: PeerMachine,
    tokens: HashMap<u64, u64>,
    /// The ids in `tokens`, oldest first. The machine remembers at most
    /// `SEEN_QUERY_CAP` query ids and forgets the oldest first, so an id
    /// with that many of this peer's own queries after it is forgotten,
    /// and no hit for it can come up any more.
    token_order: VecDeque<u64>,
}

/// The part of a peer shared between its handle, its inbox thread and
/// (weakly, through the directory) the threads that deliver to it.
struct PeerCore {
    id: PeerId,
    network: ThreadNetwork,
    inbox: Inbox,
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
            let mut outputs = step(&mut stepped, Time::micros(clock::micros()));
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

/// Deliver `message` to the peer the caller claimed for it
/// ([`Inbox::offer`] or [`Inbox::next`]) — the one delivery path, for
/// the inbox thread and for a `sender` delivering inline alike — and
/// release the claim: whatever queued behind it is the inbox thread's.
/// The claim gone, and with it this thread's last, what the sinks left
/// runs.
fn process(core: &PeerCore, message: WireMessage, sender: bool) {
    let open = sender && DELIVERY_DEPTH.get() == 0;
    let delivering = Delivering::enter(&core.inbox, sender);
    OPEN.set(open);
    deliver(core, message);
    OPEN.set(false);
    drop(delivering);
    if !claimed() {
        run_after();
    }
}

/// Parse one message and step the machine with it. A delivery that
/// unwinds — a sink that panicked — closes the inbox, so the peer takes
/// no more wire traffic (later messages count as dropped) and the panic
/// stops here instead of reaching the delivering thread's caller.
fn deliver(core: &PeerCore, (from, wire): WireMessage) {
    let delivered = catch_unwind(AssertUnwindSafe(|| {
        let message = P2psMessage::from_xml(&wire);
        // Close the cycle `to_xml` opened on the sender's side.
        wsp_xml::BufPool::global().put_string(wire);
        if let Some(message) = message {
            core.step(|s, now| s.machine.on_message(now, from, message));
        }
    }))
    .is_ok();
    if !delivered {
        core.inbox.close();
    }
}

/// A delivery in progress on this thread: one level of
/// [`MAX_INLINE_DEPTH`] used, the receiver claimed — by a sender
/// (`true`) or by the inbox thread. Dropping it, on return or unwind,
/// gives both back.
struct Delivering<'a>(&'a Inbox, bool);

impl<'a> Delivering<'a> {
    fn enter(inbox: &'a Inbox, sender: bool) -> Self {
        DELIVERY_DEPTH.set(DELIVERY_DEPTH.get() + 1);
        CLAIMS.set(CLAIMS.get() + 1);
        Delivering(inbox, sender)
    }
}

impl Drop for Delivering<'_> {
    fn drop(&mut self) {
        DELIVERY_DEPTH.set(DELIVERY_DEPTH.get() - 1);
        CLAIMS.set(CLAIMS.get() - 1);
        self.0.finish(self.1);
    }
}

fn inbox_loop(core: &PeerCore) {
    let mut refresh_at = clock::now() + REFRESH_INTERVAL;
    loop {
        match core.inbox.next(refresh_at) {
            Next::Message(message) => process(core, message, false),
            Next::RefreshDue => {
                refresh_at = clock::now() + REFRESH_INTERVAL;
                core.step(|s, now| s.machine.refresh(now));
            }
            Next::Closed => return,
        }
    }
}

/// Application handle for one threaded peer.
pub struct ThreadPeer {
    core: Arc<PeerCore>,
    /// Locked because a `ThreadPeer` is `Sync` and a `Receiver` is not.
    events: Mutex<Receiver<ThreadPeerEvent>>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ThreadPeer {
    pub fn id(&self) -> PeerId {
        self.core.id
    }

    /// Hand this peer's events to `sink` instead of the event channel.
    /// The sink runs on whichever thread stepped the machine — the
    /// caller of a `ThreadPeer` method for a loopback delivery or a
    /// local query hit; for traffic off the wire, the sending peer's
    /// thread when this peer was idle, else the inbox thread — with no
    /// peer lock held, so it may call back into the peer. It must not
    /// block on its sender, nor on work that needs the inbox thread,
    /// and it sees the sending thread's thread-locals: an embedder
    /// that keeps per-thread context resets it inside the sink. A
    /// wake-up, or anything else that must not run inside a delivery,
    /// it leaves to [`after_release`] or [`serve_after`]. A
    /// sink that panics on wire traffic closes this peer's inbox (see
    /// the module docs). Install it before the peer sees traffic:
    /// events delivered earlier stay in the channel. Returns `false`
    /// (and drops `sink`) if one is already installed.
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
            s.token_order.push_back(id);
            if s.token_order.len() > SEEN_QUERY_CAP {
                if let Some(forgotten) = s.token_order.pop_front() {
                    s.tokens.remove(&forgotten);
                }
            }
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
        self.events.lock().recv_timeout(timeout).ok()
    }

    /// Non-blocking event poll.
    pub fn try_event(&self) -> Option<ThreadPeerEvent> {
        self.events.lock().try_recv().ok()
    }
}

impl Drop for ThreadPeer {
    fn drop(&mut self) {
        self.core.network.directory.write().remove(&self.core.id);
        self.core.inbox.close();
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
    fn query_tokens_are_forgotten_with_their_ids() {
        let network = ThreadNetwork::new();
        let peer = network.spawn(PeerConfig::ordinary(PeerId(1)));
        let issued = SEEN_QUERY_CAP + 100;
        for token in 0..issued as u64 {
            peer.query(token, P2psQuery::by_name("Echo"));
        }
        let stepped = peer.core.stepped.lock();
        assert_eq!(stepped.tokens.len(), SEEN_QUERY_CAP);
        assert_eq!(stepped.token_order.len(), SEEN_QUERY_CAP);
        // The newest queries keep their tokens.
        let newest = stepped.token_order.back().expect("queries were issued");
        assert_eq!(stepped.tokens[newest], issued as u64 - 1);
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
        let offer = |payload: &str| inbox.offer((PeerId(1), payload.into()), &routed);
        // A sender this deep queues even for an idle peer.
        DELIVERY_DEPTH.set(MAX_INLINE_DEPTH);
        assert!(matches!(offer("m"), Offer::Queued));
        let overdue = Instant::now() - Duration::from_millis(1);
        assert!(matches!(inbox.next(overdue), Next::RefreshDue));
        let later = Instant::now() + WAIT;
        assert!(matches!(inbox.next(later), Next::Message((PeerId(1), _))));
        inbox.close();
        assert!(matches!(offer("late"), Offer::Closed));
        DELIVERY_DEPTH.set(0);
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

        let (seen_tx, seen_rx) = channel::<String>();
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
        let (gone_tx, gone_rx) = channel::<()>();
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

    /// A sink that panics on wire traffic closes its peer's inbox, so
    /// later messages are dropped instead of piling up in a queue that
    /// no thread drains.
    #[test]
    fn a_panicking_sink_closes_its_inbox_instead_of_unwinding_into_the_sender() {
        const MESSAGES: u64 = 10_000;
        let network = ThreadNetwork::new();
        let a = network.spawn(PeerConfig::ordinary(PeerId(1)));
        let b = network.spawn(PeerConfig::ordinary(PeerId(2)));
        assert!(b.set_sink(Box::new(|_| panic!("deliberate sink panic"))));
        let b_pipe = b.open_pipe(None);
        for i in 0..MESSAGES {
            a.send_pipe(b_pipe.clone(), i.to_string()); // returns normally
        }
        assert!(b.core.inbox.state.lock().messages.is_empty());
        let stats = network.stats();
        // The first message found `b` idle and was delivered on this
        // thread; it closed the inbox, and everything after it dropped.
        assert_eq!((stats.routed, stats.inline), (1, 1), "{stats:?}");
        assert_eq!(stats.dropped, MESSAGES - 1, "{stats:?}");
        assert!(!b.core.inbox.state.lock().busy, "the claim was released");
    }

    /// The same rule when the panicking delivery is the inbox thread's:
    /// the thread exits, and later traffic drops.
    #[test]
    fn a_sink_panic_on_the_inbox_thread_closes_the_inbox_too() {
        let network = ThreadNetwork::new();
        let a = network.spawn(PeerConfig::ordinary(PeerId(1)));
        let mut b = network.spawn(PeerConfig::ordinary(PeerId(2)));
        let (ran_on_tx, ran_on_rx) = channel::<Option<String>>();
        assert!(b.set_sink(Box::new(move |_| {
            let _ = ran_on_tx.send(std::thread::current().name().map(str::to_owned));
            panic!("deliberate sink panic");
        })));
        let b_pipe = b.open_pipe(None);
        // A sender this deep queues even for an idle peer.
        DELIVERY_DEPTH.set(MAX_INLINE_DEPTH);
        a.send_pipe(b_pipe.clone(), "first".into());
        DELIVERY_DEPTH.set(0);
        let ran_on = ran_on_rx.recv_timeout(WAIT).expect("delivered");
        assert_eq!(ran_on.as_deref(), Some(&*format!("p2ps-{}", b.id())));
        let inbox_thread = b.join.take().unwrap();
        inbox_thread
            .join()
            .expect("the inbox thread exited normally");
        for _ in 0..3 {
            a.send_pipe(b_pipe.clone(), "late".into());
        }
        assert!(b.core.inbox.state.lock().messages.is_empty());
        let stats = network.stats();
        assert_eq!(
            (stats.routed, stats.inline, stats.dropped),
            (1, 0, 3),
            "{stats:?}"
        );
    }

    /// Only the sink of the message its sender brought — no delivery or
    /// serve further up that sender's stack, not on an inbox thread —
    /// may leave a serve, and the sender runs it with the receiver
    /// released, before its send returns.
    #[test]
    fn only_a_senders_own_delivery_leaves_a_serve_and_it_runs_after_the_release() {
        let network = ThreadNetwork::new();
        let a = network.spawn(PeerConfig::ordinary(PeerId(1)));
        let b = network.spawn(PeerConfig::ordinary(PeerId(2)));
        let (seen_tx, seen_rx) = channel::<(String, bool)>();
        let (ran_tx, ran_rx) = channel::<bool>();
        let receiver = Arc::downgrade(&b.core);
        assert!(b.set_sink(Box::new(move |event| {
            let ThreadPeerEvent::PipeDelivery { payload, .. } = event else {
                return;
            };
            let may = may_serve_after();
            seen_tx.send((payload, may)).unwrap();
            if may {
                let (receiver, ran_tx) = (receiver.clone(), ran_tx.clone());
                serve_after(move || {
                    let core = receiver.upgrade().unwrap();
                    ran_tx.send(core.inbox.state.lock().busy).unwrap();
                });
                assert!(!may_serve_after(), "one serve per delivery");
            }
        })));
        let b_pipe = b.open_pipe(None);
        a.send_pipe(b_pipe.clone(), "brought".into());
        assert_eq!(
            ran_rx.try_recv(),
            Ok(false),
            "ran, b released, before the send returned"
        );
        // A delivery or a serve further up; then queued, so the inbox
        // thread delivers it.
        for (depth, payload) in [(1, "nested"), (MAX_INLINE_DEPTH, "queued")] {
            DELIVERY_DEPTH.set(depth);
            a.send_pipe(b_pipe.clone(), payload.into());
        }
        DELIVERY_DEPTH.set(0);
        let seen: Vec<_> = (0..3)
            .map(|_| seen_rx.recv_timeout(WAIT).unwrap())
            .collect();
        let brought_only = [true, false, false];
        let names = ["brought", "nested", "queued"];
        assert_eq!(
            seen,
            names
                .iter()
                .map(|n| n.to_string())
                .zip(brought_only)
                .collect::<Vec<_>>()
        );
        assert!(ran_rx.try_recv().is_err(), "one serve in all");
    }

    /// What a sink leaves with [`after_release`] runs once its thread
    /// has let go of every peer it claimed: the sink's own, and for a
    /// nested delivery the one further up the stack — also when the
    /// sink that left it panicked. A thread that holds no claim runs
    /// it at once.
    #[test]
    fn work_left_inside_a_claim_runs_once_the_last_claim_is_released() {
        let (unclaimed_tx, unclaimed_rx) = channel::<()>();
        after_release(move || unclaimed_tx.send(()).unwrap());
        assert_eq!(unclaimed_rx.try_recv(), Ok(()), "ran before returning");
        let network = ThreadNetwork::new();
        let a = network.spawn(PeerConfig::ordinary(PeerId(1)));
        let b = Arc::new(network.spawn(PeerConfig::ordinary(PeerId(2))));
        let c = network.spawn(PeerConfig::ordinary(PeerId(3)));
        let (b_pipe, c_pipe) = (b.open_pipe(None), c.open_pipe(None));
        let (ran_tx, ran_rx) = channel::<(String, [bool; 2])>();
        let cores = [Arc::downgrade(&b.core), Arc::downgrade(&c.core)];
        assert!(c.set_sink(Box::new(move |event| {
            let ThreadPeerEvent::PipeDelivery { payload, .. } = event else {
                return;
            };
            assert!(claimed());
            let (cores, ran_tx) = (cores.clone(), ran_tx.clone());
            let panics = payload == "panic";
            after_release(move || {
                let busy = cores.map(|core| core.upgrade().unwrap().inbox.state.lock().busy);
                ran_tx.send((payload, busy)).unwrap();
            });
            assert!(!panics, "deliberate sink panic");
        })));
        let (forwarder, to_c) = (Arc::downgrade(&b), c_pipe.clone());
        assert!(b.set_sink(Box::new(move |_| {
            // Delivered to `c` on this stack, `b` still claimed.
            let b = forwarder.upgrade().unwrap();
            b.send_pipe(to_c.clone(), "nested".into());
        })));
        a.send_pipe(b_pipe, "forward".into());
        a.send_pipe(c_pipe, "panic".into());
        // Run on the sender before its sends returned, `b` and `c` free.
        assert_eq!(ran_rx.try_recv(), Ok(("nested".into(), [false, false])));
        assert_eq!(ran_rx.try_recv(), Ok(("panic".into(), [false, false])));
        assert!(c.core.inbox.state.lock().closed, "the panic closed c");
        assert!(!claimed());
    }

    /// Two senders racing for one receiver: whichever way each message
    /// travels — on its sender's thread or through the queue — the
    /// receiver takes one delivery at a time, and each sender's messages
    /// arrive in the order sent, all of them.
    #[test]
    fn two_senders_keep_their_order_at_one_receiver() {
        const PER_SENDER: u64 = 1_000;
        let network = ThreadNetwork::new();
        let receiver = network.spawn(PeerConfig::ordinary(PeerId(1)));
        let senders = [
            network.spawn(PeerConfig::ordinary(PeerId(2))),
            network.spawn(PeerConfig::ordinary(PeerId(3))),
        ];
        let (seen_tx, seen_rx) = channel::<(PeerId, u64)>();
        let inside = AtomicU64::new(0);
        let overlaps = Arc::new(AtomicU64::new(0));
        let overlapped = overlaps.clone();
        assert!(receiver.set_sink(Box::new(move |event| {
            if let ThreadPeerEvent::PipeDelivery { from, payload, .. } = event {
                if inside.fetch_add(1, Relaxed) != 0 {
                    overlaps.fetch_add(1, Relaxed);
                }
                std::thread::yield_now(); // widen the window for a second one
                inside.fetch_sub(1, Relaxed);
                let _ = seen_tx.send((from, payload.parse().unwrap()));
            }
        })));
        let pipe = receiver.open_pipe(None);
        std::thread::scope(|scope| {
            for sender in &senders {
                let pipe = pipe.clone();
                scope.spawn(move || {
                    for seq in 0..PER_SENDER {
                        sender.send_pipe(pipe.clone(), seq.to_string());
                    }
                });
            }
        });
        let mut next = HashMap::new();
        for _ in 0..2 * PER_SENDER {
            let (from, seq) = seen_rx.recv_timeout(WAIT).expect("every message arrives");
            let expected = next.entry(from).or_insert(0);
            assert_eq!(seq, *expected, "out of order from {from}");
            *expected += 1;
        }
        assert!(next.values().all(|&n| n == PER_SENDER), "{next:?}");
        let stats = network.stats();
        assert_eq!((stats.routed, stats.dropped), (2 * PER_SENDER, 0));
        assert_eq!(overlapped.load(Relaxed), 0, "two deliveries at once");
    }

    /// A query flooded down a chain of 64 rendezvous peers and its hit
    /// relayed back: each thread delivers at most [`MAX_INLINE_DEPTH`]
    /// hops deep and queues the next for an inbox thread, so the flood
    /// completes on bounded stacks.
    #[test]
    fn a_flood_down_a_long_chain_falls_back_to_the_queue_at_the_depth_bound() {
        const CHAIN: u64 = 64;
        let deep = |config: PeerConfig| PeerConfig {
            query_ttl: CHAIN as u8,
            ..config
        };
        let network = ThreadNetwork::new();
        let chain: Vec<ThreadPeer> = (0..CHAIN)
            .map(|i| network.spawn(deep(PeerConfig::rendezvous(PeerId(100 + i)))))
            .collect();
        for pair in chain.windows(2) {
            pair[0].add_neighbour(pair[1].id(), true);
            pair[1].add_neighbour(pair[0].id(), true);
        }
        let seeker = network.spawn(deep(PeerConfig::ordinary(PeerId(1))));
        wire_up(&chain[CHAIN as usize - 1], &[&seeker]);
        // Only the far end holds the advert: the query travels the whole
        // chain and the hit the whole way back.
        chain[0].register(advert(&chain[0], "Deep"));

        seeker.query(7, P2psQuery::by_name("Deep"));
        match seeker.recv_event(WAIT).expect("the hit came back") {
            ThreadPeerEvent::QueryResult { token, adverts } => {
                assert_eq!(token, 7);
                assert_eq!(adverts[0].peer, chain[0].id());
            }
            other => panic!("unexpected {other:?}"),
        }
        let stats = network.stats();
        assert_eq!(stats.routed, 2 * CHAIN, "{stats:?}");
        assert!(stats.inline > 0, "{stats:?}");
        // Down the chain, a thread delivers MAX_INLINE_DEPTH hops and
        // queues the next; the hit's way back can only queue more.
        let depth = MAX_INLINE_DEPTH as u64;
        let queued = stats.routed - stats.inline;
        assert!(queued >= (CHAIN - depth) / depth, "{stats:?}");
        assert_eq!(DELIVERY_DEPTH.get(), 0, "the depth unwound");
    }
}
