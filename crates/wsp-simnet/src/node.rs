//! Node behaviours and the context handed to them during dispatch.

use crate::net::SimNet;
use crate::time::{Dur, Time};
use rand::rngs::StdRng;

/// Identifies a node within one [`SimNet`].
pub type NodeId = u32;

/// Identifies a pending timer; returned by [`Context::set_timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(pub(crate) u64);

/// Messages must report an approximate wire size so links can model
/// serialisation delay, and must be cheaply cloneable (broadcast).
pub trait Payload: Clone {
    fn wire_size(&self) -> usize;
}

impl Payload for String {
    fn wire_size(&self) -> usize {
        self.len()
    }
}

impl Payload for Vec<u8> {
    fn wire_size(&self) -> usize {
        self.len()
    }
}

/// Word payloads, for tests and machine-driven scenarios that never
/// serialise (mirrors `PeerMsg for u64` in the population front-end).
impl Payload for u64 {
    fn wire_size(&self) -> usize {
        8
    }
}

impl<T: Payload> Payload for std::rc::Rc<T> {
    fn wire_size(&self) -> usize {
        (**self).wire_size()
    }
}

impl<T: Payload> Payload for std::sync::Arc<T> {
    fn wire_size(&self) -> usize {
        (**self).wire_size()
    }
}

/// Everything a node can observe.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeEvent<M> {
    /// Fired once when the node joins the network.
    Start,
    /// A message arrived.
    Message { from: NodeId, msg: M },
    /// A timer set with [`Context::set_timer`] fired.
    Timer { tag: u64 },
    /// The node came back up after churn.
    WentUp,
    /// The node went down (it will receive nothing until `WentUp`).
    WentDown,
}

/// A node behaviour: a sans-IO state machine driven by the simulator.
///
/// Behaviours are single-threaded; shared observation state in tests is
/// idiomatic via `Rc<RefCell<_>>` captured at construction.
pub trait Node<M: Payload> {
    fn handle(&mut self, ctx: &mut Context<'_, M>, event: NodeEvent<M>);
}

/// Blanket impl so closures can be used as simple behaviours.
impl<M: Payload, F> Node<M> for F
where
    F: FnMut(&mut Context<'_, M>, NodeEvent<M>),
{
    fn handle(&mut self, ctx: &mut Context<'_, M>, event: NodeEvent<M>) {
        self(ctx, event)
    }
}

/// The API a behaviour uses to act on the world during one dispatch.
pub struct Context<'a, M: Payload> {
    pub(crate) net: &'a mut SimNet<M>,
    pub(crate) node: NodeId,
}

impl<M: Payload> Context<'_, M> {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.net.now()
    }

    /// Send `msg` to `to` over the configured link. Loss and latency are
    /// sampled per the link spec; delivery is asynchronous.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.net.transmit(self.node, to, msg);
    }

    /// Send to several recipients (clones the message per recipient).
    pub fn broadcast<I: IntoIterator<Item = NodeId>>(&mut self, to: I, msg: M) {
        for peer in to {
            self.net.transmit(self.node, peer, msg.clone());
        }
    }

    /// Arrange a [`NodeEvent::Timer`] with `tag` after `delay`.
    pub fn set_timer(&mut self, delay: Dur, tag: u64) -> TimerId {
        self.net.set_timer(self.node, delay, tag)
    }

    /// Cancel a timer if it has not fired yet.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.net.cancel_timer(id);
    }

    /// Deterministic RNG shared by the whole simulation.
    pub fn rng(&mut self) -> &mut StdRng {
        self.net.rng()
    }

    /// Number of nodes ever added (ids are `0..node_count`).
    pub fn node_count(&self) -> u32 {
        self.net.node_count()
    }

    /// Whether a node is currently up.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.net.is_up(node)
    }

    /// Increment a named experiment counter.
    pub fn count(&mut self, key: &'static str) {
        self.net.metrics_mut().incr(key, 1);
    }

    /// Record a named sample (e.g. an observed latency in microseconds).
    pub fn sample(&mut self, key: &'static str, value: u64) {
        self.net.metrics_mut().record(key, value);
    }
}
