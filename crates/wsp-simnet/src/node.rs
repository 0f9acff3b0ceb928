//! The vocabulary shared by the engine and its boxed-node front-end:
//! node ids, the message trait and the per-node behaviour trait.
//!
//! `Context`, `NodeEvent` and `TimerId` are the names the boxed-node
//! world has always used for what the engine calls [`PeerCtx`],
//! [`PeerEvent`] and [`EventKey`]; they are aliases, not second types.
//!
//! [`PeerCtx`]: crate::PeerCtx
//! [`PeerEvent`]: crate::PeerEvent
//! [`EventKey`]: crate::EventKey

use crate::digest::fnv1a;

pub use crate::peers::{PeerCtx as Context, PeerEvent as NodeEvent};
pub use crate::wheel::EventKey as TimerId;

/// Identifies a node within one simulation (dense, ascending from 0).
pub type NodeId = u32;

/// A message the simulator can carry.
///
/// `Clone` is all the engine needs (broadcast clones per recipient); a
/// word-sized `Copy` message keeps wheel entries allocation-free, which
/// is what population-scale models use.
pub trait Payload: Clone {
    /// Approximate wire size in bytes, as shown in a [`crate::Trace`].
    fn wire_size(&self) -> usize;
    /// A stable 64-bit fingerprint of the content — a pure function of
    /// it, folded into the run digest on every delivery.
    fn digest(&self) -> u64;
}

impl Payload for String {
    fn wire_size(&self) -> usize {
        self.len()
    }
    fn digest(&self) -> u64 {
        fnv1a(self.as_bytes())
    }
}

impl Payload for Vec<u8> {
    fn wire_size(&self) -> usize {
        self.len()
    }
    fn digest(&self) -> u64 {
        fnv1a(self)
    }
}

/// Word payloads, for tests and machine-driven scenarios that never
/// serialise.
impl Payload for u64 {
    fn wire_size(&self) -> usize {
        8
    }
    fn digest(&self) -> u64 {
        *self
    }
}

impl<T: Payload> Payload for std::rc::Rc<T> {
    fn wire_size(&self) -> usize {
        (**self).wire_size()
    }
    fn digest(&self) -> u64 {
        (**self).digest()
    }
}

impl<T: Payload> Payload for std::sync::Arc<T> {
    fn wire_size(&self) -> usize {
        (**self).wire_size()
    }
    fn digest(&self) -> u64 {
        (**self).digest()
    }
}

/// A node behaviour: a sans-IO state machine driven by the simulator,
/// one boxed value per node of a [`crate::SimNet`].
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
