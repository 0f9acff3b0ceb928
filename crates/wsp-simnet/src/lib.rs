//! # wsp-simnet
//!
//! A deterministic discrete-event network simulator — this repo's
//! substitute for the NS2/AgentJ simulations the WSPeer paper planned
//! for evaluating "large networks of peers publishing, discovering and
//! invoking Web services" (Section IV.B, point 3; see `DESIGN.md` for
//! the substitution note).
//!
//! Design points:
//!
//! * **Deterministic.** A run is a pure function of `(seed, topology,
//!   behaviours)`: all jitter, loss and behaviour randomness flows
//!   through one seeded `StdRng`, and simultaneous events fire in
//!   schedule order.
//! * **Sans-IO friendly.** Behaviours implement [`Node`] — a state
//!   machine fed `(context, event)` — the same machines the threaded
//!   drivers run against real channels.
//! * **Experiment-oriented.** Named counters/samples ([`Metrics`]),
//!   link profiles ([`LinkSpec::lan`]/[`LinkSpec::wan`]), churn
//!   ([`ChurnModel`]) and overlay generators ([`Topology`]) cover the
//!   E1–E8 experiment matrix.
//! * **One engine, two front-ends.** [`PeerSim`] is the simulator:
//!   the one event loop over the one [`EventWheel`], the link table,
//!   the seeded RNG, churn, [`FaultPlan`]s, the [`TraceDigest`] run
//!   fingerprint and the optional [`Trace`]. It drives one
//!   [`PeerModel`] that owns every peer's state — 10^5–10^6 lightweight
//!   peers stepped by pure [`Machine`] transitions when the model is
//!   struct-of-arrays. [`SimNet`] is that engine with the model fixed
//!   to "a `Box<dyn Node>` per peer" (hundreds of nodes, rich [`Node`]
//!   trait) plus `add_node`; it has no loop of its own. See `DESIGN.md`
//!   §13 for the architecture and the determinism contract.
//!
//! ```
//! use wsp_simnet::{Context, NodeEvent, SimNet};
//!
//! let mut net: SimNet<String> = SimNet::new(42);
//! let echo = net.add_node(Box::new(|ctx: &mut Context<'_, String>, ev: NodeEvent<String>| {
//!     if let NodeEvent::Message { from, msg } = ev {
//!         ctx.send(from, format!("re:{msg}"));
//!     }
//! }));
//! let probe = net.add_node(Box::new(|_ctx: &mut Context<'_, String>, _ev: NodeEvent<String>| {}));
//! net.transmit_for_test(probe, echo, "hello".into());
//! net.run_to_quiescence();
//! assert_eq!(net.metrics().counter("simnet.delivered"), 2);
//! ```

pub mod churn;
pub mod digest;
pub mod fault;
pub mod link;
pub mod machine;
pub mod metrics;
pub mod net;
pub mod node;
pub mod peers;
pub mod time;
pub mod topology;
pub mod trace;
pub mod wheel;

pub use churn::ChurnModel;
pub use digest::{fnv1a, fnv1a_fold, TraceDigest};
pub use fault::FaultPlan;
pub use link::LinkSpec;
pub use machine::{step_mut, Machine};
pub use metrics::{Metrics, Summary};
pub use net::SimNet;
pub use node::{Context, Node, NodeEvent, NodeId, Payload, Payload as PeerMsg, TimerId};
pub use peers::{PeerCtx, PeerEvent, PeerModel, PeerSim};
pub use time::{Dur, Time};
pub use topology::Topology;
pub use trace::{Trace, TraceEvent};
pub use wheel::{EventKey, EventWheel};
