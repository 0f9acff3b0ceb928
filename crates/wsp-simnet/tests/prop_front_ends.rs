//! `SimNet` is the engine plus boxes, and nothing else.
//!
//! One generated script — sends (to live nodes, to a node that is down
//! and to ids past the end), broadcasts, timers set and cancelled,
//! outages, a pair-link blackout window and a default-link change — is
//! driven through a `SimNet<u64>` of boxed closures and through a
//! hand-written [`PeerModel`] that keeps the same per-node state in a
//! `Vec`. Both run the same `react` function against the engine's one
//! context type, so any difference in digest, counters, event count or
//! final clock is something the adapter added.

use proptest::prelude::*;
use wsp_simnet::{
    Context, Dur, LinkSpec, NodeEvent, NodeId, PeerModel, PeerSim, SimNet, Time, TimerId,
};

const NODES: u32 = 4;

/// `(kind, node, arg, at_ms)`; see `react` and `drive` for the kinds.
type Op = (u8, u32, u32, u64);

#[derive(Default)]
struct NodeState {
    pending: Option<TimerId>,
}

/// What a node does with an event. A timer's tag names the script op
/// that set it off.
fn react(state: &mut NodeState, script: &[Op], ctx: &mut Context<'_, u64>, event: NodeEvent<u64>) {
    match event {
        NodeEvent::Start => ctx.count("script.started"),
        NodeEvent::Message { from, msg } if msg % 2 == 0 => ctx.send(from, msg + 1),
        NodeEvent::Timer { tag } if (tag as usize) < script.len() => {
            let (kind, _, arg, _) = script[tag as usize];
            match kind {
                // Ids NODES and NODES + 1 do not exist.
                0 => ctx.send(arg % (NODES + 2), tag * 2),
                1 => ctx.broadcast(0..ctx.node_count(), tag * 2 + 1),
                2 => state.pending = Some(ctx.set_timer(Dur::millis(arg as u64), u64::MAX)),
                3 => {
                    if let Some(key) = state.pending.take() {
                        ctx.cancel_timer(key);
                    }
                }
                _ => {}
            }
        }
        NodeEvent::Timer { .. } => ctx.count("script.pending_fired"),
        NodeEvent::WentUp => ctx.send((ctx.id() + 1) % NODES, 0),
        _ => {}
    }
}

/// The hand-written model: `react` over a `Vec` of states.
struct Flat {
    states: Vec<NodeState>,
    script: Vec<Op>,
}

impl PeerModel for Flat {
    type Msg = u64;
    fn on_event(&mut self, ctx: &mut Context<'_, u64>, peer: NodeId, event: NodeEvent<u64>) {
        react(&mut self.states[peer as usize], &self.script, ctx, event);
    }
}

type Outcome = (u64, u64, Vec<(&'static str, u64)>, u64, Time);

/// Everything done to a simulation from outside, written once against
/// the engine so both front-ends receive exactly the same calls.
fn drive<P: PeerModel<Msg = u64>>(sim: &mut PeerSim<P>, script: &[Op]) -> Outcome {
    sim.set_default_link(LinkSpec::wan().with_loss(0.2));
    for (i, &(kind, node, arg, at_ms)) in script.iter().enumerate() {
        let at = Time::millis(at_ms);
        let window = Dur::millis(arg as u64 + 1);
        let other = (node + 1 + arg % (NODES - 1)) % NODES;
        match kind {
            0..=3 => {
                sim.schedule_timer_at(at, node, i as u64);
            }
            4 => {
                sim.schedule_down(node, at);
                sim.schedule_up(node, at + window);
            }
            5 => {
                let calm = sim.link(node, other);
                sim.schedule_link(at, node, other, calm.with_loss(1.0));
                sim.schedule_link(at + window, node, other, calm);
            }
            _ => sim.schedule_default_link(at, LinkSpec::lan().with_loss(arg as f64 / 10.0)),
        }
    }
    sim.run_until(Time::millis(20));
    sim.transmit_for_test(0, NODES + 7, 99);
    sim.run_to_quiescence();
    (
        sim.digest().value(),
        sim.digest().folded(),
        sim.metrics().counters().collect(),
        sim.events_dispatched(),
        sim.now(),
    )
}

fn through_simnet(script: &[Op]) -> Outcome {
    let mut net: SimNet<u64> = SimNet::new(2005);
    for _ in 0..NODES {
        let (mut state, script) = (NodeState::default(), script.to_vec());
        net.add_node(Box::new(
            move |ctx: &mut Context<'_, u64>, event: NodeEvent<u64>| {
                react(&mut state, &script, ctx, event)
            },
        ));
    }
    drive(&mut net, script)
}

fn through_peersim(script: &[Op]) -> Outcome {
    let mut sim = PeerSim::new(
        2005,
        Flat {
            states: (0..NODES).map(|_| NodeState::default()).collect(),
            script: script.to_vec(),
        },
    );
    // What `SimNet::add_node` does, minus the box.
    for _ in 0..NODES {
        let id = sim.add_peers(1, 0);
        sim.inject(id, NodeEvent::Start);
    }
    drive(&mut sim, script)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn boxed_and_flat_models_run_the_same_simulation(
        script in proptest::collection::vec((0u8..7, 0u32..NODES, 0u32..12, 0u64..40), 1..60),
    ) {
        let boxed = through_simnet(&script);
        let flat = through_peersim(&script);
        prop_assert!(boxed.1 > 0, "the digest must cover SimNet runs too");
        prop_assert_eq!(boxed, flat);
    }
}
