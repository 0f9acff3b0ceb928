//! Churn models: generating node up/down schedules.
//!
//! The paper's core scalability argument (Section II) is about networks
//! whose nodes are "unreliable" and exhibit "highly transient
//! connectivity". This module turns that prose into schedules: each node
//! alternates exponentially-distributed up and down periods, the standard
//! model for P2P session churn.

use crate::node::NodeId;
use crate::peers::{PeerModel, PeerSim};
use crate::time::{Dur, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Borrow;

/// An alternating up/down lifetime model.
#[derive(Debug, Clone, Copy)]
pub struct ChurnModel {
    /// Mean session (up) length.
    pub mean_up: Dur,
    /// Mean absence (down) length.
    pub mean_down: Dur,
}

impl ChurnModel {
    pub fn new(mean_up: Dur, mean_down: Dur) -> Self {
        ChurnModel { mean_up, mean_down }
    }

    /// The long-run fraction of time a node is up. The degenerate model
    /// with both means zero generates no transitions (see
    /// [`ChurnModel::schedule_for`]), so its availability is 1.
    pub fn availability(&self) -> f64 {
        let up = self.mean_up.as_micros() as f64;
        let down = self.mean_down.as_micros() as f64;
        if up + down == 0.0 {
            return 1.0;
        }
        up / (up + down)
    }

    /// Sample an exponential duration with the given mean.
    fn sample_exp(mean: Dur, rng: &mut StdRng) -> Dur {
        let u: f64 = rng.random::<f64>().max(1e-12);
        Dur((mean.as_micros() as f64 * -u.ln()).round() as u64)
    }

    /// Generate this node's `(time, up?)` transitions over `[0, horizon]`.
    /// Nodes start up; the first transition is a failure.
    ///
    /// Edge cases are well defined: `mean_down == 0` means the node is
    /// never meaningfully absent, so no transitions are generated (and
    /// likewise for the both-means-zero model); a zero horizon yields an
    /// empty schedule; sampled spans that round to zero are bumped to
    /// 1 µs so transition times are strictly increasing and the loop
    /// always makes progress.
    pub fn schedule_for(&self, horizon: Time, rng: &mut StdRng) -> Vec<(Time, bool)> {
        if self.mean_down.as_micros() == 0 {
            return Vec::new();
        }
        let mut transitions = Vec::new();
        let mut t = Time::ZERO;
        let mut up = true;
        loop {
            let span = if up {
                Self::sample_exp(self.mean_up, rng)
            } else {
                Self::sample_exp(self.mean_down, rng)
            };
            t += span.max(Dur::micros(1));
            if t > horizon {
                break;
            }
            up = !up;
            transitions.push((t, up));
        }
        transitions
    }

    /// Apply churn to `nodes` of `sim` over `[0, horizon]`, using a
    /// dedicated RNG seeded with `seed` so churn is reproducible
    /// independently of message traffic. `nodes` is anything that yields
    /// ids — a slice of boxed nodes, a `first..first + count` range of a
    /// population. The transitions schedule through the engine's wheel,
    /// so churn interleaves deterministically with traffic and timers.
    pub fn apply<P: PeerModel>(
        &self,
        sim: &mut PeerSim<P>,
        nodes: impl IntoIterator<Item = impl Borrow<NodeId>>,
        horizon: Time,
        seed: u64,
    ) {
        self.schedule_onto(sim, nodes, horizon, &mut StdRng::seed_from_u64(seed));
    }

    /// [`ChurnModel::apply`] drawing from a caller-owned RNG (a
    /// [`crate::FaultPlan`] threads its own through every op).
    pub(crate) fn schedule_onto<P: PeerModel>(
        &self,
        sim: &mut PeerSim<P>,
        nodes: impl IntoIterator<Item = impl Borrow<NodeId>>,
        horizon: Time,
        rng: &mut StdRng,
    ) {
        for node in nodes {
            for (at, up) in self.schedule_for(horizon, rng) {
                if up {
                    sim.schedule_up(*node.borrow(), at);
                } else {
                    sim.schedule_down(*node.borrow(), at);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::SimNet;
    use crate::node::{Context, NodeEvent};

    #[test]
    fn availability_formula() {
        let m = ChurnModel::new(Dur::secs(9), Dur::secs(1));
        assert!((m.availability() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn schedule_alternates_and_stays_in_horizon() {
        let m = ChurnModel::new(Dur::secs(5), Dur::secs(5));
        let mut rng = StdRng::seed_from_u64(11);
        let horizon = Time::secs(100);
        let schedule = m.schedule_for(horizon, &mut rng);
        assert!(!schedule.is_empty());
        let mut expect_up = false; // first transition is down
        for (at, up) in &schedule {
            assert!(*at <= horizon);
            assert_eq!(*up, expect_up);
            expect_up = !expect_up;
        }
    }

    #[test]
    fn schedules_are_seed_deterministic() {
        let m = ChurnModel::new(Dur::secs(2), Dur::secs(1));
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        assert_eq!(
            m.schedule_for(Time::secs(50), &mut a),
            m.schedule_for(Time::secs(50), &mut b)
        );
    }

    #[test]
    fn empirical_availability_close_to_model() {
        // Average fraction of up time over many nodes approaches the
        // analytic availability.
        let m = ChurnModel::new(Dur::secs(6), Dur::secs(4));
        let mut rng = StdRng::seed_from_u64(17);
        let horizon = Time::secs(10_000);
        let mut up_total = 0u64;
        for _ in 0..32 {
            let schedule = m.schedule_for(horizon, &mut rng);
            let mut last = Time::ZERO;
            let mut up = true;
            for (at, next_up) in schedule {
                if up {
                    up_total += (at - last).as_micros();
                }
                last = at;
                up = next_up;
            }
            if up {
                up_total += (horizon - last).as_micros();
            }
        }
        let frac = up_total as f64 / (32.0 * horizon.as_micros() as f64);
        assert!((frac - 0.6).abs() < 0.05, "observed availability {frac}");
    }

    #[test]
    fn zero_horizon_yields_empty_schedule() {
        let m = ChurnModel::new(Dur::secs(5), Dur::secs(5));
        let mut rng = StdRng::seed_from_u64(1);
        assert!(m.schedule_for(Time::ZERO, &mut rng).is_empty());
    }

    #[test]
    fn zero_mean_down_never_transitions() {
        // A node that is never down generates no schedule at all —
        // previously this case (and both-means-zero) spun forever.
        let m = ChurnModel::new(Dur::secs(5), Dur::ZERO);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(m.schedule_for(Time::secs(100), &mut rng).is_empty());
        let degenerate = ChurnModel::new(Dur::ZERO, Dur::ZERO);
        assert!(degenerate
            .schedule_for(Time::secs(100), &mut rng)
            .is_empty());
        assert!((degenerate.availability() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_mean_up_terminates_with_increasing_times() {
        // mean_up == 0 flaps hard but must terminate, stay bounded, and
        // keep transition times strictly increasing (no same-instant
        // down/up pairs).
        let m = ChurnModel::new(Dur::ZERO, Dur::millis(1));
        let mut rng = StdRng::seed_from_u64(5);
        let horizon = Time::millis(50);
        let schedule = m.schedule_for(horizon, &mut rng);
        assert!(!schedule.is_empty());
        for pair in schedule.windows(2) {
            assert!(pair[0].0 < pair[1].0, "transitions must be ordered");
        }
        assert!(schedule.last().unwrap().0 <= horizon);
    }

    #[test]
    fn apply_peers_drives_transitions_through_the_wheel() {
        use crate::peers::{PeerCtx, PeerEvent, PeerModel, PeerSim};

        struct Idle;
        impl PeerModel for Idle {
            type Msg = u64;
            fn on_event(
                &mut self,
                _ctx: &mut PeerCtx<'_, u64>,
                _peer: NodeId,
                _event: PeerEvent<u64>,
            ) {
            }
        }

        fn run(seed: u64) -> (u64, u64, u64) {
            let mut sim = PeerSim::new(1, Idle);
            let first = sim.add_peers(64, 0);
            let m = ChurnModel::new(Dur::millis(10), Dur::millis(10));
            m.apply(&mut sim, first..first + 64, Time::secs(1), seed);
            sim.run_to_quiescence();
            (
                sim.metrics().counter("simnet.node_down"),
                sim.metrics().counter("simnet.node_up"),
                sim.digest().value(),
            )
        }
        let (down, up, digest) = run(99);
        assert!(down > 0 && up > 0);
        // Same churn seed → bit-identical run; different seed diverges.
        assert_eq!(run(99), (down, up, digest));
        assert_ne!(run(100).2, digest);
    }

    #[test]
    fn apply_drives_node_transitions() {
        let mut net: SimNet<String> = SimNet::new(1);
        let node = net.add_node(Box::new(
            |_ctx: &mut Context<'_, String>, _e: NodeEvent<String>| {},
        ));
        let m = ChurnModel::new(Dur::millis(10), Dur::millis(10));
        m.apply(&mut net, [node], Time::secs(1), 99);
        net.run_to_quiescence();
        assert!(net.metrics().counter("simnet.node_down") > 0);
        assert!(net.metrics().counter("simnet.node_up") > 0);
    }
}
