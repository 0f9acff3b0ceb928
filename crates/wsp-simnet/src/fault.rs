//! Fault plans: a declarative, seeded façade over the simulator's fault
//! machinery.
//!
//! The paper argues (Section II) that P2P substrates are "unreliable"
//! with "highly transient connectivity"; the resilience layer in
//! `wsp-core` exists to survive exactly that. A [`FaultPlan`] describes
//! *which* faults a scenario contains — uniform loss, seeded loss
//! bursts, per-link blackouts, slow-link windows, node outages and
//! churn — and compiles them onto the engine ([`PeerSim`], and so any
//! [`crate::SimNet`]) as scheduled link and node transitions. Because
//! every random choice flows through one `StdRng` seeded from the plan,
//! applying the same plan to the same topology reproduces the same
//! fault timeline bit for bit, which is what makes the fault-injection
//! test matrix deterministic.

use crate::churn::ChurnModel;
use crate::node::NodeId;
use crate::peers::{PeerModel, PeerSim};
use crate::time::{Dur, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One declarative fault in a plan.
#[derive(Debug, Clone)]
enum FaultOp {
    /// Constant loss rate on the default link from time zero.
    DefaultLoss(f64),
    /// Both directions between `a` and `b` drop everything in
    /// `[from, until)`.
    Blackout {
        a: NodeId,
        b: NodeId,
        from: Time,
        until: Time,
    },
    /// Both directions between `a` and `b` gain `extra` latency in
    /// `[from, until)`.
    SlowLink {
        a: NodeId,
        b: NodeId,
        from: Time,
        until: Time,
        extra: Dur,
    },
    /// `count` seeded windows of elevated default-link loss, placed
    /// uniformly over `[0, horizon)` with exponential lengths.
    LossBursts {
        count: usize,
        mean_len: Dur,
        loss: f64,
        horizon: Time,
    },
    /// One node is down in `[from, until)`.
    Outage {
        node: NodeId,
        from: Time,
        until: Time,
    },
    /// Exponential up/down churn on a set of nodes.
    Churn {
        nodes: Vec<NodeId>,
        model: ChurnModel,
        horizon: Time,
    },
}

/// A seeded, declarative fault schedule for one simulation run.
///
/// Build with the fluent methods, then [`FaultPlan::apply`] it to a
/// simulation *before* running (link/outage windows are scheduled as
/// simulator events). The plan is generic over the model, so the same
/// plan drives a `SimNet` of boxed nodes and a population `PeerSim`;
/// "default link" is the class-0 cell either way.
///
/// Reproducibility contract: `(plan, topology, behaviours, net seed)`
/// fully determine the run. The plan's own seed drives burst placement
/// and churn schedules through a dedicated `StdRng`, independent of the
/// net's traffic RNG.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    ops: Vec<FaultOp>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ops: Vec::new(),
        }
    }

    /// The seed the plan's own randomness (bursts, churn) derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Uniform loss on the default link for the whole run.
    pub fn default_loss(mut self, loss: f64) -> Self {
        self.ops.push(FaultOp::DefaultLoss(loss));
        self
    }

    /// Total loss between `a` and `b` (both directions) in `[from, until)`.
    pub fn blackout(mut self, a: NodeId, b: NodeId, from: Time, until: Time) -> Self {
        self.ops.push(FaultOp::Blackout { a, b, from, until });
        self
    }

    /// Add `extra` latency between `a` and `b` (both directions) in
    /// `[from, until)`.
    pub fn slow_link(mut self, a: NodeId, b: NodeId, from: Time, until: Time, extra: Dur) -> Self {
        self.ops.push(FaultOp::SlowLink {
            a,
            b,
            from,
            until,
            extra,
        });
        self
    }

    /// `count` seeded bursts of default-link loss `loss`, with
    /// exponentially distributed lengths of mean `mean_len`, placed
    /// uniformly over `[0, horizon)`.
    pub fn loss_bursts(mut self, count: usize, mean_len: Dur, loss: f64, horizon: Time) -> Self {
        self.ops.push(FaultOp::LossBursts {
            count,
            mean_len,
            loss,
            horizon,
        });
        self
    }

    /// Take `node` down for `[from, until)`.
    pub fn outage(mut self, node: NodeId, from: Time, until: Time) -> Self {
        self.ops.push(FaultOp::Outage { node, from, until });
        self
    }

    /// Exponential churn on `nodes` over `[0, horizon]`.
    pub fn churn(mut self, nodes: &[NodeId], model: ChurnModel, horizon: Time) -> Self {
        self.ops.push(FaultOp::Churn {
            nodes: nodes.to_vec(),
            model,
            horizon,
        });
        self
    }

    /// Compile the plan onto `net` as scheduled events. Call after the
    /// topology's links are configured (restore specs snapshot the link
    /// in effect now) and before the run starts.
    pub fn apply<P: PeerModel>(&self, net: &mut PeerSim<P>) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        for op in &self.ops {
            match op {
                FaultOp::DefaultLoss(loss) => {
                    let spec = net.default_link().with_loss(*loss);
                    net.set_default_link(spec);
                }
                FaultOp::Blackout { a, b, from, until } => {
                    let restore_ab = net.link(*a, *b);
                    let restore_ba = net.link(*b, *a);
                    net.schedule_link(*from, *a, *b, restore_ab.with_loss(1.0));
                    net.schedule_link(*from, *b, *a, restore_ba.with_loss(1.0));
                    net.schedule_link(*until, *a, *b, restore_ab);
                    net.schedule_link(*until, *b, *a, restore_ba);
                }
                FaultOp::SlowLink {
                    a,
                    b,
                    from,
                    until,
                    extra,
                } => {
                    let restore_ab = net.link(*a, *b);
                    let restore_ba = net.link(*b, *a);
                    let slow_ab = restore_ab.with_latency(restore_ab.latency + *extra);
                    let slow_ba = restore_ba.with_latency(restore_ba.latency + *extra);
                    net.schedule_link(*from, *a, *b, slow_ab);
                    net.schedule_link(*from, *b, *a, slow_ba);
                    net.schedule_link(*until, *a, *b, restore_ab);
                    net.schedule_link(*until, *b, *a, restore_ba);
                }
                FaultOp::LossBursts {
                    count,
                    mean_len,
                    loss,
                    horizon,
                } => {
                    let calm = net.default_link();
                    let stormy = calm.with_loss(*loss);
                    let span = horizon.as_micros().max(1);
                    for _ in 0..*count {
                        let start = Time(rng.random_range(0..span));
                        let len_us = (mean_len.as_micros().max(1) as f64
                            * -rng.random::<f64>().max(1e-12).ln())
                        .round() as u64;
                        let end = start + Dur(len_us.max(1));
                        net.schedule_default_link(start, stormy);
                        net.schedule_default_link(end, calm);
                    }
                }
                FaultOp::Outage { node, from, until } => {
                    net.schedule_down(*node, *from);
                    net.schedule_up(*node, *until);
                }
                FaultOp::Churn {
                    nodes,
                    model,
                    horizon,
                } => model.schedule_onto(net, nodes, *horizon, &mut rng),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::net::SimNet;
    use crate::node::{Context, NodeEvent};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn flat_link(latency: Dur) -> LinkSpec {
        LinkSpec {
            latency,
            jitter: Dur::ZERO,
            loss: 0.0,
        }
    }

    type Log = Rc<RefCell<Vec<(Time, String)>>>;

    fn sink() -> (Box<dyn crate::node::Node<String>>, Log) {
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        (
            Box::new(
                move |ctx: &mut Context<'_, String>, ev: NodeEvent<String>| {
                    if let NodeEvent::Message { msg, .. } = ev {
                        l.borrow_mut().push((ctx.now(), msg));
                    }
                },
            ),
            log,
        )
    }

    #[test]
    fn blackout_window_drops_then_restores() {
        let mut net: SimNet<String> = SimNet::new(1);
        net.set_default_link(flat_link(Dur::millis(1)));
        let (a, _la) = sink();
        let (b, lb) = sink();
        let a_id = net.add_node(a);
        let b_id = net.add_node(b);
        FaultPlan::new(7)
            .blackout(a_id, b_id, Time::millis(10), Time::millis(20))
            .apply(&mut net);
        net.run_until(Time::millis(15));
        net.transmit_for_test(a_id, b_id, "during".into());
        net.transmit_for_test(b_id, a_id, "reverse".into());
        net.run_until(Time::millis(25));
        net.transmit_for_test(a_id, b_id, "after".into());
        net.run_to_quiescence();
        let got: Vec<String> = lb.borrow().iter().map(|(_, m)| m.clone()).collect();
        assert_eq!(got, vec!["after".to_string()]);
        assert_eq!(net.metrics().counter("simnet.dropped_loss"), 2);
    }

    #[test]
    fn slow_link_window_adds_latency_then_restores() {
        let mut net: SimNet<String> = SimNet::new(1);
        net.set_default_link(flat_link(Dur::millis(1)));
        let (a, _la) = sink();
        let (b, lb) = sink();
        let a_id = net.add_node(a);
        let b_id = net.add_node(b);
        FaultPlan::new(7)
            .slow_link(
                a_id,
                b_id,
                Time::millis(10),
                Time::millis(20),
                Dur::millis(100),
            )
            .apply(&mut net);
        net.run_until(Time::millis(12));
        net.transmit_for_test(a_id, b_id, "slow".into());
        net.run_until(Time::millis(200));
        net.transmit_for_test(a_id, b_id, "fast".into());
        net.run_to_quiescence();
        let log = lb.borrow();
        assert_eq!(log[0], (Time::millis(113), "slow".to_string()));
        assert_eq!(log[1], (Time::millis(201), "fast".to_string()));
    }

    #[test]
    fn outage_takes_node_down_for_window() {
        let mut net: SimNet<String> = SimNet::new(1);
        let (a, _la) = sink();
        let a_id = net.add_node(a);
        FaultPlan::new(7)
            .outage(a_id, Time::millis(5), Time::millis(15))
            .apply(&mut net);
        net.run_until(Time::millis(10));
        assert!(!net.is_up(a_id));
        net.run_until(Time::millis(20));
        assert!(net.is_up(a_id));
    }

    #[test]
    fn loss_bursts_are_seed_reproducible() {
        fn run(plan_seed: u64) -> Vec<(Time, String)> {
            let mut net: SimNet<String> = SimNet::new(3);
            net.set_default_link(flat_link(Dur::millis(1)));
            let (a, _la) = sink();
            let (b, lb) = sink();
            let a_id = net.add_node(a);
            let b_id = net.add_node(b);
            FaultPlan::new(plan_seed)
                .loss_bursts(5, Dur::secs(2), 1.0, Time::secs(60))
                .apply(&mut net);
            // Probe once a virtual second; bursts decide which survive.
            for i in 0..60 {
                net.run_until(Time::secs(i));
                net.transmit_for_test(a_id, b_id, format!("p{i}"));
            }
            net.run_to_quiescence();
            let log = lb.borrow().clone();
            log
        }
        let first = run(11);
        let second = run(11);
        assert_eq!(first, second, "same plan seed must reproduce delivery");
        assert!(
            first.len() < 60,
            "bursts with total loss should drop at least one probe"
        );
    }

    #[test]
    fn churn_via_plan_matches_model_application() {
        let mut net: SimNet<String> = SimNet::new(1);
        let (a, _la) = sink();
        let a_id = net.add_node(a);
        FaultPlan::new(99)
            .churn(
                &[a_id],
                ChurnModel::new(Dur::millis(10), Dur::millis(10)),
                Time::secs(1),
            )
            .apply(&mut net);
        net.run_to_quiescence();
        assert!(net.metrics().counter("simnet.node_down") > 0);
        assert!(net.metrics().counter("simnet.node_up") > 0);
    }
}
