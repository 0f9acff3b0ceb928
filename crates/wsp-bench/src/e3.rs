//! E3 — robustness under churn (claim C5): a single registry is a
//! single point of failure; replicated rendezvous caches degrade
//! gracefully.
//!
//! Both worlds get the same per-infrastructure-node availability. The
//! centralised world has one infrastructure node (the registry); the
//! P2P world has a mesh of rendezvous peers holding soft-state copies
//! of the advert. We measure locate success rates.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use wsp_http::{HttpSimServer, Request, Response, Router, SimHttpClient};
use wsp_p2ps::{build_overlay, P2psQuery, PeerCommand, PeerEvent, ServiceAdvertisement};
use wsp_simnet::{
    ChurnModel, Context, Dur, LinkSpec, Node, NodeEvent, NodeId, SimNet, Time, Topology,
};

/// One row: availability → success rates in both worlds.
#[derive(Debug, Clone)]
pub struct E3Row {
    pub availability: f64,
    pub central_success: f64,
    pub p2p_success: f64,
}

/// Churn parameters achieving a target availability with mean session
/// `mean_up`.
fn churn_for(availability: f64, mean_up: Dur) -> ChurnModel {
    // availability = up/(up+down) => down = up*(1-a)/a
    let down_us = (mean_up.as_micros() as f64 * (1.0 - availability) / availability).round() as u64;
    ChurnModel::new(mean_up, Dur::micros(down_us.max(1)))
}

/// A client that sends one request at `at` and records whether a
/// success came back within `timeout`.
struct OneShot {
    registry: NodeId,
    http: SimHttpClient,
    at: Dur,
    outcome: Rc<RefCell<Vec<bool>>>,
    fired: bool,
    got: bool,
}

impl Node<String> for OneShot {
    fn handle(&mut self, ctx: &mut Context<'_, String>, event: NodeEvent<String>) {
        match event {
            NodeEvent::Start => {
                ctx.set_timer(self.at, 1);
                ctx.set_timer(self.at + Dur::secs(5), 2); // verdict timer
            }
            NodeEvent::Timer { tag: 1 } => {
                self.fired = true;
                self.http.send(ctx, self.registry, Request::get("/uddi"));
            }
            NodeEvent::Timer { tag: 2 } => {
                self.outcome.borrow_mut().push(self.got);
            }
            NodeEvent::Message { msg, .. } => {
                if let Some((_, response)) = self.http.accept(&msg) {
                    if response.is_success() {
                        self.got = true;
                    }
                }
            }
            _ => {}
        }
    }
}

/// Central world: one registry node under churn, `queries` one-shot
/// locates at random times. Returns success rate.
pub fn central_success(availability: f64, queries: usize, seed: u64) -> f64 {
    let mut net: SimNet<String> = SimNet::new(seed);
    net.set_default_link(LinkSpec::lan());
    let router = Router::new();
    router.deploy(
        "uddi",
        Arc::new(|_r: &Request| Response::ok("text/xml", "<serviceList/>")),
    );
    let registry = net.add_node(Box::new(HttpSimServer::new(router, Dur::millis(5), 2)));

    if availability < 1.0 {
        churn_for(availability, Dur::secs(30)).apply(
            &mut net,
            [registry],
            Time::secs(300),
            seed ^ 1,
        );
    }
    let outcome = Rc::new(RefCell::new(Vec::new()));
    let mut rng = StdRng::seed_from_u64(seed ^ 2);
    for _ in 0..queries {
        let at = Dur::millis(rng.random_range(10_000..290_000));
        net.add_node(Box::new(OneShot {
            registry,
            http: SimHttpClient::new(),
            at,
            outcome: outcome.clone(),
            fired: false,
            got: false,
        }));
    }
    net.run_until(Time::secs(310));
    let outcomes = outcome.borrow();
    outcomes.iter().filter(|&&ok| ok).count() as f64 / outcomes.len().max(1) as f64
}

/// P2P world: rendezvous peers under the same churn; seekers query at
/// random times; success = any hit within 5 virtual seconds.
pub fn p2p_success(availability: f64, queries: usize, seed: u64) -> f64 {
    let mut net: SimNet<String> = SimNet::new(seed);
    net.set_default_link(LinkSpec::lan());
    let mut rng = StdRng::seed_from_u64(seed ^ 3);
    let groups = 8;
    let group_size = 6;
    let (topology, rendezvous) = Topology::rendezvous_groups(groups, group_size, 3, &mut rng);
    // Soft-state refresh keeps replicas warm — the P2P survival trick.
    let (_dir, handles) = build_overlay(&mut net, &topology, &rendezvous, Some(Dur::secs(10)));

    let publisher = &handles[1];
    let advert = ServiceAdvertisement::new("Echo", publisher.peer()).with_pipe("in");
    publisher.enqueue_at(&mut net, Time::ZERO, PeerCommand::Publish(advert));

    if availability < 1.0 {
        churn_for(availability, Dur::secs(30)).apply(
            &mut net,
            &rendezvous,
            Time::secs(300),
            seed ^ 4,
        );
    }

    let mut asked = Vec::new();
    for q in 0..queries {
        let slot = loop {
            let g = rng.random_range(0..groups);
            let m = rng.random_range(1..group_size);
            let slot = g * group_size + m;
            if slot != 1 {
                break slot;
            }
        };
        let at = Time::millis(rng.random_range(10_000..290_000));
        asked.push((slot, q as u64, at));
    }
    // Each handle's command queue is FIFO while wake timers fire in
    // time order; enqueue in ascending time so commands pair with the
    // wakes meant for them.
    asked.sort_by_key(|(_, _, at)| *at);
    for (slot, token, at) in &asked {
        handles[*slot].enqueue_at(
            &mut net,
            *at,
            PeerCommand::Query {
                token: *token,
                query: P2psQuery::by_name("Echo"),
                ttl: None,
            },
        );
    }
    net.run_until(Time::secs(310));

    let mut ok = 0usize;
    for (slot, token, at) in &asked {
        let hit = handles[*slot].events().iter().any(|(t, e)| {
            matches!(e, PeerEvent::QueryResult { token: tk, adverts }
                if tk == token && !adverts.is_empty() && t.since(*at) <= Dur::secs(5))
        });
        if hit {
            ok += 1;
        }
    }
    ok as f64 / asked.len().max(1) as f64
}

/// Run one availability level in both worlds.
pub fn run(availability: f64, queries: usize, seed: u64) -> E3Row {
    E3Row {
        availability,
        central_success: central_success(availability, queries, seed),
        p2p_success: p2p_success(availability, queries, seed),
    }
}

/// The published sweep.
pub fn sweep(seed: u64) -> Vec<E3Row> {
    [1.0, 0.95, 0.9, 0.8, 0.7, 0.5]
        .into_iter()
        .map(|a| run(a, 40, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_worlds_work_without_churn() {
        let row = run(1.0, 20, 5);
        assert!(row.central_success >= 0.95, "{row:?}");
        assert!(row.p2p_success >= 0.95, "{row:?}");
    }

    #[test]
    fn p2p_degrades_more_gracefully_than_central() {
        // Any single seed is a churn-schedule lottery (a lucky registry
        // uptime path can score 100%), so compare means over a few seeds.
        let seeds = [2u64, 3, 4, 5];
        let mut central = 0.0;
        let mut p2p = 0.0;
        for &seed in &seeds {
            let row = run(0.7, 30, seed);
            central += row.central_success;
            p2p += row.p2p_success;
        }
        central /= seeds.len() as f64;
        p2p /= seeds.len() as f64;
        assert!(
            p2p > central + 0.1,
            "expected P2P to beat central at 70% availability: central {central:.3} p2p {p2p:.3}"
        );
    }

    #[test]
    fn central_success_tracks_availability() {
        let high = central_success(0.9, 30, 9);
        let low = central_success(0.5, 30, 9);
        assert!(high > low, "high {high} low {low}");
    }
}
