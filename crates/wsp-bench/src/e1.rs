//! E1 — the central-registry bottleneck (claim C5, client/server side).
//!
//! Closed-loop clients issue real SOAP `find_service` queries at a
//! simulated UDDI registry with finite service capacity. As the client
//! population grows past the registry's capacity, throughput saturates
//! and latency grows without bound — the scalability critique in
//! Section II of the paper ("the number of server entities does not
//! grow proportionately with the overall number of nodes").

use crate::common::{mean, percentile_f64};
use std::borrow::Cow;
use std::cell::RefCell;
use std::rc::Rc;
use wsp_http::{HttpSimServer, Request, Router, SimHttpClient};
use wsp_simnet::{Context, Dur, LinkSpec, Node, NodeEvent, NodeId, SimNet, Time};
use wsp_uddi::{registry_handler, UddiOp, UddiRequest};

/// One row of the E1 table.
#[derive(Debug, Clone)]
pub struct E1Row {
    pub clients: usize,
    pub completed: u64,
    pub throughput_rps: f64,
    pub mean_ms: f64,
    pub p99_ms: f64,
}

/// A closed-loop client: issues a query, waits for the answer, issues
/// the next — until the horizon.
struct ClosedLoopClient {
    registry: NodeId,
    http: SimHttpClient,
    horizon: Time,
    sent_at: Option<(u64, Time)>,
    latencies: Rc<RefCell<Vec<f64>>>,
    request_body: Vec<u8>,
}

impl ClosedLoopClient {
    fn fire(&mut self, ctx: &mut Context<'_, String>) {
        let request = Request::post(
            "/uddi",
            wsp_soap::constants::CONTENT_TYPE,
            self.request_body.clone(),
        );
        let corr = self.http.send(ctx, self.registry, request);
        self.sent_at = Some((corr, ctx.now()));
    }
}

impl Node<String> for ClosedLoopClient {
    fn handle(&mut self, ctx: &mut Context<'_, String>, event: NodeEvent<String>) {
        match event {
            NodeEvent::Start => self.fire(ctx),
            NodeEvent::Message { msg, .. } => {
                if let Some((corr, response)) = self.http.accept(&msg) {
                    if let Some((expected, at)) = self.sent_at {
                        if corr == expected && response.is_success() {
                            self.latencies
                                .borrow_mut()
                                .push((ctx.now() - at).as_micros() as f64 / 1000.0);
                        }
                    }
                    if ctx.now() < self.horizon {
                        self.fire(ctx);
                    }
                }
            }
            _ => {}
        }
    }
}

/// Run one cell of the sweep.
pub fn run(clients: usize, horizon_secs: u64, service_ms: u64, workers: u32, seed: u64) -> E1Row {
    let mut net: SimNet<String> = SimNet::new(seed);
    net.set_default_link(LinkSpec::lan());

    // A real registry with a record in it, behind the capacity model.
    let registry = wsp_uddi::Registry::new();
    registry.save_service(
        wsp_uddi::BusinessService::new("", "bench", "EchoService")
            .with_binding(wsp_uddi::BindingTemplate::new("", "http://provider/Echo")),
    );
    let router = Router::new();
    router.deploy("uddi", registry_handler(registry));
    let server = net.add_node(Box::new(HttpSimServer::new(
        router,
        Dur::millis(service_ms),
        workers,
    )));

    let horizon = Time::secs(horizon_secs);
    let latencies = Rc::new(RefCell::new(Vec::new()));
    let query = wsp_uddi::ServiceQuery::by_name("Echo%");
    let mut query_body = Vec::new();
    wsp_uddi::wire::write_request(
        &UddiRequest::new(UddiOp::FindService(Cow::Borrowed(&query))),
        &mut query_body,
    );
    for _ in 0..clients {
        net.add_node(Box::new(ClosedLoopClient {
            registry: server,
            http: SimHttpClient::new(),
            horizon,
            sent_at: None,
            latencies: latencies.clone(),
            request_body: query_body.clone(),
        }));
    }
    net.run_until(horizon + Dur::secs(5)); // drain in-flight work
    let latencies = latencies.borrow();
    let completed = latencies.len() as u64;
    E1Row {
        clients,
        completed,
        throughput_rps: completed as f64 / horizon_secs as f64,
        mean_ms: mean(&latencies),
        p99_ms: percentile_f64(&latencies, 99.0),
    }
}

/// The full sweep reported in EXPERIMENTS.md.
pub fn sweep(seed: u64) -> Vec<E1Row> {
    [1, 2, 4, 8, 16, 32, 64, 128]
        .into_iter()
        .map(|clients| run(clients, 10, 5, 1, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_saturates_and_latency_explodes() {
        let light = run(1, 5, 5, 1, 7);
        let heavy = run(64, 5, 5, 1, 7);
        // Capacity is 1000ms/5ms = 200 rps. One zero-think-time client
        // gets close (service + 2 link hops per cycle) but its latency
        // is the bare 5ms + RTT; 64 clients pin throughput at capacity
        // while queueing inflates latency ~clients-fold.
        assert!(light.throughput_rps < 185.0, "{light:?}");
        assert!(
            heavy.throughput_rps > 185.0 && heavy.throughput_rps < 215.0,
            "{heavy:?}"
        );
        assert!(
            heavy.mean_ms > light.mean_ms * 10.0,
            "{light:?} vs {heavy:?}"
        );
    }

    #[test]
    fn more_workers_raise_capacity() {
        let one = run(64, 5, 5, 1, 7);
        let four = run(64, 5, 5, 4, 7);
        assert!(
            four.throughput_rps > one.throughput_rps * 2.0,
            "{one:?} vs {four:?}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(8, 3, 5, 1, 42);
        let b = run(8, 3, 5, 1, 42);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.mean_ms, b.mean_ms);
    }
}
