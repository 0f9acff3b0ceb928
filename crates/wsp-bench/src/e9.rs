//! E9 — goodput under message loss, with and without retry.
//!
//! The resilience layer's pitch is that per-call timeout/retry turns a
//! lossy transport into a merely slower one. We offer a fixed stream of
//! calls to one HTTP host across links with {0%, 5%, 20%} loss and
//! measure *goodput* — completed calls per virtual second — once with a
//! retry schedule and once with a single-attempt budget. The retry
//! column must stay near the offered rate while the single-attempt
//! column collapses as loss grows.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use wsp_http::{HttpSimServer, Request, ResilientSimClient, Response, RetrySchedule, Router};
use wsp_simnet::{Context, Dur, FaultPlan, LinkSpec, Node, NodeEvent, NodeId, SimNet, Time};

/// One row: loss rate × retry policy → completion and goodput.
#[derive(Debug, Clone)]
pub struct E9Row {
    pub loss: f64,
    pub retry: bool,
    pub offered: usize,
    pub completed: usize,
    pub wire_attempts: u64,
    pub goodput_cps: f64,
}

fn echo_router() -> Router {
    let router = Router::new();
    router.deploy(
        "Echo",
        Arc::new(|req: &Request| Response::ok("text/plain", req.body.clone())),
    );
    router
}

/// Offers `calls` calls at a fixed 50ms cadence and stamps each
/// terminal outcome with its virtual completion time.
struct OfferedLoad {
    server: NodeId,
    client: ResilientSimClient,
    calls: usize,
    started: usize,
    done: Rc<RefCell<Vec<(Time, bool)>>>,
}

const NEXT_CALL_TAG: u64 = 0x1001;

impl Node<String> for OfferedLoad {
    fn handle(&mut self, ctx: &mut Context<'_, String>, event: NodeEvent<String>) {
        let outcome = match event {
            NodeEvent::Start => {
                ctx.set_timer(Dur::ZERO, NEXT_CALL_TAG);
                None
            }
            NodeEvent::Timer { tag: NEXT_CALL_TAG } => {
                if self.started < self.calls {
                    self.started += 1;
                    self.client
                        .begin(ctx, self.server, Request::post("/Echo", "text/plain", "hi"));
                    ctx.set_timer(Dur::millis(50), NEXT_CALL_TAG);
                }
                None
            }
            NodeEvent::Timer { tag } => self.client.on_timer(ctx, tag),
            NodeEvent::Message { msg, .. } => self.client.on_message(ctx, &msg),
            _ => None,
        };
        if let Some(outcome) = outcome {
            let ok = matches!(outcome, wsp_http::SimCallOutcome::Completed { .. });
            self.done.borrow_mut().push((ctx.now(), ok));
        }
    }
}

/// Run one cell of the matrix.
pub fn run(loss: f64, retry: bool, calls: usize, seed: u64) -> E9Row {
    let schedule = if retry {
        RetrySchedule::fixed(Dur::millis(60), Dur::millis(10), 6)
    } else {
        RetrySchedule::none(Dur::millis(60))
    };
    let mut net: SimNet<String> = SimNet::new(seed);
    net.set_default_link(LinkSpec {
        latency: Dur::millis(2),
        jitter: Dur::millis(1),
        loss: 0.0,
    });
    let server = net.add_node(Box::new(HttpSimServer::new(
        echo_router(),
        Dur::millis(5),
        2,
    )));
    let done = Rc::new(RefCell::new(Vec::new()));
    net.add_node(Box::new(OfferedLoad {
        server,
        client: ResilientSimClient::new(schedule),
        calls,
        started: 0,
        done: done.clone(),
    }));
    FaultPlan::new(seed ^ 1).default_loss(loss).apply(&mut net);
    net.run_to_quiescence();

    let done = done.borrow();
    let completed = done.iter().filter(|(_, ok)| *ok).count();
    // Goodput over the span in which the stream actually ran: cancelled
    // timers drain past the last outcome, so quiescence time would
    // under-report both columns equally but noisily.
    let span = done
        .iter()
        .map(|(t, _)| *t)
        .max()
        .unwrap_or(Time::ZERO)
        .as_micros()
        .max(1) as f64
        / 1_000_000.0;
    E9Row {
        loss,
        retry,
        offered: calls,
        completed,
        wire_attempts: net.metrics().counter("http.retry_attempt"),
        goodput_cps: completed as f64 / span,
    }
}

/// The published sweep: {0%, 5%, 20%} loss × {no retry, retry}.
pub fn sweep(calls: usize, seed: u64) -> Vec<E9Row> {
    let mut rows = Vec::new();
    for loss in [0.0, 0.05, 0.2] {
        for retry in [false, true] {
            rows.push(run(loss, retry, calls, seed));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_goodput_is_policy_independent() {
        let single = run(0.0, false, 20, 9);
        let retrying = run(0.0, true, 20, 9);
        assert_eq!(single.completed, 20, "{single:?}");
        assert_eq!(retrying.completed, 20, "{retrying:?}");
        // No loss → no retransmits: both spend exactly one wire attempt
        // per call.
        assert_eq!(single.wire_attempts, 20);
        assert_eq!(retrying.wire_attempts, 20);
    }

    #[test]
    fn retry_goodput_beats_no_retry_at_heavy_loss() {
        // The E9 acceptance shape: at 20% loss the retry column is
        // strictly above the single-attempt column.
        let single = run(0.2, false, 30, 2005);
        let retrying = run(0.2, true, 30, 2005);
        assert!(
            retrying.goodput_cps > single.goodput_cps,
            "retry {retrying:?} must beat single-attempt {single:?}"
        );
        assert!(
            retrying.completed > single.completed,
            "retry must also complete strictly more calls"
        );
    }

    #[test]
    fn retry_pays_in_wire_attempts() {
        let retrying = run(0.2, true, 30, 11);
        assert!(
            retrying.wire_attempts > retrying.offered as u64,
            "recovering lost calls costs extra attempts: {retrying:?}"
        );
    }
}
