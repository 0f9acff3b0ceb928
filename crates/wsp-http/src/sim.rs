//! Simulator driver: HTTP exchanges as simnet messages.
//!
//! The wire format is the real byte-level HTTP encoding rendered to a
//! `String` message, so the simulated path exercises the same codec as
//! the TCP path. One request/response pair models one short-lived
//! connection; an `X-Sim-Correlation` header stands in for the
//! connection identity so a client may keep several requests in flight.
//!
//! The server behaviour models *service capacity*: requests queue and
//! are served by `workers` virtual workers each taking `service_time`.
//! That queueing is what produces the registry-saturation curve of
//! experiment E1 — without it a simulated server is infinitely fast and
//! the client/server bottleneck the paper argues about cannot appear.

use crate::codec::{encode_request, encode_response, parse_request, parse_response};
use crate::message::{Request, Response};
use crate::router::Router;
use std::collections::{HashMap, VecDeque};
use wsp_simnet::{Context, Dur, Node, NodeEvent, NodeId, TimerId};

/// Correlation header echoed by the sim server.
pub const CORRELATION_HEADER: &str = "X-Sim-Correlation";

/// A simulated HTTP server node: a [`Router`] behind a bounded-capacity
/// work queue.
pub struct HttpSimServer {
    router: Router,
    /// Virtual time to process one request.
    service_time: Dur,
    /// Number of requests processed concurrently.
    workers: u32,
    /// Requests *waiting* beyond this are answered `503` immediately
    /// (in-service requests do not count against the limit).
    queue_limit: usize,
    queue: VecDeque<(NodeId, Request)>,
    in_flight: VecDeque<(NodeId, Request)>,
    busy: u32,
}

impl HttpSimServer {
    pub fn new(router: Router, service_time: Dur, workers: u32) -> Self {
        HttpSimServer {
            router,
            service_time,
            workers: workers.max(1),
            queue_limit: usize::MAX,
            queue: VecDeque::new(),
            in_flight: VecDeque::new(),
            busy: 0,
        }
    }

    pub fn with_queue_limit(mut self, limit: usize) -> Self {
        self.queue_limit = limit;
        self
    }

    pub fn router(&self) -> &Router {
        &self.router
    }

    fn try_start_work(&mut self, ctx: &mut Context<'_, String>) {
        while self.busy < self.workers {
            let Some(work) = self.queue.pop_front() else {
                break;
            };
            self.in_flight.push_back(work);
            self.busy += 1;
            ctx.set_timer(self.service_time, 0);
        }
    }

    fn finish_one(&mut self, ctx: &mut Context<'_, String>) {
        self.busy = self.busy.saturating_sub(1);
        if let Some((client, request)) = self.in_flight.pop_front() {
            let mut response = self.router.handle(&request);
            if let Some(corr) = request.headers.get(CORRELATION_HEADER) {
                response.headers.set(CORRELATION_HEADER, corr);
            }
            ctx.count("http.served");
            ctx.send(
                client,
                String::from_utf8_lossy(&encode_response(&response)).into_owned(),
            );
        }
        self.try_start_work(ctx);
    }
}

impl Node<String> for HttpSimServer {
    fn handle(&mut self, ctx: &mut Context<'_, String>, event: NodeEvent<String>) {
        match event {
            NodeEvent::Message { from, msg } => {
                let Ok((request, _)) = parse_request(msg.as_bytes()) else {
                    ctx.count("http.unparseable");
                    return;
                };
                if self.queue.len() >= self.queue_limit {
                    ctx.count("http.rejected");
                    let mut response = Response::unavailable("queue full");
                    if let Some(corr) = request.headers.get(CORRELATION_HEADER) {
                        response.headers.set(CORRELATION_HEADER, corr);
                    }
                    ctx.send(
                        from,
                        String::from_utf8_lossy(&encode_response(&response)).into_owned(),
                    );
                    return;
                }
                ctx.count("http.accepted");
                self.queue.push_back((from, request));
                self.try_start_work(ctx);
            }
            NodeEvent::Timer { .. } => self.finish_one(ctx),
            NodeEvent::WentDown => {
                // A crash loses queued and in-flight work.
                self.queue.clear();
                self.in_flight.clear();
                self.busy = 0;
            }
            _ => {}
        }
    }
}

/// Client-side bookkeeping for request/response matching over simnet.
///
/// Embed one of these in a client behaviour: call [`SimHttpClient::send`]
/// to issue a request and [`SimHttpClient::accept`] on every incoming
/// message to claim responses.
#[derive(Debug, Default)]
pub struct SimHttpClient {
    next_correlation: u64,
}

impl SimHttpClient {
    pub fn new() -> Self {
        SimHttpClient::default()
    }

    /// Send `request` to `server`, returning the correlation id that the
    /// response will carry.
    pub fn send(
        &mut self,
        ctx: &mut Context<'_, String>,
        server: NodeId,
        mut request: Request,
    ) -> u64 {
        let correlation = self.next_correlation;
        self.next_correlation += 1;
        request
            .headers
            .set(CORRELATION_HEADER, correlation.to_string());
        ctx.send(
            server,
            String::from_utf8_lossy(&encode_request(&request)).into_owned(),
        );
        correlation
    }

    /// Try to interpret an incoming message as an HTTP response; returns
    /// the correlation id and the parsed response.
    pub fn accept(&self, msg: &str) -> Option<(u64, Response)> {
        let (response, _) = parse_response(msg.as_bytes()).ok()?;
        let correlation = response.headers.get(CORRELATION_HEADER)?.parse().ok()?;
        Some((correlation, response))
    }
}

// --- resilient client --------------------------------------------------------

/// Timer-tag namespace for [`ResilientSimClient`] attempt timeouts.
/// Embedding behaviours must route timers with these top nibbles to
/// [`ResilientSimClient::on_timer`] and keep their own tags elsewhere.
pub const RETRY_TIMEOUT_TAG: u64 = 0xC000_0000_0000_0000;
/// Timer-tag namespace for scheduled (backed-off) resends.
pub const RETRY_RESEND_TAG: u64 = 0xD000_0000_0000_0000;

const TAG_PHASE_MASK: u64 = 0xF000_0000_0000_0000;
const TAG_CALL_MASK: u64 = !TAG_PHASE_MASK;

/// A deterministic per-attempt retry schedule for the sim client: each
/// attempt gets `attempt_timeout` of virtual time, and `backoffs[i]` is
/// the pause before attempt `i + 2`. Everything is virtual-time `Dur`s,
/// so runs are reproducible bit-for-bit per simnet seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetrySchedule {
    pub attempt_timeout: Dur,
    pub backoffs: Vec<Dur>,
}

impl RetrySchedule {
    /// Single attempt: a timeout becomes [`SimCallOutcome::Exhausted`]
    /// immediately.
    pub fn none(attempt_timeout: Dur) -> Self {
        RetrySchedule {
            attempt_timeout,
            backoffs: Vec::new(),
        }
    }

    /// `retries` extra attempts, each preceded by the same `backoff`.
    pub fn fixed(attempt_timeout: Dur, backoff: Dur, retries: usize) -> Self {
        RetrySchedule {
            attempt_timeout,
            backoffs: vec![backoff; retries],
        }
    }

    pub fn max_attempts(&self) -> u32 {
        1 + self.backoffs.len() as u32
    }
}

/// Terminal outcome of one logical call made through
/// [`ResilientSimClient`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimCallOutcome {
    /// A (2xx) response arrived within the attempt budget.
    Completed {
        call: u64,
        attempts: u32,
        response: Response,
    },
    /// Every attempt timed out or was rejected.
    Exhausted { call: u64, attempts: u32 },
}

#[derive(Debug)]
struct PendingCall {
    server: NodeId,
    request: Request,
    attempts: u32,
    timeout: Option<TimerId>,
}

/// [`SimHttpClient`] plus timeout/retry/backoff: one *logical call* may
/// span several wire attempts. Lost or rejected attempts are retried on
/// the schedule until the budget runs out; the embedding behaviour
/// forwards its [`NodeEvent::Timer`]s (tags in the two `RETRY_*_TAG`
/// namespaces) and messages, and reacts to the returned
/// [`SimCallOutcome`]s. This is the sim-side analogue of the threaded
/// `wsp_core` resilience layer — `Dur`-based because the simulator
/// crates do not depend on `wsp-core`.
#[derive(Debug)]
pub struct ResilientSimClient {
    schedule: RetrySchedule,
    inner: SimHttpClient,
    next_call: u64,
    calls: HashMap<u64, PendingCall>,
    by_correlation: HashMap<u64, u64>,
}

impl ResilientSimClient {
    pub fn new(schedule: RetrySchedule) -> Self {
        ResilientSimClient {
            schedule,
            inner: SimHttpClient::new(),
            next_call: 0,
            calls: HashMap::new(),
            by_correlation: HashMap::new(),
        }
    }

    /// Logical calls still in flight.
    pub fn in_flight(&self) -> usize {
        self.calls.len()
    }

    /// Start a logical call: sends attempt 1 now and arms its timeout.
    /// Returns the call id carried by the eventual [`SimCallOutcome`].
    pub fn begin(
        &mut self,
        ctx: &mut Context<'_, String>,
        server: NodeId,
        request: Request,
    ) -> u64 {
        let call = self.next_call;
        self.next_call += 1;
        self.calls.insert(
            call,
            PendingCall {
                server,
                request,
                attempts: 0,
                timeout: None,
            },
        );
        self.send_attempt(ctx, call);
        call
    }

    fn send_attempt(&mut self, ctx: &mut Context<'_, String>, call: u64) {
        let Some(pending) = self.calls.get_mut(&call) else {
            return;
        };
        pending.attempts += 1;
        ctx.count("http.retry_attempt");
        let correlation = self
            .inner
            .send(ctx, pending.server, pending.request.clone());
        self.by_correlation.insert(correlation, call);
        let timeout = ctx.set_timer(self.schedule.attempt_timeout, RETRY_TIMEOUT_TAG | call);
        self.calls.get_mut(&call).unwrap().timeout = Some(timeout);
    }

    /// The current attempt failed (timeout or rejection): either back
    /// off into the next attempt or give up.
    fn fail_attempt(&mut self, ctx: &mut Context<'_, String>, call: u64) -> Option<SimCallOutcome> {
        let pending = self.calls.get(&call)?;
        let attempts = pending.attempts;
        if attempts >= self.schedule.max_attempts() {
            self.calls.remove(&call);
            ctx.count("http.retry_exhausted");
            return Some(SimCallOutcome::Exhausted { call, attempts });
        }
        let backoff = self.schedule.backoffs[(attempts - 1) as usize];
        if backoff == Dur::ZERO {
            self.send_attempt(ctx, call);
        } else {
            ctx.set_timer(backoff, RETRY_RESEND_TAG | call);
        }
        None
    }

    /// Feed a fired timer through; `None` for foreign tags and
    /// non-terminal progress.
    pub fn on_timer(&mut self, ctx: &mut Context<'_, String>, tag: u64) -> Option<SimCallOutcome> {
        let call = tag & TAG_CALL_MASK;
        match tag & TAG_PHASE_MASK {
            phase if phase == RETRY_TIMEOUT_TAG => {
                self.calls.get_mut(&call)?.timeout = None;
                ctx.count("http.attempt_timeout");
                self.fail_attempt(ctx, call)
            }
            phase if phase == RETRY_RESEND_TAG => {
                self.send_attempt(ctx, call);
                None
            }
            _ => None,
        }
    }

    /// Feed an incoming message through; returns an outcome when the
    /// message terminates one of our calls. Late responses from already
    /// finished calls (a retransmit raced the retry) are dropped.
    pub fn on_message(
        &mut self,
        ctx: &mut Context<'_, String>,
        msg: &str,
    ) -> Option<SimCallOutcome> {
        let (correlation, response) = self.inner.accept(msg)?;
        let call = self.by_correlation.remove(&correlation)?;
        let pending = self.calls.get_mut(&call)?;
        if let Some(timer) = pending.timeout.take() {
            ctx.cancel_timer(timer);
        }
        if response.is_success() {
            let attempts = pending.attempts;
            self.calls.remove(&call);
            return Some(SimCallOutcome::Completed {
                call,
                attempts,
                response,
            });
        }
        // A definitive rejection (503 queue-full, …) counts as a failed
        // attempt, just faster than a timeout.
        ctx.count("http.attempt_rejected");
        self.fail_attempt(ctx, call)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Arc;
    use wsp_simnet::{LinkSpec, SimNet, Time};

    fn echo_router() -> Router {
        let router = Router::new();
        router.deploy(
            "Echo",
            Arc::new(|req: &Request| Response::ok("text/plain", req.body.clone())),
        );
        router
    }

    /// A client that fires `n` requests at `Start` and records response
    /// arrival times.
    struct Burst {
        server: NodeId,
        n: usize,
        client: SimHttpClient,
        responses: Rc<RefCell<Vec<(Time, u16)>>>,
    }

    impl Node<String> for Burst {
        fn handle(&mut self, ctx: &mut Context<'_, String>, event: NodeEvent<String>) {
            match event {
                NodeEvent::Start => {
                    for _ in 0..self.n {
                        self.client.send(
                            ctx,
                            self.server,
                            Request::post("/Echo", "text/plain", "hi"),
                        );
                    }
                }
                NodeEvent::Message { msg, .. } => {
                    if let Some((_corr, response)) = self.client.accept(&msg) {
                        self.responses
                            .borrow_mut()
                            .push((ctx.now(), response.status));
                    }
                }
                _ => {}
            }
        }
    }

    fn run_burst(n: usize, workers: u32, queue_limit: usize) -> Vec<(Time, u16)> {
        let mut net: SimNet<String> = SimNet::new(5);
        net.set_default_link(LinkSpec {
            latency: Dur::millis(1),
            jitter: Dur::ZERO,
            loss: 0.0,
        });
        let server = net.add_node(Box::new(
            HttpSimServer::new(echo_router(), Dur::millis(10), workers)
                .with_queue_limit(queue_limit),
        ));
        let responses = Rc::new(RefCell::new(Vec::new()));
        net.add_node(Box::new(Burst {
            server,
            n,
            client: SimHttpClient::new(),
            responses: responses.clone(),
        }));
        net.run_to_quiescence();
        let out = responses.borrow().clone();
        out
    }

    #[test]
    fn single_request_round_trips() {
        let responses = run_burst(1, 1, usize::MAX);
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].1, 200);
        // 1ms there + 10ms service + 1ms back.
        assert_eq!(responses[0].0, Time::millis(12));
    }

    #[test]
    fn queueing_serialises_service_times() {
        let responses = run_burst(3, 1, usize::MAX);
        let times: Vec<_> = responses.iter().map(|(t, _)| *t).collect();
        assert_eq!(
            times,
            vec![Time::millis(12), Time::millis(22), Time::millis(32)]
        );
    }

    #[test]
    fn more_workers_raise_throughput() {
        let one = run_burst(4, 1, usize::MAX);
        let four = run_burst(4, 4, usize::MAX);
        let last_one = one.iter().map(|(t, _)| *t).max().unwrap();
        let last_four = four.iter().map(|(t, _)| *t).max().unwrap();
        assert!(last_four < last_one, "{last_four} !< {last_one}");
    }

    #[test]
    fn queue_limit_rejects_with_503() {
        let responses = run_burst(5, 1, 2);
        let rejected = responses.iter().filter(|(_, s)| *s == 503).count();
        let served = responses.iter().filter(|(_, s)| *s == 200).count();
        // 1 in service + 2 queued = 3 served; the rest bounce.
        assert_eq!(served, 3);
        assert_eq!(rejected, 2);
    }

    #[test]
    fn correlation_ids_distinguish_responses() {
        let mut net: SimNet<String> = SimNet::new(7);
        let server = net.add_node(Box::new(HttpSimServer::new(
            echo_router(),
            Dur::millis(1),
            1,
        )));
        let seen = Rc::new(RefCell::new(Vec::new()));
        struct TwoBodies {
            server: NodeId,
            client: SimHttpClient,
            seen: Rc<RefCell<Vec<(u64, String)>>>,
        }
        impl Node<String> for TwoBodies {
            fn handle(&mut self, ctx: &mut Context<'_, String>, event: NodeEvent<String>) {
                match event {
                    NodeEvent::Start => {
                        let a = self.client.send(
                            ctx,
                            self.server,
                            Request::post("/Echo", "text/plain", "first"),
                        );
                        let b = self.client.send(
                            ctx,
                            self.server,
                            Request::post("/Echo", "text/plain", "second"),
                        );
                        assert_ne!(a, b);
                    }
                    NodeEvent::Message { msg, .. } => {
                        if let Some((corr, resp)) = self.client.accept(&msg) {
                            self.seen
                                .borrow_mut()
                                .push((corr, resp.body_str().into_owned()));
                        }
                    }
                    _ => {}
                }
            }
        }
        net.add_node(Box::new(TwoBodies {
            server,
            client: SimHttpClient::new(),
            seen: seen.clone(),
        }));
        net.run_to_quiescence();
        let mut got = seen.borrow().clone();
        got.sort();
        assert_eq!(got, vec![(0, "first".into()), (1, "second".into())]);
    }

    /// Starts one resilient call at `Start` and records its outcome.
    struct RetryDriver {
        server: NodeId,
        client: ResilientSimClient,
        outcomes: Rc<RefCell<Vec<SimCallOutcome>>>,
    }

    impl Node<String> for RetryDriver {
        fn handle(&mut self, ctx: &mut Context<'_, String>, event: NodeEvent<String>) {
            let outcome = match event {
                NodeEvent::Start => {
                    self.client
                        .begin(ctx, self.server, Request::post("/Echo", "text/plain", "hi"));
                    None
                }
                NodeEvent::Timer { tag } => self.client.on_timer(ctx, tag),
                NodeEvent::Message { msg, .. } => self.client.on_message(ctx, &msg),
                _ => None,
            };
            if let Some(outcome) = outcome {
                self.outcomes.borrow_mut().push(outcome);
            }
        }
    }

    fn retry_net(
        seed: u64,
        loss: f64,
        schedule: RetrySchedule,
    ) -> (SimNet<String>, NodeId, Rc<RefCell<Vec<SimCallOutcome>>>) {
        let mut net: SimNet<String> = SimNet::new(seed);
        net.set_default_link(LinkSpec {
            latency: Dur::millis(1),
            jitter: Dur::ZERO,
            loss,
        });
        let server = net.add_node(Box::new(HttpSimServer::new(
            echo_router(),
            Dur::millis(5),
            1,
        )));
        let outcomes = Rc::new(RefCell::new(Vec::new()));
        net.add_node(Box::new(RetryDriver {
            server,
            client: ResilientSimClient::new(schedule),
            outcomes: outcomes.clone(),
        }));
        (net, server, outcomes)
    }

    #[test]
    fn clean_network_completes_on_first_attempt() {
        let schedule = RetrySchedule::fixed(Dur::millis(100), Dur::millis(10), 3);
        let (mut net, _, outcomes) = retry_net(11, 0.0, schedule);
        net.run_to_quiescence();
        let got = outcomes.borrow();
        assert_eq!(got.len(), 1);
        assert!(matches!(
            got[0],
            SimCallOutcome::Completed { attempts: 1, .. }
        ));
    }

    #[test]
    fn blackout_is_survived_by_retry() {
        // The link is black until t = 50ms: attempt 1 (t = 0) is lost,
        // its timeout fires at 100ms, and attempt 2 sails through.
        let schedule = RetrySchedule::fixed(Dur::millis(100), Dur::millis(10), 3);
        let (mut net, server, outcomes) = retry_net(13, 0.0, schedule);
        let client = server + 1; // the driver is added right after the server
        wsp_simnet::FaultPlan::new(13)
            .blackout(client, server, Time::ZERO, Time::millis(50))
            .apply(&mut net);
        net.run_to_quiescence();
        let got = outcomes.borrow();
        assert_eq!(got.len(), 1);
        assert!(
            matches!(got[0], SimCallOutcome::Completed { attempts: 2, .. }),
            "got {:?}",
            got[0]
        );
    }

    #[test]
    fn total_loss_exhausts_the_attempt_budget() {
        let schedule = RetrySchedule::fixed(Dur::millis(20), Dur::millis(5), 2);
        let (mut net, _, outcomes) = retry_net(17, 1.0, schedule);
        net.run_to_quiescence();
        let got = outcomes.borrow();
        assert_eq!(got.len(), 1, "a call never hangs — it exhausts");
        assert!(matches!(
            got[0],
            SimCallOutcome::Exhausted { attempts: 3, .. }
        ));
        assert_eq!(net.metrics().counter("http.attempt_timeout"), 3);
    }

    #[test]
    fn rejection_counts_as_a_failed_attempt() {
        // queue_limit 0 bounces everything with 503 immediately: the
        // call exhausts via fast rejections, not slow timeouts.
        let schedule = RetrySchedule::fixed(Dur::millis(100), Dur::millis(5), 1);
        let mut net: SimNet<String> = SimNet::new(19);
        net.set_default_link(LinkSpec {
            latency: Dur::millis(1),
            jitter: Dur::ZERO,
            loss: 0.0,
        });
        let server = net.add_node(Box::new(
            HttpSimServer::new(echo_router(), Dur::millis(5), 1).with_queue_limit(0),
        ));
        let outcomes = Rc::new(RefCell::new(Vec::new()));
        net.add_node(Box::new(RetryDriver {
            server,
            client: ResilientSimClient::new(schedule),
            outcomes: outcomes.clone(),
        }));
        net.run_to_quiescence();
        let got = outcomes.borrow();
        assert!(matches!(
            got[0],
            SimCallOutcome::Exhausted { attempts: 2, .. }
        ));
        assert_eq!(net.metrics().counter("http.attempt_rejected"), 2);
        assert_eq!(
            net.metrics().counter("http.attempt_timeout"),
            0,
            "rejections resolve attempts before their timeouts fire"
        );
    }

    #[test]
    fn lossy_run_is_reproducible_per_seed() {
        let run = |seed| {
            let schedule = RetrySchedule::fixed(Dur::millis(30), Dur::millis(10), 5);
            let (mut net, _, outcomes) = retry_net(seed, 0.4, schedule);
            let end = net.run_to_quiescence();
            let got = outcomes.borrow().clone();
            (end, got)
        };
        let (end_a, a) = run(23);
        let (end_b, b) = run(23);
        assert_eq!(a, b, "same seed, same outcomes");
        assert_eq!(end_a, end_b);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn crash_loses_queued_work() {
        let mut net: SimNet<String> = SimNet::new(9);
        net.set_default_link(LinkSpec {
            latency: Dur::millis(1),
            jitter: Dur::ZERO,
            loss: 0.0,
        });
        let server = net.add_node(Box::new(HttpSimServer::new(
            echo_router(),
            Dur::millis(50),
            1,
        )));
        let responses = Rc::new(RefCell::new(Vec::new()));
        net.add_node(Box::new(Burst {
            server,
            n: 3,
            client: SimHttpClient::new(),
            responses: responses.clone(),
        }));
        net.schedule_down(server, Time::millis(10));
        net.run_to_quiescence();
        assert!(
            responses.borrow().is_empty(),
            "crash should lose all queued work"
        );
    }
}
