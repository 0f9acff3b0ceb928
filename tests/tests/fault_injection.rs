//! Deterministic fault-injection matrix for the resilience layer.
//!
//! Every scenario here follows one contract: a call made under a
//! resilience policy either **completes within the policy** or **fails
//! classified** — it never hangs. The simulated scenarios are seeded
//! (override with `WSP_FAULT_SEED`) and reproducible bit-for-bit: the
//! same seed yields identical attempt counts and event sequences, which
//! the determinism tests assert by literally running twice.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;
use wsp_core::{Client, EventBus, Invoker, LocatedService, ResiliencePolicy, WspError};
use wsp_http::{
    HttpSimServer, Request, ResilientSimClient, Response, RetrySchedule, Router, SimCallOutcome,
};
use wsp_p2ps::{build_overlay, P2psQuery, PeerCommand, PeerEvent, ServiceAdvertisement};
use wsp_simnet::{
    Context, Dur, FaultPlan, LinkSpec, Node, NodeEvent, NodeId, SimNet, Time, Topology, TraceDigest,
};

/// The matrix seed; every scenario derives from it so one environment
/// variable reruns the whole suite elsewhere in seed space.
fn seed() -> u64 {
    std::env::var("WSP_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2005)
}

// --- HTTP side ---------------------------------------------------------------

fn echo_router() -> Router {
    let router = Router::new();
    router.deploy(
        "Echo",
        Arc::new(|req: &Request| Response::ok("text/plain", req.body.clone())),
    );
    router
}

/// Issues `calls` resilient calls, one every `every`, recording
/// outcomes.
struct CallSource {
    server: NodeId,
    client: ResilientSimClient,
    calls: usize,
    every: Dur,
    started: usize,
    outcomes: Rc<RefCell<Vec<SimCallOutcome>>>,
}

const NEXT_CALL_TAG: u64 = 0x1001;

impl Node<String> for CallSource {
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
                    ctx.set_timer(self.every, NEXT_CALL_TAG);
                }
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

/// Where a run ended: virtual time and the engine's digest of every
/// event it dispatched.
type RunEnd = (Time, TraceDigest);

/// Run `calls` HTTP calls under `plan`; returns (outcomes, run end).
fn run_http(
    sim_seed: u64,
    calls: usize,
    schedule: RetrySchedule,
    plan: impl FnOnce(NodeId, NodeId) -> FaultPlan,
) -> (Vec<SimCallOutcome>, RunEnd) {
    let mut net: SimNet<String> = SimNet::new(sim_seed);
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
    let outcomes = Rc::new(RefCell::new(Vec::new()));
    let client = net.add_node(Box::new(CallSource {
        server,
        client: ResilientSimClient::new(schedule),
        calls,
        every: Dur::millis(50),
        started: 0,
        outcomes: outcomes.clone(),
    }));
    plan(client, server).apply(&mut net);
    let end = net.run_to_quiescence();
    let got = outcomes.borrow().clone();
    (got, (end, net.digest()))
}

/// Run `calls` HTTP calls at 4× the server's capacity: one worker at
/// 20ms per request (50/s) against an arrival every 5ms (200/s), with
/// `queue_limit` waiting slots — the overflow bounces as 503.
fn run_http_overloaded(
    sim_seed: u64,
    calls: usize,
    schedule: RetrySchedule,
    queue_limit: usize,
) -> (Vec<SimCallOutcome>, RunEnd) {
    let mut net: SimNet<String> = SimNet::new(sim_seed);
    net.set_default_link(LinkSpec {
        latency: Dur::millis(2),
        jitter: Dur::millis(1),
        loss: 0.0,
    });
    let server = net.add_node(Box::new(
        HttpSimServer::new(echo_router(), Dur::millis(20), 1).with_queue_limit(queue_limit),
    ));
    let outcomes = Rc::new(RefCell::new(Vec::new()));
    net.add_node(Box::new(CallSource {
        server,
        client: ResilientSimClient::new(schedule),
        calls,
        every: Dur::millis(5),
        started: 0,
        outcomes: outcomes.clone(),
    }));
    let end = net.run_to_quiescence();
    let got = outcomes.borrow().clone();
    (got, (end, net.digest()))
}

#[test]
fn http_loss_matrix_never_hangs() {
    // {0%, 5%, 20%} loss: every single call reaches a terminal outcome.
    for (i, loss) in [0.0, 0.05, 0.2].into_iter().enumerate() {
        let schedule = RetrySchedule::fixed(Dur::millis(60), Dur::millis(10), 5);
        let (outcomes, _) = run_http(seed() + i as u64, 8, schedule, |_, _| {
            FaultPlan::new(seed()).default_loss(loss)
        });
        assert_eq!(
            outcomes.len(),
            8,
            "at {loss} loss every call must terminate"
        );
        if loss == 0.0 {
            assert!(
                outcomes
                    .iter()
                    .all(|o| matches!(o, SimCallOutcome::Completed { attempts: 1, .. })),
                "lossless calls complete first try"
            );
        }
    }
}

#[test]
fn http_retry_beats_no_retry_at_heavy_loss() {
    let completed = |outcomes: &[SimCallOutcome]| {
        outcomes
            .iter()
            .filter(|o| matches!(o, SimCallOutcome::Completed { .. }))
            .count()
    };
    let with_retry = RetrySchedule::fixed(Dur::millis(60), Dur::millis(10), 6);
    let without = RetrySchedule::none(Dur::millis(60));
    let (retrying, _) = run_http(seed(), 12, with_retry, |_, _| {
        FaultPlan::new(seed()).default_loss(0.2)
    });
    let (single, _) = run_http(seed(), 12, without, |_, _| {
        FaultPlan::new(seed()).default_loss(0.2)
    });
    assert!(
        completed(&retrying) > completed(&single),
        "retry must lift completion at 20% loss: {} vs {}",
        completed(&retrying),
        completed(&single)
    );
}

#[test]
fn http_blackout_mid_call_is_survived() {
    // The link goes black at 40ms for 200ms — mid-flight for the second
    // call. Retries after restoration complete every call.
    let schedule = RetrySchedule::fixed(Dur::millis(80), Dur::millis(20), 6);
    let (outcomes, _) = run_http(seed(), 4, schedule, |client, server| {
        FaultPlan::new(seed()).blackout(client, server, Time::millis(40), Time::millis(240))
    });
    assert_eq!(outcomes.len(), 4);
    assert!(
        outcomes
            .iter()
            .all(|o| matches!(o, SimCallOutcome::Completed { .. })),
        "all calls should complete once the blackout lifts: {outcomes:?}"
    );
    assert!(
        outcomes
            .iter()
            .any(|o| matches!(o, SimCallOutcome::Completed { attempts, .. } if *attempts > 1)),
        "the blackout must have forced at least one retry"
    );
}

#[test]
fn http_server_churn_is_survived_or_classified() {
    // The server crashes at 60ms (losing queued work) and returns at
    // 300ms. Every call still terminates; calls landing in the outage
    // window either retry to completion or exhaust classified.
    let schedule = RetrySchedule::fixed(Dur::millis(70), Dur::millis(30), 6);
    let (outcomes, _) = run_http(seed(), 6, schedule, |_, server| {
        FaultPlan::new(seed()).outage(server, Time::millis(60), Time::millis(300))
    });
    assert_eq!(outcomes.len(), 6, "churn must not leave calls hanging");
    assert!(
        outcomes
            .iter()
            .filter(|o| matches!(o, SimCallOutcome::Completed { .. }))
            .count()
            >= 4,
        "most calls should survive the restart via retry: {outcomes:?}"
    );
}

#[test]
fn http_fault_runs_are_bit_reproducible() {
    let run = || {
        let schedule = RetrySchedule::fixed(Dur::millis(60), Dur::millis(10), 5);
        run_http(seed(), 10, schedule, |client, server| {
            FaultPlan::new(seed()).default_loss(0.2).blackout(
                client,
                server,
                Time::millis(100),
                Time::millis(200),
            )
        })
    };
    let (outcomes_a, end_a) = run();
    let (outcomes_b, end_b) = run();
    assert_eq!(outcomes_a, outcomes_b, "same seed ⇒ same outcome sequence");
    assert_eq!(end_a, end_b, "same seed ⇒ same end time and run digest");
}

// --- overload side -----------------------------------------------------------

#[test]
fn http_overload_sheds_the_overflow_and_serves_the_rest() {
    // 4× overload, no retries: the server's queue bound turns the
    // overflow into fast 503 exhaustions while everything it queues is
    // served — no call hangs and no call is silently dropped.
    let (outcomes, _) =
        run_http_overloaded(seed() + 400, 16, RetrySchedule::none(Dur::millis(200)), 2);
    assert_eq!(outcomes.len(), 16, "every call reaches a terminal outcome");
    let served = outcomes
        .iter()
        .filter(|o| matches!(o, SimCallOutcome::Completed { .. }))
        .count();
    let shed = outcomes
        .iter()
        .filter(|o| matches!(o, SimCallOutcome::Exhausted { attempts: 1, .. }))
        .count();
    assert_eq!(served + shed, 16, "terminal outcomes are served or shed");
    assert!(
        served >= 3,
        "the queue's worth of work is served: {outcomes:?}"
    );
    assert!(
        shed >= 3,
        "a 4× burst against 2 queue slots must shed: {outcomes:?}"
    );
}

#[test]
fn http_overload_backoff_recovers_more_goodput_than_hammering() {
    // The same burst, retried: spacing retries out (60ms ≈ 3 service
    // times) rides the queue as it drains and completes more calls than
    // immediate re-sends into a still-full queue.
    let completed = |outcomes: &[SimCallOutcome]| {
        outcomes
            .iter()
            .filter(|o| matches!(o, SimCallOutcome::Completed { .. }))
            .count()
    };
    let spaced = RetrySchedule::fixed(Dur::millis(200), Dur::millis(60), 5);
    let hammer = RetrySchedule::fixed(Dur::millis(200), Dur::millis(1), 5);
    let (with_backoff, _) = run_http_overloaded(seed() + 410, 16, spaced, 2);
    let (hammering, _) = run_http_overloaded(seed() + 410, 16, hammer, 2);
    assert_eq!(with_backoff.len(), 16);
    assert_eq!(hammering.len(), 16);
    assert!(
        completed(&with_backoff) > completed(&hammering),
        "backing off must beat hammering a full queue: {} vs {}",
        completed(&with_backoff),
        completed(&hammering)
    );
}

#[test]
fn http_overload_runs_are_bit_reproducible() {
    let run = || {
        let schedule = RetrySchedule::fixed(Dur::millis(200), Dur::millis(60), 4);
        run_http_overloaded(seed() + 420, 20, schedule, 2)
    };
    let (outcomes_a, end_a) = run();
    let (outcomes_b, end_b) = run();
    assert_eq!(outcomes_a, outcomes_b, "same seed ⇒ same shed/serve split");
    assert_eq!(end_a, end_b, "same seed ⇒ same end time and run digest");
}

// --- P2PS side ---------------------------------------------------------------

/// One resilient query under `loss`, publisher live from t=0.
/// Returns the seeker's terminal events and the run digest.
fn run_p2ps(sim_seed: u64, loss: f64, max_attempts: u32) -> (Vec<PeerEvent>, TraceDigest) {
    let mut net: SimNet<String> = SimNet::new(sim_seed);
    net.set_default_link(LinkSpec {
        latency: Dur::millis(5),
        jitter: Dur::millis(2),
        loss: 0.0,
    });
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(sim_seed);
    let (topology, rendezvous) = Topology::rendezvous_groups(1, 4, 1, &mut rng);
    let (_dir, handles) = build_overlay(&mut net, &topology, &rendezvous, None);
    FaultPlan::new(sim_seed).default_loss(loss).apply(&mut net);
    let publisher = &handles[1];
    let seeker = &handles[3];
    let advert = ServiceAdvertisement::new("Echo", publisher.peer()).with_pipe("in");
    publisher.enqueue_at(&mut net, Time::ZERO, PeerCommand::Publish(advert));
    seeker.enqueue_at(
        &mut net,
        Time::millis(100),
        PeerCommand::ResilientQuery {
            token: 1,
            query: P2psQuery::by_name("Echo"),
            ttl: None,
            attempt_timeout: Dur::millis(80),
            max_attempts,
            backoff: Dur::millis(15),
        },
    );
    net.run_to_quiescence();
    let terminal = seeker
        .take_events()
        .into_iter()
        .map(|(_, e)| e)
        .filter(|e| {
            matches!(e, PeerEvent::QueryFailed { .. })
                || matches!(e, PeerEvent::QueryResult { adverts, .. } if !adverts.is_empty())
        })
        .collect();
    (terminal, net.digest())
}

#[test]
fn p2ps_loss_matrix_terminates_classified() {
    for (i, loss) in [0.0, 0.05, 0.2].into_iter().enumerate() {
        let (terminal, _) = run_p2ps(seed() + 100 + i as u64, loss, 8);
        assert_eq!(
            terminal.len(),
            1,
            "exactly one terminal event at {loss} loss: {terminal:?}"
        );
        if loss == 0.0 {
            assert!(
                matches!(&terminal[0], PeerEvent::QueryResult { .. }),
                "lossless discovery succeeds"
            );
        }
    }
}

#[test]
fn p2ps_total_loss_fails_classified_not_hanging() {
    let (terminal, _) = run_p2ps(seed() + 200, 1.0, 3);
    assert_eq!(terminal.len(), 1);
    assert!(
        matches!(terminal[0], PeerEvent::QueryFailed { attempts: 3, .. }),
        "a dead overlay classifies as QueryFailed after the budget: {terminal:?}"
    );
}

#[test]
fn p2ps_fault_runs_are_bit_reproducible() {
    let a = run_p2ps(seed() + 300, 0.25, 8);
    let b = run_p2ps(seed() + 300, 0.25, 8);
    assert_eq!(a, b, "same seed ⇒ same terminal events and run digest");
}

// --- threaded wsp-core path --------------------------------------------------

/// Fails transport-style `failures` times, then echoes.
struct Flaky {
    failures: u32,
    calls: std::sync::atomic::AtomicU32,
}

impl Invoker for Flaky {
    fn invoke(
        &self,
        _service: &LocatedService,
        _operation: &str,
        args: &[wsp_wsdl::Value],
    ) -> Result<wsp_wsdl::Value, WspError> {
        let n = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        if n < self.failures {
            Err(WspError::Transport("injected fault".into()))
        } else {
            Ok(args.first().cloned().unwrap_or(wsp_wsdl::Value::Null))
        }
    }
    fn handles(&self, endpoint: &str) -> bool {
        endpoint.starts_with("test://")
    }
    fn kind(&self) -> &'static str {
        "flaky"
    }
}

fn test_service() -> LocatedService {
    LocatedService::new(
        wsp_wsdl::WsdlDocument::new(wsp_wsdl::ServiceDescriptor::echo(), vec![]),
        "test://somewhere/Echo",
        wsp_core::BindingKind::HttpUddi,
    )
}

#[test]
fn threaded_client_retries_within_policy() {
    let client = Client::new(EventBus::new());
    client.add_invoker(Arc::new(Flaky {
        failures: 2,
        calls: Default::default(),
    }));
    let policy = ResiliencePolicy::retrying(5)
        .with_backoff(Duration::from_millis(1), 1.0, Duration::from_millis(1))
        .with_deadline(Duration::from_secs(5));
    let out = client
        .invoke_with_policy(
            &test_service(),
            "echoString",
            &[wsp_wsdl::Value::string("ok")],
            policy,
        )
        .expect("third attempt succeeds");
    assert_eq!(out, wsp_wsdl::Value::string("ok"));
}

#[test]
fn threaded_watchdog_never_hangs() {
    // An invoker that stalls far beyond the watchdog: wait_within
    // cancels and classifies instead of blocking forever.
    struct Stall;
    impl Invoker for Stall {
        fn invoke(
            &self,
            _service: &LocatedService,
            _operation: &str,
            _args: &[wsp_wsdl::Value],
        ) -> Result<wsp_wsdl::Value, WspError> {
            std::thread::sleep(Duration::from_millis(400));
            Ok(wsp_wsdl::Value::Null)
        }
        fn handles(&self, endpoint: &str) -> bool {
            endpoint.starts_with("test://")
        }
        fn kind(&self) -> &'static str {
            "stall"
        }
    }
    let client = Client::new(EventBus::new());
    client.add_invoker(Arc::new(Stall));
    let started = std::time::Instant::now();
    let err = client
        .invoke_async(test_service(), "echoString", vec![])
        .wait_within(Duration::from_millis(50))
        .unwrap_err();
    assert!(
        matches!(
            err,
            WspError::Timeout {
                what: "call deadline",
                millis: 50
            }
        ),
        "watchdog classifies, got {err:?}"
    );
    assert!(
        started.elapsed() < Duration::from_millis(350),
        "the watchdog must not wait for the stalled job"
    );
}

#[test]
fn threaded_event_sequences_are_reproducible() {
    // Two fresh clients, identical scripted faults: identical attempt
    // counts and identical resilience action sequences.
    let run = || {
        let events = EventBus::new();
        let listener = wsp_core::CollectingListener::new();
        events.add_listener(listener.clone());
        let client = Client::new(events);
        // Two failures: enough to exercise retries without tripping the
        // endpoint's breaker (threshold 3).
        let flaky = Arc::new(Flaky {
            failures: 2,
            calls: Default::default(),
        });
        client.add_invoker(flaky.clone());
        let policy = ResiliencePolicy::retrying(6)
            .with_backoff(Duration::from_millis(1), 1.0, Duration::from_millis(1))
            .with_jitter(0.5)
            .with_jitter_seed(seed());
        let handle = client.invoke_async_with_policy(
            test_service(),
            "echoString",
            vec![wsp_wsdl::Value::string("x")],
            policy,
        );
        let token = handle.token();
        handle.wait().expect("recovers within budget");
        client.dispatcher().flush();
        let actions: Vec<String> = listener
            .resilience_for(token)
            .into_iter()
            .map(|e| format!("{:?}", e.action))
            .collect();
        (
            flaky.calls.load(std::sync::atomic::Ordering::SeqCst),
            actions,
        )
    };
    let (attempts_a, actions_a) = run();
    let (attempts_b, actions_b) = run();
    assert_eq!(attempts_a, attempts_b, "same seed ⇒ same attempt count");
    assert_eq!(actions_a, actions_b, "same seed ⇒ same event sequence");
    assert_eq!(attempts_a, 3, "two injected faults, then success");
}
