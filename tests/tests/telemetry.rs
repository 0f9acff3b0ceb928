//! Cross-crate telemetry integration: the histogram agrees with exact
//! order statistics, the container-less host serves `/metrics`, and a
//! faulty multi-attempt invocation is reconstructable from a single
//! correlation id.
//!
//! All tests share the process-wide registry, so they enable it and
//! never disable it, and every assertion keys on names (services,
//! endpoints, correlation tokens) unique to that test.

use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsp_core::bindings::HttpUddiBinding;
use wsp_core::telemetry::{self, bucket_bounds, bucket_index};
use wsp_core::{
    Client, EventBus, Invoker, LocatedService, Peer, ResiliencePolicy, ServiceLocator,
    ServiceQuery, Telemetry, WspError,
};
use wsp_http::{http_call, Request};
use wsp_simnet::Summary;
use wsp_wsdl::{ServiceDescriptor, Value, WsdlDocument};

const SEED: u64 = 2005;

// --- histogram vs exact percentiles -----------------------------------------

/// The log-bucketed histogram's nearest-rank percentiles must land in
/// the same bucket as the exact (sorted) nearest-rank percentile — i.e.
/// within one bucket width, which by construction is within 1/16
/// relative error.
#[test]
fn histogram_percentiles_track_exact_summary_within_one_bucket() {
    let registry = Telemetry::new();
    registry.set_enabled(true);
    let mut rng = StdRng::seed_from_u64(SEED);
    for (name, samples) in [
        ("uniform", 10_000usize),
        ("skewed", 5_000),
        ("tiny", 3),
        ("single", 1),
    ] {
        let histogram = registry.histogram(name);
        let mut exact: Vec<u64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let value = match name {
                // Heavy tail: most samples small, occasional huge.
                "skewed" => {
                    if rng.random_bool(0.01) {
                        rng.random_range(1_000_000u64..100_000_000)
                    } else {
                        rng.random_range(1u64..5_000)
                    }
                }
                _ => rng.random_range(0u64..1_000_000),
            };
            histogram.record(value);
            exact.push(value);
        }
        let snapshot = histogram.snapshot();
        let summary = Summary::of(&exact).unwrap();
        assert_eq!(snapshot.count, exact.len() as u64, "{name}");
        for (estimated, truth, label) in [
            (snapshot.p50(), summary.p50, "p50"),
            (snapshot.p90(), summary.p90, "p90"),
            (snapshot.p99(), summary.p99, "p99"),
        ] {
            let truth_bucket = bucket_index(truth);
            assert_eq!(
                bucket_index(estimated),
                truth_bucket,
                "{name}/{label}: {estimated} vs exact {truth}"
            );
            let (low, high) = bucket_bounds(truth_bucket);
            assert!(
                estimated.abs_diff(truth) <= high - low,
                "{name}/{label}: {estimated} more than one bucket from {truth}"
            );
        }
        assert_eq!(snapshot.max, summary.max, "{name}: max is exact");
    }
}

/// Merging per-run snapshots must agree with one histogram that saw
/// all samples — the property that makes cross-seed aggregation sound.
#[test]
fn merged_snapshots_equal_single_histogram_over_union() {
    let registry = Telemetry::new();
    registry.set_enabled(true);
    let combined = registry.histogram("combined");
    let part_a = registry.histogram("part_a");
    let part_b = registry.histogram("part_b");
    let mut rng = StdRng::seed_from_u64(SEED ^ 1);
    for i in 0..4_000u64 {
        let value = rng.random_range(0u64..1_000_000);
        combined.record(value);
        if i % 2 == 0 {
            part_a.record(value);
        } else {
            part_b.record(value);
        }
    }
    let mut merged = part_a.snapshot();
    merged.merge(&part_b.snapshot());
    let whole = combined.snapshot();
    assert_eq!(merged.count, whole.count);
    assert_eq!(merged.sum, whole.sum);
    assert_eq!(merged.max, whole.max);
    assert_eq!(
        (merged.p50(), merged.p90(), merged.p99()),
        (whole.p50(), whole.p90(), whole.p99()),
    );
}

// --- /metrics over real HTTP ------------------------------------------------

/// Deploy a service on the standard binding, invoke it over real HTTP,
/// then scrape the host's `/metrics` route: the counters, histograms,
/// pool/dispatcher gauges and the trace section must all be there.
#[test]
fn metrics_route_served_by_container_less_host() {
    telemetry::global().set_enabled(true);
    let events = EventBus::new();
    let binding = HttpUddiBinding::with_local_registry(wsp_uddi::Registry::new(), events.clone());
    let peer = Peer::with_event_bus(events);
    peer.attach(&binding);
    peer.server()
        .deploy_and_publish(
            ServiceDescriptor::echo(),
            Arc::new(|_op: &str, args: &[Value]| Ok(args[0].clone())),
        )
        .unwrap();
    let service = peer
        .client()
        .locate_one(&ServiceQuery::by_name("Echo"))
        .unwrap();
    let handle =
        peer.client()
            .invoke_async(service, "echoString", vec![Value::string("observable")]);
    let token = handle.token();
    assert_eq!(handle.wait().unwrap(), Value::string("observable"));

    let port = binding.host_port().expect("deployment launched the host");
    let response = http_call("127.0.0.1", port, Request::get("/metrics")).unwrap();
    assert!(response.is_success());
    let body = response.body_str();
    for needle in [
        "client.invoke_us_count",
        "client.invoke_us_p99",
        "dispatch.run_us_count",
        "dispatch.queue_wait_us_count",
        "server.serve_us_count",
        "reactor.jobs_on_reader",
        "reactor.jobs_queued",
        "reactor.handlers_busy",
        "http_pool_hits",
        "http_pool_misses",
        "dispatch_submitted",
        "dispatch_workers",
        "# trace (most recent spans)",
    ] {
        assert!(body.contains(needle), "missing {needle:?} in:\n{body}");
    }
    // The reactor's hand-off counters: the requests above ran on the
    // threads that read them, and this very scrape is inside a handler.
    let metric = |name: &str| -> u64 {
        body.lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
            .unwrap_or_else(|| panic!("no value for {name:?}"))
    };
    assert!(metric("reactor.jobs_on_reader ") >= 1);
    assert!(metric("reactor.handlers_busy ") >= 1);
    // Caller-run jobs (the synchronous locate above) still leave a
    // queue-wait sample, so the two histograms count the same jobs.
    assert!(metric("dispatch.queue_wait_us_count ") >= 2);

    // The invoke above is reconstructable from the scrape alone: its
    // correlation id appears on client- and server-side spans.
    let corr = format!("corr={token}");
    let stages: Vec<&str> = body
        .lines()
        .filter(|l| l.contains(&corr))
        .flat_map(|l| l.split_whitespace().find(|w| w.starts_with("stage=")))
        .collect();
    for stage in [
        "stage=http.request",
        "stage=server.request",
        "stage=server.response",
        "stage=http.response",
        "stage=client.ok",
    ] {
        assert!(stages.contains(&stage), "missing {stage} in {stages:?}");
    }
}

// --- correlated reconstruction under faults ---------------------------------

/// Fails every call to endpoints it was told to poison; echoes
/// otherwise. Counts attempts per endpoint.
struct PartitionedInvoker {
    poisoned: Vec<String>,
    calls: AtomicU32,
}

impl Invoker for PartitionedInvoker {
    fn invoke(
        &self,
        service: &LocatedService,
        _operation: &str,
        args: &[Value],
    ) -> Result<Value, WspError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        if self.poisoned.contains(&service.endpoint) {
            Err(WspError::Transport("connection reset".into()))
        } else {
            Ok(args.first().cloned().unwrap_or(Value::Null))
        }
    }
    fn handles(&self, endpoint: &str) -> bool {
        endpoint.starts_with("test://")
    }
    fn kind(&self) -> &'static str {
        "partitioned"
    }
}

struct FixedLocator(Vec<LocatedService>);
impl ServiceLocator for FixedLocator {
    fn locate(&self, _query: &ServiceQuery) -> Result<Vec<LocatedService>, WspError> {
        Ok(self.0.clone())
    }
    fn kind(&self) -> &'static str {
        "fixed"
    }
}

fn service_at(endpoint: &str) -> LocatedService {
    LocatedService::new(
        WsdlDocument::new(ServiceDescriptor::echo(), vec![]),
        endpoint,
        wsp_core::BindingKind::HttpUddi,
    )
}

/// Kill one endpoint until its breaker trips, then make a resilient
/// call: every stage of the multi-attempt invocation — failed attempt,
/// breaker trip, failover, recovery — is reconstructable from the
/// correlation ids in the trace and the `/metrics` text.
#[test]
fn faulty_invocation_reconstructed_from_correlation_ids() {
    let registry = telemetry::global();
    registry.set_enabled(true);
    let dead = "test://telemetry-dead/Echo";
    let alive = "test://telemetry-alive/Echo";
    let events = EventBus::new();
    let client = Client::new(events);
    client.set_locator(Arc::new(FixedLocator(vec![
        service_at(dead),
        service_at(alive),
    ])));
    client.add_invoker(Arc::new(PartitionedInvoker {
        poisoned: vec![dead.to_owned()],
        calls: AtomicU32::new(0),
    }));

    // Trip the dead endpoint's breaker (threshold 3) with no-retry,
    // no-failover calls; remember the call that crossed the threshold.
    let no_retry = ResiliencePolicy::none();
    let mut trip_token = 0;
    for _ in 0..3 {
        let handle = client.invoke_async_with_policy(
            service_at(dead),
            "echoString",
            vec![Value::string("x")],
            no_retry.clone(),
        );
        trip_token = handle.token();
        assert!(handle.wait().is_err());
    }
    let trip_trace = registry.trace_for(trip_token);
    assert!(
        trip_trace
            .iter()
            .any(|e| e.stage == "resilience.breaker_tripped"),
        "third failure trips under its own correlation id: {trip_trace:?}"
    );

    // The resilient call: rejected by the open breaker, fails over to
    // the healthy endpoint, succeeds on attempt two.
    let policy = ResiliencePolicy::retrying(4).with_backoff(Duration::ZERO, 1.0, Duration::ZERO);
    let handle = client.invoke_async_with_policy(
        service_at(dead),
        "echoString",
        vec![Value::string("rerouted")],
        policy,
    );
    let token = handle.token();
    assert_eq!(handle.wait().unwrap(), Value::string("rerouted"));

    let stages: Vec<&'static str> = registry.trace_for(token).iter().map(|e| e.stage).collect();
    for stage in [
        "resilience.attempt_failed",
        "resilience.failed_over",
        "client.ok",
    ] {
        assert!(stages.contains(&stage), "missing {stage} in {stages:?}");
    }
    // And the same story is visible in the rendered /metrics text:
    // per-endpoint attempt counters plus the correlated trace lines.
    let rendered = telemetry::render_metrics(registry);
    assert!(rendered.contains(&format!("client.attempts{{endpoint={dead}}}")));
    assert!(rendered.contains(&format!("client.attempts{{endpoint={alive}}}")));
    assert!(rendered.contains("breaker.trips"));
    let corr = format!("corr={token}");
    assert!(
        rendered.lines().any(|l| l.contains(&corr)),
        "trace lines for the call present in /metrics output"
    );
}

/// `client.attempts{endpoint=…}` cannot grow with every endpoint a
/// client ever called — a host that redeploys mints a fresh one each
/// time. After 10^5 distinct endpoints the client has named 64 and
/// counted the rest under `endpoint=other`, and the registry is still
/// a few hundred series.
#[test]
fn endpoint_label_cardinality_is_bounded() {
    const ENDPOINTS: usize = 100_000;
    let registry = telemetry::global();
    registry.set_enabled(true);
    let client = Client::new(EventBus::new());
    client.add_invoker(Arc::new(PartitionedInvoker {
        poisoned: vec![],
        calls: AtomicU32::new(0),
    }));
    let mut service = service_at("test://cardinality/Echo");
    for i in 0..ENDPOINTS {
        service.endpoint = format!("test://cardinality-{i}/Echo");
        client
            .invoke(&service, "echoString", &[Value::string("x")])
            .unwrap();
    }
    let counters = registry.snapshot().counters;
    let named = counters
        .keys()
        .filter(|name| name.starts_with("client.attempts{endpoint=test://cardinality-"))
        .count();
    assert_eq!(named, 64, "the first 64 endpoints keep their own series");
    // Shared with every client in the process; ours alone put this many.
    let other = counters["client.attempts{endpoint=other}"];
    assert!(other >= (ENDPOINTS - 64) as u64, "other = {other}");
    assert!(
        counters.len() < 1_000,
        "{} counter series after {ENDPOINTS} endpoints",
        counters.len()
    );
}

/// The breaker map behind those endpoints is bounded the same way:
/// 10^5 healthy endpoints leave it at or under its ceiling (a breaker
/// with nothing to remember is forgotten), while the one endpoint that
/// tripped is still open afterwards.
#[test]
fn endpoint_breaker_map_is_bounded() {
    use wsp_core::health::{
        Admission, BreakerConfig, BreakerState, EndpointHealth, MAX_TRACKED_ENDPOINTS,
    };
    let health = EndpointHealth::new(BreakerConfig {
        failure_threshold: 1,
        cooldown: Duration::from_secs(3600),
    });
    let now = Instant::now();
    assert!(health.breaker("test://tripped/Echo").on_failure(now));
    for i in 0..100_000 {
        let breaker = health.breaker(&format!("test://healthy-{i}/Echo"));
        assert_eq!(breaker.try_acquire(now), Admission::Allowed);
        breaker.on_success(now);
    }
    let tracked = health.snapshot(now).len();
    assert!(
        tracked <= MAX_TRACKED_ENDPOINTS,
        "{tracked} breakers tracked"
    );
    assert_eq!(
        health.breaker("test://tripped/Echo").state(now),
        BreakerState::Open
    );
}

// --- concurrent scrape under overload ----------------------------------------

/// Scraper threads render the `/metrics` text and take histogram
/// snapshots continuously while burst threads hammer an admission
/// controller past its limits. Every observation must be internally
/// consistent — counts never move backwards, percentile estimates stay
/// inside the recorded value range — and the final admitted/shed split
/// accounts for every attempt. Guards against torn reads in the
/// lock-free counters and histogram buckets.
#[test]
fn metrics_scrape_is_consistent_during_overload_burst() {
    use std::sync::atomic::AtomicBool;
    use wsp_core::overload::ANONYMOUS_TENANT;
    use wsp_core::{KeyedAdmissionController, KeyedLoadShedPolicy};

    let registry = telemetry::global();
    registry.set_enabled(true);
    // Register the admission counters up front so every scrape sees
    // them, then remember the baseline (other tests share the registry).
    let admitted_counter = registry.counter("admission.admitted");
    let shed_counter = registry.counter("admission.shed");
    let admitted_before = admitted_counter.get();
    let shed_before = shed_counter.get();

    // Queue cap 8; every 4th attempt reports a deep queue and must be
    // shed deterministically. In-flight cap 4 with 4 single-permit
    // threads means the rest are admitted deterministically.
    let controller = Arc::new(KeyedAdmissionController::new(KeyedLoadShedPolicy::bounded(
        4, 8,
    )));
    let histogram = registry.histogram("overload_scrape_us");
    let stop = Arc::new(AtomicBool::new(false));

    const BURST_THREADS: usize = 4;
    const ATTEMPTS_PER_THREAD: usize = 500;
    let mut workers = Vec::new();
    for t in 0..BURST_THREADS {
        let controller = Arc::clone(&controller);
        let histogram = Arc::clone(&histogram);
        workers.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(SEED ^ (t as u64 + 11));
            let mut admitted = 0usize;
            for attempt in 0..ATTEMPTS_PER_THREAD {
                let queue_depth = if attempt % 4 == 3 { 64 } else { 0 };
                match controller.try_admit_at(ANONYMOUS_TENANT, queue_depth, None) {
                    Ok(_permit) => {
                        admitted += 1;
                        histogram.record(rng.random_range(1u64..50_000));
                        std::thread::yield_now();
                    }
                    Err(WspError::Overloaded { retry_after_ms }) => {
                        assert!(retry_after_ms.is_some(), "every shed carries a hint");
                    }
                    Err(other) => panic!("unexpected admission error: {other}"),
                }
            }
            admitted
        }));
    }

    const SCRAPERS: usize = 3;
    let mut scrapers = Vec::new();
    for _ in 0..SCRAPERS {
        let stop = Arc::clone(&stop);
        let histogram = Arc::clone(&histogram);
        scrapers.push(std::thread::spawn(move || {
            let registry = telemetry::global();
            let mut last_histogram_count = 0u64;
            let mut last_admitted = 0u64;
            let mut scrapes = 0usize;
            // Scrape, then look at `stop`: on a loaded machine the burst
            // can be over before this thread is first scheduled, and the
            // scrape right after it must be as consistent as any other.
            loop {
                let snapshot = histogram.snapshot();
                assert!(
                    snapshot.count >= last_histogram_count,
                    "histogram count went backwards: {} < {last_histogram_count}",
                    snapshot.count
                );
                last_histogram_count = snapshot.count;
                if snapshot.count > 0 {
                    assert!(snapshot.p50() <= snapshot.p99(), "percentiles ordered");
                    assert!(snapshot.max < 50_000, "max within the recorded range");
                    assert!(snapshot.sum >= snapshot.count, "every sample is >= 1");
                    let (_, high) = bucket_bounds(bucket_index(snapshot.max));
                    assert!(
                        snapshot.p99() <= high,
                        "p99 {} above the max bucket {high}",
                        snapshot.p99()
                    );
                }
                let rendered = telemetry::render_metrics(registry);
                let admitted_now = rendered
                    .lines()
                    .find_map(|line| {
                        let mut parts = line.split_whitespace();
                        (parts.next() == Some("admission.admitted"))
                            .then(|| parts.next())
                            .flatten()
                    })
                    .and_then(|value| value.parse::<u64>().ok())
                    .expect("admission.admitted rendered on every scrape");
                assert!(
                    admitted_now >= last_admitted,
                    "admitted counter went backwards: {admitted_now} < {last_admitted}"
                );
                last_admitted = admitted_now;
                scrapes += 1;
                if stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            scrapes
        }));
    }

    let locally_admitted: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
    stop.store(true, Ordering::SeqCst);
    for scraper in scrapers {
        assert!(scraper.join().unwrap() > 0, "scraper observed the burst");
    }

    let total = BURST_THREADS * ATTEMPTS_PER_THREAD;
    let deterministic_sheds = total / 4;
    assert_eq!(locally_admitted, total - deterministic_sheds);
    assert_eq!(histogram.snapshot().count, locally_admitted as u64);
    assert!(admitted_counter.get() - admitted_before >= locally_admitted as u64);
    assert!(shed_counter.get() - shed_before >= deterministic_sheds as u64);
}
