//! E10 — telemetry overhead and correlated reconstruction.
//!
//! Two claims to check. First, the **hot-path cost**: with the registry
//! disabled every record is one relaxed atomic load, so invoke latency
//! through the full dispatch pipeline must be indistinguishable
//! (target: p99 within 5%) from a build that never heard of telemetry;
//! with the registry enabled the added cost (histogram records, trace
//! spans, counter bumps) must stay small. Second, **reconstruction**: a
//! fault-injection run (dead endpoint, tripped breaker, failover) must
//! be fully replayable — attempts, breaker trips, failover, outcome —
//! from the correlation id of a single call in the `/metrics` text.

use crate::common::{mean, percentile_f64};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsp_core::telemetry;
use wsp_core::{
    Client, EventBus, Invoker, LocatedService, ResiliencePolicy, ServiceLocator, ServiceQuery,
    WspError,
};
use wsp_wsdl::{ServiceDescriptor, Value, WsdlDocument};

/// One instrumentation mode's invoke-latency profile.
#[derive(Debug, Clone)]
pub struct E10Overhead {
    pub mode: &'static str,
    pub calls: usize,
    pub mean_us: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// What one correlation id reconstructs after the fault run.
#[derive(Debug, Clone)]
pub struct E10Reconstruction {
    /// The resilient call's correlation token.
    pub token: u64,
    /// Spans carrying that token in the trace ring.
    pub spans: usize,
    /// Stage sequence of those spans, in order.
    pub stages: Vec<&'static str>,
    /// Wire/admission attempts against the dead endpoint (registry
    /// counter, whole run).
    pub dead_attempts: u64,
    /// Breaker trips recorded during the run.
    pub breaker_trips: u64,
    /// Whether the rendered `/metrics` text contains the call's
    /// correlation id.
    pub in_metrics_text: bool,
}

struct EchoInvoker;
impl Invoker for EchoInvoker {
    fn invoke(
        &self,
        _service: &LocatedService,
        _operation: &str,
        args: &[Value],
    ) -> Result<Value, WspError> {
        Ok(args.first().cloned().unwrap_or(Value::Null))
    }
    fn handles(&self, endpoint: &str) -> bool {
        endpoint.starts_with("test://")
    }
    fn kind(&self) -> &'static str {
        "echo"
    }
}

/// Fails every call against `poisoned`; echoes otherwise.
struct PartitionedInvoker {
    poisoned: String,
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
        if service.endpoint == self.poisoned {
            Err(WspError::Transport("injected: connection reset".into()))
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

/// Held by whichever of [`overhead`] and [`reconstruction`] is running:
/// both set the process-wide registry's `enabled` flag, and run side by
/// side (as the test harness runs them) one would switch the other's
/// spans off mid-run.
static REGISTRY_FLAG: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

fn service_at(endpoint: &str) -> LocatedService {
    LocatedService::new(
        WsdlDocument::new(ServiceDescriptor::echo(), vec![]),
        endpoint,
        wsp_core::BindingKind::HttpUddi,
    )
}

/// One interleaved A/B pass: `calls` invocations per mode in ABBA-
/// ordered batches, so both modes sample the same scheduler and
/// allocator conditions (a sequential A-then-B run confounds the
/// comparison with clock drift and cache warmth).
fn ab_pass(
    client: &Client,
    service: &LocatedService,
    payload: &[Value],
    calls: usize,
) -> [Vec<f64>; 2] {
    const BATCH: usize = 50;
    let registry = telemetry::global();
    let mut samples = [Vec::with_capacity(calls), Vec::with_capacity(calls)];
    let mut remaining = calls;
    let mut pair = 0usize;
    while remaining > 0 {
        let batch = BATCH.min(remaining);
        // ABBA ordering: alternate which mode runs first in each pair of
        // batches, so slow drift cannot systematically favour one mode.
        let order = if pair.is_multiple_of(2) {
            [0, 1]
        } else {
            [1, 0]
        };
        for mode in order {
            registry.set_enabled(mode == 1);
            for _ in 0..batch {
                let start = Instant::now();
                client
                    .invoke(service, "echoString", payload)
                    .expect("invoke");
                samples[mode].push(start.elapsed().as_secs_f64() * 1e6);
            }
        }
        pair += 1;
        remaining -= batch;
    }
    samples
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    values[values.len() / 2]
}

/// The A/B: the same client, the same invoke pipeline, registry off vs
/// on. Runs five interleaved passes and reports the element-wise
/// median per mode — single-pass p99 over a few-microsecond pipeline
/// jumps double digits with scheduler mood, and the median of passes is
/// the standard robust estimator for that. Restores the registry's
/// prior state so E10 never perturbs other experiments running in the
/// same process.
pub fn overhead(calls: usize) -> Vec<E10Overhead> {
    const PASSES: usize = 5;
    let _flag = REGISTRY_FLAG.lock();
    let registry = telemetry::global();
    let was_enabled = registry.is_enabled();
    let client = Client::new(EventBus::new());
    client.add_invoker(Arc::new(EchoInvoker));
    let service = service_at("test://e10/Echo");
    let payload = [Value::string("ping")];
    for enabled in [false, true] {
        registry.set_enabled(enabled);
        for _ in 0..50 {
            client
                .invoke(&service, "echoString", &payload)
                .expect("warmup");
        }
    }
    let mut stats: [Vec<(f64, f64, f64)>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..PASSES {
        let pass = ab_pass(&client, &service, &payload, calls);
        for (mode, samples) in pass.iter().enumerate() {
            stats[mode].push((
                mean(samples),
                percentile_f64(samples, 50.0),
                percentile_f64(samples, 99.0),
            ));
        }
    }
    registry.set_enabled(was_enabled);
    ["disabled", "enabled"]
        .into_iter()
        .zip(&stats)
        .map(|(mode, passes)| E10Overhead {
            mode,
            calls,
            mean_us: median(passes.iter().map(|p| p.0).collect()),
            p50_us: median(passes.iter().map(|p| p.1).collect()),
            p99_us: median(passes.iter().map(|p| p.2).collect()),
        })
        .collect()
}

/// The fault-injection run: trip a dead endpoint's breaker, then make
/// one resilient call that gets rejected by the open breaker, fails
/// over, and succeeds — and reconstruct all of it from the call's
/// correlation id.
pub fn reconstruction() -> E10Reconstruction {
    let _flag = REGISTRY_FLAG.lock();
    let registry = telemetry::global();
    let was_enabled = registry.is_enabled();
    registry.set_enabled(true);
    let dead = "test://e10-dead/Echo";
    let alive = "test://e10-alive/Echo";
    let client = Client::new(EventBus::new());
    client.set_locator(Arc::new(FixedLocator(vec![
        service_at(dead),
        service_at(alive),
    ])));
    client.add_invoker(Arc::new(PartitionedInvoker {
        poisoned: dead.to_owned(),
        calls: AtomicU32::new(0),
    }));
    let trips_before = registry.counter("breaker.trips").get();

    // Three single-shot failures trip the dead endpoint's breaker.
    for _ in 0..3 {
        let _ = client.invoke_with_policy(
            &service_at(dead),
            "echoString",
            &[Value::string("x")],
            ResiliencePolicy::none(),
        );
    }
    // The observed call: open breaker -> failover -> success.
    let policy = ResiliencePolicy::retrying(4).with_backoff(Duration::ZERO, 1.0, Duration::ZERO);
    let handle = client.invoke_async_with_policy(
        service_at(dead),
        "echoString",
        vec![Value::string("rerouted")],
        policy,
    );
    let token = handle.token();
    handle.wait().expect("failover call succeeds");

    let trace = registry.trace_for(token);
    let rendered = telemetry::render_metrics(registry);
    let result = E10Reconstruction {
        token,
        spans: trace.len(),
        stages: trace.iter().map(|e| e.stage).collect(),
        dead_attempts: registry
            .counter(format!("client.attempts{{endpoint={dead}}}"))
            .get(),
        breaker_trips: registry.counter("breaker.trips").get() - trips_before,
        in_metrics_text: rendered.contains(&format!("corr={token}")),
    };
    registry.set_enabled(was_enabled);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_rows_have_both_modes() {
        let rows = overhead(50);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].mode, "disabled");
        assert_eq!(rows[1].mode, "enabled");
        assert!(rows.iter().all(|r| r.p99_us >= r.p50_us));
    }

    #[test]
    fn reconstruction_recovers_the_full_story() {
        let r = reconstruction();
        assert!(r.spans >= 3, "{r:?}");
        assert!(r.stages.contains(&"resilience.attempt_failed"), "{r:?}");
        assert!(r.stages.contains(&"resilience.failed_over"), "{r:?}");
        assert!(r.stages.contains(&"client.ok"), "{r:?}");
        assert!(r.dead_attempts >= 4, "{r:?}");
        assert!(r.breaker_trips >= 1, "{r:?}");
        assert!(r.in_metrics_text, "{r:?}");
    }
}
