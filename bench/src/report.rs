//! Metric tables and the result document: every metric is printed by
//! name with its unit, and written to JSON under the same name.

use crate::json::Json;
use crate::stats::Spread;
use crate::Better::{self, Higher, Lower};
use wsp_core::{HistogramSnapshot, TelemetrySnapshot};

/// A per-layer metric: name, unit, direction. No bound — these explain
/// an end-to-end change, they do not gate one.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The ladder: isolated microbenchmarks with one caller, one group per
/// crate.
pub const LADDER: [PerLayer; 41] = [
    m("xml.parse_small_ns", "ns", Lower),
    m("xml.parse_large_ns", "ns", Lower),
    m("xml.write_small_ns", "ns", Lower),
    m("xml.write_large_ns", "ns", Lower),
    m("xml.parse_large_allocs", "count", Lower),
    m("xml.write_large_allocs", "count", Lower),
    m("soap.decode_small_ns", "ns", Lower),
    m("soap.decode_large_ns", "ns", Lower),
    m("soap.encode_small_ns", "ns", Lower),
    m("soap.encode_large_ns", "ns", Lower),
    m("soap.roundtrip_small_allocs", "count", Lower),
    m("wsdl.proxy_encode_ns", "ns", Lower),
    m("wsdl.proxy_decode_ns", "ns", Lower),
    m("wsdl.engine_process_ns", "ns", Lower),
    m("wsdl.generate_us", "us", Lower),
    m("wsdl.parse_us", "us", Lower),
    m("http.encode_request_ns", "ns", Lower),
    m("http.parse_request_ns", "ns", Lower),
    m("http.encode_response_ns", "ns", Lower),
    m("http.parse_response_ns", "ns", Lower),
    m("http.head_scan_large_ns", "ns", Lower),
    m("http.echo_keepalive_us", "us", Lower),
    m("http.echo_fresh_us", "us", Lower),
    m("core.dispatch_roundtrip_ns", "ns", Lower),
    m("core.admission_admit_ns", "ns", Lower),
    m("core.telemetry_record_ns", "ns", Lower),
    m("uddi.find_inproc_us", "us", Lower),
    m("uddi.save_inproc_us", "us", Lower),
    m("registry.locate_inproc_us", "us", Lower),
    m("registry.publish_inproc_us", "us", Lower),
    m("registry.locate_http_us", "us", Lower),
    m("registry.data_versions_http_us", "us", Lower),
    m("gateway.invoke_hit_us", "us", Lower),
    m("gateway.invoke_miss_us", "us", Lower),
    m("gateway.cache_get_response_ns", "ns", Lower),
    m("gateway.cache_put_response_ns", "ns", Lower),
    m("gateway.pool_pick_ns", "ns", Lower),
    m("p2ps.frame_codec_ns", "ns", Lower),
    m("p2ps.pipe_call_us", "us", Lower),
    m("p2ps.thread_pipe_rtt_us", "us", Lower),
    m("simnet.wheel_schedule_fire_ns", "ns", Lower),
];

/// The traced run: span self times, counts at the same boundaries,
/// deltas of series the programs export, and diagnostics. A name that
/// does not apply to a workload reads 0 there.
pub const TRACED: [PerLayer; 35] = [
    m("trace.op_p50_us", "us", Lower),
    m("trace.client_encode_us", "us", Lower),
    m("trace.client_wire_us", "us", Lower),
    m("trace.client_decode_us", "us", Lower),
    m("trace.handler_us", "us", Lower),
    m("trace.server_residual_us", "us", Lower),
    m("trace.mediation_us", "us", Lower),
    m("trace.registry_handler_us", "us", Lower),
    m("trace.core_client_us", "us", Lower),
    m("lifecycle.deploy_publish_us", "us", Lower),
    m("lifecycle.locate_us", "us", Lower),
    m("lifecycle.invoke_us", "us", Lower),
    m("lifecycle.undeploy_us", "us", Lower),
    m("discovery.locate_p50_us", "us", Lower),
    m("discovery.publish_p50_us", "us", Lower),
    m("trace.backend_calls_per_op", "1/op", Lower),
    m("trace.registry_calls_per_op", "1/op", Lower),
    m("tcp.active_opens_per_op", "1/op", Lower),
    m("tcp.time_wait_end", "count", Lower),
    m("sched.ctx_switches_per_op", "1/op", Lower),
    m("alloc.allocs_per_op", "1/op", Lower),
    m("alloc.bytes_per_op", "B/op", Lower),
    m("dispatch.queue_wait_p50_us", "us", Lower),
    m("dispatch.run_p50_us", "us", Lower),
    m("server.serve_p50_us", "us", Lower),
    m("registry.locate_rtt_p50_us", "us", Lower),
    m("registry.publish_rtt_p50_us", "us", Lower),
    m("gateway.cache.response_hit_ratio", "ratio", Higher),
    m("gateway.cache.locate_hit_ratio", "ratio", Higher),
    m("gateway.backend_failovers", "count", Lower),
    m("latency_p99_us", "us", Lower),
    m("latency_p999_us", "us", Lower),
    m("latency_max_us", "us", Lower),
    m("trace.overhead_ratio", "ratio", Lower),
    m("trace.accounted_ratio", "ratio", Higher),
];

pub fn per_layer() -> impl Iterator<Item = &'static PerLayer> {
    LADDER.iter().chain(TRACED.iter())
}

/// Measured values by metric name, in the order they were added.
#[derive(Debug, Default, Clone)]
pub struct Values(pub Vec<(&'static str, Spread)>);

impl Values {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0.push((name, Spread::single(value)));
    }

    pub fn put_spread(&mut self, name: &'static str, value: Spread) {
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<Spread> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// `{"name": {"value": .., "unit": .., "low": .., "high": ..}, ..}` for
/// every metric of `table`, 0 where `values` has none.
pub fn metrics_json<'a>(
    table: impl Iterator<Item = (&'a str, &'a str)>,
    values: &Values,
    with_range: bool,
) -> Json {
    let mut out = Json::obj();
    for (name, unit) in table {
        let v = values.get(name).unwrap_or_default();
        let mut entry = Json::obj().with("value", v.median).with("unit", unit);
        if with_range {
            entry = entry.with("low", v.low).with("high", v.high);
        }
        out.set(name, entry);
    }
    out
}

/// Print `name value unit [range]` lines under `title`.
pub fn print_metrics<'a>(
    title: &str,
    table: impl Iterator<Item = (&'a str, &'a str)>,
    values: &Values,
) {
    println!("-- {title}");
    for (name, unit) in table {
        let v = values.get(name).unwrap_or_default();
        // Seconds and ratios need more decimals than microseconds.
        let digits = if v.median.abs() < 10.0 { 6 } else { 3 };
        if v.low == v.high {
            println!("{name:<36} {:>14.digits$} {unit}", v.median);
        } else {
            println!(
                "{name:<36} {:>14.digits$} {unit}  [range {:.digits$} .. {:.digits$}]",
                v.median, v.low, v.high
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Deltas of the series the programs already export
// ---------------------------------------------------------------------------

/// `after - before` of one histogram, bucket by bucket.
pub fn histogram_delta(
    before: Option<&HistogramSnapshot>,
    after: Option<&HistogramSnapshot>,
) -> HistogramSnapshot {
    let Some(after) = after else {
        return HistogramSnapshot::default();
    };
    let mut delta = after.clone();
    if let Some(before) = before {
        for (d, b) in delta.buckets.iter_mut().zip(&before.buckets) {
            *d = d.saturating_sub(*b);
        }
        delta.count = delta.count.saturating_sub(before.count);
        delta.sum = delta.sum.saturating_sub(before.sum);
    }
    delta
}

/// p50 (µs) of what `name` recorded between two snapshots; 0 if it
/// recorded nothing.
pub fn histogram_p50_between(
    before: &TelemetrySnapshot,
    after: &TelemetrySnapshot,
    name: &str,
) -> f64 {
    histogram_delta(before.histogram(name), after.histogram(name)).p50() as f64
}

pub fn counter_between(before: &TelemetrySnapshot, after: &TelemetrySnapshot, name: &str) -> u64 {
    after.counter(name).saturating_sub(before.counter(name))
}

/// `hits / (hits + misses)` between two snapshots; 0 with no lookups.
pub fn hit_ratio_between(
    before: &TelemetrySnapshot,
    after: &TelemetrySnapshot,
    prefix: &str,
) -> f64 {
    let hits = counter_between(before, after, &format!("{prefix}.hit"));
    let misses = counter_between(before, after, &format!("{prefix}.miss"));
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Length of the measured window a driver asks for (`run_seconds` of
/// `BENCHMARK.json`) and a run that names none uses.
pub const RUN_SECONDS: u64 = 10;

/// The content of `/BENCHMARK.json`, generated from the tables above so
/// that the file and the binary cannot name different metrics
/// (`wspeer-bench manifest` prints it; a unit test compares).
pub fn benchmark_manifest() -> Json {
    let described = |name: &str, unit: &str, better: Better| {
        Json::obj()
            .with("name", name)
            .with("unit", unit)
            .with("better", better.as_str())
    };
    Json::obj()
        .with(
            "command",
            vec![Json::from("bash"), Json::from("bench/run.sh")],
        )
        .with("paths", vec![Json::from("bench")])
        .with("run_seconds", RUN_SECONDS)
        .with(
            "workloads",
            crate::WORKLOADS
                .iter()
                .map(|w| Json::obj().with("name", w.name).with("why", w.why))
                .collect::<Vec<_>>(),
        )
        .with(
            "end_to_end",
            crate::END_TO_END
                .iter()
                .map(|e| described(e.name, e.unit, e.better).with("bound", e.bound))
                .collect::<Vec<_>>(),
        )
        .with(
            "per_layer",
            per_layer()
                .map(|p| described(p.name, p.unit, p.better))
                .collect::<Vec<_>>(),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_repository_root_matches_the_tables() {
        let file = include_str!("../../BENCHMARK.json");
        assert_eq!(
            crate::json::parse(file).expect("BENCHMARK.json parses"),
            benchmark_manifest(),
            "regenerate with `bench/run.sh manifest > BENCHMARK.json`"
        );
        for w in &crate::WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(file.len() <= 64 * 1024);
    }

    #[test]
    fn metric_tables_have_unique_contract_conforming_names() {
        let mut seen = std::collections::BTreeSet::new();
        let names = crate::END_TO_END
            .iter()
            .map(|e| (e.name, e.unit))
            .chain(per_layer().map(|p| (p.name, p.unit)));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} / {unit}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert_eq!(LADDER.len(), 41);
        assert!(per_layer().count() <= 128);
    }

    #[test]
    fn histogram_delta_subtracts_bucketwise() {
        let t = wsp_core::Telemetry::new();
        let h = t.histogram("x");
        for _ in 0..100 {
            h.record(10);
        }
        let before = t.snapshot();
        for _ in 0..100 {
            h.record(1_000);
        }
        let after = t.snapshot();
        // All 200 samples: p50 is 10. The window's 100: p50 is ~1000.
        assert_eq!(after.histogram("x").unwrap().p50(), 10);
        let p50 = histogram_p50_between(&before, &after, "x");
        assert!((960.0..=1_000.0).contains(&p50), "{p50}");
        assert_eq!(histogram_p50_between(&before, &after, "absent"), 0.0);
    }

    #[test]
    fn hit_ratio_counts_only_the_window() {
        let t = wsp_core::Telemetry::new();
        t.counter("c.hit").add(50);
        t.counter("c.miss").add(50);
        let before = t.snapshot();
        t.counter("c.hit").add(98);
        t.counter("c.miss").add(2);
        let after = t.snapshot();
        assert_eq!(hit_ratio_between(&before, &after, "c"), 0.98);
        assert_eq!(hit_ratio_between(&after, &after, "c"), 0.0);
    }

    #[test]
    fn metrics_json_lists_every_name_and_defaults_to_zero() {
        let mut values = Values::default();
        values.put_spread(
            "throughput_ops_s",
            Spread {
                median: 10.5,
                low: 9.0,
                high: 12.0,
            },
        );
        let doc = metrics_json(
            crate::END_TO_END.iter().map(|e| (e.name, e.unit)),
            &values,
            true,
        );
        assert_eq!(doc.fields().len(), crate::END_TO_END.len());
        let t = doc.get("throughput_ops_s").unwrap();
        assert_eq!(t.get("value").unwrap().as_f64(), Some(10.5));
        assert_eq!(t.get("low").unwrap().as_f64(), Some(9.0));
        assert_eq!(t.get("unit").unwrap().as_str(), Some("ops/s"));
        let missing = doc.get("setup_s").unwrap();
        assert_eq!(missing.get("value").unwrap().as_f64(), Some(0.0));
    }
}
