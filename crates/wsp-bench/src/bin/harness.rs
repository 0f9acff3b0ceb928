//! The experiment harness: regenerates every table in `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run --release -p wsp-bench --bin harness           # full sweeps
//! cargo run --release -p wsp-bench --bin harness -- quick  # smaller sweeps
//! ```

use wsp_bench::common::render_table;
use wsp_bench::{a1, a2, e1, e10, e11, e12, e2, e3, e4, e5, e6, e7, e8, e9};

// E12's allocations-per-call table needs every heap allocation counted;
// installing the counter here (and only here) keeps the library and its
// tests on the plain system allocator.
#[global_allocator]
static ALLOC: wsp_bench::alloc_count::CountingAllocator = wsp_bench::alloc_count::CountingAllocator;

fn main() {
    let quick = std::env::args().any(|a| a == "quick");
    let seed = 2005; // the year of the paper
    println!("WSPeer reproduction harness (seed {seed}, quick={quick})");

    // E1 — registry bottleneck.
    let rows: Vec<Vec<String>> = if quick {
        [1, 8, 64]
            .into_iter()
            .map(|c| e1::run(c, 5, 5, 1, seed))
            .collect::<Vec<_>>()
    } else {
        e1::sweep(seed)
    }
    .iter()
    .map(|r| {
        vec![
            r.clients.to_string(),
            r.completed.to_string(),
            format!("{:.0}", r.throughput_rps),
            format!("{:.1}", r.mean_ms),
            format!("{:.1}", r.p99_ms),
        ]
    })
    .collect();
    println!(
        "{}",
        render_table(
            "E1  central registry bottleneck (5ms service, 1 worker, closed-loop clients)",
            &[
                "clients",
                "completed",
                "throughput rps",
                "mean ms",
                "p99 ms"
            ],
            &rows,
        )
    );

    // E2 — P2P discovery scaling.
    let e2_rows = if quick {
        vec![e2::run(5, 10, 10, seed), e2::run(20, 10, 10, seed)]
    } else {
        e2::sweep(seed)
    };
    let rows: Vec<Vec<String>> = e2_rows
        .iter()
        .map(|r| {
            vec![
                r.peers.to_string(),
                r.groups.to_string(),
                format!("{:.0}%", r.success_rate * 100.0),
                format!("{:.0}", r.mean_latency_ms),
                format!("{:.0}", r.p99_latency_ms),
                format!("{:.1}", r.msgs_per_peer),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "E2  P2P discovery scaling (WAN links, 20 staggered queries)",
            &[
                "peers",
                "groups",
                "success",
                "mean ms",
                "p99 ms",
                "msgs/peer"
            ],
            &rows,
        )
    );

    // E3 — churn robustness.
    let e3_rows = if quick {
        vec![e3::run(1.0, 20, seed), e3::run(0.7, 20, seed)]
    } else {
        e3::sweep(seed)
    };
    let rows: Vec<Vec<String>> = e3_rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}%", r.availability * 100.0),
                format!("{:.0}%", r.central_success * 100.0),
                format!("{:.0}%", r.p2p_success * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "E3  locate success under infrastructure churn",
            &[
                "node availability",
                "central registry",
                "P2P rendezvous mesh"
            ],
            &rows,
        )
    );

    // E4 — async vs sync invocation.
    let e4_rows = if quick {
        vec![e4::run(4, 50)]
    } else {
        e4::sweep()
    };
    let rows: Vec<Vec<String>> = e4_rows
        .iter()
        .map(|r| {
            vec![
                r.services.to_string(),
                r.service_delay_ms.to_string(),
                format!("{:.0}", r.sync_total_ms),
                format!("{:.0}", r.async_total_ms),
                format!("{:.1}x", r.speedup),
                r.dispatcher_workers.to_string(),
                format!("{}/{}", r.dispatcher_completed, r.dispatcher_submitted),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "E4  sync vs async invocation of slow services (shared dispatch core, wall clock)",
            &[
                "services",
                "delay ms",
                "sync total ms",
                "async total ms",
                "speedup",
                "workers",
                "jobs done/subm",
            ],
            &rows,
        )
    );

    // E5 — deployment latency.
    let rows: Vec<Vec<String>> = e5::rows()
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                format!("{:.1}", r.deploy_to_first_response_ms),
                if r.hot_redeploy { "yes" } else { "no" }.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "E5  deploy-to-first-response (container-less vs modelled container)",
            &["scenario", "ms", "hot redeploy"],
            &rows,
        )
    );

    // E6 — SOAP / WS-Addressing overhead.
    let rows: Vec<Vec<String>> = e6::rows()
        .iter()
        .map(|r| {
            vec![
                r.items.to_string(),
                r.wire_bytes.to_string(),
                r.plain_wire_bytes.to_string(),
                r.addressing_overhead_bytes.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "E6  envelope wire sizes (struct-array payloads)",
            &[
                "items",
                "with WS-A bytes",
                "plain bytes",
                "WS-A overhead bytes"
            ],
            &rows,
        )
    );

    // E7 — transport round trips.
    let calls = if quick { 10 } else { 50 };
    let rows: Vec<Vec<String>> = e7::sweep(calls)
        .iter()
        .map(|r| {
            vec![
                r.transport.to_string(),
                r.payload_bytes.to_string(),
                format!("{:.2}", r.mean_ms),
                format!("{:.2}", r.p50_ms),
                format!("{:.2}", r.p99_ms),
                r.connections.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!("E7  invoke round trips, HTTP vs P2PS pipes ({calls} calls, loopback)"),
            &[
                "transport",
                "payload B",
                "mean ms",
                "p50 ms",
                "p99 ms",
                "conns"
            ],
            &rows,
        )
    );

    // E8 — binding composition.
    let rows: Vec<Vec<String>> = e8::run()
        .iter()
        .map(|r| {
            vec![
                r.mode.to_string(),
                format!("{:.1}", r.locate_ms),
                format!("{:.2}", r.invoke_ms),
                if r.ok { "ok" } else { "FAILED" }.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "E8  binding composition: locate+invoke modes",
            &["mode", "locate ms", "invoke ms", "result"],
            &rows,
        )
    );

    // E9 — goodput under loss, with and without retry.
    let e9_rows = if quick {
        vec![e9::run(0.2, false, 15, seed), e9::run(0.2, true, 15, seed)]
    } else {
        e9::sweep(40, seed)
    };
    let rows: Vec<Vec<String>> = e9_rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}%", r.loss * 100.0),
                if r.retry { "retry" } else { "single" }.to_string(),
                format!("{}/{}", r.completed, r.offered),
                r.wire_attempts.to_string(),
                format!("{:.1}", r.goodput_cps),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "E9  goodput vs link loss, single-attempt vs retry schedule",
            &[
                "loss",
                "policy",
                "completed",
                "wire attempts",
                "goodput c/s"
            ],
            &rows,
        )
    );

    // A1 — discovery knob ablation.
    let a1_rows = if quick {
        vec![a1::run(1, 2, seed), a1::run(4, 7, seed)]
    } else {
        a1::sweep(seed)
    };
    let rows: Vec<Vec<String>> = a1_rows
        .iter()
        .map(|r| {
            vec![
                r.rv_degree.to_string(),
                r.query_ttl.to_string(),
                format!("{:.0}%", r.success_rate * 100.0),
                format!("{:.0}", r.mean_latency_ms),
                format!("{:.1}", r.msgs_per_peer),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "A1  ablation: rendezvous mesh degree x query TTL (240 peers)",
            &["rv degree", "query ttl", "success", "mean ms", "msgs/peer"],
            &rows,
        )
    );

    // A2 — soft-state refresh ablation.
    let a2_rows = if quick {
        vec![a2::run(None, seed), a2::run(Some(5), seed)]
    } else {
        a2::sweep(seed)
    };
    let rows: Vec<Vec<String>> = a2_rows
        .iter()
        .map(|r| {
            vec![
                r.refresh_secs
                    .map(|s| format!("{s}s"))
                    .unwrap_or_else(|| "never".into()),
                format!("{:.0}%", r.success_rate * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "A2  ablation: advert refresh interval at 80% rendezvous availability",
            &["refresh", "locate success"],
            &rows,
        )
    );

    // E11 — overload protection: goodput A/B, shed turnaround, drain.
    let calls = if quick { 40 } else { 120 };
    let rows: Vec<Vec<String>> = e11::goodput_pair(calls, seed)
        .iter()
        .map(|r| {
            vec![
                if r.shedding {
                    "bounded queue"
                } else {
                    "unbounded"
                }
                .to_string(),
                format!("{}/{}", r.completed, r.offered),
                r.shed_503s.to_string(),
                format!("{:.1}", r.goodput_cps),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!("E11 goodput at 4x overload, impatient callers ({calls} calls, 100ms budget)"),
            &["admission", "completed", "shed 503s", "goodput c/s"],
            &rows,
        )
    );
    let shed = e11::shed_turnaround(if quick { 30 } else { 200 });
    println!(
        "{}",
        render_table(
            "E11 shed turnaround over a real socket (rejecting host)",
            &["probes", "all 503+hint", "p50 ms", "p99 ms"],
            &[vec![
                shed.probes.to_string(),
                shed.all_503.to_string(),
                format!("{:.2}", shed.p50_ms),
                format!("{:.2}", shed.p99_ms),
            ]],
        )
    );
    let rows: Vec<Vec<String>> = e11::drain_rows()
        .iter()
        .map(|r| {
            vec![
                r.mode.to_string(),
                r.in_flight_at_stop.to_string(),
                format!("{}/4", r.completed),
                r.drained.to_string(),
                r.latecomer.to_string(),
                format!("{:.0}", r.took_ms),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "E11 shutdown with 4 slow requests in flight",
            &[
                "mode",
                "in flight",
                "completed",
                "drained",
                "latecomer sees",
                "stop ms"
            ],
            &rows,
        )
    );

    // E12 — zero-copy wire path: encode/decode A/B, allocations per
    // round trip, end-to-end invoke through the fast path.
    let calls = if quick { 200 } else { 2000 };
    let rows: Vec<Vec<String>> = e12::latency(calls)
        .iter()
        .map(|r| {
            vec![
                r.corpus.to_string(),
                r.mode.to_string(),
                r.wire_bytes.to_string(),
                format!("{:.0}", r.encode_mean_ns),
                format!("{:.0}", r.encode_p50_ns),
                format!("{:.0}", r.encode_p99_ns),
                format!("{:.0}", r.decode_mean_ns),
                format!("{:.0}", r.decode_p50_ns),
                format!("{:.0}", r.decode_p99_ns),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!("E12 wire path: legacy vs fast codec, ns per envelope ({calls} calls)"),
            &[
                "corpus", "mode", "wire B", "enc mean", "enc p50", "enc p99", "dec mean",
                "dec p50", "dec p99",
            ],
            &rows,
        )
    );
    let alloc_rounds = if quick { 100 } else { 500 };
    let rows: Vec<Vec<String>> = e12::allocations(alloc_rounds)
        .iter()
        .map(|r| {
            vec![
                r.corpus.to_string(),
                if r.counted { "yes" } else { "NO" }.to_string(),
                format!("{:.1}", r.legacy_allocs),
                format!("{:.1}", r.fast_allocs),
                format!("{:.1}x", r.ratio),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!("E12 allocations per encode+decode round trip ({alloc_rounds} rounds)"),
            &["corpus", "counted", "legacy", "fast", "reduction"],
            &rows,
        )
    );
    let passes = if quick { 8 } else { 40 };
    let rows: Vec<Vec<String>> = e12::p2ps_codec_steps(passes)
        .iter()
        .map(|r| {
            let allocs = match r.counted {
                true => format!("{:.1}", r.allocs_per_call),
                false => "NO".to_string(),
            };
            vec![r.step.to_string(), format!("{:.0}", r.ns_per_call), allocs]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!("E12 codec steps of one P2PS echo (least of {passes} batches of 50)"),
            &["step", "ns/call", "allocs/call"],
            &rows,
        )
    );
    let calls = if quick { 20 } else { 100 };
    let rows: Vec<Vec<String>> = e12::invoke_rows(calls)
        .iter()
        .map(|r| {
            vec![
                r.transport.to_string(),
                r.payload_bytes.to_string(),
                format!("{:.2}", r.mean_ms),
                format!("{:.2}", r.p50_ms),
                format!("{:.2}", r.p99_ms),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!("E12 end-to-end invoke through the fast path ({calls} calls, loopback)"),
            &["transport", "payload B", "mean ms", "p50 ms", "p99 ms"],
            &rows,
        )
    );

    // E10 — telemetry overhead A/B and correlated reconstruction. Runs
    // last so the enabled-registry half never perturbs other tables.
    let calls = if quick { 500 } else { 5000 };
    let e10_rows = e10::overhead(calls);
    let baseline_p99 = e10_rows[0].p99_us;
    let rows: Vec<Vec<String>> = e10_rows
        .iter()
        .map(|r| {
            vec![
                r.mode.to_string(),
                r.calls.to_string(),
                format!("{:.1}", r.mean_us),
                format!("{:.1}", r.p50_us),
                format!("{:.1}", r.p99_us),
                format!("{:+.1}%", (r.p99_us / baseline_p99 - 1.0) * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!("E10 telemetry overhead: invoke pipeline, registry off vs on ({calls} calls)"),
            &[
                "registry",
                "calls",
                "mean us",
                "p50 us",
                "p99 us",
                "p99 delta"
            ],
            &rows,
        )
    );
    let r = e10::reconstruction();
    println!(
        "{}",
        render_table(
            "E10 reconstruction from one correlation id (dead endpoint, tripped breaker)",
            &[
                "corr id",
                "spans",
                "dead attempts",
                "trips",
                "in /metrics",
                "stages"
            ],
            &[vec![
                r.token.to_string(),
                r.spans.to_string(),
                r.dead_attempts.to_string(),
                r.breaker_trips.to_string(),
                r.in_metrics_text.to_string(),
                r.stages.join(" -> "),
            ]],
        )
    );
}
