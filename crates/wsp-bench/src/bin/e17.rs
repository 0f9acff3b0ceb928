//! E17 runner — mediation gateway vs direct invocation.
//!
//! Usage: `e17 [quick]`. Prints the goodput A/B, the tenant-isolation
//! measurement, and the TTL sweep; writes `target/BENCH_E17.json`; exits 1 if
//! an acceptance gate fails. `WSP_FAULT_SEED` (default 2005) seeds the
//! request schedules.

use std::time::Duration;
use wsp_bench::common::{render_table, write_artifact};
use wsp_bench::e17;

fn main() {
    let quick = std::env::args().any(|a| a == "quick");
    let seed: u64 = std::env::var("WSP_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2005);

    let (workers, per_worker, distinct, samples, flood, sweep_reqs) = if quick {
        (2, 40, 4, 60, 2, 40)
    } else {
        (4, 150, 8, 200, 4, 120)
    };
    let work = Duration::from_millis(2);

    let goodput = e17::goodput(seed, workers, per_worker, distinct, work);
    let rows: Vec<Vec<String>> = goodput
        .iter()
        .map(|r| {
            vec![
                r.mode.clone(),
                r.requests.to_string(),
                r.ok.to_string(),
                r.cache_hits.to_string(),
                r.identical_hits.to_string(),
                r.wall_ms.to_string(),
                format!("{:.0}", r.goodput_rps),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!("E17 goodput: cache-friendly mix (seed {seed})"),
            &[
                "mode",
                "requests",
                "ok",
                "hits",
                "identical",
                "wall_ms",
                "rps"
            ],
            &rows,
        )
    );
    let direct = goodput.iter().find(|r| r.mode == "direct").unwrap();
    let gateway = goodput.iter().find(|r| r.mode == "gateway").unwrap();
    let goodput_ratio = gateway.goodput_rps / direct.goodput_rps.max(1e-9);

    let iso = e17::isolation(seed, samples, flood, Duration::from_millis(1));
    println!(
        "{}",
        render_table(
            "E17 isolation: cold-tenant latency under hot flood",
            &["phase", "p50_us", "p99_us"],
            &[
                vec![
                    "isolated".into(),
                    iso.isolated_p50_us.to_string(),
                    iso.isolated_p99_us.to_string(),
                ],
                vec![
                    "flooded".into(),
                    iso.flooded_p50_us.to_string(),
                    iso.flooded_p99_us.to_string(),
                ],
            ],
        )
    );
    println!(
        "  hot requests shed: {}  cold p99 ratio: {:.2}\n",
        iso.hot_shed, iso.p99_ratio
    );

    let sweep = e17::ttl_sweep(&[1, 10, 50, 200, 400], sweep_reqs, Duration::from_millis(2));
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|r| {
            vec![
                r.ttl_ms.to_string(),
                r.requests.to_string(),
                r.hits.to_string(),
                format!("{:.2}", r.hit_ratio),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "E17 sweep: response-cache hit ratio vs TTL (2ms inter-arrival)",
            &["ttl_ms", "requests", "hits", "hit_ratio"],
            &rows,
        )
    );

    // Gates.
    let mut failures = Vec::new();
    if gateway.ok != gateway.requests || direct.ok != direct.requests {
        failures.push("not every request succeeded".to_owned());
    }
    if gateway.identical_hits != gateway.cache_hits {
        failures.push(format!(
            "cache hits not byte-identical: {} of {}",
            gateway.identical_hits, gateway.cache_hits
        ));
    }
    if goodput_ratio < 3.0 {
        failures.push(format!("goodput ratio {goodput_ratio:.2} < 3.0"));
    }
    if iso.hot_shed == 0 {
        failures.push("the hot flood was never shed".to_owned());
    }
    if iso.flooded_ok != iso.samples {
        failures.push(format!(
            "only {} of {} cold requests answered during the flood",
            iso.flooded_ok, iso.samples
        ));
    }
    if iso.p99_ratio > 2.0 {
        failures.push(format!("cold p99 ratio {:.2} > 2.0", iso.p99_ratio));
    }
    let max_ratio = sweep.iter().map(|r| r.hit_ratio).fold(0.0f64, f64::max);
    if max_ratio < 0.8 {
        failures.push(format!("best sweep hit ratio {max_ratio:.2} < 0.8"));
    }

    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|r| {
            format!(
                "{{\"ttl_ms\":{},\"requests\":{},\"hits\":{},\"hit_ratio\":{:.4}}}",
                r.ttl_ms, r.requests, r.hits, r.hit_ratio
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"E17\",\n  \"seed\": {seed},\n  \"quick\": {quick},\n  \
         \"direct_rps\": {:.2},\n  \"gateway_rps\": {:.2},\n  \"goodput_ratio\": {:.3},\n  \
         \"cache_hits\": {},\n  \"identical_hits\": {},\n  \
         \"isolated_p99_us\": {},\n  \"flooded_p99_us\": {},\n  \"p99_ratio\": {:.3},\n  \
         \"hot_shed\": {},\n  \"sweep\": [{}],\n  \"pass\": {}\n}}\n",
        direct.goodput_rps,
        gateway.goodput_rps,
        goodput_ratio,
        gateway.cache_hits,
        gateway.identical_hits,
        iso.isolated_p99_us,
        iso.flooded_p99_us,
        iso.p99_ratio,
        iso.hot_shed,
        sweep_json.join(","),
        failures.is_empty()
    );
    write_artifact("BENCH_E17.json", &json);

    if failures.is_empty() {
        println!(
            "E17 gates: PASS (goodput {goodput_ratio:.2}x, cold p99 ratio {:.2})",
            iso.p99_ratio
        );
    } else {
        for f in &failures {
            eprintln!("E17 gate FAILED: {f}");
        }
        std::process::exit(1);
    }
}
