//! E16 runner: discovery-plane robustness A/B under failure and churn.
//!
//! ```text
//! cargo run --release -p wsp-bench --bin e16            # full grid
//! cargo run --release -p wsp-bench --bin e16 -- quick   # CI-sized
//! ```
//!
//! Prints the availability table recorded in `EXPERIMENTS.md` (E16) and
//! writes `target/BENCH_E16.json` — per-cell acked/lost counts, locate
//! availability and the seeded trace digests — for the CI artifact
//! trail.

use wsp_bench::common::{render_table, write_artifact};
use wsp_bench::e16::{self, E16Row};

fn row_json(r: &E16Row) -> String {
    format!(
        concat!(
            "    {{\"mode\": \"{}\", \"scenario\": \"{}\", \"seed\": {}, ",
            "\"acked\": {}, \"lost\": {}, \"probes\": {}, \"probe_ok\": {}, ",
            "\"availability_pct\": {:.2}, \"expired\": {}, ",
            "\"final_epoch\": {}, \"wall_ms\": {}, \"digest\": \"{}\"}}"
        ),
        r.mode,
        r.scenario,
        r.seed,
        r.acked,
        r.lost,
        r.probes,
        r.probe_ok,
        r.availability_pct,
        r.expired,
        r.final_epoch,
        r.wall_ms,
        r.digest,
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "quick");
    let seed = std::env::var("WSP_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2005);
    let (services, probes) = if quick { (16, 200) } else { (64, 2_000) };
    println!("E16 discovery-plane robustness (seed {seed}, quick={quick})");

    let rows = e16::grid(seed, services, probes);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.clone(),
                r.scenario.clone(),
                r.acked.to_string(),
                r.lost.to_string(),
                format!("{}/{}", r.probe_ok, r.probes),
                format!("{:.1}", r.availability_pct),
                r.expired.to_string(),
                r.final_epoch.to_string(),
                r.wall_ms.to_string(),
                r.digest.clone(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "E16  locate availability and commit durability under failure",
            &[
                "mode", "scenario", "acked", "lost", "probe ok", "avail %", "expired", "epoch",
                "wall ms", "digest"
            ],
            &table,
        )
    );

    let lost_total: usize = rows.iter().map(|r| r.lost).sum();
    let sharded_min_avail = rows
        .iter()
        .filter(|r| r.mode == "sharded")
        .map(|r| r.availability_pct)
        .fold(100.0f64, f64::min);
    let body: Vec<String> = rows.iter().map(row_json).collect();
    let json = format!(
        concat!(
            "{{\n  \"experiment\": \"E16\",\n  \"seed\": {},\n",
            "  \"lost_total\": {},\n  \"sharded_min_availability_pct\": {:.2},\n",
            "  \"rows\": [\n{}\n  ]\n}}\n"
        ),
        seed,
        lost_total,
        sharded_min_avail,
        body.join(",\n")
    );
    println!("lost_total={lost_total}, sharded min availability {sharded_min_avail:.2}%");
    write_artifact("BENCH_E16.json", &json);
    if lost_total > 0 || sharded_min_avail < 99.0 {
        eprintln!("E16 acceptance gate FAILED");
        std::process::exit(1);
    }
}
