//! E14 runner: population-scale scenarios on the event wheel.
//!
//! ```text
//! cargo run --release -p wsp-bench --bin e14            # full tables
//! cargo run --release -p wsp-bench --bin e14 -- quick   # CI-sized
//! cargo run --release -p wsp-bench --bin e14 -- digests # E14_DIGESTS.txt
//! ```
//!
//! Prints the scaling tables recorded in `EXPERIMENTS.md` (E14) and
//! writes `target/BENCH_E14.json` — sim events/sec, peak peer count and
//! the per-scenario digests — for the CI artifact trail. `digests`
//! prints one `scenario seed events digest` line per quick-mode row for
//! the two CI seeds and nothing that depends on the clock:
//! `scripts/ci.sh` diffs it against `crates/wsp-bench/E14_DIGESTS.txt`,
//! so a change to the engine's event order has to move that file.

use wsp_bench::common::{render_table, write_artifact};
use wsp_bench::e14::{self, E14Row};

fn rows_to_table(rows: &[E14Row]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                r.scenario.to_string(),
                r.peers.to_string(),
                r.events.to_string(),
                r.wall_ms.to_string(),
                format!("{:.0}", r.events_per_sec),
                r.completed.to_string(),
                r.shed.to_string(),
                r.gave_up.to_string(),
                format!("{:.1}", r.p50_us as f64 / 1000.0),
                format!("{:.1}", r.p99_us as f64 / 1000.0),
                r.digest.clone(),
            ]
        })
        .collect()
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn row_json(r: &E14Row, label: &str) -> String {
    format!(
        concat!(
            "    {{\"scenario\": \"{}\", \"seed\": {}, \"peers\": {}, ",
            "\"events\": {}, \"wall_ms\": {}, \"events_per_sec\": {:.0}, ",
            "\"completed\": {}, \"shed\": {}, \"gave_up\": {}, ",
            "\"p50_us\": {}, \"p99_us\": {}, \"digest\": \"{}\"}}"
        ),
        json_escape(label),
        r.seed,
        r.peers,
        r.events,
        r.wall_ms,
        r.events_per_sec,
        r.completed,
        r.shed,
        r.gave_up,
        r.p50_us,
        r.p99_us,
        json_escape(&r.digest),
    )
}

/// Every scenario of one run, labelled `scenario/size`.
fn scenario_rows(seed: u64, quick: bool) -> Vec<(String, E14Row)> {
    let mut rows: Vec<(String, E14Row)> = Vec::new();

    // Flash crowd scaling ladder.
    let crowd_sizes: &[u32] = if quick {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    for &n in crowd_sizes {
        let row = e14::flash_crowd(seed, n);
        rows.push((format!("flash_crowd/{n}"), row));
    }

    // Partition + heal.
    let mesh = if quick { 10_000 } else { 100_000 };
    rows.push((
        format!("partition_heal/{mesh}"),
        e14::partition_heal(seed, mesh),
    ));

    // Straggler sweep: slow fraction in permille.
    let clients = if quick { 20_000 } else { 100_000 };
    for slow in [0u32, 100, 300] {
        let row = e14::straggler_sweep(seed, clients, 64, slow);
        rows.push((format!("straggler/{clients}/slow{}%", slow / 10), row));
    }
    rows
}

fn main() {
    if std::env::args().any(|a| a == "digests") {
        for seed in [2005, 7] {
            for (label, r) in scenario_rows(seed, true) {
                println!("{label} {seed} {} {}", r.events, r.digest);
            }
        }
        return;
    }
    let quick = std::env::args().any(|a| a == "quick");
    let seed = std::env::var("WSP_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2005);
    println!("E14 population-scale simulation (seed {seed}, quick={quick})");
    let rows = scenario_rows(seed, quick);

    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(label, r)| {
            let mut cells = rows_to_table(std::slice::from_ref(r)).remove(0);
            cells[0] = label.clone();
            cells
        })
        .collect();
    println!(
        "{}",
        render_table(
            "E14  population-scale scenarios (one event wheel, machine-driven peers)",
            &[
                "scenario",
                "peers",
                "events",
                "wall ms",
                "ev/s",
                "completed",
                "shed",
                "gave_up",
                "p50 ms",
                "p99 ms",
                "digest"
            ],
            &table_rows,
        )
    );

    let peak_peers = rows.iter().map(|(_, r)| r.peers).max().unwrap_or(0);
    let peak_eps = rows
        .iter()
        .map(|(_, r)| r.events_per_sec)
        .fold(0.0f64, f64::max);
    let body: Vec<String> = rows.iter().map(|(label, r)| row_json(r, label)).collect();
    let json = format!(
        "{{\n  \"experiment\": \"E14\",\n  \"seed\": {seed},\n  \"peak_peers\": {peak_peers},\n  \"peak_events_per_sec\": {peak_eps:.0},\n  \"rows\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    );
    println!("peak {peak_peers} peers, {peak_eps:.0} events/s");
    write_artifact("BENCH_E14.json", &json);
}
