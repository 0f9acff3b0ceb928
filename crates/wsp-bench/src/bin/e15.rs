//! E15 — keep-alive connection density of the reactor.
//!
//! `cargo run --release -p wsp-bench --bin e15 [-- quick]`
//!
//! Orchestrates the server subprocess (see `e15::serve` for the
//! three-process protocol and why it exists), renders the table, and
//! writes `target/BENCH_E15.json`. Exits nonzero unless every target
//! connection was held and served at no more than
//! `MAX_KB_PER_CONN` KiB of resident memory each.
//!
//! Full mode holds 10 000 keep-alive connections; `quick` holds 2 000
//! for CI.

use wsp_bench::common::{render_table, write_artifact};
use wsp_bench::e15::{self, E15Row};

/// The density gate: resident KiB per held keep-alive connection.
/// Measured 0.38 at PR 15 (EXPERIMENTS.md §E15); the deleted
/// thread-per-connection core measured 18.4.
const MAX_KB_PER_CONN: f64 = 1.0;

fn run_subprocess_row(conns: usize, sample: usize) -> std::io::Result<E15Row> {
    let exe = std::env::current_exe()?;
    let output = std::process::Command::new(exe)
        .args(["--e15-server", &conns.to_string(), &sample.to_string()])
        .output()?;
    if !output.status.success() {
        return Err(std::io::Error::other(format!(
            "e15 server subprocess failed: {}",
            String::from_utf8_lossy(&output.stderr)
        )));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .rev()
        .find(|l| l.starts_with("ROW "))
        .and_then(e15::row_from_line)
        .ok_or_else(|| std::io::Error::other("no ROW line from the server subprocess"))
}

fn row_json(row: &E15Row) -> String {
    format!(
        "    {{\"target_conns\": {}, \"held_conns\": {}, \"wave_ok\": {}, \"rss_before_kb\": {}, \"rss_after_kb\": {}, \"kb_per_conn\": {:.2}, \"p50_us\": {}, \"p99_us\": {}, \"wall_ms\": {}}}",
        row.target_conns,
        row.held_conns,
        row.wave_ok,
        row.rss_before_kb,
        row.rss_after_kb,
        row.kb_per_conn,
        row.p50_us,
        row.p99_us,
        row.wall_ms,
    )
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Subprocess entry points (spawned via current_exe, not for hand use).
    if args.first().map(String::as_str) == Some("--e15-client") {
        let addr = &args[1];
        let conns: usize = args[2].parse().expect("conns");
        let sample: usize = args[3].parse().expect("sample");
        e15::client_main(addr, conns, sample);
    }
    if args.first().map(String::as_str) == Some("--e15-server") {
        let conns: usize = args[1].parse().expect("conns");
        let sample: usize = args[2].parse().expect("sample");
        match e15::serve(conns, sample) {
            Ok(row) => {
                println!("{}", e15::row_to_line(&row));
                return std::process::ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("e15 server: {e}");
                return std::process::ExitCode::FAILURE;
            }
        }
    }

    let quick = args.iter().any(|a| a == "quick");
    let (conns, sample) = if quick {
        (2_000usize, 100usize)
    } else {
        (10_000, 200)
    };

    let row = match run_subprocess_row(conns, sample) {
        Ok(row) => row,
        Err(e) => {
            eprintln!("E15 run failed: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };

    println!(
        "{}",
        render_table(
            "E15  keep-alive connection density (epoll reactor)",
            &["target", "held", "wave ok", "KiB/conn", "p50 us", "p99 us", "wall ms"],
            &[vec![
                row.target_conns.to_string(),
                row.held_conns.to_string(),
                row.wave_ok.to_string(),
                format!("{:.2}", row.kb_per_conn),
                row.p50_us.to_string(),
                row.p99_us.to_string(),
                row.wall_ms.to_string(),
            ]],
        )
    );

    let sustained = row.held_conns >= row.target_conns && row.wave_ok >= row.target_conns;
    let dense = row.kb_per_conn <= MAX_KB_PER_CONN;
    println!(
        "held {} of {} connections ({} served) at {:.2} KiB/conn (gate: all held and served, <= {MAX_KB_PER_CONN} KiB/conn)",
        row.held_conns, row.target_conns, row.wave_ok, row.kb_per_conn,
    );

    let json = format!(
        "{{\n  \"experiment\": \"E15\",\n  \"quick\": {quick},\n  \"sustained_target\": {sustained},\n  \"max_kb_per_conn\": {MAX_KB_PER_CONN},\n  \"within_kb_per_conn\": {dense},\n  \"rows\": [\n{}\n  ]\n}}\n",
        row_json(&row)
    );
    write_artifact("BENCH_E15.json", &json);

    if sustained && dense {
        std::process::ExitCode::SUCCESS
    } else {
        eprintln!("E15 verdict failed: sustained={sustained} within_kb_per_conn={dense}");
        std::process::ExitCode::FAILURE
    }
}
