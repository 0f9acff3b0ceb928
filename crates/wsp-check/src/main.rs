//! `wsp-check` — run the exhaustive invariant suite over every pure
//! protocol machine and the composed pipeline.
//!
//! Exit status is nonzero on the first violation, with the
//! counterexample trace on stderr. `wsp-check --counts` runs the same
//! suite but prints only `name states transitions` per configuration
//! (no timings): CI diffs it against the checked-in `COUNTS.txt`, so a
//! change that moves a count has to move that file in the same diff.
//! `wsp-check --dot <machine>` dumps a machine's explored state graph
//! in Graphviz DOT form instead (`breaker`, `admission` — the
//! one-tenant host configuration of the admission machine —
//! `correlation`, `drain`, `conn`, `rpc`, `lease`, `replication`);
//! `wsp-check --mutants` runs the deliberately sabotaged machines and
//! prints the counterexample trace each one earns (failing if any
//! mutant survives).

use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, name] = args.as_slice() {
        if flag == "--dot" {
            return match wsp_check::checks::dot_for(name) {
                Some(dot) => {
                    print!("{dot}");
                    ExitCode::SUCCESS
                }
                None => {
                    eprintln!(
                        "unknown machine {name:?}; try breaker, admission, correlation, drain, conn, rpc, lease, replication"
                    );
                    ExitCode::FAILURE
                }
            };
        }
    }
    if args.as_slice() == ["--mutants"] {
        let mutants = [
            (
                "breaker: skip half-open reset",
                wsp_check::checks::breaker_mutation_counterexample(),
            ),
            (
                "composed: skip half-open reset",
                wsp_check::checks::composed_mutation_counterexample(),
            ),
            (
                "drain: leak slot on reject",
                wsp_check::checks::drain_mutation_counterexample(),
            ),
            (
                "conn: sticky header timer",
                wsp_check::checks::conn_mutation_counterexample(),
            ),
            (
                "conn: drain closes an unread connection",
                wsp_check::checks::conn_drain_mutation_counterexample(),
            ),
            (
                "replication: skip log catch-up on view change",
                wsp_check::checks::replication_mutation_counterexample(),
            ),
            (
                "replication: truncate the log at one's own commit point",
                wsp_check::checks::replication_truncation_mutation_counterexample(),
            ),
            (
                "keyed admission: borrow ignores the fair-share reserve",
                wsp_check::checks::keyed_admission_mutation_counterexample(),
            ),
        ];
        let mut all_condemned = true;
        for (name, verdict) in mutants {
            match verdict {
                Some(violation) => println!("mutant condemned: {name}\n{violation}\n"),
                None => {
                    all_condemned = false;
                    println!("MUTANT SURVIVED: {name} — the invariant suite is vacuous here");
                }
            }
        }
        return if all_condemned {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let counts_only = args.as_slice() == ["--counts"];
    if !args.is_empty() && !counts_only {
        eprintln!("usage: wsp-check [--counts | --dot <machine> | --mutants]");
        return ExitCode::FAILURE;
    }

    let start = Instant::now();
    match wsp_check::checks::run_all() {
        Ok(reports) if counts_only => {
            for r in &reports {
                println!("{} {} {}", r.name, r.states, r.transitions);
            }
            ExitCode::SUCCESS
        }
        Ok(reports) => {
            for report in &reports {
                println!("ok  {report}");
            }
            println!(
                "ok  composed random walk: 50000 steps, seed {}",
                wsp_check::fault_seed()
            );
            let (states, transitions) = reports
                .iter()
                .fold((0, 0), |(s, t), r| (s + r.states, t + r.transitions));
            println!(
                "wsp-check: {} configurations, {states} states, {transitions} transitions, {:?}",
                reports.len(),
                start.elapsed()
            );
            ExitCode::SUCCESS
        }
        Err(violation) => {
            eprintln!("wsp-check FAILED\n{violation}");
            ExitCode::FAILURE
        }
    }
}
