//! `wspeer-bench` command line. `bench/run.sh` builds this binary and
//! hands its arguments over.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use wspeer_bench::alloc::CountingAllocator;
use wspeer_bench::compare;
use wspeer_bench::runner::Plan;
use wspeer_bench::suite::{self, RunOne, Suite, OUT_DIR};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Seed of a run that names none.
const DEFAULT_SEED: u64 = 2005;
const DEFAULT_SECONDS: u64 = wspeer_bench::report::RUN_SECONDS;

const USAGE: &str = "usage:
  wspeer-bench suite     [--seed N] [--seconds S] [--quick]     every workload, ladder, traced runs
  wspeer-bench run-one   --workload W [--seed N] [--seconds S] [--trace 0|1] [--ladder 0|1] [--quick] [--json-out FILE]
  wspeer-bench ladder    [--quick] [--json-out FILE]
  wspeer-bench compare   A.json B.json
  wspeer-bench selfcheck [--seed N] [--seconds S] [--quick]
  wspeer-bench manifest                                         the content of /BENCHMARK.json";

struct Args {
    flags: Vec<(String, String)>,
    quick: bool,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            flags: Vec::new(),
            quick: false,
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            if arg == "--quick" {
                args.quick = true;
            } else if let Some(name) = arg.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                args.flags.push((name.to_owned(), value.clone()));
            } else {
                args.positional.push(arg.clone());
            }
        }
        Ok(args)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} takes a whole number, not {v:?}")),
        }
    }

    fn plan(&self) -> Result<Plan, String> {
        if self.quick {
            return Ok(Plan::quick());
        }
        match self.number("seconds", DEFAULT_SECONDS)? {
            s @ 1..=60 => Ok(Plan::full(s)),
            s => Err(format!("--seconds must be 1..=60, not {s}")),
        }
    }
}

fn run(process_start: Instant) -> Result<bool, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = raw.split_first().ok_or(USAGE)?;
    let args = Args::parse(rest)?;
    let seed = args.number("seed", DEFAULT_SEED)?;
    match command.as_str() {
        "run-one" => {
            let trace = args.number("trace", 0)? != 0;
            let job = RunOne {
                workload: args
                    .get("workload")
                    .ok_or("run-one needs --workload")?
                    .to_owned(),
                seed,
                plan: args.plan()?,
                trace,
                ladder: args.number("ladder", 1)? != 0,
                json_out: args.get("json-out").map(PathBuf::from),
            };
            suite::run_one(&job, process_start).map(|()| true)
        }
        "ladder" => {
            suite::run_ladder(args.quick, args.get("json-out").map(Path::new)).map(|()| true)
        }
        "suite" => suite::run_suite(&Suite {
            seed,
            seconds: args.plan()?.window.as_secs(),
            quick: args.quick,
            out_dir: PathBuf::from(OUT_DIR),
        }),
        "selfcheck" => suite::selfcheck(seed, args.plan()?.window.as_secs(), args.quick),
        "manifest" => {
            print!("{}", wspeer_bench::report::benchmark_manifest().to_pretty());
            Ok(true)
        }
        "compare" => {
            let [a, b] = args.positional.as_slice() else {
                return Err(USAGE.to_owned());
            };
            let read = |path: &String| suite::read_json(Path::new(path));
            let report = compare::compare(&read(a)?, &read(b)?)?;
            print!("{}", report.render());
            Ok(report.clean())
        }
        _ => Err(USAGE.to_owned()),
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    match run(process_start) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("wspeer-bench: {why}");
            ExitCode::from(2)
        }
    }
}
