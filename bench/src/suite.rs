//! One workload in this process (`run-one`), and the whole benchmark as
//! a sequence of fresh child processes (`suite`, `selfcheck`).

use crate::gen::inputs_digest;
use crate::json::Json;
use crate::report::{self, Values};
use crate::runner::{self, Clients, Phase, Plan, MIN_SAMPLES_PER_SLICE};
use crate::stats::Spread;
use crate::workloads::span;
use crate::{alloc, compare, ladder, sys, trace, END_TO_END, WORKLOADS};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;
use wsp_core::telemetry;

/// `gateway_hit` is only the bypass workload it claims to be while the
/// response cache answers at least this share of its requests.
pub const MIN_HIT_RATIO: f64 = 0.98;

/// Where results and traces go, relative to the directory the
/// benchmark is run from (the root of the checkout).
pub const OUT_DIR: &str = "bench/out";

pub struct RunOne {
    pub workload: String,
    pub seed: u64,
    pub plan: Plan,
    pub trace: bool,
    /// Trace mode: also run the ladder, so that one process reports
    /// every per-layer metric.
    pub ladder: bool,
    pub json_out: Option<PathBuf>,
}

fn port_guard(phase: &Phase) -> Result<(), String> {
    match phase.errors.iter().find(|e| sys::is_port_exhaustion(e)) {
        Some(e) => Err(format!(
            "a connect failed for lack of ephemeral ports, so this workload's numbers would be \
             skewed: {e}. Check tcp_tw_reuse (0 disables TIME_WAIT reuse) and ip_local_port_range."
        )),
        None => Ok(()),
    }
}

/// Run `job.workload` in this process and print every metric. `Ok`
/// means a result was printed; whether the run was correct is in it.
pub fn run_one(job: &RunOne, process_start: Instant) -> Result<(), String> {
    let info = crate::workload_info(&job.workload)
        .ok_or_else(|| format!("unknown workload {:?}", job.workload))?;
    if sys::nproc() < 2 {
        return Err(format!(
            "the benchmark keeps one CPU to itself and leaves the rest of the machine another; \
             {} CPU is too few",
            sys::nproc()
        ));
    }
    // Before the first thread exists, so that every thread inherits it.
    let cpu = sys::pin_to_one_cpu()?;
    let plan = &job.plan;
    println!(
        "== {} (seed {}, {} mode, trace {}) — {}",
        info.name,
        job.seed,
        plan.mode(),
        u8::from(job.trace),
        info.why
    );
    println!(
        "   closed loop, 2 client threads, servers in-process, all on CPU {cpu}, host loopback only"
    );

    let ready = runner::set_up(info.name, job.seed)?;
    let first_setup_s = process_start.elapsed().as_secs_f64();
    let fixture = ready.fixture;
    let clients = Clients::spawn(ready.clients);
    let warmup = clients.run(plan.warmup);
    port_guard(&warmup)?;

    let mut phases = vec![warmup];
    let mut values = Values::default();
    let mut notes: Vec<String> = Vec::new();
    let mut doc = Json::obj()
        .with("workload", info.name)
        .with("why", info.why)
        .with("seed", job.seed)
        .with("mode", plan.mode())
        .with("trace", u64::from(job.trace))
        .with("pinned_cpu", cpu);

    if job.trace {
        phases.extend(traced_run(
            info.name,
            plan,
            &clients,
            &mut values,
            &mut doc,
            &mut notes,
        )?);
    } else {
        phases.push(measured_run(
            info.name,
            plan,
            &clients,
            &mut values,
            &mut doc,
            &mut notes,
        )?);
    }

    clients.stop();
    if let Err(why) = fixture.final_check() {
        notes.push(why);
    }
    let time_wait = sys::tcp_time_wait();
    fixture.shutdown();
    let setup_times = runner::repeat_set_up(info.name, job.seed, plan, first_setup_s)?;

    values.put_spread("setup_s", Spread::quartiles_of(&setup_times));
    println!(
        "   {} set-ups; the first, from process start, took {:.6} s",
        setup_times.len(),
        setup_times[0]
    );
    doc.set("setup_first_s", setup_times[0]);
    // What the resident set grew by during the window, a faster machine
    // grew by more of: `lifecycle` keeps 1.1 KiB per op (a tModel is never
    // deleted), so its peak followed the ops it was given time for, 18.5
    // to 22.5 MiB. The growth is brought to the reference speed like the
    // ops that caused it; where nothing grows, nothing changes.
    let window = phases.last().expect("the measured window");
    let speed = Some(window.machine_speed.median).filter(|&s| s > 0.0);
    let grew = window.rss_grew_mib;
    values.put(
        "peak_rss_mb",
        sys::peak_rss_mib() - grew + grew / speed.unwrap_or(1.0),
    );

    let attempted: u64 =
        phases.iter().map(|p| p.attempted).sum::<u64>() + 2 * setup_times.len() as u64;
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    let errors: Vec<String> = phases
        .iter()
        .flat_map(|p| p.errors.clone())
        .take(8)
        .collect();
    let correct = failed == 0 && notes.is_empty();

    let digest = inputs_digest(info.name, job.seed).expect("known workload");
    println!("   inputs_digest {digest:016x}   tcp.time_wait_end {time_wait}");
    for note in &notes {
        println!("   INVALID: {note}");
    }
    for error in &errors {
        println!("   FAILED OP: {error}");
    }

    // The table this run reports: the last line carries all of it.
    let table: Vec<(&str, &str)> = if !job.trace {
        END_TO_END.iter().map(|e| (e.name, e.unit)).collect()
    } else if job.ladder {
        for (name, value) in ladder::run(plan.quick) {
            values.put_spread(name, value);
        }
        report::per_layer().map(|p| (p.name, p.unit)).collect()
    } else {
        report::TRACED.iter().map(|p| (p.name, p.unit)).collect()
    };
    if job.trace {
        report::print_metrics("per-layer", table.iter().copied(), &values);
        doc.set(
            "per_layer",
            report::metrics_json(table.iter().copied(), &values, false),
        );
    } else {
        const DIAGNOSTICS: [(&str, &str); 6] = [
            ("machine_speed", "ratio"),
            ("measured_ops_s", "ops/s"),
            ("measured_p50_us", "us"),
            ("latency_p99_us", "us"),
            ("latency_p999_us", "us"),
            ("latency_max_us", "us"),
        ];
        report::print_metrics("end-to-end", table.iter().copied(), &values);
        println!(
            "{:<36} {:>14.6} ratio  ({failed} of {attempted})",
            "failed_ratio",
            failed as f64 / attempted as f64
        );
        report::print_metrics(
            "diagnostics (as measured, at the machine's own speed; never gated)",
            DIAGNOSTICS.into_iter(),
            &values,
        );
        doc.set(
            "end_to_end",
            report::metrics_json(table.iter().copied(), &values, true),
        );
        doc.set(
            "diagnostics",
            report::metrics_json(DIAGNOSTICS.into_iter(), &values, true),
        );
    }
    doc.set("inputs_digest", format!("{digest:016x}"));
    doc.set("tcp_time_wait_end", time_wait);
    doc.set("correct", correct);
    doc.set("attempted", attempted);
    doc.set("failed", failed);
    doc.set("failed_ratio", failed as f64 / attempted as f64);
    doc.set(
        "errors",
        errors.iter().cloned().map(Json::from).collect::<Vec<_>>(),
    );
    doc.set(
        "invalid",
        notes.iter().cloned().map(Json::from).collect::<Vec<_>>(),
    );
    doc.set("environment", sys::environment());
    if let Some(path) = &job.json_out {
        write_file(path, &doc.to_pretty())?;
    }

    // The last line: what a driver reads.
    println!(
        "{}",
        Json::obj()
            .with("correct", correct)
            .with("attempted", attempted)
            .with("failed", failed)
            .with(
                "metrics",
                report::metrics_json(table.into_iter(), &values, false)
            )
            .to_compact()
    );
    Ok(())
}

/// The three windows of a `--trace 1` run (reference, counted, traced)
/// and every per-layer value they give.
fn traced_run(
    workload: &str,
    plan: &Plan,
    clients: &Clients,
    values: &mut Values,
    doc: &mut Json,
    notes: &mut Vec<String>,
) -> Result<[Phase; 3], String> {
    // 1. Untraced reference: the programs on their normal path,
    //    bracketed by telemetry and /proc snapshots.
    let t0 = telemetry::global().snapshot();
    let (opens0, ctx0) = (sys::tcp_active_opens(), sys::ctx_switches());
    let reference = clients.run(plan.traced_window);
    let (opens1, ctx1) = (sys::tcp_active_opens(), sys::ctx_switches());
    let t1 = telemetry::global().snapshot();
    port_guard(&reference)?;
    // 2. The same path with allocation counting on.
    alloc::set_counting(true);
    let (allocs0, bytes0) = alloc::counters();
    let counted = clients.run(plan.counted_window);
    let (allocs1, bytes1) = alloc::counters();
    alloc::set_counting(false);
    // 3. Spans on.
    trace::set_on(true);
    let traced = clients.run(plan.traced_window);
    trace::set_on(false);

    let mut spans = trace::drain();
    trace::resolve_parents(&mut spans);
    let summary = trace::summarise(&spans);
    let trace_path = Path::new(OUT_DIR).join(format!("trace-{}.json", workload));
    write_trace(&trace_path, workload, &spans)?;
    println!(
        "   {} spans of {} ops written to {}",
        spans.len(),
        summary.ops,
        trace_path.display()
    );

    let op_p50_us = summary.op_p50_ns as f64 / 1e3;
    let stepwise = matches!(workload, "invoke_small" | "invoke_large");
    let gateway = matches!(workload, "gateway_miss" | "gateway_hit");
    let per_ref_op = |n: u64| n as f64 / reference.ok.max(1) as f64;
    let per_traced_op = |n: usize| n as f64 / summary.ops.max(1) as f64;
    values.put("trace.op_p50_us", op_p50_us);
    values.put("trace.client_encode_us", summary.self_p50_us(span::ENCODE));
    values.put("trace.client_wire_us", summary.duration_p50_us(span::WIRE));
    values.put("trace.client_decode_us", summary.self_p50_us(span::DECODE));
    values.put("trace.handler_us", summary.self_p50_us(span::HANDLER));
    values.put(
        "trace.server_residual_us",
        if stepwise {
            summary.self_p50_us(span::WIRE)
        } else {
            0.0
        },
    );
    values.put(
        "trace.mediation_us",
        if gateway {
            summary.self_p50_us(span::WIRE)
        } else {
            0.0
        },
    );
    values.put(
        "trace.registry_handler_us",
        summary.self_p50_us(span::REGISTRY_HANDLER),
    );
    values.put(
        "trace.core_client_us",
        if stepwise {
            reference.whole_p50_us - op_p50_us
        } else {
            0.0
        },
    );
    values.put(
        "lifecycle.deploy_publish_us",
        summary.self_p50_us(span::DEPLOY_PUBLISH),
    );
    values.put("lifecycle.locate_us", summary.self_p50_us(span::LOCATE));
    values.put(
        "lifecycle.invoke_us",
        summary.self_p50_us(span::LIFECYCLE_INVOKE),
    );
    values.put("lifecycle.undeploy_us", summary.self_p50_us(span::UNDEPLOY));
    values.put(
        "discovery.locate_p50_us",
        summary.self_p50_us(span::DISCOVERY_LOCATE),
    );
    values.put(
        "discovery.publish_p50_us",
        summary.self_p50_us(span::DISCOVERY_PUBLISH),
    );
    values.put(
        "trace.backend_calls_per_op",
        per_traced_op(summary.count(span::HANDLER)),
    );
    values.put(
        "trace.registry_calls_per_op",
        per_traced_op(summary.count(span::REGISTRY_HANDLER)),
    );
    values.put("tcp.active_opens_per_op", per_ref_op(opens1 - opens0));
    values.put("tcp.time_wait_end", sys::tcp_time_wait() as f64);
    values.put("sched.ctx_switches_per_op", per_ref_op(ctx1 - ctx0));
    values.put(
        "alloc.allocs_per_op",
        (allocs1 - allocs0) as f64 / counted.ok.max(1) as f64,
    );
    values.put(
        "alloc.bytes_per_op",
        (bytes1 - bytes0) as f64 / counted.ok.max(1) as f64,
    );
    for (metric, series) in [
        ("dispatch.queue_wait_p50_us", "dispatch.queue_wait_us"),
        ("dispatch.run_p50_us", "dispatch.run_us"),
        ("server.serve_p50_us", "server.serve_us"),
        ("registry.locate_rtt_p50_us", "registry.locate.rtt_us"),
        ("registry.publish_rtt_p50_us", "registry.publish.rtt_us"),
    ] {
        values.put(metric, report::histogram_p50_between(&t0, &t1, series));
    }
    let response_hit_ratio = report::hit_ratio_between(&t0, &t1, "gateway.cache.response");
    values.put("gateway.cache.response_hit_ratio", response_hit_ratio);
    values.put(
        "gateway.cache.locate_hit_ratio",
        report::hit_ratio_between(&t0, &t1, "gateway.cache.locate"),
    );
    values.put(
        "gateway.backend_failovers",
        report::counter_between(&t0, &t1, "gateway.backend.failovers") as f64,
    );
    values.put("latency_p99_us", reference.latency_p99_us);
    values.put("latency_p999_us", reference.latency_p999_us);
    values.put("latency_max_us", reference.latency_max_us);
    values.put(
        "trace.overhead_ratio",
        op_p50_us / reference.whole_p50_us.max(f64::MIN_POSITIVE),
    );
    values.put("trace.accounted_ratio", summary.accounted_ratio);
    if workload == "gateway_hit" && response_hit_ratio < MIN_HIT_RATIO {
        notes.push(format!(
            "gateway.cache.response_hit_ratio {response_hit_ratio:.4} is below {MIN_HIT_RATIO}"
        ));
    }
    if let Some((name, us)) = summary.largest_self() {
        println!("   largest p50 self time: {name} {us:.1} us");
        doc.set(
            "largest_self_span",
            Json::obj().with("name", name).with("self_p50_us", us),
        );
    }
    let mut by_name: Vec<_> = summary.by_name.iter().collect();
    by_name.sort_by_key(|(name, _)| **name);
    doc.set(
        "spans",
        Json::Obj(
            by_name
                .into_iter()
                .map(|(name, (count, own, total))| {
                    (
                        (*name).to_owned(),
                        Json::obj()
                            .with("count", *count)
                            .with("self_p50_us", *own as f64 / 1e3)
                            .with("duration_p50_us", *total as f64 / 1e3),
                    )
                })
                .collect(),
        ),
    );
    Ok([reference, counted, traced])
}

/// The measured window of a `--trace 0` run and its end-to-end values.
fn measured_run(
    workload: &str,
    plan: &Plan,
    clients: &Clients,
    values: &mut Values,
    doc: &mut Json,
    notes: &mut Vec<String>,
) -> Result<Phase, String> {
    let window = clients.run(plan.window);
    port_guard(&window)?;
    values.put_spread("throughput_ops_s", window.throughput_ops_s);
    values.put_spread("latency_p50_us", window.latency_p50_us);
    values.put_spread("latency_p90_us", window.latency_p90_us);
    values.put_spread("cpu_us_per_op", window.cpu_us_per_op);
    values.put_spread("machine_speed", window.machine_speed);
    values.put("measured_ops_s", window.measured_ops_s);
    values.put("measured_p50_us", window.whole_p50_us);
    values.put("latency_p99_us", window.latency_p99_us);
    values.put("latency_p999_us", window.latency_p999_us);
    values.put("latency_max_us", window.latency_max_us);
    let thin = window
        .samples_per_slice
        .iter()
        .filter(|&&n| n < MIN_SAMPLES_PER_SLICE)
        .count();
    // A warning, not an invalid run: the outputs were right, the
    // machine was slow.
    if thin > 0 && !plan.quick {
        println!(
            "   WARNING: {thin} slice(s) hold fewer than {MIN_SAMPLES_PER_SLICE} samples: \
             their p90 has fewer than ten samples beyond it"
        );
    }
    if workload == "gateway_hit" {
        // Hits are counted on every verified op of the phase, the
        // one per client that ends past the deadline included.
        let verified = (window.attempted - window.failed).max(1);
        let ratio = window.cache_hits as f64 / verified as f64;
        println!("   client-observed X-WSP-Cache hit ratio {ratio:.4}");
        if ratio < MIN_HIT_RATIO {
            notes.push(format!(
                "hit ratio {ratio:.4} is below {MIN_HIT_RATIO}: the run is invalid"
            ));
        }
    }
    let slices = window.samples_per_slice.len();
    println!(
        "   {slices} slices of {:.2} s, {} to {} samples each; hypervisor steal {:.2}% of the window",
        window.seconds / slices as f64,
        window.samples_per_slice.iter().min().unwrap_or(&0),
        window.samples_per_slice.iter().max().unwrap_or(&0),
        window.steal_share * 100.0
    );
    doc.set(
        "samples_per_slice",
        window
            .samples_per_slice
            .iter()
            .map(|&n| Json::from(n))
            .collect::<Vec<_>>(),
    );
    doc.set(
        "speed_per_slice",
        window
            .speed_per_slice
            .iter()
            .map(|&s| Json::from(s))
            .collect::<Vec<_>>(),
    );
    doc.set("steal_share", window.steal_share);
    Ok(window)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn write_trace(path: &Path, workload: &str, spans: &[trace::Span]) -> Result<(), String> {
    let io = |e: std::io::Error| format!("write {}: {e}", path.display());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path).map_err(io)?);
    trace::write_json(&mut out, workload, spans).map_err(io)?;
    out.flush().map_err(io)
}

/// Run the ladder alone and print it.
pub fn run_ladder(quick: bool, json_out: Option<&Path>) -> Result<(), String> {
    let cpu = sys::pin_to_one_cpu()?;
    println!("== ladder: isolated, fixed iteration counts, on CPU {cpu}");
    let mut values = Values::default();
    for (name, value) in ladder::run(quick) {
        values.put_spread(name, value);
    }
    let table = || report::LADDER.iter().map(|p| (p.name, p.unit));
    report::print_metrics("ladder", table(), &values);
    if let Some(path) = json_out {
        write_file(
            path,
            &report::metrics_json(table(), &values, true).to_pretty(),
        )?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The whole benchmark: fresh child process per workload
// ---------------------------------------------------------------------------

pub struct Suite {
    pub seed: u64,
    pub seconds: u64,
    pub quick: bool,
    /// Directory for result.json, per-workload documents and traces.
    pub out_dir: PathBuf,
}

fn child(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .args(args)
        .status()
        .map_err(|e| format!("spawn child: {e}"))?;
    Ok(status.success())
}

pub fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    crate::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run every workload untraced, the ladder, then every workload traced,
/// each in a child process of its own, and merge their documents into
/// `<out_dir>/result.json`. Returns whether every workload was correct.
pub fn run_suite(suite: &Suite) -> Result<bool, String> {
    let mode_args = |args: &mut Vec<String>| {
        if suite.quick {
            args.push("--quick".to_owned());
        }
    };
    let mut all_correct = true;
    let mut merged = Json::obj()
        .with("benchmark", "wspeer-bench")
        .with("mode", if suite.quick { "quick" } else { "full" })
        .with("seed", suite.seed)
        .with("run_seconds", suite.seconds)
        .with("environment", sys::environment());
    let mut workloads = Json::obj();

    for trace in [false, true] {
        for w in &WORKLOADS {
            let suffix = if trace { "-trace" } else { "" };
            let path = suite.out_dir.join(format!("{}{suffix}.json", w.name));
            let mut args = vec![
                "run-one".to_owned(),
                "--workload".to_owned(),
                w.name.to_owned(),
                "--seed".to_owned(),
                suite.seed.to_string(),
                "--seconds".to_owned(),
                suite.seconds.to_string(),
                "--trace".to_owned(),
                u8::from(trace).to_string(),
                "--ladder".to_owned(),
                "0".to_owned(),
                "--json-out".to_owned(),
                path.display().to_string(),
            ];
            mode_args(&mut args);
            if !child(&args)? {
                return Err(format!(
                    "{} (trace {}) did not finish",
                    w.name,
                    u8::from(trace)
                ));
            }
            let doc = read_json(&path)?;
            all_correct &= doc.get("correct").and_then(Json::as_bool) == Some(true);
            let mut entry = workloads.get(w.name).cloned().unwrap_or_else(Json::obj);
            if trace {
                for key in ["per_layer", "largest_self_span", "spans"] {
                    if let Some(v) = doc.get(key) {
                        entry.set(key, v.clone());
                    }
                }
                entry.set(
                    "traced_correct",
                    doc.get("correct").cloned().unwrap_or(Json::Null),
                );
            } else {
                entry = doc;
            }
            workloads.set(w.name, entry);
        }
        if !trace {
            let path = suite.out_dir.join("ladder.json");
            let mut args = vec![
                "ladder".to_owned(),
                "--json-out".to_owned(),
                path.display().to_string(),
            ];
            mode_args(&mut args);
            if !child(&args)? {
                return Err("the ladder did not finish".to_owned());
            }
            merged.set("ladder", read_json(&path)?);
        }
    }
    merged.set("workloads", workloads);
    merged.set("correct", all_correct);
    let result = suite.out_dir.join("result.json");
    write_file(&result, &merged.to_pretty())?;
    println!("== result written to {}", result.display());
    if !all_correct {
        println!("== FAILED: at least one workload had failed ops or an invalid run");
    }
    Ok(all_correct)
}

/// Run the whole benchmark twice on the current tree and compare the
/// two results with the benchmark's own bounds.
pub fn selfcheck(seed: u64, seconds: u64, quick: bool) -> Result<bool, String> {
    let mut paths = Vec::new();
    let mut correct = true;
    for run in ["selfcheck-a", "selfcheck-b"] {
        let out_dir = Path::new(OUT_DIR).join(run);
        correct &= run_suite(&Suite {
            seed,
            seconds,
            quick,
            out_dir: out_dir.clone(),
        })?;
        paths.push(out_dir.join("result.json"));
    }
    let (a, b) = (read_json(&paths[0])?, read_json(&paths[1])?);
    let report = compare::compare(&a, &b)?;
    print!("{}", report.render());
    // The ladder's allocation counts must repeat exactly.
    let mut allocs_repeat = true;
    for p in report::LADDER.iter().filter(|p| p.unit == "count") {
        let value = |doc: &Json| {
            doc.get("ladder")
                .and_then(|l| l.get(p.name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        if value(&a) != value(&b) {
            println!(
                "{} did not repeat: {:?} vs {:?}",
                p.name,
                value(&a),
                value(&b)
            );
            allocs_repeat = false;
        }
    }
    Ok(correct && report.clean() && allocs_repeat)
}
