//! `wspeer-bench` — one end-to-end + per-layer benchmark for WSPeer's
//! four verbs (deploy, publish, locate, invoke) over both bindings and
//! through the mediation gateway. See `bench/README.md`.
//!
//! Everything is measured from outside the programs: through their
//! public functions, through handlers this crate deploys, through
//! `wsp_core::telemetry::global().snapshot()`, and through `/proc`.

pub mod alloc;
pub mod compare;
pub mod gen;
pub mod json;
pub mod ladder;
pub mod report;
pub mod runner;
pub mod speed;
pub mod stats;
pub mod suite;
pub mod sys;
pub mod trace;
pub mod workloads;

/// A named workload and the one-line reason it exists.
pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 7] = [
    WorkloadInfo {
        name: "invoke_small",
        why: "64-byte echo over HTTP keep-alive: per-message cost (reactor, HTTP codec, dispatcher, envelope framing) dominates",
    },
    WorkloadInfo {
        name: "invoke_large",
        why: "16 KiB echo with 3% escaped characters: per-byte XML and SOAP work dominates, little of it in invoke_small",
    },
    WorkloadInfo {
        name: "p2ps_invoke",
        why: "the same echo over the P2PS binding (pipes, WS-Addressing ReplyTo, RPC correlation); bypasses wsp-http entirely",
    },
    WorkloadInfo {
        name: "gateway_miss",
        why: "bare mediation: unique small bodies through the gateway to 4 backends, every op pays a fresh backend connection",
    },
    WorkloadInfo {
        name: "gateway_hit",
        why: "same gateway path, idempotent hot set of 64: response-cache hits, no backend hop; bypasses client I/O changes",
    },
    WorkloadInfo {
        name: "lifecycle",
        why: "the hosting half: deploy+publish, locate, one invoke, undeploy per op against an HTTP UDDI registry",
    },
    WorkloadInfo {
        name: "discovery_mix",
        why: "90% Zipf locate, 10% republish on the 6-node replicated discovery plane over HTTP: reads beside writes",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system sees, with the
/// share of the baseline's median by which it may worsen before the
/// comparator calls a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub meaning: &'static str,
}

/// The same names on every workload. `failed_ratio` is reported beside
/// these (as `failed` / `attempted`) and gated at "any increase"; it is
/// not in this table because a gated metric must never read 0.
///
/// Times and rates of the measured window are at the reference machine
/// speed (see [`speed`]). The gated tail percentile is p90 and every
/// bound is 25 %: a bound must stay wider than the spread of identical
/// runs in the worst hour of the shared machine this benchmark was
/// defined on, or it gates noise. `latency_p99_us` is still measured and
/// printed (see [`report::TRACED`]).
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "throughput_ops_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
        meaning: "verified-OK operations per second, 2 closed-loop clients on one CPU",
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        meaning: "per-op latency, median",
    },
    EndToEnd {
        name: "latency_p90_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        meaning: "per-op latency, 90th percentile",
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        meaning: "process user+system CPU over the window / OK ops",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        meaning: "VmHWM of the process at exit, the growth during the window at reference speed",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        meaning: "fixtures launched, services published, first op verified",
    },
];

pub fn workload_info(name: &str) -> Option<&'static WorkloadInfo> {
    WORKLOADS.iter().find(|w| w.name == name)
}
