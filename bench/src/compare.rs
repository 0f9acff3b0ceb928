//! `wspeer-bench compare A.json B.json`: apply the benchmark's bounds
//! to every (workload, end-to-end metric) pairing of two results. A is
//! the base: every ratio printed is `B / A`.

use crate::json::Json;
use crate::stats::Spread;
use crate::{Better, END_TO_END};
use std::fmt::Write as _;

/// `setup_s` may worsen by its bound or by this many seconds, whichever
/// is larger: a 10 ms set-up that takes 14 ms is noise, not a
/// regression.
pub const SETUP_FLOOR_S: f64 = 0.050;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// B's median is better than A's by more than the bound.
    Better,
    /// Medians agree within the bound and so do the slices.
    WithinBound,
    /// Medians agree within the bound, but the middle half of one
    /// side's slices spreads by more than the bound: the run cannot
    /// tell "unchanged" from "changed".
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Regression => "REGRESSION",
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: f64,
    pub b: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

impl Row {
    /// `B / A`; the base is A.
    pub fn ratio(&self) -> f64 {
        self.b / self.a
    }
}

/// Judge one pairing. A difference counts only beyond `bound` (a share
/// of A's median) *and* beyond `floor` (absolute).
pub fn judge(better: Better, bound: f64, floor: f64, a: Spread, b: Spread) -> Verdict {
    let beyond = |difference: f64| difference > bound * a.median.abs() && difference > floor;
    let worse_by = match better {
        Better::Higher => a.median - b.median,
        Better::Lower => b.median - a.median,
    };
    if beyond(worse_by) {
        return Verdict::Regression;
    }
    if beyond(-worse_by) {
        return Verdict::Better;
    }
    if beyond(a.high - a.low) || beyond(b.high - b.low) {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    }
}

#[derive(Debug, Default)]
pub struct Report {
    pub rows: Vec<Row>,
    pub a_label: String,
    pub b_label: String,
}

impl Report {
    /// No regression and nothing unresolved.
    pub fn clean(&self) -> bool {
        self.rows
            .iter()
            .all(|r| matches!(r.verdict, Verdict::WithinBound | Verdict::Better))
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== compare: A = {} (the base of every ratio), B = {}",
            self.a_label, self.b_label
        );
        let _ = writeln!(
            out,
            "{:<14} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
            "workload", "metric", "A", "B", "B/A", "bound"
        );
        for r in &self.rows {
            // 0 / 0 (no failures on either side) has no ratio.
            let ratio = if r.ratio().is_finite() {
                format!("{:.4}", r.ratio())
            } else {
                "-".to_owned()
            };
            let _ = writeln!(
                out,
                "{:<14} {:<18} {:>14.4} {:>14.4} {ratio:>9} {:>6.0}%  {} ({})",
                r.workload,
                r.metric,
                r.a,
                r.b,
                r.bound * 100.0,
                r.verdict.as_str(),
                r.unit
            );
        }
        let count = |v: Verdict| self.rows.iter().filter(|r| r.verdict == v).count();
        let _ = writeln!(
            out,
            "== {} pairings: {} regression, {} unresolved, {} better, {} within bound",
            self.rows.len(),
            count(Verdict::Regression),
            count(Verdict::Unresolved),
            count(Verdict::Better),
            count(Verdict::WithinBound)
        );
        out
    }
}

fn spread_of(entry: &Json) -> Option<Spread> {
    let median = entry.get("value")?.as_f64()?;
    Some(Spread {
        median,
        low: entry.get("low").and_then(Json::as_f64).unwrap_or(median),
        high: entry.get("high").and_then(Json::as_f64).unwrap_or(median),
    })
}

fn label(doc: &Json) -> String {
    format!(
        "{} mode, seed {}, commit {}",
        doc.get("mode").and_then(Json::as_str).unwrap_or("?"),
        doc.get("seed").and_then(Json::as_f64).unwrap_or(-1.0),
        doc.get("environment")
            .and_then(|e| e.get("commit"))
            .and_then(Json::as_str)
            .unwrap_or("?")
    )
}

/// Compare two `result.json` documents. Refuses to compare results of
/// different modes: a quick run is a smoke test of the harness, and its
/// numbers next to a full run's are a contradiction waiting to be
/// quoted.
pub fn compare(a: &Json, b: &Json) -> Result<Report, String> {
    let mode = |doc: &Json| doc.get("mode").and_then(Json::as_str).map(str::to_owned);
    match (mode(a), mode(b)) {
        (Some(ma), Some(mb)) if ma == mb => {}
        (ma, mb) => {
            return Err(format!(
                "refusing to compare a {} run with a {} run",
                ma.as_deref().unwrap_or("mode-less"),
                mb.as_deref().unwrap_or("mode-less")
            ))
        }
    }
    let mut report = Report {
        a_label: label(a),
        b_label: label(b),
        ..Report::default()
    };
    let workloads_a = a.get("workloads").ok_or("A has no workloads")?;
    let workloads_b = b.get("workloads").ok_or("B has no workloads")?;
    for (name, wa) in workloads_a.fields() {
        let wb = workloads_b
            .get(name)
            .ok_or_else(|| format!("B lacks workload {name}"))?;
        for metric in &END_TO_END {
            let read = |w: &Json, side: &str| {
                w.get("end_to_end")
                    .and_then(|e| e.get(metric.name))
                    .and_then(spread_of)
                    .ok_or_else(|| format!("{side} lacks {name}/{}", metric.name))
            };
            let (sa, sb) = (read(wa, "A")?, read(wb, "B")?);
            let floor = if metric.name == "setup_s" {
                SETUP_FLOOR_S
            } else {
                0.0
            };
            report.rows.push(Row {
                workload: name.clone(),
                metric: metric.name,
                unit: metric.unit,
                a: sa.median,
                b: sb.median,
                bound: metric.bound,
                verdict: judge(metric.better, metric.bound, floor, sa, sb),
            });
        }
        // failed_ratio: any increase is a regression.
        let ratio = |w: &Json| w.get("failed_ratio").and_then(Json::as_f64).unwrap_or(0.0);
        let (fa, fb) = (ratio(wa), ratio(wb));
        report.rows.push(Row {
            workload: name.clone(),
            metric: "failed_ratio",
            unit: "ratio",
            a: fa,
            b: fb,
            bound: 0.0,
            verdict: if fb > fa {
                Verdict::Regression
            } else {
                Verdict::WithinBound
            },
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, low: f64, high: f64) -> Spread {
        Spread { median, low, high }
    }

    #[test]
    fn verdicts_on_hand_made_pairings() {
        use Better::{Higher, Lower};
        // Latency 100 -> 109: inside +10 %.
        assert_eq!(
            judge(
                Lower,
                0.10,
                0.0,
                s(100.0, 98.0, 103.0),
                s(109.0, 107.0, 110.0)
            ),
            Verdict::WithinBound
        );
        // Latency 100 -> 111: outside.
        assert_eq!(
            judge(
                Lower,
                0.10,
                0.0,
                s(100.0, 98.0, 103.0),
                s(111.0, 109.0, 112.0)
            ),
            Verdict::Regression
        );
        // Throughput 1000 -> 880: outside -10 %.
        assert_eq!(
            judge(
                Higher,
                0.10,
                0.0,
                s(1000.0, 990.0, 1010.0),
                s(880.0, 870.0, 890.0)
            ),
            Verdict::Regression
        );
        // Throughput up by more than the bound: better.
        assert_eq!(
            judge(
                Higher,
                0.10,
                0.0,
                s(1000.0, 990.0, 1010.0),
                s(1200.0, 1190.0, 1210.0)
            ),
            Verdict::Better
        );
        // Medians agree but B's slices span 30 %: cannot say unchanged.
        assert_eq!(
            judge(
                Lower,
                0.10,
                0.0,
                s(100.0, 98.0, 103.0),
                s(101.0, 90.0, 120.0)
            ),
            Verdict::Unresolved
        );
        // ... unless the medians differ by more than the bound.
        assert_eq!(
            judge(Lower, 0.10, 0.0, s(100.0, 95.0, 130.0), s(80.0, 70.0, 94.0)),
            Verdict::Better
        );
        // A metric measured once per run (peak RSS) has no slices: 1 %
        // less says nothing, 30 % less does.
        assert_eq!(
            judge(
                Lower,
                0.25,
                0.0,
                s(100.0, 100.0, 100.0),
                s(99.0, 99.0, 99.0)
            ),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(
                Lower,
                0.25,
                0.0,
                s(100.0, 100.0, 100.0),
                s(70.0, 70.0, 70.0)
            ),
            Verdict::Better
        );
        // Set-ups of 1 ms whose quartiles span 40 %: still under the
        // floor, so not unresolved either.
        assert_eq!(
            judge(
                Lower,
                0.25,
                SETUP_FLOOR_S,
                s(0.0010, 0.0009, 0.0013),
                s(0.0011, 0.0009, 0.0014)
            ),
            Verdict::WithinBound
        );
        // Set-up 10 ms -> 14 ms: +40 % but under the 50 ms floor.
        assert_eq!(
            judge(
                Lower,
                0.25,
                SETUP_FLOOR_S,
                s(0.010, 0.010, 0.010),
                s(0.014, 0.014, 0.014)
            ),
            Verdict::WithinBound
        );
        // Set-up 1.0 s -> 1.3 s: over both.
        assert_eq!(
            judge(
                Lower,
                0.25,
                SETUP_FLOOR_S,
                s(1.0, 1.0, 1.0),
                s(1.3, 1.3, 1.3)
            ),
            Verdict::Regression
        );
    }

    fn result(mode: &str, throughput: f64, failed_ratio: f64) -> Json {
        let mut e2e = Json::obj();
        for m in &END_TO_END {
            let v = if m.name == "throughput_ops_s" {
                throughput
            } else {
                1.0
            };
            e2e.set(
                m.name,
                Json::obj()
                    .with("value", v)
                    .with("unit", m.unit)
                    .with("low", v * 0.99)
                    .with("high", v * 1.01),
            );
        }
        Json::obj().with("mode", mode).with("seed", 1u64).with(
            "workloads",
            Json::obj().with(
                "invoke_small",
                Json::obj()
                    .with("end_to_end", e2e)
                    .with("failed_ratio", failed_ratio),
            ),
        )
    }

    #[test]
    fn compare_walks_every_pairing_and_reports_ratio_with_base() {
        let report = compare(&result("full", 1000.0, 0.0), &result("full", 700.0, 0.0)).unwrap();
        assert_eq!(report.rows.len(), END_TO_END.len() + 1);
        let t = &report.rows[0];
        assert_eq!(
            (t.metric, t.verdict),
            ("throughput_ops_s", Verdict::Regression)
        );
        assert_eq!(t.ratio(), 0.7);
        assert!(!report.clean());
        let text = report.render();
        assert!(text.contains("A = full mode, seed 1"), "{text}");
        assert!(text.contains("the base of every ratio"));
        assert!(text.contains("REGRESSION"));
        assert!(text.contains("1 regression, 0 unresolved"));
    }

    #[test]
    fn any_increase_of_failed_ratio_is_a_regression() {
        let report = compare(&result("full", 1000.0, 0.0), &result("full", 1000.0, 1e-6)).unwrap();
        let row = report
            .rows
            .iter()
            .find(|r| r.metric == "failed_ratio")
            .unwrap();
        assert_eq!(row.verdict, Verdict::Regression);
        let same = compare(&result("full", 1000.0, 0.0), &result("full", 1000.0, 0.0)).unwrap();
        assert!(same.clean());
    }

    #[test]
    fn quick_against_full_is_refused() {
        let err = compare(&result("quick", 1.0, 0.0), &result("full", 1.0, 0.0)).unwrap_err();
        assert!(
            err.contains("refusing to compare a quick run with a full run"),
            "{err}"
        );
        assert!(compare(&Json::obj(), &result("full", 1.0, 0.0)).is_err());
    }
}
