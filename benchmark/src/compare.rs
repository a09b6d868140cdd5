//! `compare <a.json> <b.json>`: two result files of `run`, one row
//! per workload × end-to-end metric. Running it on two runs of the
//! same commit is the A/A check.

use crate::metrics::{Better, END_TO_END};
use crate::stats::quartiles;
use crate::workloads::WORKLOADS;
use serde::Value;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread is wider than the bound and the two sets
    /// of runs overlap: the data cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How `b` compares with the baseline `a`.
///
/// * `Unresolved` when either side's quartile distance exceeds
///   `bound` × the baseline median and the two sets of runs overlap
///   (if every run of one side is clear of every run of the other, a
///   wide spread does not hide the direction).
/// * `Regressed` / `Improved` when `b`'s median is worse / better than
///   `a`'s by more than `bound`.
/// * `Unchanged` otherwise.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let [a_q1, a_med, a_q3] = quartiles(a);
    let [b_q1, b_med, b_q3] = quartiles(b);
    if a.is_empty() || b.is_empty() || a_med == 0.0 {
        return Verdict::Unresolved;
    }
    let spread = (a_q3 - a_q1).max(b_q3 - b_q1);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let overlap = max(b) >= min(a) && min(b) <= max(a);
    let worse_by = match better {
        Better::Lower => (b_med - a_med) / a_med,
        Better::Higher => (a_med - b_med) / a_med,
    };
    if spread > bound * a_med.abs() && overlap {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The per-rep values of one workload × metric in a result file.
fn values(results: &Value, workload: &str, metric: &str) -> Vec<f64> {
    results
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Value::as_array)
        .map(|v| v.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// Prints the comparison; `Ok(true)` when nothing regressed.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let host = |r: &Value| r.get("host").cloned().unwrap_or(Value::Null);
    if host(&a) != host(&b) {
        println!("warning: the two files come from different hosts; timings do not compare");
    }
    println!(
        "{:<18} {:<16} {:>36} {:>36} {:>22}  verdict",
        "workload", "metric", "a: median [q1, q3]", "b: median [q1, q3]", "b/a (base: a median)"
    );
    let mut clean = true;
    for workload in &WORKLOADS {
        for metric in &END_TO_END {
            let (va, vb) = (
                values(&a, workload.name, metric.name),
                values(&b, workload.name, metric.name),
            );
            let [a_q1, a_med, a_q3] = quartiles(&va);
            let [b_q1, b_med, b_q3] = quartiles(&vb);
            let result = verdict(&va, &vb, metric.better, metric.bound);
            clean &= result != Verdict::Regressed;
            println!(
                "{:<18} {:<16} {:>36} {:>36} {:>22}  {}",
                workload.name,
                metric.name,
                format!("{a_med:.4} [{a_q1:.4}, {a_q3:.4}]"),
                format!("{b_med:.4} [{b_q1:.4}, {b_q3:.4}]"),
                format!("{:.4} (of {a_med:.4} {})", b_med / a_med, metric.unit),
                result.as_str()
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_table() {
        let lower = |a: &[f64], b: &[f64]| verdict(a, b, Better::Lower, 0.10);
        // Tight runs, medians within the bound either way.
        assert_eq!(
            lower(&[10.0, 10.1, 10.2], &[10.3, 10.4, 10.5]),
            Verdict::Unchanged
        );
        // All of b below all of a, but by 5 %: an A/A run does that
        // one time in twenty with three reps a side.
        assert_eq!(
            lower(&[10.0, 10.1, 10.2], &[9.5, 9.6, 9.7]),
            Verdict::Unchanged
        );
        // Median 20 % worse, 20 % better.
        assert_eq!(
            lower(&[10.0, 10.1, 10.2], &[12.0, 12.1, 12.2]),
            Verdict::Regressed
        );
        assert_eq!(
            lower(&[10.0, 10.1, 10.2], &[8.0, 8.1, 8.2]),
            Verdict::Improved
        );
        // Spread (30 %) wider than the bound and the runs overlap.
        assert_eq!(
            lower(&[9.0, 10.0, 12.0], &[9.5, 11.5, 12.5]),
            Verdict::Unresolved
        );
        // Spread wider than the bound, but b is clear of a entirely.
        assert_eq!(
            lower(&[9.0, 10.0, 12.0], &[15.0, 16.0, 18.0]),
            Verdict::Regressed
        );
        assert_eq!(
            lower(&[9.0, 10.0, 12.0], &[5.0, 6.0, 6.5]),
            Verdict::Improved
        );
        // Nothing to compare.
        assert_eq!(lower(&[], &[1.0]), Verdict::Unresolved);
    }

    #[test]
    fn verdict_respects_direction() {
        let higher = |a: &[f64], b: &[f64]| verdict(a, b, Better::Higher, 0.10);
        assert_eq!(
            higher(&[100.0, 101.0, 102.0], &[80.0, 81.0, 82.0]),
            Verdict::Regressed
        );
        assert_eq!(
            higher(&[100.0, 101.0, 102.0], &[120.0, 121.0, 122.0]),
            Verdict::Improved
        );
        assert_eq!(
            higher(&[100.0, 101.0, 102.0], &[95.0, 96.0, 97.0]),
            Verdict::Unchanged
        );
    }
}
