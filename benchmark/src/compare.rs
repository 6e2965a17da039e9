//! `satbench compare <a.json> <b.json>`: one row per (workload,
//! end-to-end metric) with both values, the change, the bound and a
//! verdict — the before/after table of every later issue, and the
//! two-sets check that the benchmark agrees with itself.

use std::fmt::Write as _;

use sat_obs::json::Json;

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workload::Workload;

/// What a row concludes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// A set's own interleaved halves disagree by more than the bound,
    /// so a change of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a row.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub value: f64,
    pub halves_gap: Option<f64>,
}

/// The verdict on one metric given both sides.
pub fn verdict(def: &crate::metrics::MetricDef, a: Side, b: Side) -> Verdict {
    let bound = def.bound.unwrap_or(f64::INFINITY);
    if def.better.worse_by(a.value, b.value) > bound {
        Verdict::Worse
    } else if [a, b]
        .iter()
        .any(|s| s.halves_gap.is_some_and(|g| g > bound))
    {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn side(set: &Json, workload: &str, metric: &str) -> Option<Side> {
    let m = set
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        halves_gap: m.get("halves_gap").and_then(Json::as_f64),
    })
}

/// Compares two result files; returns the table and whether every row
/// is `ok`.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let a = Json::parse(a_text).map_err(|e| format!("first file: {e}"))?;
    let b = Json::parse(b_text).map_err(|e| format!("second file: {e}"))?;
    let mut out = String::new();
    let mut all_ok = true;
    let _ = writeln!(
        out,
        "{:<15} {:<15} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "change", "bound"
    );
    for w in Workload::ALL {
        for def in END_TO_END {
            let (Some(sa), Some(sb)) = (side(&a, w.name(), def.name), side(&b, w.name(), def.name))
            else {
                return Err(format!(
                    "{} / {} is missing from a file",
                    w.name(),
                    def.name
                ));
            };
            let v = verdict(def, sa, sb);
            all_ok &= v == Verdict::Ok;
            let _ = writeln!(
                out,
                "{:<15} {:<15} {:>14.6} {:>14.6} {:>+7.1}% {:>5.1}%  {}",
                w.name(),
                def.name,
                sa.value,
                sb.value,
                (sb.value - sa.value) / sa.value * 100.0,
                def.bound.unwrap_or(0.0) * 100.0,
                v.as_str()
            );
        }
    }
    // What must repeat exactly: digests, failure and fidelity figures,
    // and every count-type per-layer metric.
    let mut moved = Vec::new();
    for w in Workload::ALL {
        let get = |set: &Json, key: &str| {
            set.get("workloads")
                .and_then(|x| x.get(w.name()))
                .and_then(|x| x.get(key))
                .cloned()
        };
        for key in ["sim_digest", "ops_failed_pct", "paper_err_pct"] {
            if get(&a, key) != get(&b, key) {
                moved.push(format!("{} {key}", w.name()));
            }
        }
        let (la, lb) = (get(&a, "per_layer"), get(&b, "per_layer"));
        for m in PER_LAYER
            .iter()
            .filter(|m| m.unit == "count" || m.unit == "cycles" || m.unit == "frames")
        {
            let va = la
                .as_ref()
                .and_then(|l| l.get(m.name))
                .and_then(Json::as_f64);
            let vb = lb
                .as_ref()
                .and_then(|l| l.get(m.name))
                .and_then(Json::as_f64);
            // `host.allocs` counts the benchmark's own allocations too
            // (formatted timings among them); it is not simulated.
            if va != vb && !m.name.starts_with("host.") {
                moved.push(format!("{} {} ({va:?} -> {vb:?})", w.name(), m.name));
            }
        }
    }
    if moved.is_empty() {
        out.push_str(
            "simulated statistics: identical (digests, failures, fidelity, every count)\n",
        );
    } else {
        out.push_str("simulated statistics MOVED — the model changed; judge it by paper_err_pct and compare sim_ops_per_s, not host_s:\n");
        for m in moved {
            let _ = writeln!(out, "  {m}");
        }
    }
    Ok((out, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::find;

    fn s(value: f64, halves_gap: Option<f64>) -> Side {
        Side { value, halves_gap }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_noise() {
        let host = find("host_s").unwrap(); // lower is better, 25%
        assert_eq!(
            verdict(host, s(1.0, Some(0.01)), s(1.1, Some(0.02))),
            Verdict::Ok
        );
        assert_eq!(verdict(host, s(1.0, None), s(1.3, None)), Verdict::Worse);
        assert_eq!(verdict(host, s(1.0, None), s(0.5, None)), Verdict::Ok);
        assert_eq!(
            verdict(host, s(1.0, Some(0.3)), s(1.0, Some(0.0))),
            Verdict::Unresolved
        );
        let ops = find("sim_ops_per_s").unwrap(); // higher is better
        assert_eq!(verdict(ops, s(100.0, None), s(70.0, None)), Verdict::Worse);
        assert_eq!(verdict(ops, s(100.0, None), s(130.0, None)), Verdict::Ok);
    }
}
