//! Printing: the human tables of `satbench all`, the result file
//! `satbench compare` reads, the driver's one-line result, and the
//! `BENCHMARK.json` the tables imply.

use std::fmt::Write as _;

use crate::child::{json_num, json_str};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::runner::WorkloadResult;
use crate::workload::Workload;

/// Why each workload was chosen: one line each, the `why` of
/// `BENCHMARK.json`. The frozen sizing is part of the reason a number
/// means what it means, so it is stated here.
pub fn why(w: Workload) -> &'static str {
    match w {
        Workload::SuiteSteady => {
            "Paper 4.2.2-4.2.3: 11-app suite, LaunchOptions::small + 5000 steady events/app; pure read path (access, TLB, walk, cache); fork, phys and promote changes must show no change."
        }
        Workload::FleetChurn => {
            "Process lifecycle: 1024 zygote children on 32 cores, 8 rounds, then reaped; fork/exit, shared-PTP registry, PTP slab, single-frame alloc/free; few accesses; the memory-footprint workload."
        }
        Workload::ServePressure => {
            "4 seeds x (16 servers, 64 requests, churn 8) at 3/4 of the uncapped peak: clock-LRU, rmap drain, shared-PTP tears, flushes, IPIs, refaults - the layers used the other way. Unvalidated."
        }
        Workload::ReachPromote => {
            "Three reach cells at 384 touched pages: promote_scan + PhysMem::alloc_run + demote_range do the work; the contiguous-run use of the allocator that fleet_churn bypasses."
        }
        Workload::BinderIpc => {
            "Figure 13: 10000 binder round trips, stock vs shared; context-switch path (micro-TLB flush, ASID/global matching, domain faults) with no phys or reclaim work measured."
        }
    }
}

/// The `BENCHMARK.json` the metric tables and workloads imply.
pub fn manifest(run_seconds: u32) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {run_seconds},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.into_iter().enumerate() {
        out.push_str("    {\"name\": ");
        json_str(&mut out, w.name());
        out.push_str(", \"why\": ");
        json_str(&mut out, why(w));
        out.push_str(if i + 1 < Workload::ALL.len() {
            "},\n"
        } else {
            "}\n"
        });
    }
    out.push_str("  ],\n");
    let table = |out: &mut String, key: &str, defs: &[MetricDef], last: bool| {
        let _ = writeln!(out, "  \"{key}\": [");
        for (i, m) in defs.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name,
                m.unit,
                m.better.as_str()
            );
            if let Some(b) = m.bound {
                let _ = write!(out, ", \"bound\": {b}");
            }
            out.push_str(if i + 1 < defs.len() { "},\n" } else { "}\n" });
        }
        out.push_str(if last { "  ]\n" } else { "  ],\n" });
    };
    table(&mut out, "end_to_end", END_TO_END, false);
    table(&mut out, "per_layer", PER_LAYER, true);
    out.push_str("}\n");
    out
}

/// The driver's result: one JSON object, `--trace 0` with every
/// end-to-end metric, `--trace 1` with every per-layer one.
pub fn contract_line(r: &WorkloadResult, trace: bool) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.failed == 0,
        r.attempted.max(1),
        r.failed
    );
    let mut first = true;
    let mut put = |out: &mut String, name: &str, value: f64, unit: &str| {
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(value)
        );
    };
    if trace {
        for m in PER_LAYER {
            put(
                &mut out,
                m.name,
                r.per_layer.get(m.name).copied().unwrap_or(0.0),
                m.unit,
            );
        }
    } else {
        for m in &r.end_to_end {
            put(&mut out, m.def.name, m.value, m.def.unit);
        }
    }
    out.push_str("}}");
    out
}

fn pct(share: f64) -> String {
    format!("{:.1}%", share * 100.0)
}

/// The end-to-end table of one workload, with the noise columns.
pub fn end_to_end_table(r: &WorkloadResult) -> String {
    let mut out = String::new();
    let unresolved = r.unresolved();
    let _ = writeln!(
        out,
        "## {} — sim_digest {} — {}",
        r.workload.name(),
        r.digest,
        if unresolved.is_empty() {
            "resolved".to_string()
        } else {
            format!("UNRESOLVED ({})", unresolved.join(", "))
        }
    );
    let _ = writeln!(
        out,
        "   (one op of sim_ops_per_s = {})",
        r.workload.op_unit()
    );
    let _ = writeln!(
        out,
        "  {:<16} {:>14} {:<6} {:>6}  {:>12} {:>12} {:>12} {:>3}  halves_gap_pct",
        "metric", "value", "unit", "bound", "median", "q1", "q3", "n"
    );
    for m in &r.end_to_end {
        let s = &m.summary;
        let _ = writeln!(
            out,
            "  {:<16} {:>14.6} {:<6} {:>6}  {:>12.6} {:>12.6} {:>12.6} {:>3}  {}",
            m.def.name,
            m.value,
            m.def.unit,
            m.def.bound.map_or("-".into(), pct),
            s.median,
            s.q1,
            s.q3,
            s.n,
            m.halves_gap.map_or("-".into(), |g| {
                format!("{}{}", pct(g), if m.resolved() { "" } else { "  > bound" })
            }),
        );
    }
    let _ = writeln!(
        out,
        "  {:<16} {:>14.6} {:<6}        ({} failed of {} driver ops and audits)",
        "ops_failed_pct",
        r.ops_failed_pct(),
        "%",
        r.failed,
        r.attempted
    );
    match r.paper_err_pct {
        Some(err) => {
            let _ = writeln!(
                out,
                "  {:<16} {:>14.6} {:<6}        (fidelity rep, paper sizing)",
                "paper_err_pct", err, "points"
            );
            for (what, measured, paper) in &r.paper_rows {
                let _ = writeln!(out, "      {what}: {measured:.2} (paper: {paper})");
            }
        }
        None if r.workload.has_paper_reference() => {}
        None => {
            let _ = writeln!(
                out,
                "  paper_err_pct    unvalidated: the paper has no reference for this workload"
            );
        }
    }
    for f in &r.failures {
        let _ = writeln!(out, "  FAILED: {f}");
    }
    out
}

/// Every per-layer metric, one row each, one column per workload.
pub fn per_layer_table(results: &[WorkloadResult]) -> String {
    let mut out = String::new();
    let _ = write!(out, "  {:<34} {:<7}", "per-layer metric", "unit");
    for r in results {
        let _ = write!(out, " {:>15}", r.workload.name());
    }
    out.push('\n');
    for m in PER_LAYER {
        let _ = write!(out, "  {:<34} {:<7}", m.name, m.unit);
        for r in results {
            let v = r.per_layer.get(m.name).copied().unwrap_or(0.0);
            let cell = if v.fract() == 0.0 && v.abs() < 1e15 {
                format!("{v}")
            } else {
                format!("{v:.3}")
            };
            let _ = write!(out, " {cell:>15}");
        }
        out.push('\n');
    }
    out
}

/// The result file `satbench compare` reads.
pub fn results_json(seed: u64, results: &[WorkloadResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{\n  \"seed\": {seed},\n  \"workloads\": {{");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(out, "    \"{}\": {{", r.workload.name());
        let _ = writeln!(out, "      \"sim_digest\": \"{}\",", r.digest);
        let _ = writeln!(
            out,
            "      \"attempted\": {}, \"failed\": {}, \"ops_failed_pct\": {}, \"paper_err_pct\": {},",
            r.attempted,
            r.failed,
            json_num(r.ops_failed_pct()),
            r.paper_err_pct.map_or("null".into(), json_num),
        );
        out.push_str("      \"end_to_end\": {\n");
        for (k, m) in r.end_to_end.iter().enumerate() {
            let s = &m.summary;
            let _ = writeln!(
                out,
                "        \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"n\": {}, \"median\": {}, \
                 \"q1\": {}, \"q3\": {}, \"halves_gap\": {}}}{}",
                m.def.name,
                json_num(m.value),
                m.def.unit,
                s.n,
                json_num(s.median),
                json_num(s.q1),
                json_num(s.q3),
                m.halves_gap.map_or("null".into(), json_num),
                if k + 1 < r.end_to_end.len() { "," } else { "" },
            );
        }
        out.push_str("      },\n      \"per_layer\": ");
        crate::child::json_num_map(&mut out, r.per_layer.iter().map(|(k, v)| (k.as_str(), *v)));
        let _ = writeln!(
            out,
            "\n    }}{}",
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    out.push_str("  }\n}\n");
    out
}
