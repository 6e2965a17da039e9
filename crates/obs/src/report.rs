//! Rendering a [`Rollup`] for humans (`text`), machines (`json`), and
//! flamegraph tooling (`folded`).
//!
//! `repro report --trace x.json --format <fmt>` is the CLI surface;
//! the renderers are pure functions so tests can assert on output
//! without touching the filesystem.

use std::fmt::Write as _;

use crate::analyze::{Rollup, Timeline};
use crate::event::{ChargeCause, FaultClass, RegionOpKind};
use crate::json::escape_into;
use crate::metrics::{Histogram, MetricsRegistry};

/// Output format for `repro report`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReportFormat {
    Text,
    Json,
    Folded,
}

impl ReportFormat {
    pub fn parse(s: &str) -> Option<ReportFormat> {
        match s {
            "text" => Some(ReportFormat::Text),
            "json" => Some(ReportFormat::Json),
            "folded" => Some(ReportFormat::Folded),
            _ => None,
        }
    }
}

/// Renders the rollup in the requested format.
pub fn render(rollup: &Rollup, format: ReportFormat) -> String {
    match format {
        ReportFormat::Text => render_text(rollup),
        ReportFormat::Json => render_json(rollup),
        ReportFormat::Folded => render_folded(rollup),
    }
}

fn heading(out: &mut String, title: &str) {
    let _ = writeln!(out, "\n## {title}\n");
}

fn rule(out: &mut String, widths: &[usize]) {
    let line: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    let _ = writeln!(out, "{}", line.join("  "));
}

/// One label enum's counters as `(label, count)` rows in label order,
/// keeping only the labels the stream bumped at all — the per-class /
/// per-syscall / per-cause tables, read straight off the registry.
/// `keys` pairs each label with its counter key.
fn bumped(
    metrics: &MetricsRegistry,
    keys: impl IntoIterator<Item = (&'static str, &'static str)>,
) -> Vec<(&'static str, u64)> {
    let counters = metrics.counters_map();
    let mut rows: Vec<(&'static str, u64)> = keys
        .into_iter()
        .filter_map(|(label, key)| counters.get(key).map(|&n| (label, n)))
        .collect();
    rows.sort_unstable();
    rows
}

fn fault_classes(metrics: &MetricsRegistry) -> Vec<(&'static str, u64)> {
    bumped(
        metrics,
        FaultClass::ALL.map(|c| (c.as_str(), c.counter_key())),
    )
}

/// Human tables. Counts are exact (derived from the event stream);
/// span latencies come from log2-bucket histograms, so p50/p95 are
/// upper-bound estimates while min/max are exact.
pub fn render_text(r: &Rollup) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# repro report — {} events, {} dropped, {} pids, {} subsystems",
        r.event_count,
        r.dropped,
        r.pids.len(),
        r.subsystems.len()
    );

    heading(&mut out, "Event volume by subsystem");
    let _ = writeln!(out, "{:<12}  {:>10}", "subsystem", "events");
    rule(&mut out, &[12, 10]);
    for (name, n) in &r.subsystems {
        let _ = writeln!(out, "{name:<12}  {n:>10}");
    }

    heading(&mut out, "Unshare causes (Figure 6)");
    let _ = writeln!(out, "{:<12}  {:>9}  {:>6}", "cause", "unshares", "pct");
    rule(&mut out, &[12, 9, 6]);
    for (cause, n, pct) in r.fig6_breakdown() {
        let _ = writeln!(out, "{cause:<12}  {n:>9}  {pct:>5.1}%");
    }
    let count = |key: &str| r.metrics.counter(key);
    let _ = writeln!(
        out,
        "PTEs copied by unshares: {}; last-sharer fast path: {}",
        count("share.unshare.ptes_copied"),
        count("share.unshare.last_sharer")
    );

    for (title, table) in [
        ("Main-TLB flushes by reason", &r.main_flush_reasons),
        ("Micro-TLB flushes by reason", &r.micro_flush_reasons),
    ] {
        if table.is_empty() {
            continue;
        }
        heading(&mut out, title);
        let _ = writeln!(out, "{:<16}  {:>8}  {:>10}", "reason", "flushes", "entries");
        rule(&mut out, &[16, 8, 10]);
        for (reason, agg) in table.iter() {
            let _ = writeln!(
                out,
                "{:<16}  {:>8}  {:>10}",
                reason, agg.flushes, agg.entries
            );
        }
    }

    if count("vm.fault") > 0 {
        heading(&mut out, "Page faults by class");
        let _ = writeln!(out, "{:<14}  {:>8}", "class", "faults");
        rule(&mut out, &[14, 8]);
        for (class, n) in fault_classes(&r.metrics) {
            let _ = writeln!(out, "{class:<14}  {n:>8}");
        }
        let _ = writeln!(out, "file-backed: {}", count("vm.fault.file_backed"));
    }

    if count("tlb.shootdown") + count("kernel.asid.rollover") + count("sched.preempt") > 0 {
        heading(&mut out, "Scheduling and shootdowns");
        let _ = writeln!(out, "preemptions:            {}", count("sched.preempt"));
        let _ = writeln!(
            out,
            "asid rollovers:         {}",
            count("kernel.asid.rollover")
        );
        let _ = writeln!(
            out,
            "precise shootdowns:     {} (cores flushed: {}, local no-IPI: {}, cores skipped: {}, \
             range-granular: {})",
            count("tlb.shootdown"),
            count("tlb.shootdown.cores"),
            count("tlb.shootdown.local"),
            count("tlb.shootdown.skipped"),
            count("tlb.shootdown.scope.range")
        );
    }

    if count("flow.charges") > 0 {
        heading(&mut out, "Cycle charges by blame cause");
        let total: u64 = ChargeCause::ALL
            .iter()
            .map(|c| count(c.counter_key()))
            .sum();
        let _ = writeln!(out, "{:<16}  {:>14}  {:>6}", "cause", "cycles", "pct");
        rule(&mut out, &[16, 14, 6]);
        for cause in ChargeCause::ALL {
            let n = count(cause.counter_key());
            if n == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:<16}  {:>14}  {:>5.1}%",
                cause.as_str(),
                n,
                100.0 * n as f64 / total.max(1) as f64
            );
        }
        let _ = writeln!(
            out,
            "charges: {}; flows arrived/begun/completed: {}/{}/{}",
            count("flow.charges"),
            count("flow.arrive"),
            count("flow.begin"),
            count("flow.end")
        );
    }

    if count("kernel.reclaim") > 0 {
        heading(&mut out, "Memory reclaim");
        for (label, key) in [
            ("reclaim passes:       ", "kernel.reclaim"),
            ("pages evicted:        ", "kernel.reclaim.pages"),
            ("private PTEs torn:    ", "kernel.reclaim.pte_tears"),
            ("shared-PTP slots torn:", "kernel.reclaim.shared_tears"),
        ] {
            let _ = writeln!(out, "{label}  {}", count(key));
        }
    }

    if count("tlb.batch") > 0 {
        heading(&mut out, "Flush batching (mmu_gather)");
        for (label, key) in [
            ("batches applied:      ", "tlb.batch"),
            ("ops gathered:         ", "tlb.batch.ops"),
            ("ops coalesced away:   ", "tlb.batch.coalesced"),
            ("escalated to asid:    ", "tlb.batch.escalated"),
        ] {
            let _ = writeln!(out, "{label}  {}", count(key));
        }
    }

    if !r.spans.is_empty() {
        heading(&mut out, "Duration spans");
        let _ = writeln!(
            out,
            "{:<28}  {:>6}  {:>12}  {:>10}  {:>10}  {:>10}  {:>10}  unit",
            "span", "count", "total", "p50", "p95", "p99", "max"
        );
        rule(&mut out, &[28, 6, 12, 10, 10, 10, 10]);
        for (name, agg) in &r.spans {
            let _ = writeln!(
                out,
                "{:<28}  {:>6}  {:>12}  {:>10}  {:>10}  {:>10}  {:>10}  {}",
                name,
                agg.count,
                agg.hist.sum,
                agg.hist.percentile(50.0),
                agg.hist.percentile(95.0),
                agg.hist.percentile(99.0),
                agg.hist.max,
                agg.unit.as_str()
            );
        }
    }

    if !r.gauges.is_empty() {
        heading(&mut out, "Gauges (sampled)");
        let _ = writeln!(
            out,
            "{:<28}  {:>7}  {:>10}  {:>10}  {:>10}  {:>10}",
            "gauge", "samples", "first", "min", "max", "last"
        );
        rule(&mut out, &[28, 7, 10, 10, 10, 10]);
        for (name, s) in &r.gauges {
            let _ = writeln!(
                out,
                "{:<28}  {:>7}  {:>10}  {:>10}  {:>10}  {:>10}",
                name, s.samples, s.first, s.min, s.max, s.last
            );
        }
    }

    let fp = &r.footprint;
    if fp.pids.len() >= 2 {
        heading(&mut out, "Shared footprint overlap (paper §3)");
        let _ = writeln!(
            out,
            "{:<8}  {:<8}  {:>8}  {:>8}  {:>8}  {:>8}",
            "pid a", "pid b", "pages a", "pages b", "shared", "overlap"
        );
        rule(&mut out, &[8, 8, 8, 8, 8, 8]);
        for i in 0..fp.pids.len() {
            for j in (i + 1)..fp.pids.len() {
                let _ = writeln!(
                    out,
                    "{:<8}  {:<8}  {:>8}  {:>8}  {:>8}  {:>7.1}%",
                    fp.pids[i],
                    fp.pids[j],
                    fp.pages[i],
                    fp.pages[j],
                    fp.shared[i][j],
                    fp.overlap_pct(i, j)
                );
            }
        }
    }

    out
}

/// Renders `repro timeline`: the event stream rebucketed into tick
/// windows (absolute counts plus per-kilotick rates — logical ticks
/// are the simulator's only clock) and the per-gauge series
/// summaries. The totals row is the reconciliation surface: it must
/// match the whole-stream registry counters (and therefore
/// `KernelStats`) exactly.
pub fn render_timeline(t: &Timeline) -> String {
    let mut out = String::new();
    let totals = t.totals();
    let _ = writeln!(
        out,
        "# repro timeline — {} events over ticks {}..{}, window {} ticks, {} samples",
        totals.events, t.start, t.end, t.window, totals.samples
    );
    if t.rows.is_empty() {
        let _ = writeln!(out, "\n(empty trace)");
        return out;
    }

    heading(&mut out, "Windowed event counts");
    let _ = writeln!(
        out,
        "{:>10}  {:>8}  {:>6}  {:>7}  {:>8}  {:>8}  {:>6}  {:>8}  {:>7}",
        "tick", "events", "forks", "faults", "unshares", "flushes", "ipis", "preempts", "samples"
    );
    rule(&mut out, &[10, 8, 6, 7, 8, 8, 6, 8, 7]);
    for row in &t.rows {
        let _ = writeln!(
            out,
            "{:>10}  {:>8}  {:>6}  {:>7}  {:>8}  {:>8}  {:>6}  {:>8}  {:>7}",
            row.start,
            row.events,
            row.forks,
            row.faults,
            row.unshares,
            row.flushes,
            row.flush_ipis,
            row.preemptions,
            row.samples
        );
    }
    rule(&mut out, &[10, 8, 6, 7, 8, 8, 6, 8, 7]);
    let _ = writeln!(
        out,
        "{:>10}  {:>8}  {:>6}  {:>7}  {:>8}  {:>8}  {:>6}  {:>8}  {:>7}",
        "total",
        totals.events,
        totals.forks,
        totals.faults,
        totals.unshares,
        totals.flushes,
        totals.flush_ipis,
        totals.preemptions,
        totals.samples
    );

    if totals.reclaimed > 0 {
        heading(&mut out, "Windowed reclaim (pages evicted)");
        let _ = writeln!(out, "{:>10}  {:>9}", "tick", "reclaimed");
        rule(&mut out, &[10, 9]);
        for row in &t.rows {
            let _ = writeln!(out, "{:>10}  {:>9}", row.start, row.reclaimed);
        }
        rule(&mut out, &[10, 9]);
        let _ = writeln!(out, "{:>10}  {:>9}", "total", totals.reclaimed);
    }

    heading(&mut out, "Windowed rates (per 1k ticks)");
    let _ = writeln!(
        out,
        "{:>10}  {:>10}  {:>10}  {:>10}",
        "tick", "forks/kt", "faults/kt", "ipis/kt"
    );
    rule(&mut out, &[10, 10, 10, 10]);
    let per_kt = |n: u64| n as f64 * 1000.0 / t.window as f64;
    for row in &t.rows {
        let _ = writeln!(
            out,
            "{:>10}  {:>10.1}  {:>10.1}  {:>10.1}",
            row.start,
            per_kt(row.forks),
            per_kt(row.faults),
            per_kt(row.flush_ipis)
        );
    }

    if !t.gauges.is_empty() {
        heading(&mut out, "Gauge series (high water = sampled max)");
        let _ = writeln!(
            out,
            "{:<28}  {:>7}  {:>10}  {:>10}  {:>10}  {:>10}",
            "gauge", "samples", "first", "min", "high-water", "last"
        );
        rule(&mut out, &[28, 7, 10, 10, 10, 10]);
        for (name, s) in &t.gauges {
            let _ = writeln!(
                out,
                "{:<28}  {:>7}  {:>10}  {:>10}  {:>10}  {:>10}",
                name, s.samples, s.first, s.min, s.max, s.last
            );
        }
    }
    out
}

/// `"name": {"key": count, ..}` — keys here are labels and pids, which
/// need no escaping.
fn json_counter_map<K: std::fmt::Display, V: std::fmt::Display>(
    out: &mut String,
    name: &str,
    entries: impl IntoIterator<Item = (K, V)>,
) {
    let body: Vec<String> = entries
        .into_iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let _ = writeln!(out, "  \"{name}\": {{{}}},", body.join(", "));
}

fn hist_summary_json(h: &Histogram) -> String {
    format!(
        "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
        h.count,
        h.sum,
        if h.count == 0 { 0 } else { h.min },
        h.max,
        h.percentile(50.0),
        h.percentile(95.0),
        h.percentile(99.0)
    )
}

/// Renders `repro tails` for one experiment slice: the request-latency
/// distribution per cause, then the `top` slowest requests with their
/// per-cause blame breakdowns. States up front whether attribution on
/// this trace is exact (every completed flow's charges summed to its
/// wall) or partial (lossy ring or foreign charges).
pub fn render_tails(label: &str, table: &crate::analyze::FlowTable, top: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# repro tails — {label}: {} flows completed, {} charge events",
        table.completed(),
        table.charges
    );
    match table.reconcile() {
        Ok(n) => {
            let _ = writeln!(
                out,
                "attribution exact: {n} flows reconcile (charges == wall)"
            );
        }
        Err(e) => {
            let first = e.lines().next().unwrap_or("unreconciled");
            let _ = writeln!(out, "attribution partial: {first}");
        }
    }
    let Some((p50, p95, p99)) = table.percentiles() else {
        let _ = writeln!(out, "\n(no completed flows in this slice)");
        return out;
    };
    let _ = writeln!(out, "request wall p50/p95/p99: {p50}/{p95}/{p99} cycles");

    heading(&mut out, "Latency percentiles by blame cause");
    let _ = writeln!(
        out,
        "{:<16}  {:>12}  {:>12}  {:>12}  {:>14}",
        "cause", "p50", "p95", "p99", "total cycles"
    );
    rule(&mut out, &[16, 12, 12, 12, 14]);
    for cause in ChargeCause::ALL {
        let Some((c50, c95, c99)) = table.cause_percentiles(cause) else {
            continue;
        };
        let total = table.total(cause);
        if total == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "{:<16}  {:>12}  {:>12}  {:>12}  {:>14}",
            cause.as_str(),
            c50,
            c95,
            c99,
            total
        );
    }

    heading(
        &mut out,
        &format!("Top {top} slowest requests, blame attributed"),
    );
    for f in table.slowest(top) {
        let wall = f.wall.unwrap_or(0);
        let mut causes: Vec<(ChargeCause, u64)> = ChargeCause::ALL
            .into_iter()
            .map(|c| (c, f.cycles(c)))
            .filter(|&(_, n)| n > 0)
            .collect();
        causes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.as_str().cmp(b.0.as_str())));
        let breakdown = causes
            .iter()
            .map(|&(c, n)| {
                format!(
                    "{} {} ({:.1}%)",
                    c.as_str(),
                    n,
                    100.0 * n as f64 / wall.max(1) as f64
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            out,
            "flow {:>5}  pid {:>4}  wall {:>10}  {breakdown}",
            f.flow, f.pid, wall
        );
    }
    out
}

/// The JSON report's `totals` members, in output order, with the
/// registry counter each one reads.
const TOTALS: [(&str, &str); 25] = [
    ("forks", "kernel.fork"),
    ("shared_forks", "kernel.fork.shared"),
    ("exits", "kernel.exit"),
    ("domain_faults", "kernel.domain_fault"),
    ("unshare_ptes_copied", "share.unshare.ptes_copied"),
    ("faults_file_backed", "vm.fault.file_backed"),
    ("asid_rollovers", "kernel.asid.rollover"),
    ("shootdowns", "tlb.shootdown"),
    ("shootdown_cores_targeted", "tlb.shootdown.cores"),
    ("shootdown_cores_local", "tlb.shootdown.local"),
    ("shootdown_cores_skipped", "tlb.shootdown.skipped"),
    ("shootdowns_ranged", "tlb.shootdown.scope.range"),
    ("preemptions", "sched.preempt"),
    ("flush_batches", "tlb.batch"),
    ("flush_batch_ops", "tlb.batch.ops"),
    ("flush_batch_coalesced", "tlb.batch.coalesced"),
    ("flush_batch_escalated", "tlb.batch.escalated"),
    ("cycle_charges", "flow.charges"),
    ("flow_arrivals", "flow.arrive"),
    ("flow_begins", "flow.begin"),
    ("flow_ends", "flow.end"),
    ("reclaims", "kernel.reclaim"),
    ("reclaim_pages", "kernel.reclaim.pages"),
    ("reclaim_pte_tears", "kernel.reclaim.pte_tears"),
    ("reclaim_shared_tears", "kernel.reclaim.shared_tears"),
];

/// Machine-readable rollup.
pub fn render_json(r: &Rollup) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"sat-obs/report-v1\",");
    let _ = writeln!(out, "  \"event_count\": {},", r.event_count);
    let _ = writeln!(out, "  \"dropped_events\": {},", r.dropped);
    json_counter_map(&mut out, "subsystems", &r.subsystems);
    json_counter_map(&mut out, "pids", &r.pids);

    out.push_str("  \"unshare_causes\": {");
    for (i, (cause, n, pct)) in r.fig6_breakdown().into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{cause}\": {{\"count\": {n}, \"pct\": {pct:.3}}}");
    }
    out.push_str("},\n");

    for (name, table) in [
        ("main_tlb_flushes", &r.main_flush_reasons),
        ("micro_tlb_flushes", &r.micro_flush_reasons),
    ] {
        let _ = write!(out, "  \"{name}\": {{");
        for (i, (reason, agg)) in table.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{reason}\": {{\"flushes\": {}, \"entries\": {}}}",
                agg.flushes, agg.entries
            );
        }
        out.push_str("},\n");
    }

    json_counter_map(&mut out, "fault_classes", fault_classes(&r.metrics));
    json_counter_map(
        &mut out,
        "region_ops",
        bumped(
            &r.metrics,
            RegionOpKind::ALL.map(|op| (op.as_str(), op.counter_key())),
        ),
    );
    json_counter_map(
        &mut out,
        "cycle_charges",
        bumped(
            &r.metrics,
            ChargeCause::ALL.map(|c| (c.as_str(), c.counter_key())),
        ),
    );

    out.push_str("  \"spans\": {");
    for (i, (name, agg)) in r.spans.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('"');
        escape_into(&mut out, name);
        let _ = write!(
            out,
            "\": {{\"count\": {}, \"unit\": \"{}\", \"values\": {}}}",
            agg.count,
            agg.unit.as_str(),
            hist_summary_json(&agg.hist)
        );
    }
    out.push_str("},\n");

    out.push_str("  \"gauges\": {");
    for (i, (name, s)) in r.gauges.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('"');
        escape_into(&mut out, name);
        let _ = write!(
            out,
            "\": {{\"samples\": {}, \"first\": {}, \"last\": {}, \"min\": {}, \"max\": {}}}",
            s.samples, s.first, s.last, s.min, s.max
        );
    }
    out.push_str("},\n");

    let fp = &r.footprint;
    out.push_str("  \"footprint\": {\"pids\": [");
    for (i, pid) in fp.pids.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{pid}");
    }
    out.push_str("], \"pages\": [");
    for (i, n) in fp.pages.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{n}");
    }
    out.push_str("], \"shared\": [");
    for (i, row) in fp.shared.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('[');
        for (j, n) in row.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{n}");
        }
        out.push(']');
    }
    out.push_str("]},\n");

    let totals: Vec<String> = TOTALS
        .iter()
        .map(|(name, key)| format!("\"{name}\": {}", r.metrics.counter(key)))
        .collect();
    let _ = writeln!(out, "  \"totals\": {{{}}}", totals.join(", "));
    out.push_str("}\n");
    out
}

/// Folded-stack output (`stack;frames value`), one line per distinct
/// span path — pipe into flamegraph tooling.
pub fn render_folded(r: &Rollup) -> String {
    let mut out = String::new();
    for (path, value) in &r.folded {
        let _ = writeln!(out, "{path} {value}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Payload, SpanUnit, Subsystem, UnshareCause};
    use crate::json::Json;

    fn sample_rollup() -> Rollup {
        let events = vec![
            Event {
                tick: 0,
                pid: 1,
                asid: 1,
                subsystem: Subsystem::Share,
                payload: Payload::PtpUnshare {
                    cause: UnshareCause::WriteFault,
                    ptes_copied: 3,
                    last_sharer: false,
                    va: 0x1000,
                },
            },
            Event {
                tick: 1,
                pid: 1,
                asid: 1,
                subsystem: Subsystem::Android,
                payload: Payload::SpanBegin {
                    name: "launch.exec".to_string(),
                },
            },
            Event {
                tick: 2,
                pid: 1,
                asid: 1,
                subsystem: Subsystem::Android,
                payload: Payload::SpanEnd {
                    name: "launch.exec".to_string(),
                    value: 750,
                    unit: SpanUnit::Cycles,
                },
            },
        ];
        Rollup::from_events(&events, 2)
    }

    #[test]
    fn text_report_contains_fig6_and_span_tables() {
        let text = render_text(&sample_rollup());
        assert!(text.contains("Unshare causes (Figure 6)"));
        assert!(text.contains("write_fault"));
        assert!(text.contains("100.0%"));
        assert!(text.contains("android.launch.exec"));
        assert!(text.contains("2 dropped"));
    }

    #[test]
    fn json_report_parses_and_carries_percentiles() {
        let doc = render_json(&sample_rollup());
        let v = Json::parse(&doc).expect("report JSON parses");
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some("sat-obs/report-v1")
        );
        let causes = v.get("unshare_causes").unwrap();
        assert_eq!(
            causes
                .get("write_fault")
                .and_then(|c| c.get("count"))
                .and_then(Json::as_u64),
            Some(1)
        );
        let span = v
            .get("spans")
            .and_then(|s| s.get("android.launch.exec"))
            .unwrap();
        let values = span.get("values").unwrap();
        assert_eq!(values.get("p50").and_then(Json::as_u64), Some(750));
        assert_eq!(values.get("max").and_then(Json::as_u64), Some(750));
    }

    #[test]
    fn folded_output_is_line_per_stack() {
        let folded = render_folded(&sample_rollup());
        assert_eq!(folded.trim(), "pid1;android;launch.exec 750");
    }
}
