//! Exporters: Chrome trace-event JSON and the metrics snapshot.
//!
//! The trace format is the Trace Event Format's "JSON object" flavour
//! (`{"traceEvents": [...], ...}`), loadable in `chrome://tracing` and
//! Perfetto. `ts` carries the recorder tick (logical order — the
//! simulator has no wall clock), `pid`/`tid` carry the simulated
//! pid/ASID, and a span's measured quantity (modeled cycles for
//! Android phases, wall-clock µs for bench cells) rides in its end
//! event's `args`. What each payload is called on the wire and which
//! `args` it carries is declared once, with the payload, in `event.rs`;
//! this module owns the envelope and the value codecs.

use crate::event::{Event, Payload, Subsystem};
use crate::json::{escape_into, Json};
use crate::metrics::{Histogram, MetricsRegistry};
use crate::sink::Recording;

/// Starts member `key` of the object under construction in `out`.
fn put_key(out: &mut String, key: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    out.push('"');
    escape_into(out, key);
    out.push_str("\": ");
}

pub(crate) fn put_str(out: &mut String, key: &str, value: &str) {
    put_key(out, key);
    out.push('"');
    escape_into(out, value);
    out.push('"');
}

pub(crate) fn put_num(out: &mut String, key: &str, value: impl Into<u64>) {
    put_key(out, key);
    out.push_str(&value.into().to_string());
}

pub(crate) fn put_bool(out: &mut String, key: &str, value: bool) {
    put_key(out, key);
    out.push_str(if value { "true" } else { "false" });
}

fn event_json(event: &Event) -> String {
    let mut o = String::from("{");
    put_str(&mut o, "name", event.payload.name());
    put_str(&mut o, "cat", event.subsystem.as_str());
    let ph = event.payload.phase();
    put_str(&mut o, "ph", ph);
    if ph == "i" {
        // Instant events are thread-scoped.
        put_str(&mut o, "s", "t");
    }
    put_num(&mut o, "ts", event.tick);
    put_num(&mut o, "pid", event.pid);
    put_num(&mut o, "tid", event.asid);
    o.push_str(", \"args\": {");
    event.payload.write_args(&mut o);
    o.push_str("}}");
    o
}

/// Serializes a recording as a Chrome trace-event JSON document.
pub fn chrome_trace_json(rec: &Recording) -> String {
    let mut out = String::from("{\n  \"traceEvents\": [\n");
    for (i, event) in rec.events.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&event_json(event));
        if i + 1 != rec.events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ],\n");
    out.push_str("  \"displayTimeUnit\": \"ns\",\n");
    out.push_str(&format!(
        "  \"otherData\": {{\"generator\": \"sat-obs\", \"dropped_events\": {}, \"event_count\": {}}}\n",
        rec.dropped,
        rec.events.len()
    ));
    out.push('}');
    out
}

fn histogram_json(h: &Histogram) -> String {
    // Trailing zero buckets are trimmed; bucket i covers values with
    // floor(log2(max(v,1))) == i.
    let last = h.buckets.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
    let buckets: Vec<String> = h.buckets[..last].iter().map(|b| b.to_string()).collect();
    format!(
        "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": {:.3}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"log2_buckets\": [{}]}}",
        h.count,
        h.sum,
        if h.count == 0 { 0 } else { h.min },
        h.max,
        h.mean(),
        h.percentile(50.0),
        h.percentile(95.0),
        h.percentile(99.0),
        buckets.join(", ")
    )
}

/// A Chrome trace re-ingested into typed events (the inverse of
/// [`chrome_trace_json`]); the analytics pipeline's input.
#[derive(Clone, Debug, Default)]
pub struct ParsedTrace {
    pub events: Vec<Event>,
    /// The exporter's `otherData.dropped_events` (ring overflow at
    /// record time — the parsed stream is exactly what survived).
    pub dropped: u64,
}

fn get_str<'j>(obj: &'j Json, key: &str, ctx: &str) -> Result<&'j str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{ctx}: missing or non-string \"{key}\""))
}

pub(crate) fn get_bool(obj: &Json, key: &str, ctx: &str) -> Result<bool, String> {
    obj.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("{ctx}: missing or non-bool \"{key}\""))
}

/// Reads integer member `key`, range-checked into the field's own
/// width: a `"tid": 300` is an error, never ASID 44.
pub(crate) fn get_num<T: TryFrom<u64>>(obj: &Json, key: &str, ctx: &str) -> Result<T, String> {
    let wide = obj
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{ctx}: missing or non-integer \"{key}\""))?;
    T::try_from(wide).map_err(|_| {
        format!(
            "{ctx}: \"{key}\" is {wide}, out of range for a {}-bit field",
            8 * std::mem::size_of::<T>()
        )
    })
}

pub(crate) fn get_label<T>(
    obj: &Json,
    key: &str,
    ctx: &str,
    parse: fn(&str) -> Option<T>,
) -> Result<T, String> {
    let label = get_str(obj, key, ctx)?;
    parse(label).ok_or_else(|| format!("{ctx}: unknown {key} \"{label}\""))
}

/// Parses one exported trace event back into a typed [`Event`].
fn parse_event(obj: &Json, index: usize) -> Result<Event, String> {
    let ctx = format!("traceEvents[{index}]");
    let name = get_str(obj, "name", &ctx)?;
    let subsystem = get_label(obj, "cat", &ctx, Subsystem::parse)?;
    let ph = get_str(obj, "ph", &ctx)?;
    let tick = get_num(obj, "ts", &ctx)?;
    let pid = get_num(obj, "pid", &ctx)?;
    let asid = get_num(obj, "tid", &ctx)?;
    let empty = Json::Obj(Default::default());
    let args = obj.get("args").unwrap_or(&empty);
    let ctx = format!("{ctx} ({name})");

    let payload = Payload::from_wire(ph, name, args, &ctx)?
        .ok_or_else(|| format!("{ctx}: unknown event \"{name}\" in phase \"{ph}\""))?;
    // Decoding alone cannot rule these out, yet the exporter could not
    // have written them: an event named after one label carrying
    // another in its args, and a shootdown with more local flushes
    // than flushing cores (the IPI count is their difference).
    if payload.name() != name {
        return Err(format!(
            "{ctx}: args describe a \"{}\" event",
            payload.name()
        ));
    }
    if let Payload::TlbShootdown {
        cores_targeted,
        cores_local,
        ..
    } = payload
    {
        if cores_local > cores_targeted {
            return Err(format!(
                "{ctx}: \"cores_local\" {cores_local} exceeds \"cores_targeted\" {cores_targeted}"
            ));
        }
    }
    Ok(Event {
        tick,
        pid,
        asid,
        subsystem,
        payload,
    })
}

/// Re-ingests a Chrome trace document produced by
/// [`chrome_trace_json`] into typed events. Strict: an event the
/// exporter could not have written is an error, not a skip — `repro
/// check` and `repro report` both want corruption surfaced.
pub fn parse_chrome_trace(doc: &Json) -> Result<ParsedTrace, String> {
    let events_json = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("missing \"traceEvents\" array")?;
    let mut events = Vec::with_capacity(events_json.len());
    for (i, obj) in events_json.iter().enumerate() {
        events.push(parse_event(obj, i)?);
    }
    let dropped = doc
        .get("otherData")
        .and_then(|o| o.get("dropped_events"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    Ok(ParsedTrace { events, dropped })
}

/// Serializes the metrics registry (plus the ring's drop counter) as a
/// JSON object — the `obs` section of `BENCH_repro.json`. `indent`
/// is the base indentation applied to every line after the first.
pub fn metrics_json(
    metrics: &MetricsRegistry,
    enabled: bool,
    dropped: u64,
    indent: &str,
) -> String {
    let mut out = format!(
        "{{\n{indent}  \"enabled\": {enabled},\n{indent}  \"dropped_events\": {dropped},\n"
    );
    // One `"name": {"key": value, ..}` member per metric kind, a row
    // per key; `rows` carries each value already rendered as JSON.
    let mut section = |name: &str, rows: Vec<(&str, String)>, sep: &str| {
        out.push_str(&format!("{indent}  \"{name}\": {{\n"));
        for (i, (key, value)) in rows.iter().enumerate() {
            out.push_str(&format!("{indent}    \""));
            escape_into(&mut out, key);
            out.push_str(&format!("\": {value}"));
            out.push_str(if i + 1 != rows.len() { ",\n" } else { "\n" });
        }
        out.push_str(&format!("{indent}  }}{sep}\n"));
    };
    section(
        "counters",
        metrics
            .counters()
            .map(|(k, v)| (k, v.to_string()))
            .collect(),
        ",",
    );
    section(
        "histograms",
        metrics
            .histograms()
            .map(|(k, h)| (k, histogram_json(h)))
            .collect(),
        ",",
    );
    section(
        "gauges",
        metrics
            .gauges()
            .map(|(k, g)| {
                let value = format!(
                    "{{\"value\": {}, \"high_water\": {}}}",
                    g.value, g.high_water
                );
                (k, value)
            })
            .collect(),
        "",
    );
    out.push_str(indent);
    out.push('}');
    out
}
