//! The benchmark's own span recorder: name, start, end and parent of
//! every bracket the benchmark puts around a call into a crate, kept
//! in memory and written out when the rep ends. Nothing here reaches
//! into the simulator — in-program timers are a later change.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed bracket. Times are nanoseconds since the recorder was
/// enabled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
}

struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, discarding anything recorded so
/// far.
pub fn enable() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Stops recording and returns the spans in the order they began.
pub fn take() -> Vec<Span> {
    RECORDER
        .with(|r| r.borrow_mut().take())
        .map_or_else(Vec::new, |r| r.spans)
}

/// Runs `body` inside a span called `name`. With the recorder off
/// this is one thread-local check and the call.
pub fn span<T>(name: &'static str, body: impl FnOnce() -> T) -> T {
    let id = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let id = rec.spans.len();
        let start_ns = rec.t0.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: rec.open.last().copied(),
        });
        rec.open.push(id);
        Some(id)
    });
    let out = body();
    if let Some(id) = id {
        RECORDER.with(|r| {
            // `take` inside a span drops the recorder; the span is
            // then simply not closed.
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[id].end_ns = rec.t0.elapsed().as_nanos() as u64;
                rec.open.pop();
            }
        });
    }
    out
}

/// Self time per span: its duration minus the part of its interval
/// that its direct children cover (overlapping children are counted
/// once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Self time summed per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(s.name).or_insert(0) += t;
    }
    by_name
}

/// The spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{}\n",
            s.name,
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" },
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_covered_interval() {
        let spans = [
            s("root", 0, 100, None),
            s("a", 10, 30, Some(0)),
            s("b", 40, 70, Some(0)),
            s("a.inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 12, 30, 8]);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped_to_the_parent() {
        let spans = [
            s("root", 10, 110, None),
            s("a", 20, 60, Some(0)),
            s("b", 50, 80, Some(0)),
            s("late", 100, 150, Some(0)),
            s("inside-a", 30, 40, Some(0)),
        ];
        // Covered: [20,80) and [100,110) = 70 of the root's 100.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_and_sums_by_name() {
        enable();
        span("outer", || {
            span("leaf", || std::hint::black_box(1));
            span("leaf", || std::hint::black_box(2));
        });
        let spans = take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let by_name = self_time_by_name(&spans);
        let total = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(by_name["outer"] + by_name["leaf"], total);
        assert!(to_json(&spans).contains("\"parent\": 0"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        assert_eq!(span("x", || 7), 7);
        assert!(take().is_empty());
    }
}
