//! The recorder: a bounded event ring next to an exact registry.
//!
//! The recorder API in [`crate`] reaches the thread's [`RingSink`] only
//! after a thread-local boolean says one is installed — the disabled
//! path is one predictable branch and touches no heap.

use std::collections::VecDeque;

use crate::event::{Event, Payload, Subsystem};
use crate::metrics::MetricsRegistry;

/// Everything harvested from a sink: the (possibly truncated) event
/// ring, how many events the ring dropped, and the exact metrics.
#[derive(Default, Clone, Debug)]
pub struct Recording {
    pub events: Vec<Event>,
    /// Events evicted from the ring to make room. Reported in both
    /// exporters — overflow is never silent.
    pub dropped: u64,
    pub metrics: MetricsRegistry,
}

/// Fixed-capacity ring of events plus an exact [`MetricsRegistry`].
/// When full, the oldest event is dropped and counted.
#[derive(Clone, Debug)]
pub struct RingSink {
    capacity: usize,
    events: VecDeque<Event>,
    /// Monotonic per-recorder tick; stamps every event.
    seq: u64,
    dropped: u64,
    pub(crate) metrics: MetricsRegistry,
}

impl RingSink {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RingSink {
            capacity,
            events: VecDeque::with_capacity(capacity.min(1 << 12)),
            seq: 0,
            dropped: 0,
            metrics: MetricsRegistry::default(),
        }
    }

    fn push(&mut self, event: Event) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Records one event (counters first, then the ring).
    pub fn record(&mut self, pid: u32, asid: u8, subsystem: Subsystem, payload: Payload) {
        self.metrics.apply_event(subsystem, &payload);
        let tick = self.seq;
        self.seq += 1;
        self.push(Event {
            tick,
            pid,
            asid,
            subsystem,
            payload,
        });
    }

    /// Snapshots every gauge published in the current gauge window
    /// into the event stream as one [`Payload::Sample`] each (a Chrome
    /// counter-track point). The sink owns both the registry and the
    /// ring, so this is the one place a consistent multi-gauge snapshot
    /// can be cut. A gauge last published before the window opened is
    /// some earlier experiment's machine state and stays out of this
    /// one's samples.
    pub fn sample_gauges(&mut self) {
        // Samples carry (pid 0, asid 0): gauges are machine state, not
        // per-process. Recording a Sample re-applies it to the
        // registry, which is idempotent (same value written back).
        let snapshot: Vec<(String, u64)> = self
            .metrics
            .window_gauges()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        for (gauge, value) in snapshot {
            let subsystem = Subsystem::for_gauge(&gauge);
            self.record(0, 0, subsystem, Payload::Sample { gauge, value });
        }
    }

    /// Consumes the sink and returns everything it captured.
    pub fn finish(self) -> Recording {
        Recording {
            events: self.events.into(),
            dropped: self.dropped,
            metrics: self.metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FlushReason, FlushScope};

    fn flush_payload(entries: u64) -> Payload {
        Payload::TlbFlush {
            scope: FlushScope::Asid,
            reason: FlushReason::Fork,
            entries,
        }
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut sink = RingSink::new(4);
        for i in 0..10u64 {
            sink.record(1, 1, Subsystem::Tlb, flush_payload(i));
        }
        let rec = sink.finish();
        assert_eq!(rec.events.len(), 4);
        assert_eq!(rec.dropped, 6);
        // The survivors are the newest four, ticks intact.
        let ticks: Vec<u64> = rec.events.iter().map(|e| e.tick).collect();
        assert_eq!(ticks, vec![6, 7, 8, 9]);
        // Metrics saw all ten events despite the drops.
        assert_eq!(rec.metrics.counter("tlb.flush.scope.asid"), 10);
        assert_eq!(rec.metrics.counter("tlb.flush.main.entries"), 45);
        assert_eq!(rec.metrics.counter("tlb.flush.reason.fork.entries"), 45);
    }

    #[test]
    fn sample_gauges_snapshots_every_gauge_into_the_ring() {
        let mut sink = RingSink::new(16);
        sink.metrics.gauge_set("phys.frames.free", 900);
        sink.metrics.gauge_set("sched.runq.c0", 3);
        sink.sample_gauges();
        sink.metrics.gauge_set("phys.frames.free", 800);
        sink.sample_gauges();
        let rec = sink.finish();
        let samples: Vec<(&str, u64)> = rec
            .events
            .iter()
            .filter_map(|e| match &e.payload {
                Payload::Sample { gauge, value } => Some((gauge.as_str(), *value)),
                _ => None,
            })
            .collect();
        assert_eq!(
            samples,
            vec![
                ("phys.frames.free", 900),
                ("sched.runq.c0", 3),
                ("phys.frames.free", 800),
                ("sched.runq.c0", 3),
            ]
        );
        // Subsystem attribution follows the key taxonomy.
        assert_eq!(rec.events[0].subsystem, Subsystem::Kernel);
        assert_eq!(rec.events[1].subsystem, Subsystem::Sched);
        // All samples on the machine-wide (pid 0, asid 0) track.
        assert!(rec.events.iter().all(|e| e.pid == 0 && e.asid == 0));
        // Re-applying each Sample at record time left the gauges exact.
        assert_eq!(rec.metrics.gauge("phys.frames.free").unwrap().value, 800);
        assert_eq!(
            rec.metrics.gauge("phys.frames.free").unwrap().high_water,
            900
        );
    }
}
