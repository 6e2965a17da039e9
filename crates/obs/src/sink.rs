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
    pub(crate) capacity: usize,
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

    /// Snapshots every registered gauge into the event stream as one
    /// [`Payload::Sample`] each (a Chrome counter-track point). The
    /// sink owns both the registry and the ring, so this is the one
    /// place a consistent multi-gauge snapshot can be cut.
    pub fn sample_gauges(&mut self) {
        // Samples carry (pid 0, asid 0): gauges are machine state, not
        // per-process. Recording a Sample re-applies it to the
        // registry, which is idempotent (same value written back).
        let snapshot: Vec<(String, u64)> = self
            .metrics
            .gauges()
            .map(|(k, g)| (k.to_string(), g.value))
            .collect();
        for (gauge, value) in snapshot {
            let subsystem = Subsystem::for_gauge(&gauge);
            self.record(0, 0, subsystem, Payload::Sample { gauge, value });
        }
    }

    /// Merges a recording harvested on another thread: events are
    /// re-stamped onto this sink's tick sequence in order, metrics and
    /// drop counts accumulate.
    pub fn absorb(&mut self, rec: Recording) {
        // The worker already applied its events to its own metrics;
        // merge those wholesale rather than re-deriving.
        self.metrics.merge(&rec.metrics);
        self.dropped += rec.dropped;
        for mut event in rec.events {
            event.tick = self.seq;
            self.seq += 1;
            self.push(event);
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
    use crate::event::{FlushReason, FlushScope, UnshareCause};

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

    /// The required absorb-correctness property: when worker-thread
    /// recordings merge back into the parent sink, every gauge's
    /// high-water mark is the true maximum over all workers — a
    /// worker's transient peak survives even if its final value was
    /// lower and even if another worker never touched the gauge.
    #[test]
    fn absorb_keeps_gauge_high_water_across_workers() {
        let run_worker = |peak: u64, last: u64| -> Recording {
            let mut w = RingSink::new(16);
            w.metrics.gauge_set("phys.slab.live", peak);
            w.sample_gauges();
            w.metrics.gauge_set("phys.slab.live", last);
            w.sample_gauges();
            w.finish()
        };
        let mut parent = RingSink::new(64);
        parent.metrics.gauge_set("phys.slab.live", 5);
        // Submission order is deterministic; the peak (700, from the
        // second worker) must survive both absorptions.
        parent.absorb(run_worker(300, 120));
        parent.absorb(run_worker(700, 80));
        let rec = parent.finish();
        let g = rec.metrics.gauge("phys.slab.live").unwrap();
        assert_eq!(g.high_water, 700);
        assert_eq!(g.value, 120);
        // Absorbed sample events were re-stamped onto one strictly
        // increasing tick sequence.
        let ticks: Vec<u64> = rec.events.iter().map(|e| e.tick).collect();
        assert!(ticks.windows(2).all(|w| w[1] > w[0]), "{ticks:?}");
    }

    #[test]
    fn absorb_restamps_in_order_and_merges() {
        let mut worker = RingSink::new(16);
        worker.record(
            7,
            3,
            Subsystem::Share,
            Payload::PtpUnshare {
                cause: UnshareCause::WriteFault,
                ptes_copied: 5,
                last_sharer: false,
                va: 0x1000,
            },
        );
        let worker_rec = worker.finish();

        let mut parent = RingSink::new(16);
        parent.record(1, 1, Subsystem::Tlb, flush_payload(2));
        parent.absorb(worker_rec);
        let rec = parent.finish();
        assert_eq!(rec.events.len(), 2);
        assert_eq!(rec.events[0].tick, 0);
        assert_eq!(rec.events[1].tick, 1);
        assert_eq!(rec.events[1].pid, 7);
        assert_eq!(rec.metrics.counter("share.unshare.write_fault"), 1);
        assert_eq!(rec.metrics.counter("tlb.flush.main"), 1);
    }
}
