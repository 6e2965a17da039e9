//! The generational 8-bit ASID allocator.
//!
//! ARMv7 tags TLB entries with an 8-bit ASID, so at most 255 address
//! spaces can be distinguished at once. Linux's ARM port hands values
//! out sequentially within a *generation*; exhausting the space bumps
//! the generation, flushes every non-global TLB entry exactly once (at
//! the first switch-in after it: allocation sites have no TLB handle), and
//! reassigns live processes lazily at their next switch-in. This module
//! is that allocator: the generation, the next value, the reserved
//! values and the pending flush. The generation a process's ASID was
//! issued in is the process table's, as Linux keeps it in the `mm`; a
//! rollover moves it forward for the processes it lets keep their
//! value. The generation moves only in [`AsidAllocator::rollover`], so
//! `KernelStats::asid_rollovers` is `generation − 1`, set where the
//! kernel allocates.

use std::collections::BTreeMap;

use sat_types::{Asid, Pid};

use crate::kernel::ProcTable;

/// Generational allocator for the 8-bit ASID space.
pub(crate) struct AsidAllocator {
    /// Current generation (starts at 1, bumped on rollover).
    generation: u64,
    /// Next value within the current generation; `> 255` means the
    /// space is exhausted and the next allocation rolls over.
    next: u16,
    /// A rollover happened but the non-global TLB flush it requires
    /// has not been issued yet; the switch-in that issues it takes it.
    pub(crate) flush_pending: bool,
    /// Which process is current on each core, as reported by the
    /// machine layer. A process on a core keeps executing — and keeps
    /// inserting TLB entries tagged with its ASID — without ever
    /// re-entering the allocator, so a rollover must reserve these
    /// values.
    pub(crate) running: BTreeMap<usize, Pid>,
    /// Values reserved for the whole current generation (one bit per
    /// 8-bit value): those held by processes that were running at the
    /// last rollover.
    reserved: [u64; 4],
}

impl AsidAllocator {
    /// A fresh allocator in generation 1 with the full value space.
    pub(crate) fn new() -> AsidAllocator {
        AsidAllocator {
            generation: 1,
            next: 1,
            flush_pending: false,
            running: BTreeMap::new(),
            reserved: [0; 4],
        }
    }

    /// Allocates a value of the current generation, rolling the
    /// generation over when the space is exhausted; a rollover reserves
    /// the values of the running processes in `procs`.
    pub(crate) fn alloc(&mut self, procs: &mut ProcTable) -> Asid {
        loop {
            if self.next > 255 {
                self.rollover(procs);
            }
            let value = self.next as u8;
            self.next += 1;
            // Values reserved by processes that were running at the
            // last rollover are never reissued this generation.
            if !self.is_reserved(value) {
                return Asid::new(value);
            }
        }
    }

    /// Whether `value` is reserved for the current generation.
    fn is_reserved(&self, value: u8) -> bool {
        let v = value as usize;
        self.reserved[v / 64] & (1 << (v % 64)) != 0
    }

    /// The space is exhausted: bump the generation and schedule the
    /// deferred non-global flush. Mirroring Linux's ARM rollover,
    /// every process currently on a core keeps its ASID: its value is
    /// reserved (skipped for the whole new generation) and its stored
    /// generation is moved forward in place, so it is never treated as
    /// stale. The aliasing argument: a *running* process may insert
    /// entries tagged with its value even after the rollover flush,
    /// but that value is never reissued; a *non-running* process
    /// cannot insert entries until its next switch-in, which
    /// reassigns it first — so everything tagged with a recycled
    /// value predates the rollover and is removed by the flush before
    /// the new owner can run.
    fn rollover(&mut self, procs: &mut ProcTable) {
        self.generation += 1;
        self.next = 1;
        self.flush_pending = true;
        self.reserved = [0; 4];
        assert!(
            self.running.len() < 255,
            "more running processes than ASID values"
        );
        for &pid in self.running.values() {
            if let Some((mm, asid_generation)) = procs.entry_mut(pid) {
                let v = mm.asid.raw() as usize;
                self.reserved[v / 64] |= 1 << (v % 64);
                *asid_generation = self.generation;
            }
        }
        if sat_obs::enabled() {
            sat_obs::emit(
                sat_obs::Subsystem::Kernel,
                0,
                0,
                sat_obs::Payload::AsidRollover {
                    generation: self.generation,
                },
            );
        }
    }

    /// The current generation (starts at 1).
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Kernel;
    use crate::{FlushOp, KernelConfig, NoTlb, TlbMaintenance};

    /// A running process's value is skipped by the allocator for the
    /// whole of every generation it stays running through: each
    /// rollover reserves it again.
    #[test]
    fn reserved_value_is_never_reissued() {
        let mut k = Kernel::new(KernelConfig::stock(), 16_384);
        let parent = k.create_process().unwrap();
        let p = k.create_process().unwrap();
        let held = k.mm(p).unwrap().asid;
        k.note_running(0, p);
        for _ in 0..600 {
            let child = k.fork(parent).unwrap().child;
            if k.asid_generation() > 1 {
                let v = k.mm(child).unwrap().asid;
                assert_ne!(v, held, "reserved value reissued after rollover");
            }
            k.exit(child, &mut NoTlb).unwrap();
        }
        assert_eq!(k.stats.asid_rollovers, 2);
        assert!(
            !k.asid_is_stale(p),
            "running process re-generationed in place"
        );
        assert_eq!(k.mm(p).unwrap().asid, held);
    }

    /// A [`TlbMaintenance`] sink counting maintenance operations.
    #[derive(Default)]
    struct CountingTlb {
        /// Flushes scoped to one ASID: whole, page or range.
        asid_flushes: u64,
        non_global_flushes: u64,
        full_flushes: u64,
    }

    impl TlbMaintenance for CountingTlb {
        fn flush(&mut self, op: FlushOp, _reason: sat_obs::FlushReason) {
            match op {
                FlushOp::Asid(_) | FlushOp::Page { .. } | FlushOp::Range { .. } => {
                    self.asid_flushes += 1
                }
                FlushOp::NonGlobal => self.non_global_flushes += 1,
                FlushOp::All => self.full_flushes += 1,
                FlushOp::VaAllAsids(_) => {}
            }
        }
    }

    #[test]
    fn asid_rollover_survives_hundreds_of_process_generations() {
        let mut k = Kernel::new(KernelConfig::stock(), 16_384);
        let parent = k.create_process().unwrap();
        // 600 fork/exit cycles exhaust the 8-bit space twice over; the
        // old free-list allocator would have coped only by recycling,
        // the generation allocator instead rolls over.
        let mut exited = parent;
        for _ in 0..600 {
            exited = k.fork(parent).unwrap().child;
            k.exit(exited, &mut NoTlb).unwrap();
        }
        // 601 allocations at 255 per generation = 2 rollovers.
        assert_eq!(k.stats.asid_rollovers, 2);
        assert_eq!(k.asid_generation(), 3);
        // A pid with no process — exited, or never created — has no
        // generation, so it is stale; so is the parent, which has not
        // run since the rollovers, until its switch-in reassigns it.
        for pid in [exited, Pid::new(9_999)] {
            assert!(k.asid_is_stale(pid), "{pid:?}");
        }
        assert!(k.asid_is_stale(parent));
        k.ensure_current_asid(parent, &mut NoTlb).unwrap();
        assert!(!k.asid_is_stale(parent));
    }

    #[test]
    fn rollover_flushes_non_global_exactly_once_and_reassigns_lazily() {
        let mut k = Kernel::new(KernelConfig::stock(), 16_384);
        let parent = k.create_process().unwrap();
        let mut tlb = CountingTlb::default();
        for _ in 0..255 {
            let child = k.fork(parent).unwrap().child;
            k.exit(child, &mut tlb).unwrap();
        }
        // Allocation 256 rolled the generation; the flush is deferred
        // until some process is switched in.
        assert_eq!(k.stats.asid_rollovers, 1);
        assert!(k.rollover_flush_pending());
        assert_eq!(tlb.non_global_flushes, 0);
        // The parent's gen-1 ASID (1) is stale; switch-in reassigns it
        // and issues exactly one non-global flush — never a full flush,
        // so global zygote entries survive.
        let before = k.mm(parent).unwrap().asid;
        assert_eq!(before.raw(), 1);
        let after = k.ensure_current_asid(parent, &mut tlb).unwrap();
        // Gen-2 value 1 went to the last child; the parent gets 2.
        assert_eq!(after.raw(), 2);
        assert_eq!(k.mm(parent).unwrap().asid, after);
        assert_eq!(tlb.non_global_flushes, 1);
        assert_eq!(tlb.full_flushes, 0);
        assert!(!k.rollover_flush_pending());
        // Idempotent once current: no second flush, no reassignment.
        let again = k.ensure_current_asid(parent, &mut tlb).unwrap();
        assert_eq!(again, after);
        assert_eq!(tlb.non_global_flushes, 1);
    }

    /// The high-severity aliasing window: a process current on a core
    /// over a rollover keeps running with its ASID, so the allocator
    /// must reserve that value instead of reissuing it.
    #[test]
    fn running_process_keeps_its_asid_across_rollover() {
        let mut k = Kernel::new(KernelConfig::stock(), 16_384);
        let p = k.create_process().unwrap();
        assert_eq!(k.mm(p).unwrap().asid.raw(), 1);
        k.note_running(0, p);
        let mut tlb = CountingTlb::default();
        for _ in 0..300 {
            let c = k.fork(p).unwrap().child;
            if k.asid_generation() > 1 {
                assert_ne!(
                    k.mm(c).unwrap().asid.raw(),
                    1,
                    "reserved value reissued while its owner is running"
                );
            }
            k.exit(c, &mut tlb).unwrap();
        }
        assert_eq!(k.stats.asid_rollovers, 1);
        // Reserved in place: same value, current generation; the
        // switch-in hook fires the deferred flush but does not
        // reassign.
        assert!(!k.asid_is_stale(p));
        let asid = k.ensure_current_asid(p, &mut tlb).unwrap();
        assert_eq!(asid.raw(), 1);
        assert_eq!(tlb.non_global_flushes, 1);
    }

    /// A stale-generation exit must not flush (or IPI) by raw ASID
    /// value: the rollover flush already covers its entries, and the
    /// value may since have been reissued to a live process.
    #[test]
    fn stale_generation_exit_skips_the_per_asid_flush() {
        let mut k = Kernel::new(KernelConfig::stock(), 16_384);
        let keeper = k.create_process().unwrap(); // value 1, gen 1
        let victim = k.create_process().unwrap(); // value 2, gen 1
        let mut tlb = CountingTlb::default();
        // Burn the rest of the space to force a rollover.
        for _ in 0..254 {
            let c = k.fork(keeper).unwrap().child;
            k.exit(c, &mut tlb).unwrap();
        }
        assert_eq!(k.stats.asid_rollovers, 1);
        assert!(k.asid_is_stale(victim));
        let flushes_before = tlb.asid_flushes;
        k.exit(victim, &mut tlb).unwrap();
        assert_eq!(tlb.asid_flushes, flushes_before, "stale exit over-flushed");
        // A current-generation exit still flushes its value.
        k.ensure_current_asid(keeper, &mut tlb).unwrap();
        k.exit(keeper, &mut tlb).unwrap();
        assert_eq!(tlb.asid_flushes, flushes_before + 1);
    }
}
