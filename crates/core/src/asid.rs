//! The generational 8-bit ASID allocator.
//!
//! ARMv7 tags TLB entries with an 8-bit ASID, so at most 255 address
//! spaces can be distinguished at once. Linux's ARM port hands values
//! out sequentially within a *generation*; exhausting the space bumps
//! the generation, flushes every non-global TLB entry once, and
//! reassigns live processes lazily at their next switch-in. This
//! module is that allocator, extracted from `Kernel` so its
//! invariants are pinned where the state lives:
//!
//! - `generation() == 1 + rollovers()` — the generation counter moves
//!   only through `AsidAllocator::rollover`.
//! - A process *running on a core* at rollover time keeps its value:
//!   the value is reserved for the whole new generation and the
//!   process's generation is bumped in place, so a recycled value can
//!   never alias a translation the still-running owner inserts after
//!   the rollover flush.
//! - The deferred non-global flush fires exactly once, at the first
//!   switch-in after the rollover (allocation sites have no TLB
//!   handle, as in Linux).

use std::collections::{BTreeMap, HashMap};

use sat_types::{Asid, Pid};

/// Generational allocator for the 8-bit ASID space.
pub struct AsidAllocator {
    /// Current generation (starts at 1, bumped on rollover).
    generation: u64,
    /// Next value within the current generation; `> 255` means the
    /// space is exhausted and the next allocation rolls over.
    next: u16,
    /// Which generation each live process's ASID belongs to. A
    /// process whose recorded generation is older than `generation`
    /// carries a stale ASID that must be reassigned before it runs
    /// again.
    gens: HashMap<Pid, u64>,
    /// A rollover happened but the non-global TLB flush it requires
    /// has not been issued yet.
    flush_pending: bool,
    /// Which process is current on each core, as reported by the
    /// machine layer. A process on a core keeps executing — and keeps
    /// inserting TLB entries tagged with its ASID — without ever
    /// re-entering the allocator, so a rollover must reserve these
    /// values.
    running: BTreeMap<usize, Pid>,
    /// Values reserved for the whole current generation (one bit per
    /// 8-bit value): those held by processes that were running at the
    /// last rollover.
    reserved: [u64; 4],
    /// Rollovers performed.
    rollovers: u64,
}

impl Default for AsidAllocator {
    fn default() -> Self {
        AsidAllocator::new()
    }
}

impl AsidAllocator {
    /// A fresh allocator in generation 1 with the full value space.
    pub fn new() -> AsidAllocator {
        AsidAllocator {
            generation: 1,
            next: 1,
            gens: HashMap::new(),
            flush_pending: false,
            running: BTreeMap::new(),
            reserved: [0; 4],
            rollovers: 0,
        }
    }

    /// Allocates a value, rolling the generation over when the space
    /// is exhausted. `asid_of` resolves a running process to its
    /// current value (the allocator does not own the process table);
    /// rollover reserves those values.
    pub fn alloc(&mut self, asid_of: impl Fn(Pid) -> Option<Asid>) -> Asid {
        loop {
            if self.next > 255 {
                self.rollover(&asid_of);
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

    /// Records that `pid` holds a value of the *current* generation
    /// (call right after assigning it an allocated value).
    pub fn assign_current(&mut self, pid: Pid) {
        self.gens.insert(pid, self.generation);
    }

    /// Whether `value` is reserved for the current generation.
    pub fn is_reserved(&self, value: u8) -> bool {
        let v = value as usize;
        self.reserved[v / 64] & (1 << (v % 64)) != 0
    }

    /// The space is exhausted: bump the generation and schedule the
    /// deferred non-global flush. Mirroring Linux's ARM rollover,
    /// every process currently on a core keeps its ASID: its value is
    /// reserved (skipped for the whole new generation) and its
    /// generation is bumped in place, so it is never treated as
    /// stale. The aliasing argument: a *running* process may insert
    /// entries tagged with its value even after the rollover flush,
    /// but that value is never reissued; a *non-running* process
    /// cannot insert entries until its next switch-in, which
    /// reassigns it first — so everything tagged with a recycled
    /// value predates the rollover and is removed by the flush before
    /// the new owner can run.
    fn rollover(&mut self, asid_of: &impl Fn(Pid) -> Option<Asid>) {
        self.generation += 1;
        self.next = 1;
        self.flush_pending = true;
        self.rollovers += 1;
        self.reserved = [0; 4];
        assert!(
            self.running.len() < 255,
            "more running processes than ASID values"
        );
        let running: Vec<Pid> = self.running.values().copied().collect();
        for pid in running {
            if let Some(asid) = asid_of(pid) {
                let v = asid.raw() as usize;
                self.reserved[v / 64] |= 1 << (v % 64);
                self.gens.insert(pid, self.generation);
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

    /// Reports that `pid` is now current on `core` (called by the
    /// machine layer on every context switch).
    pub fn note_running(&mut self, core: usize, pid: Pid) {
        self.running.insert(core, pid);
    }

    /// True when `pid`'s ASID predates the current generation. Every
    /// TLB entry tagged with a stale value predates the rollover (the
    /// owner has not run since — running processes are re-generationed
    /// in place), so the rollover flush covers them.
    pub fn is_stale(&self, pid: Pid) -> bool {
        self.gens.get(&pid).copied().unwrap_or(0) != self.generation
    }

    /// The current generation (starts at 1).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Rollovers performed since boot.
    pub fn rollovers(&self) -> u64 {
        self.rollovers
    }

    /// True when a rollover's deferred non-global flush has not been
    /// issued yet.
    pub fn flush_pending(&self) -> bool {
        self.flush_pending
    }

    /// Claims the deferred rollover flush: returns true exactly once
    /// per rollover; the caller must then issue the non-global flush.
    pub fn take_flush_pending(&mut self) -> bool {
        std::mem::take(&mut self.flush_pending)
    }

    /// Drops a dead process from the generation and running tables.
    pub fn forget(&mut self, pid: Pid) {
        self.gens.remove(&pid);
        self.running.retain(|_, p| *p != pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Kernel;
    use crate::{KernelConfig, NoTlb, TlbMaintenance};
    use sat_types::VirtAddr;

    /// The pure invariant, no kernel involved: the generation counter
    /// is driven only by rollovers.
    #[test]
    fn generation_is_one_plus_rollovers() {
        let mut a = AsidAllocator::new();
        assert_eq!(a.generation(), 1 + a.rollovers());
        for _ in 0..600 {
            a.alloc(|_| None);
            assert_eq!(a.generation(), 1 + a.rollovers());
        }
        assert_eq!(a.rollovers(), 2); // 600 allocations / 255 per gen
    }

    /// A running process's value is skipped by the allocator for the
    /// whole generation after a rollover.
    #[test]
    fn reserved_value_is_never_reissued() {
        let mut a = AsidAllocator::new();
        let p = Pid::new(42);
        let held = a.alloc(|_| None);
        a.assign_current(p);
        a.note_running(0, p);
        for _ in 0..600 {
            let v = a.alloc(|pid| (pid == p).then_some(held));
            if a.rollovers() > 0 {
                assert_ne!(v, held, "reserved value reissued after rollover");
            }
        }
        assert!(!a.is_stale(p), "running process re-generationed in place");
    }

    /// A [`TlbMaintenance`] sink counting maintenance operations.
    #[derive(Default)]
    struct CountingTlb {
        asid_flushes: u64,
        non_global_flushes: u64,
        full_flushes: u64,
    }

    impl TlbMaintenance for CountingTlb {
        fn flush_asid(&mut self, _asid: Asid) {
            self.asid_flushes += 1;
        }
        fn flush_va_all_asids(&mut self, _va: VirtAddr) {}
        fn flush_all(&mut self) {
            self.full_flushes += 1;
        }
        fn flush_non_global(&mut self) {
            self.non_global_flushes += 1;
        }
    }

    #[test]
    fn asid_rollover_survives_hundreds_of_process_generations() {
        let mut k = Kernel::new(KernelConfig::stock(), 16_384);
        let parent = k.create_process().unwrap();
        // 600 fork/exit cycles exhaust the 8-bit space twice over; the
        // old free-list allocator would have coped only by recycling,
        // the generation allocator instead rolls over.
        for _ in 0..600 {
            let child = k.fork(parent).unwrap().child;
            k.exit(child, &mut NoTlb).unwrap();
        }
        // 601 allocations at 255 per generation = 2 rollovers.
        assert_eq!(k.stats.asid_rollovers, 2);
        assert_eq!(k.asid_generation(), 3);
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
