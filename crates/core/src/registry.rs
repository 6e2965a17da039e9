//! The central registry of shared page-table pages: one refcounted
//! entry per shared PTP, keyed by the physical frame, holding the
//! sharer count and the chunk it covers, plus the Figure-6 by-cause
//! unshare counters.
//!
//! `NEED_COPY` is the paper's *mechanism* (the spare bit the fault path
//! tests without any lookup); whether and by how many a table is shared
//! is answered here. The registry is what makes fork of a fully-shared
//! image O(shared regions): a chunk whose parent pair already carries
//! `NEED_COPY` has, by the eager-unshare invariant, been sharable since
//! its first share (every region op unshares first), so fork attaches
//! the child with one refcount bump — no VMA overlap scan, no
//! write-protect pass, no aging walk.
//!
//! Two facts are kept twice, each pair with one rule:
//!
//! - The sharer count is `SharedPtpEntry::sharers` and the table frame's
//!   `mapcount`, bumped side by side. The mapcount is the paper's own
//!   counter (Section 3.1): `sat-mmu` frees a table pair by it and
//!   `sat_vm::smaps` divides a table's PSS by it. The entry's count is
//!   what the public [`SharedPtpRegistry::iter`] reports, and the
//!   benchmark's leak check reads it there. So both stay, and
//!   [`Kernel::verify_share_accounting`] (run by [`Kernel::audit`])
//!   checks that they agree and that an entry exists exactly while some
//!   level-1 pair reaches the frame with `NEED_COPY`.
//! - The Figure-6 counters are [`RegistryStats`] fields and
//!   [`KernelStats`] fields, both public shapes.
//!   [`SharedPtpRegistry::detach`] is the one writer of both.
//!
//! [`KernelStats`]: crate::kernel::KernelStats
//! [`Kernel::verify_share_accounting`]: crate::Kernel::verify_share_accounting
//! [`Kernel::audit`]: crate::Kernel::audit

use std::collections::BTreeMap;

use sat_types::{Domain, Pfn, VirtAddr};

use crate::kernel::KernelStats;
use crate::share::UnshareTrigger;

/// One shared PTP's registry record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SharedPtpEntry {
    /// Base address of the 2MB chunk the PTP translates. Sharers
    /// inherit the zygote's layout, so the chunk is the same virtual
    /// address in every address space referencing the frame.
    pub chunk: VirtAddr,
    /// Domain of the sharers' level-1 pairs.
    pub domain: Domain,
    /// Processes whose level-1 pair references the frame with
    /// `NEED_COPY` set: a copy of the frame's `mapcount`, which the
    /// page-table code frees by (the module docs say why both stay).
    pub sharers: u32,
}

/// Share/unshare accounting owned by the registry — the Figure-6
/// cause attribution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Attach operations: one per (fork, shared chunk).
    pub shares: u64,
    /// Attaches that created the entry (first share of a PTP).
    pub first_shares: u64,
    /// Unshare detaches, all causes; the sum of the four by-cause
    /// counters below.
    pub ptp_unshares: u64,
    /// Case 1: write fault into a shared PTP.
    pub unshares_write_fault: u64,
    /// Case 3: new region mapped into a shared chunk.
    pub unshares_new_region: u64,
    /// Case 4: region freed inside a shared chunk.
    pub unshares_region_free: u64,
    /// Case 2: protection change inside a shared chunk.
    pub unshares_region_op: u64,
    /// Case 5: exit-time detaches. Exit dereferences without copying,
    /// so these are deliberately *not* counted in `ptp_unshares`.
    pub exit_detaches: u64,
}

/// Central refcounted registry of shared PTPs, keyed by the physical
/// frame holding the table.
#[derive(Default)]
pub struct SharedPtpRegistry {
    entries: BTreeMap<Pfn, SharedPtpEntry>,
    /// Share/unshare counters with cause attribution.
    pub stats: RegistryStats,
}

impl SharedPtpRegistry {
    /// An empty registry.
    pub fn new() -> SharedPtpRegistry {
        SharedPtpRegistry::default()
    }

    /// Records a fork attaching one new sharer to `frame`.
    ///
    /// The first share creates the entry counting both the parent and
    /// the child (the parent's reference becomes a *shared* reference
    /// the moment its pair is marked `NEED_COPY`); later shares bump
    /// the count. Returns the new sharer count.
    pub fn share(&mut self, frame: Pfn, chunk: VirtAddr, domain: Domain) -> u32 {
        self.stats.shares += 1;
        match self.entries.get_mut(&frame) {
            Some(e) => {
                debug_assert_eq!(
                    e.chunk, chunk,
                    "shared PTP re-attached at a different chunk"
                );
                e.sharers += 1;
                e.sharers
            }
            None => {
                self.stats.first_shares += 1;
                self.entries.insert(
                    frame,
                    SharedPtpEntry {
                        chunk,
                        domain,
                        sharers: 2,
                    },
                );
                2
            }
        }
    }

    /// Detaches one sharer from `frame` for an unshare with Figure-6
    /// cause `trigger`, counting it in [`SharedPtpRegistry::stats`] and
    /// in `k`'s twin fields — the one place either is written.
    /// Returns `true` when the caller was the last sharer (the entry is
    /// removed and the caller keeps the table private — no copy
    /// needed).
    pub fn detach(&mut self, frame: Pfn, trigger: UnshareTrigger, k: &mut KernelStats) -> bool {
        use UnshareTrigger as T;
        let r = &mut self.stats;
        let by_cause = match trigger {
            T::WriteFault => [&mut r.unshares_write_fault, &mut k.unshares_write_fault],
            T::NewRegion => [&mut r.unshares_new_region, &mut k.unshares_new_region],
            T::RegionFree => [&mut r.unshares_region_free, &mut k.unshares_region_free],
            // Exit goes through `exit_detach`; an explicit unshare with
            // the Exit trigger still detaches, as a region op.
            T::RegionOp | T::Exit => [&mut r.unshares_region_op, &mut k.unshares_region_op],
        };
        let totals = [&mut r.ptp_unshares, &mut k.ptp_unshares];
        for counter in by_cause.into_iter().chain(totals) {
            *counter += 1;
        }
        self.detach_inner(frame)
    }

    /// Detaches one sharer at process exit (case 5). Exit tears the
    /// reference down without copying, so this bumps only
    /// `exit_detaches`, never `ptp_unshares`.
    pub fn exit_detach(&mut self, frame: Pfn) -> bool {
        self.stats.exit_detaches += 1;
        self.detach_inner(frame)
    }

    fn detach_inner(&mut self, frame: Pfn) -> bool {
        let e = self
            .entries
            .get_mut(&frame)
            .expect("detach of a PTP the registry does not know as shared");
        if e.sharers == 1 {
            self.entries.remove(&frame);
            true
        } else {
            e.sharers -= 1;
            false
        }
    }

    /// The sharer count for `frame`, if it is registered as shared.
    ///
    /// A count of 1 means every other sharer has since unshared or
    /// exited; the remaining reference still carries `NEED_COPY` and
    /// will take the cheap last-sharer path at its next unshare.
    pub fn sharers(&self, frame: Pfn) -> Option<u32> {
        self.entries.get(&frame).map(|e| e.sharers)
    }

    /// The full entry for `frame`, if registered.
    pub fn entry(&self, frame: Pfn) -> Option<&SharedPtpEntry> {
        self.entries.get(&frame)
    }

    /// Whether `frame` is shared with at least one *other* process
    /// right now.
    pub fn shared_with_others(&self, frame: Pfn) -> bool {
        self.sharers(frame).is_some_and(|s| s > 1)
    }

    /// Iterates registered entries in frame order.
    pub fn iter(&self) -> impl Iterator<Item = (Pfn, &SharedPtpEntry)> + '_ {
        self.entries.iter().map(|(&f, e)| (f, e))
    }

    /// Number of registered (shared) PTPs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no PTP is currently shared.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> Pfn {
        Pfn::new(42)
    }

    fn chunk() -> VirtAddr {
        VirtAddr::new(0x4000_0000)
    }

    #[test]
    fn first_share_counts_parent_and_child() {
        let mut r = SharedPtpRegistry::new();
        assert_eq!(r.share(frame(), chunk(), Domain::USER), 2);
        assert_eq!(r.share(frame(), chunk(), Domain::USER), 3);
        assert_eq!(r.sharers(frame()), Some(3));
        assert_eq!(r.stats.shares, 2);
        assert_eq!(r.stats.first_shares, 1);
    }

    #[test]
    fn detach_attributes_causes_and_removes_last_sharer() {
        let mut r = SharedPtpRegistry::new();
        let mut k = KernelStats::default();
        r.share(frame(), chunk(), Domain::USER);
        assert!(!r.detach(frame(), UnshareTrigger::WriteFault, &mut k));
        assert_eq!(r.sharers(frame()), Some(1));
        assert!(r.detach(frame(), UnshareTrigger::RegionOp, &mut k));
        assert!(r.is_empty());
        assert_eq!(r.stats.ptp_unshares, 2);
        assert_eq!(r.stats.unshares_write_fault, 1);
        assert_eq!(r.stats.unshares_region_op, 1);
        // The kernel's twins, written in the same call.
        let twins = (k.ptp_unshares, k.unshares_write_fault, k.unshares_region_op);
        assert_eq!(twins, (2, 1, 1));
    }

    #[test]
    fn exit_detach_is_not_an_unshare() {
        let mut r = SharedPtpRegistry::new();
        r.share(frame(), chunk(), Domain::USER);
        assert!(!r.exit_detach(frame()));
        assert!(r.exit_detach(frame()));
        assert!(r.is_empty());
        assert_eq!(r.stats.exit_detaches, 2);
        assert_eq!(r.stats.ptp_unshares, 0);
    }

    #[test]
    fn shared_with_others_tracks_the_boundary() {
        let mut r = SharedPtpRegistry::new();
        assert!(!r.shared_with_others(frame()));
        r.share(frame(), chunk(), Domain::USER);
        assert!(r.shared_with_others(frame()));
        r.exit_detach(frame());
        // One reference left: nobody else shares it anymore.
        assert!(!r.shared_with_others(frame()));
        assert_eq!(r.len(), 1);
    }
}
