//! Flush batching: the `mmu_gather` analogue.
//!
//! Kernel MM operations used to issue TLB maintenance inline, one
//! call per page or per unshare — each of which the machine layer
//! turns into a cross-core shootdown. Linux instead *gathers* the
//! pending invalidations of an operation in an `mmu_gather` and
//! resolves them once at the end. [`FlushBatch`] is that gather: call
//! sites accumulate [`FlushOp`]s while the operation mutates page
//! tables, and a single [`FlushBatch::apply`] at the end coalesces
//! adjacent pages into ranges, drops ops subsumed by wider ones, and
//! escalates a range to a full per-ASID flush once it grows past
//! [`FLUSH_CEILING_PAGES`] pages (the spirit of Linux's
//! `tlb_single_page_flush_ceiling`) — so the machine sees one precise
//! shootdown per operation instead of one per call site.

use sat_obs::FlushReason;
use sat_types::{Asid, Pid, VirtAddr, VpnRange};

use crate::TlbMaintenance;

/// Pages above which a range flush is escalated to a full per-ASID
/// flush. Back-to-back per-page invalidations (`TLBIMVA`) beat a
/// whole-ASID flush (`TLBIASID` plus the refills it causes) only up
/// to a point; Linux tunes the crossover as
/// `tlb_single_page_flush_ceiling`, default 33 — we default higher
/// because the simulated refill is a full table walk through the
/// cache hierarchy.
pub const FLUSH_CEILING_PAGES: u32 = 64;

/// One pending TLB invalidation, ordered from narrowest to widest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushOp {
    /// One page of one address space (`TLBIMVA`).
    Page {
        /// Address space whose entry dies; globals survive.
        asid: Asid,
        /// Virtual page number of the mapping.
        vpn: u32,
    },
    /// A run of pages of one address space (back-to-back `TLBIMVA`s).
    Range {
        /// Address space whose entries die; globals survive.
        asid: Asid,
        /// Pages whose entries die.
        range: VpnRange,
    },
    /// One page in *every* address space, globals included
    /// (`TLBIMVAA`) — used when a shared-PTP PTE is torn and the
    /// sharers' ASIDs cannot be enumerated, or when the torn PTE was
    /// global.
    VaAllAsids(VirtAddr),
    /// Every non-global entry of one address space (`TLBIASID`).
    Asid(Asid),
    /// Everything, globals included (`TLBIALL`) — the escalation for
    /// operations that touch global (zygote library) mappings.
    Global,
}

/// What resolving a batch did — returned by [`FlushBatch::apply`] and
/// mirrored into the [`sat_obs::Payload::FlushBatch`] event.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Ops gathered before resolution.
    pub ops: u64,
    /// Ops absorbed by a neighbour or a wider op during resolution.
    pub coalesced: u64,
    /// Per-ASID range groups escalated to a full ASID flush because
    /// they crossed the page ceiling.
    pub escalated: u64,
}

/// An accumulator for the TLB maintenance one kernel operation owes.
///
/// Ops carry the [`FlushReason`] of the call site that gathered them,
/// so one batch can serve an operation whose sub-steps attribute
/// differently (a `munmap` gathers `Unshare`-reason ops from the PTPs
/// it unshares and a `RegionOp`-reason range for the unmapped pages);
/// `apply` resolves and issues each reason group under its own
/// attribution scope.
pub struct FlushBatch {
    /// Process the batch acts for (event attribution only).
    pid: Pid,
    /// Its ASID at gather time (event attribution only).
    asid: Asid,
    ceiling: u32,
    ops: Vec<(FlushOp, FlushReason)>,
}

impl FlushBatch {
    /// An empty batch acting for `pid`/`asid`.
    pub fn new(pid: Pid, asid: Asid) -> FlushBatch {
        FlushBatch {
            pid,
            asid,
            ceiling: FLUSH_CEILING_PAGES,
            ops: Vec::new(),
        }
    }

    /// Overrides the escalation ceiling (the fork flush has none).
    pub(crate) fn with_ceiling(mut self, pages: u32) -> FlushBatch {
        self.ceiling = pages;
        self
    }

    /// Gathers a single-page invalidation.
    pub fn page(&mut self, asid: Asid, vpn: u32, reason: FlushReason) {
        self.ops.push((FlushOp::Page { asid, vpn }, reason));
    }

    /// Gathers a range invalidation. Empty ranges are dropped — an
    /// empty `munmap` owes no maintenance.
    pub fn range(&mut self, asid: Asid, range: VpnRange, reason: FlushReason) {
        if !range.is_empty() {
            self.ops.push((FlushOp::Range { asid, range }, reason));
        }
    }

    /// Gathers a one-page-all-ASIDs invalidation (`TLBIMVAA`).
    pub fn va_all_asids(&mut self, va: VirtAddr, reason: FlushReason) {
        self.ops.push((FlushOp::VaAllAsids(va), reason));
    }

    /// Gathers a full per-ASID invalidation.
    pub fn asid(&mut self, asid: Asid, reason: FlushReason) {
        self.ops.push((FlushOp::Asid(asid), reason));
    }

    /// Gathers a machine-wide invalidation (globals included).
    pub fn global(&mut self, reason: FlushReason) {
        self.ops.push((FlushOp::Global, reason));
    }

    /// Resolves the gathered ops and issues the surviving maintenance
    /// against `tlb`, one reason group at a time:
    ///
    /// 1. A [`FlushOp::Global`] in the group subsumes everything else
    ///    in it: one `flush_all`.
    /// 2. [`FlushOp::Asid`] ops are deduplicated and subsume the
    ///    group's page/range ops for the same ASID.
    /// 3. Remaining page/range ops are grouped per ASID, sorted, and
    ///    merged where overlapping or adjacent; a merged group whose
    ///    page total crosses the ceiling escalates to one
    ///    `flush_asid`, otherwise each surviving range is issued as a
    ///    `flush_page`/`flush_range`.
    ///
    /// Emits one [`sat_obs::Payload::FlushBatch`] event per non-empty
    /// batch.
    pub fn apply(self, tlb: &mut dyn TlbMaintenance) -> BatchOutcome {
        if self.ops.is_empty() {
            return BatchOutcome::default();
        }
        let mut outcome = BatchOutcome {
            ops: self.ops.len() as u64,
            ..BatchOutcome::default()
        };
        let mut reasons: Vec<FlushReason> = Vec::new();
        for (_, r) in &self.ops {
            if !reasons.contains(r) {
                reasons.push(*r);
            }
        }
        for reason in reasons {
            let group: Vec<FlushOp> = self
                .ops
                .iter()
                .filter(|(_, r)| *r == reason)
                .map(|(op, _)| *op)
                .collect();
            let ceiling = self.ceiling;
            sat_obs::with_flush_reason(reason, || {
                resolve_group(&group, ceiling, tlb, &mut outcome);
            });
        }
        if sat_obs::enabled() {
            sat_obs::emit(
                sat_obs::Subsystem::Kernel,
                self.pid.raw(),
                self.asid.raw(),
                sat_obs::Payload::FlushBatch {
                    ops: outcome.ops,
                    coalesced: outcome.coalesced,
                    escalated: outcome.escalated,
                },
            );
        }
        outcome
    }
}

/// Resolves one reason group (see [`FlushBatch::apply`]).
fn resolve_group(
    group: &[FlushOp],
    ceiling: u32,
    tlb: &mut dyn TlbMaintenance,
    outcome: &mut BatchOutcome,
) {
    if group.iter().any(|op| matches!(op, FlushOp::Global)) {
        outcome.coalesced += group.len() as u64 - 1;
        tlb.flush_all();
        return;
    }
    // Full-ASID ops, deduplicated; they subsume the group's narrower
    // ops for the same ASID.
    let mut full: Vec<Asid> = Vec::new();
    for op in group {
        if let FlushOp::Asid(a) = op {
            if full.contains(a) {
                outcome.coalesced += 1;
            } else {
                full.push(*a);
            }
        }
    }
    // One-page-all-ASIDs ops, deduplicated. A full-ASID op does *not*
    // subsume them: globals survive `TLBIASID` but not `TLBIMVAA`.
    let mut vaa: Vec<VirtAddr> = Vec::new();
    for op in group {
        if let FlushOp::VaAllAsids(va) = op {
            if vaa.contains(va) {
                outcome.coalesced += 1;
            } else {
                vaa.push(*va);
            }
        }
    }
    let mut by_asid: Vec<(Asid, Vec<VpnRange>)> = Vec::new();
    for op in group {
        let (asid, range) = match op {
            FlushOp::Page { asid, vpn } => (*asid, VpnRange::single(*vpn)),
            FlushOp::Range { asid, range } => (*asid, *range),
            FlushOp::Asid(_) | FlushOp::VaAllAsids(_) | FlushOp::Global => continue,
        };
        if full.contains(&asid) {
            outcome.coalesced += 1;
            continue;
        }
        match by_asid.iter_mut().find(|(a, _)| *a == asid) {
            Some((_, ranges)) => ranges.push(range),
            None => by_asid.push((asid, vec![range])),
        }
    }
    for asid in &full {
        tlb.flush_asid(*asid);
    }
    for va in &vaa {
        tlb.flush_va_all_asids(*va);
    }
    for (asid, mut ranges) in by_asid {
        ranges.sort_by_key(|r| (r.start, r.end));
        let mut merged: Vec<VpnRange> = Vec::with_capacity(ranges.len());
        for r in ranges {
            if merged.last_mut().is_some_and(|last| last.try_merge(&r)) {
                outcome.coalesced += 1;
            } else {
                merged.push(r);
            }
        }
        let pages: u64 = merged.iter().map(|r| u64::from(r.page_count())).sum();
        if pages > u64::from(ceiling) {
            outcome.escalated += 1;
            tlb.flush_asid(asid);
        } else {
            for r in merged {
                if r.page_count() == 1 {
                    tlb.flush_page(asid, r.start);
                } else {
                    tlb.flush_range(asid, r);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat_types::VirtAddr;

    /// Records every maintenance call with the attribution reason in
    /// effect when it was issued.
    #[derive(Default)]
    struct Recorder {
        calls: Vec<(String, FlushReason)>,
    }

    impl Recorder {
        fn log(&mut self, call: String) {
            self.calls.push((call, sat_obs::current_flush_reason()));
        }
    }

    impl TlbMaintenance for Recorder {
        fn flush_asid(&mut self, asid: Asid) {
            self.log(format!("asid {}", asid.raw()));
        }
        fn flush_va_all_asids(&mut self, va: VirtAddr) {
            self.log(format!("vaa {:#x}", va.raw()));
        }
        fn flush_all(&mut self) {
            self.log("all".into());
        }
        fn flush_page(&mut self, asid: Asid, vpn: u32) {
            self.log(format!("page {} {:#x}", asid.raw(), vpn));
        }
        fn flush_range(&mut self, asid: Asid, range: VpnRange) {
            self.log(format!(
                "range {} {:#x}..{:#x}",
                asid.raw(),
                range.start,
                range.end
            ));
        }
    }

    fn batch() -> FlushBatch {
        FlushBatch::new(Pid::new(1), Asid::new(1))
    }

    /// Applies `b` with a thread-local trace sink installed, so the
    /// reason scoping (`with_flush_reason` is a no-op when tracing is
    /// off) is observable by the [`Recorder`].
    fn apply_traced(b: FlushBatch, tlb: &mut Recorder) -> BatchOutcome {
        sat_obs::install(4096);
        let o = b.apply(tlb);
        sat_obs::uninstall();
        o
    }

    #[test]
    fn adjacent_pages_coalesce_into_one_range() {
        let mut b = batch();
        for vpn in [0x40002u32, 0x40000, 0x40001] {
            b.page(Asid::new(3), vpn, FlushReason::RegionOp);
        }
        let mut tlb = Recorder::default();
        let o = apply_traced(b, &mut tlb);
        assert_eq!(
            tlb.calls,
            vec![("range 3 0x40000..0x40003".into(), FlushReason::RegionOp)]
        );
        assert_eq!(
            o,
            BatchOutcome {
                ops: 3,
                coalesced: 2,
                escalated: 0
            }
        );
    }

    #[test]
    fn disjoint_ranges_stay_separate_and_singles_flush_as_pages() {
        let mut b = batch();
        b.range(
            Asid::new(2),
            VpnRange::new(0x10, 0x14),
            FlushReason::RegionOp,
        );
        b.page(Asid::new(2), 0x80, FlushReason::RegionOp);
        let mut tlb = Recorder::default();
        let o = apply_traced(b, &mut tlb);
        assert_eq!(
            tlb.calls,
            vec![
                ("range 2 0x10..0x14".into(), FlushReason::RegionOp),
                ("page 2 0x80".into(), FlushReason::RegionOp),
            ]
        );
        assert_eq!(o.coalesced, 0);
    }

    #[test]
    fn crossing_the_ceiling_escalates_to_one_asid_flush() {
        let mut at = batch();
        at.range(
            Asid::new(4),
            VpnRange::new(0, FLUSH_CEILING_PAGES),
            FlushReason::Exit,
        );
        let mut tlb = Recorder::default();
        assert_eq!(
            apply_traced(at, &mut tlb).escalated,
            0,
            "at the ceiling stays ranged"
        );

        let mut over = batch();
        over.range(
            Asid::new(4),
            VpnRange::new(0, FLUSH_CEILING_PAGES + 1),
            FlushReason::Exit,
        );
        let mut tlb = Recorder::default();
        let o = apply_traced(over, &mut tlb);
        assert_eq!(tlb.calls, vec![("asid 4".into(), FlushReason::Exit)]);
        assert_eq!(o.escalated, 1);
    }

    #[test]
    fn asid_op_subsumes_its_pages_and_dedups() {
        let mut b = batch();
        b.page(Asid::new(5), 0x100, FlushReason::Unshare);
        b.asid(Asid::new(5), FlushReason::Unshare);
        b.asid(Asid::new(5), FlushReason::Unshare);
        b.page(Asid::new(6), 0x100, FlushReason::Unshare);
        let mut tlb = Recorder::default();
        let o = apply_traced(b, &mut tlb);
        assert_eq!(
            tlb.calls,
            vec![
                ("asid 5".into(), FlushReason::Unshare),
                ("page 6 0x100".into(), FlushReason::Unshare),
            ]
        );
        assert_eq!(o.coalesced, 2);
    }

    #[test]
    fn global_subsumes_the_whole_reason_group() {
        let mut b = batch();
        b.range(Asid::new(2), VpnRange::new(0, 8), FlushReason::RegionOp);
        b.global(FlushReason::RegionOp);
        b.page(Asid::new(3), 0x9, FlushReason::RegionOp);
        let mut tlb = Recorder::default();
        let o = apply_traced(b, &mut tlb);
        assert_eq!(tlb.calls, vec![("all".into(), FlushReason::RegionOp)]);
        assert_eq!(o.coalesced, 2);
    }

    #[test]
    fn reason_groups_resolve_under_their_own_attribution() {
        let mut b = batch();
        b.page(Asid::new(7), 0x40, FlushReason::Unshare);
        b.range(
            Asid::new(7),
            VpnRange::new(0x50, 0x52),
            FlushReason::RegionOp,
        );
        let mut tlb = Recorder::default();
        apply_traced(b, &mut tlb);
        assert_eq!(
            tlb.calls,
            vec![
                ("page 7 0x40".into(), FlushReason::Unshare),
                ("range 7 0x50..0x52".into(), FlushReason::RegionOp),
            ]
        );
    }

    #[test]
    fn va_all_asids_dedups_and_survives_asid_subsumption() {
        let mut b = batch();
        let va = VirtAddr::new(0x4000_2000);
        b.va_all_asids(va, FlushReason::Reclaim);
        b.va_all_asids(va, FlushReason::Reclaim);
        // A full-ASID flush must not subsume the all-ASIDs page op:
        // globals survive TLBIASID but not TLBIMVAA.
        b.asid(Asid::new(3), FlushReason::Reclaim);
        b.page(Asid::new(4), 0x77, FlushReason::Reclaim);
        let mut tlb = Recorder::default();
        let o = apply_traced(b, &mut tlb);
        assert_eq!(
            tlb.calls,
            vec![
                ("asid 3".into(), FlushReason::Reclaim),
                ("vaa 0x40002000".into(), FlushReason::Reclaim),
                ("page 4 0x77".into(), FlushReason::Reclaim),
            ]
        );
        assert_eq!(o.coalesced, 1);

        // Global still subsumes the whole group.
        let mut g = batch();
        g.va_all_asids(va, FlushReason::Reclaim);
        g.global(FlushReason::Reclaim);
        let mut tlb = Recorder::default();
        let o = apply_traced(g, &mut tlb);
        assert_eq!(tlb.calls, vec![("all".into(), FlushReason::Reclaim)]);
        assert_eq!(o.coalesced, 1);
    }

    #[test]
    fn empty_batch_issues_nothing() {
        let mut tlb = Recorder::default();
        let o = apply_traced(batch(), &mut tlb);
        assert!(tlb.calls.is_empty());
        assert_eq!(o, BatchOutcome::default());
    }
}
