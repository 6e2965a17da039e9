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
    /// Every non-global entry of every address space (`TLBIALL` with
    /// globals held) — the ASID-rollover flush, issued directly and
    /// never gathered.
    NonGlobal,
    /// Everything, globals included (`TLBIALL`) — the escalation for
    /// operations that touch global (zygote library) mappings.
    All,
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

/// The page ceiling above which a `reason` group's ranges escalate to
/// a full per-ASID flush. A fork has none: its spans are exactly the
/// write-protected pages, and widening to a full ASID flush would also
/// discard the parent's read-only translations — the zygote code
/// entries sharing exists to keep warm.
fn ceiling(reason: FlushReason) -> u32 {
    match reason {
        FlushReason::Fork => u32::MAX,
        _ => FLUSH_CEILING_PAGES,
    }
}

/// An accumulator for the TLB maintenance one kernel operation owes.
///
/// Ops carry the [`FlushReason`] of the call site that gathered them,
/// so one batch can serve an operation whose sub-steps attribute
/// differently (a `munmap` gathers `Unshare`-reason ops from the PTPs
/// it unshares and a `RegionOp`-reason range for the unmapped pages);
/// `apply` resolves each reason group on its own and issues its ops
/// with that reason. The ops list is the batch's one allocation:
/// resolving reorders it in place.
pub struct FlushBatch {
    /// Process the batch acts for (event attribution only).
    pid: Pid,
    /// Its ASID at gather time (event attribution only).
    asid: Asid,
    ops: Vec<(FlushOp, FlushReason)>,
}

impl FlushBatch {
    /// An empty batch acting for `pid`/`asid`.
    pub fn new(pid: Pid, asid: Asid) -> FlushBatch {
        FlushBatch {
            pid,
            asid,
            ops: Vec::new(),
        }
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
    pub fn all(&mut self, reason: FlushReason) {
        self.ops.push((FlushOp::All, reason));
    }

    /// Resolves the gathered ops and issues the surviving maintenance
    /// against `tlb`, one reason group at a time in the order the
    /// reasons were first gathered:
    ///
    /// 1. A [`FlushOp::All`] in the group subsumes everything else in
    ///    it.
    /// 2. [`FlushOp::Asid`] ops are deduplicated and subsume the
    ///    group's page/range ops for the same ASID.
    /// 3. Remaining page/range ops are grouped per ASID, sorted, and
    ///    merged where overlapping or adjacent; a merged group whose
    ///    page total crosses the reason's ceiling escalates to one
    ///    [`FlushOp::Asid`], otherwise each surviving range is issued
    ///    as a [`FlushOp::Page`] or [`FlushOp::Range`].
    ///
    /// Emits one [`sat_obs::Payload::FlushBatch`] event per non-empty
    /// batch.
    pub fn apply(mut self, tlb: &mut dyn TlbMaintenance) -> BatchOutcome {
        if self.ops.is_empty() {
            return BatchOutcome::default();
        }
        let mut outcome = BatchOutcome {
            ops: self.ops.len() as u64,
            ..BatchOutcome::default()
        };
        let mut rest = &mut self.ops[..];
        while let Some(&(_, reason)) = rest.first() {
            let n = gather_front(rest, |&(_, r)| r == reason);
            let (group, tail) = std::mem::take(&mut rest).split_at_mut(n);
            resolve_group(group, reason, tlb, &mut outcome);
            rest = tail;
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

/// Moves the items `keep` accepts to the front of `items`, keeping the
/// order within both parts, and returns how many it moved.
fn gather_front<T>(items: &mut [T], keep: impl Fn(&T) -> bool) -> usize {
    let mut n = 0;
    for i in 0..items.len() {
        if keep(&items[i]) {
            items[n..=i].rotate_right(1);
            n += 1;
        }
    }
    n
}

/// The ASID and pages of a page or range op.
fn span(op: FlushOp) -> Option<(Asid, VpnRange)> {
    match op {
        FlushOp::Page { asid, vpn } => Some((asid, VpnRange::single(vpn))),
        FlushOp::Range { asid, range } => Some((asid, range)),
        FlushOp::Asid(_) | FlushOp::VaAllAsids(_) | FlushOp::NonGlobal | FlushOp::All => None,
    }
}

/// Resolves one reason group (see [`FlushBatch::apply`]), reordering
/// it in place: its full-ASID ops first, then its all-ASIDs page ops,
/// then its page/range ops, each kind in gather order.
fn resolve_group(
    group: &mut [(FlushOp, FlushReason)],
    reason: FlushReason,
    tlb: &mut dyn TlbMaintenance,
    outcome: &mut BatchOutcome,
) {
    if group.iter().any(|&(op, _)| op == FlushOp::All) {
        outcome.coalesced += group.len() as u64 - 1;
        tlb.flush(FlushOp::All, reason);
        return;
    }
    let asids = gather_front(group, |(op, _)| matches!(op, FlushOp::Asid(_)));
    let (full, rest) = group.split_at_mut(asids);
    let vaas = gather_front(rest, |(op, _)| matches!(op, FlushOp::VaAllAsids(_)));
    let (vaa, ranged) = rest.split_at_mut(vaas);
    // Full-ASID ops and one-page-all-ASIDs ops, each deduplicated. A
    // full-ASID op does *not* subsume the latter: globals survive
    // `TLBIASID` but not `TLBIMVAA`.
    for ops in [&*full, &*vaa] {
        for (i, &(op, _)) in ops.iter().enumerate() {
            if ops[..i].iter().any(|&(o, _)| o == op) {
                outcome.coalesced += 1;
            } else {
                tlb.flush(op, reason);
            }
        }
    }
    // Page/range ops, one ASID at a time in gather order; a full-ASID
    // op subsumes its ASID's.
    let mut rest = ranged;
    while let Some(&(op, _)) = rest.first() {
        let asid = span(op).expect("only page/range ops are left").0;
        let n = gather_front(rest, |&(o, _)| span(o).is_some_and(|(a, _)| a == asid));
        let (mine, tail) = std::mem::take(&mut rest).split_at_mut(n);
        rest = tail;
        if full.iter().any(|&(o, _)| o == FlushOp::Asid(asid)) {
            outcome.coalesced += n as u64;
            continue;
        }
        mine.sort_unstable_by_key(|&(o, _)| span(o).map(|(_, r)| r));
        let merged = || merge_sorted(mine.iter().filter_map(|&(o, _)| span(o).map(|(_, r)| r)));
        let (runs, pages) = merged().fold((0u64, 0u64), |(runs, pages), r| {
            (runs + 1, pages + u64::from(r.page_count()))
        });
        outcome.coalesced += n as u64 - runs;
        if pages > u64::from(ceiling(reason)) {
            outcome.escalated += 1;
            tlb.flush(FlushOp::Asid(asid), reason);
        } else {
            for range in merged() {
                let op = if range.page_count() == 1 {
                    FlushOp::Page {
                        asid,
                        vpn: range.start,
                    }
                } else {
                    FlushOp::Range { asid, range }
                };
                tlb.flush(op, reason);
            }
        }
    }
}

/// The maximal runs of sorted `ranges`, where overlapping or adjacent
/// ranges join.
fn merge_sorted(mut ranges: impl Iterator<Item = VpnRange>) -> impl Iterator<Item = VpnRange> {
    let mut run = ranges.next();
    std::iter::from_fn(move || {
        let mut cur = run?;
        run = None;
        for r in ranges.by_ref() {
            if !cur.try_merge(&r) {
                run = Some(r);
                break;
            }
        }
        Some(cur)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat_types::VirtAddr;

    /// Records every maintenance call with the reason it was issued
    /// under.
    #[derive(Default)]
    struct Recorder {
        calls: Vec<(FlushOp, FlushReason)>,
    }

    impl TlbMaintenance for Recorder {
        fn flush(&mut self, op: FlushOp, reason: FlushReason) {
            self.calls.push((op, reason));
        }
    }

    fn batch() -> FlushBatch {
        FlushBatch::new(Pid::new(1), Asid::new(1))
    }

    fn page(asid: u8, vpn: u32) -> FlushOp {
        FlushOp::Page {
            asid: Asid::new(asid),
            vpn,
        }
    }

    fn range(asid: u8, start: u32, end: u32) -> FlushOp {
        FlushOp::Range {
            asid: Asid::new(asid),
            range: VpnRange::new(start, end),
        }
    }

    #[test]
    fn adjacent_pages_coalesce_into_one_range() {
        let mut b = batch();
        for vpn in [0x40002u32, 0x40000, 0x40001] {
            b.page(Asid::new(3), vpn, FlushReason::RegionOp);
        }
        let mut tlb = Recorder::default();
        let o = b.apply(&mut tlb);
        assert_eq!(
            tlb.calls,
            vec![(range(3, 0x40000, 0x40003), FlushReason::RegionOp)]
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
        let o = b.apply(&mut tlb);
        assert_eq!(
            tlb.calls,
            vec![
                (range(2, 0x10, 0x14), FlushReason::RegionOp),
                (page(2, 0x80), FlushReason::RegionOp),
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
            at.apply(&mut tlb).escalated,
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
        let o = over.apply(&mut tlb);
        assert_eq!(
            tlb.calls,
            vec![(FlushOp::Asid(Asid::new(4)), FlushReason::Exit)]
        );
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
        let o = b.apply(&mut tlb);
        assert_eq!(
            tlb.calls,
            vec![
                (FlushOp::Asid(Asid::new(5)), FlushReason::Unshare),
                (page(6, 0x100), FlushReason::Unshare),
            ]
        );
        assert_eq!(o.coalesced, 2);
    }

    #[test]
    fn global_subsumes_the_whole_reason_group() {
        let mut b = batch();
        b.range(Asid::new(2), VpnRange::new(0, 8), FlushReason::RegionOp);
        b.all(FlushReason::RegionOp);
        b.page(Asid::new(3), 0x9, FlushReason::RegionOp);
        let mut tlb = Recorder::default();
        let o = b.apply(&mut tlb);
        assert_eq!(tlb.calls, vec![(FlushOp::All, FlushReason::RegionOp)]);
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
        b.apply(&mut tlb);
        assert_eq!(
            tlb.calls,
            vec![
                (page(7, 0x40), FlushReason::Unshare),
                (range(7, 0x50, 0x52), FlushReason::RegionOp),
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
        let o = b.apply(&mut tlb);
        assert_eq!(
            tlb.calls,
            vec![
                (FlushOp::Asid(Asid::new(3)), FlushReason::Reclaim),
                (FlushOp::VaAllAsids(va), FlushReason::Reclaim),
                (page(4, 0x77), FlushReason::Reclaim),
            ]
        );
        assert_eq!(o.coalesced, 1);

        // `All` still subsumes the whole group.
        let mut g = batch();
        g.va_all_asids(va, FlushReason::Reclaim);
        g.all(FlushReason::Reclaim);
        let mut tlb = Recorder::default();
        let o = g.apply(&mut tlb);
        assert_eq!(tlb.calls, vec![(FlushOp::All, FlushReason::Reclaim)]);
        assert_eq!(o.coalesced, 1);
    }

    #[test]
    fn empty_batch_issues_nothing() {
        let mut tlb = Recorder::default();
        let o = batch().apply(&mut tlb);
        assert!(tlb.calls.is_empty());
        assert_eq!(o, BatchOutcome::default());
    }
}
