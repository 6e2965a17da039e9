//! Differential property test for large-page promotion/demotion.
//!
//! Two kernels boot identically and replay the same random op sequence
//! of the harness (`common/mod.rs`). Kernel `a` runs with the promotion
//! scanner enabled; kernel `b` is the 4KB-only
//! reference — same configuration with promotion off, so its walk is
//! the paper's unmodified world.
//!
//! After every op both return the same outcome and hold the same
//! processes, and for every live process and tracked page the two
//! address spaces are compared through the hardware walker
//! ([`sat_mmu::walk`], which sees large pages; the PTE lens does not):
//!
//! - every page the reference maps must translate in the promoted
//!   kernel with the *same permissions and global bit* (frame numbers
//!   legitimately differ — promotion migrates frames). One slack is
//!   allowed: where the region permits writes, the promoted kernel may
//!   carry an early write bit where the reference is still
//!   COW-pending, because a promotion-filled hole inherits the group's
//!   settled RW while the reference's anon read fault maps
//!   write-protected; a later write reaches the same state in both.
//!   The promoted kernel may never map *narrower* than the reference,
//!   never wider than the region, and never diverge on the global bit;
//! - pages the reference does **not** map may translate in the
//!   promoted kernel only as promotion-filled holes: not global, and
//!   never with permissions wider than the region's.
//!
//! At the end the `Promote`/`Demote` event streams must match the
//! promoted kernel's counters exactly, no section was ever promoted,
//! and the reference must never have promoted. The harness's teardown then shows any refcount slip
//! in collapse/split/zap as a leaked frame, PTP or rmap entry.

mod common;

use common::{lockstep, op_strategy, Op, Sim};
use proptest::prelude::*;
use sat_core::{Kernel, KernelConfig, PromotePolicy};
use sat_types::{Perms, Pid, VirtAddr};

/// The walker's view of one page: `(perms, global)` if mapped.
fn view(k: &Kernel, pid: Pid, va: VirtAddr) -> Option<(Perms, bool)> {
    let mm = k.mm(pid).ok()?;
    sat_mmu::walk(&mm.root, &k.ptps, va)
        .translation()
        .map(|t| (t.perms, t.global))
}

/// Compares one process's tracked pages across the two kernels.
fn compare(a: &Sim, b: &Sim, pid: Pid, op: &Op) {
    let mm = b.m.kernel.mm(pid).unwrap();
    for va in a.pages() {
        let region = mm.vma_at(va).map(|vma| vma.perms);
        let at = || format!("{pid:?} {va:?} (region {region:?}) after {op:?}");
        match (view(&a.m.kernel, pid, va), view(&b.m.kernel, pid, va)) {
            (Some((gperms, gglobal)), Some((eperms, eglobal))) => {
                assert_eq!(gglobal, eglobal, "{}: global bit diverged", at());
                // Exact match, or the promoted side holds the region's
                // write bit where the reference is COW-pending.
                let early_write = Some(gperms) == region && gperms.without_write() == eperms;
                assert!(
                    gperms == eperms || early_write,
                    "{}: promoted {gperms:?} vs reference {eperms:?}",
                    at()
                );
            }
            (None, Some((eperms, _))) => {
                panic!("{}: reference maps {eperms:?}, promoted faults", at())
            }
            // A hole the reference never filled may translate in the
            // promoted kernel (promotion filled it), but privately and
            // never wider than its region.
            (Some((perms, global)), None) => {
                assert!(!global, "{}: promotion-filled hole marked global", at());
                let within = region.is_some_and(|r| perms == r || perms == r.without_write());
                assert!(within, "{}: filled hole has {perms:?}", at());
            }
            (None, None) => {}
        }
    }
}

fn run_sequence(base: KernelConfig, ops: &[Op]) {
    let promoted_cfg = base.with_promote(PromotePolicy {
        enabled: true,
        min_populated: 1,
        ..PromotePolicy::off()
    });
    sat_obs::install(1 << 16);
    let (mut a, mut b) = (Sim::boot(promoted_cfg), Sim::boot(base));
    for op in ops {
        // Reclaim's clock is a list of frame numbers and promotion hands
        // out other frames than the reference: the victims differ.
        if matches!(op, Op::Reclaim(_)) {
            continue;
        }
        lockstep(&mut a, &mut b, op);
        for &pid in &a.live {
            compare(&a, &b, pid, op);
        }
    }

    // Event streams reconcile with the counters.
    let rec = sat_obs::uninstall().expect("sink installed");
    let mut promote_events = 0u64;
    let mut demote_events = 0u64;
    for ev in &rec.events {
        match ev.payload {
            sat_obs::Payload::Promote { .. } => promote_events += 1,
            sat_obs::Payload::Demote { .. } => demote_events += 1,
            _ => {}
        }
    }
    let stats = &a.m.kernel.stats;
    assert_eq!(
        promote_events, stats.promotions,
        "Promote events do not reconcile with the promotion counter"
    );
    assert_eq!(stats.section_promotions, 0, "a section was promoted");
    assert_eq!(
        demote_events, stats.demotions,
        "Demote events do not reconcile with the demotion counter"
    );
    let stats = &b.m.kernel.stats;
    assert_eq!(stats.promotions, 0, "reference kernel promoted");
    a.teardown();
    b.teardown();
}

proptest! {
    /// Promotion on stock (no PTP sharing): pure page-size mechanics.
    #[test]
    fn promoted_translations_match_reference_stock(
        ops in proptest::collection::vec(op_strategy(), 1..24)
    ) {
        run_sequence(KernelConfig::stock(), &ops);
    }

    /// Promotion under PTP sharing: the scanner must respect sharing
    /// boundaries and unshare-copied groups must stay coherent.
    #[test]
    fn promoted_translations_match_reference_shared(
        ops in proptest::collection::vec(op_strategy(), 1..24)
    ) {
        run_sequence(KernelConfig::shared_ptp(), &ops);
    }
}
