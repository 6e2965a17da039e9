//! Property tests for the shared-PTP registry's accounting.
//!
//! The registry's invariant (see `registry.rs`): for every entry,
//! `sharers` equals the frame's mapcount in `sat-phys` *and* the
//! number of live level-1 pairs referencing the frame with
//! `NEED_COPY`, and the four Figure-6 by-cause unshare counters sum to
//! `ptp_unshares`. These tests drive the harness's random op sequences
//! (`common/mod.rs`) against one machine, which the harness audits after
//! every op and tears down at the end.
//!
//! Reclaim rides along: every sequence runs under a tight frame budget,
//! so allocation pressure fires organic reclaim through the mmap and
//! fault hooks, beside the explicit `Reclaim` ops; evicted library
//! pages fault back in through the `Fault` ops.

mod common;

use common::{lockstep, op_strategy, Op, Sim};
use proptest::prelude::*;
use sat_core::KernelConfig;

/// Applies `ops` to a kernel under a budget just above its boot
/// footprint and to an unbudgeted twin of the same configuration, then
/// tears both down. The budget is soft: the reclaim it fires may not
/// change any op's outcome, so a refault or fork that fails under
/// pressure diverges from the twin.
fn run_sequence(config: KernelConfig, ops: &[Op]) {
    let (mut s, mut twin) = (Sim::boot(config), Sim::boot(config));
    s.m.kernel
        .set_frame_budget(Some(s.m.kernel.phys.frames_in_use() + 32));
    for op in ops {
        lockstep(&mut s, &mut twin, op);
        let empty = s.m.kernel.registry.is_empty();
        assert!(config.share_ptp || empty, "stock shared a PTP after {op:?}");
    }
    s.teardown();
    twin.teardown();
}

proptest! {
    /// The tentpole invariant, on the full shared configuration.
    #[test]
    fn registry_reconciles_under_random_lifecycles_shared(
        ops in proptest::collection::vec(op_strategy(), 1..24)
    ) {
        run_sequence(KernelConfig::shared_ptp_tlb(), &ops);
    }

    /// Same sequences on PTP sharing without TLB sharing.
    #[test]
    fn registry_reconciles_under_random_lifecycles_ptp_only(
        ops in proptest::collection::vec(op_strategy(), 1..24)
    ) {
        run_sequence(KernelConfig::shared_ptp(), &ops);
    }

    /// Stock never creates registry entries, and the same teardown
    /// leak checks hold.
    #[test]
    fn stock_keeps_the_registry_empty(
        ops in proptest::collection::vec(op_strategy(), 1..16)
    ) {
        run_sequence(KernelConfig::stock(), &ops);
    }
}
