//! Property-based integration tests: for arbitrary operation
//! sequences, the paper's kernel must be *semantically invisible* —
//! after every op of the harness's grammar (`common/mod.rs`) it returns
//! what the stock kernel returns and its processes observe exactly the
//! frame-sharing relation the stock kernel produces — and must
//! maintain its internal invariants, which the harness checks.

mod common;

use std::collections::{HashMap, HashSet};

use common::{lockstep, op_strategy, Op, Sim};
use proptest::prelude::*;
use sat_core::{CopyOnUnshare, KernelConfig};

/// The frame behind every tracked page of every live process, `None`
/// where nothing observable is mapped. A frame no one has written reads
/// as zeros whichever frame it is, so a clean anon page on it is `None`
/// too: under PTP sharing a sibling's read fault fills the slot for
/// every sharer, where stock gives each process a zero frame of its
/// own. A clean page on a frame some page has written is observed.
fn observe(s: &mut Sim) -> Vec<Option<u32>> {
    let pages = s.pages();
    let mut slots = Vec::with_capacity(s.live.len() * pages.len());
    for &pid in &s.live {
        for &va in &pages {
            slots.push(s.m.kernel.pte(pid, va).unwrap());
        }
    }
    let dirty: HashSet<u32> = slots
        .iter()
        .flatten()
        .filter(|slot| slot.sw.dirty)
        .map(|slot| slot.hw.pfn.raw())
        .collect();
    slots
        .into_iter()
        .map(|slot| {
            let slot = slot?;
            let pfn = slot.hw.pfn.raw();
            (slot.sw.file_backed || dirty.contains(&pfn)).then_some(pfn)
        })
        .collect()
}

/// Checks that two observations induce one relation: where both map a
/// page, two pages share a frame in `a` exactly when they share one in
/// `b`.
fn same_relation(a: &[Option<u32>], b: &[Option<u32>]) -> Result<(), String> {
    let (mut a_to_b, mut b_to_a) = (HashMap::new(), HashMap::new());
    for (i, pair) in a.iter().zip(b).enumerate() {
        if let (Some(x), Some(y)) = pair {
            if a_to_b.entry(x).or_insert(y) != &y || b_to_a.entry(y).or_insert(x) != &x {
                return Err(format!("sharing relation diverged at page {i}"));
            }
        }
    }
    Ok(())
}

/// Replays `ops` on stock and on a kernel per config, requiring of
/// each after every op the outcome, the live pids and the sharing
/// relation stock has.
fn transparent(configs: &[KernelConfig], ops: &[Op]) {
    let mut stock = Sim::boot(KernelConfig::stock());
    let mut twins: Vec<Sim> = configs.iter().map(|&config| Sim::boot(config)).collect();
    for op in ops {
        let outcome = stock.apply(op);
        let seen = observe(&mut stock);
        for twin in &mut twins {
            let config = twin.m.kernel.config;
            assert_eq!(twin.apply(op), outcome, "{op:?} on {config:?}");
            assert_eq!(twin.live, stock.live, "{op:?} on {config:?}");
            same_relation(&seen, &observe(twin))
                .unwrap_or_else(|e| panic!("after {op:?} on {config:?}: {e}"));
        }
    }
    stock.teardown();
    twins.into_iter().for_each(Sim::teardown);
}

proptest! {
    /// The paper's kernel is semantically transparent, with PTP sharing
    /// alone and with TLB sharing too.
    #[test]
    fn shared_kernel_is_semantically_transparent(ops in prop::collection::vec(op_strategy(), 1..40)) {
        transparent(&[KernelConfig::shared_ptp(), KernelConfig::shared_ptp_tlb()], &ops);
    }

    /// COW/sharing invariants hold after every op of any sequence, and
    /// exiting everything releases all memory except the page cache.
    #[test]
    fn invariants_and_no_leaks(ops in prop::collection::vec(op_strategy(), 1..40)) {
        let (mut s, mut stock) = (Sim::boot(KernelConfig::shared_ptp()), Sim::boot(KernelConfig::stock()));
        for op in &ops {
            lockstep(&mut s, &mut stock, op);
        }
        s.teardown();
        stock.teardown();
    }

    /// The ablation configurations preserve the same semantics.
    #[test]
    fn ablation_configs_are_transparent_too(ops in prop::collection::vec(op_strategy(), 1..24)) {
        let shared = KernelConfig::shared_ptp();
        transparent(&[
            KernelConfig { l1_write_protect: true, ..shared },
            KernelConfig { share_stack: true, ..shared },
            KernelConfig { copy_on_unshare: CopyOnUnshare::ReferencedOnly, ..shared },
        ], &ops);
    }
}
