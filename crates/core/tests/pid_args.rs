//! Calls naming a pid that is no live process: pid 0 (no process is
//! given it: pids start at 1, and 0 files shared-table entries), a
//! child that has exited, and `u32::MAX`. Each call is refused with
//! `NoSuchProcess` — no panic, no state changed, the same answer in both
//! profiles (CI runs this file in release too) — on the stock kernel,
//! the sharing kernel and a kernel with the promotion scanner on.
//!
//! One row found a bug: `promote_scan` returned an empty report for any
//! pid while promotion was off, and `NoSuchProcess` only with it on,
//! because it returned before it looked the pid up.

use sat_core::{Kernel, KernelConfig, KernelStats, NoTlb, PromotePolicy};
use sat_types::{
    AccessType, Perms, Pid, RegionTag, SatError, SatResult, VaRange, VirtAddr, PAGE_SIZE,
};
use sat_vm::MmapRequest;

const HEAP: u32 = 0x0800_0000;

fn heap() -> MmapRequest {
    MmapRequest::anon(16 * PAGE_SIZE, Perms::RW, RegionTag::Heap, "[heap]").at(VirtAddr::new(HEAP))
}

fn page() -> VaRange {
    VaRange::from_len(VirtAddr::new(HEAP), PAGE_SIZE)
}

/// Every `Kernel` call that names a process, by name.
type Call = (&'static str, fn(&mut Kernel, Pid) -> SatResult<()>);

const CALLS: [Call; 12] = [
    ("promote_scan", |k, pid| {
        k.promote_scan(pid, &mut NoTlb).map(drop)
    }),
    ("fork", |k, pid| k.fork(pid).map(drop)),
    ("exit", |k, pid| k.exit(pid, &mut NoTlb)),
    ("page_fault", |k, pid| {
        let va = VirtAddr::new(HEAP);
        k.page_fault(pid, va, AccessType::Write, &mut NoTlb)
            .map(drop)
    }),
    ("mmap", |k, pid| {
        let req = heap().at(VirtAddr::new(HEAP + 64 * PAGE_SIZE));
        k.mmap(pid, &req, &mut NoTlb).map(drop)
    }),
    ("munmap", |k, pid| {
        k.munmap(pid, page(), &mut NoTlb).map(drop)
    }),
    ("mprotect", |k, pid| {
        k.mprotect(pid, page(), Perms::R, &mut NoTlb)
    }),
    ("populate", |k, pid| k.populate(pid, page()).map(drop)),
    ("pte", |k, pid| k.pte(pid, VirtAddr::new(HEAP)).map(drop)),
    ("exec_zygote", |k, pid| k.exec_zygote(pid)),
    ("ptp_share_snapshot", |k, pid| {
        k.ptp_share_snapshot(pid).map(drop)
    }),
    ("ensure_current_asid", |k, pid| {
        k.ensure_current_asid(pid, &mut NoTlb).map(drop)
    }),
];

/// What a refused call must leave as it was.
#[derive(Debug, PartialEq)]
struct State {
    frames: u64,
    rmap: usize,
    ptps: usize,
    shared: usize,
    processes: usize,
    asid_generation: u64,
    stats: KernelStats,
}

fn state(k: &Kernel) -> State {
    State {
        frames: k.phys.frames_in_use(),
        rmap: k.phys.rmap_total(),
        ptps: k.ptps.len(),
        shared: k.registry.len(),
        processes: k.process_count(),
        asid_generation: k.asid_generation(),
        stats: k.stats,
    }
}

#[test]
fn calls_on_a_pid_that_is_not_live_change_nothing() {
    let kernels = [
        ("stock", KernelConfig::stock()),
        ("sharing", KernelConfig::shared_ptp_tlb()),
        (
            "promoting",
            KernelConfig::stock().with_promote(PromotePolicy::aggressive()),
        ),
    ];
    for (kernel, config) in kernels {
        let mut k = Kernel::new(config, 4096);
        // A parent with a written heap and a live child, sharing its
        // chunk on the sharing kernel, and a child that has exited.
        let parent = k.create_process().unwrap();
        k.mmap(parent, &heap(), &mut NoTlb).unwrap();
        for i in 0..16 {
            let va = VirtAddr::new(HEAP + i * PAGE_SIZE);
            k.page_fault(parent, va, AccessType::Write, &mut NoTlb)
                .unwrap();
        }
        k.fork(parent).unwrap();
        let exited = k.fork(parent).unwrap().child;
        k.exit(exited, &mut NoTlb).unwrap();
        k.audit().unwrap();

        for pid in [Pid::new(0), exited, Pid::new(u32::MAX)] {
            for (call, f) in CALLS {
                let what = format!("{kernel}: {call}({pid:?})");
                let before = state(&k);
                assert_eq!(f(&mut k, pid), Err(SatError::NoSuchProcess), "{what}");
                assert_eq!(state(&k), before, "{what}");
                k.audit().expect(&what);
            }
        }
    }
}
