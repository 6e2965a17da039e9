//! Property-based integration tests: for arbitrary operation
//! sequences, the paper's kernel must be *semantically invisible* —
//! processes observe exactly the frame-sharing relations the stock
//! kernel produces — and must maintain its internal invariants.

use proptest::prelude::*;
use sat_core::{Kernel, KernelConfig, NoTlb};
use sat_types::{AccessType, Perms, Pid, RegionTag, VaRange, VirtAddr, PAGE_SIZE};
use sat_vm::MmapRequest;

const CODE: u32 = 0x4000_0000;
const HEAP: u32 = 0x0800_0000;
const CODE_PAGES: u32 = 12;
const HEAP_PAGES: u32 = 12;
const MAX_PROCS: usize = 5;

/// One step of a random workload.
#[derive(Clone, Debug)]
enum Op {
    /// Fork from process `parent % live`.
    Fork(usize),
    /// Write heap page `page` in process `proc % live`.
    WriteHeap(usize, u32),
    /// Read heap page `page` in process `proc % live`.
    ReadHeap(usize, u32),
    /// Execute code page `page` in process `proc % live`.
    ExecCode(usize, u32),
    /// Exit a (non-zygote) process.
    Exit(usize),
    /// mprotect the heap of a process to read-only and back.
    ProtectFlip(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..MAX_PROCS).prop_map(Op::Fork),
        ((0..MAX_PROCS), 0..HEAP_PAGES).prop_map(|(p, g)| Op::WriteHeap(p, g)),
        ((0..MAX_PROCS), 0..HEAP_PAGES).prop_map(|(p, g)| Op::ReadHeap(p, g)),
        ((0..MAX_PROCS), 0..CODE_PAGES).prop_map(|(p, g)| Op::ExecCode(p, g)),
        (0..MAX_PROCS).prop_map(Op::Exit),
        (0..MAX_PROCS).prop_map(Op::ProtectFlip),
    ]
}

fn boot(config: KernelConfig) -> (Kernel, Pid) {
    let mut k = Kernel::new(config, 65_536);
    let z = k.create_process().unwrap();
    k.exec_zygote(z).unwrap();
    let lib = k.files.register("lib.so", CODE_PAGES * PAGE_SIZE);
    k.mmap(
        z,
        &MmapRequest::file(
            CODE_PAGES * PAGE_SIZE,
            Perms::RX,
            lib,
            0,
            RegionTag::ZygoteNativeCode,
            "lib.so",
        )
        .at(VirtAddr::new(CODE)),
        &mut NoTlb,
    )
    .unwrap();
    k.populate(
        z,
        VaRange::from_len(VirtAddr::new(CODE), CODE_PAGES * PAGE_SIZE),
    )
    .unwrap();
    k.mmap(
        z,
        &MmapRequest::anon(HEAP_PAGES * PAGE_SIZE, Perms::RW, RegionTag::Heap, "[heap]")
            .at(VirtAddr::new(HEAP)),
        &mut NoTlb,
    )
    .unwrap();
    for i in 0..HEAP_PAGES {
        k.page_fault(
            z,
            VirtAddr::new(HEAP + i * PAGE_SIZE),
            AccessType::Write,
            &mut NoTlb,
        )
        .unwrap();
    }
    (k, z)
}

/// Applies the ops; returns the surviving pids (zygote first) and the
/// set of (proc index, heap page) writes that were performed.
fn run_ops(k: &mut Kernel, zygote: Pid, ops: &[Op]) -> Vec<Pid> {
    let mut live = vec![zygote];
    for op in ops {
        match *op {
            Op::Fork(p) => {
                if live.len() < MAX_PROCS {
                    let parent = live[p % live.len()];
                    let child = k.fork(parent).unwrap().child;
                    live.push(child);
                }
            }
            Op::WriteHeap(p, g) => {
                let pid = live[p % live.len()];
                let va = VirtAddr::new(HEAP + g * PAGE_SIZE);
                // May fail only if a ProtectFlip left it read-only —
                // we always flip back, so it must succeed.
                k.page_fault(pid, va, AccessType::Write, &mut NoTlb)
                    .unwrap();
            }
            Op::ReadHeap(p, g) => {
                let pid = live[p % live.len()];
                let va = VirtAddr::new(HEAP + g * PAGE_SIZE);
                k.page_fault(pid, va, AccessType::Read, &mut NoTlb).unwrap();
            }
            Op::ExecCode(p, g) => {
                let pid = live[p % live.len()];
                let va = VirtAddr::new(CODE + g * PAGE_SIZE);
                k.page_fault(pid, va, AccessType::Execute, &mut NoTlb)
                    .unwrap();
            }
            Op::Exit(p) => {
                if live.len() > 1 {
                    let idx = 1 + p % (live.len() - 1); // never the zygote
                    let pid = live.remove(idx);
                    k.exit(pid, &mut NoTlb).unwrap();
                }
            }
            Op::ProtectFlip(p) => {
                let pid = live[p % live.len()];
                let range = VaRange::from_len(VirtAddr::new(HEAP), HEAP_PAGES * PAGE_SIZE);
                k.mprotect(pid, range, Perms::R, &mut NoTlb).unwrap();
                k.mprotect(pid, range, Perms::RW, &mut NoTlb).unwrap();
            }
        }
    }
    live
}

/// The observable state: for every live process and page, which
/// *equivalence class* of frames it maps (classes are computed over
/// present PTEs; absent PTEs that would demand-fault to the page
/// cache resolve to the file page's identity).
fn observe(k: &mut Kernel, live: &[Pid]) -> Vec<Vec<usize>> {
    use std::collections::HashMap;
    let mut class: HashMap<u32, usize> = HashMap::new();
    let mut next = 0usize;
    let mut out = Vec::new();
    for &pid in live {
        let mut row = Vec::new();
        for page in 0..HEAP_PAGES {
            let va = VirtAddr::new(HEAP + page * PAGE_SIZE);
            // Force the page present (a read does not perturb COW
            // relations: it either populates from zero-fill... but for
            // comparability we only classify already-present PTEs).
            let frame = k.pte(pid, va).unwrap().map(|s| s.hw.pfn.raw());
            match frame {
                Some(f) => {
                    let id = *class.entry(f).or_insert_with(|| {
                        next += 1;
                        next
                    });
                    row.push(id);
                }
                None => row.push(0),
            }
        }
        out.push(row);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The paper's kernel is semantically transparent: any op sequence
    /// leaves the same observable frame-sharing classes as stock.
    #[test]
    fn shared_kernel_is_semantically_transparent(ops in prop::collection::vec(op_strategy(), 1..40)) {
        let (mut stock, z1) = boot(KernelConfig::stock());
        let live1 = run_ops(&mut stock, z1, &ops);
        let (mut shared, z2) = boot(KernelConfig::shared_ptp());
        let live2 = run_ops(&mut shared, z2, &ops);
        prop_assert_eq!(live1.len(), live2.len());

        // Compare only heap pages that were explicitly written or read
        // (present in both kernels); code inheritance differs by design.
        // Classify writes' visibility: same class <=> same frame.
        let obs1 = observe(&mut stock, &live1);
        let obs2 = observe(&mut shared, &live2);
        // Where both kernels have the PTE present, classes must agree
        // as a relation: obs1[i][g] == obs1[j][h] iff obs2[i][g] == obs2[j][h].
        let flat = |o: &Vec<Vec<usize>>| -> Vec<usize> { o.iter().flatten().copied().collect() };
        let f1 = flat(&obs1);
        let f2 = flat(&obs2);
        for i in 0..f1.len() {
            for j in (i + 1)..f1.len() {
                if f1[i] != 0 && f1[j] != 0 && f2[i] != 0 && f2[j] != 0 {
                    prop_assert_eq!(
                        f1[i] == f1[j],
                        f2[i] == f2[j],
                        "sharing relation diverged at ({}, {})", i, j
                    );
                }
            }
        }
    }

    /// COW/sharing invariants hold after any op sequence, and exiting
    /// everything releases all memory except the page cache.
    #[test]
    fn invariants_and_no_leaks(ops in prop::collection::vec(op_strategy(), 1..40)) {
        let (mut k, zygote) = boot(KernelConfig::shared_ptp());
        let live = run_ops(&mut k, zygote, &ops);
        k.audit().unwrap();
        for pid in live {
            k.exit(pid, &mut NoTlb).unwrap();
        }
        prop_assert_eq!(k.phys.frames_in_use(), k.phys.page_cache_len() as u64);
        prop_assert!(k.ptps.is_empty());
    }

    /// The ablation configurations preserve the same semantics.
    #[test]
    fn ablation_configs_are_transparent_too(ops in prop::collection::vec(op_strategy(), 1..24)) {
        let (mut stock, z1) = boot(KernelConfig::stock());
        let live1 = run_ops(&mut stock, z1, &ops);
        let obs1 = observe(&mut stock, &live1);
        for config in [
            KernelConfig { l1_write_protect: true, ..KernelConfig::shared_ptp() },
            KernelConfig { share_stack: true, ..KernelConfig::shared_ptp() },
            KernelConfig { copy_on_unshare: sat_core::CopyOnUnshare::ReferencedOnly, ..KernelConfig::shared_ptp() },
        ] {
            let (mut k, z2) = boot(config);
            let live2 = run_ops(&mut k, z2, &ops);
            k.audit().unwrap();
            let obs2 = observe(&mut k, &live2);
            let flat = |o: &Vec<Vec<usize>>| -> Vec<usize> { o.iter().flatten().copied().collect() };
            let f1 = flat(&obs1);
            let f2 = flat(&obs2);
            for i in 0..f1.len() {
                for j in (i + 1)..f1.len() {
                    if f1[i] != 0 && f1[j] != 0 && f2[i] != 0 && f2[j] != 0 {
                        prop_assert_eq!(f1[i] == f1[j], f2[i] == f2[j]);
                    }
                }
            }
        }
    }
}
