//! Differential property test for the one fork on the kernels with
//! nothing to share.
//!
//! `sat-vm` used to carry the stock fork as its own function,
//! `fork_mm`: Linux's `dup_mmap`, one `copy_page_range` per region the
//! policy copies, in address order. The kernel's fork now walks the
//! parent a 2MB chunk at a time and copies, clamped to the chunk, the
//! regions of every chunk it does not share — under `stock()` and
//! `copied_ptes()`, every chunk. This file keeps the per-region loop,
//! verbatim, as the specification ([`fork_mm`] below, built from
//! `sat-vm`'s public primitives), and holds the two together.
//!
//! Two kernels build the same random zygote image — anonymous,
//! private-writable-file and read-only-file regions, some spanning
//! several chunks and some sharing one, a stack, optionally a region
//! promoted to a 1MB section — and fork it, one through
//! [`Kernel::fork`], the other by the reference. They must agree on
//! everything a fork leaves behind: the child's tables PTE for PTE *and
//! frame for frame* (so the tables were allocated in the same order),
//! the parent's tables (so the same PTEs were write-protected), the
//! child's regions, flags and counters, the `ForkOutcome` counters, and
//! the footprint. Then the pool is shrunk so the fork runs out of
//! frames part-way: same error, and again the same parent tables and
//! footprint.
//!
//! CI runs this file in the release profile at 2,048 cases.

use proptest::prelude::*;
use sat_core::{Kernel, KernelConfig, NoTlb, PromotePolicy};
use sat_mmu::pte::PteSlot;
use sat_mmu::{Mapper, PtpStore, TableHalf};
use sat_phys::{FrameKind, PhysMem};
use sat_types::{
    AccessType, Asid, Domain, Perms, Pfn, Pid, RegionTag, SatError, SatResult, VirtAddr, PAGE_SIZE,
};
use sat_vm::{
    copies_ptes, copy_vma_ptes_in_range, exit_mmap, ForkPtePolicy, ForkReport, Mm, MmapRequest,
};

/// The per-region fork loop `sat-vm` carried as `fork_mm` until the
/// kernel's chunk loop replaced it (its `copy_vma_ptes(vma)` was
/// `copy_vma_ptes_in_range(vma, vma.range)`).
fn fork_mm(
    parent: &mut Mm,
    ptps: &mut PtpStore,
    phys: &mut PhysMem,
    child_pid: Pid,
    child_asid: Asid,
    policy: ForkPtePolicy,
    child_domain: Domain,
) -> SatResult<(Mm, ForkReport)> {
    let mut child = Mm::new(phys, child_pid, child_asid)?;
    child.dacr = parent.dacr;
    child.is_zygote_child = parent.is_zygote_like();
    // The child's list of the regions doubles as the list to walk —
    // the copy loop borrows the parent mutably — and is installed once
    // the loop is done with it.
    let vmas = parent.fork_regions();
    let mut report = ForkReport::default();

    for vma in vmas.iter() {
        if !copies_ptes(policy, vma) {
            continue;
        }
        if let Err(e) = copy_vma_ptes_in_range(
            parent,
            &mut child,
            ptps,
            phys,
            vma,
            vma.range,
            child_domain,
            &mut report,
        ) {
            exit_mmap(&mut child, ptps, phys);
            child.free_root(phys);
            return Err(e);
        }
    }
    child.adopt_regions(vmas);
    child.counters.ptes_copied_fork = report.ptes_copied;
    child.counters.ptps_allocated = report.ptps_allocated;
    Ok((child, report))
}

/// What the kernel did around `fork_mm`: the parent's sections split
/// back to PTEs first, then the copy. The parent is lifted out of the
/// kernel for the call (a stand-in from a pool of its own keeps its
/// slot) so the reference can borrow it beside the kernel's tables and
/// frames. Returns the fork's result and the sections split.
fn reference_fork(k: &mut Kernel, parent: Pid, child: Pid) -> (SatResult<(Mm, ForkReport)>, u64) {
    let policy = k.config.fork_policy;
    let mut elsewhere = PhysMem::new(8);
    let stand_in = Mm::new(&mut elsewhere, parent, Asid::new(0)).unwrap();
    let mut mm = std::mem::replace(k.mm_mut(parent).unwrap(), stand_in);
    let sections: Vec<usize> = mm.root.iter_sections().collect();
    let mut split = 0;
    let mut forked = Ok(());
    for idx in sections {
        let va = VirtAddr::new((idx as u32) << 20);
        forked = Mapper::new(&mut mm.root, &mut k.ptps, &mut k.phys, parent)
            .split_section(va)
            .map(drop);
        if forked.is_err() {
            break;
        }
        split += 1;
    }
    let asid = Asid::new(child.raw() as u8);
    let forked = forked.and_then(|()| {
        fork_mm(
            &mut mm,
            &mut k.ptps,
            &mut k.phys,
            child,
            asid,
            policy,
            Domain::USER,
        )
    });
    *k.mm_mut(parent).unwrap() = mm;
    (forked, split)
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    /// Anonymous, private, writable: copied by every policy.
    Anon,
    /// A private writable file mapping (a data segment): copied by
    /// every policy, its written pages COW-protected.
    FileData,
    /// Read-only file-backed code: copied by `CopyAll` only.
    FileCode,
    /// The stack (anonymous; never shared, always copied).
    Stack,
}

/// One region of the image: `gap` unmapped pages after the previous
/// region, then `pages` pages of which every `stride`-th from `first`
/// is touched, with a write where `write` allows.
#[derive(Clone, Debug)]
struct Region {
    kind: Kind,
    gap: u32,
    pages: u32,
    first: u32,
    stride: u32,
    write: bool,
}

fn region_strategy() -> impl Strategy<Value = Region> {
    let kind = prop_oneof![
        Just(Kind::Anon),
        Just(Kind::Anon),
        Just(Kind::FileData),
        Just(Kind::FileCode),
        Just(Kind::Stack),
    ];
    // 512 pages to a chunk: a gap under 700 pages puts neighbours in
    // one chunk or a few apart, a length up to 1,300 spans up to four.
    let pages = prop_oneof![1u32..24, 1u32..1300];
    (kind, 0u32..700, pages, 0u32..40, 1u32..90, any::<bool>()).prop_map(
        |(kind, gap, pages, first, stride, write)| Region {
            kind,
            gap,
            pages,
            first,
            stride,
            write,
        },
    )
}

const IMAGE_BASE: u32 = 0x1000_0000;
/// A fully written, 1MB-aligned region the promotion scanner turns into
/// a section (the fork must split it first).
const SECTION_BASE: u32 = 0x0800_0000;

/// Builds the image in a fresh kernel. Returns the kernel and the
/// zygote.
fn boot(config: KernelConfig, image: &[Region], section: bool) -> (Kernel, Pid) {
    let mut k = Kernel::new(config, 1 << 14);
    let zygote = k.create_process().unwrap();
    k.exec_zygote(zygote).unwrap();
    let touch = |k: &mut Kernel, va: u32, access| {
        k.page_fault(zygote, VirtAddr::new(va), access, &mut NoTlb)
            .unwrap();
    };
    if section {
        let req = MmapRequest::anon(256 * PAGE_SIZE, Perms::RW, RegionTag::Heap, "[huge]")
            .at(VirtAddr::new(SECTION_BASE));
        k.mmap(zygote, &req, &mut NoTlb).unwrap();
        for page in 0..256 {
            touch(&mut k, SECTION_BASE + page * PAGE_SIZE, AccessType::Write);
        }
        let scanned = k.promote_scan(zygote, &mut NoTlb).unwrap();
        assert_eq!(scanned.sections, 1);
    }
    let mut at = IMAGE_BASE;
    for (i, r) in image.iter().enumerate() {
        at += r.gap * PAGE_SIZE;
        let len = r.pages * PAGE_SIZE;
        let name = format!("region{i}");
        let (req, access) = match r.kind {
            Kind::Anon => (
                MmapRequest::anon(len, Perms::RW, RegionTag::Heap, &name),
                AccessType::Write,
            ),
            Kind::Stack => (
                MmapRequest::anon(len, Perms::RW, RegionTag::Stack, &name),
                AccessType::Write,
            ),
            Kind::FileData => {
                let file = k.files.register(name.clone(), len);
                let tag = RegionTag::ZygoteNativeData;
                (
                    MmapRequest::file(len, Perms::RW, file, 0, tag, &name),
                    AccessType::Write,
                )
            }
            Kind::FileCode => {
                let file = k.files.register(name.clone(), len);
                let tag = RegionTag::ZygoteNativeCode;
                (
                    MmapRequest::file(len, Perms::RX, file, 0, tag, &name),
                    AccessType::Execute,
                )
            }
        };
        k.mmap(zygote, &req.at(VirtAddr::new(at)), &mut NoTlb)
            .unwrap();
        for page in (r.first..r.pages).step_by(r.stride as usize) {
            let access = match access {
                AccessType::Write if !r.write => AccessType::Read,
                access => access,
            };
            touch(&mut k, at + page * PAGE_SIZE, access);
        }
        at += len;
    }
    (k, zygote)
}

/// Every table an address space references, by level-1 pair, with its
/// frame and every populated slot — and the sections beside them.
type Tables = (
    Vec<usize>,
    Vec<(usize, Pfn, Vec<(TableHalf, usize, PteSlot)>)>,
);

fn tables(mm: &Mm, ptps: &PtpStore) -> Tables {
    let tables = mm
        .root
        .iter_ptps()
        .map(|(idx, frame)| (idx, frame, ptps.get(frame).unwrap().iter().collect()))
        .collect();
    (mm.root.iter_sections().collect(), tables)
}

/// What the two kernels must agree on apart from the tables.
fn footprint(k: &Kernel) -> (u64, usize, usize) {
    k.phys.rmap_verify().unwrap();
    k.ptps.verify().unwrap();
    (k.phys.frames_in_use(), k.phys.rmap_total(), k.ptps.len())
}

fn promoting(config: KernelConfig) -> KernelConfig {
    config.with_promote(PromotePolicy {
        enabled: true,
        min_populated: 16,
        sections: true,
    })
}

/// Forks the image by the kernel and by the reference with `short`
/// frames fewer free than the fork takes (modulo that count: 0 fits),
/// and compares.
fn fork_both_ways(
    config: KernelConfig,
    image: &[Region],
    section: bool,
    short: u64,
) -> Result<(), TestCaseError> {
    // Measure what the fork takes.
    let (mut k, zygote) = boot(config, image, section);
    let booted = k.phys.frames_in_use();
    k.fork(zygote).unwrap();
    let fork_frames = k.phys.frames_in_use() - booted;
    let short = short % (fork_frames + 1);

    let (mut a, zygote) = boot(config, image, section);
    let (mut b, _) = boot(config, image, section);
    if short > 0 {
        // Take frames out of both pools until the fork is `short` short.
        for k in [&mut a, &mut b] {
            let free = k.phys.frame_count() as u64 - k.phys.frames_in_use();
            for _ in 0..free - (fork_frames - short) {
                k.phys.alloc(FrameKind::Anon).unwrap();
            }
        }
    }
    prop_assert_eq!(footprint(&a), footprint(&b));
    let before = footprint(&a);
    let child = Pid::new(zygote.raw() + 1);
    let by_kernel = a.fork(zygote);
    let (by_reference, sections_split) = reference_fork(&mut b, zygote, child);

    prop_assert_eq!(a.stats.demotions, sections_split);
    prop_assert_eq!(a.stats.split_ptes, sections_split * 256);
    prop_assert_eq!(footprint(&a), footprint(&b), "{} short", short);
    // The same parent PTEs were write-protected, failed or not.
    let parents = [&a, &b].map(|k| tables(k.mm(zygote).unwrap(), &k.ptps));
    prop_assert_eq!(&parents[0], &parents[1], "{} short", short);

    if short > 0 {
        prop_assert_eq!(by_kernel.err(), Some(SatError::OutOfMemory));
        prop_assert_eq!(by_reference.err(), Some(SatError::OutOfMemory));
        // A split section keeps the table it may have needed; nothing
        // else stays.
        let after = footprint(&a);
        prop_assert_eq!(after.0 - before.0, (after.2 - before.2) as u64);
        prop_assert!((after.2 - before.2) as u64 <= sections_split);
        prop_assert_eq!(a.process_count(), 1);
        return Ok(());
    }

    let outcome = by_kernel.unwrap();
    let (reference_child, report) = by_reference.unwrap();
    prop_assert_eq!(outcome.child, child);
    prop_assert_eq!(outcome.ptes_copied, report.ptes_copied);
    prop_assert_eq!(outcome.ptes_copied_file, report.ptes_copied_file);
    prop_assert_eq!(outcome.ptps_allocated, report.ptps_allocated);
    prop_assert_eq!(outcome.write_protect_ops, report.cow_protected);
    prop_assert_eq!(outcome.ptps_shared, 0);

    let kernel_child = a.mm(child).unwrap();
    prop_assert_eq!(
        tables(kernel_child, &a.ptps),
        tables(&reference_child, &b.ptps)
    );
    let regions = |mm: &Mm| -> Vec<_> { mm.vmas().map(|v| (v.range, v.perms, v.tag)).collect() };
    prop_assert_eq!(regions(kernel_child), regions(&reference_child));
    prop_assert_eq!(regions(kernel_child), regions(a.mm(zygote).unwrap()));
    prop_assert_eq!(kernel_child.counters, reference_child.counters);
    prop_assert_eq!(kernel_child.dacr, reference_child.dacr);
    prop_assert!(kernel_child.is_zygote_child && reference_child.is_zygote_child);
    a.verify_share_accounting().unwrap();
    prop_assert!(a.registry.is_empty());
    Ok(())
}

proptest! {
    #[test]
    fn chunk_loop_equals_the_per_region_loop(
        image in prop::collection::vec(region_strategy(), 0..6),
        copy_all in any::<bool>(),
        section in any::<bool>(),
        shorts in (any::<u64>(), any::<u64>()),
    ) {
        let config = if copy_all {
            KernelConfig::copied_ptes()
        } else {
            KernelConfig::stock()
        };
        let config = if section { promoting(config) } else { config };
        // A fork that fits, then two that run out at different points.
        fork_both_ways(config, &image, section, 0)?;
        fork_both_ways(config, &image, section, 1 + shorts.0 % 4)?;
        fork_both_ways(config, &image, section, 1 + shorts.1 % (1 << 20))?;
    }
}
