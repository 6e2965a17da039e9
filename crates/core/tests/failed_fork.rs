//! The failed-fork sweep and the failed-unshare rows: an operation
//! that runs out of frames must leave nothing behind.
//!
//! A fork takes four root frames and then one frame per page-table
//! page it allocates — twelve frames for the zygote below under the
//! stock kernel (eight private tables), five under `shared_ptp_tlb`
//! (only the stack's chunk is copied) — and any of those allocations
//! can be the one that fails, the later ones after earlier tables and
//! their PTEs (frame references, mapcounts, reverse-map entries,
//! registry attachments) are already in place. The sweep shrinks the
//! pool one frame at a time from "the fork just fits" to "the first
//! root frame fails" and requires every failing size to return
//! `OutOfMemory` with the machine exactly as it was, and a retry to
//! succeed once an exit has made room.
//!
//! An unshare takes one frame, for the private copy of the table. The
//! rows below fill the pool to the last frame and then drive each of
//! Section 3.1.2's triggers a child can pull — a write fault, an
//! `mmap`, a `munmap` and an `mprotect` into a shared chunk — on the
//! sharing kernel and its two unshare ablations, under the same
//! requirements.
//!
//! CI runs this file in the release profile too, where `debug_assert!`
//! is compiled out and integer overflow wraps.

use sat_core::{CopyOnUnshare, Kernel, KernelConfig, NoTlb, RegistryStats};
use sat_types::{
    AccessType, Perms, Pfn, Pid, RegionTag, SatError, SatResult, VaRange, VirtAddr, PAGE_SIZE,
};
use sat_vm::{MmCounters, MmapRequest};

/// Eight two-page anonymous regions, one per 2MB chunk.
const CHUNKS: u32 = 8;
const FIRST_CHUNK: u32 = 0x1000_0000;
/// Where the process that makes room keeps its pages.
const BALLAST_BASE: u32 = 0x3000_0000;

fn chunk_va(chunk: u32) -> VirtAddr {
    VirtAddr::new(FIRST_CHUNK + chunk * (2 << 20))
}

/// What a failed fork must leave exactly as it found it.
#[derive(Debug, PartialEq, Eq)]
struct Footprint {
    frames_in_use: u64,
    processes: usize,
    ptps: usize,
    rmap_total: usize,
    forks: u64,
    share_forks: u64,
}

fn footprint(k: &Kernel) -> Footprint {
    Footprint {
        frames_in_use: k.phys.frames_in_use(),
        processes: k.process_count(),
        ptps: k.ptps.len(),
        rmap_total: k.phys.rmap_total(),
        forks: k.stats.forks,
        share_forks: k.stats.share_forks,
    }
}

fn audit(k: &Kernel, what: &str) {
    k.phys
        .rmap_verify()
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    k.verify_share_accounting()
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    k.verify_rmap_ownership()
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    k.ptps.verify().unwrap_or_else(|e| panic!("{what}: {e}"));
    for (pid, mm) in k.processes() {
        mm.root
            .verify()
            .unwrap_or_else(|e| panic!("{what}: root of {pid}: {e}"));
    }
}

fn anon(pages: u32, tag: RegionTag, at: VirtAddr) -> MmapRequest {
    MmapRequest::anon(pages * PAGE_SIZE, Perms::RW, tag, "[anon]").at(at)
}

/// A zygote with one page written in each of its eight regions, the
/// one in `stack_chunk` tagged as the stack (never shared).
fn boot_zygote(config: KernelConfig, frames: u32, stack_chunk: u32) -> (Kernel, Pid) {
    let mut k = Kernel::new(config, frames);
    let zygote = k.create_process().unwrap();
    k.exec_zygote(zygote).unwrap();
    for chunk in 0..CHUNKS {
        let tag = if chunk == stack_chunk {
            RegionTag::Stack
        } else {
            RegionTag::Heap
        };
        k.mmap(zygote, &anon(2, tag, chunk_va(chunk)), &mut NoTlb)
            .unwrap();
        k.page_fault(zygote, chunk_va(chunk), AccessType::Write, &mut NoTlb)
            .unwrap();
    }
    (k, zygote)
}

/// That zygote and a second process holding `ballast` written pages
/// whose exit makes room. Returns `(kernel, zygote, ballast process)`.
fn boot(config: KernelConfig, frames: u32, stack_chunk: u32, ballast: u32) -> (Kernel, Pid, Pid) {
    let (mut k, zygote) = boot_zygote(config, frames, stack_chunk);
    let filler = k.create_process().unwrap();
    let base = VirtAddr::new(BALLAST_BASE);
    k.mmap(filler, &anon(ballast, RegionTag::Heap, base), &mut NoTlb)
        .unwrap();
    for page in 0..ballast {
        let va = VirtAddr::new(BALLAST_BASE + page * PAGE_SIZE);
        k.page_fault(filler, va, AccessType::Write, &mut NoTlb)
            .unwrap();
    }
    (k, zygote, filler)
}

/// Runs the sweep for one kernel and one position of the stack chunk;
/// `fork_frames` is what a fork of the zygote is expected to take.
fn sweep(config: KernelConfig, stack_chunk: u32, fork_frames: u64) {
    // The ballast process frees more than a fork needs: its root, its
    // one table and its pages.
    let ballast = fork_frames as u32;
    // Measure in a roomy pool: frames in use before the fork, and what
    // the fork takes.
    let (mut roomy, zygote, _) = boot(config, 1024, stack_chunk, ballast);
    let booted = roomy.phys.frames_in_use();
    roomy.fork(zygote).unwrap();
    assert_eq!(roomy.phys.frames_in_use() - booted, fork_frames);

    for short in 1..=fork_frames {
        let what = format!("stack in chunk {stack_chunk}, {short} frames short");
        let frames = (booted + fork_frames - short) as u32;
        let (mut k, zygote, filler) = boot(config, frames, stack_chunk, ballast);
        audit(&k, &what);
        let before = footprint(&k);
        assert_eq!(before.frames_in_use, booted, "{what}");

        assert_eq!(k.fork(zygote).err(), Some(SatError::OutOfMemory), "{what}");
        assert_eq!(footprint(&k), before, "{what}: after the failed fork");
        audit(&k, &what);
        // Failing again changes nothing either.
        assert_eq!(k.fork(zygote).err(), Some(SatError::OutOfMemory), "{what}");
        assert_eq!(
            footprint(&k),
            before,
            "{what}: after the second failed fork"
        );

        // One exit makes room and the retry goes through.
        k.exit(filler, &mut NoTlb).unwrap();
        let child = k.fork(zygote).expect(&what).child;
        audit(&k, &what);
        assert_eq!(k.process_count(), 2, "{what}");
        assert_eq!((k.stats.forks, k.stats.exits), (1, 1), "{what}");
        // Parent and child map the written pages copy-on-write: same
        // frame, no write permission on either side.
        for chunk in 0..CHUNKS {
            let va = chunk_va(chunk);
            let parent_pte = k.pte(zygote, va).unwrap().expect("parent PTE");
            let child_pte = k.pte(child, va).unwrap().expect("child PTE");
            assert_eq!(parent_pte.hw.pfn, child_pte.hw.pfn, "{what}: {va:?}");
            assert!(!parent_pte.hw.perms.write(), "{what}: {va:?}");
            assert!(!child_pte.hw.perms.write(), "{what}: {va:?}");
            assert_eq!(
                k.phys.mapcount(parent_pte.hw.pfn),
                2 - shared(config, chunk, stack_chunk)
            );
        }
        // A write in the child copies; the parent's page is untouched.
        k.page_fault(child, chunk_va(0), AccessType::Write, &mut NoTlb)
            .unwrap();
        let parent_pfn = k.pte(zygote, chunk_va(0)).unwrap().unwrap().hw.pfn;
        let child_pfn = k.pte(child, chunk_va(0)).unwrap().unwrap().hw.pfn;
        assert_ne!(parent_pfn, child_pfn, "{what}");
        audit(&k, &what);

        // And everything goes back: the child's exit returns the pool
        // to the zygote alone.
        k.exit(child, &mut NoTlb).unwrap();
        audit(&k, &what);
        let zygote_alone = 4 + u64::from(CHUNKS) * 2;
        assert_eq!(k.phys.frames_in_use(), zygote_alone, "{what}");
        assert_eq!(k.ptps.len(), CHUNKS as usize, "{what}");
    }
}

/// 1 when `chunk`'s table is shared between parent and child (one PTE
/// maps the page for both), 0 when each has its own.
fn shared(config: KernelConfig, chunk: u32, stack_chunk: u32) -> u32 {
    u32::from(config.share_ptp && chunk != stack_chunk)
}

#[test]
fn stock_fork_that_runs_out_of_frames_leaves_nothing_behind() {
    // Four root frames and a table for each of the eight chunks.
    sweep(KernelConfig::stock(), 0, 12);
    sweep(KernelConfig::stock(), CHUNKS - 1, 12);
}

#[test]
fn sharing_fork_that_runs_out_of_frames_leaves_nothing_behind() {
    // Four root frames and a table for the stack's chunk — allocated
    // before any chunk is shared, or after all seven are.
    sweep(KernelConfig::shared_ptp_tlb(), 0, 5);
    sweep(KernelConfig::shared_ptp_tlb(), CHUNKS - 1, 5);
}

/// The issue's reproducer: fork until the pool is empty. Every frame
/// is spoken for by a live process when the first fork fails, and the
/// failure takes none.
#[test]
fn forking_until_the_pool_is_empty_stops_at_a_clean_error() {
    for (config, forks_that_fit) in [
        (KernelConfig::stock(), 6),
        (KernelConfig::shared_ptp_tlb(), 15),
    ] {
        let (mut k, zygote) = boot_zygote(config, 96, CHUNKS - 1);
        for _ in 0..forks_that_fit {
            k.fork(zygote).unwrap();
        }
        let before = footprint(&k);
        assert_eq!(k.fork(zygote).err(), Some(SatError::OutOfMemory));
        assert_eq!(footprint(&k), before);
        assert_eq!(before.processes, forks_that_fit + 1);
        audit(&k, "pool of 96");
    }
}

/// What a failed unshare must leave as it found it, beyond the
/// [`Footprint`]: who shares which table, what the registry and every
/// process have counted, and every process's regions.
#[derive(Debug, PartialEq, Eq)]
struct ShareFootprint {
    footprint: Footprint,
    sharers: Vec<(Pfn, u32)>,
    registry: RegistryStats,
    processes: Vec<(Pid, MmCounters, usize)>,
}

fn share_footprint(k: &Kernel) -> ShareFootprint {
    ShareFootprint {
        footprint: footprint(k),
        sharers: k.registry.iter().map(|(f, e)| (f, e.sharers)).collect(),
        registry: k.registry.stats,
        processes: k
            .processes()
            .map(|(pid, mm)| (*pid, mm.counters, mm.vma_count()))
            .collect(),
    }
}

/// The operations of a child that unshare the table of chunk 0.
#[derive(Clone, Copy, Debug)]
enum Trigger {
    WriteFault,
    Mmap,
    Munmap,
    Mprotect,
}

fn pull(k: &mut Kernel, pid: Pid, trigger: Trigger) -> SatResult<()> {
    let page = VaRange::from_len(chunk_va(0), PAGE_SIZE);
    match trigger {
        Trigger::WriteFault => k
            .page_fault(pid, page.start, AccessType::Write, &mut NoTlb)
            .map(drop),
        Trigger::Mmap => {
            let at = VirtAddr::new(page.start.raw() + (1 << 20));
            k.mmap(pid, &anon(1, RegionTag::Heap, at), &mut NoTlb)
                .map(drop)
        }
        Trigger::Munmap => k.munmap(pid, page, &mut NoTlb).map(drop),
        Trigger::Mprotect => k.mprotect(pid, page, Perms::R, &mut NoTlb),
    }
}

#[test]
fn unshare_that_finds_no_frame_leaves_nothing_behind() {
    let shared = KernelConfig::shared_ptp_tlb();
    let configs = [
        ("shared_ptp_tlb", shared),
        (
            "ReferencedOnly",
            KernelConfig {
                copy_on_unshare: CopyOnUnshare::ReferencedOnly,
                ..shared
            },
        ),
        (
            "l1_write_protect",
            KernelConfig {
                l1_write_protect: true,
                ..shared
            },
        ),
    ];
    let triggers = [
        Trigger::WriteFault,
        Trigger::Mmap,
        Trigger::Munmap,
        Trigger::Mprotect,
    ];
    for (name, config) in configs {
        // The pool that the zygote, the ballast process and one child
        // fill to the last frame.
        let (mut roomy, zygote, _) = boot(config, 1024, CHUNKS - 1, 4);
        roomy.fork(zygote).unwrap();
        let frames = roomy.phys.frames_in_use() as u32;
        for trigger in triggers {
            let what = format!("{name}, {trigger:?}");
            let (mut k, zygote, filler) = boot(config, frames, CHUNKS - 1, 4);
            let child = k.fork(zygote).unwrap().child;
            assert_eq!(k.phys.frames_in_use(), u64::from(frames), "{what}");
            audit(&k, &what);
            let before = share_footprint(&k);

            for attempt in 1..=2 {
                assert_eq!(
                    pull(&mut k, child, trigger),
                    Err(SatError::OutOfMemory),
                    "{what}"
                );
                assert_eq!(share_footprint(&k), before, "{what}: attempt {attempt}");
                audit(&k, &what);
            }

            // One exit makes room and the retry goes through: the child
            // has its own table for the chunk, the zygote keeps the
            // shared one.
            k.exit(filler, &mut NoTlb).unwrap();
            pull(&mut k, child, trigger).expect(&what);
            audit(&k, &what);
            assert_eq!(k.stats.ptp_unshares, 1, "{what}");
            let table = |pid| k.mm(pid).unwrap().root.entry_for(chunk_va(0));
            assert!(!table(child).need_copy(), "{what}");
            assert!(table(zygote).need_copy(), "{what}");
            assert_ne!(table(child).ptp(), table(zygote).ptp(), "{what}");
        }
    }
}
