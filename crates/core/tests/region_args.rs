//! `munmap` / `mprotect` arguments that must be refused: an unaligned
//! start or end, an empty range, and (for `mprotect`) a range over a
//! hole. Each is a typed error — no panic, the same answer in both
//! profiles (CI runs this file in release too) — and the refusal comes
//! *before* the eager unshare: a forked child calling into a chunk it
//! shares with its parent unshares nothing, copies nothing and flushes
//! nothing.
//!
//! Two rows found bugs: an aligned start with an unaligned end *inside*
//! a region reached `Vma::split_at`'s alignment assertion — after the
//! chunk had been unshared and its large pages split — and every
//! refused call on the sharing kernel unshared the chunk first, because
//! the checks sat in `sat_vm::{munmap, mprotect}`, after the unshare.
//! Three more found that a range reaching into kernel space was
//! accepted — an `mprotect` from the top user region up, a `munmap` of
//! kernel space alone and one straddling its start — where `mmap` has
//! refused one since it checked its range.

use sat_core::{Kernel, KernelConfig, TlbMaintenance};
use sat_types::{
    AccessType, Asid, Perms, RegionTag, SatError, VaRange, VirtAddr, KERNEL_SPACE_START, PAGE_SIZE,
    PTP_SPAN,
};
use sat_vm::MmapRequest;

/// Two regions in one 2MB chunk with a hole between them:
/// `[HEAP, +8 pages)` and `[HEAP + 16 pages, +8 pages)`.
const HEAP: u32 = 0x0800_0000;
const HOLE: u32 = HEAP + 8 * PAGE_SIZE;
const SECOND: u32 = HEAP + 16 * PAGE_SIZE;
/// An unpopulated region ending where kernel space starts.
const TOP: u32 = KERNEL_SPACE_START - 4 * PAGE_SIZE;

/// Counts every maintenance operation asked of it.
#[derive(Default)]
struct CountingTlb(u32);

impl TlbMaintenance for CountingTlb {
    fn flush_asid(&mut self, _asid: Asid) {
        self.0 += 1;
    }
    fn flush_va_all_asids(&mut self, _va: VirtAddr) {
        self.0 += 1;
    }
    fn flush_all(&mut self) {
        self.0 += 1;
    }
}

#[derive(Clone, Copy, Debug)]
enum Call {
    Munmap,
    Mprotect,
}

fn range(start: u32, end: u32) -> VaRange {
    VaRange {
        start: VirtAddr::new(start),
        end: VirtAddr::new(end),
    }
}

#[test]
fn refused_region_calls_change_nothing() {
    use Call::{Mprotect, Munmap};
    let invalid = SatError::InvalidArgument;
    let refused: [(&str, Call, VaRange, SatError); 13] = [
        (
            "aligned start, unaligned end inside a region (panicked)",
            Munmap,
            range(HEAP, HEAP + PAGE_SIZE + 0x10),
            invalid,
        ),
        (
            "aligned start, unaligned end past the region (was accepted)",
            Munmap,
            range(HEAP, HOLE + 0x10),
            invalid,
        ),
        (
            "unaligned start",
            Munmap,
            range(HEAP + 0x10, HEAP + PAGE_SIZE),
            invalid,
        ),
        ("empty range", Munmap, range(HEAP, HEAP), invalid),
        (
            "inverted range",
            Munmap,
            range(HEAP + PAGE_SIZE, HEAP),
            invalid,
        ),
        (
            "unaligned start",
            Mprotect,
            range(HEAP + 0x10, HEAP + PAGE_SIZE),
            invalid,
        ),
        (
            "unaligned end inside a region",
            Mprotect,
            range(HEAP, HEAP + PAGE_SIZE + 0x10),
            invalid,
        ),
        ("empty range", Mprotect, range(HEAP, HEAP), invalid),
        (
            "a hole between two regions of the shared chunk",
            Mprotect,
            range(HOLE, HOLE + PAGE_SIZE),
            SatError::NotMapped(VirtAddr::new(HOLE)),
        ),
        (
            "a chunk nothing is mapped in",
            Mprotect,
            range(HEAP + PTP_SPAN, HEAP + PTP_SPAN + PAGE_SIZE),
            SatError::NotMapped(VirtAddr::new(HEAP + PTP_SPAN)),
        ),
        (
            "the top region and on into kernel space (was accepted)",
            Mprotect,
            range(TOP, KERNEL_SPACE_START + PTP_SPAN / 2),
            invalid,
        ),
        (
            "kernel space alone (was accepted)",
            Munmap,
            range(KERNEL_SPACE_START, KERNEL_SPACE_START + PTP_SPAN / 2),
            invalid,
        ),
        (
            "the top region and on into kernel space (was accepted)",
            Munmap,
            range(TOP, KERNEL_SPACE_START + PTP_SPAN / 2),
            invalid,
        ),
    ];
    for config in [KernelConfig::stock(), KernelConfig::shared_ptp_tlb()] {
        let mut tlb = CountingTlb::default();
        let mut k = Kernel::new(config, 4096);
        let parent = k.create_process().unwrap();
        for start in [HEAP, SECOND] {
            let heap = MmapRequest::anon(8 * PAGE_SIZE, Perms::RW, RegionTag::Heap, "[heap]")
                .at(VirtAddr::new(start));
            k.mmap(parent, &heap, &mut tlb).unwrap();
            k.page_fault(parent, VirtAddr::new(start), AccessType::Write, &mut tlb)
                .unwrap();
        }
        let top = MmapRequest::anon(4 * PAGE_SIZE, Perms::RW, RegionTag::Heap, "[top]")
            .at(VirtAddr::new(TOP));
        k.mmap(parent, &top, &mut tlb).unwrap();
        let child = k.fork_with_flush(parent, &mut tlb).unwrap().child;
        let shares = u64::from(config.share_ptp);
        assert_eq!(k.registry.len() as u64, shares);

        for (what, call, range, error) in &refused {
            let what = format!("{call:?}: {what}");
            let state = |k: &Kernel, tlb: &CountingTlb| {
                (
                    k.mm(child).unwrap().vma_count(),
                    k.phys.frames_in_use(),
                    k.ptps.len(),
                    k.phys.rmap_total(),
                    k.registry.len(),
                    k.stats.ptp_unshares,
                    k.stats.demotions,
                    tlb.0,
                )
            };
            let before = state(&k, &tlb);
            let got = match call {
                Munmap => k.munmap(child, *range, &mut tlb).map(drop),
                Mprotect => k.mprotect(child, *range, Perms::R, &mut tlb),
            };
            assert_eq!(got, Err(*error), "{what}");
            assert_eq!(state(&k, &tlb), before, "{what}");
            k.audit().expect(&what);
        }

        // The table ran inside a chunk that was shared all along: the
        // same calls with whole pages go through, and the first one
        // unshares it.
        let page = range(HEAP, HEAP + PAGE_SIZE);
        assert_eq!(k.mprotect(child, page, Perms::R, &mut tlb), Ok(()));
        assert_eq!(k.stats.ptp_unshares, shares);
        assert_eq!(k.munmap(child, page, &mut tlb), Ok(1));
        assert_eq!(k.mm(child).unwrap().vma_count(), 3);
        k.audit().unwrap();
    }
}
