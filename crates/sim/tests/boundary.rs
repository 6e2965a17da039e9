//! The boundary table: calls that must be refused, each with a typed
//! error — no panic, the same answer in both profiles (CI runs this file
//! in release too) — and nothing changed: no region, frame, PTP,
//! reverse-map entry, registry entry, counter or TLB flush, and the
//! machine passes its audit after. Every row runs on five kernels —
//! stock, sharing, promoting, and stock and sharing under a frame budget
//! renewed 8 frames under use before every row, with library pages in
//! the page cache for a reclaim pass to evict — in one world: the
//! harness's zygote and outsider, two written heap regions of the zygote
//! with a hole between them, a read-only region and the `TOP` region, a
//! child forked from it (sharing the heap chunk on a sharing kernel) and
//! a child that has exited.
//!
//! Three tables:
//! - `mmap`: a length that rounds past 2³² (it used to panic in debug
//!   and wrap in release), a fixed range that wraps the address space or
//!   reaches into kernel space, and an alignment that is not a power of
//!   two of at least a page (it used to reach `Mm::find_free`'s
//!   assertion). Under a budget every row used to run a reclaim pass
//!   before the request was checked. The last user page is mappable:
//!   the world maps `TOP`, which ends at kernel space.
//! - `munmap` / `mprotect` / write faults: an unaligned, empty or
//!   inverted range, a hole, and ranges reaching into kernel space
//!   (accepted once). An unaligned end inside a region reached
//!   `Vma::split_at`'s assertion after the chunk was unshared; every
//!   refusal on the sharing kernel unshared the chunk first, a write
//!   fault into a hole or a read-only region too, and that fault ran a
//!   reclaim pass under a spent budget.
//! - Dead pids: pid 0 (pids start at 1, and 0 files shared-table
//!   entries), the exited child and `u32::MAX`, on every call that names
//!   a process. `promote_scan` once answered only with promotion on;
//!   `page_fault` and `mmap` once reclaimed before the lookup.

mod common;

use common::{Footprint, Sim};
use sat_core::{KernelConfig, KernelStats, PromotePolicy};
use sat_types::{
    AccessType, Perms, Pid, RegionTag, SatError, SatResult, VaRange, VirtAddr, KERNEL_SPACE_START,
    PAGE_SIZE, PTP_SPAN,
};
use sat_vm::MmapRequest;

/// Two regions in one 2MB chunk with a hole between them:
/// `[HEAP, +8 pages)` and `[HEAP + 16 pages, +8 pages)`, and a read-only
/// one after them, `[HEAP + 32 pages, +4 pages)`.
const HEAP: u32 = 0x0800_0000;
const HOLE: u32 = HEAP + 8 * PAGE_SIZE;
const SECOND: u32 = HEAP + 16 * PAGE_SIZE;
const READ_ONLY: u32 = HEAP + 32 * PAGE_SIZE;
/// An unpopulated region ending where kernel space starts.
const TOP: u32 = KERNEL_SPACE_START - 4 * PAGE_SIZE;

/// What a refused call must leave as it was. `P` is `PhysMemStats`,
/// which this crate reaches through the kernel alone.
#[derive(Debug, PartialEq)]
struct State<P> {
    kernel: KernelStats,
    phys: P,
    footprint: Footprint,
    asid_generation: u64,
    /// The recorder's `tlb.*` counters: the machine reports every
    /// main-TLB flush, even an empty one, every shootdown and every
    /// batch.
    tlb: Vec<(String, u64)>,
}

struct World {
    s: Sim,
    child: Pid,
    exited: Pid,
    budgeted: bool,
}

impl World {
    /// Boots the world of `config`, a recorder installed.
    fn new(config: KernelConfig, budgeted: bool) -> World {
        sat_obs::install(1 << 12);
        let mut s = Sim::boot(config);
        let zygote = s.live[0];
        for (at, pages, perms) in [
            (HEAP, 8, Perms::RW),
            (SECOND, 8, Perms::RW),
            (READ_ONLY, 4, Perms::R),
            (TOP, 4, Perms::RW),
        ] {
            let req = MmapRequest::anon(pages * PAGE_SIZE, perms, RegionTag::Heap, "[heap]");
            s.m.mmap(0, zygote, &req.at(VirtAddr::new(at))).unwrap();
        }
        for at in [HEAP, SECOND] {
            s.fault(zygote, VirtAddr::new(at), AccessType::Write)
                .unwrap();
        }
        let child = s.fork(0, zygote).unwrap().child;
        let exited = s.fork(0, zygote).unwrap().child;
        s.exit(0, exited).unwrap();
        let root = &s.m.kernel.mm(child).unwrap().root;
        assert_eq!(
            root.entry_for(VirtAddr::new(HEAP)).need_copy(),
            config.share_ptp
        );
        s.m.audit().unwrap();
        World {
            s,
            child,
            exited,
            budgeted,
        }
    }

    fn state(&self) -> State<impl std::fmt::Debug + PartialEq> {
        let k = &self.s.m.kernel;
        let tlb = sat_obs::with_recorder(|r| {
            let counters = r.metrics().counters();
            let tlb = counters.filter(|(key, _)| key.starts_with("tlb."));
            tlb.map(|(key, n)| (key.to_string(), n)).collect()
        });
        State {
            kernel: k.stats,
            phys: k.phys.stats(),
            footprint: Footprint::of(k),
            asid_generation: k.asid_generation(),
            tlb: tlb.expect("recorder installed"),
        }
    }

    /// Runs one row: `call` fails with `error`, changes nothing, and
    /// leaves a machine that passes its audit.
    fn refuse(
        &mut self,
        what: &str,
        error: SatError,
        call: impl FnOnce(&mut World) -> SatResult<()>,
    ) {
        if self.budgeted {
            // A reclaim pass would run and evict.
            let k = &mut self.s.m.kernel;
            k.set_frame_budget(Some(k.phys.frames_in_use() - 8));
        }
        let before = self.state();
        assert_eq!(call(self), Err(error), "{what}");
        assert_eq!(self.state(), before, "{what}");
        self.s.m.audit().unwrap_or_else(|e| panic!("{what}: {e}"));
    }
}

/// Runs `table` in a fresh world of each kernel.
fn on_every_kernel(table: impl Fn(&str, &mut World)) {
    let promoting = KernelConfig::stock().with_promote(PromotePolicy {
        enabled: true,
        min_populated: 1,
        ..PromotePolicy::off()
    });
    let (stock, sharing) = (KernelConfig::stock(), KernelConfig::shared_ptp_tlb());
    for (kernel, config, budgeted) in [
        ("stock", stock, false),
        ("sharing", sharing, false),
        ("promoting", promoting, false),
        ("budgeted stock", stock, true),
        ("budgeted sharing", sharing, true),
    ] {
        table(kernel, &mut World::new(config, budgeted));
    }
}

fn anon(len: u32) -> MmapRequest {
    MmapRequest::anon(len, Perms::RW, RegionTag::Heap, "[heap]")
}

fn range(start: u32, end: u32) -> VaRange {
    VaRange {
        start: VirtAddr::new(start),
        end: VirtAddr::new(end),
    }
}

#[test]
fn boundary_arguments_are_refused_and_leave_nothing_behind() {
    let refused: [(&str, MmapRequest); 12] = [
        ("length rounds to 2^32", anon(0xFFFF_F001)),
        ("length rounds to 2^32", anon(u32::MAX)),
        (
            "fixed, length rounds to 2^32, in a shared chunk",
            anon(u32::MAX).at(VirtAddr::new(HEAP + PTP_SPAN / 2)),
        ),
        (
            "fixed range wraps 2^32",
            anon(0x2_0000).at(VirtAddr::new(0xFFFF_0000)),
        ),
        (
            "fixed range ends at 2^32",
            anon(0x1_0000).at(VirtAddr::new(0xFFFF_0000)),
        ),
        (
            "fixed address at the start of kernel space",
            anon(PAGE_SIZE).at(VirtAddr::new(KERNEL_SPACE_START)),
        ),
        (
            "fixed range crosses into kernel space",
            anon(2 * PAGE_SIZE).at(VirtAddr::new(KERNEL_SPACE_START - PAGE_SIZE)),
        ),
        (
            "no address, longer than user space",
            anon(KERNEL_SPACE_START + PAGE_SIZE),
        ),
        ("no address, aligned to 0", anon(PAGE_SIZE).aligned(0)),
        ("no address, aligned to 1024", anon(PAGE_SIZE).aligned(1024)),
        (
            "no address, aligned to 3 pages",
            anon(PAGE_SIZE).aligned(3 * PAGE_SIZE),
        ),
        (
            "fixed, aligned to 3 pages, in a shared chunk",
            (anon(PAGE_SIZE).aligned(3 * PAGE_SIZE)).at(VirtAddr::new(HEAP + PTP_SPAN / 2)),
        ),
    ];
    on_every_kernel(|kernel, w| {
        for (what, req) in &refused {
            let what = format!("{kernel}: mmap: {what}");
            w.refuse(&what, SatError::InvalidArgument, |w| {
                w.s.m.mmap(0, w.child, req).map(drop)
            });
        }
        // A valid request goes through, and under the budget it
        // reclaims first.
        let reclaims = w.s.m.kernel.stats.reclaims;
        let req = anon(PAGE_SIZE).at(VirtAddr::new(HEAP + PTP_SPAN / 2));
        assert!(w.s.m.mmap(0, w.child, &req).is_ok(), "{kernel}");
        let reclaimed = w.s.m.kernel.stats.reclaims > reclaims;
        assert_eq!(reclaimed, w.budgeted, "{kernel}");
        w.s.m.audit().unwrap();
    });
}

#[derive(Clone, Copy, Debug)]
enum Call {
    Munmap,
    Mprotect,
    /// A write fault at the range's start, beneath the machine.
    WriteFault,
}

#[test]
fn refused_region_calls_change_nothing() {
    use Call::{Mprotect, Munmap, WriteFault};
    let invalid = SatError::InvalidArgument;
    let refused: [(&str, Call, VaRange, SatError); 15] = [
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
        (
            "a hole between two regions of the shared chunk (unshared first)",
            WriteFault,
            range(HOLE, HOLE + PAGE_SIZE),
            SatError::NotMapped(VirtAddr::new(HOLE)),
        ),
        (
            "a read-only region of the shared chunk (unshared first)",
            WriteFault,
            range(READ_ONLY, READ_ONLY + PAGE_SIZE),
            SatError::PermissionDenied(VirtAddr::new(READ_ONLY)),
        ),
    ];
    on_every_kernel(|kernel, w| {
        for (what, call, range, error) in &refused {
            let what = format!("{kernel}: {call:?}: {what}");
            w.refuse(&what, *error, |w| match call {
                Munmap => w.s.m.munmap(0, w.child, *range).map(drop),
                Mprotect => w.s.m.mprotect(0, w.child, *range, Perms::R),
                WriteFault => w.s.fault(w.child, range.start, AccessType::Write),
            });
        }
        // The table ran inside a chunk that was shared all along: the
        // same calls with whole pages go through, and the first one
        // unshares it.
        let (m, child) = (&mut w.s.m, w.child);
        let (unshares, vmas) = (
            m.kernel.stats.ptp_unshares,
            m.kernel.mm(child).unwrap().vma_count(),
        );
        let page = range(HEAP, HEAP + PAGE_SIZE);
        assert_eq!(m.mprotect(0, child, page, Perms::R), Ok(()), "{kernel}");
        let shares = u64::from(m.kernel.config.share_ptp);
        assert_eq!(m.kernel.stats.ptp_unshares, unshares + shares, "{kernel}");
        assert_eq!(m.munmap(0, child, page), Ok(1), "{kernel}");
        assert_eq!(m.kernel.mm(child).unwrap().vma_count(), vmas, "{kernel}");
        m.audit().unwrap();
    });
}

/// Every call that names a process, by name: the machine's typed calls,
/// a fault beneath it, and the kernel-only calls.
type PidCall = (&'static str, fn(&mut Sim, Pid) -> SatResult<()>);

const CALLS: [PidCall; 13] = [
    ("promote_scan", |s, pid| s.m.promote_scan(0, pid).map(drop)),
    ("fork", |s, pid| s.m.fork(0, pid).map(drop)),
    ("exit", |s, pid| s.m.exit(0, pid)),
    ("context_switch", |s, pid| s.m.context_switch(0, pid)),
    ("page_fault", |s, pid| {
        s.fault(pid, VirtAddr::new(HEAP), AccessType::Write)
    }),
    ("mmap", |s, pid| {
        let req = anon(16 * PAGE_SIZE).at(VirtAddr::new(HEAP + 64 * PAGE_SIZE));
        s.m.mmap(0, pid, &req).map(drop)
    }),
    ("munmap", |s, pid| s.m.munmap(0, pid, page()).map(drop)),
    ("mprotect", |s, pid| s.m.mprotect(0, pid, page(), Perms::R)),
    ("populate", |s, pid| {
        s.m.kernel.populate(pid, page()).map(drop)
    }),
    ("pte", |s, pid| {
        s.m.kernel.pte(pid, VirtAddr::new(HEAP)).map(drop)
    }),
    ("exec_zygote", |s, pid| s.m.kernel.exec_zygote(pid)),
    ("ptp_share_snapshot", |s, pid| {
        s.m.kernel.ptp_share_snapshot(pid).map(drop)
    }),
    ("ensure_current_asid", |s, pid| {
        s.m.syscall(|k, tlb| k.ensure_current_asid(pid, tlb).map(drop))
    }),
];

fn page() -> VaRange {
    VaRange::from_len(VirtAddr::new(HEAP), PAGE_SIZE)
}

#[test]
fn calls_on_a_pid_that_is_not_live_change_nothing() {
    on_every_kernel(|kernel, w| {
        for pid in [Pid::new(0), w.exited, Pid::new(u32::MAX)] {
            for (call, f) in CALLS {
                let what = format!("{kernel}: {call}({pid:?})");
                w.refuse(&what, SatError::NoSuchProcess, |w| f(&mut w.s, pid));
            }
        }
    });
}
