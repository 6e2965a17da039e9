//! The kernel property tests' one harness: one op grammar ([`Op`],
//! [`op_strategy`]), one zygote ([`Sim::boot`]), one apply
//! ([`Sim::apply`], which checks the kernel after every op) and one
//! [`Sim::teardown`] closing every run. The properties decide only
//! which kernels run side by side and what they compare:
//! `integration_properties.rs` stock against sharing,
//! `proptests.rs` one budgeted kernel, `promote_differential.rs`
//! promoted pages against 4KB ones.

// Each target uses a different part of the harness.
#![allow(dead_code)]

use proptest::prelude::*;
use sat_core::{Kernel, KernelConfig, NoTlb};
use sat_types::{
    AccessType, Perms, Pid, RegionTag, SatError, SatResult, VaRange, VirtAddr, PAGE_SIZE,
};
use sat_vm::MmapRequest;

/// The zygote's library: 8 pre-faulted RX pages, the shared image.
const CODE: u32 = 0x4000_0000;
const CODE_PAGES: u32 = 8;
/// The zygote's heap, 64KB-aligned: two whole large-page groups and a
/// spare page, so the promotion scanner has groups to collapse.
const HEAP: u32 = 0x0900_0000;
const HEAP_PAGES: u32 = 33;
/// Heap pages the zygote writes at boot.
const HEAP_WRITTEN: u32 = 4;
/// `Op::Mmap` maps fresh pages from here up, in the upper half of the
/// library's chunk, so under sharing each lands in a shared PTP
/// (Figure 6 case 3). Slots advance per run: two never collide.
const MMAP_BASE: u32 = 0x4010_0000;

/// One step of a random workload. Processes are picked `n % live`,
/// tracked pages `p % tracked` ([`Sim::page`]).
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// Fork the `n`-th live process (the zygote is the 0th).
    Fork(usize),
    /// Fault tracked page `p` of the `n`-th live process.
    Fault(usize, u8, AccessType),
    /// Map a fresh private page into the `n`-th live process and write
    /// it.
    Mmap(usize),
    /// Unmap tracked page `p` of the `n`-th live process.
    Munmap(usize, u8),
    /// `mprotect` `1 + l % 33` heap pages from heap page `p` of the
    /// `n`-th live process (clipped at the heap's end) to R (`rw`
    /// false) or RW.
    Mprotect(usize, u8, u8, bool),
    /// Exit the `n`-th live child (the zygote outlives the ops).
    Exit(usize),
    /// Force a reclaim pass evicting up to `1 + k % 4` file pages.
    Reclaim(u8),
    /// Run the promotion scanner on the `n`-th live process (a no-op
    /// with promotion off).
    Scan(usize),
}

pub fn op_strategy() -> impl Strategy<Value = Op> {
    const ACCESS: [AccessType; 3] = [AccessType::Read, AccessType::Write, AccessType::Execute];
    let fault =
        || (0usize..64, any::<u8>(), 0usize..3).prop_map(|(n, p, a)| Op::Fault(n, p, ACCESS[a]));
    // The vendored proptest picks arms uniformly: faults are listed
    // three times to bias runs toward populating what the rest act on.
    prop_oneof![
        (0usize..64).prop_map(Op::Fork),
        fault(),
        fault(),
        fault(),
        (0usize..64).prop_map(Op::Mmap),
        (0usize..64, any::<u8>()).prop_map(|(n, p)| Op::Munmap(n, p)),
        (0usize..64, any::<u8>(), any::<u8>(), any::<bool>())
            .prop_map(|(n, p, l, rw)| Op::Mprotect(n, p, l, rw)),
        (0usize..64).prop_map(Op::Exit),
        any::<u8>().prop_map(Op::Reclaim),
        (0usize..64).prop_map(Op::Scan),
    ]
}

/// One kernel under test, with the processes and pages the ops reach.
pub struct Sim {
    pub k: Kernel,
    /// Live processes, the zygote first.
    pub live: Vec<Pid>,
    /// `Op::Mmap` slots handed out so far.
    slots: u32,
    /// What a teardown must come back to: the library's page-cache
    /// residency at boot (the cache keeps file pages past the last
    /// unmap, as Linux does).
    floor: u64,
}

impl Sim {
    /// Boots the zygote: the library mapped at `CODE` and pre-faulted,
    /// the heap mapped at `HEAP` with its first pages written.
    pub fn boot(config: KernelConfig) -> Sim {
        let mut k = Kernel::new(config, 4096);
        let lib = k.files.register("libtest.so", CODE_PAGES * PAGE_SIZE);
        let zygote = k.create_process().unwrap();
        k.exec_zygote(zygote).unwrap();
        let (code, heap) = (VirtAddr::new(CODE), VirtAddr::new(HEAP));
        let (size, tag) = (CODE_PAGES * PAGE_SIZE, RegionTag::ZygoteNativeCode);
        let req = MmapRequest::file(size, Perms::RX, lib, 0, tag, "libtest.so");
        k.mmap(zygote, &req.at(code), &mut NoTlb).unwrap();
        k.populate(zygote, VaRange::from_len(code, size)).unwrap();
        let req = MmapRequest::anon(HEAP_PAGES * PAGE_SIZE, Perms::RW, RegionTag::Heap, "[heap]");
        k.mmap(zygote, &req.at(heap), &mut NoTlb).unwrap();
        for va in VaRange::from_len(heap, HEAP_WRITTEN * PAGE_SIZE).pages() {
            k.page_fault(zygote, va, AccessType::Write, &mut NoTlb)
                .unwrap();
        }
        let floor = k.phys.page_cache_len() as u64;
        Sim {
            k,
            live: vec![zygote],
            slots: 0,
            floor,
        }
    }

    /// Tracked page `p`: the library's pages, then the heap's, then the
    /// `Op::Mmap` slots handed out so far, wrapping.
    pub fn page(&self, p: u32) -> VirtAddr {
        let p = p % (CODE_PAGES + HEAP_PAGES + self.slots);
        VirtAddr::new(match p.checked_sub(CODE_PAGES) {
            None => CODE + p * PAGE_SIZE,
            Some(h) if h < HEAP_PAGES => HEAP + h * PAGE_SIZE,
            Some(h) => MMAP_BASE + (h - HEAP_PAGES) * PAGE_SIZE,
        })
    }

    /// Every tracked page, in [`Sim::page`] order.
    pub fn pages(&self) -> Vec<VirtAddr> {
        (0..CODE_PAGES + HEAP_PAGES + self.slots)
            .map(|p| self.page(p))
            .collect()
    }

    fn pid(&self, n: usize) -> Pid {
        self.live[n % self.live.len()]
    }

    /// Runs `op` and returns its outcome, after checking the kernel it
    /// left (panicking with the op on a violation). The grammar reaches
    /// only live processes and never runs the kernel out of frames, so
    /// the one legal refusal is a fault or range on a page that is not
    /// mapped or does not allow the access.
    pub fn apply(&mut self, op: &Op) -> SatResult<()> {
        let outcome = self.run(op);
        check(&self.k).unwrap_or_else(|e| panic!("after {op:?}: {e}"));
        if let Err(e) = &outcome {
            let refusal = matches!(e, SatError::NotMapped(_) | SatError::PermissionDenied(_));
            assert!(refusal, "{op:?} failed with {e:?}");
        }
        outcome
    }

    fn run(&mut self, op: &Op) -> SatResult<()> {
        match *op {
            Op::Fork(n) => {
                let child = self.k.fork(self.pid(n))?.child;
                self.live.push(child);
            }
            Op::Fault(n, p, access) => {
                let (pid, va) = (self.pid(n), self.page(p.into()));
                self.k.page_fault(pid, va, access, &mut NoTlb)?;
            }
            Op::Mmap(n) => {
                let pid = self.pid(n);
                let va = VirtAddr::new(MMAP_BASE + self.slots * PAGE_SIZE);
                self.slots += 1;
                let req = MmapRequest::anon(PAGE_SIZE, Perms::RW, RegionTag::Unknown, "[anon]");
                self.k.mmap(pid, &req.at(va), &mut NoTlb)?;
                self.k.page_fault(pid, va, AccessType::Write, &mut NoTlb)?;
            }
            Op::Munmap(n, p) => {
                let range = VaRange::from_len(self.page(p.into()), PAGE_SIZE);
                self.k.munmap(self.pid(n), range, &mut NoTlb)?;
            }
            Op::Mprotect(n, p, l, rw) => {
                let start = u32::from(p) % HEAP_PAGES;
                let len = (1 + u32::from(l) % HEAP_PAGES).min(HEAP_PAGES - start);
                let range =
                    VaRange::from_len(VirtAddr::new(HEAP + start * PAGE_SIZE), len * PAGE_SIZE);
                let perms = if rw { Perms::RW } else { Perms::R };
                self.k.mprotect(self.pid(n), range, perms, &mut NoTlb)?;
            }
            Op::Exit(n) => {
                if self.live.len() > 1 {
                    let pid = self.live.remove(1 + n % (self.live.len() - 1));
                    self.k.exit(pid, &mut NoTlb)?;
                }
            }
            Op::Reclaim(p) => {
                self.k.reclaim(1 + u64::from(p) % 4, &mut NoTlb);
            }
            Op::Scan(n) => {
                self.k.promote_scan(self.pid(n), &mut NoTlb)?;
            }
        }
        Ok(())
    }

    /// Exits every process, the zygote last, checking the kernel after
    /// each exit. Then nothing may be left: no registry entry, PTP or
    /// rmap entry; no frame outside the page cache; the boot floor made
    /// up exactly by the frames still held and the pages still evicted;
    /// as many slab frees as allocations (a double free or a leak
    /// shows here).
    pub fn teardown(mut self) {
        while let Some(pid) = self.live.pop() {
            self.k.exit(pid, &mut NoTlb).unwrap();
            check(&self.k).unwrap_or_else(|e| panic!("after the exit of {pid:?}: {e}"));
        }
        let (k, frames) = (&self.k, self.k.phys.frames_in_use());
        assert!(k.registry.is_empty(), "registry entries leaked");
        assert!(k.ptps.is_empty(), "PTPs leaked");
        assert!(k.phys.rmap_is_empty(), "rmap entries leaked");
        assert_eq!(
            frames,
            k.phys.page_cache_len() as u64,
            "non-cache frames leaked"
        );
        let evicted = k.phys.still_evicted() as u64;
        assert_eq!(frames + evicted, self.floor, "frames leaked");
        let slab = k.ptps.slab_stats();
        assert_eq!(slab.allocs, slab.frees, "slab allocs and frees diverge");
    }
}

/// Runs `op` on two kernels that must agree on it: the same outcome,
/// and the same live processes after.
pub fn lockstep(a: &mut Sim, b: &mut Sim, op: &Op) {
    let (x, y) = (a.k.config, b.k.config);
    assert_eq!(a.apply(op), b.apply(op), "{op:?} on {x:?} and {y:?}");
    assert_eq!(a.live, b.live, "live pids after {op:?} on {x:?} and {y:?}");
}

/// What every kernel passes after every op: [`Kernel::audit`], the
/// Figure-6 unshare count equal in both stats shapes, and the eviction
/// ledger conserving (`evictions == refaults + still_evicted`).
fn check(k: &Kernel) -> Result<(), String> {
    k.audit()?;
    let (stats, registry) = (k.stats.ptp_unshares, k.registry.stats.ptp_unshares);
    if stats != registry {
        return Err(format!(
            "KernelStats counts {stats} unshares, the registry {registry}"
        ));
    }
    let s = k.phys.stats();
    let still = k.phys.still_evicted() as u64;
    if s.evictions != s.refaults + still {
        let (e, r) = (s.evictions, s.refaults);
        return Err(format!(
            "{e} evictions but {r} refaults and {still} still evicted"
        ));
    }
    Ok(())
}
