//! `Machine::audit` after every step of a random two-core workload.
//!
//! The ops reach the kernel through the machine — so its flushes go
//! through the shootdown view, the initiating core invalidating locally —
//! and run processes on both cores: forks, faults, maps, unmaps,
//! protection changes and exits, accesses that walk, fill and take
//! page and domain faults, and context switches. After each one the
//! kernel passes its own audit and every core's TLBs agree with the
//! tables of the process it runs (`Machine::audit`'s TLB clauses).
//!
//! Two rows pin the fault repair's reach on every kernel configuration:
//! a copy-on-write break or a write-enable on one core leaves no stale
//! entry of the page on the core the process ran on before.

use proptest::prelude::*;
use sat_core::{Kernel, KernelConfig, NoTlb};
use sat_sim::Machine;
use sat_types::VirtAddr;
use sat_types::{AccessType, Asid, Perms, Pfn, Pid, RegionTag, SatError, SatResult, VaRange};
use sat_types::{KERNEL_SPACE_START, PAGE_SIZE};
use sat_vm::MmapRequest;

/// The zygote's library: pre-faulted RX pages, the shared image. The
/// outsider maps a library of its own over the first `CODE_PAGES / 2`.
const CODE: u32 = 0x4000_0000;
const CODE_PAGES: u32 = 8;
/// The zygote's heap, its first `HEAP_WRITTEN` pages written at boot.
const HEAP: u32 = 0x0900_0000;
const HEAP_PAGES: u32 = 16;
const HEAP_WRITTEN: u32 = 4;
/// `Op::Mmap` maps fresh pages from here up, one slot per op.
const MMAP_BASE: u32 = 0x4010_0000;
const CORES: usize = 2;

/// One step. Processes are picked `n % live`, tracked pages `p %
/// tracked`, cores `c % CORES`.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Fork the `n`-th live process on core `c`.
    Fork(u8, usize),
    /// Fault tracked page `p` of the `n`-th live process, beneath the
    /// machine: no core takes the fault.
    Fault(usize, u8, AccessType),
    /// Map a fresh private page into the `n`-th live process and write
    /// it.
    Mmap(u8, usize),
    /// Unmap tracked page `p` of the `n`-th live process.
    Munmap(u8, usize, u8),
    /// `mprotect` `1 + l % HEAP_PAGES` heap pages from heap page `p`
    /// (clipped at the heap's end) to R or RW.
    Mprotect(u8, usize, u8, u8, bool),
    /// Exit the `n`-th live child on core `c`, running or not.
    Exit(u8, usize),
    /// Run the `n`-th live process on core `c` (unless the other core
    /// runs it) and access tracked page `p`, or a kernel address.
    Access(u8, usize, u8, AccessType),
    /// Switch core `c` to the `n`-th live process (unless the other
    /// core runs it).
    ContextSwitch(u8, usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    const ACCESS: [AccessType; 3] = [AccessType::Read, AccessType::Write, AccessType::Execute];
    let access = || {
        (any::<u8>(), 0usize..64, any::<u8>(), 0usize..3)
            .prop_map(|(c, n, p, a)| Op::Access(c, n, p, ACCESS[a]))
    };
    // The vendored proptest picks arms uniformly: accesses are listed
    // four times, so processes run and fill TLBs between the ops that
    // invalidate.
    prop_oneof![
        (any::<u8>(), 0usize..64).prop_map(|(c, n)| Op::Fork(c, n)),
        (0usize..64, any::<u8>(), 0usize..3).prop_map(|(n, p, a)| Op::Fault(n, p, ACCESS[a])),
        (any::<u8>(), 0usize..64).prop_map(|(c, n)| Op::Mmap(c, n)),
        (any::<u8>(), 0usize..64, any::<u8>()).prop_map(|(c, n, p)| Op::Munmap(c, n, p)),
        (
            any::<u8>(),
            0usize..64,
            any::<u8>(),
            any::<u8>(),
            any::<bool>()
        )
            .prop_map(|(c, n, p, l, rw)| Op::Mprotect(c, n, p, l, rw)),
        (any::<u8>(), 0usize..64).prop_map(|(c, n)| Op::Exit(c, n)),
        access(),
        access(),
        access(),
        access(),
        (any::<u8>(), 0usize..64).prop_map(|(c, n)| Op::ContextSwitch(c, n)),
    ]
}

/// The kernels run: stock, both sharing presets, sharing with the
/// level-1 write-protect assist, and stock without ASIDs.
fn config(n: u8) -> KernelConfig {
    match n % 5 {
        0 => KernelConfig::stock(),
        1 => KernelConfig::shared_ptp(),
        2 => KernelConfig::shared_ptp_tlb(),
        3 => KernelConfig {
            l1_write_protect: true,
            ..KernelConfig::shared_ptp_tlb()
        },
        _ => KernelConfig::stock().without_asid(),
    }
}

/// A two-core machine and the processes and pages the ops reach.
struct World {
    m: Machine,
    /// Live processes: the zygote, the outsider, then forked children.
    live: Vec<Pid>,
    /// `Op::Mmap` slots handed out so far.
    slots: u32,
}

impl World {
    /// Boots the zygote (library pre-faulted, heap partly written) and
    /// an outsider — no zygote child — with its own library over the
    /// zygote's, then puts the zygote on core 0 and the outsider on
    /// core 1.
    fn boot(config: KernelConfig) -> World {
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
        let outsider = k.create_process().unwrap();
        let other = k.files.register("other.so", CODE_PAGES / 2 * PAGE_SIZE);
        let size = CODE_PAGES / 2 * PAGE_SIZE;
        let req = MmapRequest::file(
            size,
            Perms::RX,
            other,
            0,
            RegionTag::OtherLibCode,
            "other.so",
        );
        k.mmap(outsider, &req.at(code), &mut NoTlb).unwrap();
        let mut m = Machine::new(k, CORES);
        m.context_switch(0, zygote).unwrap();
        m.context_switch(1, outsider).unwrap();
        World {
            m,
            live: vec![zygote, outsider],
            slots: 0,
        }
    }

    /// Tracked page `p`: the library's pages, the heap's, then the
    /// `Op::Mmap` slots handed out so far, wrapping.
    fn page(&self, p: u8) -> VirtAddr {
        let p = u32::from(p) % (CODE_PAGES + HEAP_PAGES + self.slots);
        VirtAddr::new(match p.checked_sub(CODE_PAGES) {
            None => CODE + p * PAGE_SIZE,
            Some(h) if h < HEAP_PAGES => HEAP + h * PAGE_SIZE,
            Some(h) => MMAP_BASE + (h - HEAP_PAGES) * PAGE_SIZE,
        })
    }

    fn pid(&self, n: usize) -> Pid {
        self.live[n % self.live.len()]
    }

    /// Whether a core other than `core` runs `pid`.
    fn runs_elsewhere(&self, core: usize, pid: Pid) -> bool {
        let mut others = self.m.cores.iter().enumerate().filter(|&(i, _)| i != core);
        others.any(|(_, c)| c.current == Some(pid))
    }

    /// Runs `op`, then audits the machine (panicking with the op on a
    /// violation). The one legal refusal is a fault or range on a page
    /// that is not mapped or does not allow the access.
    fn apply(&mut self, op: &Op) {
        let outcome = self.run(op);
        self.m
            .audit()
            .unwrap_or_else(|e| panic!("after {op:?} on {:?}: {e}", self.m.kernel.config));
        if let Err(e) = outcome {
            let refusal = matches!(e, SatError::NotMapped(_) | SatError::PermissionDenied(_));
            assert!(refusal, "{op:?} failed with {e:?}");
        }
    }

    fn run(&mut self, op: &Op) -> SatResult<()> {
        let core = |c: u8| usize::from(c) % CORES;
        match *op {
            Op::Fork(c, n) => {
                let child = self.m.fork(core(c), self.pid(n))?.0.child;
                self.live.push(child);
            }
            Op::Fault(n, p, access) => {
                let (pid, va) = (self.pid(n), self.page(p));
                self.m
                    .syscall(|k, tlb| k.page_fault(pid, va, access, tlb))?;
            }
            Op::Mmap(c, n) => {
                let pid = self.pid(n);
                let va = VirtAddr::new(MMAP_BASE + self.slots * PAGE_SIZE);
                self.slots += 1;
                let req = MmapRequest::anon(PAGE_SIZE, Perms::RW, RegionTag::Unknown, "[anon]");
                self.m.mmap(core(c), pid, &req.at(va))?;
                self.m
                    .syscall(|k, tlb| k.page_fault(pid, va, AccessType::Write, tlb))?;
            }
            Op::Munmap(c, n, p) => {
                let (pid, range) = (self.pid(n), VaRange::from_len(self.page(p), PAGE_SIZE));
                self.m.munmap(core(c), pid, range)?;
            }
            Op::Mprotect(c, n, p, l, rw) => {
                let pid = self.pid(n);
                let start = u32::from(p) % HEAP_PAGES;
                let len = (1 + u32::from(l) % HEAP_PAGES).min(HEAP_PAGES - start);
                let range =
                    VaRange::from_len(VirtAddr::new(HEAP + start * PAGE_SIZE), len * PAGE_SIZE);
                let perms = if rw { Perms::RW } else { Perms::R };
                self.m.mprotect(core(c), pid, range, perms)?;
            }
            Op::Exit(c, n) => {
                if self.live.len() > 2 {
                    let pid = self.live.remove(2 + n % (self.live.len() - 2));
                    self.m.exit(core(c), pid)?;
                }
            }
            Op::Access(c, n, p, access) => {
                let (core, pid) = (core(c), self.pid(n));
                if self.runs_elsewhere(core, pid) {
                    return Ok(());
                }
                self.m.context_switch(core, pid)?;
                // One page in eight is a kernel address: the section
                // entries enter through the user path's walk too.
                let va = if p % 8 == 7 {
                    VirtAddr::new(KERNEL_SPACE_START + u32::from(p) * 0x1_0000)
                } else {
                    self.page(p)
                };
                self.m
                    .access(core, VirtAddr::new(va.raw() + u32::from(p) * 4), access)?;
            }
            Op::ContextSwitch(c, n) => {
                let (core, pid) = (core(c), self.pid(n));
                if !self.runs_elsewhere(core, pid) {
                    self.m.context_switch(core, pid)?;
                }
            }
        }
        Ok(())
    }
}

proptest! {
    /// Every clause of `Machine::audit` holds after every op, on every
    /// kernel configuration.
    #[test]
    fn tlbs_agree_with_the_tables_after_every_op(
        preset in any::<u8>(),
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        let mut world = World::boot(config(preset));
        world.m.audit().unwrap();
        for op in &ops {
            world.apply(op);
        }
    }
}

/// The frames `core`'s main TLB holds for `asid` at `va`.
fn frames_at(m: &Machine, core: usize, asid: Asid, va: VirtAddr) -> Vec<Pfn> {
    let entries = m.cores[core].main_tlb.entries();
    entries
        .filter(|e| e.asid == Some(asid) && e.covers(va))
        .map(|e| e.pfn)
        .collect()
}

/// Runs a write of `va` on `core` and returns the page faults it took.
fn write_faults(m: &mut Machine, core: usize, va: VirtAddr) -> u64 {
    let before = m.cores[core].stats.page_faults;
    m.access(core, va, AccessType::Write).unwrap();
    m.cores[core].stats.page_faults - before
}

/// A zygote child reads a written heap page on core 0, then writes it
/// on core 1. The copy-on-write break gives the child a new frame, and
/// core 0 — where the child read the old one — must not keep it. The
/// repair reaches core 1 too: the write takes one fault, not a second,
/// spurious one on its own stale entry (whose repair would mask a
/// missing one).
#[test]
fn cow_break_on_one_core_leaves_no_stale_entry_on_another() {
    let heap = VirtAddr::new(HEAP);
    for preset in 0..5 {
        let mut w = World::boot(config(preset));
        let [zygote, outsider] = [w.live[0], w.live[1]];
        let m = &mut w.m;
        let child = m.fork(0, zygote).unwrap().0.child;
        let asid = m.kernel.mm(child).unwrap().asid;
        m.context_switch(0, child).unwrap();
        m.access(0, heap, AccessType::Read).unwrap();
        m.context_switch(0, zygote).unwrap();
        m.context_switch(1, child).unwrap();
        assert_eq!(write_faults(m, 1, heap), 1, "{:?}", config(preset));
        let new = frames_at(m, 1, asid, heap);
        assert_eq!(
            new.len(),
            1,
            "{:?}: core 1 caches the write",
            config(preset)
        );
        let stale = frames_at(m, 0, asid, heap);
        assert!(
            stale.iter().all(|pfn| *pfn == new[0]),
            "{:?}: core 0 keeps {stale:?}, the child's frame is {:?}",
            config(preset),
            new[0]
        );
        m.context_switch(1, outsider).unwrap();
        m.context_switch(0, child).unwrap();
        m.audit().unwrap();
    }
}

/// The zygote reads a heap page on core 0 after a fork made it
/// read-only, and the child exits. The zygote, the page's sole mapper
/// again, write-enables it on core 1 in one fault; back on core 0 a
/// write must not fault on the read-only entry left there. (Under the
/// level-1 write-protect assist the fork left the PTE writable, so the
/// fault on core 1 is spurious; it owes the same repair.)
#[test]
fn write_enable_on_one_core_leaves_no_read_only_entry_on_another() {
    let heap = VirtAddr::new(HEAP);
    for preset in 0..5 {
        let mut w = World::boot(config(preset));
        let [zygote, outsider] = [w.live[0], w.live[1]];
        let m = &mut w.m;
        let child = m.fork(0, zygote).unwrap().0.child;
        m.access(0, heap, AccessType::Read).unwrap();
        m.exit(0, child).unwrap();
        // A process of the outsider's parks core 0 while the zygote
        // runs on core 1.
        let parked = m.fork(1, outsider).unwrap().0.child;
        m.context_switch(0, parked).unwrap();
        m.context_switch(1, zygote).unwrap();
        let enables = |m: &Machine| {
            let c = m.kernel.mm(zygote).unwrap().counters;
            c.faults_write_enable + c.faults_spurious
        };
        let before = enables(m);
        assert_eq!(write_faults(m, 1, heap), 1, "{:?}", config(preset));
        assert_eq!(enables(m), before + 1, "{:?}", config(preset));
        m.context_switch(1, outsider).unwrap();
        m.context_switch(0, zygote).unwrap();
        assert_eq!(
            write_faults(m, 0, heap),
            0,
            "{:?}: the write on core 0 faulted on a stale read-only entry",
            config(preset)
        );
        m.audit().unwrap();
    }
}
