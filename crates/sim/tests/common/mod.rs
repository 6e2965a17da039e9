//! The machine tests' one harness, over a two-core [`Machine`]: one op
//! grammar ([`Op`], [`op_strategy`]), one zygote ([`Sim::boot`]), one
//! apply ([`Sim::apply`], which runs [`Machine::audit`] after every op),
//! one [`lockstep`], one stock ≡ sharing check ([`transparent`]) and one
//! [`Sim::teardown`] closing every run. The targets decide only which
//! machines run side by side and what they compare:
//! `integration_properties.rs` stock against sharing, `proptests.rs` one
//! budgeted machine, `promote_differential.rs` promoted pages against 4KB
//! ones, `machine_audit.rs` every preset alone and squeezed
//! ([`Op::Squeeze`]), `boundary.rs` refused calls on five kernels,
//! `sharing.rs` the sharing lifecycle and `machine.rs` the hardware paths.
//!
//! Kernel operations reach the kernel through the machine's typed
//! calls, so their flushes go through the shootdown view, the named
//! core invalidating locally; `Op::Fault` and `Op::Reclaim` run beneath
//! the machine, through [`Machine::syscall`].

// Each target uses a different part of the harness.
#![allow(dead_code)]

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use sat_core::{ForkOutcome, Kernel, KernelConfig};
use sat_sim::Machine;
use sat_types::{
    AccessType, Perms, Pfn, Pid, RegionTag, SatError, SatResult, VaRange, VirtAddr,
    KERNEL_SPACE_START, PAGE_SIZE,
};
use sat_vm::MmapRequest;

/// The zygote's library: 8 pre-faulted RX pages, the shared image. The
/// outsider maps a library of its own over the first `CODE_PAGES / 2`.
pub const CODE: u32 = 0x4000_0000;
pub const CODE_PAGES: u32 = 8;
/// The zygote's heap, 64KB-aligned: two whole large-page groups and a
/// spare page, so the promotion scanner has groups to collapse.
pub const HEAP: u32 = 0x0900_0000;
const HEAP_PAGES: u32 = 33;
/// Heap pages the zygote writes at boot.
const HEAP_WRITTEN: u32 = 4;
/// The zygote's stack: a chunk no kernel shares, so every fork copies
/// it. The boot writes its first half.
pub const STACK: u32 = 0x0B00_0000;
const STACK_PAGES: u32 = 4;
/// `Op::Mmap` maps fresh pages from here up, in the upper half of the
/// library's chunk, so under sharing each lands in a shared PTP
/// (Figure 6 case 3). Slots advance per run: two never collide.
const MMAP_BASE: u32 = 0x4010_0000;
const CORES: usize = 2;
/// The frame pool: room for every row and 240-op run (they peak below
/// 200), and small, because the audit reads every page the ballast of
/// an `Op::Squeeze` holds.
const FRAMES: u32 = 512;
/// The ballast's region: a page for every frame of the pool, one chunk.
const BALLAST: u32 = 0x2000_0000;

/// One step of a random workload. Processes are picked `n % live`,
/// tracked pages `p % tracked` ([`Sim::page`]), cores `c % CORES`.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// Fork the `n`-th live process (the zygote is the 0th, the
    /// outsider the 1st) on core `c`.
    Fork(u8, usize),
    /// Fault tracked page `p` of the `n`-th live process, beneath the
    /// machine: no core takes the fault.
    Fault(usize, u8, AccessType),
    /// Map a fresh private page into the `n`-th live process on core
    /// `c` and write it (beneath the machine).
    Mmap(u8, usize),
    /// Unmap tracked page `p` of the `n`-th live process.
    Munmap(u8, usize, u8),
    /// `mprotect` `1 + l % HEAP_PAGES` heap pages from heap page `p`
    /// of the `n`-th live process (clipped at the heap's end) to R
    /// (`rw` false) or RW.
    Mprotect(u8, usize, u8, u8, bool),
    /// Exit the `n`-th live child on core `c`, running or not (the
    /// zygote and the outsider outlive the ops).
    Exit(u8, usize),
    /// Force a reclaim pass evicting up to `1 + k % 4` file pages.
    Reclaim(u8),
    /// Run the promotion scanner on the `n`-th live process (a no-op
    /// with promotion off).
    Scan(u8, usize),
    /// Run the `n`-th live process on core `c` (unless the other core
    /// runs it) and access tracked page `p`, or a kernel address.
    Access(u8, usize, u8, AccessType),
    /// Switch core `c` to the `n`-th live process (unless the other
    /// core runs it).
    ContextSwitch(u8, usize),
    /// Grow or shrink the ballast until exactly `k % 13` frames are
    /// free, so that the next fork, unshare or fault may run out.
    Squeeze(u8),
}

pub fn op_strategy() -> impl Strategy<Value = Op> {
    const ACCESS: [AccessType; 3] = [AccessType::Read, AccessType::Write, AccessType::Execute];
    let access = || {
        (any::<u8>(), 0usize..64, any::<u8>(), 0usize..3)
            .prop_map(|(c, n, p, a)| Op::Access(c, n, p, ACCESS[a]))
    };
    // The vendored proptest picks arms uniformly: accesses are listed
    // four times, so processes run, populate and fill TLBs between the
    // ops that invalidate.
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
        any::<u8>().prop_map(Op::Reclaim),
        (any::<u8>(), 0usize..64).prop_map(|(c, n)| Op::Scan(c, n)),
        access(),
        access(),
        access(),
        access(),
        (any::<u8>(), 0usize..64).prop_map(|(c, n)| Op::ContextSwitch(c, n)),
    ]
}

/// [`op_strategy`], or one time in four an [`Op::Squeeze`]. Stock and
/// sharing take different numbers of frames, so only a machine run
/// alone draws it.
pub fn squeezed_op_strategy() -> impl Strategy<Value = Op> {
    let pick = |(arm, op, k)| if arm == 0 { Op::Squeeze(k) } else { op };
    (0u8..4, op_strategy(), any::<u8>()).prop_map(pick)
}

/// What the kernel holds: frames in use, PTPs, page-cache pages,
/// reverse-map entries, registry entries, processes and every
/// process's region count.
#[derive(Debug, PartialEq)]
pub struct Footprint {
    frames: u64,
    ptps: usize,
    cached: usize,
    rmap: usize,
    shared: usize,
    processes: usize,
    vmas: Vec<usize>,
}

impl Footprint {
    pub fn of(k: &Kernel) -> Footprint {
        Footprint {
            frames: k.phys.frames_in_use(),
            ptps: k.ptps.len(),
            cached: k.phys.page_cache_len(),
            rmap: k.phys.rmap_total(),
            shared: k.registry.len(),
            processes: k.process_count(),
            vmas: k.processes().map(|(_, mm)| mm.vma_count()).collect(),
        }
    }

    /// What a call that runs out of frames must leave as it found it:
    /// the frames neither a table nor the page cache holds, the
    /// processes and their regions. The steps it completed stay (first
    /// shares, unshares, pages read into the cache: `Kernel::page_fault`
    /// and `dup_mm` say so), but a frame nothing owns is a leak.
    fn owned(&self) -> (u64, usize, &[usize]) {
        let loose = self.frames - (self.ptps + self.cached) as u64;
        (loose, self.processes, &self.vmas)
    }
}

/// One machine under test, with the processes and pages the ops reach.
pub struct Sim {
    pub m: Machine,
    /// Live processes: the zygote, the outsider, then forked children.
    pub live: Vec<Pid>,
    /// `Op::Mmap` slots handed out so far.
    slots: u32,
    /// The ballast, once an `Op::Squeeze` has made it — a child of the
    /// outsider that no op reaches — and the pages it holds.
    ballast: Option<Pid>,
    held: u32,
    /// What a teardown must come back to: the libraries' page-cache
    /// residency at boot (the cache keeps file pages past the last
    /// unmap, as Linux does).
    floor: u64,
}

impl Sim {
    /// Boots the zygote (library pre-faulted, heap and stack partly
    /// written) and an outsider — no zygote child — with a pre-faulted
    /// library of its own over the zygote's, then puts the zygote on
    /// core 0 and the outsider on core 1.
    pub fn boot(config: KernelConfig) -> Sim {
        let mut k = Kernel::new(config, FRAMES);
        let lib = k.files.register("libtest.so", CODE_PAGES * PAGE_SIZE);
        let other = k.files.register("other.so", CODE_PAGES / 2 * PAGE_SIZE);
        let zygote = k.create_process().unwrap();
        k.exec_zygote(zygote).unwrap();
        let outsider = k.create_process().unwrap();
        let mut m = Machine::new(k, CORES);
        let (code, heap) = (VirtAddr::new(CODE), VirtAddr::new(HEAP));
        let (size, tag) = (CODE_PAGES * PAGE_SIZE, RegionTag::ZygoteNativeCode);
        let req = MmapRequest::file(size, Perms::RX, lib, 0, tag, "libtest.so");
        m.mmap(0, zygote, &req.at(code)).unwrap();
        m.kernel
            .populate(zygote, VaRange::from_len(code, size))
            .unwrap();
        for (at, pages, tag, name) in [
            (HEAP, HEAP_PAGES, RegionTag::Heap, "[heap]"),
            (STACK, STACK_PAGES, RegionTag::Stack, "[stack]"),
        ] {
            let req = MmapRequest::anon(pages * PAGE_SIZE, Perms::RW, tag, name);
            m.mmap(0, zygote, &req.at(VirtAddr::new(at))).unwrap();
        }
        m.context_switch(0, zygote).unwrap();
        let written = VaRange::from_len(heap, HEAP_WRITTEN * PAGE_SIZE).pages();
        let stack = VaRange::from_len(VirtAddr::new(STACK), STACK_PAGES / 2 * PAGE_SIZE);
        for va in written.chain(stack.pages()) {
            m.access(0, va, AccessType::Write).unwrap();
        }
        let (size, tag) = (CODE_PAGES / 2 * PAGE_SIZE, RegionTag::OtherLibCode);
        let req = MmapRequest::file(size, Perms::RX, other, 0, tag, "other.so");
        m.mmap(1, outsider, &req.at(code)).unwrap();
        m.kernel
            .populate(outsider, VaRange::from_len(code, size))
            .unwrap();
        m.context_switch(1, outsider).unwrap();
        let floor = m.kernel.phys.page_cache_len() as u64;
        Sim {
            m,
            live: vec![zygote, outsider],
            slots: 0,
            ballast: None,
            held: 0,
            floor,
        }
    }

    /// Every tracked page: the library's, the heap's, the stack's, then
    /// the `Op::Mmap` slots handed out so far.
    pub fn pages(&self) -> Vec<VirtAddr> {
        let (code, slots) = ((CODE, CODE_PAGES), (MMAP_BASE, self.slots));
        let regions = [code, (HEAP, HEAP_PAGES), (STACK, STACK_PAGES), slots];
        let pages = regions.map(|(base, n)| (0..n).map(move |p| base + p * PAGE_SIZE));
        pages.into_iter().flatten().map(VirtAddr::new).collect()
    }

    /// Tracked page `p`, in [`Sim::pages`] order, wrapping.
    pub fn page(&self, p: u32) -> VirtAddr {
        let pages = self.pages();
        pages[p as usize % pages.len()]
    }

    fn pid(&self, n: usize) -> Pid {
        self.live[n % self.live.len()]
    }

    /// Whether a core other than `core` runs `pid`.
    fn runs_elsewhere(&self, core: usize, pid: Pid) -> bool {
        let mut others = self.m.cores.iter().enumerate().filter(|&(i, _)| i != core);
        others.any(|(_, c)| c.current == Some(pid))
    }

    /// Runs `op` and returns its outcome (an access's cycles dropped),
    /// after auditing the machine it left (panicking with the op on a
    /// violation). The grammar reaches only live processes, so a legal
    /// refusal is a fault, access or range on a page that is not mapped
    /// or does not allow it — or, once an `Op::Squeeze` has left few
    /// frames free, a kernel call that ran out of them and changed
    /// nothing ([`Sim::call`]).
    pub fn apply(&mut self, op: &Op) -> SatResult<()> {
        let outcome = self.run(op);
        let config = self.m.kernel.config;
        self.m
            .audit()
            .unwrap_or_else(|e| panic!("after {op:?} on {config:?}: {e}"));
        if let Err(e) = &outcome {
            let refusal = match e {
                SatError::NotMapped(_) | SatError::PermissionDenied(_) => true,
                SatError::OutOfMemory => self.ballast.is_some(),
                _ => false,
            };
            assert!(refusal, "{op:?} on {config:?} failed with {e:?}");
        }
        outcome
    }

    /// Runs one kernel call. While a ballast is held, a call that runs
    /// out of frames must leave [`Footprint::owned`] as it found it.
    fn call<T>(&mut self, f: impl FnOnce(&mut Machine) -> SatResult<T>) -> SatResult<T> {
        let before = self.ballast.map(|_| Footprint::of(&self.m.kernel));
        let outcome = f(&mut self.m);
        if let (Some(before), Err(SatError::OutOfMemory)) = (before, &outcome) {
            let (config, after) = (self.m.kernel.config, Footprint::of(&self.m.kernel));
            let kept = after.owned() == before.owned();
            assert!(kept, "out of frames on {config:?}, leaving {after:?}");
        }
        outcome
    }

    /// `Op::Squeeze`: the ballast takes or gives back one page at a
    /// time until `free` frames are free. Its region fills its chunk
    /// and gives back a page by unmapping and remapping it, so the
    /// chunk's table, taken with the first page, stays: every page after
    /// it costs one frame.
    fn squeeze(&mut self, free: u32) {
        let anon = |pages| MmapRequest::anon(pages * PAGE_SIZE, Perms::RW, RegionTag::Heap, "");
        let page = |i| VaRange::from_len(VirtAddr::new(BALLAST + i * PAGE_SIZE), PAGE_SIZE);
        if self.ballast.is_none() {
            let pid = self.m.fork(1, self.live[1]).unwrap().0.child;
            let region = anon(FRAMES).at(VirtAddr::new(BALLAST));
            self.m.mmap(1, pid, &region).unwrap();
            self.ballast = Some(pid);
        }
        let pid = self.ballast.unwrap();
        loop {
            let now = FRAMES - self.m.kernel.phys.frames_in_use() as u32;
            if now > free {
                self.m.kernel.populate(pid, page(self.held)).unwrap();
                self.held += 1;
            } else if now < free && self.held > 0 {
                self.held -= 1;
                let gap = page(self.held);
                self.m.munmap(1, pid, gap).unwrap();
                self.m.mmap(1, pid, &anon(1).at(gap.start)).unwrap();
            } else {
                return;
            }
        }
    }

    fn run(&mut self, op: &Op) -> SatResult<()> {
        let core = |c: u8| usize::from(c) % CORES;
        match *op {
            Op::Fork(c, n) => {
                self.fork(core(c), self.pid(n))?;
            }
            Op::Fault(n, p, access) => self.fault(self.pid(n), self.page(p.into()), access)?,
            Op::Mmap(c, n) => {
                let pid = self.pid(n);
                let va = VirtAddr::new(MMAP_BASE + self.slots * PAGE_SIZE);
                self.slots += 1;
                let req = MmapRequest::anon(PAGE_SIZE, Perms::RW, RegionTag::Unknown, "[anon]");
                self.call(|m| m.mmap(core(c), pid, &req.at(va)))?;
                self.fault(pid, va, AccessType::Write)?;
            }
            Op::Munmap(c, n, p) => {
                let (pid, va) = (self.pid(n), self.page(p.into()));
                self.call(|m| m.munmap(core(c), pid, VaRange::from_len(va, PAGE_SIZE)))?;
            }
            Op::Mprotect(c, n, p, l, rw) => {
                let start = u32::from(p) % HEAP_PAGES;
                let len = (1 + u32::from(l) % HEAP_PAGES).min(HEAP_PAGES - start);
                let range =
                    VaRange::from_len(VirtAddr::new(HEAP + start * PAGE_SIZE), len * PAGE_SIZE);
                let (pid, perms) = (self.pid(n), if rw { Perms::RW } else { Perms::R });
                self.call(|m| m.mprotect(core(c), pid, range, perms))?;
            }
            Op::Exit(c, n) => {
                if self.live.len() > 2 {
                    self.exit(core(c), self.live[2 + n % (self.live.len() - 2)])?;
                }
            }
            Op::Reclaim(k) => {
                self.m
                    .syscall(|kernel, tlb| kernel.reclaim(1 + u64::from(k) % 4, tlb));
            }
            Op::Scan(c, n) => {
                let pid = self.pid(n);
                self.call(|m| m.promote_scan(core(c), pid))?;
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
                    self.page(p.into())
                };
                let va = VirtAddr::new(va.raw() + u32::from(p) * 4);
                self.call(|m| m.access(core, va, access))?;
            }
            Op::ContextSwitch(c, n) => {
                let (core, pid) = (core(c), self.pid(n));
                if !self.runs_elsewhere(core, pid) {
                    self.m.context_switch(core, pid)?;
                }
            }
            Op::Squeeze(k) => self.squeeze(u32::from(k % 13)),
        }
        Ok(())
    }

    /// Forks `parent` on `core`; the child joins the live processes.
    pub fn fork(&mut self, core: usize, parent: Pid) -> SatResult<ForkOutcome> {
        let fork = self.call(|m| m.fork(core, parent))?.0;
        self.live.push(fork.child);
        Ok(fork)
    }

    /// Exits `pid` on `core`; it leaves the live processes.
    pub fn exit(&mut self, core: usize, pid: Pid) -> SatResult<()> {
        self.m.exit(core, pid)?;
        self.live.retain(|&p| p != pid);
        Ok(())
    }

    /// The frame `pid` maps at `va`, which must be mapped.
    pub fn pfn(&mut self, pid: Pid, va: VirtAddr) -> Pfn {
        self.m.kernel.pte(pid, va).unwrap().unwrap().hw.pfn
    }

    /// A page fault of `pid` at `va`, beneath the machine.
    pub fn fault(&mut self, pid: Pid, va: VirtAddr, access: AccessType) -> SatResult<()> {
        let fault = |m: &mut Machine| m.syscall(|k, tlb| k.page_fault(pid, va, access, tlb));
        self.call(fault).map(drop)
    }

    /// Exits every process, the ballast first and the zygote last,
    /// auditing the machine after each exit. Then nothing may be left:
    /// no registry entry, PTP or rmap entry; no frame outside the page
    /// cache; the boot floor made up exactly by the frames still held
    /// and the pages still evicted; as many slab frees as allocations (a
    /// double free or a leak shows here).
    pub fn teardown(mut self) {
        self.live.extend(self.ballast);
        while let Some(pid) = self.live.pop() {
            self.m.exit(0, pid).unwrap();
            let audit = self.m.audit();
            audit.unwrap_or_else(|e| panic!("after the exit of {pid:?}: {e}"));
        }
        let k = &self.m.kernel;
        let frames = k.phys.frames_in_use();
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

/// Runs `op` on two machines that must agree on it: the same outcome,
/// and the same live processes after.
pub fn lockstep(a: &mut Sim, b: &mut Sim, op: &Op) {
    let (x, y) = (a.m.kernel.config, b.m.kernel.config);
    assert_eq!(a.apply(op), b.apply(op), "{op:?} on {x:?} and {y:?}");
    assert_eq!(a.live, b.live, "live pids after {op:?} on {x:?} and {y:?}");
}

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
pub fn transparent(configs: &[KernelConfig], ops: &[Op]) {
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
