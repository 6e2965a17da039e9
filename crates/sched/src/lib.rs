//! `sat-sched`: a deterministic multi-core scheduler and the
//! timesharing workload driver built on it.
//!
//! The paper evaluates shared translation mostly under pinned,
//! one-app-at-a-time workloads. This crate asks the follow-up
//! question: what happens when N zygote children *timeshare* a
//! four-core machine — context switches every few hundred
//! instructions, process churn burning through the 8-bit ASID space,
//! per-ASID shootdowns raining on every core? The scheduler is a
//! plain round-robin with per-core run queues and fixed timeslices;
//! everything (queue order, workload mix, churn victims) derives from
//! one seed, so a run is a pure function of its options — the
//! `repro timeshare` experiment and the determinism tests rely on
//! byte-identical behaviour across runs.

#![forbid(unsafe_code)]

mod serve;

pub use serve::{run_serve, ServeOptions, ServeReport, ServeSim};

use std::collections::{BTreeMap, VecDeque};

use sat_android::{AndroidSystem, BootOptions, LibraryLayout};
use sat_core::KernelConfig;
use sat_sim::machine::{Core, BINDER_PATH_PAGE};
use sat_types::{AccessType, Perms, Pid, SatError, SatResult, VirtAddr, PAGE_SIZE};
use sat_vm::MmapRequest;

/// Base address for per-process private heaps created by the driver
/// (above the app images, below the stack).
const SCHED_HEAP_BASE: u32 = 0x9000_0000;

/// Address-space stride between driver heaps.
const SCHED_HEAP_STRIDE: u32 = 0x0010_0000;

/// Distinct heap slots before the driver's addresses cycle. Heaps are
/// private anonymous mappings, so two processes holding the same slot
/// merely map the same virtual address in different address spaces —
/// ASID tagging keeps their TLB entries apart. Cycling (rather than a
/// monotonic counter) is what lets a fleet run create thousands of
/// processes inside the `0x9000_0000..0xBF00_0000` window; the first
/// 752 spawns get exactly the addresses the pre-fleet driver handed
/// out, so existing runs are byte-identical.
const SCHED_HEAP_SLOTS: u32 = (0xBF00_0000u32 - SCHED_HEAP_BASE) / SCHED_HEAP_STRIDE;

/// Pages per driver heap.
const SCHED_HEAP_PAGES: u32 = 16;

/// A tiny deterministic PRNG (xorshift64*). The driver must not
/// depend on host randomness, and keeping the generator local makes
/// the sequence part of this crate's stable behaviour.
#[derive(Clone)]
struct Rng64(u64);

impl Rng64 {
    fn new(seed: u64) -> Rng64 {
        Rng64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Per-process timeslice accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimesliceAccount {
    /// Timeslices this process has run.
    pub quanta: u64,
    /// Workload events executed across those timeslices.
    pub events: u64,
}

/// A deterministic round-robin scheduler with per-core run queues.
///
/// Processes are admitted to the shortest queue (ties to the lowest
/// core index), each `next`/`requeue` pair is one timeslice, and a
/// requeue behind a waiting sibling is a preemption — reported as a
/// [`sat_obs::Payload::Preempt`] event.
pub struct Scheduler {
    queues: Vec<VecDeque<Pid>>,
    accounts: BTreeMap<Pid, TimesliceAccount>,
    /// Preemptions observed (a timeslice expired with another process
    /// waiting on the same core).
    pub preemptions: u64,
}

impl Scheduler {
    /// A scheduler over `cores` run queues.
    pub fn new(cores: usize) -> Scheduler {
        assert!(cores > 0);
        Scheduler {
            queues: (0..cores).map(|_| VecDeque::new()).collect(),
            accounts: BTreeMap::new(),
            preemptions: 0,
        }
    }

    /// Admits `pid` to the shortest run queue.
    pub fn admit(&mut self, pid: Pid) {
        let core = (0..self.queues.len())
            .min_by_key(|&c| self.queues[c].len())
            .expect("at least one core");
        self.queues[core].push_back(pid);
        self.accounts.entry(pid).or_default();
    }

    /// Removes `pid` from whichever queue holds it (process exit).
    pub fn remove(&mut self, pid: Pid) {
        for q in &mut self.queues {
            q.retain(|&p| p != pid);
        }
    }

    /// The core whose run queue currently holds `pid` — the process's
    /// home core, where its exit path runs.
    pub fn core_of(&self, pid: Pid) -> Option<usize> {
        self.queues.iter().position(|q| q.contains(&pid))
    }

    /// Pops the next process to run on `core`, if any.
    pub fn next(&mut self, core: usize) -> Option<Pid> {
        self.queues[core].pop_front()
    }

    /// Returns `pid` to the back of `core`'s queue after a timeslice
    /// of `events` workload events. If another process was waiting,
    /// this is a preemption.
    pub fn requeue(&mut self, core: usize, pid: Pid, events: u64) {
        let acct = self.accounts.entry(pid).or_default();
        acct.quanta += 1;
        acct.events += events;
        if let Some(&next) = self.queues[core].front() {
            self.preemptions += 1;
            if sat_obs::enabled() {
                sat_obs::emit(
                    sat_obs::Subsystem::Sched,
                    pid.raw(),
                    0,
                    sat_obs::Payload::Preempt {
                        core: core as u32,
                        next: next.raw(),
                    },
                );
            }
        }
        self.queues[core].push_back(pid);
    }

    /// Timeslice accounting for `pid` (zeroes if never admitted).
    pub fn account(&self, pid: Pid) -> TimesliceAccount {
        self.accounts.get(&pid).copied().unwrap_or_default()
    }

    /// Processes currently queued on `core`.
    pub fn queue_len(&self, core: usize) -> usize {
        self.queues[core].len()
    }

    /// Publishes per-core run-queue depth gauges to the installed obs
    /// sink.
    pub fn publish_gauges(&self) {
        for (i, q) in self.queues.iter().enumerate() {
            sat_obs::gauge_set(&format!("sched.runq.c{i}"), q.len() as u64);
        }
    }
}

/// Sizing for one timesharing run.
#[derive(Clone, Copy, Debug)]
pub struct TimeshareOptions {
    /// Co-resident applications.
    pub apps: usize,
    /// Cores to timeshare.
    pub cores: usize,
    /// Scheduling rounds (each runs one timeslice per core).
    pub rounds: usize,
    /// Instruction fetches per timeslice.
    pub quantum_events: usize,
    /// Library code pages in each app's working set.
    pub ws_pages: usize,
    /// Extra processes created by exit-and-respawn churn over the
    /// whole run (0 disables churn).
    pub churn: usize,
    /// Every k-th timeslice ends in a binder call to a sibling app
    /// (0 disables IPC).
    pub ipc_every: usize,
    /// Workload seed.
    pub seed: u64,
}

impl TimeshareOptions {
    /// Defaults for `apps` co-resident applications on four cores.
    pub fn new(apps: usize) -> TimeshareOptions {
        TimeshareOptions {
            apps,
            cores: 4,
            rounds: 12,
            quantum_events: 300,
            ws_pages: 48,
            churn: 0,
            ipc_every: 3,
            seed: 1,
        }
    }
}

/// What a timesharing run measured, summed over all cores.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimeshareReport {
    /// Co-resident apps the run was configured with.
    pub apps: usize,
    /// Processes created over the run (initial apps + churn).
    pub processes_created: u64,
    /// ASID generation at the end (1 + rollovers).
    pub asid_generation: u64,
    /// ASID-space rollovers the allocator performed.
    pub asid_rollovers: u64,
    /// Context switches performed.
    pub context_switches: u64,
    /// Preemptions (timeslice expired with a sibling waiting).
    pub preemptions: u64,
    /// Instruction-fetch main-TLB stall cycles.
    pub inst_tlb_stall: u64,
    /// Data-access main-TLB stall cycles.
    pub data_tlb_stall: u64,
    /// Total cycles.
    pub total_cycles: u64,
    /// Page faults taken.
    pub page_faults: u64,
    /// Main-TLB hits on another process's global entry.
    pub cross_asid_hits: u64,
    /// Shootdown IPIs delivered (remote cores targeted by a precise
    /// shootdown; the initiating core's local invalidation is free).
    pub shootdown_ipis: u64,
    /// Per-core flushes a precise shootdown skipped.
    pub avoided_flushes: u64,
    /// Main-TLB entries invalidated by all flushes.
    pub entries_flushed: u64,
    /// Valid global main-TLB entries at the end of the run.
    pub global_entries_now: u64,
}

/// One runnable process's workload state.
struct Task {
    /// Library-code working set (zygote-inherited mappings).
    code: Vec<VirtAddr>,
    cursor: usize,
    heap: VirtAddr,
    heap_cursor: u32,
}

/// Forks a zygote child on `core` and builds its workload state: a
/// working set of `ws_pages` pages drawn from the preloaded libraries
/// — code every zygote child has identical translations for, the
/// target of the paper's sharing — and a private heap named
/// `heap_name` in the driver's heap slot for spawn number `spawned`
/// (slots cycle; see [`SCHED_HEAP_SLOTS`]). Returns the child, its task
/// and, per working-set page in draw order, the library the page came
/// from, as its index in `catalog.zygote_preloaded()`.
fn spawn_zygote_child(
    sys: &mut AndroidSystem,
    rng: &mut Rng64,
    ws_pages: usize,
    spawned: u64,
    core: usize,
    heap_name: &str,
) -> SatResult<(Pid, Task, Vec<usize>)> {
    let (outcome, _) = sys.machine.fork(core, sys.zygote)?;
    let pid = outcome.child;

    let preloaded = sys.catalog.zygote_preloaded();
    let mut code = Vec::with_capacity(ws_pages);
    let mut drawn = Vec::with_capacity(ws_pages);
    for _ in 0..ws_pages {
        let idx = rng.below(preloaded.len() as u64) as usize;
        let lib = preloaded[idx];
        let base = sys.map.code_base(lib).ok_or(SatError::InvalidArgument)?;
        let page = rng.below(u64::from(sys.catalog.lib(lib).code_pages)) as u32;
        code.push(VirtAddr::new(base.raw() + page * PAGE_SIZE));
        drawn.push(idx);
    }

    let slot = (spawned % u64::from(SCHED_HEAP_SLOTS)) as u32;
    let heap = VirtAddr::new(SCHED_HEAP_BASE + slot * SCHED_HEAP_STRIDE);
    let req = MmapRequest::anon(
        SCHED_HEAP_PAGES * PAGE_SIZE,
        Perms::RW,
        sat_types::RegionTag::Heap,
        heap_name,
    )
    .at(heap);
    sys.machine.syscall(|k, tlb| k.mmap(pid, &req, tlb))?;

    let task = Task {
        code,
        cursor: 0,
        heap,
        heap_cursor: 0,
    };
    Ok((pid, task, drawn))
}

/// The timesharing simulation: an [`AndroidSystem`] grown to
/// `opts.cores` cores, a [`Scheduler`], and per-process workload
/// state.
pub struct TimeshareSim {
    pub sys: AndroidSystem,
    pub sched: Scheduler,
    tasks: BTreeMap<Pid, Task>,
    rng: Rng64,
    opts: TimeshareOptions,
    /// Processes created so far (spawns, not counting the zygote).
    pub processes_created: u64,
    /// Timeslices run so far (drives the IPC cadence).
    slices: u64,
    /// Gauge sampling clock: one sample per scheduling round, plus
    /// off-clock samples at boot/teardown edges.
    sampler: sat_obs::Sampler,
}

/// A [`TimeshareSim`]'s gauges: the machine's (kernel frame allocator,
/// PTP slab, shared-PTP registry, per-core TLBs) plus the scheduler's
/// run-queue depths. A function of the two fields, so the sampler can
/// be borrowed beside them.
fn publish_gauges(sys: &AndroidSystem, sched: &Scheduler) {
    sys.machine.publish_gauges();
    sched.publish_gauges();
}

impl TimeshareSim {
    /// Boots a system under `config` and admits `opts.apps` zygote
    /// children to the scheduler.
    pub fn boot(config: KernelConfig, opts: TimeshareOptions) -> SatResult<TimeshareSim> {
        assert!(opts.cores >= 1);
        let mut sys = AndroidSystem::boot(
            config,
            LibraryLayout::Original,
            opts.seed,
            11,
            BootOptions::small(),
        )?;
        while sys.machine.cores.len() < opts.cores {
            sys.machine.cores.push(Core::default());
        }
        let mut sim = TimeshareSim {
            sys,
            sched: Scheduler::new(opts.cores),
            tasks: BTreeMap::new(),
            rng: Rng64::new(opts.seed),
            opts,
            processes_created: 0,
            slices: 0,
            sampler: sat_obs::Sampler::new(1),
        };
        for i in 0..opts.apps {
            sim.spawn()?;
            // Sample the spawn ramp every 64 forks so a fleet trace
            // shows frame/slab/registry occupancy growing, not just
            // the post-boot plateau.
            if (i + 1) % 64 == 0 {
                sim.sample_now();
            }
        }
        sim.sample_now();
        Ok(sim)
    }

    /// Emits one off-clock gauge sample (boot/teardown edges) without
    /// advancing the per-round sampling clock.
    pub fn sample_now(&mut self) {
        self.sampler
            .sample_now(|| publish_gauges(&self.sys, &self.sched));
    }

    /// Forks one process from the zygote, builds its working set, and
    /// admits it.
    pub fn spawn(&mut self) -> SatResult<Pid> {
        let (pid, task, _) = spawn_zygote_child(
            &mut self.sys,
            &mut self.rng,
            self.opts.ws_pages,
            self.processes_created,
            0,
            "[anon:sched-heap]",
        )?;
        self.processes_created += 1;
        self.tasks.insert(pid, task);
        self.sched.admit(pid);
        Ok(pid)
    }

    /// Exits `pid` and removes it from the scheduler. The exit runs
    /// on the victim's home core, so the per-ASID exit flush
    /// invalidates that core's TLB locally and IPIs only the *other*
    /// cores where the ASID is resident.
    pub fn reap(&mut self, pid: Pid) -> SatResult<()> {
        let home = self.sched.core_of(pid);
        self.sched.remove(pid);
        self.tasks.remove(&pid);
        match home {
            Some(core) => self
                .sys
                .machine
                .syscall_on(core, |k, tlb| k.exit(pid, tlb))?,
            None => self.sys.machine.syscall(|k, tlb| k.exit(pid, tlb))?,
        };
        Ok(())
    }

    /// Runs one scheduling round: every core runs one timeslice of
    /// whatever its queue offers.
    pub fn round(&mut self) -> SatResult<()> {
        for core in 0..self.opts.cores {
            let Some(pid) = self.sched.next(core) else {
                continue;
            };
            self.sys.machine.context_switch(core, pid)?;
            let events = self.quantum(core, pid)?;
            self.slices += 1;
            if self.opts.ipc_every > 0 && self.slices.is_multiple_of(self.opts.ipc_every as u64) {
                self.binder_call(core, pid)?;
            }
            self.sched.requeue(core, pid, events);
        }
        // One tick of the sampling clock per round.
        self.sampler.tick(|| publish_gauges(&self.sys, &self.sched));
        Ok(())
    }

    /// One timeslice of `pid` on `core`: walk the code working set,
    /// with periodic heap writes. Returns the events executed.
    fn quantum(&mut self, core: usize, pid: Pid) -> SatResult<u64> {
        let task = self.tasks.get_mut(&pid).expect("scheduled pid has a task");
        let machine = &mut self.sys.machine;
        let events = self.opts.quantum_events;
        for i in 0..events {
            let va = task.code[task.cursor % task.code.len()];
            task.cursor += 1;
            machine.access(core, va, AccessType::Execute)?;
            machine.access(core, VirtAddr::new(va.raw() + 64), AccessType::Execute)?;
            if i % 24 == 23 {
                let va = VirtAddr::new(
                    task.heap.raw() + (task.heap_cursor % SCHED_HEAP_PAGES) * PAGE_SIZE,
                );
                task.heap_cursor += 1;
                machine.access(core, va, AccessType::Write)?;
            }
        }
        Ok(events as u64)
    }

    /// A binder call from `pid` to a deterministic sibling on the same
    /// core: kernel binder path, switch to the server, a slice of the
    /// server's code, kernel reply path, switch back.
    fn binder_call(&mut self, core: usize, pid: Pid) -> SatResult<()> {
        // Pick the first other live task in pid order (stable under
        // churn because tasks is a BTreeMap).
        let Some(&peer) = self.tasks.keys().find(|&&p| p != pid) else {
            return Ok(());
        };
        self.sys
            .machine
            .run_kernel_lines(core, BINDER_PATH_PAGE, 120)?;
        self.sys.machine.context_switch(core, peer)?;
        {
            let task = self.tasks.get_mut(&peer).expect("peer has a task");
            let machine = &mut self.sys.machine;
            for _ in 0..8 {
                let va = task.code[task.cursor % task.code.len()];
                task.cursor += 1;
                machine.access(core, va, AccessType::Execute)?;
            }
        }
        self.sys
            .machine
            .run_kernel_lines(core, BINDER_PATH_PAGE, 100)?;
        self.sys.machine.context_switch(core, pid)?;
        Ok(())
    }

    /// Runs the configured rounds, interleaving churn (exit the oldest
    /// app, fork a replacement) evenly across them.
    pub fn run(&mut self) -> SatResult<()> {
        let churn_per_round = self.opts.churn.div_ceil(self.opts.rounds.max(1));
        let mut churned = 0usize;
        for _ in 0..self.opts.rounds {
            self.round()?;
            for _ in 0..churn_per_round {
                if churned >= self.opts.churn {
                    break;
                }
                // Victim: the oldest live app (lowest pid).
                let Some(&victim) = self.tasks.keys().next() else {
                    break;
                };
                self.reap(victim)?;
                self.spawn()?;
                churned += 1;
            }
        }
        Ok(())
    }

    /// Harvests the run's counters.
    pub fn report(&self) -> TimeshareReport {
        let m = &self.sys.machine;
        let mut r = TimeshareReport {
            apps: self.opts.apps,
            processes_created: self.processes_created,
            asid_generation: m.kernel.asid_generation(),
            asid_rollovers: m.kernel.stats.asid_rollovers,
            preemptions: self.sched.preemptions,
            ..TimeshareReport::default()
        };
        for c in &m.cores {
            r.context_switches += c.stats.context_switches;
            r.inst_tlb_stall += c.stats.inst_main_tlb_stall_cycles;
            r.data_tlb_stall += c.stats.data_main_tlb_stall_cycles;
            r.total_cycles += c.stats.cycles;
            r.page_faults += c.stats.page_faults;
            r.shootdown_ipis += c.stats.tlb_shootdown_ipis;
            let t = c.main_tlb.stats();
            r.cross_asid_hits += t.cross_asid_hits;
            r.avoided_flushes += t.avoided_flushes;
            r.entries_flushed += t.entries_flushed;
            r.global_entries_now += c.main_tlb.global_occupancy() as u64;
        }
        r
    }
}

/// Boots, runs, and reports one timesharing experiment — the
/// `repro timeshare` cell body.
pub fn run_timeshare(config: KernelConfig, opts: TimeshareOptions) -> SatResult<TimeshareReport> {
    let mut sim = TimeshareSim::boot(config, opts)?;
    sim.run()?;
    sim.sample_now();
    Ok(sim.report())
}

/// Sizing for one fleet run: N processes forked from the zygote,
/// timeshared briefly, then all torn down.
#[derive(Clone, Copy, Debug)]
pub struct FleetOptions {
    /// Fleet size (processes forked from the zygote).
    pub apps: usize,
    /// Cores to schedule them on.
    pub cores: usize,
    /// Scheduling rounds.
    pub rounds: usize,
    /// Instruction fetches per timeslice.
    pub quantum_events: usize,
    /// Library code pages in each app's working set.
    pub ws_pages: usize,
    /// Workload seed.
    pub seed: u64,
}

impl FleetOptions {
    /// Defaults for `apps` processes on `cores` cores. The scheduled
    /// work is held roughly constant across fleet sizes (the quantum
    /// shrinks as the core count grows), so wall-clock differences
    /// between N's isolate the per-process fork/teardown cost — the
    /// quantity the shared-PTP registry is supposed to flatten.
    pub fn new(apps: usize, cores: usize) -> FleetOptions {
        FleetOptions {
            apps,
            cores,
            rounds: 8,
            quantum_events: (4096 / cores.max(1)).max(8),
            ws_pages: 24,
            seed: 1,
        }
    }
}

/// What a fleet run measured: scheduling/TLB counters from the
/// timeshare phase plus the kernel's fork/exit/share accounting and
/// the post-teardown residue (leak witnesses).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetReport {
    /// Fleet size the run was configured with.
    pub apps: usize,
    /// Cores the fleet was scheduled on.
    pub cores: usize,
    /// Processes created (equals `apps`: no churn in a fleet run).
    pub processes_created: u64,
    /// Forks the kernel performed.
    pub forks: u64,
    /// Of those, forks that used PTP sharing.
    pub share_forks: u64,
    /// Processes exited (the whole fleet, at teardown).
    pub exits: u64,
    /// PTPs unshared during the run.
    pub ptp_unshares: u64,
    /// ASID-space rollovers.
    pub asid_rollovers: u64,
    /// Page faults taken.
    pub page_faults: u64,
    /// Context switches performed.
    pub context_switches: u64,
    /// Instruction-fetch main-TLB stall cycles.
    pub inst_tlb_stall: u64,
    /// Data-access main-TLB stall cycles.
    pub data_tlb_stall: u64,
    /// Total cycles.
    pub total_cycles: u64,
    /// PTP-arena slots recycled from the free list (the slab at work:
    /// teardown churn feeds later allocations without touching the
    /// global allocator).
    pub ptp_slab_recycled: u64,
    /// Frames still in use after the whole fleet exited (the zygote's
    /// footprint; anything above a lone-zygote boot is a leak).
    pub frames_in_use_after: u64,
    /// Registry entries still shared with more than one process after
    /// teardown (must be 0). Lone zygote references keep their entry
    /// at `sharers == 1` by design — NEED_COPY persists until the
    /// zygote's next unshare takes the cheap last-sharer path.
    pub registry_shared_after: usize,
    /// Live processes left (must be 1: the zygote).
    pub live_processes_after: usize,
}

/// Brackets one fleet phase with a `sched` span (wall-clock µs), so
/// `repro report --format folded` attributes fleet time to spawn,
/// run, or reap. No-op without a recorder installed.
fn fleet_span<T>(name: &str, body: impl FnOnce() -> T) -> T {
    if !sat_obs::enabled() {
        return body();
    }
    sat_obs::emit(
        sat_obs::Subsystem::Sched,
        0,
        0,
        sat_obs::Payload::SpanBegin {
            name: name.to_string(),
        },
    );
    let t0 = std::time::Instant::now();
    let out = body();
    sat_obs::emit(
        sat_obs::Subsystem::Sched,
        0,
        0,
        sat_obs::Payload::SpanEnd {
            name: name.to_string(),
            value: t0.elapsed().as_micros() as u64,
            unit: sat_obs::SpanUnit::Micros,
        },
    );
    out
}

/// Boots a fleet of `opts.apps` zygote children, timeshares them for
/// `opts.rounds` rounds, then reaps every one (lowest pid first) —
/// the `repro fleet` cell body. Teardown is part of the measured
/// cell: exit must detach every shared PTP through the registry and
/// return the frames.
pub fn run_fleet(config: KernelConfig, opts: FleetOptions) -> SatResult<FleetReport> {
    let topts = TimeshareOptions {
        apps: opts.apps,
        cores: opts.cores,
        rounds: opts.rounds,
        quantum_events: opts.quantum_events,
        ws_pages: opts.ws_pages,
        churn: 0,
        ipc_every: 0,
        seed: opts.seed,
    };
    let mut sim = fleet_span("fleet.spawn", || TimeshareSim::boot(config, topts))?;
    fleet_span("fleet.run", || sim.run())?;
    fleet_span("fleet.reap", || -> SatResult<()> {
        let fleet: Vec<Pid> = sim.tasks.keys().copied().collect();
        for (i, pid) in fleet.into_iter().enumerate() {
            sim.reap(pid)?;
            // Mirror the spawn ramp: sample the teardown drain so the
            // trace shows frames/slab slots returning to the pool.
            if (i + 1) % 64 == 0 {
                sim.sample_now();
            }
        }
        Ok(())
    })?;
    sim.sample_now();
    let t = sim.report();
    let k = &sim.sys.machine.kernel;
    Ok(FleetReport {
        apps: opts.apps,
        cores: opts.cores,
        processes_created: sim.processes_created,
        forks: k.stats.forks,
        share_forks: k.stats.share_forks,
        exits: k.stats.exits,
        ptp_unshares: k.stats.ptp_unshares,
        asid_rollovers: k.stats.asid_rollovers,
        page_faults: t.page_faults,
        context_switches: t.context_switches,
        inst_tlb_stall: t.inst_tlb_stall,
        data_tlb_stall: t.data_tlb_stall,
        total_cycles: t.total_cycles,
        ptp_slab_recycled: k.ptps.slab_stats().recycled,
        frames_in_use_after: k.phys.frames_in_use(),
        registry_shared_after: k.registry.iter().filter(|(_, e)| e.sharers > 1).count(),
        live_processes_after: k.process_count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u32) -> Pid {
        Pid::new(n)
    }

    #[test]
    fn admit_balances_and_round_robin_rotates() {
        let mut s = Scheduler::new(2);
        for n in 1..=4 {
            s.admit(pid(n));
        }
        assert_eq!(s.queue_len(0), 2);
        assert_eq!(s.queue_len(1), 2);
        // Core 0 got pids 1, 3; rotation returns them alternately.
        assert_eq!(s.next(0), Some(pid(1)));
        s.requeue(0, pid(1), 10);
        assert_eq!(s.next(0), Some(pid(3)));
        s.requeue(0, pid(3), 10);
        assert_eq!(s.next(0), Some(pid(1)));
        assert_eq!(s.account(pid(1)).quanta, 1);
        assert_eq!(s.account(pid(1)).events, 10);
        // Both requeues happened with a sibling waiting.
        assert_eq!(s.preemptions, 2);
    }

    #[test]
    fn remove_takes_a_process_out_of_rotation() {
        let mut s = Scheduler::new(1);
        s.admit(pid(1));
        s.admit(pid(2));
        s.remove(pid(1));
        assert_eq!(s.next(0), Some(pid(2)));
        s.requeue(0, pid(2), 1);
        // Alone on the core: requeueing is not a preemption.
        assert_eq!(s.preemptions, 0);
        assert_eq!(s.next(0), Some(pid(2)));
    }

    #[test]
    fn timeshare_runs_are_deterministic() {
        let opts = TimeshareOptions {
            rounds: 3,
            quantum_events: 60,
            churn: 2,
            ..TimeshareOptions::new(6)
        };
        let a = run_timeshare(KernelConfig::shared_ptp_tlb(), opts).unwrap();
        let b = run_timeshare(KernelConfig::shared_ptp_tlb(), opts).unwrap();
        assert_eq!(a, b);
        assert!(a.context_switches > 0);
        assert!(a.preemptions > 0);
        assert_eq!(a.processes_created, 8);
    }

    #[test]
    fn precise_shootdowns_skip_cores_under_churn() {
        sat_obs::install(1 << 16);
        let opts = TimeshareOptions {
            rounds: 4,
            quantum_events: 60,
            churn: 4,
            ..TimeshareOptions::new(4)
        };
        let r = run_timeshare(KernelConfig::shared_ptp_tlb(), opts).unwrap();
        let rec = sat_obs::uninstall().expect("recorder installed above");
        let cores = opts.cores as u64;

        // Counter-verify against the shootdown metrics (exact even on
        // ring overflow): every shootdown resolves each core to an
        // IPI, a free local invalidation on the initiating core, or a
        // skip — and all three sides reconcile with the machine's own
        // counters.
        let calls = rec.metrics.counter("tlb.shootdown");
        let local = rec.metrics.counter("tlb.shootdown.local");
        assert!(calls > 0, "the run never issued a shootdown");
        assert!(
            local > 0,
            "reaping on the home core must invalidate locally"
        );
        assert_eq!(
            rec.metrics.counter("tlb.shootdown.cores"),
            r.shootdown_ipis + local
        );
        assert_eq!(
            rec.metrics.counter("tlb.shootdown.skipped"),
            r.avoided_flushes
        );
        assert_eq!(
            r.shootdown_ipis + local + r.avoided_flushes,
            calls * cores,
            "every shootdown must resolve each core exactly once"
        );
        // A broadcast flush would IPI every core on every call;
        // precise shootdown must deliver strictly fewer IPIs.
        let broadcast_ipis = calls * cores;
        assert!(
            r.shootdown_ipis < broadcast_ipis,
            "precise shootdown must IPI fewer cores than broadcast \
             ({} vs {broadcast_ipis})",
            r.shootdown_ipis
        );
    }

    /// The >255-process rollover scenario (the seed kernel's free-list
    /// allocator panicked here): generations bump, exactly one
    /// non-global flush per rollover reaches every core, attributed to
    /// `AsidRecycle`, and the zygote's global entries survive.
    #[test]
    fn rollover_past_255_processes_flushes_once_and_keeps_globals() {
        sat_obs::install(1 << 18);
        let opts = TimeshareOptions {
            rounds: 10,
            quantum_events: 40,
            ws_pages: 16,
            churn: 260,
            ipc_every: 5,
            ..TimeshareOptions::new(4)
        };
        let r = run_timeshare(KernelConfig::shared_ptp_tlb(), opts).unwrap();
        let rec = sat_obs::uninstall().expect("recorder installed above");

        // 264 processes through a 255-value space: at least one
        // rollover, and the generation counter tracks them exactly.
        assert_eq!(r.processes_created, 264);
        assert!(r.asid_rollovers >= 1, "no rollover after 264 processes");
        assert_eq!(r.asid_generation, 1 + r.asid_rollovers);

        // Counters are exact even if the ring overflowed: one
        // non-global flush per core per rollover, and a rollover event
        // per generation bump.
        let flushes = rec.metrics.counter("tlb.flush.scope.non_global");
        assert_eq!(flushes, r.asid_rollovers * opts.cores as u64);
        assert_eq!(
            rec.metrics.counter("kernel.asid.rollover"),
            r.asid_rollovers
        );

        // Every non-global flush in the ring is attributed to the
        // rollover path.
        for e in &rec.events {
            if let sat_obs::Payload::TlbFlush { scope, reason, .. } = &e.payload {
                if *scope == sat_obs::FlushScope::NonGlobal {
                    assert_eq!(*reason, sat_obs::FlushReason::AsidRecycle);
                }
            }
        }

        // Global zygote entries survived the rollovers and kept
        // serving other processes.
        assert!(
            r.global_entries_now > 0,
            "rollover killed the global entries"
        );
        assert!(r.cross_asid_hits > 0);
    }

    #[test]
    fn fleet_runs_are_deterministic_and_tear_down_clean() {
        let opts = FleetOptions {
            rounds: 2,
            quantum_events: 40,
            ws_pages: 8,
            ..FleetOptions::new(24, 4)
        };
        let a = run_fleet(KernelConfig::shared_ptp(), opts).unwrap();
        let b = run_fleet(KernelConfig::shared_ptp(), opts).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.processes_created, 24);
        assert_eq!(a.forks, 24);
        assert_eq!(a.share_forks, 24);
        assert_eq!(a.exits, 24);
        // Teardown left nothing behind: no PTP still shared with
        // others, only the zygote alive, and the arena recycled the
        // fleet's PTP slots.
        assert_eq!(a.registry_shared_after, 0);
        assert_eq!(a.live_processes_after, 1);
        // The stock fleet must reach the same clean end state with
        // the same footprint — sharing changes the route, not the
        // destination.
        let s = run_fleet(KernelConfig::stock(), opts).unwrap();
        assert_eq!(s.registry_shared_after, 0);
        assert_eq!(s.live_processes_after, 1);
        assert_eq!(s.frames_in_use_after, a.frames_in_use_after);
    }

    /// A traced fleet run must carry the full gauge taxonomy as
    /// counter-track samples, and the sampled series must reconcile
    /// exactly with the machine's own end-of-run accounting.
    #[test]
    fn traced_fleet_samples_gauges_that_reconcile_with_the_report() {
        sat_obs::install(1 << 18);
        let opts = FleetOptions {
            rounds: 2,
            quantum_events: 40,
            ws_pages: 8,
            ..FleetOptions::new(130, 2)
        };
        let r = run_fleet(KernelConfig::shared_ptp_tlb(), opts).unwrap();
        let rec = sat_obs::uninstall().expect("recorder installed above");

        // The acceptance taxonomy: frame pool, registry, slab,
        // per-core TLB occupancy, run-queue depth — all present.
        for key in [
            "phys.frames.free",
            "phys.frames.in_use",
            "phys.slab.live",
            "phys.slab.capacity",
            "registry.entries",
            "registry.sharers",
            "kernel.processes",
            "tlb.main.occupancy.c0",
            "tlb.micro.occupancy.c1",
            "sim.asid.residency.c0",
            "sched.runq.c1",
        ] {
            assert!(
                rec.metrics.gauge(key).is_some(),
                "traced fleet run never sampled gauge {key:?}"
            );
        }

        // The final off-clock sample is cut after the reap phase, so
        // each gauge's last value IS the machine's end state.
        let procs = rec.metrics.gauge("kernel.processes").unwrap();
        assert_eq!(procs.value, r.live_processes_after as u64);
        let frames = rec.metrics.gauge("phys.frames.in_use").unwrap();
        assert_eq!(frames.value, r.frames_in_use_after);
        let recycled = rec.metrics.gauge("phys.slab.recycled").unwrap();
        assert_eq!(recycled.value, r.ptp_slab_recycled);

        // The spawn ramp was sampled: the process-count high water
        // saw the whole fleet alive (130 apps + zygote), not just the
        // lone-zygote end state.
        assert_eq!(procs.high_water, 130 + 1);
        assert!(frames.high_water > frames.value);

        // Samples landed in the ring with valid shape (monotone
        // per-gauge ticks, non-empty names).
        sat_obs::analyze::validate_events(&rec.events).expect("trace validates");
        let samples = rec
            .events
            .iter()
            .filter(|e| matches!(e.payload, sat_obs::Payload::Sample { .. }))
            .count();
        assert!(
            samples > 0,
            "no Sample events survived in the ring (capacity too small?)"
        );
    }

    #[test]
    fn fleet_heap_slots_cycle_beyond_the_window() {
        // More processes than heap slots (752): the cyclic slot
        // assignment must keep every spawn valid, and teardown must
        // still reclaim everything.
        let opts = FleetOptions {
            rounds: 1,
            quantum_events: 8,
            ws_pages: 4,
            ..FleetOptions::new(760, 8)
        };
        let r = run_fleet(KernelConfig::shared_ptp_tlb(), opts).unwrap();
        assert_eq!(r.processes_created, 760);
        assert_eq!(r.exits, 760);
        assert_eq!(r.registry_shared_after, 0);
        assert_eq!(r.live_processes_after, 1);
        assert!(
            r.asid_rollovers >= 2,
            "760 processes must roll the ASID space"
        );
    }
}
