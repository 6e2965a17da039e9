//! The binder-served request workload: bursty open-loop arrivals over
//! a pool of server processes, with per-request critical-path cycle
//! attribution (the `repro serve` / `repro tails` experiment).
//!
//! N servers forked from the zygote are pinned to home cores. Requests
//! arrive in deterministic bursts regardless of completion (open
//! loop), queue per server, and are serviced in preemptible quanta —
//! a request that outlives its quantum waits while siblings on the
//! same core run. Every cycle the machine charges while a request is
//! being serviced is tagged with its `FlowId` by the simulator's
//! instrumented charge sites; the driver fills the gaps (arrival→first
//! service, preemption→resume) with explicit `RunqWait` charges
//! measured as home-core cycle deltas. The two bookkeeping schemes
//! meet exactly: for every completed request, the sum of its charges
//! equals its wall time, with no tolerance — the invariant the
//! `analyze::FlowTable` reconciliation and this crate's property tests
//! assert on lossless traces.

use std::collections::VecDeque;

use sat_android::{AndroidSystem, BootOptions, LibraryLayout};
use sat_core::KernelConfig;
use sat_sim::machine::Core;
use sat_types::{AccessType, Pid, SatError, SatResult, VirtAddr, PAGE_SIZE};

use crate::{spawn_zygote_child, Rng64, Task, SCHED_HEAP_PAGES};

/// Sizing for one serve run.
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Server processes (each pinned to core `slot % cores`).
    pub servers: usize,
    /// Cores the servers share.
    pub cores: usize,
    /// Total requests the open-loop source issues.
    pub requests: usize,
    /// Largest burst the source emits at once.
    pub burst_max: usize,
    /// Scheduling rounds between bursts.
    pub burst_every: usize,
    /// Smallest per-request service demand (working-set accesses).
    pub work_min: usize,
    /// Additional demand drawn per request (`rng.below`), so request
    /// sizes — and therefore the tail — vary deterministically.
    pub work_spread: usize,
    /// Accesses a request may run before it can be preempted.
    pub quantum: usize,
    /// Library code pages in each server's working set.
    pub ws_pages: usize,
    /// Idle servers exited and re-forked over the run (0 disables the
    /// fork churn).
    pub churn: usize,
    /// Workload seed.
    pub seed: u64,
    /// Physical-frame budget installed before the servers fork
    /// (`None` leaves memory uncapped). A finite budget arms the
    /// kernel's reclaim path: allocations that cross the low watermark
    /// trigger LRU eviction of file page-cache frames, tearing the
    /// PTEs that map them — through the shared PTP when one exists —
    /// and the serve working set refaults them on next touch.
    pub mem_frames: Option<u64>,
}

impl ServeOptions {
    /// Defaults for `servers` server processes on four cores.
    pub fn new(servers: usize) -> ServeOptions {
        ServeOptions {
            servers,
            cores: 4,
            requests: 96,
            burst_max: 5,
            burst_every: 2,
            work_min: 120,
            work_spread: 260,
            quantum: 90,
            ws_pages: 32,
            churn: 0,
            seed: 1,
            mem_frames: None,
        }
    }
}

/// What a serve run measured: the full sorted request-latency
/// distribution plus the machine counters the per-cause charge totals
/// reconcile against.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Servers the run was configured with.
    pub servers: usize,
    /// Requests completed (equals the configured count — the run
    /// drains).
    pub requests: u64,
    /// Processes created (initial servers + churn replacements).
    pub processes_created: u64,
    /// Service quanta that ended with the request still unfinished.
    pub preempted_quanta: u64,
    /// Nearest-rank latency percentiles over `walls`, in cycles.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// The slowest request.
    pub max_wall: u64,
    /// Cycles accumulated across all cores during the serve phase.
    pub total_cycles: u64,
    /// Page faults taken.
    pub page_faults: u64,
    /// Context switches performed.
    pub context_switches: u64,
    /// Instruction-fetch main-TLB stall cycles.
    pub inst_tlb_stall: u64,
    /// Data-access main-TLB stall cycles.
    pub data_tlb_stall: u64,
    /// Shootdown IPIs delivered to remote cores.
    pub shootdown_ipis: u64,
    /// Main-TLB hits on another process's global entry.
    pub cross_asid_hits: u64,
    /// PTPs unshared during the run (shared kernels only).
    pub ptp_unshares: u64,
    /// ASID-space rollovers.
    pub asid_rollovers: u64,
    /// Reclaim passes the kernel ran (0 when `mem_frames` is unset).
    pub reclaims: u64,
    /// File page-cache frames those passes evicted.
    pub reclaimed_pages: u64,
    /// Private PTEs reclaim tore while freeing victims.
    pub reclaim_pte_tears: u64,
    /// Shared-PTP slots reclaim tore — each tear repairs every
    /// sharer of the PTP at once.
    pub reclaim_shared_tears: u64,
    /// Page-cache misses that re-read a previously evicted page.
    pub refaults: u64,
    /// Allocations that crossed the low watermark.
    pub low_watermark_hits: u64,
    /// Lowest (budget-relative) free-frame count the run observed.
    pub free_low_water: u64,
    /// Highest frames-in-use the run reached, boot included — the
    /// uncapped peak the pressure experiment derives budgets from.
    pub frames_peak: u64,
    /// Every completed request's wall time in home-core cycles,
    /// ascending.
    pub walls: Vec<u64>,
}

/// One in-flight request.
struct Request {
    flow: u32,
    work_left: usize,
    /// Home-core cycle stamp at arrival (wall-clock origin).
    arrived_at: u64,
    started: bool,
    /// Home-core cycle stamp when the last quantum ended.
    suspended_at: u64,
}

/// One server slot: the pid currently filling it (churn replaces it),
/// its home core, workload state, and pending-request queue.
struct Slot {
    pid: Pid,
    core: usize,
    task: Task,
    /// Zygote-inherited library data pages this server's requests
    /// write (COW under stock, PTP unshares under sharing).
    data: Vec<VirtAddr>,
    data_cursor: usize,
    queue: VecDeque<Request>,
}

/// The serve simulation: an [`AndroidSystem`] grown to `opts.cores`
/// cores and a pool of server slots with per-slot request queues.
pub struct ServeSim {
    pub sys: AndroidSystem,
    slots: Vec<Slot>,
    rng: Rng64,
    opts: ServeOptions,
    /// Processes created so far (spawns, not counting the zygote).
    pub processes_created: u64,
    next_flow: u32,
    arrivals_issued: usize,
    /// Arrival round-robin over slots.
    next_arrival_slot: usize,
    /// Per-core rotation over that core's slots.
    service_rr: Vec<usize>,
    walls: Vec<u64>,
    preempted_quanta: u64,
    churned: usize,
    sampler: sat_obs::Sampler,
}

/// A [`ServeSim`]'s gauges: every layer's plus per-slot queue depths.
/// A function of the two fields, so the sampler can be borrowed beside
/// them.
fn publish_gauges(sys: &AndroidSystem, slots: &[Slot]) {
    sys.machine.publish_gauges();
    for (i, slot) in slots.iter().enumerate() {
        sat_obs::gauge_set(&format!("serve.queue.s{i}"), slot.queue.len() as u64);
    }
}

impl ServeSim {
    /// Boots a system under `config` and forks `opts.servers` servers,
    /// pinned round-robin to cores.
    pub fn boot(config: KernelConfig, opts: ServeOptions) -> SatResult<ServeSim> {
        assert!(opts.cores >= 1 && opts.servers >= 1);
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
        // Install the frame budget before any server forks, so memory
        // pressure (and therefore reclaim) covers the whole serve
        // lifecycle — spawn, warm-up, and the measured phase alike.
        if opts.mem_frames.is_some() {
            sys.machine.kernel.set_frame_budget(opts.mem_frames);
        }
        let mut sim = ServeSim {
            sys,
            slots: Vec::new(),
            rng: Rng64::new(opts.seed ^ 0x5E57),
            opts,
            processes_created: 0,
            next_flow: 1,
            arrivals_issued: 0,
            next_arrival_slot: 0,
            service_rr: vec![0; opts.cores],
            walls: Vec::new(),
            preempted_quanta: 0,
            churned: 0,
            sampler: sat_obs::Sampler::new(1),
        };
        for i in 0..opts.servers {
            let core = i % opts.cores;
            let (pid, task, data) = sim.spawn_server(core)?;
            sim.slots.push(Slot {
                pid,
                core,
                task,
                data,
                data_cursor: 0,
                queue: VecDeque::new(),
            });
        }
        sim.sample_now();
        Ok(sim)
    }

    /// Forks one server from the zygote on `core` and builds its
    /// working set (preloaded-library code pages plus a private heap).
    /// Its data pages are each drawn library's first data page — the
    /// one the zygote relocated, so children inherit it copy-on-write.
    fn spawn_server(&mut self, core: usize) -> SatResult<(Pid, Task, Vec<VirtAddr>)> {
        let (pid, task, drawn) = spawn_zygote_child(
            &mut self.sys,
            &mut self.rng,
            self.opts.ws_pages,
            self.processes_created,
            core,
            "[anon:serve-heap]",
        )?;
        self.processes_created += 1;
        let preloaded = self.sys.catalog.zygote_preloaded();
        let data = drawn
            .into_iter()
            .map(|idx| self.sys.map.data_base(preloaded[idx]))
            .collect::<Option<_>>()
            .ok_or(SatError::InvalidArgument)?;
        Ok((pid, task, data))
    }

    /// Emits one off-clock gauge sample.
    pub fn sample_now(&mut self) {
        self.sampler
            .sample_now(|| publish_gauges(&self.sys, &self.slots));
    }

    /// Issues this round's burst, if one is due: requests are assigned
    /// round-robin to slots, stamped with their home core's current
    /// cycle count, and announced with a `FlowArrive`.
    fn arrive(&mut self, round: u64) {
        if self.arrivals_issued >= self.opts.requests {
            return;
        }
        if !round.is_multiple_of(self.opts.burst_every.max(1) as u64) {
            return;
        }
        let burst = (1 + self.rng.below(self.opts.burst_max.max(1) as u64) as usize)
            .min(self.opts.requests - self.arrivals_issued);
        for _ in 0..burst {
            let slot_idx = self.next_arrival_slot % self.slots.len();
            let slot = &mut self.slots[slot_idx];
            self.next_arrival_slot += 1;
            let flow = self.next_flow;
            self.next_flow += 1;
            self.arrivals_issued += 1;
            let work =
                self.opts.work_min + self.rng.below(self.opts.work_spread.max(1) as u64) as usize;
            let arrived_at = self.sys.machine.cores[slot.core].stats.cycles;
            if sat_obs::enabled() && sat_obs::flow_tracing() {
                sat_obs::emit(
                    sat_obs::Subsystem::Sched,
                    slot.pid.raw(),
                    0,
                    sat_obs::Payload::FlowArrive { flow },
                );
            }
            slot.queue.push_back(Request {
                flow,
                work_left: work,
                arrived_at,
                started: false,
                suspended_at: 0,
            });
        }
    }

    /// Runs one preemptible service quantum of `slot`'s front request.
    ///
    /// The charge protocol keeps per-request attribution exact:
    /// - First service: `context_switch` first (its cost predates the
    ///   binding, so it lands unattributed), then bind the flow and
    ///   charge `RunqWait` for everything since arrival — including
    ///   that switch — then binder ingress.
    /// - Resume: stamp *before* the switch, so the `RunqWait` gap ends
    ///   where the (now flow-attributed) switch work begins.
    /// - Preemption: stamp the suspension and park the core's flow, so
    ///   cycles until the next switch-in are not double-counted.
    fn service_quantum(&mut self, slot_idx: usize) -> SatResult<()> {
        let (pid, core, flow, started, arrived_at, suspended_at) = {
            let slot = &self.slots[slot_idx];
            let req = slot.queue.front().expect("caller checked queue");
            (
                slot.pid,
                slot.core,
                req.flow,
                req.started,
                req.arrived_at,
                req.suspended_at,
            )
        };
        if !started {
            self.sys.machine.context_switch(core, pid)?;
            let now = self.sys.machine.cores[core].stats.cycles;
            sat_obs::flow_bind(core, pid.raw(), flow);
            sat_obs::charge(core, sat_obs::ChargeCause::RunqWait, now - arrived_at);
            self.slots[slot_idx]
                .queue
                .front_mut()
                .expect("still front")
                .started = true;
            sat_android::ipc::request_ingress(&mut self.sys, core, pid, flow)?;
        } else {
            let waited_until = self.sys.machine.cores[core].stats.cycles;
            self.sys.machine.context_switch(core, pid)?;
            sat_obs::charge(
                core,
                sat_obs::ChargeCause::RunqWait,
                waited_until - suspended_at,
            );
        }

        // The service body: walk the code working set with periodic
        // heap writes (first writes fault — COW under stock, unshare
        // under shared PTPs — so the blame taxonomy shows up in real
        // requests, not synthetic events).
        let done = {
            let ServeSim {
                slots, sys, opts, ..
            } = self;
            let slot = &mut slots[slot_idx];
            let req = slot.queue.front_mut().expect("still front");
            let steps = req.work_left.min(opts.quantum.max(1));
            let task = &mut slot.task;
            let machine = &mut sys.machine;
            for i in 0..steps {
                let va = task.code[task.cursor % task.code.len()];
                task.cursor += 1;
                machine.access(core, va, AccessType::Execute)?;
                if i % 16 == 15 {
                    let va = VirtAddr::new(
                        task.heap.raw() + (task.heap_cursor % SCHED_HEAP_PAGES) * PAGE_SIZE,
                    );
                    task.heap_cursor += 1;
                    machine.access(core, va, AccessType::Write)?;
                }
                if i % 48 == 47 {
                    let va = slot.data[slot.data_cursor % slot.data.len()];
                    slot.data_cursor += 1;
                    machine.access(core, va, AccessType::Write)?;
                }
            }
            req.work_left -= steps;
            req.work_left == 0
        };

        if done {
            let wall =
                sat_android::ipc::request_egress(&mut self.sys, core, pid, flow, arrived_at)?;
            sat_obs::flow_unbind(pid.raw());
            self.walls.push(wall);
            self.slots[slot_idx].queue.pop_front();
        } else {
            let now = self.sys.machine.cores[core].stats.cycles;
            self.slots[slot_idx]
                .queue
                .front_mut()
                .expect("still front")
                .suspended_at = now;
            self.preempted_quanta += 1;
            sat_obs::flow_park(core);
        }
        Ok(())
    }

    /// Exits an idle server (empty queue) and forks a replacement into
    /// its slot — the fork churn a real fleet sees. No-op when every
    /// server has work.
    fn churn_once(&mut self) -> SatResult<bool> {
        let Some(idx) = (0..self.slots.len())
            .map(|i| (i + self.churned) % self.slots.len())
            .find(|&i| self.slots[i].queue.is_empty())
        else {
            return Ok(false);
        };
        let (victim, core) = (self.slots[idx].pid, self.slots[idx].core);
        self.sys
            .machine
            .syscall_on(core, |k, tlb| k.exit(victim, tlb))?;
        let (pid, task, data) = self.spawn_server(core)?;
        self.slots[idx].pid = pid;
        self.slots[idx].task = task;
        self.slots[idx].data = data;
        self.slots[idx].data_cursor = 0;
        self.churned += 1;
        Ok(true)
    }

    /// Runs the open-loop schedule to completion: every request
    /// arrives on its burst round and every one is served to its
    /// reply. Errs (rather than spinning) if the schedule cannot
    /// drain.
    pub fn run(&mut self) -> SatResult<()> {
        let max_rounds = (self.opts.requests as u64 + 4) * 64;
        let mut round = 0u64;
        loop {
            self.arrive(round);
            for core in 0..self.opts.cores {
                // Rotate over this core's slots; serve the first with
                // a pending request.
                let on_core: Vec<usize> = (0..self.slots.len())
                    .filter(|&i| self.slots[i].core == core)
                    .collect();
                if on_core.is_empty() {
                    continue;
                }
                let start = self.service_rr[core];
                self.service_rr[core] = self.service_rr[core].wrapping_add(1);
                let Some(&idx) = (0..on_core.len())
                    .map(|k| &on_core[(start + k) % on_core.len()])
                    .find(|&&i| !self.slots[i].queue.is_empty())
                else {
                    continue;
                };
                self.service_quantum(idx)?;
            }
            if self.opts.churn > self.churned && round.is_multiple_of(3) {
                self.churn_once()?;
            }
            self.sampler.tick(|| publish_gauges(&self.sys, &self.slots));
            round += 1;
            let drained = self.arrivals_issued >= self.opts.requests
                && self.slots.iter().all(|s| s.queue.is_empty());
            if drained {
                return Ok(());
            }
            if round > max_rounds {
                return Err(SatError::Internal("serve schedule did not drain"));
            }
        }
    }

    /// Harvests the run's counters and the latency distribution.
    pub fn report(&self) -> ServeReport {
        let mut walls = self.walls.clone();
        walls.sort_unstable();
        let (p50, p95, p99, max_wall) = if walls.is_empty() {
            (0, 0, 0, 0)
        } else {
            (
                sat_obs::analyze::nearest_rank(&walls, 50.0),
                sat_obs::analyze::nearest_rank(&walls, 95.0),
                sat_obs::analyze::nearest_rank(&walls, 99.0),
                *walls.last().expect("non-empty"),
            )
        };
        let m = &self.sys.machine;
        let phys = m.kernel.phys.stats();
        let mut r = ServeReport {
            servers: self.opts.servers,
            requests: walls.len() as u64,
            processes_created: self.processes_created,
            preempted_quanta: self.preempted_quanta,
            p50,
            p95,
            p99,
            max_wall,
            ptp_unshares: m.kernel.stats.ptp_unshares,
            asid_rollovers: m.kernel.stats.asid_rollovers,
            reclaims: m.kernel.stats.reclaims,
            reclaimed_pages: m.kernel.stats.reclaim_pages,
            reclaim_pte_tears: m.kernel.stats.reclaim_pte_tears,
            reclaim_shared_tears: m.kernel.stats.reclaim_shared_tears,
            refaults: phys.refaults,
            low_watermark_hits: phys.low_watermark_hits,
            free_low_water: phys.free_low_water,
            frames_peak: phys.high_water,
            walls,
            ..ServeReport::default()
        };
        for c in &m.cores {
            r.total_cycles += c.stats.cycles;
            r.page_faults += c.stats.page_faults;
            r.context_switches += c.stats.context_switches;
            r.inst_tlb_stall += c.stats.inst_main_tlb_stall_cycles;
            r.data_tlb_stall += c.stats.data_main_tlb_stall_cycles;
            r.shootdown_ipis += c.stats.tlb_shootdown_ipis;
            r.cross_asid_hits += c.main_tlb.stats().cross_asid_hits;
        }
        r
    }
}

/// Boots, runs, and reports one serve experiment — the `repro serve`
/// cell body.
///
/// The hardware counters (and so the latency clock) are reset after
/// boot, and cycle-charge attribution is switched on for exactly the
/// measured phase when a recorder is installed — which is what makes
/// the global books balance: every post-reset cycle on every core is
/// charged exactly once (requests' direct charges plus the flow-0
/// unattributed bucket), so `FlowTable` totals reconcile against
/// `CoreStats` with `assert_eq`, no tolerance.
pub fn run_serve(config: KernelConfig, opts: ServeOptions) -> SatResult<ServeReport> {
    let mut sim = ServeSim::boot(config, opts)?;
    sim.sys.machine.reset_hw_stats();
    let was_tracing = sat_obs::flow_tracing();
    if sat_obs::enabled() {
        sat_obs::set_flow_tracing(true);
    }
    let out = sim.run();
    sim.sample_now();
    sat_obs::set_flow_tracing(was_tracing);
    out?;
    Ok(sim.report())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_drains_and_is_deterministic() {
        let opts = ServeOptions::new(6);
        let a = run_serve(KernelConfig::stock(), opts).unwrap();
        let b = run_serve(KernelConfig::stock(), opts).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.requests, opts.requests as u64);
        assert_eq!(a.walls.len(), opts.requests);
        assert!(
            a.preempted_quanta > 0,
            "quanta should preempt long requests"
        );
        assert!(a.p50 <= a.p95 && a.p95 <= a.p99 && a.p99 <= a.max_wall);
    }

    #[test]
    fn shared_serve_drains_and_unshares_on_heap_writes() {
        let s = run_serve(KernelConfig::shared_ptp_tlb(), ServeOptions::new(6)).unwrap();
        assert_eq!(s.requests, 96);
        assert!(s.ptp_unshares > 0, "heap writes must trigger unsharing");
    }

    #[test]
    fn churn_replaces_idle_servers() {
        let mut opts = ServeOptions::new(4);
        opts.churn = 3;
        let r = run_serve(KernelConfig::stock(), opts).unwrap();
        assert_eq!(r.processes_created, 4 + 3);
        assert_eq!(r.requests, opts.requests as u64);
    }

    #[test]
    fn pressure_serve_reclaims_refaults_and_stays_deterministic() {
        // Derive a tight budget from the uncapped run's peak
        // footprint, then rerun under it: reclaim must engage, evict
        // file pages, and see them refault — and the run must still
        // drain every request, deterministically.
        let mut opts = ServeOptions::new(4);
        let uncapped = run_serve(KernelConfig::shared_ptp_tlb(), opts).unwrap();
        assert_eq!(uncapped.reclaims, 0, "no budget, no reclaim");
        assert!(uncapped.frames_peak > 0);

        opts.mem_frames = Some(uncapped.frames_peak * 3 / 4);
        let mut sim = ServeSim::boot(KernelConfig::shared_ptp_tlb(), opts).unwrap();
        sim.sys.machine.reset_hw_stats();
        sim.run().unwrap();
        let a = sim.report();
        let b = run_serve(KernelConfig::shared_ptp_tlb(), opts).unwrap();
        assert_eq!(a, b, "budgeted serve must stay deterministic");
        assert_eq!(a.requests, opts.requests as u64, "run must drain");
        assert!(a.reclaims > 0, "a 3/4-peak budget must force reclaim");
        assert!(a.reclaimed_pages > 0, "reclaim must evict file pages");
        assert!(a.refaults > 0, "evicted working-set pages must refault");
        assert!(
            a.low_watermark_hits > 0,
            "allocs must cross the low watermark"
        );
        assert!(
            a.reclaim_shared_tears > 0,
            "shared working-set pages must be torn through the shared PTP"
        );
        // The budget slows the tail; it must never change the work.
        assert!(
            a.p99 >= uncapped.p99,
            "pressure cannot make the tail faster"
        );
        // Every tear took the entry it was filed under, and what the
        // run left behind is still filed under its true owner.
        let kernel = &sim.sys.machine.kernel;
        kernel.phys.rmap_verify().unwrap();
        kernel.verify_rmap_ownership().unwrap();
    }

    #[test]
    fn uncapped_report_is_reclaim_free_and_unchanged_by_the_new_fields() {
        // `mem_frames: None` must leave the pre-existing serve
        // behaviour untouched: zero in every reclaim counter.
        let r = run_serve(KernelConfig::stock(), ServeOptions::new(4)).unwrap();
        assert_eq!(r.reclaims, 0);
        assert_eq!(r.reclaimed_pages, 0);
        assert_eq!(r.reclaim_pte_tears, 0);
        assert_eq!(r.reclaim_shared_tears, 0);
        assert_eq!(r.refaults, 0);
        assert_eq!(r.low_watermark_hits, 0);
        assert!(r.frames_peak > 0, "peak tracking is unconditional");
    }

    #[test]
    fn serve_untraced_output_matches_traced_counters() {
        // The flow-tracing gate must be observation-only: booting a
        // recorder (and therefore emitting CycleCharge events) cannot
        // change what the machine does.
        let opts = ServeOptions::new(5);
        let plain = run_serve(KernelConfig::shared_ptp_tlb(), opts).unwrap();
        sat_obs::install(1 << 20);
        let traced = run_serve(KernelConfig::shared_ptp_tlb(), opts).unwrap();
        sat_obs::uninstall();
        assert_eq!(plain, traced);
    }
}
