//! Application launch (Section 4.2.2).
//!
//! The measured window begins when the zygote child first starts
//! executing and ends right before it loads its application-specific
//! Java classes — a procedure that is *identical* across all Android
//! applications (the paper measures it with the example Helloworld
//! app). During the window the process performs several binder IPCs,
//! executes a large amount of zygote-preloaded shared code (≈1,900
//! distinct file-backed pages in the stock kernel, almost all of them
//! already resident in the page cache, so each one costs a soft
//! fault), writes library data (global initialization, the writes that
//! cost shared PTPs), and touches fresh heap pages.

use std::collections::BTreeSet;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sat_trace::{CodePage, LibId};
use sat_types::{AccessType, Perms, SatResult, VirtAddr, PAGE_SIZE};
use sat_vm::MmapRequest;

use crate::system::AndroidSystem;

/// Knobs for the launch workload.
#[derive(Clone, Copy, Debug)]
pub struct LaunchOptions {
    /// Distinct zygote-preloaded code pages executed in the window
    /// (the stock kernel takes one file fault for each; the paper saw
    /// ≈1,900).
    pub code_pages: u32,
    /// Fraction of those pages that the zygote had already populated
    /// (the remainder fault in every kernel).
    pub inherited_fraction: f64,
    /// Preloaded libraries whose data is written during launch.
    pub data_writes: u32,
    /// Heap pages written during launch.
    pub heap_pages: u32,
    /// Binder IPC round trips performed.
    pub ipcs: u32,
    /// Times the launch code is re-executed (loops in the launch
    /// path); sizes the window's non-fault work.
    pub exec_passes: u32,
    /// Cache lines fetched per page per pass.
    pub lines_per_page: u32,
}

impl LaunchOptions {
    /// Paper-calibrated sizing.
    pub fn paper() -> LaunchOptions {
        LaunchOptions {
            code_pages: 1_900,
            inherited_fraction: 0.95,
            data_writes: 22,
            heap_pages: 96,
            ipcs: 6,
            exec_passes: 30,
            lines_per_page: 16,
        }
    }

    /// Scaled-down sizing for fast tests.
    pub fn small() -> LaunchOptions {
        LaunchOptions {
            code_pages: 150,
            inherited_fraction: 0.95,
            data_writes: 6,
            heap_pages: 16,
            ipcs: 2,
            exec_passes: 3,
            lines_per_page: 4,
        }
    }
}

/// Measurements over the launch window (Figures 7-9 plus Table 4's
/// fork column).
#[derive(Clone, Copy, Debug, Default)]
pub struct LaunchReport {
    /// Zygote-fork cost in cycles (Table 4).
    pub fork_cycles: u64,
    /// Cycles spent in the launch window (Figure 7).
    pub window_cycles: u64,
    /// L1 instruction-cache stall cycles in the window (Figure 8).
    pub icache_stall_cycles: u64,
    /// File-backed-mapping page faults in the window (Figure 9).
    pub file_faults: u64,
    /// All page faults in the window.
    pub page_faults: u64,
    /// PTPs allocated for the process by the end of the window,
    /// including fork-time allocations (Figure 9).
    pub ptps_allocated: u64,
    /// PTPs attached as shared at fork.
    pub ptps_shared: u64,
    /// Instruction main-TLB stall cycles in the window.
    pub inst_tlb_stall_cycles: u64,
    /// Instructions fetched in the window.
    pub inst_fetches: u64,
}

/// The launch-common page set: which zygote-preloaded code pages the
/// (application-independent) launch procedure executes.
///
/// Deterministic in the catalog and seed, so every kernel
/// configuration replays exactly the same workload.
pub fn launch_page_set(sys: &AndroidSystem, opts: &LaunchOptions, seq: u64) -> Vec<CodePage> {
    let preload = &sys.preload;
    let mut rng = SmallRng::seed_from_u64(sys.seed ^ 0x1A07C4);
    let inherited_target = ((opts.code_pages as f64) * opts.inherited_fraction) as usize;
    let mut set: Vec<CodePage> = preload
        .choose_multiple(&mut rng, inherited_target.min(preload.len()))
        .copied()
        .collect();
    // The rest come from preloaded libraries but beyond the preload
    // set — and they differ per launch (`seq`): the tail of the launch
    // path diverges by application and run, so these pages fault in
    // every kernel (the paper's residual ~110 launch faults).
    let mut tail_rng = SmallRng::seed_from_u64(sys.seed ^ 0x7A11 ^ seq.wrapping_mul(0x9E37));
    let extra_needed = (opts.code_pages as usize).saturating_sub(set.len());
    // The pool depends on neither `seq` nor `opts`: built by the
    // system's first launch, in library then page order.
    let pool = sys.launch_tail_pool.get_or_init(|| {
        let preloaded: BTreeSet<CodePage> = preload.iter().copied().collect();
        let libs = sys.catalog.zygote_preloaded();
        let code_pages = |lib: LibId| sys.catalog.lib(lib).code_pages;
        // Sized exactly: the pool lives as long as the system.
        let total: usize = libs.iter().map(|&lib| code_pages(lib) as usize).sum();
        let mut pool = Vec::with_capacity(total.saturating_sub(preloaded.len()));
        for lib in libs {
            pool.extend(
                (0..code_pages(lib))
                    .map(|page| CodePage::Lib { lib, page })
                    .filter(|cp| !preloaded.contains(cp)),
            );
        }
        pool
    });
    set.extend(pool.choose_multiple(&mut tail_rng, extra_needed.min(pool.len())));
    set.shuffle(&mut rng);
    set
}

/// Opens a launch/IPC phase span. Every begin must be closed by
/// [`span_end`] with the same name on the same pid — `repro check`
/// validates the pairing in exported traces.
pub(crate) fn span_begin(sys: &AndroidSystem, pid: sat_types::Pid, name: &'static str) {
    if sat_obs::enabled() {
        let asid = sys
            .machine
            .kernel
            .mm(pid)
            .map(|m| m.asid.raw())
            .unwrap_or(0);
        sat_obs::emit(
            sat_obs::Subsystem::Android,
            pid.raw(),
            asid,
            sat_obs::Payload::SpanBegin {
                name: name.to_string(),
            },
        );
    }
}

/// Closes a phase span, carrying the cycles the phase consumed on
/// core 0.
pub(crate) fn span_end(sys: &AndroidSystem, pid: sat_types::Pid, name: &'static str, cycles: u64) {
    if sat_obs::enabled() {
        let asid = sys
            .machine
            .kernel
            .mm(pid)
            .map(|m| m.asid.raw())
            .unwrap_or(0);
        sat_obs::emit(
            sat_obs::Subsystem::Android,
            pid.raw(),
            asid,
            sat_obs::Payload::SpanEnd {
                name: name.to_string(),
                value: cycles,
                unit: sat_obs::SpanUnit::Cycles,
            },
        );
    }
}

/// Cycles accumulated so far on core 0 (phase-delta bookkeeping).
pub(crate) fn core0_cycles(sys: &AndroidSystem) -> u64 {
    sys.machine.cores[0].stats.cycles
}

/// The preloaded libraries whose data segments the launch procedure
/// writes (deterministic).
pub fn launch_data_libs(sys: &AndroidSystem, opts: &LaunchOptions) -> Vec<LibId> {
    let mut rng = SmallRng::seed_from_u64(sys.seed ^ 0xDA7A_1A07);
    let mut libs = sys.catalog.zygote_native.clone();
    libs.shuffle(&mut rng);
    libs.truncate(opts.data_writes as usize);
    libs
}

/// Forks an application from the zygote and executes the launch
/// window, returning its measurements. The process is left alive
/// (and not yet holding its application-specific code; call
/// [`AndroidSystem::attach_app`] afterwards to continue into
/// steady-state execution).
pub fn launch_app(
    sys: &mut AndroidSystem,
    opts: &LaunchOptions,
) -> SatResult<(sat_types::Pid, LaunchReport)> {
    let seq = sys.next_launch_seq();
    launch_app_seq(sys, opts, seq)
}

/// [`launch_app`] with an explicit launch sequence number (selects the
/// per-launch divergent tail of the code set).
pub fn launch_app_seq(
    sys: &mut AndroidSystem,
    opts: &LaunchOptions,
    seq: u64,
) -> SatResult<(sat_types::Pid, LaunchReport)> {
    let (outcome, fork_cycles) = sys.machine.fork(0, sys.zygote)?;
    let pid = outcome.child;
    sys.machine.context_switch(0, pid)?;

    // Window start: snapshot.
    let stats0 = sys.machine.cores[0].stats;
    let hier0 = sys.machine.cores[0].caches.stats();
    let faults0 = {
        let c = sys.machine.kernel.mm(pid)?.counters;
        (c.faults_file, c.faults_total)
    };

    // 1. Binder IPCs to establish the application (system services).
    let phase0 = core0_cycles(sys);
    span_begin(sys, pid, "launch.ipc");
    let binder_lib = *sys
        .catalog
        .zygote_native
        .iter()
        .find(|id| sys.catalog.lib(**id).code_pages >= 4)
        .expect("catalog has a multi-page library");
    let binder_base = sys.map.code_base(binder_lib).expect("binder lib mapped");
    for _ in 0..opts.ipcs {
        // Client side: call into libbinder.
        for p in 0..4u32 {
            sys.machine.access(
                0,
                VirtAddr::new(binder_base.raw() + p * PAGE_SIZE),
                AccessType::Execute,
            )?;
        }
        sys.machine
            .run_kernel_lines(0, sat_sim::machine::BINDER_PATH_PAGE, 160)?;
    }

    span_end(sys, pid, "launch.ipc", core0_cycles(sys) - phase0);

    // 2. Execute the launch code: `exec_passes` sweeps over the
    // launch working set. The first sweep demand-faults the pages;
    // later sweeps are the launch path's actual compute, whose
    // instruction fetches contend with the fault handler's kernel
    // code in the L1-I (Figure 8).
    let phase0 = core0_cycles(sys);
    span_begin(sys, pid, "launch.exec");
    let pages = launch_page_set(sys, opts, seq);
    for pass in 0..opts.exec_passes.max(1) {
        for cp in &pages {
            let va = sys
                .map
                .code_page_va(*cp, VirtAddr::new(0))
                .expect("launch pages are preloaded-library pages");
            let base = (pass * 7) % 128;
            for line in 0..opts.lines_per_page {
                let l = (base + line) % 128;
                sys.machine
                    .access(0, VirtAddr::new(va.raw() + l * 32), AccessType::Execute)?;
            }
        }
    }

    span_end(sys, pid, "launch.exec", core0_cycles(sys) - phase0);

    // 3. Library data writes (global initialization).
    let phase0 = core0_cycles(sys);
    span_begin(sys, pid, "launch.data");
    for lib in launch_data_libs(sys, opts) {
        let base = sys.map.data_base(lib).expect("preloaded lib mapped");
        sys.machine.access(0, base, AccessType::Write)?;
    }
    span_end(sys, pid, "launch.data", core0_cycles(sys) - phase0);

    // 4. Fresh heap pages.
    // 4MB stride keeps even a 64-app suite inside [0x3800_0000,
    // 0x4000_0000) without touching the library region.
    let phase0 = core0_cycles(sys);
    span_begin(sys, pid, "launch.heap");
    let heap_base = VirtAddr::new(0x3800_0000 + (sys.apps.len() as u32 % 32) * 0x0040_0000);
    let heap = MmapRequest::anon(
        opts.heap_pages * PAGE_SIZE,
        Perms::RW,
        sat_types::RegionTag::Heap,
        "[anon:launch-heap]",
    )
    .at(heap_base);
    sys.machine.syscall(|k, tlb| k.mmap(pid, &heap, tlb))?;
    for p in 0..opts.heap_pages {
        sys.machine.access(
            0,
            VirtAddr::new(heap_base.raw() + p * PAGE_SIZE),
            AccessType::Write,
        )?;
    }

    span_end(sys, pid, "launch.heap", core0_cycles(sys) - phase0);

    // Window end: harvest.
    let stats1 = sys.machine.cores[0].stats;
    let hier1 = sys.machine.cores[0].caches.stats();
    let counters = sys.machine.kernel.mm(pid)?.counters;
    Ok((
        pid,
        LaunchReport {
            fork_cycles,
            window_cycles: stats1.cycles - stats0.cycles,
            icache_stall_cycles: hier1.inst_stall_cycles - hier0.inst_stall_cycles,
            file_faults: counters.faults_file - faults0.0,
            page_faults: counters.faults_total - faults0.1,
            ptps_allocated: counters.ptps_allocated,
            ptps_shared: outcome.ptps_shared,
            inst_tlb_stall_cycles: stats1.inst_main_tlb_stall_cycles
                - stats0.inst_main_tlb_stall_cycles,
            inst_fetches: stats1.inst_fetches - stats0.inst_fetches,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LibraryLayout;
    use crate::system::BootOptions;
    use sat_core::KernelConfig;
    use sat_trace::zygote_preload_pages;

    fn boot(config: KernelConfig, layout: LibraryLayout) -> AndroidSystem {
        AndroidSystem::boot(config, layout, 1, 1, BootOptions::small()).unwrap()
    }

    /// [`launch_page_set`] as it was when every launch rebuilt the
    /// preload list, its set and the tail pool: the specification the
    /// cached form must match element for element.
    fn launch_page_set_uncached(
        sys: &AndroidSystem,
        opts: &LaunchOptions,
        seq: u64,
    ) -> Vec<CodePage> {
        let preload = zygote_preload_pages(&sys.catalog, sys.opts().preload_pages);
        let mut rng = SmallRng::seed_from_u64(sys.seed ^ 0x1A07C4);
        let inherited_target = ((opts.code_pages as f64) * opts.inherited_fraction) as usize;
        let mut set: Vec<CodePage> = preload
            .choose_multiple(&mut rng, inherited_target.min(preload.len()))
            .copied()
            .collect();
        let mut tail_rng = SmallRng::seed_from_u64(sys.seed ^ 0x7A11 ^ seq.wrapping_mul(0x9E37));
        let extra_needed = (opts.code_pages as usize).saturating_sub(set.len());
        let preload_lookup: BTreeSet<CodePage> = preload.into_iter().collect();
        let mut pool: Vec<CodePage> = Vec::new();
        for &lib in &sys.catalog.zygote_preloaded() {
            let pages = sys.catalog.lib(lib).code_pages;
            for page in 0..pages {
                let cp = CodePage::Lib { lib, page };
                if !preload_lookup.contains(&cp) {
                    pool.push(cp);
                }
            }
        }
        set.extend(pool.choose_multiple(&mut tail_rng, extra_needed.min(pool.len())));
        set.shuffle(&mut rng);
        set
    }

    #[test]
    fn cached_launch_set_matches_the_per_launch_rebuild() {
        for seed in [1, 7] {
            let sys = AndroidSystem::boot(
                KernelConfig::stock(),
                LibraryLayout::Original,
                seed,
                3,
                BootOptions::small(),
            )
            .unwrap();
            // Both sizings, interleaved: the cached pool serves every
            // `opts`, not just the first launch's.
            for seq in 0..8 {
                for opts in [LaunchOptions::small(), LaunchOptions::paper()] {
                    assert_eq!(
                        launch_page_set(&sys, &opts, seq),
                        launch_page_set_uncached(&sys, &opts, seq),
                        "seed {seed} seq {seq} code_pages {}",
                        opts.code_pages
                    );
                }
            }
        }
    }

    #[test]
    fn launch_set_is_deterministic_and_mostly_inherited() {
        let sys = boot(KernelConfig::stock(), LibraryLayout::Original);
        let opts = LaunchOptions::small();
        let a = launch_page_set(&sys, &opts, 0);
        let b = launch_page_set(&sys, &opts, 0);
        assert_eq!(a, b);
        assert_eq!(a.len(), opts.code_pages as usize);
        let preload: BTreeSet<CodePage> =
            zygote_preload_pages(&sys.catalog, sys.opts().preload_pages)
                .into_iter()
                .collect();
        let inherited = a.iter().filter(|p| preload.contains(p)).count();
        let frac = inherited as f64 / a.len() as f64;
        assert!(
            (frac - opts.inherited_fraction).abs() < 0.05,
            "inherited {frac}"
        );
    }

    #[test]
    fn shared_kernel_eliminates_most_launch_faults() {
        let mut stock = boot(KernelConfig::stock(), LibraryLayout::Original);
        let mut shared = boot(KernelConfig::shared_ptp(), LibraryLayout::Original);
        let opts = LaunchOptions::small();
        let (_, r_stock) = launch_app(&mut stock, &opts).unwrap();
        let (_, r_shared) = launch_app(&mut shared, &opts).unwrap();
        // Figure 9: ≈94% fewer file faults.
        assert!(
            (r_shared.file_faults as f64) < 0.35 * r_stock.file_faults as f64,
            "shared {} vs stock {}",
            r_shared.file_faults,
            r_stock.file_faults
        );
        // Figure 7: the launch window is faster.
        assert!(r_shared.window_cycles < r_stock.window_cycles);
        // Figure 8: fewer instruction-cache stalls (less kernel code).
        assert!(r_shared.icache_stall_cycles < r_stock.icache_stall_cycles);
        // Table 4: the fork is cheaper.
        assert!(r_shared.fork_cycles < r_stock.fork_cycles);
        // Figure 9: far fewer PTPs allocated.
        assert!(r_shared.ptps_allocated < r_stock.ptps_allocated);
    }

    #[test]
    fn aligned_layout_keeps_more_ptps_shared_through_launch() {
        let mut orig = boot(KernelConfig::shared_ptp(), LibraryLayout::Original);
        let mut aligned = boot(KernelConfig::shared_ptp(), LibraryLayout::Aligned2Mb);
        let opts = LaunchOptions::small();
        let (pid_o, _) = launch_app(&mut orig, &opts).unwrap();
        let (pid_a, _) = launch_app(&mut aligned, &opts).unwrap();
        let (shared_o, total_o) = orig.machine.kernel.ptp_share_snapshot(pid_o).unwrap();
        let (shared_a, total_a) = aligned.machine.kernel.ptp_share_snapshot(pid_a).unwrap();
        let frac_o = shared_o as f64 / total_o as f64;
        let frac_a = shared_a as f64 / total_a as f64;
        assert!(
            frac_a > frac_o,
            "aligned {frac_a:.2} ({shared_a}/{total_a}) vs original {frac_o:.2} ({shared_o}/{total_o})"
        );
    }
}
