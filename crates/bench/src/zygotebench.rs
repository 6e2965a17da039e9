//! Zygote-fork experiments: Table 3, Table 4, and the soft-fault
//! latency anchor (Section 4.2.1).

use sat_android::{AndroidSystem, LibraryLayout};
use sat_core::{Kernel, KernelConfig};
use sat_sim::Machine;
use sat_trace::{app_specs, AppProfile};
use sat_types::{AccessType, Perms, RegionTag, SatResult, VaRange, VirtAddr, PAGE_SIZE};
use sat_vm::MmapRequest;

use crate::motivation::SEED;
use crate::render::{count, Table};
use crate::Scale;

/// Table 4: zygote fork performance under the three kernels.
pub fn table4(scale: Scale) -> SatResult<String> {
    let mut t = Table::new(
        "Table 4: zygote fork performance",
        &[
            "Kernel",
            "Execution cycles (x10^6)",
            "# PTPs allocated",
            "# shared PTPs",
            "# PTEs copied",
        ],
    );
    let configs = [
        ("Shared PTPs", KernelConfig::shared_ptp()),
        ("Stock Android", KernelConfig::stock()),
        ("Copied PTEs", KernelConfig::copied_ptes()),
    ];
    let mut cycles_by_label = Vec::new();
    for (label, config) in configs {
        let mut sys = crate::boot(config, LibraryLayout::Original, scale)?;
        let (outcome, cycles) = sys.machine.fork(0, sys.zygote)?;
        cycles_by_label.push((label, cycles));
        t.row(vec![
            label.to_string(),
            format!("{:.1}", cycles as f64 / 1e6),
            count(outcome.ptps_allocated),
            count(outcome.ptps_shared),
            count(outcome.ptes_copied),
        ]);
    }
    let mut out = t.render();
    let shared = cycles_by_label[0].1 as f64;
    let stock = cycles_by_label[1].1 as f64;
    let copied = cycles_by_label[2].1 as f64;
    out.push_str(&format!(
        "Fork speedup with shared PTPs: {:.1}x (paper: 2.1x); Copied-PTEs slowdown: +{:.1}% (paper: +58.6%)\n\n",
        stock / shared,
        100.0 * (copied / stock - 1.0),
    ));
    Ok(out)
}

/// Builds the per-app profiles, shrunk at quick scale.
pub fn profiles(sys: &AndroidSystem, scale: Scale) -> Vec<AppProfile> {
    app_specs()
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let mut spec = spec.clone();
            if scale == Scale::Quick {
                spec.footprint_pages = 300;
            }
            AppProfile::generate(&sys.catalog, &spec, i, SEED)
        })
        .collect()
}

/// Counts how many of `profile`'s zygote-preloaded code pages already
/// have a PTE in `pid`'s page tables.
fn inherited_ptes(
    sys: &mut AndroidSystem,
    pid: sat_types::Pid,
    profile: &AppProfile,
) -> SatResult<u64> {
    let mut n = 0;
    for page in profile.zygote_preloaded_pages() {
        let va = sys
            .map
            .code_page_va(page, VirtAddr::new(0))
            .expect("zygote-preloaded page has a mapping");
        if sys.machine.kernel.pte(pid, va)?.is_some() {
            n += 1;
        }
    }
    Ok(n)
}

/// Table 3: instruction PTEs inherited from the zygote with shared
/// PTPs, for a cold start (first run ever) and a warm start
/// (reinvocation after the first instantiation).
pub fn table3(scale: Scale) -> SatResult<String> {
    let mut sys = crate::boot(KernelConfig::shared_ptp(), LibraryLayout::Original, scale)?;
    let profiles = profiles(&sys, scale);

    // Cold pass: fork, count, exit — before any application has run.
    let mut cold = Vec::new();
    for p in &profiles {
        let (outcome, _) = sys.machine.fork(0, sys.zygote)?;
        cold.push(inherited_ptes(&mut sys, outcome.child, p)?);
        sys.machine.exit(0, outcome.child)?;
    }

    // Warm pass: run each application once (touch its preloaded
    // pages, populating the shared PTPs), exit it, then fork again
    // and count.
    let mut warm = Vec::new();
    for p in &profiles {
        let (outcome, _) = sys.machine.fork(0, sys.zygote)?;
        sys.machine.context_switch(0, outcome.child)?;
        for page in p.zygote_preloaded_pages() {
            let va = sys
                .map
                .code_page_va(page, VirtAddr::new(0))
                .expect("mapped");
            sys.machine.access(0, va, AccessType::Execute)?;
        }
        sys.machine.exit(0, outcome.child)?;
        // Relaunch.
        let (outcome2, _) = sys.machine.fork(0, sys.zygote)?;
        warm.push(inherited_ptes(&mut sys, outcome2.child, p)?);
        sys.machine.exit(0, outcome2.child)?;
    }

    let mut t = Table::new(
        "Table 3: instruction PTEs inherited from the zygote (shared PTPs)",
        &["Benchmark", "Cold start (x10^2)", "Warm start (x10^2)"],
    );
    for ((p, c), w) in profiles.iter().zip(&cold).zip(&warm) {
        t.row(vec![
            p.spec.name.to_string(),
            format!("{:.1}", *c as f64 / 100.0),
            format!("{:.0}", *w as f64 / 100.0),
        ]);
    }
    let mut out = t.render();
    out.push_str("Paper range: cold 6.4-23.0 (x10^2), warm 10-59 (x10^2)\n\n");
    Ok(out)
}

/// The LMbench `lat_pagefault` anchor.
///
/// The paper anchors its soft-fault cost at ≈2.25µs (2,700 cycles at
/// 1.2GHz), measured with LMbench. [`measure_soft_fault_cycles`]
/// reproduces the measurement on the simulated machine: map a file,
/// touch every page (warming the page cache), unmap, remap, and touch
/// again — every second-pass fault is soft.
pub fn latfault(scale: Scale) -> SatResult<String> {
    let pages = match scale {
        Scale::Paper => 2_048,
        Scale::Quick => 256,
    };
    let (mean, faults) = measure_soft_fault_cycles(pages)?;
    Ok(format!(
        "## Soft page-fault latency (lat_pagefault analogue)\n\n\
         {faults} soft faults, mean {mean:.0} cycles ≈ {:.2}us at 1.2GHz \
         (paper: ~2,700 cycles / 2.25us)\n\n",
        mean / 1.2e3
    ))
}

/// Measures the mean cycles per soft (minor) page fault over `pages`
/// faults, LMbench-style. Returns `(mean_cycles, faults_measured)`.
pub fn measure_soft_fault_cycles(pages: u32) -> SatResult<(f64, u64)> {
    let mut kernel = Kernel::new(KernelConfig::stock(), 4 * pages + 4096);
    let file = kernel
        .files
        .register("lat_pagefault.dat", pages * PAGE_SIZE);
    let pid = kernel.create_process()?;
    let mut m = Machine::single_core(kernel);
    m.context_switch(0, pid)?;

    let req = MmapRequest::file(
        pages * PAGE_SIZE,
        Perms::R,
        file,
        0,
        RegionTag::AppData,
        "lat_pagefault.dat",
    );
    let addr = m.mmap(0, pid, &req)?;

    // Pass 1: hard faults warm the page cache.
    for i in 0..pages {
        m.access(
            0,
            VirtAddr::new(addr.raw() + i * PAGE_SIZE),
            AccessType::Read,
        )?;
    }
    // Unmap and remap: the PTEs are gone, the page cache is warm.
    let range = VaRange::from_len(addr, pages * PAGE_SIZE);
    m.munmap(0, pid, range)?;
    let addr2 = m.mmap(0, pid, &req.clone().at(addr))?;
    debug_assert_eq!(addr2, addr);

    // Pass 2: every touch is a soft fault; measure it.
    let faults_before = m.kernel.mm(pid)?.counters.faults_soft;
    let mut total_cycles = 0u64;
    for i in 0..pages {
        let va = VirtAddr::new(addr.raw() + i * PAGE_SIZE);
        total_cycles += m.access(0, va, AccessType::Read)?;
    }
    let faults = m.kernel.mm(pid)?.counters.faults_soft - faults_before;
    Ok((total_cycles as f64 / faults as f64, faults))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::cell;
    use std::sync::LazyLock;

    // Each quick experiment runs once per test binary; the rows that
    // check its output share it.
    static TABLE3: LazyLock<String> = LazyLock::new(|| table3(Scale::Quick).unwrap());
    static TABLE4: LazyLock<String> = LazyLock::new(|| table4(Scale::Quick).unwrap());
    static LATFAULT: LazyLock<String> = LazyLock::new(|| latfault(Scale::Quick).unwrap());

    #[test]
    fn fork_experiments_quick() {
        assert!(TABLE3.contains("Warm start"));
        assert!(TABLE4.contains("Copied PTEs"));
        assert!(LATFAULT.contains("soft faults"));
    }

    #[test]
    fn table4_quick_has_expected_shape() {
        let out = &*TABLE4;
        assert!(out.contains("Shared PTPs"));
        assert!(out.contains("Fork speedup"));
        // Extract the speedup and check it beats 1.5x even at quick
        // scale.
        let speedup: f64 = out
            .split("shared PTPs: ")
            .nth(1)
            .unwrap()
            .split('x')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        // At quick scale the fixed fork cost dominates (few PTEs to
        // copy), so the speedup is small but must still be positive;
        // the paper-scale 2.1x is asserted against the calibrated
        // model in `sat-sim::model` and measured by `repro table4`.
        assert!(speedup > 1.0, "speedup {speedup}");
    }

    #[test]
    fn table3_quick_warm_exceeds_cold() {
        let out = &*TABLE3;
        assert!(out.contains("Cold start"));
        // Warm >= cold for every app.
        for app in sat_trace::APP_NAMES {
            let cold: f64 = cell(out, &[app], 2);
            let warm: f64 = cell(out, &[app], 3);
            assert!(warm >= cold, "{app}: cold {cold}, warm {warm}");
        }
    }

    #[test]
    fn latfault_quick_reports_mean() {
        assert!(LATFAULT.contains("soft faults"));
    }

    #[test]
    fn soft_fault_near_2700_cycles() {
        let (mean, faults) = measure_soft_fault_cycles(256).unwrap();
        assert_eq!(faults, 256);
        // 2,700 cycles of kernel path plus the handler's cache
        // footprint; the paper's 2.25µs at 1.2GHz is 2,700 cycles.
        assert!(
            (2_000.0..=3_500.0).contains(&mean),
            "soft fault measured at {mean:.0} cycles"
        );
    }
}
