//! The LMbench `lat_pagefault` analogue.
//!
//! The paper anchors its soft-fault cost at ≈2.25µs (2,700 cycles at
//! 1.2GHz), measured with LMbench. This module reproduces the
//! measurement on the simulated machine: map a file, touch every
//! page (warming the page cache), unmap, remap, and touch again —
//! every second-pass fault is soft.

use sat_core::{Kernel, KernelConfig};
use sat_types::{AccessType, Perms, RegionTag, SatResult, VaRange, VirtAddr, PAGE_SIZE};
use sat_vm::MmapRequest;

use crate::machine::Machine;

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
    let addr = m.syscall(|k, tlb| k.mmap(pid, &req, tlb))?;

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
    m.syscall(|k, tlb| k.munmap(pid, range, tlb))?;
    let addr2 = m.syscall(|k, tlb| k.mmap(pid, &req.clone().at(addr), tlb))?;
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
