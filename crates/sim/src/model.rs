//! The cycle model: fixed kernel-path costs per operation.
//!
//! Constants are calibrated against two anchors the paper publishes
//! for the Nexus 7 (1.2GHz Cortex-A9):
//!
//! - a soft page fault costs ≈2.25µs ≈ 2,700 cycles (LMbench
//!   `lat_pagefault`);
//! - Table 4's zygote-fork costs: 2.9M cycles stock (3,900 anonymous
//!   PTEs copied, 38 PTPs), 4.6M for the Copied-PTEs kernel (+5,900
//!   file PTEs, 51 PTPs), 1.4M with shared PTPs (3,900 write-protect
//!   operations, 81 PTPs shared, 7 PTEs copied, 1 PTP allocated).
//!
//! Solving those equations gives the per-operation costs below. The
//! remaining constants are plausible Cortex-A9 magnitudes; absolute
//! times are not the reproduction target — ratios are.

/// Fixed cycle costs for kernel operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CycleModel {
    /// Cycles per instruction executed (base CPI, stalls added by the
    /// cache model).
    pub cpi: u64,
    /// Baseline cost of `fork` (task duplication, region cloning).
    pub fork_base: u64,
    /// Copying one anonymous PTE at fork (includes COW protection and
    /// reference-count updates).
    pub pte_copy_anon: u64,
    /// Copying one file-backed PTE at fork.
    pub pte_copy_file: u64,
    /// Allocating and wiring one PTP.
    pub ptp_alloc: u64,
    /// Write-protecting one PTE when a PTP is first shared.
    pub write_protect: u64,
    /// Attaching one shared PTP to a child (set the level-1 pair,
    /// bump the sharer count).
    pub ptp_share: u64,
    /// Kernel path of a soft (minor) page fault.
    pub soft_fault: u64,
    /// Kernel path of a hard (major) fault, including the flash read.
    pub hard_fault: u64,
    /// Extra cost of a COW fault over a soft fault (page copy).
    pub cow_extra: u64,
    /// Unshare: fixed part (level-1 maintenance, TLB flush issue).
    pub unshare_base: u64,
    /// Unshare: per-PTE copy into the private PTP.
    pub unshare_per_pte: u64,
    /// A context switch (scheduler, DACR and ASID reload, micro-TLB
    /// flush).
    pub context_switch: u64,
    /// Entering and leaving the kernel for a lightweight exception
    /// (the domain-fault handler, spurious faults).
    pub exception: u64,
    /// One binder IPC call's kernel work, excluding the context
    /// switches and the cache/TLB activity, which are simulated.
    pub binder_call: u64,
    /// Delivering one TLB-shootdown IPI to a remote core (interrupt
    /// entry, invalidate, acknowledge). Charged per *targeted* core by
    /// the precise-shootdown path; skipped cores pay nothing.
    pub ipi: u64,
    /// ASID generation rollover: allocator bookkeeping plus issuing
    /// the machine-wide non-global flush (the flush's entry
    /// invalidations are modeled by the TLBs themselves).
    pub asid_rollover: u64,
    /// Number of kernel-text cache lines executed on a soft fault
    /// (drives the paper's L1-I pollution effect); together with
    /// `soft_fault` this lands a soft fault near the paper's ≈2,700
    /// cycles.
    pub fault_path_lines: u32,
    /// Additional kernel-text lines executed on a hard fault (I/O
    /// submission and completion paths).
    pub hard_fault_extra_lines: u32,
}

impl Default for CycleModel {
    fn default() -> Self {
        CycleModel {
            cpi: 1,
            // Table 4 calibration (see module docs): solving the three
            // fork equations gives ≈1.135M base, 433 cycles per
            // anonymous PTE, 284 per file PTE, 2,000 per PTP, 60 per
            // write-protect, 300 per shared-PTP attach.
            fork_base: 1_135_000,
            pte_copy_anon: 433,
            pte_copy_file: 284,
            ptp_alloc: 2_000,
            write_protect: 60,
            ptp_share: 300,
            soft_fault: 2_200,
            hard_fault: 90_000,
            cow_extra: 1_800,
            unshare_base: 3_000,
            unshare_per_pte: 284,
            context_switch: 3_500,
            exception: 700,
            binder_call: 6_000,
            // Remote-shootdown and rollover costs, plausible A9
            // magnitudes (numaPTE reports IPIs dominating imprecise
            // shootdowns at scale).
            ipi: 2_000,
            asid_rollover: 4_000,
            fault_path_lines: 300,
            hard_fault_extra_lines: 500,
        }
    }
}

impl CycleModel {
    /// Cycles charged for a fork with the given Table 4 counts.
    pub fn fork_cycles(
        &self,
        ptes_copied_anon: u64,
        ptes_copied_file: u64,
        ptps_allocated: u64,
        ptps_shared: u64,
        write_protect_ops: u64,
    ) -> u64 {
        self.fork_base
            + ptes_copied_anon * self.pte_copy_anon
            + ptes_copied_file * self.pte_copy_file
            + ptps_allocated * self.ptp_alloc
            + ptps_shared * self.ptp_share
            + write_protect_ops * self.write_protect
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fork_costs_reproduce_table4_ratios() {
        let m = CycleModel::default();
        // Stock: 3,900 anonymous PTEs, 38 PTPs.
        let stock = m.fork_cycles(3_900, 0, 38, 0, 3_900);
        // Copied PTEs: + 5,900 file PTEs, 51 PTPs.
        let copied = m.fork_cycles(3_900, 5_900, 51, 0, 3_900);
        // Shared PTPs: 7 anonymous PTEs (stack), 1 PTP, 81 shared,
        // 3,900 write-protected.
        let shared = m.fork_cycles(7, 0, 1, 81, 3_900);
        // Paper: 2.9M / 4.6M / 1.4M.
        assert!((stock as f64 - 2.9e6).abs() / 2.9e6 < 0.12, "stock {stock}");
        assert!(
            (copied as f64 - 4.6e6).abs() / 4.6e6 < 0.12,
            "copied {copied}"
        );
        assert!(
            (shared as f64 - 1.4e6).abs() / 1.4e6 < 0.15,
            "shared {shared}"
        );
        // Shape: sharing beats stock by ≈2.1×; copying is ≈1.6× worse.
        let speedup = stock as f64 / shared as f64;
        assert!((1.8..=2.4).contains(&speedup), "speedup {speedup:.2}");
        let slowdown = copied as f64 / stock as f64;
        assert!((1.4..=1.8).contains(&slowdown), "slowdown {slowdown:.2}");
    }

    #[test]
    fn soft_fault_near_lmbench_anchor() {
        // The fixed part plus the handler's simulated instruction
        // footprint lands near the paper's 2,700-cycle soft fault;
        // `repro latfault` (`sat-bench`'s `measure_soft_fault_cycles`)
        // verifies the total.
        let m = CycleModel::default();
        assert!(m.soft_fault >= 1_000 && m.soft_fault <= 2_700);
    }
}
