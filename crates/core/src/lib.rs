//! The paper's contribution: shared address translation for Android.
//!
//! "Shared Address Translation Revisited" (Dong, Dwarkadas, Cox —
//! EuroSys 2016) deduplicates virtual-address-translation state across
//! the processes forked from Android's zygote:
//!
//! 1. **Page-table-page (PTP) sharing** ([`Kernel::fork`],
//!    [`Kernel::page_fault`]): at fork, level-1 entry pairs in the child are
//!    pointed at the parent's PTPs instead of copying or refaulting
//!    PTEs (`fork.rs` decides per 2MB chunk and copies as stock where
//!    it cannot share). Shared PTPs are managed copy-on-write via a
//!    `NEED_COPY` spare bit in the level-1 PTE and a sharer count in
//!    the PTP's `struct page` mapcount. Unlike prior work, a shared PTP
//!    may contain multiple regions, including *private writable* ones —
//!    any modification (write fault, mmap/munmap/mprotect, region
//!    creation or teardown) triggers an unshare of the affected PTP.
//! 2. **TLB-entry sharing**: PTEs for zygote-preloaded shared code are
//!    created with the ARM *global* bit, so one TLB entry serves every
//!    zygote-like process; the 32-bit ARM *domain* protection model
//!    (a dedicated zygote domain plus DACR rights) keeps non-zygote
//!    processes from consuming those entries — they take a precise
//!    domain fault instead, whose handler evicts the stale entries.
//!
//! [`Kernel`] packages the whole patched kernel: it owns physical
//! memory, the PTP arena, and every process's address space, and wraps
//! the stock `sat-vm` paths with the share/unshare logic exactly where
//! the paper's patch hooks Linux.
//!
//! # Examples
//!
//! A zygote maps library code, pre-faults it, and forks: the child
//! attaches to the zygote's page-table pages, copying nothing.
//!
//! ```
//! use sat_core::{Kernel, KernelConfig, NoTlb};
//! use sat_types::{Perms, RegionTag, VaRange, VirtAddr, PAGE_SIZE};
//! use sat_vm::MmapRequest;
//!
//! let mut kernel = Kernel::new(KernelConfig::shared_ptp(), 4096);
//! let zygote = kernel.create_process()?;
//! kernel.exec_zygote(zygote)?;
//!
//! let lib = kernel.files.register("libc.so", 8 * PAGE_SIZE);
//! let code = VirtAddr::new(0x4000_0000);
//! let req = MmapRequest::file(8 * PAGE_SIZE, Perms::RX, lib, 0,
//!     RegionTag::ZygoteNativeCode, "libc.so").at(code);
//! kernel.mmap(zygote, &req, &mut NoTlb)?;
//! kernel.populate(zygote, VaRange::from_len(code, 8 * PAGE_SIZE))?;
//!
//! let fork = kernel.fork(zygote)?;
//! assert!(fork.ptps_shared >= 1);
//! assert_eq!(fork.ptes_copied, 0);
//! // The child's code PTEs are already present — zero launch faults.
//! assert!(kernel.pte(fork.child, code)?.is_some());
//! # Ok::<(), sat_types::SatError>(())
//! ```

#![forbid(unsafe_code)]

mod asid;
pub mod config;
pub mod flush;
mod fork;
pub mod kernel;
pub mod promote;
pub mod reclaim;
pub mod registry;
pub mod share;

pub use config::{CopyOnUnshare, KernelConfig, PromotePolicy, TlbProtection};
pub use flush::{BatchOutcome, FlushBatch, FlushOp, FLUSH_CEILING_PAGES};
pub use fork::ForkOutcome;
pub use kernel::{Kernel, KernelStats, ProcFaultOutcome};
pub use promote::PromoteReport;
pub use reclaim::ReclaimOutcome;
pub use registry::{RegistryStats, SharedPtpEntry, SharedPtpRegistry};
pub use share::UnshareTrigger;

/// TLB maintenance requests issued by kernel MM operations.
///
/// The simulated hardware TLB lives in `sat-sim`; kernel paths that
/// must invalidate entries (the Figure 6 unshare procedure, process
/// exit, the domain-fault handler) call through this trait with the
/// [`FlushOp`] to perform and the [`sat_obs::FlushReason`] that names
/// the kernel path asking for it. Pure page-table experiments can
/// pass [`NoTlb`].
pub trait TlbMaintenance {
    /// Performs `op`, attributed to `reason`.
    fn flush(&mut self, op: FlushOp, reason: sat_obs::FlushReason);
}

/// A no-op [`TlbMaintenance`] sink for experiments that do not model
/// the TLB.
pub struct NoTlb;

impl TlbMaintenance for NoTlb {
    fn flush(&mut self, _op: FlushOp, _reason: sat_obs::FlushReason) {}
}
