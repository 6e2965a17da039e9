//! The machine-independent virtual memory layer: a faithful analogue
//! of the Linux MM subsystem the paper's patch is written against.
//!
//! Provides memory regions ([`Vma`], the `vm_area_struct` analogue),
//! per-process address spaces ([`Mm`], the `mm_struct` analogue), the
//! region system calls (`mmap`/`munmap`/`mprotect`), demand paging
//! with soft (minor) and hard (major) fault classification, COW write
//! faults, and the stock `fork` page-table copy — which copies PTEs for
//! anonymous memory but skips the PTEs of file-backed mappings,
//! letting soft page faults refill them in the child. That skipped
//! work is exactly what Android pays for on every zygote fork, and
//! what sharing the PTP instead (the one fork, in `sat-core`, decides
//! chunk by chunk) eliminates.
//!
//! Everything here is policy-free with respect to PTP sharing: the
//! paper's mechanism wraps these operations (unsharing before
//! modification) rather than changing them.

#![forbid(unsafe_code)]

pub mod fault;
pub mod fork;
pub mod largepage;
pub mod mm;
pub mod smaps;
pub mod syscalls;
pub mod vma;

pub use fault::{handle_fault, FaultCtx, FaultKind, FaultOutcome};
pub use fork::{
    copies_ptes, copy_vma_ptes_in_chunk, copy_vma_ptes_in_range, ForkPtePolicy, ForkReport,
};
pub use largepage::{collapse_group, CollapseOutcome, LARGE_PAGE_BYTES};
pub use mm::{ForkRegions, Mm, MmCounters};
pub use smaps::{smaps, smaps_rollup, SmapsEntry};
pub use syscalls::{
    check_region_op, demote_range, exit_mmap, free_unused_ptps, mmap, mprotect, munmap, populate,
    MmapRequest,
};
pub use vma::{Backing, Vma};
