//! ARMv7-A short-descriptor MMU model: two-level hierarchical page
//! tables with the Linux/ARM paired hardware/software PTE layout.
//!
//! The 32-bit ARM architecture defines a two-level page table with
//! 4096 32-bit entries in the first (root) level — each mapping 1MB —
//! and 256 entries in the second (leaf) level — each mapping a 4KB
//! page. 64KB large pages occupy sixteen consecutive, aligned
//! second-level entries. The architecture can also map a 1MB section
//! or a 16MB supersection straight from the first level; the model
//! does not: a level-1 entry is a fault or a table, and the 64KB
//! group is the one large user page.
//!
//! Because a second-level hardware table is only 1KB and ARM level-2
//! PTEs have no "referenced" or "dirty" bits, Linux/ARM manages
//! first-level entries and second-level tables in *pairs*: one 4KB
//! physical page (a *page-table page*, PTP) holds two hardware tables
//! plus two parallel Linux "software" tables carrying the flags the VM
//! system needs (Figure 5 of the paper). A PTP therefore covers 2MB of
//! virtual address space, which sets the granularity of the paper's
//! PTP sharing and motivates its 2MB-aligned shared-library layout.
//!
//! This crate provides:
//!
//! - [`HwPte`]/[`SwPte`] — hardware and Linux second-level entries,
//!   with faithful encode/decode of the hardware descriptor bits,
//! - [`Ptp`]/[`PtpStore`] — page-table pages, stored in an arena keyed
//!   by physical frame so multiple processes can point level-1 entries
//!   at the *same* PTP (the sharing mechanism),
//! - [`L1Entry`]/[`RootTable`] — the 4096-entry first level, including
//!   the `NEED_COPY` spare bit the paper adds to mark shared PTPs,
//! - [`walk()`] — a table walker that reports both the translation and
//!   the physical addresses it touched, so the cache model can account
//!   for page-table-walk traffic (and its duplication across address
//!   spaces, which pollutes the shared L2 cache).

#![forbid(unsafe_code)]

pub mod fsr;
mod groups;
pub mod l1;
pub mod ops;
pub mod pte;
pub mod ptp;
#[cfg(test)]
mod reference;
pub mod walk;

pub use fsr::{FaultRecord, FaultStatus};
pub use l1::{L1Entry, RootTable, TablePair};
pub use ops::{release_table, ChunkCopy, Mapper};
pub use pte::{HwPte, PteSlot, SwPte};
pub use ptp::{Ptp, PtpStore, TableHalf};
pub use walk::{walk, Translation, WalkAccesses, WalkFault, WalkOutcome, WalkResult};
