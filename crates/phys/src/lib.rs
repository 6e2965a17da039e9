//! Physical memory substrate: frames, per-frame metadata, and the
//! file page cache.
//!
//! This crate stands in for the parts of the Linux kernel's physical
//! memory manager that the paper's page-table-sharing patch relies on:
//!
//! - a frame allocator handing out 4KB physical frames,
//! - a per-frame `struct page` analogue ([`PageInfo`]) carrying a
//!   reference count and a *mapcount* — the paper reuses the existing
//!   `mapcount` field of a page-table page's `struct page` to count
//!   the processes sharing that PTP,
//! - a page cache mapping `(file, page-index)` to frames, so that
//!   file-backed pages (shared-library code above all) are backed by a
//!   single physical copy across every process, exactly as dynamic
//!   linking arranges on a real system.
//!
//! The simulator does not store page *data* — only identity and
//! metadata matter for address-translation behaviour.

#![forbid(unsafe_code)]

pub mod file;
pub mod frame;
pub mod page;
#[cfg(test)]
mod reference;
pub mod slab;

pub use file::{FileId, FileRegistry};
pub use frame::{FrameKind, PhysMem, PhysMemStats, Watermarks};
pub use page::PageInfo;
pub use slab::{Slab, SlabItem, SlabStats};
