//! Common types for the Shared Address Translation reproduction.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: 32-bit virtual and physical addresses, page sizes of the
//! ARMv7-A short-descriptor translation scheme, access permissions, the
//! 32-bit ARM domain protection model (domains and the DACR), address
//! space identifiers, process identifiers, and the common error type.
//!
//! The paper ("Shared Address Translation Revisited", EuroSys '16)
//! targets a Nexus 7 (2012) with Cortex-A9 cores, i.e. the 32-bit ARMv7
//! architecture with two-level hierarchical page tables. All address
//! arithmetic in this workspace is therefore 32-bit.

#![forbid(unsafe_code)]

pub mod addr;
pub mod dacr;
pub mod error;
pub mod grow;
pub mod ids;
pub mod page;
pub mod perms;
pub mod region;

pub use addr::{PhysAddr, VaRange, VirtAddr, VpnRange};
pub use dacr::{Dacr, Domain, DomainAccess};
pub use error::{SatError, SatResult};
pub use grow::GrowGently;
pub use ids::{Asid, Pfn, Pid};
pub use page::PageSize;
pub use perms::{AccessType, Perms};
pub use region::RegionTag;

/// Base-2 logarithm of the base page size (4KB pages).
pub const PAGE_SHIFT: u32 = 12;

/// Size in bytes of a base (small) page.
pub const PAGE_SIZE: u32 = 1 << PAGE_SHIFT;

/// Frames a 32-bit [`PhysAddr`] can address: no frame number reaches
/// `1 << 20`.
///
/// Physical memory refuses to be built larger, and the frame fields of
/// the packed level-1 and level-2 descriptor words take their width
/// from this constant.
pub const MAX_FRAMES: u32 = 1 << (32 - PAGE_SHIFT);

/// Number of entries in an ARMv7 first-level (root) translation table.
///
/// Each entry maps 1MB of virtual address space, so 4096 entries cover
/// the full 4GB 32-bit address space.
pub const L1_ENTRIES: usize = 4096;

/// Number of entries in an ARMv7 second-level (leaf) translation table.
///
/// Each entry maps a 4KB page, so 256 entries cover 1MB.
pub const L2_ENTRIES: usize = 256;

/// Bytes of virtual address space covered by one second-level table.
pub const L2_TABLE_SPAN: u32 = (L2_ENTRIES as u32) << PAGE_SHIFT; // 1MB

/// Bytes of virtual address space covered by one page-table page (PTP).
///
/// On Linux/ARM, first-level entries and second-level tables are
/// managed in *pairs*: a pair of hardware and a pair of software
/// (Linux) second-level tables occupy a single 4KB physical page
/// (Figure 5 of the paper). A PTP therefore spans 2MB of virtual
/// address space, which is why the paper's 2MB-aligned shared-library
/// layout puts code and data segments into different PTPs.
pub const PTP_SPAN: u32 = 2 * L2_TABLE_SPAN; // 2MB

/// Number of 4KB pages within a 64KB large page.
pub const PAGES_PER_64K: usize = 16;

/// Start of the kernel portion of the address space (top 1GB, a common
/// 3G/1G split).
pub const KERNEL_SPACE_START: u32 = 0xC000_0000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        assert_eq!(PAGE_SIZE, 4096);
        assert_eq!(L2_TABLE_SPAN, 1 << 20);
        assert_eq!(PTP_SPAN, 2 << 20);
        assert_eq!((L1_ENTRIES as u64) * (L2_TABLE_SPAN as u64), 1 << 32);
        assert_eq!(PAGES_PER_64K as u32 * PAGE_SIZE, 64 * 1024);
        assert_eq!(Pfn::new(MAX_FRAMES - 1).base().raw(), 0xFFFF_F000);
    }
}
