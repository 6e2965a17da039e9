//! 32-bit virtual and physical addresses.
//!
//! Both address types are thin newtype wrappers over `u32` with helper
//! methods for the page arithmetic that the MMU, VM, and TLB layers
//! perform constantly: extracting level-1/level-2 table indices,
//! aligning to page or PTP boundaries, and iterating page ranges.

use core::fmt;

use crate::{PAGE_SHIFT, PAGE_SIZE, PTP_SPAN};

/// A 32-bit virtual address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(pub u32);

/// A 32-bit physical address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u32);

impl fmt::Debug for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VA({:#010x})", self.0)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

impl fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PA({:#010x})", self.0)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

impl VirtAddr {
    /// Creates a virtual address from a raw 32-bit value.
    pub const fn new(raw: u32) -> Self {
        VirtAddr(raw)
    }

    /// Returns the raw 32-bit value.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns the index into the first-level (root) translation table
    /// for this address (bits 31..20, one entry per 1MB).
    pub const fn l1_index(self) -> usize {
        (self.0 >> 20) as usize
    }

    /// Returns the index into the second-level (leaf) translation
    /// table for this address (bits 19..12, one entry per 4KB page).
    pub const fn l2_index(self) -> usize {
        ((self.0 >> PAGE_SHIFT) & 0xFF) as usize
    }

    /// Returns the virtual page number (address >> 12).
    pub const fn vpn(self) -> u32 {
        self.0 >> PAGE_SHIFT
    }

    /// Returns the byte offset within the 4KB page.
    pub const fn page_offset(self) -> u32 {
        self.0 & (PAGE_SIZE - 1)
    }

    /// Rounds the address down to the containing 4KB page boundary.
    pub const fn page_base(self) -> VirtAddr {
        VirtAddr(self.0 & !(PAGE_SIZE - 1))
    }

    /// Rounds the address down to the containing PTP (2MB) boundary.
    ///
    /// One page-table page covers 2MB of virtual address space (a pair
    /// of 1MB second-level tables), so PTP sharing decisions operate
    /// on 2MB-aligned chunks.
    pub const fn ptp_base(self) -> VirtAddr {
        VirtAddr(self.0 & !(PTP_SPAN - 1))
    }

    /// Returns `true` if the address is aligned to a 4KB page.
    pub const fn is_page_aligned(self) -> bool {
        self.0 & (PAGE_SIZE - 1) == 0
    }

    /// Returns `true` if the address is aligned to a PTP (2MB).
    pub const fn is_ptp_aligned(self) -> bool {
        self.0 & (PTP_SPAN - 1) == 0
    }

    /// Adds a byte offset, saturating at the top of the address space.
    pub const fn saturating_add(self, bytes: u32) -> VirtAddr {
        VirtAddr(self.0.saturating_add(bytes))
    }

    /// Adds a byte offset, returning `None` on overflow.
    pub const fn checked_add(self, bytes: u32) -> Option<VirtAddr> {
        match self.0.checked_add(bytes) {
            Some(v) => Some(VirtAddr(v)),
            None => None,
        }
    }

    /// Returns `true` if this address falls in the kernel portion of
    /// the address space.
    pub const fn is_kernel(self) -> bool {
        self.0 >= crate::KERNEL_SPACE_START
    }
}

impl PhysAddr {
    /// Creates a physical address from a raw 32-bit value.
    pub const fn new(raw: u32) -> Self {
        PhysAddr(raw)
    }

    /// Returns the raw 32-bit value.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Rounds down to the containing 4KB frame boundary.
    pub const fn frame_base(self) -> PhysAddr {
        PhysAddr(self.0 & !(PAGE_SIZE - 1))
    }
}

/// A half-open range of virtual addresses `[start, end)`.
///
/// This is the address-range shape used by memory regions
/// (`vm_area_struct` analogues) and by range operations such as
/// `munmap` and `mprotect`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct VaRange {
    /// Inclusive start of the range.
    pub start: VirtAddr,
    /// Exclusive end of the range.
    pub end: VirtAddr,
}

impl fmt::Debug for VaRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:#010x}, {:#010x})", self.start.0, self.end.0)
    }
}

impl VaRange {
    /// Creates a range; `start` must not exceed `end`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn new(start: VirtAddr, end: VirtAddr) -> Self {
        assert!(start <= end, "VaRange start {start:?} > end {end:?}");
        VaRange { start, end }
    }

    /// Creates a range from a start address and a byte length.
    ///
    /// # Panics
    ///
    /// Panics if the range would wrap past the top of the address
    /// space.
    pub fn from_len(start: VirtAddr, len: u32) -> Self {
        let end = start
            .checked_add(len)
            .or_else(|| {
                // The exclusive end may be exactly 2^32, which we
                // cannot represent; tolerate a range ending at the
                // very top of the address space.
                (start.0 as u64 + len as u64 == 1 << 32).then_some(VirtAddr(u32::MAX))
            })
            .expect("VaRange wraps address space");
        VaRange::new(start, end)
    }

    /// Length of the range in bytes.
    pub const fn len(&self) -> u32 {
        self.end.0 - self.start.0
    }

    /// Returns `true` if the range is empty.
    pub const fn is_empty(&self) -> bool {
        self.start.0 >= self.end.0
    }

    /// Returns `true` if `addr` falls within the range.
    pub const fn contains(&self, addr: VirtAddr) -> bool {
        self.start.0 <= addr.0 && addr.0 < self.end.0
    }

    /// Returns `true` if the two ranges share any address.
    pub const fn overlaps(&self, other: &VaRange) -> bool {
        self.start.0 < other.end.0 && other.start.0 < self.end.0
    }

    /// Returns `true` if `other` is fully contained in this range.
    pub const fn contains_range(&self, other: &VaRange) -> bool {
        self.start.0 <= other.start.0 && other.end.0 <= self.end.0
    }

    /// Returns the intersection of two ranges, or `None` if disjoint.
    pub fn intersect(&self, other: &VaRange) -> Option<VaRange> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        (start < end).then_some(VaRange { start, end })
    }

    /// Iterates over the base addresses of the 4KB pages the range
    /// touches (the first page is the one containing `start`).
    pub fn pages(&self) -> impl Iterator<Item = VirtAddr> {
        let first = self.start.page_base().0;
        let end = self.end.0;
        (first..end).step_by(PAGE_SIZE as usize).map(VirtAddr)
    }

    /// Iterates over the base addresses of the 2MB PTP chunks the
    /// range touches.
    pub fn ptps(&self) -> impl Iterator<Item = VirtAddr> {
        let first = self.start.ptp_base().0;
        let end = self.end.0;
        (first..end).step_by(PTP_SPAN as usize).map(VirtAddr)
    }

    /// Number of whole 4KB pages the range touches.
    pub fn page_count(&self) -> usize {
        self.pages().count()
    }
}

/// A half-open range of virtual page numbers `[start, end)`.
///
/// This is the unit of range-granular TLB invalidation: a `FlushOp`
/// carries a `VpnRange` rather than a byte range so that coalescing
/// adjacent pages and counting pages against the escalation ceiling
/// are integer arithmetic, never address arithmetic.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VpnRange {
    /// Inclusive first virtual page number.
    pub start: u32,
    /// Exclusive last virtual page number.
    pub end: u32,
}

impl fmt::Debug for VpnRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VPN[{:#x}, {:#x})", self.start, self.end)
    }
}

impl VpnRange {
    /// Creates a range; `start` must not exceed `end`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn new(start: u32, end: u32) -> Self {
        assert!(start <= end, "VpnRange start {start:#x} > end {end:#x}");
        VpnRange { start, end }
    }

    /// The single-page range containing `vpn`.
    pub const fn single(vpn: u32) -> Self {
        VpnRange {
            start: vpn,
            end: vpn + 1,
        }
    }

    /// The page numbers of every 4KB page a byte range touches.
    pub fn from_va_range(r: &VaRange) -> Self {
        if r.is_empty() {
            return VpnRange {
                start: r.start.vpn(),
                end: r.start.vpn(),
            };
        }
        // end is exclusive in bytes; the last touched page is the one
        // containing `end - 1`.
        VpnRange {
            start: r.start.vpn(),
            end: VirtAddr(r.end.0 - 1).vpn() + 1,
        }
    }

    /// Number of pages in the range.
    pub const fn page_count(&self) -> u32 {
        self.end - self.start
    }

    /// Returns `true` if the range holds no pages.
    pub const fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Returns `true` if `vpn` falls within the range.
    pub const fn contains(&self, vpn: u32) -> bool {
        self.start <= vpn && vpn < self.end
    }

    /// Returns `true` if the two ranges share any page.
    pub const fn overlaps(&self, other: &VpnRange) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Merges `other` into this range if they overlap or are adjacent,
    /// returning `true` on success. Disjoint non-adjacent ranges are
    /// left untouched and return `false`.
    pub fn try_merge(&mut self, other: &VpnRange) -> bool {
        if other.start > self.end || self.start > other.end {
            return false;
        }
        self.start = self.start.min(other.start);
        self.end = self.end.max(other.end);
        true
    }

    /// Iterates over the page numbers in the range.
    pub fn vpns(&self) -> impl Iterator<Item = u32> {
        self.start..self.end
    }

    /// Iterates over the base addresses of the pages in the range.
    pub fn pages(&self) -> impl Iterator<Item = VirtAddr> {
        (self.start..self.end).map(|vpn| VirtAddr(vpn << PAGE_SHIFT))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_l2_indices() {
        let va = VirtAddr::new(0x1234_5678);
        assert_eq!(va.l1_index(), 0x123);
        assert_eq!(va.l2_index(), 0x45);
        assert_eq!(va.page_offset(), 0x678);
        assert_eq!(va.vpn(), 0x12345);
    }

    #[test]
    fn ptp_base_is_2mb_aligned() {
        let va = VirtAddr::new(0x1234_5678);
        assert_eq!(va.ptp_base().raw(), 0x1220_0000);
        assert!(va.ptp_base().is_ptp_aligned());
    }

    #[test]
    fn range_overlap_and_intersection() {
        let a = VaRange::from_len(VirtAddr::new(0x1000), 0x3000);
        let b = VaRange::from_len(VirtAddr::new(0x3000), 0x2000);
        let c = VaRange::from_len(VirtAddr::new(0x4000), 0x1000);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        let i = a.intersect(&b).unwrap();
        assert_eq!(i.start.raw(), 0x3000);
        assert_eq!(i.end.raw(), 0x4000);
        assert!(a.intersect(&c).is_none());
    }

    #[test]
    fn range_page_iteration() {
        let r = VaRange::new(VirtAddr::new(0x1800), VirtAddr::new(0x3800));
        let pages: Vec<u32> = r.pages().map(VirtAddr::raw).collect();
        assert_eq!(pages, vec![0x1000, 0x2000, 0x3000]);
    }

    #[test]
    fn range_ptp_iteration() {
        let r = VaRange::from_len(VirtAddr::new(0x0010_0000), 0x40_0000);
        let ptps: Vec<u32> = r.ptps().map(VirtAddr::raw).collect();
        assert_eq!(ptps, vec![0x0000_0000, 0x0020_0000, 0x0040_0000]);
    }

    #[test]
    fn vpn_range_from_va_range_rounds_to_touched_pages() {
        let r = VaRange::new(VirtAddr::new(0x1800), VirtAddr::new(0x3800));
        let vr = VpnRange::from_va_range(&r);
        assert_eq!((vr.start, vr.end), (0x1, 0x4));
        assert_eq!(vr.page_count(), 3);
        let aligned = VaRange::from_len(VirtAddr::new(0x2000), 0x2000);
        let va = VpnRange::from_va_range(&aligned);
        assert_eq!((va.start, va.end), (0x2, 0x4));
        let empty = VaRange::new(VirtAddr::new(0x5000), VirtAddr::new(0x5000));
        assert!(VpnRange::from_va_range(&empty).is_empty());
    }

    #[test]
    fn vpn_range_merge_adjacent_and_overlapping() {
        let mut a = VpnRange::new(0x10, 0x14);
        assert!(a.try_merge(&VpnRange::new(0x14, 0x18)), "adjacent merges");
        assert_eq!((a.start, a.end), (0x10, 0x18));
        assert!(
            a.try_merge(&VpnRange::new(0x12, 0x20)),
            "overlapping merges"
        );
        assert_eq!((a.start, a.end), (0x10, 0x20));
        assert!(
            !a.try_merge(&VpnRange::new(0x30, 0x34)),
            "disjoint does not"
        );
        assert_eq!((a.start, a.end), (0x10, 0x20));
        assert!(a.contains(0x1f) && !a.contains(0x20));
        assert!(a.overlaps(&VpnRange::new(0x1f, 0x30)));
        assert!(!a.overlaps(&VpnRange::new(0x20, 0x30)));
    }

    #[test]
    fn vpn_range_page_iteration() {
        let r = VpnRange::single(0x12345);
        assert_eq!(r.page_count(), 1);
        let pages: Vec<u32> = r.pages().map(VirtAddr::raw).collect();
        assert_eq!(pages, vec![0x1234_5000]);
        assert_eq!(
            VpnRange::new(2, 5).vpns().collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn kernel_space_boundary() {
        assert!(!VirtAddr::new(0xBFFF_FFFF).is_kernel());
        assert!(VirtAddr::new(0xC000_0000).is_kernel());
    }
}
