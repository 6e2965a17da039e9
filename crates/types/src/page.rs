//! Page sizes of the ARMv7-A short-descriptor translation scheme.

use crate::{PAGE_SHIFT, PAGE_SIZE};

/// The page sizes a translation can have.
///
/// 4KB ("small") and 64KB ("large") pages are mapped by second-level
/// entries: a large page occupies sixteen consecutive, aligned
/// second-level entries, and is the one large user mapping the
/// simulator builds. A 1MB section is the size of the kernel's global
/// text mappings, which the machine synthesizes at TLB fill: no
/// simulated page table holds a section entry.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum PageSize {
    /// 4KB small page (second level).
    Small4K,
    /// 64KB large page (sixteen consecutive second-level entries).
    Large64K,
    /// 1MB section: the kernel's global text mappings.
    Section1M,
}

impl PageSize {
    /// Size of the page in bytes.
    pub const fn bytes(self) -> u32 {
        match self {
            PageSize::Small4K => PAGE_SIZE,
            PageSize::Large64K => 64 * 1024,
            PageSize::Section1M => 1 << 20,
        }
    }

    /// Base-2 logarithm of the page size.
    pub const fn shift(self) -> u32 {
        match self {
            PageSize::Small4K => PAGE_SHIFT,
            PageSize::Large64K => 16,
            PageSize::Section1M => 20,
        }
    }

    /// Number of second-level entries this mapping consumes, or 0 for
    /// a section.
    pub const fn l2_entries(self) -> usize {
        match self {
            PageSize::Small4K => 1,
            PageSize::Large64K => 16,
            PageSize::Section1M => 0,
        }
    }

    /// Number of 4KB frames the page occupies.
    pub const fn frames(self) -> u32 {
        self.bytes() >> PAGE_SHIFT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_shifts_agree() {
        for s in [PageSize::Small4K, PageSize::Large64K, PageSize::Section1M] {
            assert_eq!(1u32 << s.shift(), s.bytes());
        }
    }

    #[test]
    fn large_page_spans_16_l2_entries() {
        assert_eq!(PageSize::Large64K.l2_entries(), 16);
        assert_eq!(PageSize::Large64K.frames(), 16);
        assert_eq!(PageSize::Small4K.l2_entries(), 1);
        assert_eq!(PageSize::Section1M.l2_entries(), 0);
    }
}
