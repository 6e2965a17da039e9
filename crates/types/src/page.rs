//! Page sizes of the ARMv7-A short-descriptor translation scheme.

use crate::{PAGE_SHIFT, PAGE_SIZE};

/// The four page/memory-region sizes supported by 32-bit ARM.
///
/// 4KB ("small") and 64KB ("large") pages are mapped by second-level
/// entries: a large page occupies sixteen consecutive, aligned
/// second-level entries. 1MB sections and 16MB supersections are
/// mapped directly by first-level entries (sixteen consecutive ones
/// for a supersection) with no second-level table at all.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum PageSize {
    /// 4KB small page (second level).
    Small4K,
    /// 64KB large page (sixteen consecutive second-level entries).
    Large64K,
    /// 1MB section (first level).
    Section1M,
    /// 16MB supersection (sixteen consecutive first-level entries).
    Super16M,
}

impl PageSize {
    /// Size of the page in bytes.
    pub const fn bytes(self) -> u32 {
        match self {
            PageSize::Small4K => PAGE_SIZE,
            PageSize::Large64K => 64 * 1024,
            PageSize::Section1M => 1 << 20,
            PageSize::Super16M => 16 << 20,
        }
    }

    /// Base-2 logarithm of the page size.
    pub const fn shift(self) -> u32 {
        match self {
            PageSize::Small4K => PAGE_SHIFT,
            PageSize::Large64K => 16,
            PageSize::Section1M => 20,
            PageSize::Super16M => 24,
        }
    }

    /// Number of second-level entries this mapping consumes, or 0 for
    /// the first-level (section) sizes.
    pub const fn l2_entries(self) -> usize {
        match self {
            PageSize::Small4K => 1,
            PageSize::Large64K => 16,
            PageSize::Section1M | PageSize::Super16M => 0,
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
        for s in [
            PageSize::Small4K,
            PageSize::Large64K,
            PageSize::Section1M,
            PageSize::Super16M,
        ] {
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
