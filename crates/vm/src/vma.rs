//! Memory regions: the `vm_area_struct` analogue.

use std::sync::Arc;

use sat_phys::FileId;
use sat_types::{Perms, RegionTag, VaRange, VirtAddr};

/// What backs a region's pages.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backing {
    /// Anonymous (zero-fill on demand).
    Anon,
    /// File-backed: page `i` of the region maps file page
    /// `offset_pages + i`.
    File {
        /// Backing file.
        file: FileId,
        /// 4KB page offset of the region's start within the file.
        offset_pages: u32,
    },
}

/// A memory region (`vm_area_struct`).
///
/// An address space holds its regions by shared pointer: a fork hands
/// the child the parent's, and whoever changes one copies it first
/// ([`crate::Mm`]). Nothing here is interiorly mutable, so a region
/// reached through `&Vma` is the same for every process that points at
/// it.
#[derive(Clone, Debug)]
pub struct Vma {
    /// The region's address range (page-aligned).
    pub range: VaRange,
    /// Maximal access permissions of the mapping.
    pub perms: Perms,
    /// Backing store.
    pub backing: Backing,
    /// `MAP_SHARED`: writes are visible through the file, no COW.
    pub shared: bool,
    /// The paper's new `vm_area_struct` flag: this region is
    /// zygote-preloaded shared code whose PTEs should be created with
    /// the global bit, enabling TLB-entry sharing.
    pub global: bool,
    /// Excluded from PTP sharing at fork (the paper's design choice
    /// for stacks, which are written immediately after fork).
    pub dont_share_ptp: bool,
    /// Classification for analytics and sharing policy.
    pub tag: RegionTag,
    /// Human-readable name (library or mapping name), shared so that
    /// copying a region — a split, or the first change to one a fork
    /// handed down — copies no string.
    pub name: Arc<str>,
}

impl Vma {
    /// Creates an anonymous private region.
    pub fn anon(range: VaRange, perms: Perms, tag: RegionTag, name: &str) -> Vma {
        Vma {
            range,
            perms,
            backing: Backing::Anon,
            shared: false,
            global: false,
            dont_share_ptp: matches!(tag, RegionTag::Stack),
            tag,
            name: Arc::from(name),
        }
    }

    /// Creates a private file-backed region (the shape of library code
    /// and data segments).
    pub fn file(
        range: VaRange,
        perms: Perms,
        file: FileId,
        offset_pages: u32,
        tag: RegionTag,
        name: &str,
    ) -> Vma {
        Vma {
            range,
            perms,
            backing: Backing::File { file, offset_pages },
            shared: false,
            global: false,
            dont_share_ptp: false,
            tag,
            name: Arc::from(name),
        }
    }

    /// Returns the file page index backing `va`, for file regions.
    pub fn file_page_index(&self, va: VirtAddr) -> Option<(FileId, u32)> {
        match self.backing {
            Backing::File { file, offset_pages } => {
                debug_assert!(self.range.contains(va));
                let rel = (va.page_base().raw() - self.range.start.page_base().raw())
                    >> sat_types::PAGE_SHIFT;
                Some((file, offset_pages + rel))
            }
            Backing::Anon => None,
        }
    }

    /// Splits the region at `at` (page-aligned, strictly inside),
    /// truncating `self` to `[start, at)` and returning the tail
    /// `[at, end)` with adjusted file offset.
    ///
    /// # Panics
    ///
    /// Panics if `at` is not strictly inside the region or not
    /// page-aligned.
    pub fn split_at(&mut self, at: VirtAddr) -> Vma {
        assert!(at.is_page_aligned(), "split at unaligned address");
        assert!(
            self.range.start < at && at < self.range.end,
            "split point {at:?} outside {:?}",
            self.range
        );
        let mut tail = self.clone();
        let skipped_pages = (at.raw() - self.range.start.raw()) >> sat_types::PAGE_SHIFT;
        if let Backing::File { offset_pages, .. } = &mut tail.backing {
            *offset_pages += skipped_pages;
        }
        tail.range = VaRange::new(at, self.range.end);
        self.range = VaRange::new(self.range.start, at);
        tail
    }

    /// Returns `true` if the region is private (COW) and writable —
    /// the class of regions earlier page-table-sharing work refused to
    /// share, and the paper's mechanism handles.
    pub fn is_private_writable(&self) -> bool {
        !self.shared && self.perms.write()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat_types::PAGE_SIZE;

    fn range(start: u32, len: u32) -> VaRange {
        VaRange::from_len(VirtAddr::new(start), len)
    }

    #[test]
    fn file_page_index_accounts_for_offset() {
        let v = Vma::file(
            range(0x4000_0000, 8 * PAGE_SIZE),
            Perms::RX,
            FileId(3),
            10,
            RegionTag::ZygoteNativeCode,
            "libc.so",
        );
        assert_eq!(
            v.file_page_index(VirtAddr::new(0x4000_0000)),
            Some((FileId(3), 10))
        );
        assert_eq!(
            v.file_page_index(VirtAddr::new(0x4000_3ABC)),
            Some((FileId(3), 13))
        );
    }

    #[test]
    fn split_adjusts_ranges_and_offsets() {
        let mut v = Vma::file(
            range(0x4000_0000, 8 * PAGE_SIZE),
            Perms::RX,
            FileId(3),
            10,
            RegionTag::ZygoteNativeCode,
            "libc.so",
        );
        let tail = v.split_at(VirtAddr::new(0x4000_3000));
        assert_eq!(v.range, range(0x4000_0000, 3 * PAGE_SIZE));
        assert_eq!(tail.range, range(0x4000_3000, 5 * PAGE_SIZE));
        assert_eq!(
            tail.file_page_index(VirtAddr::new(0x4000_3000)),
            Some((FileId(3), 13))
        );
    }

    #[test]
    fn stack_regions_opt_out_of_ptp_sharing() {
        let v = Vma::anon(
            range(0xBF00_0000, 16 * PAGE_SIZE),
            Perms::RW,
            RegionTag::Stack,
            "[stack]",
        );
        assert!(v.dont_share_ptp);
        let h = Vma::anon(
            range(0x0800_0000, 16 * PAGE_SIZE),
            Perms::RW,
            RegionTag::Heap,
            "[heap]",
        );
        assert!(!h.dont_share_ptp);
    }

    #[test]
    fn private_writable_classification() {
        let mut v = Vma::anon(
            range(0x1000_0000, PAGE_SIZE),
            Perms::RW,
            RegionTag::Heap,
            "[heap]",
        );
        assert!(v.is_private_writable());
        v.shared = true;
        assert!(!v.is_private_writable());
        let code = Vma::file(
            range(0x2000_0000, PAGE_SIZE),
            Perms::RX,
            FileId(0),
            0,
            RegionTag::OtherLibCode,
            "lib.so",
        );
        assert!(!code.is_private_writable());
    }
}
