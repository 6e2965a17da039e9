//! Per-frame metadata: the `struct page` analogue.

use crate::frame::FrameKind;

/// Metadata kept for every physical frame, analogous to the Linux
/// kernel's `struct page`.
///
/// Two counters matter to the paper's mechanism:
///
/// - `refcount` — how many owners hold the frame (page-cache entry,
///   anonymous mapping, page-table root, ...); the frame is freed when
///   it drops to zero.
/// - `mapcount` — for data frames, how many PTEs map the frame; for
///   page-table pages, **how many processes share the PTP**. The paper
///   explicitly reuses this existing field as the PTP sharer count.
#[derive(Clone, Debug)]
pub struct PageInfo {
    /// What the frame currently holds.
    pub kind: FrameKind,
    /// Owner reference count; frame is freed when it reaches zero.
    pub refcount: u32,
    /// Mapping count (PTE mappings for data frames, sharer count for
    /// page-table pages).
    pub mapcount: u32,
    /// Set when the frame has been written through some mapping.
    pub dirty: bool,
    /// Software "referenced" bit (ARM has no hardware one; Linux/ARM
    /// emulates it in the software PTE).
    pub referenced: bool,
}

impl PageInfo {
    /// Creates metadata for a newly allocated frame of the given kind.
    pub fn new(kind: FrameKind) -> Self {
        PageInfo {
            kind,
            refcount: 1,
            mapcount: 0,
            dirty: false,
            referenced: false,
        }
    }

    /// Creates metadata for an unallocated frame sitting between
    /// `prev` and `next` on the allocator's free list.
    pub(crate) fn free(prev: u32, next: u32) -> Self {
        PageInfo {
            kind: FrameKind::Free { prev, next },
            refcount: 0,
            mapcount: 0,
            dirty: false,
            referenced: false,
        }
    }

    /// Returns `true` if the frame is currently unallocated.
    pub fn is_free(&self) -> bool {
        matches!(self.kind, FrameKind::Free { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_frame_has_single_reference() {
        let p = PageInfo::new(FrameKind::Anon);
        assert_eq!(p.refcount, 1);
        assert_eq!(p.mapcount, 0);
        assert!(!p.is_free());
        assert!(PageInfo::free(0, 1).is_free());
    }

    #[test]
    fn free_list_links_cost_no_space() {
        // The links ride in the variant payload `File { file, index }`
        // already pays for: `struct page` stays 24 bytes per frame.
        assert_eq!(std::mem::size_of::<FrameKind>(), 12);
        assert_eq!(std::mem::size_of::<PageInfo>(), 24);
    }
}
