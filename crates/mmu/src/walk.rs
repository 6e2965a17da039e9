//! The hardware page-table walker.
//!
//! A TLB miss triggers a walk: the MMU fetches the level-1 descriptor
//! and, for page mappings, the level-2 descriptor. Both fetches are
//! ordinary cached memory reads on Cortex-A9 — they allocate into the
//! L2 (and L1 data) cache. [`WalkResult::accesses`] reports the
//! physical addresses fetched so the cache model can account for this
//! traffic; duplicated private page tables mean duplicated PTE cache
//! lines, which is one of the inefficiencies the paper eliminates.
//!
//! A walk runs on every main-TLB miss, so it allocates nothing: the
//! one or two fetch addresses sit inline in the result
//! ([`WalkAccesses`]), which is plain `Copy` data.

use sat_types::{Domain, PageSize, Perms, Pfn, PhysAddr, VirtAddr};

use crate::l1::{L1Entry, RootTable};
use crate::ptp::{Ptp, PtpStore};

/// A successful translation, as loaded into a TLB entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Translation {
    /// Base frame of the translated page.
    pub pfn: Pfn,
    /// Page size of the mapping.
    pub size: PageSize,
    /// Access permissions from the descriptor.
    pub perms: Perms,
    /// Domain, inherited from the level-1 entry.
    pub domain: Domain,
    /// Global bit: valid in every address space.
    pub global: bool,
}

impl Translation {
    /// Translates a virtual address within this mapping's page to its
    /// physical address.
    ///
    /// Base-plus-offset rather than bit-stitching: the simulator's
    /// packed slot words carry large-page bases that need not be
    /// 64KB-aligned (a replicated descriptor is installed per 4KB
    /// slot), and addition keeps each slot's descriptor self-
    /// consistent for the addresses it serves. For aligned bases the
    /// two forms agree.
    pub fn translate(&self, va: VirtAddr) -> PhysAddr {
        let mask = self.size.bytes() - 1;
        PhysAddr::new(self.pfn.base().raw().wrapping_add(va.raw() & mask))
    }
}

/// The level at which a walk failed to find a valid descriptor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WalkFault {
    /// The level-1 descriptor is invalid (a *section translation
    /// fault* in ARM FSR terms).
    SectionTranslation,
    /// The level-2 descriptor is invalid (a *page translation fault*).
    PageTranslation,
}

/// Outcome of a walk: a translation or a translation fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WalkOutcome {
    /// The walk found a valid mapping.
    Translated(Translation),
    /// The walk hit an invalid descriptor.
    Fault(WalkFault),
}

/// The descriptor fetches of one walk, in fetch order: the level-1
/// word and, when the walk went on to a PTP, the level-2 word. Two
/// inline slots and a length; reads as the `&[PhysAddr]` it derefs to.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct WalkAccesses {
    addrs: [PhysAddr; 2],
    len: u8,
}

impl WalkAccesses {
    fn one(l1: PhysAddr) -> WalkAccesses {
        WalkAccesses {
            addrs: [l1, PhysAddr::new(0)],
            len: 1,
        }
    }

    fn two(l1: PhysAddr, l2: PhysAddr) -> WalkAccesses {
        WalkAccesses {
            addrs: [l1, l2],
            len: 2,
        }
    }
}

impl std::ops::Deref for WalkAccesses {
    type Target = [PhysAddr];

    fn deref(&self) -> &[PhysAddr] {
        &self.addrs[..usize::from(self.len)]
    }
}

impl<'a> IntoIterator for &'a WalkAccesses {
    type Item = &'a PhysAddr;
    type IntoIter = std::slice::Iter<'a, PhysAddr>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl std::fmt::Debug for WalkAccesses {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Result of a page-table walk: the outcome plus the physical
/// addresses of the descriptor words the walker fetched.
#[derive(Clone, Copy, Debug)]
pub struct WalkResult {
    /// Translation or fault.
    pub outcome: WalkOutcome,
    /// Descriptor fetches performed (1 for sections or level-1 faults,
    /// 2 for page mappings and level-2 faults).
    pub accesses: WalkAccesses,
}

impl WalkResult {
    /// Returns the translation, if the walk succeeded.
    pub fn translation(&self) -> Option<Translation> {
        match self.outcome {
            WalkOutcome::Translated(t) => Some(t),
            WalkOutcome::Fault(_) => None,
        }
    }
}

/// Walks the two-level table for `va`.
pub fn walk(root: &RootTable, ptps: &PtpStore, va: VirtAddr) -> WalkResult {
    let l1_idx = va.l1_index();
    let l1_addr = root.l1_entry_addr(l1_idx);
    let mut accesses = WalkAccesses::one(l1_addr);
    let outcome = match root.entry(l1_idx) {
        L1Entry::Fault => WalkOutcome::Fault(WalkFault::SectionTranslation),
        L1Entry::Section {
            base,
            size,
            perms,
            domain,
            global,
        } => WalkOutcome::Translated(Translation {
            pfn: base,
            size,
            perms,
            domain,
            global,
        }),
        L1Entry::Table {
            ptp,
            half,
            domain,
            need_copy: _,
        } => {
            let l2_idx = va.l2_index();
            accesses = WalkAccesses::two(l1_addr, Ptp::hw_pte_addr(ptp, half, l2_idx));
            let table = ptps
                .get(ptp)
                .expect("L1 entry references a PTP frame not in the store");
            match table.get(half, l2_idx) {
                None => WalkOutcome::Fault(WalkFault::PageTranslation),
                Some(slot) => WalkOutcome::Translated(Translation {
                    pfn: slot.hw.pfn,
                    size: slot.hw.size,
                    perms: slot.hw.perms,
                    domain,
                    global: slot.hw.global,
                }),
            }
        }
    };
    WalkResult { outcome, accesses }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pte::{HwPte, SwPte};
    use crate::ptp::TableHalf;
    use sat_phys::{FrameKind, PhysMem};

    struct Fixture {
        phys: PhysMem,
        root: RootTable,
        ptps: PtpStore,
    }

    fn fixture() -> Fixture {
        let mut phys = PhysMem::new(256);
        let root = RootTable::alloc(&mut phys).unwrap();
        Fixture {
            phys,
            root,
            ptps: PtpStore::new(),
        }
    }

    fn map_page(fx: &mut Fixture, va: VirtAddr, pfn: Pfn, perms: Perms, global: bool) {
        let ptp_frame = match fx.root.entry_for(va) {
            L1Entry::Table { ptp, .. } => ptp,
            L1Entry::Fault => {
                let f = fx.phys.alloc(FrameKind::PageTable).unwrap();
                fx.ptps.insert(f);
                fx.root.set_table_pair(va, f, Domain::USER, false);
                f
            }
            e => panic!("unexpected {e:?}"),
        };
        fx.ptps.get_mut(ptp_frame).unwrap().set(
            TableHalf::of(va),
            va.l2_index(),
            HwPte::small(pfn, perms, global),
            SwPte::default(),
        );
    }

    /// The level-1 and level-2 descriptor addresses a two-level walk
    /// of `va` fetches, derived from the tables rather than the walk.
    fn descriptor_addrs(fx: &Fixture, va: VirtAddr) -> [PhysAddr; 2] {
        let ptp = fx.root.entry_for(va).ptp().expect("va is table-mapped");
        [
            fx.root.l1_entry_addr(va.l1_index()),
            Ptp::hw_pte_addr(ptp, TableHalf::of(va), va.l2_index()),
        ]
    }

    #[test]
    fn walk_result_is_copy() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<WalkResult>();
    }

    #[test]
    fn unmapped_address_is_section_fault() {
        let fx = fixture();
        let va = VirtAddr::new(0x1000_0000);
        let r = walk(&fx.root, &fx.ptps, va);
        assert_eq!(r.outcome, WalkOutcome::Fault(WalkFault::SectionTranslation));
        assert_eq!(*r.accesses, [fx.root.l1_entry_addr(va.l1_index())]);
    }

    #[test]
    fn mapped_page_translates() {
        let mut fx = fixture();
        let va = VirtAddr::new(0x1234_5000);
        map_page(&mut fx, va, Pfn::new(0x77), Perms::RX, true);
        let r = walk(&fx.root, &fx.ptps, VirtAddr::new(0x1234_5678));
        let t = r.translation().unwrap();
        assert_eq!(t.pfn, Pfn::new(0x77));
        assert!(t.global);
        assert_eq!(t.perms, Perms::RX);
        assert_eq!(t.translate(VirtAddr::new(0x1234_5678)).raw(), 0x77_678);
        assert_eq!(*r.accesses, descriptor_addrs(&fx, va));
    }

    #[test]
    fn hole_in_mapped_ptp_is_page_fault() {
        let mut fx = fixture();
        let va = VirtAddr::new(0x1234_5000);
        map_page(&mut fx, va, Pfn::new(0x77), Perms::RX, false);
        let hole = VirtAddr::new(0x1234_6000);
        let r = walk(&fx.root, &fx.ptps, hole);
        assert_eq!(r.outcome, WalkOutcome::Fault(WalkFault::PageTranslation));
        assert_eq!(*r.accesses, descriptor_addrs(&fx, hole));
    }

    #[test]
    fn section_translates_without_second_fetch() {
        let mut fx = fixture();
        fx.root.set_entry(
            0xC00,
            L1Entry::Section {
                base: Pfn::new(0x100),
                size: PageSize::Section1M,
                perms: Perms::RWX,
                domain: Domain::KERNEL,
                global: true,
            },
        );
        let va = VirtAddr::new(0xC00A_BCDE);
        let r = walk(&fx.root, &fx.ptps, va);
        let t = r.translation().unwrap();
        assert_eq!(*r.accesses, [fx.root.l1_entry_addr(0xC00)]);
        assert_eq!(t.size, PageSize::Section1M);
        // Section base 0x0010_0000 plus the 1MB offset from the VA.
        assert_eq!(t.translate(va).raw(), 0x001A_BCDE);
    }

    #[test]
    fn pair_mates_use_distinct_halves_of_one_ptp() {
        let mut fx = fixture();
        let lo = VirtAddr::new(0x0020_0000); // even l1 index 2
        let hi = VirtAddr::new(0x0030_0000); // odd l1 index 3
        map_page(&mut fx, lo, Pfn::new(0x10), Perms::R, false);
        map_page(&mut fx, hi, Pfn::new(0x20), Perms::R, false);
        // Both use the same PTP frame.
        assert_eq!(fx.root.entry(2).ptp(), fx.root.entry(3).ptp());
        let r1 = walk(&fx.root, &fx.ptps, lo);
        let r2 = walk(&fx.root, &fx.ptps, hi);
        assert_eq!(r1.translation().unwrap().pfn, Pfn::new(0x10));
        assert_eq!(r2.translation().unwrap().pfn, Pfn::new(0x20));
        // The PTE fetch addresses land in different halves (1KB apart).
        assert_eq!(r2.accesses[1].raw() - r1.accesses[1].raw(), 1024);
    }

    #[test]
    fn large_page_translation_masks_low_bits() {
        let t = Translation {
            pfn: Pfn::new(0x540),
            size: PageSize::Large64K,
            perms: Perms::RX,
            domain: Domain::USER,
            global: false,
        };
        // 64KB page: low 16 bits come from the VA.
        assert_eq!(t.translate(VirtAddr::new(0x0001_2345)).raw(), 0x54_2345);
    }
}
