//! Property-based tests for the MMU structures.

use proptest::prelude::*;
use sat_mmu::{walk, HwPte, Mapper, PtpStore, RootTable, SwPte, WalkOutcome};
use sat_phys::{FrameKind, PhysMem};
use sat_types::{Domain, PageSize, Perms, Pfn, Pid, VaRange, VirtAddr, PAGE_SIZE};

fn perms_strategy() -> impl Strategy<Value = Perms> {
    prop_oneof![
        Just(Perms::R),
        Just(Perms::RW),
        Just(Perms::RX),
        Just(Perms::RWX),
    ]
}

proptest! {
    /// Hardware small-page descriptors round-trip through their raw
    /// ARMv7 encoding.
    #[test]
    fn small_pte_encode_decode_roundtrip(
        pfn in 0u32..0xF_FFFF,
        perms in perms_strategy(),
        global in any::<bool>(),
    ) {
        let pte = HwPte::small(Pfn::new(pfn), perms, global);
        let decoded = HwPte::decode(pte.encode()).expect("valid");
        prop_assert_eq!(decoded, pte);
    }

    /// Large-page descriptors round-trip too (base is 16-aligned).
    #[test]
    fn large_pte_encode_decode_roundtrip(
        group in 0u32..0xFFF,
        perms in perms_strategy(),
        global in any::<bool>(),
    ) {
        let pte = HwPte::large(Pfn::new(group * 16), perms, global);
        let decoded = HwPte::decode(pte.encode()).expect("valid");
        prop_assert_eq!(decoded, pte);
    }

    /// Mapping then walking yields the mapped translation, for any
    /// set of distinct pages; clearing makes them fault again; and
    /// frame accounting returns to baseline.
    #[test]
    fn map_walk_unmap_roundtrip(pages in prop::collection::btree_set(0u32..2048, 1..40)) {
        let mut phys = PhysMem::new(8192);
        let mut root = RootTable::alloc(&mut phys).unwrap();
        let mut ptps = PtpStore::new();
        let baseline = phys.frames_in_use();

        let mut frames = Vec::new();
        {
            let mut m = Mapper::new(&mut root, &mut ptps, &mut phys, Pid::new(1));
            for &p in &pages {
                let frame = m.phys.alloc(FrameKind::Anon).unwrap();
                let va = VirtAddr::new(0x1000_0000 + p * PAGE_SIZE);
                m.set_pte(va, HwPte::small(frame, Perms::RW, false), SwPte::anon(true), Domain::USER)
                    .unwrap();
                m.phys.put_page(frame); // PTE now owns it
                frames.push((va, frame));
            }
        }
        // Every mapped page translates to its frame.
        for &(va, frame) in &frames {
            let r = walk(&root, &ptps, va);
            match r.outcome {
                WalkOutcome::Translated(t) => {
                    prop_assert_eq!(t.pfn, frame);
                    prop_assert_eq!(t.size, PageSize::Small4K);
                }
                WalkOutcome::Fault(f) => return Err(TestCaseError::fail(format!("{va:?}: {f:?}"))),
            }
        }
        // Unmapped neighbours fault.
        let unmapped = VirtAddr::new(0x3000_0000);
        prop_assert!(walk(&root, &ptps, unmapped).translation().is_none());

        // Tear down: all data and table frames return.
        {
            let mut m = Mapper::new(&mut root, &mut ptps, &mut phys, Pid::new(1));
            let chunks: Vec<usize> = m.root.iter_ptps().map(|(i, _)| i).collect();
            for c in chunks {
                m.release_ptp_pair(VirtAddr::new((c as u32) << 20));
            }
        }
        prop_assert_eq!(phys.frames_in_use(), baseline);
        prop_assert!(ptps.is_empty());
        root.free(&mut phys);
    }

    /// Write-protecting a range never changes which pages are mapped,
    /// only their write permission, and is idempotent.
    #[test]
    fn write_protect_preserves_mappings(pages in prop::collection::btree_set(0u32..512, 1..30)) {
        let mut phys = PhysMem::new(4096);
        let mut root = RootTable::alloc(&mut phys).unwrap();
        let mut ptps = PtpStore::new();
        let mut m = Mapper::new(&mut root, &mut ptps, &mut phys, Pid::new(1));
        for &p in &pages {
            let frame = m.phys.alloc(FrameKind::Anon).unwrap();
            let va = VirtAddr::new(0x2000_0000 + p * PAGE_SIZE);
            m.set_pte(va, HwPte::small(frame, Perms::RW, false), SwPte::anon(true), Domain::USER)
                .unwrap();
            m.phys.put_page(frame);
        }
        let range = VaRange::from_len(VirtAddr::new(0x2000_0000), 512 * PAGE_SIZE);
        let protected = m.write_protect_range(range);
        prop_assert_eq!(protected, pages.len());
        for &p in &pages {
            let va = VirtAddr::new(0x2000_0000 + p * PAGE_SIZE);
            let slot = m.get_pte(va).expect("still mapped");
            prop_assert!(!slot.hw.perms.write());
            prop_assert!(slot.hw.perms.read());
        }
        // Idempotent: nothing left to protect.
        prop_assert_eq!(m.write_protect_range(range), 0);
    }

    /// The walker reports exactly the descriptor fetches the hardware
    /// would perform: one for level-1-only outcomes, two otherwise.
    #[test]
    fn walk_access_counts(addr in 0u32..0xC000_0000) {
        let mut phys = PhysMem::new(64);
        let root = RootTable::alloc(&mut phys).unwrap();
        let ptps = PtpStore::new();
        let r = walk(&root, &ptps, VirtAddr::new(addr));
        // Empty table: always a level-1 fault with one fetch.
        prop_assert_eq!(r.accesses.len(), 1);
        prop_assert!(r.translation().is_none());
    }
}

/// The range walker against the page-by-page loops it replaced.
mod range_walker {
    use super::*;
    use sat_mmu::{L1Entry, PteSlot};
    use std::collections::BTreeSet;

    /// The top four PTP pairs of the address space hold the tables;
    /// the megabyte below them stays unmapped.
    const FIRST_MB: u32 = 0xFF8;
    const MBS: u32 = 8;
    const FIRST_VPN: u32 = (FIRST_MB - 1) << 8;

    /// A random sparse table: which 64KB groups are large pages, which
    /// slots hold small pages (by slot number across the eight
    /// megabytes) and with what rights.
    #[derive(Clone, Debug)]
    struct Layout {
        groups: BTreeSet<u32>,
        smalls: Vec<(u32, Perms)>,
    }

    fn layout() -> impl Strategy<Value = Layout> {
        (
            prop::collection::btree_set(0..MBS * 16, 0..12),
            prop::collection::vec((0..MBS * 256, perms_strategy()), 0..60),
        )
            .prop_map(|(groups, smalls)| Layout { groups, smalls })
    }

    fn mb_base(mb: u32) -> VirtAddr {
        VirtAddr::new((FIRST_MB + mb) << 20)
    }

    struct Fx {
        phys: PhysMem,
        root: RootTable,
        ptps: PtpStore,
    }

    impl Fx {
        /// Builds the layout; two builds of one layout are identical
        /// down to the frame numbers.
        fn build(layout: &Layout) -> Fx {
            let mut phys = PhysMem::new(8192);
            let mut root = RootTable::alloc(&mut phys).unwrap();
            let mut ptps = PtpStore::new();
            let mut m = Mapper::new(&mut root, &mut ptps, &mut phys, Pid::new(1));
            let mut taken = BTreeSet::new();
            for &group in &layout.groups {
                let at = VirtAddr::new(mb_base(0).raw() + group * 16 * PAGE_SIZE);
                m.ensure_ptp(at, Domain::USER).unwrap();
                let base = m.phys.alloc_run(FrameKind::Anon, 16).unwrap();
                for i in 0..16 {
                    let va = VirtAddr::new(at.raw() + i * PAGE_SIZE);
                    m.set_pte(
                        va,
                        HwPte::large(base, Perms::RW, false),
                        SwPte::anon(true),
                        Domain::USER,
                    )
                    .unwrap();
                    m.phys.put_page(Pfn::new(base.raw() + i));
                    taken.insert(group * 16 + i);
                }
            }
            for &(slot, perms) in &layout.smalls {
                if !taken.insert(slot) {
                    continue;
                }
                let va = VirtAddr::new(mb_base(0).raw() + slot * PAGE_SIZE);
                let frame = m.phys.alloc(FrameKind::Anon).unwrap();
                m.set_pte(
                    va,
                    HwPte::small(frame, perms, false),
                    SwPte::anon(perms.write()),
                    Domain::USER,
                )
                .unwrap();
                m.phys.put_page(frame);
            }
            Fx { phys, root, ptps }
        }

        fn mapper(&mut self) -> Mapper<'_> {
            Mapper::new(&mut self.root, &mut self.ptps, &mut self.phys, Pid::new(1))
        }

        /// Every slot and level-1 entry of the nine megabytes, and
        /// the allocator's counters.
        fn state(&mut self) -> (Vec<Option<PteSlot>>, Vec<L1Entry>, u64, u64, usize) {
            self.phys.rmap_verify().unwrap();
            let entries = (FIRST_MB - 1..FIRST_MB + MBS)
                .map(|l1| self.root.entry(l1 as usize))
                .collect();
            let stats = self.phys.stats();
            let rmap = self.phys.rmap_total();
            let m = self.mapper();
            let slots = (FIRST_VPN..=0xF_FFFF)
                .map(|vpn| m.get_pte(VirtAddr::new(vpn << 12)))
                .collect();
            (slots, entries, stats.in_use, stats.total_frees, rmap)
        }
    }

    /// A byte range inside the nine megabytes: random, or one of the
    /// shapes the walker's edge arithmetic has to get right.
    fn range() -> impl Strategy<Value = VaRange> {
        let top = VirtAddr::new(0xFFFF_F000);
        let within = (FIRST_VPN..0x10_0000, 0..PAGE_SIZE, 0u32..2304, 0..PAGE_SIZE).prop_map(
            |(vpn, off, pages, end_off)| {
                let start = (vpn << 12) + off;
                let end = u64::from(start) + u64::from(pages * PAGE_SIZE + end_off);
                VaRange::new(
                    VirtAddr::new(start),
                    VirtAddr::new(end.min(u64::from(u32::MAX)) as u32),
                )
            },
        );
        prop_oneof![
            within,
            // Starts and ends inside one table.
            Just(VaRange::from_len(
                VirtAddr::new(mb_base(2).raw() + 0x1_3000),
                0x4_2000
            )),
            // Crosses from one 2MB pair into the next, mid-table both ends.
            Just(VaRange::from_len(
                VirtAddr::new(mb_base(1).raw() + 0xF_8000),
                0x11_0000
            )),
            // Covers whole megabytes.
            Just(VaRange::from_len(mb_base(0), MBS * (1 << 20))),
            // The last page: `0xFFFF_F000 + 4KB` wraps `u32`.
            Just(VaRange::from_len(top, PAGE_SIZE)),
            (0u32..2048).prop_map(move |pages| {
                VaRange::new(
                    VirtAddr::new(top.raw() - pages * PAGE_SIZE),
                    VirtAddr::new(u32::MAX),
                )
            }),
        ]
    }

    proptest! {
        #[test]
        fn range_walker_matches_the_page_by_page_loops(layout in layout(), range in range()) {
            let mut walked = Fx::build(&layout);
            let mut paged = Fx::build(&layout);
            prop_assert_eq!(walked.state(), paged.state());

            let by_page: Vec<(VirtAddr, PteSlot)> = {
                let m = paged.mapper();
                range.pages().filter_map(|va| m.get_pte(va).map(|s| (va, s))).collect()
            };
            prop_assert_eq!(walked.mapper().iter_range(range), by_page);

            let protected = {
                let mut m = paged.mapper();
                range
                    .pages()
                    .filter(|&va| {
                        m.get_pte(va).is_some_and(|s| s.hw.perms.write())
                            && m.update_pte(va, |hw, _| *hw = hw.write_protected())
                    })
                    .count()
            };
            prop_assert_eq!(walked.mapper().write_protect_range(range), protected);
            prop_assert_eq!(walked.state(), paged.state());

            let cleared = {
                let mut m = paged.mapper();
                range.pages().filter(|&va| m.clear_pte(va).is_some()).count()
            };
            prop_assert_eq!(walked.mapper().clear_range(range), cleared);
            prop_assert_eq!(walked.mapper().iter_range(range), vec![]);
            prop_assert_eq!(walked.state(), paged.state());
        }
    }
}
