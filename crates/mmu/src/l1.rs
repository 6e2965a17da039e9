//! The first-level (root) translation table.

use sat_phys::{FrameKind, PhysMem};
use sat_types::{
    Dacr, Domain, PageSize, Perms, Pfn, PhysAddr, SatResult, VirtAddr, L1_ENTRIES, MAX_FRAMES,
};

use crate::groups::{Groups, GROUP_WORDS};
use crate::ptp::TableHalf;

/// A first-level descriptor.
///
/// Level-1 entries are managed in pairs (even/odd) pointing at the two
/// halves of one page-table page. The paper adds a `NEED_COPY` flag in
/// a spare bit of the level-1 PTE to mark the referenced PTP as shared
/// copy-on-write.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum L1Entry {
    /// Invalid: any access faults at the first level.
    #[default]
    Fault,
    /// Points at one half of a page-table page.
    Table {
        /// Frame holding the PTP.
        ptp: Pfn,
        /// Which 1KB hardware table within the PTP.
        half: TableHalf,
        /// Domain inherited by the second-level entries.
        domain: Domain,
        /// The paper's NEED_COPY spare bit: the PTP is shared and must
        /// be copied before this process may modify it.
        need_copy: bool,
    },
    /// A section (1MB) or supersection (16MB) mapping with no second
    /// level.
    Section {
        /// First frame of the mapped region.
        base: Pfn,
        /// [`PageSize::Section1M`] or [`PageSize::Super16M`].
        size: PageSize,
        /// Access permissions.
        perms: Perms,
        /// Domain of the mapping. (Supersections are always domain 0
        /// architecturally; the simulator does not enforce that.)
        domain: Domain,
        /// Global bit.
        global: bool,
    },
}

/// Entry word, bits 0-1: `L1_FAULT` (so a zeroed table is all
/// faults), `L1_TABLE` or `L1_SECTION`.
pub(crate) const L1_TAG_MASK: u32 = 0b11;
pub(crate) const L1_FAULT: u32 = 0;
pub(crate) const L1_TABLE: u32 = 1;
const L1_SECTION: u32 = 2;
/// Entry word, bit 2: the upper half of the PTP (table) or a 16MB
/// supersection (section).
const L1_UPPER_OR_SUPER: u32 = 1 << 2;
/// Entry word, bit 3: NEED_COPY (table) or the global bit (section).
pub(crate) const L1_NEED_COPY_OR_GLOBAL: u32 = 1 << 3;
/// Entry word, bits 4-7: the domain.
const L1_DOMAIN_SHIFT: u32 = 4;
/// Entry word, bits 8-10: [`Perms::bits`] (section only).
const L1_PERMS_SHIFT: u32 = 8;
/// Entry word, the top bits down to here: the PTP frame or the
/// section's base frame, as wide as [`MAX_FRAMES`] needs (bits 12-31;
/// bit 11 is spare).
const L1_FRAME_SHIFT: u32 = 32 - MAX_FRAMES.trailing_zeros();

const _: () = assert!(7 << L1_PERMS_SHIFT < 1 << L1_FRAME_SHIFT);

impl L1Entry {
    /// Packs the entry into its word of the root table. Like the PTP's
    /// slot word this is a private lossless encoding (the architectural
    /// section descriptor has no room for an unaligned base), resting
    /// on `PhysMem` holding no frame past [`MAX_FRAMES`].
    pub(crate) fn pack(self) -> u32 {
        let flag = |on: bool, bit: u32| if on { bit } else { 0 };
        let (tag, frame, domain, rest) = match self {
            L1Entry::Fault => return L1_FAULT,
            L1Entry::Table {
                ptp,
                half,
                domain,
                need_copy,
            } => (
                L1_TABLE,
                ptp,
                domain,
                flag(half == TableHalf::Upper, L1_UPPER_OR_SUPER)
                    | flag(need_copy, L1_NEED_COPY_OR_GLOBAL),
            ),
            L1Entry::Section {
                base,
                size,
                perms,
                domain,
                global,
            } => {
                let supersection = match size {
                    PageSize::Section1M => false,
                    PageSize::Super16M => true,
                    _ => unreachable!("level-1 mappings are 1MB or 16MB"),
                };
                (
                    L1_SECTION,
                    base,
                    domain,
                    flag(supersection, L1_UPPER_OR_SUPER)
                        | flag(global, L1_NEED_COPY_OR_GLOBAL)
                        | u32::from(perms.bits()) << L1_PERMS_SHIFT,
                )
            }
        };
        debug_assert!(
            frame.raw() < MAX_FRAMES,
            "{frame:?} is past the entry word's frame field"
        );
        tag | rest | u32::from(domain.raw()) << L1_DOMAIN_SHIFT | frame.raw() << L1_FRAME_SHIFT
    }

    /// Unpacks a word written by [`L1Entry::pack`].
    pub(crate) fn unpack(word: u32) -> L1Entry {
        let frame = Pfn::new(word >> L1_FRAME_SHIFT);
        let domain = Domain::new((word >> L1_DOMAIN_SHIFT & 0xF) as u8);
        match word & L1_TAG_MASK {
            L1_TABLE => L1Entry::Table {
                ptp: frame,
                half: if word & L1_UPPER_OR_SUPER != 0 {
                    TableHalf::Upper
                } else {
                    TableHalf::Lower
                },
                domain,
                need_copy: word & L1_NEED_COPY_OR_GLOBAL != 0,
            },
            L1_SECTION => L1Entry::Section {
                base: frame,
                size: if word & L1_UPPER_OR_SUPER != 0 {
                    PageSize::Super16M
                } else {
                    PageSize::Section1M
                },
                perms: Perms::from_bits((word >> L1_PERMS_SHIFT) as u8),
                domain,
                global: word & L1_NEED_COPY_OR_GLOBAL != 0,
            },
            _ => L1Entry::Fault,
        }
    }

    /// Returns the PTP frame if this is a table entry.
    pub fn ptp(&self) -> Option<Pfn> {
        match self {
            L1Entry::Table { ptp, .. } => Some(*ptp),
            _ => None,
        }
    }

    /// Returns `true` if this is a table entry with NEED_COPY set.
    pub fn need_copy(&self) -> bool {
        matches!(
            self,
            L1Entry::Table {
                need_copy: true,
                ..
            }
        )
    }

    /// Returns the entry's domain, if valid.
    pub fn domain(&self) -> Option<Domain> {
        match self {
            L1Entry::Fault => None,
            L1Entry::Table { domain, .. } | L1Entry::Section { domain, .. } => Some(*domain),
        }
    }
}

/// Groups in a root table's 4096 entry words.
const ROOT_GROUPS: usize = L1_ENTRIES / GROUP_WORDS;

/// `true` if `word` packs a table entry.
fn is_table(word: u32) -> bool {
    word & L1_TAG_MASK == L1_TABLE
}

/// A process's first-level translation table (4096 entries, 16KB).
///
/// The real table occupies four contiguous 4KB frames; the simulator
/// allocates four frames so level-1 walk accesses have physical
/// addresses for the cache model. On the host it is one word per entry
/// — of which [`L1Entry`] is the decoded view [`RootTable::entry`]
/// returns and [`RootTable::set_entry`] takes — stored by populated
/// 64-entry group (see `groups.rs`): a zygote child's 77 entries sit in
/// five or six groups, so the table every live process carries costs
/// ≈ 2 KiB, not 16. The groups are also the index: the PTPs and the
/// sections a table references are found by scanning the populated
/// groups, which is O(populated) where a scan of all 4096 words was
/// not.
pub struct RootTable {
    entries: Groups<ROOT_GROUPS>,
    frames: [Pfn; 4],
}

impl RootTable {
    /// Allocates a root table (four frames) with all entries invalid.
    /// On failure the frames already taken go back to `phys`.
    pub fn alloc(phys: &mut PhysMem) -> SatResult<RootTable> {
        let mut frames = [Pfn::new(0); 4];
        for taken in 0..frames.len() {
            match phys.alloc(FrameKind::RootTable) {
                Ok(frame) => frames[taken] = frame,
                Err(e) => {
                    for &frame in &frames[..taken] {
                        phys.put_page(frame);
                    }
                    return Err(e);
                }
            }
        }
        Ok(RootTable {
            entries: Groups::new(),
            frames,
        })
    }

    /// Releases the root table's frames.
    pub fn free(self, phys: &mut PhysMem) {
        for f in self.frames {
            phys.put_page(f);
        }
    }

    /// Returns the entry for index `idx`.
    pub fn entry(&self, idx: usize) -> L1Entry {
        L1Entry::unpack(self.entries.get(idx))
    }

    /// Returns the entry covering `va`.
    pub fn entry_for(&self, va: VirtAddr) -> L1Entry {
        self.entry(va.l1_index())
    }

    /// Sets the entry at index `idx`.
    pub fn set_entry(&mut self, idx: usize, e: L1Entry) {
        self.entries.set(idx, e.pack());
    }

    /// Installs both entries of the pair covering `va` to point at the
    /// two halves of `ptp`.
    ///
    /// Linux/ARM always populates level-1 entries two at a time, since
    /// one PTP carries both hardware tables of the pair.
    pub fn set_table_pair(&mut self, va: VirtAddr, ptp: Pfn, domain: Domain, need_copy: bool) {
        let even = va.l1_index() & !1;
        for (idx, half) in [(even, TableHalf::Lower), (even + 1, TableHalf::Upper)] {
            // A section in one half survives: its 1MB is a leaf here,
            // the PTP only serves the other half.
            if matches!(self.entry(idx), L1Entry::Section { .. }) {
                continue;
            }
            self.set_entry(
                idx,
                L1Entry::Table {
                    ptp,
                    half,
                    domain,
                    need_copy,
                },
            );
        }
    }

    /// Clears the table entries of the pair covering `va` (sections in
    /// either half survive), returning the PTP frame they referenced
    /// (if any).
    pub fn clear_table_pair(&mut self, va: VirtAddr) -> Option<Pfn> {
        let even = va.l1_index() & !1;
        let ptp = self.entry(even).ptp().or(self.entry(even + 1).ptp());
        for idx in [even, even + 1] {
            if self.entry(idx).ptp().is_some() {
                self.set_entry(idx, L1Entry::Fault);
            }
        }
        ptp
    }

    /// Sets or clears NEED_COPY on both entries of the pair covering
    /// `va`.
    ///
    /// # Panics
    ///
    /// Panics if the pair does not hold table entries.
    pub fn set_need_copy(&mut self, va: VirtAddr, value: bool) {
        let even = va.l1_index() & !1;
        for idx in [even, even + 1] {
            let word = self.entries.get(idx);
            assert!(
                is_table(word),
                "set_need_copy on non-table entry {:?}",
                L1Entry::unpack(word)
            );
            self.entries.set(
                idx,
                if value {
                    word | L1_NEED_COPY_OR_GLOBAL
                } else {
                    word & !L1_NEED_COPY_OR_GLOBAL
                },
            );
        }
    }

    /// Physical address of the level-1 descriptor word for index
    /// `idx` — the address the hardware walker fetches first.
    pub fn l1_entry_addr(&self, idx: usize) -> PhysAddr {
        let frame = self.frames[idx / 1024];
        PhysAddr::new(frame.base().raw() + ((idx % 1024) as u32) * 4)
    }

    /// Iterates over `(pair_base_index, ptp_frame)` for every distinct
    /// PTP referenced by this table, in ascending pair order. A pair is
    /// listed while *either* half holds a table entry — the even half's
    /// frame if it holds one, else the odd half's — so a section
    /// promoted into one half never hides the PTP still referenced by
    /// the other.
    ///
    /// Served from the populated groups: O(#entries), not O(4096).
    pub fn iter_ptps(&self) -> impl Iterator<Item = (usize, Pfn)> + '_ {
        self.entries
            .iter(0..L1_ENTRIES)
            .filter(|&(_, word)| is_table(word))
            .filter_map(|(idx, word)| {
                // The odd half speaks for the pair only when the even
                // half (just visited, if populated) holds no table.
                let listed = idx % 2 == 1 && is_table(self.entries.get(idx - 1));
                (!listed).then(|| (idx & !1, Pfn::new(word >> L1_FRAME_SHIFT)))
            })
    }

    /// Counts distinct PTPs referenced by this table.
    pub fn ptp_count(&self) -> usize {
        self.iter_ptps().count()
    }

    /// Iterates over the L1 indices holding section entries, in
    /// ascending order — O(#entries), not O(4096).
    pub fn iter_sections(&self) -> impl Iterator<Item = usize> + '_ {
        self.entries
            .iter(0..L1_ENTRIES)
            .filter(|&(_, word)| word & L1_TAG_MASK == L1_SECTION)
            .map(|(idx, _)| idx)
    }

    /// Counts section entries in this table.
    pub fn section_count(&self) -> usize {
        self.iter_sections().count()
    }

    /// Consistency check of the host-side storage, for tests and the
    /// whole-system auditor: every allocated group holds at least one
    /// entry and counts its own correctly, and every stored word is one
    /// [`RootTable::set_entry`] writes. Returns a description of the
    /// first violation found.
    pub fn verify(&self) -> Result<(), String> {
        self.entries.verify()?;
        for (idx, word) in self.entries.iter(0..L1_ENTRIES) {
            let entry = L1Entry::unpack(word);
            if entry == L1Entry::Fault || entry.pack() != word {
                return Err(format!(
                    "entry {idx} stores {word:#010x}, which packs no entry ({entry:?})"
                ));
            }
        }
        Ok(())
    }
}

/// The per-process MMU context: the root table plus the process's
/// domain access rights. Loaded into the "hardware" on context switch.
pub struct MmuContext {
    /// The first-level table.
    pub root: RootTable,
    /// The process's DACR value (lives in its task control block).
    pub dacr: Dacr,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> (PhysMem, RootTable) {
        let mut phys = PhysMem::new(64);
        let rt = RootTable::alloc(&mut phys).unwrap();
        (phys, rt)
    }

    #[test]
    fn fresh_table_is_all_faults() {
        let (_p, rt) = root();
        assert_eq!(rt.entry(0), L1Entry::Fault);
        assert_eq!(rt.entry(4095), L1Entry::Fault);
        assert_eq!(rt.ptp_count(), 0);
    }

    /// The footprint: a root table owns the groups that hold its
    /// entries and no other — a fresh one none at all.
    #[test]
    fn a_fresh_root_table_owns_no_group() {
        let (_p, mut rt) = root();
        assert_eq!(rt.entries.populated(), 0);
        // Writing faults over faults allocates nothing.
        rt.set_entry(70, L1Entry::Fault);
        assert_eq!(rt.clear_table_pair(VirtAddr::new(0x0460_0000)), None);
        assert_eq!(rt.entries.populated(), 0);
        // One pair is one group; the pair across the boundary another.
        rt.set_table_pair(VirtAddr::new(0x03E0_0000), Pfn::new(7), Domain::USER, false);
        assert_eq!(rt.entries.populated(), 1);
        rt.set_table_pair(VirtAddr::new(0x0400_0000), Pfn::new(8), Domain::USER, true);
        assert_eq!(rt.entries.populated(), 2);
        rt.set_need_copy(VirtAddr::new(0x0400_0000), false);
        rt.verify().unwrap();
        assert_eq!(
            rt.clear_table_pair(VirtAddr::new(0x03F0_0000)),
            Some(Pfn::new(7))
        );
        assert_eq!(rt.entries.populated(), 1);
        assert_eq!(
            rt.clear_table_pair(VirtAddr::new(0x0400_0000)),
            Some(Pfn::new(8))
        );
        assert_eq!(rt.entries.populated(), 0);
        rt.verify().unwrap();
    }

    #[test]
    fn a_failed_alloc_returns_the_frames_it_took() {
        for frames in 0..4 {
            let mut phys = PhysMem::new(frames);
            assert_eq!(
                RootTable::alloc(&mut phys).err(),
                Some(sat_types::SatError::OutOfMemory)
            );
            assert_eq!(phys.frames_in_use(), 0, "a pool of {frames}");
        }
    }

    /// Every variant × 16 domains × half or size × NEED_COPY or
    /// global × all eight permission sets × frames at both ends of the
    /// field and one that is not 16-aligned.
    #[test]
    fn entry_word_round_trips_every_entry() {
        assert_eq!(L1Entry::Fault.pack(), 0);
        assert_eq!(L1Entry::unpack(0), L1Entry::Fault);
        let mut seen = 0;
        for frame in [0, 1, 0x5431, MAX_FRAMES - 1].map(Pfn::new) {
            for domain in (0..16).map(Domain::new) {
                for flag in [false, true] {
                    for half in [TableHalf::Lower, TableHalf::Upper] {
                        let e = L1Entry::Table {
                            ptp: frame,
                            half,
                            domain,
                            need_copy: flag,
                        };
                        assert_eq!(L1Entry::unpack(e.pack()), e, "{:#010x}", e.pack());
                        seen += 1;
                    }
                    for size in [PageSize::Section1M, PageSize::Super16M] {
                        for perms in (0..8).map(Perms::from_bits) {
                            let e = L1Entry::Section {
                                base: frame,
                                size,
                                perms,
                                domain,
                                global: flag,
                            };
                            assert_eq!(L1Entry::unpack(e.pack()), e, "{:#010x}", e.pack());
                            seen += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(seen, 4 * 16 * 2 * (2 + 16));
    }

    #[test]
    fn set_need_copy_flips_one_bit_of_the_word() {
        let (_p, mut rt) = root();
        let va = VirtAddr::new(0xFFE0_0000); // the last pair
        rt.set_table_pair(va, Pfn::new(MAX_FRAMES - 1), Domain::new(15), false);
        let before = [rt.entry(4094), rt.entry(4095)];
        rt.set_need_copy(va, true);
        for (idx, was) in [4094, 4095].into_iter().zip(before) {
            let L1Entry::Table {
                ptp, half, domain, ..
            } = was
            else {
                panic!("unexpected {was:?}");
            };
            assert_eq!(
                rt.entry(idx),
                L1Entry::Table {
                    ptp,
                    half,
                    domain,
                    need_copy: true
                }
            );
        }
        rt.set_need_copy(va, false);
        assert_eq!([rt.entry(4094), rt.entry(4095)], before);
    }

    #[test]
    #[should_panic(expected = "set_need_copy on non-table entry")]
    fn set_need_copy_refuses_a_section() {
        let (_p, mut rt) = root();
        rt.set_entry(
            6,
            L1Entry::Section {
                base: Pfn::new(0x100),
                size: PageSize::Section1M,
                perms: Perms::RW,
                domain: Domain::USER,
                global: false,
            },
        );
        rt.set_need_copy(VirtAddr::new(0x0060_0000), true);
    }

    #[test]
    fn set_table_pair_sets_both_halves() {
        let (_p, mut rt) = root();
        let va = VirtAddr::new(0x0030_0000); // l1 index 3 -> pair (2, 3)
        rt.set_table_pair(va, Pfn::new(42), Domain::USER, false);
        match rt.entry(2) {
            L1Entry::Table { ptp, half, .. } => {
                assert_eq!(ptp, Pfn::new(42));
                assert_eq!(half, TableHalf::Lower);
            }
            e => panic!("unexpected {e:?}"),
        }
        match rt.entry(3) {
            L1Entry::Table { half, .. } => assert_eq!(half, TableHalf::Upper),
            e => panic!("unexpected {e:?}"),
        }
        assert_eq!(rt.ptp_count(), 1);
    }

    #[test]
    fn need_copy_round_trip() {
        let (_p, mut rt) = root();
        let va = VirtAddr::new(0x0040_0000);
        rt.set_table_pair(va, Pfn::new(7), Domain::ZYGOTE, false);
        assert!(!rt.entry_for(va).need_copy());
        rt.set_need_copy(va, true);
        assert!(rt.entry(4).need_copy());
        assert!(rt.entry(5).need_copy());
        rt.set_need_copy(va, false);
        assert!(!rt.entry(4).need_copy());
    }

    #[test]
    fn clear_table_pair_returns_frame() {
        let (_p, mut rt) = root();
        let va = VirtAddr::new(0x0000_0000);
        rt.set_table_pair(va, Pfn::new(9), Domain::USER, true);
        assert_eq!(rt.clear_table_pair(va), Some(Pfn::new(9)));
        assert_eq!(rt.entry(0), L1Entry::Fault);
        assert_eq!(rt.entry(1), L1Entry::Fault);
        assert_eq!(rt.clear_table_pair(va), None);
    }

    #[test]
    fn l1_entry_addresses_span_four_frames() {
        let (_p, rt) = root();
        let a0 = rt.l1_entry_addr(0);
        let a1023 = rt.l1_entry_addr(1023);
        let a1024 = rt.l1_entry_addr(1024);
        assert_eq!(a1023.raw() - a0.raw(), 1023 * 4);
        // Entry 1024 lives in the second frame.
        assert_ne!(a1024.frame_base(), a0.frame_base());
    }

    #[test]
    fn pair_index_tracks_all_mutators() {
        let (_p, mut rt) = root();
        let va = VirtAddr::new(0x0040_0000); // pair (4, 5)
        rt.set_table_pair(va, Pfn::new(7), Domain::USER, false);
        assert_eq!(rt.iter_ptps().collect::<Vec<_>>(), vec![(4, Pfn::new(7))]);
        // Direct overwrite through set_entry keeps the index honest.
        rt.set_entry(
            4,
            L1Entry::Table {
                ptp: Pfn::new(8),
                half: TableHalf::Lower,
                domain: Domain::USER,
                need_copy: false,
            },
        );
        assert_eq!(rt.iter_ptps().collect::<Vec<_>>(), vec![(4, Pfn::new(8))]);
        // A section in the even half does NOT drop the pair while the
        // odd half still references a PTP (promotion of one 1MB half
        // must not hide the neighbour's table from teardown).
        rt.set_entry(
            4,
            L1Entry::Section {
                base: Pfn::new(0x100),
                size: PageSize::Section1M,
                perms: Perms::RX,
                domain: Domain::USER,
                global: false,
            },
        );
        assert_eq!(rt.iter_ptps().collect::<Vec<_>>(), vec![(4, Pfn::new(7))]);
        assert_eq!(rt.iter_sections().collect::<Vec<_>>(), vec![4]);
        // Dropping the surviving table half delists the pair; the
        // section stays.
        rt.set_entry(5, L1Entry::Fault);
        assert_eq!(rt.ptp_count(), 0);
        assert_eq!(rt.section_count(), 1);
        // set_table_pair over a mixed pair installs only the free half.
        rt.set_table_pair(va, Pfn::new(9), Domain::USER, true);
        assert!(matches!(rt.entry(4), L1Entry::Section { .. }));
        assert_eq!(rt.entry(5).ptp(), Some(Pfn::new(9)));
        // clear_table_pair clears the table half and spares the section.
        assert_eq!(rt.clear_table_pair(va), Some(Pfn::new(9)));
        assert_eq!(rt.ptp_count(), 0);
        assert!(matches!(rt.entry(4), L1Entry::Section { .. }));
        rt.set_entry(4, L1Entry::Fault);
        assert_eq!(rt.section_count(), 0);
    }

    #[test]
    fn iter_ptps_yields_pairs_in_ascending_order() {
        let (_p, mut rt) = root();
        for &(idx, pfn) in &[(0x800usize, 3u32), (2usize, 1), (0x400usize, 2)] {
            rt.set_table_pair(
                VirtAddr::new((idx as u32) << 20),
                Pfn::new(pfn),
                Domain::USER,
                false,
            );
        }
        let order: Vec<usize> = rt.iter_ptps().map(|(i, _)| i).collect();
        assert_eq!(order, vec![2, 0x400, 0x800]);
    }

    #[test]
    fn root_table_frees_its_frames() {
        let (mut phys, rt) = root();
        let before = phys.frames_in_use();
        rt.free(&mut phys);
        assert_eq!(phys.frames_in_use(), before - 4);
    }
}
