//! The first-level (root) translation table.

use sat_phys::{FrameKind, PhysMem};
use sat_types::{Domain, Pfn, PhysAddr, SatResult, VirtAddr, L1_ENTRIES, MAX_FRAMES};

use crate::groups::{Groups, GROUP_WORDS};
use crate::ptp::TableHalf;

/// A first-level descriptor.
///
/// Level-1 entries are managed in pairs (even/odd) pointing at the two
/// halves of one page-table page. The paper adds a `NEED_COPY` flag in
/// a spare bit of the level-1 PTE to mark the referenced PTP as shared
/// copy-on-write. No user mapping is a level-1 leaf: the one large
/// user page is the 64KB group, which lives in a second-level table.
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
}

/// Entry word, bits 0-1: `L1_FAULT` (so a zeroed table is all faults)
/// or `L1_TABLE`; the other two tags pack no entry.
pub(crate) const L1_TAG_MASK: u32 = 0b11;
pub(crate) const L1_FAULT: u32 = 0;
pub(crate) const L1_TABLE: u32 = 1;
/// Entry word, bit 2: the upper half of the PTP.
const L1_UPPER: u32 = 1 << 2;
/// Entry word, bit 3: NEED_COPY.
pub(crate) const L1_NEED_COPY: u32 = 1 << 3;
/// Entry word, bits 4-7: the domain.
const L1_DOMAIN_SHIFT: u32 = 4;
/// Entry word, the top bits down to here: the PTP frame, as wide as
/// [`MAX_FRAMES`] needs (bits 12-31; bits 8-11 are spare).
const L1_FRAME_SHIFT: u32 = 32 - MAX_FRAMES.trailing_zeros();

impl L1Entry {
    /// Packs the entry into its word of the root table. Like the PTP's
    /// slot word this is a private lossless encoding, resting on
    /// `PhysMem` holding no frame past [`MAX_FRAMES`].
    pub(crate) fn pack(self) -> u32 {
        let L1Entry::Table {
            ptp,
            half,
            domain,
            need_copy,
        } = self
        else {
            return L1_FAULT;
        };
        debug_assert!(
            ptp.raw() < MAX_FRAMES,
            "{ptp:?} is past the entry word's frame field"
        );
        let flag = |on: bool, bit: u32| if on { bit } else { 0 };
        L1_TABLE
            | flag(half == TableHalf::Upper, L1_UPPER)
            | flag(need_copy, L1_NEED_COPY)
            | u32::from(domain.raw()) << L1_DOMAIN_SHIFT
            | ptp.raw() << L1_FRAME_SHIFT
    }

    /// Unpacks a word written by [`L1Entry::pack`].
    #[inline]
    pub(crate) fn unpack(word: u32) -> L1Entry {
        if word & L1_TAG_MASK != L1_TABLE {
            return L1Entry::Fault;
        }
        L1Entry::Table {
            ptp: Pfn::new(word >> L1_FRAME_SHIFT),
            half: if word & L1_UPPER != 0 {
                TableHalf::Upper
            } else {
                TableHalf::Lower
            },
            domain: Domain::new((word >> L1_DOMAIN_SHIFT & 0xF) as u8),
            need_copy: word & L1_NEED_COPY != 0,
        }
    }

    /// Returns the PTP frame if this is a table entry.
    pub fn ptp(&self) -> Option<Pfn> {
        match self {
            L1Entry::Table { ptp, .. } => Some(*ptp),
            L1Entry::Fault => None,
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
            L1Entry::Table { domain, .. } => Some(*domain),
        }
    }
}

/// A level-1 pair that points at a page-table page, as
/// [`RootTable::table_pairs`] lists it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TablePair {
    /// The pair's even index.
    pub idx: usize,
    /// The table: the even half's frame if it holds a table entry, else
    /// the odd half's.
    pub ptp: Pfn,
    /// Each half's `NEED_COPY` bit (`false` for a half that holds no
    /// table entry).
    pub need_copy: [bool; 2],
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
/// 64-entry group, each holding only its non-zero words (see
/// `groups.rs`): a zygote child's 77 entries sit in five or six groups,
/// so the table every live process carries costs under 1 KiB, not 16.
/// The groups are also the index: the PTPs a table references are
/// found by scanning the populated groups, which is O(populated) where
/// a scan of all 4096 words was not.
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
    #[inline]
    pub fn entry(&self, idx: usize) -> L1Entry {
        L1Entry::unpack(self.entries.get(idx))
    }

    /// Returns the entry covering `va`.
    #[inline]
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

    /// Clears the table entries of the pair covering `va`, returning
    /// the PTP frame they referenced (if any).
    pub fn clear_table_pair(&mut self, va: VirtAddr) -> Option<Pfn> {
        let even = va.l1_index() & !1;
        let mut ptp = None;
        for idx in [even, even + 1] {
            if let Some(frame) = self.entry(idx).ptp() {
                ptp = ptp.or(Some(frame));
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
                    word | L1_NEED_COPY
                } else {
                    word & !L1_NEED_COPY
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
    /// frame if it holds one, else the odd half's.
    ///
    /// Served from the populated groups: O(#entries), not O(4096).
    pub fn iter_ptps(&self) -> impl Iterator<Item = (usize, Pfn)> + '_ {
        self.table_pairs().map(|pair| (pair.idx, pair.ptp))
    }

    /// [`RootTable::iter_ptps`] with each pair's `NEED_COPY` bits, read
    /// from the words it visits: one pass, no entry looked up.
    pub fn table_pairs(&self) -> impl Iterator<Item = TablePair> + '_ {
        let mut tables = self
            .entries
            .iter(0..L1_ENTRIES)
            .filter(|&(_, word)| is_table(word))
            .peekable();
        std::iter::from_fn(move || {
            let (idx, word) = tables.next()?;
            let mut need_copy = [false; 2];
            need_copy[idx % 2] = word & L1_NEED_COPY != 0;
            // The odd half of a pair whose even half is a table rides
            // with it.
            if idx % 2 == 0 {
                if let Some((_, odd)) = tables.next_if(|&(next, _)| next == idx + 1) {
                    need_copy[1] = odd & L1_NEED_COPY != 0;
                }
            }
            Some(TablePair {
                idx: idx & !1,
                ptp: Pfn::new(word >> L1_FRAME_SHIFT),
                need_copy,
            })
        })
    }

    /// Counts distinct PTPs referenced by this table.
    pub fn ptp_count(&self) -> usize {
        self.iter_ptps().count()
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

/// Families of root tables that share groups, for the isolation
/// differential in `reference.rs`. No kernel path shares a root
/// table's groups — a stock child's entries name its own tables — but
/// the storage is the page tables', and is held to the same proof.
#[cfg(test)]
impl RootTable {
    /// Makes this table's entries `other`'s, every group shared.
    pub(crate) fn clone_entries_of(&mut self, other: &RootTable) {
        self.entries = other.entries.clone();
    }

    /// Installs every group of this table's entries anew, `other`'s
    /// group wherever the two hold the same words.
    pub(crate) fn reinstall_from(&mut self, other: &RootTable) {
        self.entries.reinstall_from(&other.entries);
    }
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

    /// Both variants × 16 domains × half × NEED_COPY × frames at both
    /// ends of the field and one that is not 16-aligned.
    #[test]
    fn entry_word_round_trips_every_entry() {
        assert_eq!(L1Entry::Fault.pack(), 0);
        assert_eq!(L1Entry::unpack(0), L1Entry::Fault);
        let mut seen = 0;
        for frame in [0, 1, 0x5431, MAX_FRAMES - 1].map(Pfn::new) {
            for domain in (0..16).map(Domain::new) {
                for need_copy in [false, true] {
                    for half in [TableHalf::Lower, TableHalf::Upper] {
                        let e = L1Entry::Table {
                            ptp: frame,
                            half,
                            domain,
                            need_copy,
                        };
                        assert_eq!(L1Entry::unpack(e.pack()), e, "{:#010x}", e.pack());
                        seen += 1;
                    }
                }
            }
        }
        assert_eq!(seen, 4 * 16 * 2 * 2);
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
    fn set_need_copy_refuses_a_fault_entry() {
        let (_p, mut rt) = root();
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
        // A fault in the even half does NOT drop the pair while the
        // odd half still references a PTP.
        rt.set_entry(4, L1Entry::Fault);
        assert_eq!(rt.iter_ptps().collect::<Vec<_>>(), vec![(4, Pfn::new(7))]);
        // Dropping the surviving table half delists the pair.
        rt.set_entry(5, L1Entry::Fault);
        assert_eq!(rt.ptp_count(), 0);
        // clear_table_pair over a lone half clears it and returns its
        // frame.
        rt.set_entry(
            5,
            L1Entry::Table {
                ptp: Pfn::new(9),
                half: TableHalf::Upper,
                domain: Domain::USER,
                need_copy: true,
            },
        );
        assert_eq!(rt.clear_table_pair(va), Some(Pfn::new(9)));
        assert_eq!(rt.ptp_count(), 0);
        rt.verify().unwrap();
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
    fn table_pairs_carry_each_halfs_need_copy_bit() {
        let (_p, mut rt) = root();
        let table = |ptp, half, need_copy| L1Entry::Table {
            ptp: Pfn::new(ptp),
            half,
            domain: Domain::USER,
            need_copy,
        };
        rt.set_table_pair(VirtAddr::new(2 << 20), Pfn::new(1), Domain::USER, true);
        // Halves that disagree, and an odd half alone beside a fault.
        rt.set_entry(8, table(2, TableHalf::Lower, false));
        rt.set_entry(9, table(2, TableHalf::Upper, true));
        rt.set_entry(13, table(3, TableHalf::Upper, true));
        let pairs: Vec<_> = rt
            .table_pairs()
            .map(|p| (p.idx, p.ptp.raw(), p.need_copy))
            .collect();
        assert_eq!(
            pairs,
            [
                (2, 1, [true, true]),
                (8, 2, [false, true]),
                (12, 3, [false, true])
            ]
        );
    }

    #[test]
    fn root_table_frees_its_frames() {
        let (mut phys, rt) = root();
        let before = phys.frames_in_use();
        rt.free(&mut phys);
        assert_eq!(phys.frames_in_use(), before - 4);
    }
}
