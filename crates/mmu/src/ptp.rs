//! Page-table pages: the shared unit of the paper's mechanism.

use std::ops::Range;

use sat_phys::{Slab, SlabItem};
use sat_types::{PageSize, Perms, Pfn, PhysAddr, VirtAddr, L2_ENTRIES, MAX_FRAMES};

use crate::groups::{Groups, GROUP_WORDS};
use crate::pte::{HwPte, PteSlot, SwPte};

/// Which of the two 1KB hardware tables within a PTP a level-1 entry
/// uses.
///
/// Linux/ARM manages level-1 entries in pairs: the even entry of a
/// pair uses [`TableHalf::Lower`], the odd entry [`TableHalf::Upper`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TableHalf {
    /// First hardware table (covers the even 1MB of the 2MB pair).
    Lower,
    /// Second hardware table (covers the odd 1MB of the 2MB pair).
    Upper,
}

impl TableHalf {
    /// The half used by the level-1 entry for `va`.
    pub fn of(va: VirtAddr) -> TableHalf {
        if va.l1_index().is_multiple_of(2) {
            TableHalf::Lower
        } else {
            TableHalf::Upper
        }
    }

    /// Index (0 or 1) of the half.
    pub fn index(self) -> usize {
        match self {
            TableHalf::Lower => 0,
            TableHalf::Upper => 1,
        }
    }
}

/// One page-table page: two hardware second-level tables plus their
/// two Linux shadow tables, occupying a single 4KB frame.
///
/// The mainline Linux/ARM layout puts the Linux tables at offsets 0
/// and 1024 and the hardware tables at 2048 and 3072; the simulator
/// follows that layout when computing the physical addresses of PTE
/// accesses for the cache model.
///
/// On the host a slot is one word holding both entries — the hardware
/// descriptor and the five software flags (see `pack_slot`) — and the
/// 512 words are stored by populated 64-slot group (four groups a
/// half, see `groups.rs`): the struct that lives in the slab is
/// 72 bytes and a table costs 264 more for each group that holds a
/// PTE. Fleet-scale fork churn keeps tens of thousands of tables live,
/// most of them holding a handful of PTEs in one group.
#[derive(Clone)]
pub struct Ptp {
    /// Slot (`half`, `idx`) is word `half * L2_ENTRIES + idx`.
    slots: Groups<PTP_GROUPS>,
    valid_count: [u16; 2],
}

/// Groups in a PTP's 512 slots.
const PTP_GROUPS: usize = 2 * L2_ENTRIES / GROUP_WORDS;

const _: () = assert!(std::mem::size_of::<Ptp>() <= 72);

/// Byte offset of hardware table `half` within the PTP frame.
const HW_TABLE_OFF: [u32; 2] = [2048, 3072];

/// Slot word, bit 0: the slot holds a PTE.
pub(crate) const SLOT_VALID: u32 = 1;
/// Slot word, bit 1: a 64KB descriptor (clear = 4KB).
const SLOT_LARGE: u32 = 1 << 1;
/// Slot word, bits 2-4: [`Perms::bits`].
const SLOT_PERMS_SHIFT: u32 = 2;
/// Slot word, bit 5: the global bit.
const SLOT_GLOBAL: u32 = 1 << 5;
/// Slot word, bits 6-10: [`SwPte::pack`].
pub(crate) const SLOT_SW_SHIFT: u32 = 6;
pub(crate) const SLOT_SW_MASK: u32 = 0x1F << SLOT_SW_SHIFT;
/// Slot word, the top bits down to here: the frame number, as wide as
/// [`MAX_FRAMES`] needs (bits 12-31; bit 11 is spare).
const SLOT_FRAME_SHIFT: u32 = 32 - MAX_FRAMES.trailing_zeros();

const _: () = assert!(SLOT_SW_MASK < 1 << SLOT_FRAME_SHIFT);

/// Packs a PTE into the PTP's slot word.
///
/// This is a lossless private encoding, not the architectural one
/// ([`HwPte::encode`] stays the faithful ARMv7 layout): the large-page
/// descriptor's 16-frame-aligned base field cannot represent the
/// unaligned group bases the simulator's allocator can produce, and
/// slot words must round-trip every `HwPte` the kernel paths store.
/// Frames come from a `PhysMem`, which holds none past [`MAX_FRAMES`].
pub(crate) fn pack_slot(hw: HwPte, sw: SwPte) -> u32 {
    debug_assert!(
        hw.pfn.raw() < MAX_FRAMES,
        "{:?} is past the slot word's frame field",
        hw.pfn
    );
    let large = match hw.size {
        PageSize::Small4K => 0,
        PageSize::Large64K => SLOT_LARGE,
        _ => unreachable!("level-2 slots are 4KB or 64KB"),
    };
    SLOT_VALID
        | large
        | u32::from(hw.perms.bits()) << SLOT_PERMS_SHIFT
        | if hw.global { SLOT_GLOBAL } else { 0 }
        | u32::from(sw.pack()) << SLOT_SW_SHIFT
        | hw.pfn.raw() << SLOT_FRAME_SHIFT
}

/// Unpacks a slot word written by [`pack_slot`]; 0 (and any word with
/// the valid bit clear) is an empty slot.
pub(crate) fn unpack_slot(word: u32) -> Option<PteSlot> {
    if word & SLOT_VALID == 0 {
        return None;
    }
    Some(PteSlot {
        hw: HwPte {
            pfn: Pfn::new(word >> SLOT_FRAME_SHIFT),
            size: if word & SLOT_LARGE != 0 {
                PageSize::Large64K
            } else {
                PageSize::Small4K
            },
            perms: Perms::from_bits((word >> SLOT_PERMS_SHIFT) as u8),
            global: word & SLOT_GLOBAL != 0,
        },
        sw: SwPte::unpack((word >> SLOT_SW_SHIFT) as u8),
    })
}

impl Default for Ptp {
    fn default() -> Self {
        Ptp::new()
    }
}

impl Ptp {
    /// Creates an empty PTP (all descriptors fault).
    pub fn new() -> Self {
        Ptp {
            slots: Groups::new(),
            valid_count: [0; 2],
        }
    }

    /// The word index of slot (`half`, `idx`).
    fn at(half: TableHalf, idx: usize) -> usize {
        assert!(idx < L2_ENTRIES, "slot {idx} is past the table half");
        half.index() * L2_ENTRIES + idx
    }

    /// Reads the slot at (`half`, `idx`); `None` if not present.
    pub fn get(&self, half: TableHalf, idx: usize) -> Option<PteSlot> {
        unpack_slot(self.slots.get(Ptp::at(half, idx)))
    }

    /// Installs a PTE in the slot, returning the previous hardware
    /// entry if one was present.
    pub fn set(&mut self, half: TableHalf, idx: usize, hw: HwPte, sw: SwPte) -> Option<HwPte> {
        let prev = unpack_slot(self.slots.set(Ptp::at(half, idx), pack_slot(hw, sw)));
        if prev.is_none() {
            self.valid_count[half.index()] += 1;
        }
        prev.map(|slot| slot.hw)
    }

    /// Clears the slot, returning the previous hardware entry.
    pub fn clear(&mut self, half: TableHalf, idx: usize) -> Option<HwPte> {
        let prev = unpack_slot(self.slots.set(Ptp::at(half, idx), 0));
        if prev.is_some() {
            self.valid_count[half.index()] -= 1;
        }
        prev.map(|slot| slot.hw)
    }

    /// Mutates the software entry of a populated slot; returns `false`
    /// (without calling `f`) when the slot is empty.
    pub fn update_sw(&mut self, half: TableHalf, idx: usize, f: impl FnOnce(&mut SwPte)) -> bool {
        let at = Ptp::at(half, idx);
        let word = self.slots.get(at);
        if word & SLOT_VALID == 0 {
            return false;
        }
        let mut sw = SwPte::unpack((word >> SLOT_SW_SHIFT) as u8);
        f(&mut sw);
        self.slots.set(
            at,
            word & !SLOT_SW_MASK | u32::from(sw.pack()) << SLOT_SW_SHIFT,
        );
        true
    }

    /// Replaces the hardware entry of a populated slot (e.g. to
    /// write-protect it), keeping the software entry.
    pub fn replace_hw(&mut self, half: TableHalf, idx: usize, hw: HwPte) {
        let at = Ptp::at(half, idx);
        let word = self.slots.get(at);
        debug_assert!(word & SLOT_VALID != 0, "replace_hw on empty slot");
        self.slots
            .set(at, pack_slot(hw, SwPte::default()) | word & SLOT_SW_MASK);
    }

    /// Number of valid entries in `half`.
    pub fn valid_count(&self, half: TableHalf) -> usize {
        self.valid_count[half.index()] as usize
    }

    /// Total valid entries across both halves.
    pub fn total_valid(&self) -> usize {
        self.valid_count.iter().map(|&c| c as usize).sum()
    }

    /// Iterates over populated slots in `half` as `(idx, slot)`.
    pub fn iter_half(&self, half: TableHalf) -> impl Iterator<Item = (usize, PteSlot)> + '_ {
        self.iter_slots(half, 0..L2_ENTRIES)
    }

    /// Iterates over the populated slots among `slots` of `half` as
    /// `(idx, slot)`, in ascending order; only the groups that hold a
    /// PTE are scanned.
    pub(crate) fn iter_slots(
        &self,
        half: TableHalf,
        slots: Range<usize>,
    ) -> impl Iterator<Item = (usize, PteSlot)> + '_ {
        assert!(
            slots.end <= L2_ENTRIES,
            "slots {slots:?} leave the table half"
        );
        let first = Ptp::at(half, 0);
        self.slots
            .iter(first + slots.start..first + slots.end)
            .filter_map(move |(at, word)| unpack_slot(word).map(|slot| (at - first, slot)))
    }

    /// Iterates over populated slots in both halves as
    /// `(half, idx, slot)`.
    pub fn iter(&self) -> impl Iterator<Item = (TableHalf, usize, PteSlot)> + '_ {
        [TableHalf::Lower, TableHalf::Upper]
            .into_iter()
            .flat_map(move |half| self.iter_half(half).map(move |(i, s)| (half, i, s)))
    }

    /// Consistency check of the host-side storage, for tests and the
    /// whole-system auditor: every allocated group holds at least one
    /// PTE and counts its own correctly, every stored word is a PTE,
    /// and `valid_count` equals a recount of each half. Returns a
    /// description of the first violation found.
    pub fn verify(&self) -> Result<(), String> {
        self.slots.verify()?;
        for half in [TableHalf::Lower, TableHalf::Upper] {
            let first = Ptp::at(half, 0);
            let stored = self.slots.iter(first..first + L2_ENTRIES).count();
            let valid = self.iter_half(half).count();
            if stored != valid {
                return Err(format!(
                    "{half:?} stores {stored} words but {valid} are PTEs"
                ));
            }
            if valid != self.valid_count(half) {
                return Err(format!(
                    "{half:?} counts {} valid PTEs but holds {valid}",
                    self.valid_count(half)
                ));
            }
        }
        Ok(())
    }

    /// Physical address of the *hardware* PTE word for (`half`,
    /// `idx`), given the PTP's frame. This is the address the hardware
    /// walker fetches — and therefore the cache line that gets
    /// duplicated when every process has a private copy of the table.
    pub fn hw_pte_addr(frame: Pfn, half: TableHalf, idx: usize) -> PhysAddr {
        PhysAddr::new(frame.base().raw() + HW_TABLE_OFF[half.index()] + (idx as u32) * 4)
    }
}

impl SlabItem for Ptp {
    /// Empties the PTP so its slab slot can be recycled: every group
    /// goes back to the allocator, and the slot waits on the free list
    /// owning none.
    fn reset(&mut self) {
        *self = Ptp::new();
    }
}

/// No table lives in this frame (an [`PtpStore`] index entry).
const NO_SLOT: u32 = u32::MAX;

/// Arena of page-table pages, keyed by the physical frame that holds
/// them.
///
/// Keeping PTPs in a shared arena (rather than inside any one process)
/// is what lets several processes' level-1 entries reference the same
/// PTP — the substrate for the paper's sharing mechanism.
///
/// Storage is a [`Slab`] of 72-byte [`Ptp`] headers, each owning the
/// groups that hold its PTEs: fork/exit churn at fleet scale allocates
/// and frees thousands of tables, the slab recycles freed slots in
/// place and grows a chunk at a time, and nothing ever moves a live
/// header. What the global allocator sees is one allocation per
/// populated group, released when the group empties or the table is
/// freed. Every table walk resolves its PTP frame here, so the
/// `frame → slot` index is a flat array by frame number, grown only as
/// far as the highest frame that has held a table.
#[derive(Default)]
pub struct PtpStore {
    tables: Slab<Ptp>,
    index: Vec<u32>,
}

impl PtpStore {
    /// Creates an empty arena.
    pub fn new() -> Self {
        PtpStore::default()
    }

    /// The slab slot of the table in `frame`.
    fn slot_of(&self, frame: Pfn) -> Option<u32> {
        self.index
            .get(frame.raw() as usize)
            .copied()
            .filter(|&slot| slot != NO_SLOT)
    }

    /// Allocates a clean table and indexes it under `frame`.
    fn alloc_slot(&mut self, frame: Pfn) -> u32 {
        let at = frame.raw() as usize;
        if at >= self.index.len() {
            self.index.resize(at + 1, NO_SLOT);
        }
        debug_assert!(
            self.index[at] == NO_SLOT,
            "PTP frame {frame:?} already present"
        );
        let slot = self.tables.alloc();
        self.index[at] = slot;
        slot
    }

    /// Drops `frame` from the index, returning the slab slot it held.
    fn unindex(&mut self, frame: Pfn) -> Option<u32> {
        let slot = self.slot_of(frame)?;
        self.index[frame.raw() as usize] = NO_SLOT;
        Some(slot)
    }

    /// Registers a freshly allocated PTP frame.
    pub fn insert(&mut self, frame: Pfn) {
        self.alloc_slot(frame);
    }

    /// Registers a PTP frame holding a copy of an existing PTP.
    pub fn insert_clone(&mut self, frame: Pfn, contents: Ptp) {
        let slot = self.alloc_slot(frame);
        *self.tables.get_mut(slot) = contents;
    }

    /// Removes a PTP (its frame is being freed), returning its
    /// contents and recycling the slab slot.
    pub fn remove(&mut self, frame: Pfn) -> Option<Ptp> {
        let slot = self.unindex(frame)?;
        let contents = std::mem::take(self.tables.get_mut(slot));
        self.tables.free(slot);
        Some(contents)
    }

    /// Drops a PTP in place (its frame is being freed) and recycles the
    /// slab slot — [`PtpStore::remove`] for a caller that has already
    /// read what it needs through [`PtpStore::get`]. Returns `false` if
    /// `frame` holds no PTP.
    pub(crate) fn free(&mut self, frame: Pfn) -> bool {
        self.unindex(frame)
            .map(|slot| self.tables.free(slot))
            .is_some()
    }

    /// Borrows the PTP in `frame`.
    pub fn get(&self, frame: Pfn) -> Option<&Ptp> {
        self.slot_of(frame).map(|slot| self.tables.get(slot))
    }

    /// Mutably borrows the PTP in `frame`.
    pub fn get_mut(&mut self, frame: Pfn) -> Option<&mut Ptp> {
        let slot = self.slot_of(frame)?;
        Some(self.tables.get_mut(slot))
    }

    /// Number of live PTPs.
    pub fn len(&self) -> usize {
        self.tables.live()
    }

    /// Returns `true` if no PTPs are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slab allocation counters (recycling effectiveness).
    pub fn slab_stats(&self) -> sat_phys::SlabStats {
        self.tables.stats()
    }

    /// Consistency check of the arena, for tests and the whole-system
    /// auditor: the frame index names exactly the slab's live slots,
    /// each once; every live table passes [`Ptp::verify`]; and a slot
    /// waiting on the free list is empty and owns no group. Returns a
    /// description of the first violation found.
    pub fn verify(&self) -> Result<(), String> {
        let mut frame_of = vec![None; self.tables.capacity()];
        for (frame, &slot) in self.index.iter().enumerate() {
            if slot == NO_SLOT {
                continue;
            }
            match frame_of.get_mut(slot as usize) {
                None => return Err(format!("frame {frame} indexes unallocated slot {slot}")),
                Some(Some(other)) => {
                    return Err(format!("frames {other} and {frame} both index slot {slot}"))
                }
                Some(owner) => *owner = Some(frame),
            }
        }
        let indexed = frame_of.iter().flatten().count();
        if indexed != self.tables.live() {
            return Err(format!(
                "{indexed} frames are indexed but the slab has {} live slots",
                self.tables.live()
            ));
        }
        for (slot, owner) in frame_of.iter().enumerate() {
            let table = self.tables.get(slot as u32);
            match owner {
                Some(frame) => table
                    .verify()
                    .map_err(|e| format!("PTP in frame {frame}: {e}"))?,
                None if table.slots.populated() > 0 || table.total_valid() > 0 => {
                    return Err(format!(
                        "free slot {slot} still owns {} groups and counts {} PTEs",
                        table.slots.populated(),
                        table.total_valid()
                    ));
                }
                None => {}
            }
        }
        Ok(())
    }

    /// Publishes slab occupancy gauges to the installed obs sink.
    pub fn publish_gauges(&self) {
        sat_obs::gauge_set("phys.slab.live", self.tables.live() as u64);
        sat_obs::gauge_set("phys.slab.capacity", self.tables.capacity() as u64);
        sat_obs::gauge_set("phys.slab.recycled", self.tables.stats().recycled);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat_types::Perms;

    /// Every `HwPte` the kernel can store — both sizes, all eight
    /// permission sets, global or not, frames at both ends of the
    /// field and a 64KB base that is not 16-aligned (which the
    /// architectural encoding truncates).
    fn every_hw() -> impl Iterator<Item = HwPte> {
        [0, 1, 0x5431, MAX_FRAMES - 1].into_iter().flat_map(|pfn| {
            (0u8..8).flat_map(move |perms| {
                [false, true].into_iter().flat_map(move |global| {
                    let perms = Perms::from_bits(perms);
                    [
                        HwPte::small(Pfn::new(pfn), perms, global),
                        HwPte::large(Pfn::new(pfn), perms, global),
                    ]
                })
            })
        })
    }

    #[test]
    fn slot_word_round_trips_unaligned_large_pages() {
        for hw in every_hw() {
            for sw in (0u8..32).map(SwPte::unpack) {
                let word = pack_slot(hw, sw);
                assert_eq!(unpack_slot(word), Some(PteSlot { hw, sw }), "{word:#010x}");
            }
        }
        assert_eq!(unpack_slot(0), None);
        // A cleared valid bit empties the slot whatever else is set.
        assert_eq!(unpack_slot(!SLOT_VALID), None);
    }

    #[test]
    fn update_sw_and_replace_hw_leave_the_other_entry_alone() {
        let (half, idx) = (TableHalf::Upper, 200);
        let mut ptp = Ptp::new();
        for hw in every_hw() {
            for bits in 0u8..32 {
                ptp.set(half, idx, hw, SwPte::unpack(bits));
                // Flip every software flag: the hardware entry stays.
                assert!(ptp.update_sw(half, idx, |sw| *sw = SwPte::unpack(!bits & 31)));
                let slot = ptp.get(half, idx).unwrap();
                assert_eq!((slot.hw, slot.sw.pack()), (hw, !bits & 31));
                // Swap the hardware entry for one that differs in every
                // field: the software entry stays.
                let other = HwPte {
                    pfn: Pfn::new(hw.pfn.raw() ^ (MAX_FRAMES - 1)),
                    size: match hw.size {
                        PageSize::Small4K => PageSize::Large64K,
                        _ => PageSize::Small4K,
                    },
                    perms: Perms::from_bits(!hw.perms.bits()),
                    global: !hw.global,
                };
                ptp.replace_hw(half, idx, other);
                let slot = ptp.get(half, idx).unwrap();
                assert_eq!((slot.hw, slot.sw.pack()), (other, !bits & 31));
            }
        }
        assert_eq!(ptp.valid_count(half), 1);
    }

    #[test]
    fn iter_slots_visits_a_sub_range_in_ascending_order() {
        let mut ptp = Ptp::new();
        let hw = HwPte::small(Pfn::new(1), Perms::R, false);
        for idx in [0, 9, 10, 19, 20, 255] {
            ptp.set(TableHalf::Lower, idx, hw, SwPte::default());
        }
        let seen =
            |half, slots| -> Vec<usize> { ptp.iter_slots(half, slots).map(|(i, _)| i).collect() };
        assert_eq!(seen(TableHalf::Lower, 10..20), vec![10, 19]);
        assert_eq!(seen(TableHalf::Lower, 0..256), vec![0, 9, 10, 19, 20, 255]);
        assert_eq!(seen(TableHalf::Lower, 21..255), Vec::<usize>::new());
        assert_eq!(seen(TableHalf::Upper, 0..256), Vec::<usize>::new());
    }

    #[test]
    fn store_index_grows_to_the_highest_table_frame_only() {
        let mut store = PtpStore::new();
        store.insert(Pfn::new(300));
        assert_eq!(store.index.len(), 301);
        store.insert(Pfn::new(7));
        assert_eq!(store.index.len(), 301);
        assert!(store.get(Pfn::new(6)).is_none());
        assert!(store.get(Pfn::new(MAX_FRAMES - 1)).is_none());
        assert!(store.free(Pfn::new(300)));
        assert!(!store.free(Pfn::new(300)));
        assert!(store.remove(Pfn::new(300)).is_none());
        assert_eq!(store.len(), 1);
        // A freed frame's slot is recycled clean for the next frame.
        store.insert(Pfn::new(300));
        assert_eq!(store.get(Pfn::new(300)).unwrap().total_valid(), 0);
        assert_eq!(store.slab_stats().recycled, 1);
    }

    /// The footprint: a table owns the groups that hold its PTEs and
    /// no other.
    #[test]
    fn one_pte_costs_one_group_and_clearing_it_none() {
        let mut ptp = Ptp::new();
        assert_eq!(ptp.slots.populated(), 0);
        let hw = HwPte::small(Pfn::new(1), Perms::RW, false);
        ptp.set(TableHalf::Upper, 77, hw, SwPte::anon(true));
        assert_eq!(ptp.slots.populated(), 1);
        // Rewriting the PTE in place neither adds nor drops a group.
        ptp.update_sw(TableHalf::Upper, 77, |sw| sw.young = false);
        ptp.replace_hw(TableHalf::Upper, 77, hw.write_protected());
        ptp.set(TableHalf::Upper, 77, hw, SwPte::default());
        assert_eq!(ptp.slots.populated(), 1);
        // A neighbour in the same group shares it; one over the
        // boundary takes its own.
        ptp.set(TableHalf::Upper, 64, hw, SwPte::default());
        assert_eq!(ptp.slots.populated(), 1);
        ptp.set(TableHalf::Upper, 63, hw, SwPte::default());
        assert_eq!(ptp.slots.populated(), 2);
        ptp.verify().unwrap();
        for idx in [63, 64, 77] {
            assert_eq!(ptp.clear(TableHalf::Upper, idx), Some(hw));
        }
        assert_eq!(ptp.slots.populated(), 0);
        assert_eq!(ptp.clear(TableHalf::Upper, 77), None);
        ptp.verify().unwrap();
    }

    #[test]
    fn a_recycled_ptp_owns_no_group() {
        let mut store = PtpStore::new();
        let hw = HwPte::small(Pfn::new(9), Perms::RW, false);
        for frame in [Pfn::new(5), Pfn::new(6)] {
            store.insert(frame);
            let table = store.get_mut(frame).unwrap();
            for idx in [0, 100, 200] {
                table.set(TableHalf::Lower, idx, hw, SwPte::anon(true));
                table.set(TableHalf::Upper, idx, hw, SwPte::anon(true));
            }
            assert_eq!(table.slots.populated(), 6);
        }
        store.verify().unwrap();
        // Freed in place and removed by value: both slots wait on the
        // free list empty, and what `remove` hands back owns the groups.
        assert!(store.free(Pfn::new(5)));
        let removed = store.remove(Pfn::new(6)).unwrap();
        assert_eq!((removed.slots.populated(), removed.total_valid()), (6, 6));
        for slot in 0..2 {
            assert_eq!(store.tables.get(slot).slots.populated(), 0);
        }
        store.verify().unwrap();
        store.insert(Pfn::new(7));
        let recycled = store.get(Pfn::new(7)).unwrap();
        assert_eq!((recycled.slots.populated(), recycled.total_valid()), (0, 0));
        assert_eq!(store.slab_stats().recycled, 1);
        store.verify().unwrap();
    }

    #[test]
    fn store_verify_names_a_broken_index() {
        let mut store = PtpStore::new();
        store.insert(Pfn::new(3));
        store.insert(Pfn::new(4));
        store.verify().unwrap();
        // Two frames naming one slot.
        store.index[4] = store.index[3];
        assert!(store.verify().unwrap_err().contains("both index slot"));
        // A live slot no frame names.
        store.index[4] = NO_SLOT;
        assert!(store.verify().unwrap_err().contains("live slots"));
    }

    #[test]
    fn update_sw_requires_a_populated_slot() {
        let mut ptp = Ptp::new();
        assert!(!ptp.update_sw(TableHalf::Lower, 0, |sw| sw.young = true));
        ptp.set(
            TableHalf::Lower,
            0,
            HwPte::small(Pfn::new(1), Perms::R, false),
            SwPte::default(),
        );
        assert!(ptp.update_sw(TableHalf::Lower, 0, |sw| sw.young = true));
        assert!(ptp.get(TableHalf::Lower, 0).unwrap().sw.young);
    }

    #[test]
    fn half_selection_follows_l1_parity() {
        assert_eq!(TableHalf::of(VirtAddr::new(0x0000_0000)), TableHalf::Lower);
        assert_eq!(TableHalf::of(VirtAddr::new(0x0010_0000)), TableHalf::Upper);
        assert_eq!(TableHalf::of(VirtAddr::new(0x0020_0000)), TableHalf::Lower);
    }

    #[test]
    fn set_get_clear_and_counts() {
        let mut ptp = Ptp::new();
        let hw = HwPte::small(Pfn::new(7), Perms::RX, false);
        assert!(ptp
            .set(TableHalf::Lower, 3, hw, SwPte::file(false, false))
            .is_none());
        assert_eq!(ptp.valid_count(TableHalf::Lower), 1);
        assert_eq!(ptp.total_valid(), 1);
        let slot = ptp.get(TableHalf::Lower, 3).unwrap();
        assert_eq!(slot.hw, hw);
        assert!(slot.sw.file_backed);
        assert!(ptp.get(TableHalf::Upper, 3).is_none());
        assert_eq!(ptp.clear(TableHalf::Lower, 3), Some(hw));
        assert_eq!(ptp.total_valid(), 0);
    }

    #[test]
    fn iter_visits_both_halves_in_order() {
        let mut ptp = Ptp::new();
        let hw = HwPte::small(Pfn::new(1), Perms::R, false);
        ptp.set(TableHalf::Upper, 10, hw, SwPte::default());
        ptp.set(TableHalf::Lower, 20, hw, SwPte::default());
        let visited: Vec<(TableHalf, usize)> = ptp.iter().map(|(h, i, _)| (h, i)).collect();
        assert_eq!(
            visited,
            vec![(TableHalf::Lower, 20), (TableHalf::Upper, 10)]
        );
    }

    #[test]
    fn hw_pte_addresses_follow_linux_layout() {
        let frame = Pfn::new(0x100);
        let lo = Ptp::hw_pte_addr(frame, TableHalf::Lower, 0);
        let hi = Ptp::hw_pte_addr(frame, TableHalf::Upper, 255);
        assert_eq!(lo.raw(), 0x10_0000 + 2048);
        assert_eq!(hi.raw(), 0x10_0000 + 3072 + 255 * 4);
    }

    #[test]
    fn store_insert_get_remove() {
        let mut store = PtpStore::new();
        let f = Pfn::new(5);
        store.insert(f);
        assert!(store.get(f).is_some());
        assert_eq!(store.len(), 1);
        store.get_mut(f).unwrap().set(
            TableHalf::Lower,
            0,
            HwPte::small(Pfn::new(9), Perms::R, false),
            SwPte::default(),
        );
        let removed = store.remove(f).unwrap();
        assert_eq!(removed.total_valid(), 1);
        assert!(store.is_empty());
    }

    #[test]
    fn store_recycles_slots_without_leaking_contents() {
        let mut store = PtpStore::new();
        let a = Pfn::new(5);
        store.insert(a);
        store.get_mut(a).unwrap().set(
            TableHalf::Lower,
            7,
            HwPte::small(Pfn::new(9), Perms::RW, false),
            SwPte::anon(true),
        );
        store.remove(a).unwrap();
        // The next insert reuses the freed slot; it must come back
        // clean even for a different frame.
        let b = Pfn::new(6);
        store.insert(b);
        assert_eq!(store.get(b).unwrap().total_valid(), 0);
        assert!(store.get(a).is_none());
        let stats = store.slab_stats();
        assert_eq!(stats.allocs, 2);
        assert_eq!(stats.recycled, 1);
    }

    #[test]
    fn clone_for_unshare_copies_contents() {
        let mut store = PtpStore::new();
        let a = Pfn::new(1);
        store.insert(a);
        store.get_mut(a).unwrap().set(
            TableHalf::Upper,
            42,
            HwPte::small(Pfn::new(3), Perms::RX, true),
            SwPte::default(),
        );
        let copy = store.get(a).unwrap().clone();
        let b = Pfn::new(2);
        store.insert_clone(b, copy);
        assert_eq!(
            store.get(b).unwrap().get(TableHalf::Upper, 42),
            store.get(a).unwrap().get(TableHalf::Upper, 42),
        );
    }
}
