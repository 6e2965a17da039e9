//! Page-table pages: the shared unit of the paper's mechanism.

use std::collections::HashMap;

use sat_phys::{Slab, SlabItem};
use sat_types::{PageSize, Perms, Pfn, PhysAddr, VirtAddr, L2_ENTRIES};

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
/// Slots are stored packed — a 4-byte word per hardware entry (see
/// `pack_hw`) and one byte per shadow entry ([`SwPte::pack`]) — so
/// a `Ptp` costs ~2.5KB of host memory instead of the ~6.6KB the
/// unpacked `Option<HwPte>`/`SwPte` arrays took. Fleet-scale fork
/// churn allocates tens of thousands of these; the zeroing of fresh
/// tables was the top non-registry hot spot of the 4096-app fleet
/// profile before packing.
#[derive(Clone)]
pub struct Ptp {
    hw: [[u32; L2_ENTRIES]; 2],
    sw: [[u8; L2_ENTRIES]; 2],
    valid_count: [u16; 2],
}

/// Byte offset of hardware table `half` within the PTP frame.
const HW_TABLE_OFF: [u32; 2] = [2048, 3072];

/// Packs a hardware PTE into the PTP's 4-byte slot word: bit 0 valid,
/// bit 1 page size (set = 64KB), bits 2-4 perms r/w/x, bit 5 global,
/// bits 8-31 the frame number.
///
/// This is a lossless private encoding, not the architectural one
/// ([`HwPte::encode`] stays the faithful ARMv7 layout): the large-page
/// descriptor's 16-frame-aligned base field cannot represent the
/// unaligned group bases the simulator's allocator can produce, and
/// slot words must round-trip every `HwPte` the kernel paths store.
fn pack_hw(hw: HwPte) -> u32 {
    debug_assert!(
        hw.pfn.raw() < (1 << 24),
        "pfn {} exceeds the slot word's 24-bit frame field",
        hw.pfn.raw()
    );
    let large = match hw.size {
        PageSize::Small4K => 0u32,
        PageSize::Large64K => 1,
        _ => unreachable!("level-2 slots are 4KB or 64KB"),
    };
    1 | (large << 1)
        | (hw.perms.read() as u32) << 2
        | (hw.perms.write() as u32) << 3
        | (hw.perms.execute() as u32) << 4
        | (hw.global as u32) << 5
        | (hw.pfn.raw() << 8)
}

/// Unpacks a slot word written by [`pack_hw`]; 0 (and any word with
/// the valid bit clear) is an empty slot.
fn unpack_hw(word: u32) -> Option<HwPte> {
    if word & 1 == 0 {
        return None;
    }
    let mut perms = Perms::NONE;
    if word & (1 << 2) != 0 {
        perms |= Perms::R;
    }
    if word & (1 << 3) != 0 {
        perms |= Perms::W;
    }
    if word & (1 << 4) != 0 {
        perms |= Perms::X;
    }
    Some(HwPte {
        pfn: Pfn::new(word >> 8),
        size: if word & (1 << 1) != 0 {
            PageSize::Large64K
        } else {
            PageSize::Small4K
        },
        perms,
        global: word & (1 << 5) != 0,
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
            hw: [[0; L2_ENTRIES]; 2],
            sw: [[0; L2_ENTRIES]; 2],
            valid_count: [0; 2],
        }
    }

    /// Reads the slot at (`half`, `idx`); `None` if not present.
    pub fn get(&self, half: TableHalf, idx: usize) -> Option<PteSlot> {
        let h = half.index();
        unpack_hw(self.hw[h][idx]).map(|hw| PteSlot {
            hw,
            sw: SwPte::unpack(self.sw[h][idx]),
        })
    }

    /// Installs a PTE in the slot, returning the previous hardware
    /// entry if one was present.
    pub fn set(&mut self, half: TableHalf, idx: usize, hw: HwPte, sw: SwPte) -> Option<HwPte> {
        let h = half.index();
        let prev = unpack_hw(self.hw[h][idx]);
        self.hw[h][idx] = pack_hw(hw);
        self.sw[h][idx] = sw.pack();
        if prev.is_none() {
            self.valid_count[h] += 1;
        }
        prev
    }

    /// Clears the slot, returning the previous hardware entry.
    pub fn clear(&mut self, half: TableHalf, idx: usize) -> Option<HwPte> {
        let h = half.index();
        let prev = unpack_hw(self.hw[h][idx]);
        self.hw[h][idx] = 0;
        self.sw[h][idx] = 0;
        if prev.is_some() {
            self.valid_count[h] -= 1;
        }
        prev
    }

    /// Mutates the software entry of a populated slot; returns `false`
    /// (without calling `f`) when the slot is empty.
    pub fn update_sw(&mut self, half: TableHalf, idx: usize, f: impl FnOnce(&mut SwPte)) -> bool {
        let h = half.index();
        if self.hw[h][idx] & 1 == 0 {
            return false;
        }
        let mut sw = SwPte::unpack(self.sw[h][idx]);
        f(&mut sw);
        self.sw[h][idx] = sw.pack();
        true
    }

    /// Replaces the hardware entry of a populated slot (e.g. to
    /// write-protect it), keeping the software entry.
    pub fn replace_hw(&mut self, half: TableHalf, idx: usize, hw: HwPte) {
        let h = half.index();
        debug_assert!(self.hw[h][idx] & 1 != 0, "replace_hw on empty slot");
        self.hw[h][idx] = pack_hw(hw);
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
        let h = half.index();
        self.hw[h].iter().enumerate().filter_map(move |(i, &word)| {
            unpack_hw(word).map(|hw| {
                (
                    i,
                    PteSlot {
                        hw,
                        sw: SwPte::unpack(self.sw[h][i]),
                    },
                )
            })
        })
    }

    /// Iterates over populated slots in both halves as
    /// `(half, idx, slot)`.
    pub fn iter(&self) -> impl Iterator<Item = (TableHalf, usize, PteSlot)> + '_ {
        [TableHalf::Lower, TableHalf::Upper]
            .into_iter()
            .flat_map(move |half| self.iter_half(half).map(move |(i, s)| (half, i, s)))
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
    /// Clears the PTP in place so its slab slot can be recycled.
    /// Halves that were never populated (tracked by `valid_count`) are
    /// skipped, so tearing down a sparse table does not rewrite all
    /// 4KB of descriptor state.
    fn reset(&mut self) {
        for h in 0..2 {
            if self.valid_count[h] == 0 {
                continue;
            }
            self.hw[h] = [0; L2_ENTRIES];
            self.sw[h] = [0; L2_ENTRIES];
            self.valid_count[h] = 0;
        }
    }
}

/// Arena of page-table pages, keyed by the physical frame that holds
/// them.
///
/// Keeping PTPs in a shared arena (rather than inside any one process)
/// is what lets several processes' level-1 entries reference the same
/// PTP — the substrate for the paper's sharing mechanism.
///
/// Storage is a [`Slab`]: a `Ptp` is ~2.5KB of inline packed
/// descriptor state, and fork/exit churn at fleet scale allocates and
/// frees thousands of them. The slab recycles freed slots in place, so
/// the steady state costs no global-allocator traffic and no bucket
/// rehashing moves the tables around; only the small `Pfn → slot`
/// index lives in a map.
#[derive(Default)]
pub struct PtpStore {
    tables: Slab<Ptp>,
    index: HashMap<Pfn, u32>,
}

impl PtpStore {
    /// Creates an empty arena.
    pub fn new() -> Self {
        PtpStore::default()
    }

    /// Registers a freshly allocated PTP frame.
    pub fn insert(&mut self, frame: Pfn) {
        let slot = self.tables.alloc();
        let prev = self.index.insert(frame, slot);
        debug_assert!(prev.is_none(), "PTP frame {frame:?} already present");
    }

    /// Registers a PTP frame holding a copy of an existing PTP.
    pub fn insert_clone(&mut self, frame: Pfn, contents: Ptp) {
        let slot = self.tables.alloc();
        *self.tables.get_mut(slot) = contents;
        let prev = self.index.insert(frame, slot);
        debug_assert!(prev.is_none(), "PTP frame {frame:?} already present");
    }

    /// Removes a PTP (its frame is being freed), returning its
    /// contents and recycling the slab slot.
    pub fn remove(&mut self, frame: Pfn) -> Option<Ptp> {
        let slot = self.index.remove(&frame)?;
        let contents = std::mem::take(self.tables.get_mut(slot));
        self.tables.free(slot);
        Some(contents)
    }

    /// Borrows the PTP in `frame`.
    pub fn get(&self, frame: Pfn) -> Option<&Ptp> {
        self.index.get(&frame).map(|&slot| self.tables.get(slot))
    }

    /// Mutably borrows the PTP in `frame`.
    pub fn get_mut(&mut self, frame: Pfn) -> Option<&mut Ptp> {
        let slot = *self.index.get(&frame)?;
        Some(self.tables.get_mut(slot))
    }

    /// Number of live PTPs.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` if no PTPs are live.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Slab allocation counters (recycling effectiveness).
    pub fn slab_stats(&self) -> sat_phys::SlabStats {
        self.tables.stats()
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

    #[test]
    fn slot_word_round_trips_unaligned_large_pages() {
        // The packed slot word must be exact for every HwPte the
        // kernel stores — including 64KB groups whose base frame is
        // not 16-aligned, which the architectural encoding truncates.
        for pfn in [0, 1, 0x5431, (1 << 24) - 1] {
            for perms in [Perms::NONE, Perms::R, Perms::RW, Perms::RX, Perms::RWX] {
                for global in [false, true] {
                    for hw in [
                        HwPte::small(Pfn::new(pfn), perms, global),
                        HwPte::large(Pfn::new(pfn), perms, global),
                    ] {
                        assert_eq!(unpack_hw(pack_hw(hw)), Some(hw));
                    }
                }
            }
        }
        assert_eq!(unpack_hw(0), None);
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
