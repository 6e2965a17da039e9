//! The dense reference tables.
//!
//! These are the page-table page and the root table [`crate::Ptp`] and
//! [`crate::RootTable`] were before their words moved into populated
//! groups (`groups.rs`): 512 and 4,096 words held inline whatever the
//! table contains, and — for the root — a `BTreeMap` of populated
//! pairs and a `BTreeSet` of sections kept honest by every mutator.
//! They are kept as the executable specification of what every
//! accessor returns and in which order every iterator visits, and the
//! two differential proptests below drive both forms with identical
//! operation sequences, comparing everything observable — and running
//! the grouped form's `verify` — after every operation.
//!
//! Do not "optimise" this file; its value is being obviously correct.
//! What is not storage is left out: the root's four frames and
//! `l1_entry_addr` (frame arithmetic) and `Ptp::hw_pte_addr`.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use sat_types::{Domain, Pfn, VirtAddr, L1_ENTRIES, L2_ENTRIES};

use crate::l1::{L1Entry, L1_FAULT, L1_NEED_COPY_OR_GLOBAL, L1_TABLE, L1_TAG_MASK};
use crate::pte::{HwPte, PteSlot, SwPte};
use crate::ptp::{pack_slot, unpack_slot, TableHalf, SLOT_SW_MASK, SLOT_SW_SHIFT, SLOT_VALID};

/// The dense page-table page: 2,052 bytes whatever it holds.
#[derive(Clone)]
pub(crate) struct RefPtp {
    slots: [[u32; L2_ENTRIES]; 2],
    valid_count: [u16; 2],
}

impl RefPtp {
    /// Creates an empty PTP (all descriptors fault).
    pub(crate) fn new() -> Self {
        RefPtp {
            slots: [[0; L2_ENTRIES]; 2],
            valid_count: [0; 2],
        }
    }

    /// Reads the slot at (`half`, `idx`); `None` if not present.
    pub(crate) fn get(&self, half: TableHalf, idx: usize) -> Option<PteSlot> {
        unpack_slot(self.slots[half.index()][idx])
    }

    /// Installs a PTE in the slot, returning the previous hardware
    /// entry if one was present.
    pub(crate) fn set(
        &mut self,
        half: TableHalf,
        idx: usize,
        hw: HwPte,
        sw: SwPte,
    ) -> Option<HwPte> {
        let h = half.index();
        let prev = unpack_slot(self.slots[h][idx]);
        self.slots[h][idx] = pack_slot(hw, sw);
        if prev.is_none() {
            self.valid_count[h] += 1;
        }
        prev.map(|slot| slot.hw)
    }

    /// Clears the slot, returning the previous hardware entry.
    pub(crate) fn clear(&mut self, half: TableHalf, idx: usize) -> Option<HwPte> {
        let h = half.index();
        let prev = unpack_slot(self.slots[h][idx]);
        self.slots[h][idx] = 0;
        if prev.is_some() {
            self.valid_count[h] -= 1;
        }
        prev.map(|slot| slot.hw)
    }

    /// Mutates the software entry of a populated slot; returns `false`
    /// (without calling `f`) when the slot is empty.
    pub(crate) fn update_sw(
        &mut self,
        half: TableHalf,
        idx: usize,
        f: impl FnOnce(&mut SwPte),
    ) -> bool {
        let word = &mut self.slots[half.index()][idx];
        if *word & SLOT_VALID == 0 {
            return false;
        }
        let mut sw = SwPte::unpack((*word >> SLOT_SW_SHIFT) as u8);
        f(&mut sw);
        *word = *word & !SLOT_SW_MASK | u32::from(sw.pack()) << SLOT_SW_SHIFT;
        true
    }

    /// Replaces the hardware entry of a populated slot (e.g. to
    /// write-protect it), keeping the software entry.
    pub(crate) fn replace_hw(&mut self, half: TableHalf, idx: usize, hw: HwPte) {
        let word = &mut self.slots[half.index()][idx];
        debug_assert!(*word & SLOT_VALID != 0, "replace_hw on empty slot");
        *word = pack_slot(hw, SwPte::default()) | *word & SLOT_SW_MASK;
    }

    /// Number of valid entries in `half`.
    pub(crate) fn valid_count(&self, half: TableHalf) -> usize {
        self.valid_count[half.index()] as usize
    }

    /// Total valid entries across both halves.
    pub(crate) fn total_valid(&self) -> usize {
        self.valid_count.iter().map(|&c| c as usize).sum()
    }

    /// Iterates over populated slots in `half` as `(idx, slot)`.
    pub(crate) fn iter_half(&self, half: TableHalf) -> impl Iterator<Item = (usize, PteSlot)> + '_ {
        self.iter_slots(half, 0..L2_ENTRIES)
    }

    /// Iterates over the populated slots among `slots` of `half` as
    /// `(idx, slot)`, in ascending order; a half that holds no PTE is
    /// not scanned.
    pub(crate) fn iter_slots(
        &self,
        half: TableHalf,
        slots: Range<usize>,
    ) -> impl Iterator<Item = (usize, PteSlot)> + '_ {
        let h = half.index();
        let slots = if self.valid_count[h] == 0 {
            0..0
        } else {
            slots
        };
        let first = slots.start;
        self.slots[h][slots]
            .iter()
            .enumerate()
            .filter_map(move |(i, &word)| unpack_slot(word).map(|slot| (first + i, slot)))
    }

    /// Iterates over populated slots in both halves as
    /// `(half, idx, slot)`.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (TableHalf, usize, PteSlot)> + '_ {
        [TableHalf::Lower, TableHalf::Upper]
            .into_iter()
            .flat_map(move |half| self.iter_half(half).map(move |(i, s)| (half, i, s)))
    }
}

impl RefPtp {
    /// Clears the PTP in place so its slab slot can be recycled (the
    /// dense form's `SlabItem::reset`). Halves that were never
    /// populated (tracked by `valid_count`) are skipped, so tearing
    /// down a sparse table does not rewrite all 2KB of descriptor
    /// state.
    pub(crate) fn reset(&mut self) {
        for h in 0..2 {
            if self.valid_count[h] == 0 {
                continue;
            }
            self.slots[h] = [0; L2_ENTRIES];
            self.valid_count[h] = 0;
        }
    }
}

/// The dense root table: 16 KiB of entry words and two side indices.
pub(crate) struct RefRootTable {
    entries: Box<[u32; L1_ENTRIES]>,
    /// Even indices of pairs holding table entries, mapped to their
    /// PTP frame. Kept in sync by the mutators so `iter_ptps`
    /// walks the populated pairs instead of scanning all 4096 entries.
    /// A pair stays indexed while *either* half holds a table entry, so
    /// a section promoted into one half never hides the PTP still
    /// referenced by the other.
    pairs: BTreeMap<u16, Pfn>,
    /// Indices holding section entries.
    sections: BTreeSet<u16>,
}

impl RefRootTable {
    /// An all-fault table.
    pub(crate) fn new() -> RefRootTable {
        RefRootTable {
            // Zeroed on the heap, never on the stack.
            entries: vec![L1_FAULT; L1_ENTRIES]
                .into_boxed_slice()
                .try_into()
                .expect("L1_ENTRIES words"),
            pairs: BTreeMap::new(),
            sections: BTreeSet::new(),
        }
    }

    /// Returns the entry for index `idx`.
    pub(crate) fn entry(&self, idx: usize) -> L1Entry {
        L1Entry::unpack(self.entries[idx])
    }

    /// Sets the entry at index `idx`, keeping the pair and section
    /// indices honest for any mix of table/section/fault entries in
    /// the two halves.
    pub(crate) fn set_entry(&mut self, idx: usize, e: L1Entry) {
        self.entries[idx] = e.pack();
        if matches!(e, L1Entry::Section { .. }) {
            self.sections.insert(idx as u16);
        } else {
            self.sections.remove(&(idx as u16));
        }
        let even = idx & !1;
        match self.entry(even).ptp().or(self.entry(even + 1).ptp()) {
            Some(ptp) => {
                self.pairs.insert(even as u16, ptp);
            }
            None => {
                self.pairs.remove(&(even as u16));
            }
        }
    }

    /// Installs both entries of the pair covering `va` to point at the
    /// two halves of `ptp`.
    ///
    /// Linux/ARM always populates level-1 entries two at a time, since
    /// one PTP carries both hardware tables of the pair.
    pub(crate) fn set_table_pair(
        &mut self,
        va: VirtAddr,
        ptp: Pfn,
        domain: Domain,
        need_copy: bool,
    ) {
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
    pub(crate) fn clear_table_pair(&mut self, va: VirtAddr) -> Option<Pfn> {
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
    pub(crate) fn set_need_copy(&mut self, va: VirtAddr, value: bool) {
        let even = va.l1_index() & !1;
        for idx in [even, even + 1] {
            let word = &mut self.entries[idx];
            assert!(
                *word & L1_TAG_MASK == L1_TABLE,
                "set_need_copy on non-table entry {:?}",
                L1Entry::unpack(*word)
            );
            if value {
                *word |= L1_NEED_COPY_OR_GLOBAL;
            } else {
                *word &= !L1_NEED_COPY_OR_GLOBAL;
            }
        }
    }

    /// Iterates over `(pair_base_index, ptp_frame)` for every distinct
    /// PTP referenced by this table, in ascending pair order.
    pub(crate) fn iter_ptps(&self) -> impl Iterator<Item = (usize, Pfn)> + '_ {
        self.pairs.iter().map(|(&i, &p)| (i as usize, p))
    }

    /// Counts distinct PTPs referenced by this table.
    pub(crate) fn ptp_count(&self) -> usize {
        self.pairs.len()
    }

    /// Iterates over the L1 indices holding section entries, in
    /// ascending order — O(#sections), not O(4096).
    pub(crate) fn iter_sections(&self) -> impl Iterator<Item = usize> + '_ {
        self.sections.iter().map(|&i| i as usize)
    }

    /// Counts section entries in this table.
    pub(crate) fn section_count(&self) -> usize {
        self.sections.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::l1::RootTable;
    use crate::ptp::Ptp;
    use proptest::prelude::*;
    use sat_phys::{PhysMem, SlabItem};
    use sat_types::{PageSize, Perms, MAX_FRAMES};

    /// Indices either side of every 64-word group boundary, so sets
    /// and clears collide and groups fill, empty and fill again —
    /// three draws in four — mixed with uniform ones.
    fn index(len: usize) -> impl Strategy<Value = usize> {
        let edges: Vec<usize> = (0..=len)
            .step_by(64)
            .flat_map(|b| [b.wrapping_sub(1), b, b + 1])
            .filter(|&i| i < len)
            .collect();
        (0..4 * edges.len(), 0..len).prop_map(move |(pick, uniform)| {
            if pick < 3 * edges.len() {
                edges[pick % edges.len()]
            } else {
                uniform
            }
        })
    }

    fn half() -> impl Strategy<Value = TableHalf> {
        prop_oneof![Just(TableHalf::Lower), Just(TableHalf::Upper)]
    }

    fn hw() -> impl Strategy<Value = HwPte> {
        (0..MAX_FRAMES, 0u8..8, any::<bool>(), any::<bool>()).prop_map(
            |(pfn, perms, global, large)| {
                let (pfn, perms) = (Pfn::new(pfn), Perms::from_bits(perms));
                if large {
                    HwPte::large(pfn, perms, global)
                } else {
                    HwPte::small(pfn, perms, global)
                }
            },
        )
    }

    #[derive(Clone, Debug)]
    enum PtpOp {
        Set(TableHalf, usize, HwPte, u8),
        Clear(TableHalf, usize),
        UpdateSw(TableHalf, usize, u8),
        ReplaceHw(TableHalf, usize, HwPte),
        Clone,
        Reset,
    }

    /// Sets and clears in equal measure, so tables stay sparse.
    fn ptp_op() -> impl Strategy<Value = PtpOp> {
        (0u8..24, half(), index(L2_ENTRIES), hw(), 0u8..32).prop_map(|(kind, h, i, hw, sw)| {
            match kind {
                0..=7 => PtpOp::Set(h, i, hw, sw),
                8..=15 => PtpOp::Clear(h, i),
                16..=18 => PtpOp::UpdateSw(h, i, sw),
                19..=21 => PtpOp::ReplaceHw(h, i, hw),
                22 => PtpOp::Clone,
                _ => PtpOp::Reset,
            }
        })
    }

    /// A sub-range of a table half, empty ones included.
    fn slots() -> impl Strategy<Value = Range<usize>> {
        (index(L2_ENTRIES + 1), index(L2_ENTRIES + 1)).prop_map(|(a, b)| a.min(b)..a.max(b))
    }

    proptest! {
        /// Every accessor of the grouped PTP against the dense one,
        /// after every operation.
        #[test]
        fn grouped_ptp_matches_the_dense_one(
            ops in prop::collection::vec((ptp_op(), slots()), 1..48),
        ) {
            let mut new = Ptp::new();
            let mut old = RefPtp::new();
            for (op, probe) in ops {
                match op.clone() {
                    PtpOp::Set(h, i, hw, sw) => {
                        let sw = SwPte::unpack(sw);
                        prop_assert_eq!(new.set(h, i, hw, sw), old.set(h, i, hw, sw));
                    }
                    PtpOp::Clear(h, i) => prop_assert_eq!(new.clear(h, i), old.clear(h, i)),
                    PtpOp::UpdateSw(h, i, sw) => prop_assert_eq!(
                        new.update_sw(h, i, |s| *s = SwPte::unpack(sw)),
                        old.update_sw(h, i, |s| *s = SwPte::unpack(sw))
                    ),
                    // Only a populated slot may have its entry replaced.
                    PtpOp::ReplaceHw(h, i, hw) => if old.get(h, i).is_some() {
                        new.replace_hw(h, i, hw);
                        old.replace_hw(h, i, hw);
                    },
                    // The copy lives on; the original is dropped.
                    PtpOp::Clone => {
                        new = new.clone();
                        old = old.clone();
                    }
                    PtpOp::Reset => {
                        new.reset();
                        old.reset();
                    }
                }
                if let Err(e) = new.verify() {
                    return Err(TestCaseError::fail(format!("{op:?}: {e}")));
                }
                for h in [TableHalf::Lower, TableHalf::Upper] {
                    for i in 0..L2_ENTRIES {
                        prop_assert_eq!(new.get(h, i), old.get(h, i), "{:?} {}", h, i);
                    }
                    prop_assert_eq!(new.valid_count(h), old.valid_count(h));
                    prop_assert_eq!(
                        new.iter_half(h).collect::<Vec<_>>(),
                        old.iter_half(h).collect::<Vec<_>>()
                    );
                    for range in [probe.clone(), 0..0, 63..65, 64..128, 1..255] {
                        prop_assert_eq!(
                            new.iter_slots(h, range.clone()).collect::<Vec<_>>(),
                            old.iter_slots(h, range.clone()).collect::<Vec<_>>(),
                            "{:?} {:?}", h, range
                        );
                    }
                }
                prop_assert_eq!(new.total_valid(), old.total_valid());
                prop_assert_eq!(new.iter().collect::<Vec<_>>(), old.iter().collect::<Vec<_>>());
            }
        }
    }

    #[derive(Clone, Debug)]
    enum RootOp {
        SetEntry(usize, L1Entry),
        SetTablePair(usize, Pfn, Domain, bool),
        ClearTablePair(usize),
        SetNeedCopy(usize, bool),
    }

    fn l1_entry() -> impl Strategy<Value = L1Entry> {
        (
            0u8..7,
            0..MAX_FRAMES,
            0u8..16,
            any::<bool>(),
            any::<bool>(),
            0u8..8,
        )
            .prop_map(|(kind, frame, domain, upper_or_super, flag, perms)| {
                let (frame, domain) = (Pfn::new(frame), Domain::new(domain));
                match kind {
                    0..=1 => L1Entry::Fault,
                    2..=4 => L1Entry::Table {
                        ptp: frame,
                        half: if upper_or_super {
                            TableHalf::Upper
                        } else {
                            TableHalf::Lower
                        },
                        domain,
                        need_copy: flag,
                    },
                    _ => L1Entry::Section {
                        base: frame,
                        size: if upper_or_super {
                            PageSize::Super16M
                        } else {
                            PageSize::Section1M
                        },
                        perms: Perms::from_bits(perms),
                        domain,
                        global: flag,
                    },
                }
            })
    }

    fn root_op() -> impl Strategy<Value = RootOp> {
        (
            0u8..14,
            index(L1_ENTRIES),
            l1_entry(),
            0..MAX_FRAMES,
            0u8..16,
            any::<bool>(),
        )
            .prop_map(|(kind, i, entry, frame, domain, flag)| match kind {
                0..=5 => RootOp::SetEntry(i, entry),
                6..=8 => RootOp::SetTablePair(i, Pfn::new(frame), Domain::new(domain), flag),
                9..=11 => RootOp::ClearTablePair(i),
                _ => RootOp::SetNeedCopy(i, flag),
            })
    }

    /// Runs `f`, reporting whether it panicked. A `set_need_copy` that
    /// panics on the odd half has already rewritten the even one, in
    /// both forms, so the tables stay comparable.
    fn panics(f: impl FnOnce()) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
    }

    proptest! {
        /// Every accessor of the grouped root table against the dense,
        /// side-indexed one, after every operation.
        #[test]
        fn grouped_root_matches_the_dense_indexed_one(
            ops in prop::collection::vec(root_op(), 1..40),
        ) {
            let mut phys = PhysMem::new(4);
            let mut new = RootTable::alloc(&mut phys).unwrap();
            let mut old = RefRootTable::new();
            let va = |idx: usize| VirtAddr::new((idx as u32) << 20);
            for op in ops {
                match op.clone() {
                    RootOp::SetEntry(i, e) => {
                        new.set_entry(i, e);
                        old.set_entry(i, e);
                    }
                    RootOp::SetTablePair(i, ptp, domain, need_copy) => {
                        new.set_table_pair(va(i), ptp, domain, need_copy);
                        old.set_table_pair(va(i), ptp, domain, need_copy);
                    }
                    RootOp::ClearTablePair(i) => {
                        prop_assert_eq!(new.clear_table_pair(va(i)), old.clear_table_pair(va(i)));
                    }
                    RootOp::SetNeedCopy(i, value) => prop_assert_eq!(
                        panics(|| new.set_need_copy(va(i), value)),
                        panics(|| old.set_need_copy(va(i), value)),
                        "{:?}", op
                    ),
                }
                if let Err(e) = new.verify() {
                    return Err(TestCaseError::fail(format!("{op:?}: {e}")));
                }
                for i in 0..L1_ENTRIES {
                    prop_assert_eq!(new.entry(i), old.entry(i), "entry {}", i);
                }
                prop_assert_eq!(
                    new.iter_ptps().collect::<Vec<_>>(),
                    old.iter_ptps().collect::<Vec<_>>()
                );
                prop_assert_eq!(new.ptp_count(), old.ptp_count());
                prop_assert_eq!(
                    new.iter_sections().collect::<Vec<_>>(),
                    old.iter_sections().collect::<Vec<_>>()
                );
                prop_assert_eq!(new.section_count(), old.section_count());
            }
        }
    }
}
