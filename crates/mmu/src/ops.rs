//! Mechanical page-table operations used by the VM layer.
//!
//! [`Mapper`] bundles mutable access to one process's root table, the
//! shared PTP arena, and physical memory, and provides the PTE-level
//! operations Linux's `pgtable` helpers provide: allocate a
//! second-level table on demand, set/clear/inspect PTEs, write-protect
//! or clear ranges. Reference counts are maintained here: a data
//! frame's `refcount`/`mapcount` reflect the number of PTEs mapping
//! it (plus one page-cache reference for file pages), and a PTP's
//! `mapcount` reflects the number of processes referencing it.
//!
//! Policy — *when* to share or unshare a PTP — lives in `sat-core`;
//! nothing here is specific to the paper's mechanism except honoring
//! the `NEED_COPY` invariant via debug assertions (a process must not
//! modify a PTP it shares).

use std::ops::Range;

use sat_phys::{FrameKind, PhysMem};
use sat_types::{
    Domain, PageSize, Pfn, Pid, SatError, SatResult, VaRange, VirtAddr, L2_ENTRIES, L2_TABLE_SPAN,
    PAGE_SHIFT, PAGE_SIZE,
};

use crate::l1::{L1Entry, RootTable};
use crate::pte::{HwPte, PteSlot, SwPte};
use crate::ptp::{Ptp, PtpStore, TableHalf};

/// Result of [`Mapper::set_pte`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SetPte {
    /// A new PTP had to be allocated for the mapping.
    pub ptp_allocated: bool,
    /// The PTE replaced an existing one.
    pub replaced: bool,
}

/// The part of a range walk that falls in one table half.
struct HalfSpan {
    /// Frame of the PTP the level-1 entry points at.
    ptp: Pfn,
    /// Which of the PTP's two tables the entry uses.
    half: TableHalf,
    /// The entry's NEED_COPY bit.
    need_copy: bool,
    /// The second-level slots the range covers, ascending.
    slots: Range<usize>,
    /// The address slot 0 of the half maps.
    base: VirtAddr,
}

impl HalfSpan {
    /// The virtual address slot `idx` maps.
    fn va(&self, idx: usize) -> VirtAddr {
        VirtAddr::new(self.base.raw() + ((idx as u32) << PAGE_SHIFT))
    }

    /// The table the span lies in, unless its half holds no PTE.
    fn populated<'p>(&self, ptps: &'p mut PtpStore) -> Option<&'p mut Ptp> {
        ptps.get_mut(self.ptp)
            .filter(|table| table.half_populated(self.half))
    }
}

/// The range walker: steps `range` one level-1 entry at a time, in
/// ascending address order, and yields the slots it covers of every
/// entry that points at a table — so a range operation costs its
/// tables, not its pages. Sections and faults hold no slots and are
/// stepped over.
///
/// The pages covered are those [`VaRange::pages`] visits: from the one
/// holding `start` to the last whose base lies below `end`.
fn half_spans(root: &RootTable, range: VaRange) -> impl Iterator<Item = HalfSpan> + '_ {
    // In u64: a range that reaches the top of the address space ends
    // one past the last 32-bit page number.
    let per_table = L2_ENTRIES as u64;
    let first = u64::from(range.start.vpn());
    let end = ((u64::from(range.end.raw()) + u64::from(PAGE_SIZE - 1)) >> PAGE_SHIFT).max(first);
    (first / per_table..end.div_ceil(per_table)).filter_map(move |l1| {
        let L1Entry::Table {
            ptp,
            half,
            need_copy,
            ..
        } = root.entry(l1 as usize)
        else {
            return None;
        };
        let table_first = l1 * per_table;
        let lo = first.max(table_first) - table_first;
        let hi = end.min(table_first + per_table) - table_first;
        Some(HalfSpan {
            ptp,
            half,
            need_copy,
            slots: lo as usize..hi as usize,
            base: VirtAddr::new(l1 as u32 * L2_TABLE_SPAN),
        })
    })
}

/// Mutable view over the structures a page-table operation touches.
pub struct Mapper<'a> {
    /// The current process's first-level table.
    pub root: &'a mut RootTable,
    /// The machine-wide PTP arena.
    pub ptps: &'a mut PtpStore,
    /// Physical memory.
    pub phys: &'a mut PhysMem,
    /// The process whose address space this mapper mutates: the
    /// reverse-map owner of every PTE it installs or drops in a table
    /// only this process walks (a PTE in a `NEED_COPY` table is filed
    /// under [`Pid::SHARED_TABLE`] instead — see `Mapper::owner`).
    pub pid: Pid,
}

impl<'a> Mapper<'a> {
    /// Creates a mapper over the given structures for process `pid`.
    pub fn new(
        root: &'a mut RootTable,
        ptps: &'a mut PtpStore,
        phys: &'a mut PhysMem,
        pid: Pid,
    ) -> Self {
        Mapper {
            root,
            ptps,
            phys,
            pid,
        }
    }

    /// The reverse-map owner of the PTE at `va` — the one ownership
    /// rule, applied at every add and remove: the entry is filed under
    /// [`Pid::SHARED_TABLE`] iff the level-1 entry the PTE hangs from
    /// carries `NEED_COPY` (the table serves every sharer, and whoever
    /// populated the PTE may exit while it lives on), else under the
    /// process whose root points at the table. `sat-core` keeps the
    /// filed owner true at the two places the bit flips on a live
    /// table (DESIGN.md §14).
    fn owner(&self, va: VirtAddr) -> Pid {
        if self.root.entry_for(va).need_copy() {
            Pid::SHARED_TABLE
        } else {
            self.pid
        }
    }

    /// Returns the PTP frame covering `va`, allocating (and installing
    /// the level-1 pair for) a new one if necessary.
    ///
    /// Returns `(frame, allocated)`.
    pub fn ensure_ptp(&mut self, va: VirtAddr, domain: Domain) -> SatResult<(Pfn, bool)> {
        match self.root.entry_for(va) {
            L1Entry::Table { ptp, .. } => Ok((ptp, false)),
            L1Entry::Fault => {
                let idx = va.l1_index();
                // A section split can leave one half of the pair with a
                // table while ours is still Fault; the pair already owns
                // a PTP (and this process its reference) — reuse it.
                if let L1Entry::Table { ptp, need_copy, .. } = self.root.entry(idx ^ 1) {
                    self.root.set_entry(
                        idx,
                        L1Entry::Table {
                            ptp,
                            half: TableHalf::of(va),
                            domain,
                            need_copy,
                        },
                    );
                    return Ok((ptp, false));
                }
                let frame = self.phys.alloc(FrameKind::PageTable)?;
                self.ptps.insert(frame);
                self.phys.map_inc(frame); // one process references it
                self.root.set_table_pair(va, frame, domain, false);
                Ok((frame, true))
            }
            L1Entry::Section { .. } => Err(SatError::Internal("ensure_ptp over a section mapping")),
        }
    }

    /// Reads the PTE slot for `va`, if the mapping hierarchy exists.
    pub fn get_pte(&self, va: VirtAddr) -> Option<PteSlot> {
        match self.root.entry_for(va) {
            L1Entry::Table { ptp, half, .. } => self.ptps.get(ptp)?.get(half, va.l2_index()),
            _ => None,
        }
    }

    /// Installs a 4KB PTE for `va`, allocating the PTP if needed.
    ///
    /// Takes a reference on the mapped frame (`get_page` + `map_inc`).
    /// If a previous PTE is replaced, its frame's references are
    /// dropped.
    ///
    /// Populating a *new* PTE in a `NEED_COPY` (shared) PTP is
    /// permitted — the paper relies on it: "when a page fault on a
    /// read access occurs for the first time on any process for a page
    /// belonging to a shared PTP, the corresponding PTE in the shared
    /// PTP is populated \[and\] is then visible to all sharers".
    /// *Replacing* an existing PTE in a shared PTP is a bug (the
    /// process must unshare first); debug builds assert on it.
    pub fn set_pte(
        &mut self,
        va: VirtAddr,
        hw: HwPte,
        sw: SwPte,
        domain: Domain,
    ) -> SatResult<SetPte> {
        debug_assert!(
            !self.root.entry_for(va).need_copy() || self.get_pte(va).is_none(),
            "set_pte replacing a PTE in a NEED_COPY (shared) PTP at {va:?}"
        );
        let (frame, allocated) = self.ensure_ptp(va, domain)?;
        let owner = self.owner(va);
        // A 64KB slot references its own 4KB frame of the group.
        let data_frame = hw.frame_for_slot(va.l2_index());
        self.phys.get_page(data_frame);
        self.phys.map_inc(data_frame);
        if is_data_frame(self.phys, data_frame) {
            self.phys.rmap_add(data_frame, owner, va);
        }
        let half = TableHalf::of(va);
        let prev = self
            .ptps
            .get_mut(frame)
            .expect("PTP in store")
            .set(half, va.l2_index(), hw, sw);
        if let Some(old) = prev {
            drop_frame_ref(self.phys, owner, old, va);
        }
        Ok(SetPte {
            ptp_allocated: allocated,
            replaced: prev.is_some(),
        })
    }

    /// Clears the PTE for `va`, dropping the mapped frame's
    /// references. Returns the removed hardware entry.
    pub fn clear_pte(&mut self, va: VirtAddr) -> Option<HwPte> {
        debug_assert!(
            !self.root.entry_for(va).need_copy(),
            "clear_pte in a NEED_COPY (shared) PTP at {va:?}"
        );
        let (ptp, half) = match self.root.entry_for(va) {
            L1Entry::Table { ptp, half, .. } => (ptp, half),
            _ => return None,
        };
        let owner = self.owner(va);
        let prev = self.ptps.get_mut(ptp)?.clear(half, va.l2_index());
        if let Some(old) = prev {
            drop_frame_ref(self.phys, owner, old, va);
        }
        prev
    }

    /// Updates the hardware permissions and software flags of an
    /// existing PTE. Returns `true` if a PTE was present.
    pub fn update_pte(&mut self, va: VirtAddr, f: impl FnOnce(&mut HwPte, &mut SwPte)) -> bool {
        debug_assert!(
            !self.root.entry_for(va).need_copy(),
            "update_pte in a NEED_COPY (shared) PTP at {va:?}"
        );
        let (ptp, half) = match self.root.entry_for(va) {
            L1Entry::Table { ptp, half, .. } => (ptp, half),
            _ => return false,
        };
        let idx = va.l2_index();
        let Some(table) = self.ptps.get_mut(ptp) else {
            return false;
        };
        let Some(slot) = table.get(half, idx) else {
            return false;
        };
        let (mut hw, mut sw) = (slot.hw, slot.sw);
        f(&mut hw, &mut sw);
        table.set(half, idx, hw, sw);
        true
    }

    /// Clears every PTE in `range` (used by `munmap` and exit),
    /// dropping frame references. Returns the number cleared.
    pub fn clear_range(&mut self, range: VaRange) -> usize {
        let mut cleared = 0;
        for span in half_spans(self.root, range) {
            debug_assert!(
                !span.need_copy,
                "clear_range in a NEED_COPY (shared) PTP at {:?}",
                span.base
            );
            let owner = self.owner(span.base);
            let Some(table) = span.populated(self.ptps) else {
                continue;
            };
            for idx in span.slots.clone() {
                if let Some(old) = table.clear(span.half, idx) {
                    drop_frame_ref(self.phys, owner, old, span.va(idx));
                    cleared += 1;
                }
            }
        }
        cleared
    }

    /// Write-protects every writable PTE in `range`, as done when
    /// COW-protecting at fork or when preparing a PTP for sharing.
    /// Returns the number of PTEs write-protected.
    ///
    /// Unlike the mutation operations, this *may* be applied to a PTP
    /// about to be shared (it is part of the share procedure itself),
    /// so it does not assert on `NEED_COPY`.
    pub fn write_protect_range(&mut self, range: VaRange) -> usize {
        let mut protected = 0;
        for span in half_spans(self.root, range) {
            let Some(table) = span.populated(self.ptps) else {
                continue;
            };
            for idx in span.slots.clone() {
                if let Some(slot) = table.get(span.half, idx) {
                    if slot.hw.perms.write() {
                        table.replace_hw(span.half, idx, slot.hw.write_protected());
                        protected += 1;
                    }
                }
            }
        }
        protected
    }

    /// Drops one process's reference to the PTP pair covering `va`.
    ///
    /// If this was the last reference, the PTP's remaining PTEs are
    /// torn down (dropping their frames' references) and the PTP frame
    /// is freed. Returns `true` if the PTP was freed.
    pub fn release_ptp_pair(&mut self, va: VirtAddr) -> bool {
        let chunk = va.ptp_base();
        // Read before the pair goes: a lone sharer that exits while
        // still `NEED_COPY` frees a table whose entries are filed
        // under the shared-table owner, not under its pid.
        let owners = [TableHalf::Lower, TableHalf::Upper]
            .map(|half| self.owner(Mapper::slot_va(chunk, half, 0)));
        let Some(frame) = self.root.clear_table_pair(va) else {
            return false;
        };
        if self.phys.map_dec(frame) > 0 {
            return false; // other processes still reference it
        }
        // Torn down where it lies: read through a borrow, then the
        // slot is freed — nothing moves out of the arena.
        let table = self.ptps.get(frame).expect("PTP in store");
        for (half, idx, slot) in table.iter() {
            let slot_va = Mapper::slot_va(chunk, half, idx);
            drop_frame_ref(self.phys, owners[half.index()], slot.hw, slot_va);
        }
        self.ptps.free(frame);
        self.phys.put_page(frame);
        true
    }

    /// The virtual address mapped by slot (`half`, `idx`) of the PTP
    /// pair covering the 2MB chunk at `chunk`.
    pub fn slot_va(chunk: VirtAddr, half: TableHalf, idx: usize) -> VirtAddr {
        debug_assert!(chunk.is_ptp_aligned());
        VirtAddr::new(chunk.raw() + ((half.index() as u32) << 20) + (idx as u32) * PAGE_SIZE)
    }

    /// Splits the 64KB large-page group containing `va` back into 4KB
    /// PTEs, returning the number of slots rewritten (`None` if `va`
    /// has no large-page PTE).
    ///
    /// Pure descriptor rewriting: each replicated large slot already
    /// holds the references for its own frame of the group
    /// (`base + slot`), so rewriting it as a small PTE on that same
    /// frame moves no refcounts and leaves the reverse map intact.
    /// The *caller* owns TLB correctness — one cached 64KB entry
    /// serves all sixteen pages, so the whole group span must be
    /// flushed after a split.
    pub fn split_large(&mut self, va: VirtAddr) -> Option<u32> {
        let slot = self.get_pte(va)?;
        if slot.hw.size != PageSize::Large64K {
            return None;
        }
        debug_assert!(
            !self.root.entry_for(va).need_copy(),
            "split_large in a NEED_COPY (shared) PTP at {va:?} — unshare first"
        );
        let group = VirtAddr::new(va.raw() & !(PageSize::Large64K.bytes() - 1));
        let mut rewritten = 0;
        for i in 0..PageSize::Large64K.l2_entries() {
            let page = VirtAddr::new(group.raw() + (i as u32) * PAGE_SIZE);
            let (ptp, half) = match self.root.entry_for(page) {
                L1Entry::Table { ptp, half, .. } => (ptp, half),
                _ => continue,
            };
            let idx = page.l2_index();
            let Some(table) = self.ptps.get_mut(ptp) else {
                continue;
            };
            let Some(s) = table.get(half, idx) else {
                continue;
            };
            if s.hw.size != PageSize::Large64K {
                continue;
            }
            let frame = s.hw.frame_for_slot(idx);
            table.replace_hw(half, idx, HwPte::small(frame, s.hw.perms, s.hw.global));
            rewritten += 1;
        }
        Some(rewritten)
    }

    /// Collapses a fully-populated 1MB half into a section entry.
    ///
    /// Requires every one of the 256 slots to be present, reference
    /// physically contiguous frames (`slot i` maps `base + i` — true
    /// after large-group promotion placed them with the contiguous-run
    /// allocator), and agree on permissions and the global bit; the L1
    /// entry must be an unshared table. The slots are cleared *raw* —
    /// their frame references and reverse-map entries transfer to the
    /// section, which now owns exactly one reference per frame.
    ///
    /// Returns the section's base frame.
    pub fn collapse_section(&mut self, va: VirtAddr) -> SatResult<Pfn> {
        let idx = va.l1_index();
        let (ptp, half, domain, need_copy) = match self.root.entry(idx) {
            L1Entry::Table {
                ptp,
                half,
                domain,
                need_copy,
            } => (ptp, half, domain, need_copy),
            _ => return Err(SatError::InvalidArgument),
        };
        if need_copy {
            return Err(SatError::InvalidArgument);
        }
        let entries = (PageSize::Section1M.bytes() / PAGE_SIZE) as usize;
        let table = self
            .ptps
            .get(ptp)
            .expect("L1 table entry references a PTP in the store");
        let first = table.get(half, 0).ok_or(SatError::InvalidArgument)?;
        let base = first.hw.frame_for_slot(0);
        let (perms, global) = (first.hw.perms, first.hw.global);
        for i in 0..entries {
            let s = table.get(half, i).ok_or(SatError::InvalidArgument)?;
            if s.hw.frame_for_slot(i) != Pfn::new(base.raw() + i as u32)
                || s.hw.perms != perms
                || s.hw.global != global
            {
                return Err(SatError::InvalidArgument);
            }
        }
        let table = self.ptps.get_mut(ptp).expect("PTP in store");
        for i in 0..entries {
            table.clear(half, i); // refs transfer to the section
        }
        self.root.set_entry(
            idx,
            L1Entry::Section {
                base,
                size: PageSize::Section1M,
                perms,
                domain,
                global,
            },
        );
        Ok(base)
    }

    /// Splits the section covering `va` back into 256 4KB PTEs,
    /// reusing the pair's PTP if the other half references one (else
    /// allocating). Frame references transfer from the section to the
    /// new slots; software flags are reconstructed conservatively
    /// (young, dirty-if-writable) since the section kept none. The
    /// caller owns the section-span TLB flush.
    ///
    /// Returns the number of PTEs installed.
    pub fn split_section(&mut self, va: VirtAddr) -> SatResult<u32> {
        let idx = va.l1_index();
        let L1Entry::Section {
            base,
            size,
            perms,
            domain,
            global,
        } = self.root.entry(idx)
        else {
            return Err(SatError::InvalidArgument);
        };
        debug_assert_eq!(
            size,
            PageSize::Section1M,
            "16MB supersections never promoted"
        );
        let ptp = match self.root.entry(idx ^ 1) {
            L1Entry::Table { ptp, .. } => ptp,
            _ => {
                let frame = self.phys.alloc(FrameKind::PageTable)?;
                self.ptps.insert(frame);
                self.phys.map_inc(frame);
                frame
            }
        };
        let half = TableHalf::of(va);
        let entries = PageSize::Section1M.bytes() / PAGE_SIZE;
        let table = self.ptps.get_mut(ptp).expect("PTP in store");
        for i in 0..entries {
            let frame = Pfn::new(base.raw() + i);
            let hw = HwPte::small(frame, perms, global);
            let sw = SwPte {
                young: true,
                dirty: perms.write(),
                writable: perms.write(),
                shared: false,
                file_backed: false,
            };
            let prev = table.set(half, i as usize, hw, sw);
            debug_assert!(prev.is_none(), "section split over populated slots");
        }
        self.root.set_entry(
            idx,
            L1Entry::Table {
                ptp,
                half,
                domain,
                need_copy: false,
            },
        );
        Ok(entries)
    }

    /// Tears down the section covering `va`, dropping one reference
    /// per frame (and its reverse-map entry) — the section-mapping
    /// analogue of [`Mapper::clear_range`] over the whole 1MB. Returns
    /// the number of frames released, or `None` if `va` is not
    /// section-mapped.
    pub fn clear_section(&mut self, va: VirtAddr) -> Option<u32> {
        let idx = va.l1_index();
        let L1Entry::Section { base, size, .. } = self.root.entry(idx) else {
            return None;
        };
        let sect = VirtAddr::new(va.raw() & !(size.bytes() - 1));
        let pages = size.bytes() / PAGE_SIZE;
        let owner = self.owner(sect);
        for i in 0..pages {
            let page_va = VirtAddr::new(sect.raw() + i * PAGE_SIZE);
            let frame = Pfn::new(base.raw() + i);
            if is_data_frame(self.phys, frame) {
                self.phys.rmap_remove(frame, owner, page_va);
            }
            self.phys.map_dec(frame);
            self.phys.put_page(frame);
        }
        self.root.set_entry(idx, L1Entry::Fault);
        Some(pages)
    }

    /// Collects the populated PTEs in `range` as `(va, slot)`, in
    /// ascending address order.
    pub fn iter_range(&self, range: VaRange) -> Vec<(VirtAddr, PteSlot)> {
        let mut found = Vec::new();
        for span in half_spans(self.root, range) {
            let Some(table) = self.ptps.get(span.ptp) else {
                continue;
            };
            found.extend(
                table
                    .iter_slots(span.half, span.slots.clone())
                    .map(|(idx, slot)| (span.va(idx), slot)),
            );
        }
        found
    }
}

/// Drops the frame reference held by the PTE `hw` at `va`, whose
/// reverse-map entry is filed under `owner`. A 64KB large-page slot
/// references its own 4KB frame of the sixteen-frame group
/// (`base + slot-within-group`).
fn drop_frame_ref(phys: &mut PhysMem, owner: Pid, hw: HwPte, va: VirtAddr) {
    let frame = hw.frame_for_slot(va.l2_index());
    if is_data_frame(phys, frame) {
        phys.rmap_remove(frame, owner, va);
    }
    phys.map_dec(frame);
    phys.put_page(frame);
}

/// Returns `true` for frames tracked in the reverse map: user data
/// frames, not page tables or kernel-identity frames.
fn is_data_frame(phys: &PhysMem, pfn: Pfn) -> bool {
    matches!(
        phys.page(pfn).kind,
        FrameKind::Anon | FrameKind::File { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat_types::Perms;

    struct Fx {
        phys: PhysMem,
        root: RootTable,
        ptps: PtpStore,
    }

    impl Fx {
        fn new() -> Fx {
            let mut phys = PhysMem::new(512);
            let root = RootTable::alloc(&mut phys).unwrap();
            Fx {
                phys,
                root,
                ptps: PtpStore::new(),
            }
        }

        fn mapper(&mut self) -> Mapper<'_> {
            Mapper::new(&mut self.root, &mut self.ptps, &mut self.phys, Pid::new(1))
        }

        fn anon_frame(&mut self) -> Pfn {
            self.phys.alloc(FrameKind::Anon).unwrap()
        }
    }

    #[test]
    fn set_pte_allocates_ptp_once_per_2mb() {
        let mut fx = Fx::new();
        let f1 = fx.anon_frame();
        let f2 = fx.anon_frame();
        let mut m = fx.mapper();
        let a = m
            .set_pte(
                VirtAddr::new(0x0040_0000),
                HwPte::small(f1, Perms::RW, false),
                SwPte::anon(true),
                Domain::USER,
            )
            .unwrap();
        assert!(a.ptp_allocated);
        // Second megabyte of the same pair reuses the PTP.
        let b = m
            .set_pte(
                VirtAddr::new(0x0050_0000),
                HwPte::small(f2, Perms::RW, false),
                SwPte::anon(true),
                Domain::USER,
            )
            .unwrap();
        assert!(!b.ptp_allocated);
        assert_eq!(m.ptps.len(), 1);
    }

    #[test]
    fn set_and_clear_maintain_frame_counts() {
        let mut fx = Fx::new();
        let frame = fx.anon_frame();
        assert_eq!(fx.phys.page(frame).refcount, 1);
        let va = VirtAddr::new(0x0100_0000);
        let mut m = fx.mapper();
        m.set_pte(
            va,
            HwPte::small(frame, Perms::RW, false),
            SwPte::anon(true),
            Domain::USER,
        )
        .unwrap();
        assert_eq!(m.phys.page(frame).refcount, 2);
        assert_eq!(m.phys.mapcount(frame), 1);
        m.clear_pte(va);
        assert_eq!(m.phys.page(frame).refcount, 1);
        assert_eq!(m.phys.mapcount(frame), 0);
    }

    #[test]
    fn write_protect_range_strips_write() {
        let mut fx = Fx::new();
        let f1 = fx.anon_frame();
        let f2 = fx.anon_frame();
        let base = VirtAddr::new(0x0200_0000);
        let mut m = fx.mapper();
        m.set_pte(
            base,
            HwPte::small(f1, Perms::RW, false),
            SwPte::anon(true),
            Domain::USER,
        )
        .unwrap();
        m.set_pte(
            VirtAddr::new(0x0200_1000),
            HwPte::small(f2, Perms::RX, false),
            SwPte::file(false, false),
            Domain::USER,
        )
        .unwrap();
        let n = m.write_protect_range(VaRange::from_len(base, 0x4000));
        assert_eq!(n, 1); // only the RW one needed protection
        assert_eq!(m.get_pte(base).unwrap().hw.perms, Perms::R);
        assert_eq!(
            m.get_pte(VirtAddr::new(0x0200_1000)).unwrap().hw.perms,
            Perms::RX
        );
    }

    #[test]
    fn release_last_reference_frees_ptp_and_mappings() {
        let mut fx = Fx::new();
        let frame = fx.anon_frame();
        let va = VirtAddr::new(0x0300_0000);
        let mut m = fx.mapper();
        m.set_pte(
            va,
            HwPte::small(frame, Perms::RW, false),
            SwPte::anon(true),
            Domain::USER,
        )
        .unwrap();
        let ptp = m.root.entry_for(va).ptp().unwrap();
        assert!(m.release_ptp_pair(va));
        assert!(m.ptps.get(ptp).is_none());
        // The anon frame lost its PTE reference; only the caller's
        // original allocation reference remains.
        assert_eq!(m.phys.page(frame).refcount, 1);
        assert_eq!(m.phys.mapcount(frame), 0);
    }

    #[test]
    fn release_with_remaining_sharers_keeps_ptp() {
        let mut fx = Fx::new();
        let frame = fx.anon_frame();
        let va = VirtAddr::new(0x0300_0000);
        let mut m = fx.mapper();
        m.set_pte(
            va,
            HwPte::small(frame, Perms::R, false),
            SwPte::anon(false),
            Domain::USER,
        )
        .unwrap();
        let ptp = m.root.entry_for(va).ptp().unwrap();
        // Simulate a second process referencing the PTP.
        m.phys.map_inc(ptp);
        assert!(!m.release_ptp_pair(va));
        assert!(m.ptps.get(ptp).is_some());
        assert_eq!(m.phys.mapcount(ptp), 1);
    }

    #[test]
    fn update_pte_applies_mutation() {
        let mut fx = Fx::new();
        let frame = fx.anon_frame();
        let va = VirtAddr::new(0x0400_0000);
        let mut m = fx.mapper();
        m.set_pte(
            va,
            HwPte::small(frame, Perms::R, false),
            SwPte::anon(false),
            Domain::USER,
        )
        .unwrap();
        assert!(m.update_pte(va, |hw, sw| {
            hw.perms = Perms::RW;
            sw.dirty = true;
        }));
        let slot = m.get_pte(va).unwrap();
        assert_eq!(slot.hw.perms, Perms::RW);
        assert!(slot.sw.dirty);
        assert!(!m.update_pte(VirtAddr::new(0x0500_0000), |_, _| {}));
    }

    /// Maps a 64KB group the way the promotion engine does: sixteen
    /// replicated large descriptors over contiguous frames, one
    /// reference per slot on its own frame.
    fn install_large_group(fx: &mut Fx, group: VirtAddr) -> Pfn {
        // Materialize the PTP first so it does not land mid-run and
        // break frame contiguity across consecutive groups.
        fx.mapper().ensure_ptp(group, Domain::USER).unwrap();
        let base = fx.phys.alloc_run(FrameKind::Anon, 16).unwrap();
        let mut m = fx.mapper();
        for i in 0..16u32 {
            let va = VirtAddr::new(group.raw() + i * PAGE_SIZE);
            m.set_pte(
                va,
                HwPte::large(base, Perms::RW, false),
                SwPte::anon(true),
                Domain::USER,
            )
            .unwrap();
        }
        // Drop the allocation references; the PTEs hold theirs.
        for i in 0..16u32 {
            m.phys.put_page(Pfn::new(base.raw() + i));
        }
        base
    }

    #[test]
    fn split_large_rewrites_slots_without_moving_refs() {
        let mut fx = Fx::new();
        let group = VirtAddr::new(0x0070_0000);
        let base = install_large_group(&mut fx, group);
        let probe = Pfn::new(base.raw() + 5);
        assert_eq!(fx.phys.page(probe).refcount, 1);
        assert_eq!(fx.phys.mapcount(probe), 1);
        let mut m = fx.mapper();
        assert_eq!(m.split_large(VirtAddr::new(group.raw() + 0x5000)), Some(16));
        for i in 0..16u32 {
            let slot = m
                .get_pte(VirtAddr::new(group.raw() + i * PAGE_SIZE))
                .unwrap();
            assert_eq!(slot.hw.size, PageSize::Small4K);
            assert_eq!(slot.hw.pfn, Pfn::new(base.raw() + i));
        }
        assert_eq!(m.phys.page(probe).refcount, 1);
        assert_eq!(m.phys.mapcount(probe), 1);
        // Splitting a small mapping is a no-op.
        assert_eq!(m.split_large(group), None);
    }

    #[test]
    fn section_collapse_and_split_round_trip() {
        let mut fx = Fx::new();
        // 1MB = 16 large groups filling the Lower half of pair (6, 7).
        let mb = VirtAddr::new(0x0060_0000);
        let mut bases = Vec::new();
        for g in 0..16u32 {
            bases.push(install_large_group(
                &mut fx,
                VirtAddr::new(mb.raw() + g * 0x1_0000),
            ));
        }
        // alloc_run hands out ascending runs, so the 256 frames are
        // contiguous from the first group's base.
        let base = bases[0];
        for (g, b) in bases.iter().enumerate() {
            assert_eq!(b.raw(), base.raw() + 16 * g as u32);
        }
        let in_use = fx.phys.frames_in_use();
        let mut m = fx.mapper();
        assert_eq!(m.collapse_section(mb).unwrap(), base);
        assert!(matches!(
            m.root.entry_for(mb),
            L1Entry::Section {
                size: PageSize::Section1M,
                ..
            }
        ));
        // Refs transferred, not dropped: nothing was freed.
        assert_eq!(m.phys.frames_in_use(), in_use);
        assert_eq!(m.phys.page(Pfn::new(base.raw() + 200)).refcount, 1);
        // Split back: PTP reused via the mate half (Fault here, so a
        // fresh PTP) and 256 small PTEs restored over the same frames.
        assert_eq!(m.split_section(mb).unwrap(), 256);
        let slot = m
            .get_pte(VirtAddr::new(mb.raw() + 200 * PAGE_SIZE))
            .unwrap();
        assert_eq!(slot.hw.size, PageSize::Small4K);
        assert_eq!(slot.hw.pfn, Pfn::new(base.raw() + 200));
        assert_eq!(m.phys.page(Pfn::new(base.raw() + 200)).refcount, 1);
        // clear_section is gone; clear_range now tears the small PTEs.
        assert_eq!(
            m.clear_range(VaRange::from_len(mb, PageSize::Section1M.bytes())),
            256
        );
    }

    #[test]
    fn clear_section_drops_frame_refs() {
        let mut fx = Fx::new();
        let mb = VirtAddr::new(0x0060_0000);
        for g in 0..16u32 {
            install_large_group(&mut fx, VirtAddr::new(mb.raw() + g * 0x1_0000));
        }
        let before_ptes = fx.phys.frames_in_use();
        let mut m = fx.mapper();
        m.collapse_section(mb).unwrap();
        assert_eq!(m.clear_section(mb), Some(256));
        assert_eq!(m.clear_section(mb), None);
        // All 256 data frames freed; only the (now empty) PTP remains.
        assert_eq!(m.phys.frames_in_use(), before_ptes - 256);
        assert_eq!(m.root.section_count(), 0);
    }

    #[test]
    fn collapse_section_rejects_holes_and_torn_runs() {
        let mut fx = Fx::new();
        let mb = VirtAddr::new(0x0060_0000);
        for g in 0..15u32 {
            install_large_group(&mut fx, VirtAddr::new(mb.raw() + g * 0x1_0000));
        }
        let mut m = fx.mapper();
        // Last 64KB missing: not fully populated.
        assert_eq!(m.collapse_section(mb), Err(SatError::InvalidArgument));
    }

    #[test]
    fn ensure_ptp_reuses_mate_half_after_section_split() {
        let mut fx = Fx::new();
        // Section in the Lower half of pair (6, 7); Upper half Fault.
        let mb = VirtAddr::new(0x0060_0000);
        for g in 0..16u32 {
            install_large_group(&mut fx, VirtAddr::new(mb.raw() + g * 0x1_0000));
        }
        let mut m = fx.mapper();
        m.collapse_section(mb).unwrap();
        // The old PTP (emptied by the collapse) still serves the pair;
        // mapping in the Upper MB must reuse it, not allocate anew.
        let ptps_before = m.ptps.len();
        let upper = VirtAddr::new(0x0070_0000);
        let (_, allocated) = m.ensure_ptp(upper, Domain::USER).unwrap();
        assert!(!allocated);
        assert_eq!(m.ptps.len(), ptps_before);
        // And after a section split with *no* surviving table half the
        // pair gets exactly one fresh PTP shared by both halves.
        m.split_section(mb).unwrap();
        assert_eq!(m.root.entry_for(mb).ptp(), m.root.entry_for(upper).ptp());
    }

    #[test]
    fn clear_range_counts_cleared_ptes() {
        let mut fx = Fx::new();
        let f1 = fx.anon_frame();
        let f2 = fx.anon_frame();
        let base = VirtAddr::new(0x0600_0000);
        let mut m = fx.mapper();
        m.set_pte(
            base,
            HwPte::small(f1, Perms::RW, false),
            SwPte::anon(true),
            Domain::USER,
        )
        .unwrap();
        m.set_pte(
            VirtAddr::new(0x0600_3000),
            HwPte::small(f2, Perms::RW, false),
            SwPte::anon(true),
            Domain::USER,
        )
        .unwrap();
        assert_eq!(m.clear_range(VaRange::from_len(base, 0x10_000)), 2);
        assert_eq!(m.clear_range(VaRange::from_len(base, 0x10_000)), 0);
    }
}
