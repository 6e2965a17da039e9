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
    Domain, PageSize, Pfn, Pid, SatResult, VaRange, VirtAddr, L2_ENTRIES, L2_TABLE_SPAN,
    PAGE_SHIFT, PAGE_SIZE,
};

use crate::groups::GROUP_WORDS;
use crate::l1::{L1Entry, RootTable};
use crate::pte::{HwPte, PteSlot, SwPte};
use crate::ptp::{pack_slot, unpack_slot, Ptp, PtpStore, StagedPtp, TableHalf};

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
/// tables, not its pages. Faults hold no slots and are stepped over.
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
        if let L1Entry::Table { ptp, .. } = self.root.entry_for(va) {
            return Ok((ptp, false));
        }
        // Pairs are installed and cleared whole: the mate half is a
        // fault too.
        debug_assert_eq!(self.root.entry(va.l1_index() ^ 1), L1Entry::Fault);
        let frame = self.phys.alloc(FrameKind::PageTable)?;
        self.ptps.insert(frame);
        self.phys.map_inc(frame); // one process references it
        self.root.set_table_pair(va, frame, domain, false);
        Ok((frame, true))
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
        take_frame_ref(self.phys, owner, hw, va);
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

    /// Drops one process's reference to the PTP pair covering `va`
    /// and clears the pair ([`release_table`]). Returns `true` if the
    /// PTP was freed.
    pub fn release_ptp_pair(&mut self, va: VirtAddr) -> bool {
        let chunk = va.ptp_base();
        // Read before the pair goes: a lone sharer that exits while
        // still `NEED_COPY` frees a table whose entries are filed
        // under the shared-table owner, not under its pid.
        let owners = [TableHalf::Lower, TableHalf::Upper]
            .map(|half| self.owner(Mapper::slot_va(chunk, half, 0)));
        match self.root.clear_table_pair(va) {
            Some(frame) => release_table(self.ptps, self.phys, frame, chunk, owners),
            None => false,
        }
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

/// Drops one reference to the PTP in `frame`, which translates the 2MB
/// chunk at `chunk`. If it was the last, the PTP's PTEs are torn down
/// where they lie — each dropping its frame's references, its
/// reverse-map entry filed under `owners[half]` — and the PTP and its
/// frame are freed. Returns `true` if the PTP was freed.
///
/// The level-1 entries pointing at it are the caller's: a pair being
/// unmapped clears them first ([`Mapper::release_ptp_pair`]), and an
/// exiting address space frees its whole root after.
pub fn release_table(
    ptps: &mut PtpStore,
    phys: &mut PhysMem,
    frame: Pfn,
    chunk: VirtAddr,
    owners: [Pid; 2],
) -> bool {
    if phys.map_dec(frame) > 0 {
        return false; // other processes still reference it
    }
    let table = ptps.get(frame).expect("PTP in store");
    table.for_each(|half, idx, slot| {
        let slot_va = Mapper::slot_va(chunk, half, idx);
        drop_frame_ref(phys, owners[half.index()], slot.hw, slot_va);
    });
    ptps.free(frame);
    phys.put_page(frame);
    true
}

/// One 2MB chunk of a fork's page-table copy, from the parent's table
/// into a table of the child's, staged on the stack until the chunk is
/// done ([`ChunkCopy::install`]).
///
/// Each PTE copied costs what it costs the simulated kernel — the
/// parent's write-protect where the copy is COW, and the frame's
/// reference, mapping count and reverse-map entry — but only a word
/// written to the stage on the host. The child's table is found or
/// allocated once, at the first PTE copied, where Linux's per-PTE
/// `pte_alloc` would first allocate it; it is the only step that can
/// fail.
pub struct ChunkCopy {
    chunk: VirtAddr,
    /// The parent's table, once a range is copied from it.
    parent: Option<Pfn>,
    /// The child's table and whom its reverse-map entries are filed
    /// under, once a PTE is copied.
    child: Option<(Pfn, Pid)>,
    staged: StagedPtp,
    /// PTEs copied so far.
    pub ptes: u64,
    /// Parent PTEs write-protected so far.
    pub protected: u64,
    /// The child's table was allocated by this copy.
    pub ptp_allocated: bool,
}

impl ChunkCopy {
    /// A copy of the chunk at `chunk`, which must be 2MB-aligned, with
    /// nothing copied yet.
    pub fn new(chunk: VirtAddr) -> ChunkCopy {
        debug_assert!(chunk.is_ptp_aligned());
        ChunkCopy {
            chunk,
            parent: None,
            child: None,
            staged: StagedPtp::new(),
            ptes: 0,
            protected: 0,
            ptp_allocated: false,
        }
    }

    /// Copies the populated PTEs of `parent` in `range` — which lies in
    /// the chunk, clear of every range copied into it before — to
    /// `child`'s address space, in ascending address order. Where `cow`
    /// is set every writable PTE is write-protected in the parent
    /// first, and copied so. A copy that cannot allocate the child's
    /// table stops there, with that one parent PTE protected, and
    /// copies nothing: the chunk is abandoned, and
    /// [`ChunkCopy::install`] does nothing.
    pub fn copy(
        &mut self,
        parent: &RootTable,
        child: &mut Mapper<'_>,
        range: VaRange,
        cow: bool,
        domain: Domain,
    ) -> SatResult<()> {
        for span in half_spans(parent, range) {
            debug_assert_eq!(
                span.base.ptp_base(),
                self.chunk,
                "{range:?} leaves the chunk"
            );
            let Some(table) = child.ptps.get(span.ptp) else {
                continue;
            };
            self.parent = Some(span.ptp);
            let gathered = table.gather(span.half, span.slots.clone(), &mut self.staged);
            for (g, mut left) in gathered.into_iter().enumerate() {
                while left != 0 {
                    let at = g * GROUP_WORDS + left.trailing_zeros() as usize;
                    left &= left - 1;
                    self.copy_pte(child, &span, at, cow, domain)?;
                }
            }
        }
        Ok(())
    }

    /// The copy of the staged word `at`, which `span` translates.
    fn copy_pte(
        &mut self,
        child: &mut Mapper<'_>,
        span: &HalfSpan,
        at: usize,
        cow: bool,
        domain: Domain,
    ) -> SatResult<()> {
        let idx = at % L2_ENTRIES;
        let va = span.va(idx);
        let PteSlot { mut hw, sw } =
            unpack_slot(self.staged.words[at]).expect("every stored word is a PTE");
        if cow && hw.perms.write() {
            hw = hw.write_protected();
            let parent = child.ptps.get_mut(span.ptp).expect("PTP in store");
            parent.set(span.half, idx, hw, sw);
            self.staged.words[at] = pack_slot(hw, sw);
            self.protected += 1;
        }
        let owner = match self.child {
            Some((_, owner)) => owner,
            None => {
                let (frame, allocated) = child.ensure_ptp(va, domain)?;
                let owner = child.owner(va);
                self.child = Some((frame, owner));
                self.ptp_allocated = allocated;
                owner
            }
        };
        take_frame_ref(child.phys, owner, hw, va);
        self.ptes += 1;
        Ok(())
    }

    /// Writes the copied PTEs into the child's table, a group at a
    /// time: a group that came out as the parent's group at that place
    /// — the same live set, word for word — is installed as that group
    /// itself, shared until either side writes it; any other as one
    /// allocation of exactly its words (`groups.rs`). Host memory only:
    /// nothing simulated can tell the two apart.
    pub fn install(mut self, ptps: &mut PtpStore) {
        if let (Some((child, _)), Some(parent)) = (self.child, self.parent) {
            ptps.install(child, &mut self.staged, parent);
        }
    }
}

/// Takes the frame reference the PTE `hw` at `va` holds, its
/// reverse-map entry filed under `owner`: the inverse of
/// [`drop_frame_ref`]. A 64KB large-page slot references its own 4KB
/// frame of the group.
fn take_frame_ref(phys: &mut PhysMem, owner: Pid, hw: HwPte, va: VirtAddr) {
    let frame = hw.frame_for_slot(va.l2_index());
    phys.get_page(frame);
    phys.map_inc(frame);
    if is_data_frame(phys, frame) {
        phys.rmap_add(frame, owner, va);
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
    use sat_types::{Perms, SatError};

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

    /// Maps `pages` writable anonymous pages from `base` in `fx`'s
    /// process.
    fn map_anon(fx: &mut Fx, base: VirtAddr, pages: u32) {
        for i in 0..pages {
            let frame = fx.anon_frame();
            let va = VirtAddr::new(base.raw() + i * PAGE_SIZE);
            let hw = HwPte::small(frame, Perms::RW, false);
            fx.mapper()
                .set_pte(va, hw, SwPte::anon(true), Domain::USER)
                .unwrap();
        }
    }

    #[test]
    fn a_chunk_copied_range_by_range_is_installed_once_sharing_what_matched() {
        let mut fx = Fx::new();
        let base = VirtAddr::new(0x0200_0000);
        // Group 0 full, two pages of group 1.
        map_anon(&mut fx, base, 66);
        let parent = fx.root.entry_for(base).ptp().unwrap();
        let mut child = RootTable::alloc(&mut fx.phys).unwrap();
        let mut copy = ChunkCopy::new(base);
        let mut cm = Mapper::new(&mut child, &mut fx.ptps, &mut fx.phys, Pid::new(2));
        // Two regions' worth: all of group 0 and the first page of
        // group 1; the page after it is left to refault.
        let page = |i: u32| VirtAddr::new(base.raw() + i * PAGE_SIZE);
        for range in [
            VaRange::new(page(0), page(64)),
            VaRange::new(page(64), page(65)),
        ] {
            copy.copy(&fx.root, &mut cm, range, true, Domain::USER)
                .unwrap();
        }
        assert_eq!(
            (copy.ptes, copy.protected, copy.ptp_allocated),
            (65, 65, true)
        );
        copy.install(&mut fx.ptps);
        let table = child.entry_for(base).ptp().unwrap();
        assert_ne!(table, parent);
        // Group 0 came out as the parent's; group 1 holds one word of two.
        let (mine, theirs) = (fx.ptps.get(table).unwrap(), fx.ptps.get(parent).unwrap());
        assert_eq!((mine.shared_groups(), theirs.shared_groups()), (1, 1));
        assert_eq!((mine.total_valid(), theirs.total_valid()), (65, 66));
        fx.ptps.verify().unwrap();
        let cm = Mapper::new(&mut child, &mut fx.ptps, &mut fx.phys, Pid::new(2));
        for i in [0, 63, 64] {
            let copied = cm.get_pte(page(i)).unwrap();
            assert_eq!(copied.hw.perms, Perms::R, "page {i}");
            assert_eq!(cm.phys.mapcount(copied.hw.pfn), 2, "page {i}");
        }
        assert_eq!(cm.get_pte(page(65)), None);
        let m = fx.mapper();
        assert_eq!(m.get_pte(page(63)).unwrap().hw.perms, Perms::R);
        assert_eq!(m.get_pte(page(65)).unwrap().hw.perms, Perms::RW);
    }

    #[test]
    fn a_chunk_copy_with_no_frame_for_its_table_protects_one_pte_and_installs_nothing() {
        let mut fx = Fx::new();
        let base = VirtAddr::new(0x0200_0000);
        map_anon(&mut fx, base, 2);
        let mut child = RootTable::alloc(&mut fx.phys).unwrap();
        while fx.phys.alloc(FrameKind::Anon).is_ok() {}
        let mut copy = ChunkCopy::new(base);
        let mut cm = Mapper::new(&mut child, &mut fx.ptps, &mut fx.phys, Pid::new(2));
        let range = VaRange::from_len(base, 2 * PAGE_SIZE);
        let err = copy.copy(&fx.root, &mut cm, range, true, Domain::USER);
        assert_eq!(err, Err(SatError::OutOfMemory));
        assert_eq!(
            (copy.ptes, copy.protected, copy.ptp_allocated),
            (0, 1, false)
        );
        let ptps = fx.ptps.len();
        copy.install(&mut fx.ptps);
        assert_eq!((fx.ptps.len(), child.ptp_count()), (ptps, 0));
        // The first PTE was protected before the table was asked for.
        let m = fx.mapper();
        assert_eq!(m.get_pte(base).unwrap().hw.perms, Perms::R);
        let second = VirtAddr::new(base.raw() + PAGE_SIZE);
        assert_eq!(m.get_pte(second).unwrap().hw.perms, Perms::RW);
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
