//! Per-process address spaces: the `mm_struct` analogue.

use std::ops::Range;
use std::sync::Arc;

use sat_mmu::RootTable;
use sat_phys::PhysMem;
use sat_types::{
    Asid, Dacr, Pid, SatError, SatResult, VaRange, VirtAddr, KERNEL_SPACE_START, PAGE_SIZE,
};

use crate::vma::Vma;

/// Software counters, mirroring the counters the paper added to the
/// kernel plus the standard fault counters ("we also add new software
/// counters into the kernel to gather statistics for the number of
/// page faults, PTPs allocated, shared PTPs, PTPs unshared, and PTEs
/// copied").
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct MmCounters {
    /// All page faults handled.
    pub faults_total: u64,
    /// Page faults on file-backed mappings — the paper's headline
    /// steady-state metric (Figures 9 and 10).
    pub faults_file: u64,
    /// Soft (minor) faults: resolved without I/O.
    pub faults_soft: u64,
    /// Hard (major) faults: required a simulated disk read.
    pub faults_hard: u64,
    /// COW copies performed on write faults.
    pub faults_cow: u64,
    /// Write faults resolved by re-enabling write permission.
    pub faults_write_enable: u64,
    /// Faults that found a PTE already sufficient (e.g. raced with a
    /// sharer that populated it).
    pub faults_spurious: u64,
    /// Page-table pages allocated for this address space.
    pub ptps_allocated: u64,
    /// PTEs copied at fork time (into this, the child, address space).
    pub ptes_copied_fork: u64,
    /// PTEs copied by PTP-unshare operations.
    pub ptes_copied_unshare: u64,
    /// PTPs this process attached to as shared at fork.
    pub ptps_shared_at_fork: u64,
    /// Unshare operations performed by this process.
    pub ptps_unshared: u64,
    /// Unshares triggered eagerly by region operations (mmap/munmap/
    /// mprotect/new-region) rather than by write faults.
    pub unshares_by_region_op: u64,
}

impl MmCounters {
    /// Total PTEs copied (fork + unshare), the paper's Section 4.2.3
    /// unsharing-cost metric.
    pub fn ptes_copied_total(&self) -> u64 {
        self.ptes_copied_fork + self.ptes_copied_unshare
    }
}

/// A process address space: root table, regions, and counters.
pub struct Mm {
    /// Owning process.
    pub pid: Pid,
    /// Hardware ASID assigned to the process.
    pub asid: Asid,
    /// The first-level translation table.
    pub root: RootTable,
    /// Domain access rights, loaded into the DACR on context switch.
    pub dacr: Dacr,
    /// Set by `exec` when the zygote starts (paper Section 3.2.2).
    pub is_zygote: bool,
    /// Set by `fork` for children of the zygote.
    pub is_zygote_child: bool,
    /// Software counters.
    pub counters: MmCounters,
    /// The regions, sorted by `range.start` and disjoint, in groups:
    /// each group a sorted run of at most [`GROUP_MAX`] regions, none
    /// empty, the groups ascending. A fork hands the child the
    /// parent's groups ([`Mm::fork_regions`]), so a group — and each
    /// region in it — may be shared with any number of relatives: a
    /// change rebuilds the one group it lands in, and a region goes
    /// through `Arc::make_mut` / `Arc::unwrap_or_clone`, so the change
    /// is seen by this address space alone (DESIGN.md §17).
    vmas: Vec<Group>,
}

/// The most regions one group holds. An insert that would make a group
/// one longer splits it into two halves.
const GROUP_MAX: usize = 32;

/// A run of consecutive regions in one allocation, shared
/// copy-on-write between the relatives that hold it and rebuilt, at
/// its exact new length, whenever its run changes.
type Group = Arc<[Arc<Vma>]>;

/// A parent's regions on their way to the child of a fork: taken with
/// [`Mm::fork_regions`], walked by the page-table copy (which borrows
/// both address spaces mutably), and installed with
/// [`Mm::adopt_regions`]. Holds pointers to the parent's groups, not
/// copies.
pub struct ForkRegions(Vec<Group>);

impl ForkRegions {
    /// Iterates the regions in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Vma> {
        self.0
            .iter()
            .flat_map(|group| group.iter())
            .map(Arc::as_ref)
    }
}

/// Default base address for automatic mmap placement.
pub const MMAP_BASE: VirtAddr = VirtAddr::new(0x4000_0000);

impl Mm {
    /// Creates an empty address space, allocating a root table.
    pub fn new(phys: &mut PhysMem, pid: Pid, asid: Asid) -> SatResult<Mm> {
        Ok(Mm {
            pid,
            asid,
            root: RootTable::alloc(phys)?,
            dacr: Dacr::stock_user(),
            is_zygote: false,
            is_zygote_child: false,
            counters: MmCounters::default(),
            vmas: Vec::new(),
        })
    }

    /// Returns `true` if the process is the zygote or a zygote child.
    pub fn is_zygote_like(&self) -> bool {
        self.is_zygote || self.is_zygote_child
    }

    /// Where the first region that ends above `va` is — the region
    /// containing `va` if there is one, else the next one up: its group
    /// (found by each group's last end) and its index in that group.
    /// Past the last region it is `(groups, 0)`.
    fn first_ending_above(&self, va: VirtAddr) -> (usize, usize) {
        let g = self
            .vmas
            .partition_point(|group| group[group.len() - 1].range.end <= va);
        let i = self
            .vmas
            .get(g)
            .map_or(0, |group| group.partition_point(|v| v.range.end <= va));
        (g, i)
    }

    /// The regions from position `(g, i)` on, in address order.
    fn regions_from(&self, (g, i): (usize, usize)) -> impl Iterator<Item = &Arc<Vma>> {
        self.vmas[g..].iter().flat_map(|group| group.iter()).skip(i)
    }

    /// Puts the `len` regions `run` yields, in order, in place of the
    /// groups `at`: as one group in one allocation, as none if `len`
    /// is 0, or — past [`GROUP_MAX`] — as two halves.
    fn put(&mut self, at: Range<usize>, len: usize, mut run: impl Iterator<Item = Arc<Vma>>) {
        debug_assert!(len <= 2 * GROUP_MAX);
        let halves = len > GROUP_MAX;
        let first = if halves { len / 2 } else { len };
        let low: Option<Group> = (len > 0).then(|| run.by_ref().take(first).collect());
        let high: Option<Group> = halves.then(|| run.collect());
        self.vmas.splice(at, low.into_iter().chain(high));
    }

    /// Returns the region containing `va`, if any.
    pub fn vma_at(&self, va: VirtAddr) -> Option<&Vma> {
        self.shared_vma_at(va).map(Arc::as_ref)
    }

    /// The pointer to the region containing `va`: what a caller that
    /// keeps the region across a mutable borrow of the address space
    /// clones, instead of the region.
    pub(crate) fn shared_vma_at(&self, va: VirtAddr) -> Option<&Arc<Vma>> {
        let (g, i) = self.first_ending_above(va);
        self.vmas
            .get(g)
            .map(|group| &group[i])
            .filter(|v| v.range.contains(va))
    }

    /// Sets the `global` flag of the region containing `va` — the
    /// paper's kernel marks the library code the zygote maps (Section
    /// 3.2.2). Returns `false` if no region contains `va`.
    pub fn mark_global(&mut self, va: VirtAddr) -> bool {
        let (g, i) = self.first_ending_above(va);
        if !self
            .vmas
            .get(g)
            .is_some_and(|group| group[i].range.contains(va))
        {
            return false;
        }
        // The group, then the region: each copied first if a relative
        // holds it, each at its own size.
        Arc::make_mut(&mut Arc::make_mut(&mut self.vmas[g])[i]).global = true;
        true
    }

    /// Returns regions overlapping `range`, in address order.
    ///
    /// A range query on the sorted list: regions are disjoint, so
    /// their ends ascend too, and the ones overlapping `range` — those
    /// that end above its start and start below its end — are
    /// consecutive from the first that ends above `range.start`.
    pub fn vmas_overlapping(&self, range: VaRange) -> impl Iterator<Item = &Vma> {
        self.regions_from(self.first_ending_above(range.start))
            .map(Arc::as_ref)
            .take_while(move |v| v.range.start < range.end)
    }

    /// Returns `true` if any region overlaps `range`.
    pub fn any_vma_overlaps(&self, range: VaRange) -> bool {
        self.vmas_overlapping(range).next().is_some()
    }

    /// Iterates all regions in address order.
    pub fn vmas(&self) -> impl Iterator<Item = &Vma> {
        self.regions_from((0, 0)).map(Arc::as_ref)
    }

    /// Number of regions.
    pub fn vma_count(&self) -> usize {
        self.vmas.iter().map(|group| group.len()).sum()
    }

    /// Inserts a region; fails if it overlaps an existing one.
    pub fn insert_vma(&mut self, vma: Vma) -> SatResult<()> {
        if vma.range.is_empty() {
            return Err(SatError::InvalidArgument);
        }
        if !vma.range.start.is_page_aligned() || !vma.range.end.is_page_aligned() {
            return Err(SatError::InvalidArgument);
        }
        // The new region goes before the first one that ends above its
        // start — which overlaps it unless it starts at or above its end.
        let (mut g, mut i) = self.first_ending_above(vma.range.start);
        if self
            .regions_from((g, i))
            .next()
            .is_some_and(|next| next.range.start < vma.range.end)
        {
            return Err(SatError::MappingOverlap);
        }
        if g == self.vmas.len() && g > 0 {
            // Above every region: the end of the last group.
            g -= 1;
            i = self.vmas[g].len();
        }
        // The group it lands in is rebuilt one longer in its place; the
        // first region makes the first group.
        let group = self.vmas.get(g).cloned();
        let group = group.as_deref().unwrap_or_default();
        let (below, above) = group.split_at(i);
        let run = below
            .iter()
            .cloned()
            .chain([Arc::new(vma)])
            .chain(above.iter().cloned());
        let replaced = g..g + usize::from(!self.vmas.is_empty());
        self.put(replaced, group.len() + 1, run);
        Ok(())
    }

    /// Removes the portions of regions overlapping `range`, splitting
    /// regions that straddle its edges, and returns the removed
    /// pieces. The address space is left covering everything outside
    /// `range` exactly as before; an empty range removes nothing.
    ///
    /// # Panics
    ///
    /// Panics if an edge of `range` falls inside a region and is not
    /// page-aligned (the callers check alignment first).
    pub fn carve(&mut self, range: VaRange) -> Vec<Vma> {
        if range.is_empty() {
            return Vec::new();
        }
        let (g, lo) = self.first_ending_above(range.start);
        let overlapping = self
            .regions_from((g, lo))
            .take_while(|v| v.range.start < range.end)
            .count();
        if overlapping == 0 {
            return Vec::new();
        }
        // The groups holding them, `g` to `h`, leave the list as one run
        // of pointers: a group no relative holds is freed here, so each
        // region's count says whether a relative holds the region.
        let (mut h, mut past) = (g, lo + overlapping);
        while past > self.vmas[h].len() {
            past -= self.vmas[h].len();
            h += 1;
        }
        let held: usize = self.vmas[g..=h].iter().map(|group| group.len()).sum();
        let mut run = Vec::with_capacity(held + 1);
        for group in self.vmas.drain(g..=h) {
            run.extend_from_slice(&group);
        }
        // The pieces leave as regions of their own: a region a relative
        // still points at is copied here, and only here.
        let mut removed: Vec<Vma> = run
            .drain(lo..lo + overlapping)
            .map(Arc::unwrap_or_clone)
            .collect();
        let (mut head, mut tail) = (None, None);
        if let Some(first) = removed.first_mut() {
            if first.range.start < range.start {
                // Leading piece stays.
                let inside = first.split_at(range.start);
                head = Some(Arc::new(std::mem::replace(first, inside)));
            }
        }
        if let Some(last) = removed.last_mut() {
            if last.range.end > range.end {
                // Trailing piece stays.
                tail = Some(Arc::new(last.split_at(range.end)));
            }
        }
        run.splice(lo..lo, head.into_iter().chain(tail));
        self.put(g..g, run.len(), run.into_iter());
        removed
    }

    /// Finds a free, `align`-aligned address range of `len` bytes at
    /// or above [`MMAP_BASE`], in the user portion of the address
    /// space.
    ///
    /// # Panics
    ///
    /// Panics unless `align` is a power of two of at least a page
    /// (`sat_vm::mmap` refuses any other alignment first).
    pub fn find_free(&self, len: u32, align: u32) -> SatResult<VirtAddr> {
        assert!(
            align.is_power_of_two() && align >= PAGE_SIZE,
            "find_free: alignment {align:#x} is not a power of two of at least a page"
        );
        let align_up = |addr: u32| addr.checked_add(align - 1).map(|a| a & !(align - 1));
        let mut candidate = match align_up(MMAP_BASE.raw()) {
            Some(c) => c,
            None => return Err(SatError::OutOfMemory),
        };
        // From the first region that ends above the base. One that
        // ends at or below a later candidate re-derives that candidate
        // (the lowest aligned address above the region before it).
        for vma in self.regions_from(self.first_ending_above(VirtAddr::new(candidate))) {
            if vma.range.start.raw() >= candidate && vma.range.start.raw() - candidate >= len {
                break;
            }
            candidate = match align_up(vma.range.end.raw()) {
                Some(c) => c,
                None => return Err(SatError::OutOfMemory),
            };
        }
        let end = candidate as u64 + len as u64;
        if end > KERNEL_SPACE_START as u64 {
            return Err(SatError::OutOfMemory);
        }
        Ok(VirtAddr::new(candidate))
    }

    /// The regions a child of this address space inherits: one
    /// allocation of pointers to its groups, whatever they hold.
    pub fn fork_regions(&self) -> ForkRegions {
        ForkRegions(self.vmas.clone())
    }

    /// Installs the regions inherited from the parent (the end of a
    /// fork), replacing any held before.
    pub fn adopt_regions(&mut self, regions: ForkRegions) {
        self.vmas = regions.0;
    }

    /// Checks the region list, for `Kernel::audit` and the region-list
    /// differential: every region non-empty, page-aligned and ending at
    /// or below kernel space, each starting at or above the end of the
    /// one before it — so the list is sorted, its regions pairwise
    /// disjoint and its groups ascending without overlap — and every
    /// group non-empty and at most 32 (`GROUP_MAX`) long. Returns a
    /// description of the first violation found.
    pub fn verify_regions(&self) -> Result<(), String> {
        for (g, group) in self.vmas.iter().enumerate() {
            if group.is_empty() || group.len() > GROUP_MAX {
                return Err(format!("group {g} holds {} regions", group.len()));
            }
        }
        let mut prev: Option<VaRange> = None;
        for vma in self.vmas() {
            let r = vma.range;
            if r.is_empty() {
                return Err(format!("region {r:?} is empty"));
            }
            if !r.start.is_page_aligned() || !r.end.is_page_aligned() {
                return Err(format!("region {r:?} is not page-aligned"));
            }
            if r.end.raw() > KERNEL_SPACE_START {
                return Err(format!("region {r:?} reaches into kernel space"));
            }
            if let Some(p) = prev.filter(|p| r.start < p.end) {
                return Err(format!("region {r:?} starts below the end of {p:?}"));
            }
            prev = Some(r);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat_types::{Perms, RegionTag};

    fn mm() -> (PhysMem, Mm) {
        let mut phys = PhysMem::new(1024);
        let mm = Mm::new(&mut phys, Pid::new(1), Asid::new(1)).unwrap();
        (phys, mm)
    }

    fn anon(start: u32, pages: u32) -> Vma {
        Vma::anon(
            VaRange::from_len(VirtAddr::new(start), pages * PAGE_SIZE),
            Perms::RW,
            RegionTag::Heap,
            "[anon]",
        )
    }

    #[test]
    fn insert_and_lookup() {
        let (_p, mut mm) = mm();
        mm.insert_vma(anon(0x4000_0000, 4)).unwrap();
        assert!(mm.vma_at(VirtAddr::new(0x4000_0000)).is_some());
        assert!(mm.vma_at(VirtAddr::new(0x4000_3FFF)).is_some());
        assert!(mm.vma_at(VirtAddr::new(0x4000_4000)).is_none());
        assert!(mm.vma_at(VirtAddr::new(0x3FFF_FFFF)).is_none());
    }

    #[test]
    fn overlapping_insert_rejected() {
        let (_p, mut mm) = mm();
        mm.insert_vma(anon(0x4000_0000, 4)).unwrap();
        assert_eq!(
            mm.insert_vma(anon(0x4000_3000, 2)).unwrap_err(),
            SatError::MappingOverlap
        );
        // Abutting is fine.
        mm.insert_vma(anon(0x4000_4000, 2)).unwrap();
        assert_eq!(mm.vma_count(), 2);
    }

    #[test]
    fn unaligned_insert_rejected() {
        let (_p, mut mm) = mm();
        let v = Vma::anon(
            VaRange::from_len(VirtAddr::new(0x4000_0100), PAGE_SIZE),
            Perms::RW,
            RegionTag::Heap,
            "x",
        );
        assert_eq!(mm.insert_vma(v).unwrap_err(), SatError::InvalidArgument);
    }

    #[test]
    fn carve_splits_straddling_region() {
        let (_p, mut mm) = mm();
        mm.insert_vma(anon(0x4000_0000, 10)).unwrap();
        let removed = mm.carve(VaRange::from_len(VirtAddr::new(0x4000_3000), 4 * PAGE_SIZE));
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].range.start.raw(), 0x4000_3000);
        assert_eq!(removed[0].range.len(), 4 * PAGE_SIZE);
        // Head and tail survive.
        assert!(mm.vma_at(VirtAddr::new(0x4000_0000)).is_some());
        assert!(mm.vma_at(VirtAddr::new(0x4000_2FFF)).is_some());
        assert!(mm.vma_at(VirtAddr::new(0x4000_3000)).is_none());
        assert!(mm.vma_at(VirtAddr::new(0x4000_7000)).is_some());
        assert_eq!(mm.vma_count(), 2);
    }

    #[test]
    fn carve_spanning_multiple_regions() {
        let (_p, mut mm) = mm();
        mm.insert_vma(anon(0x4000_0000, 2)).unwrap();
        mm.insert_vma(anon(0x4000_2000, 2)).unwrap();
        mm.insert_vma(anon(0x4000_4000, 2)).unwrap();
        let removed = mm.carve(VaRange::from_len(VirtAddr::new(0x4000_1000), 4 * PAGE_SIZE));
        assert_eq!(removed.len(), 3);
        assert_eq!(mm.vma_count(), 2);
        assert!(mm.vma_at(VirtAddr::new(0x4000_0000)).is_some());
        assert!(mm.vma_at(VirtAddr::new(0x4000_5000)).is_some());
    }

    #[test]
    fn find_free_respects_alignment_and_gaps() {
        let (_p, mut mm) = mm();
        mm.insert_vma(anon(0x4000_0000, 4)).unwrap();
        let free = mm.find_free(2 * PAGE_SIZE, PAGE_SIZE).unwrap();
        assert_eq!(free.raw(), 0x4000_4000);
        let aligned = mm.find_free(2 * PAGE_SIZE, 2 << 20).unwrap();
        assert_eq!(aligned.raw(), 0x4020_0000);
        assert!(aligned.is_ptp_aligned());
    }

    #[test]
    fn find_free_skips_occupied_gaps() {
        let (_p, mut mm) = mm();
        mm.insert_vma(anon(0x4000_0000, 1)).unwrap();
        mm.insert_vma(anon(0x4000_2000, 1)).unwrap();
        // The 1-page hole at 0x4000_1000 fits a 1-page request.
        assert_eq!(
            mm.find_free(PAGE_SIZE, PAGE_SIZE).unwrap().raw(),
            0x4000_1000
        );
        // A 2-page request must go after the second region.
        assert_eq!(
            mm.find_free(2 * PAGE_SIZE, PAGE_SIZE).unwrap().raw(),
            0x4000_3000
        );
    }

    /// The lengths of `mm`'s groups.
    fn groups(mm: &Mm) -> Vec<usize> {
        mm.vmas.iter().map(|group| group.len()).collect()
    }

    #[test]
    fn a_full_group_splits_in_halves_and_an_emptied_one_goes() {
        let (_p, mut mm) = mm();
        for i in 0..33 {
            mm.insert_vma(anon(0x4000_0000 + 2 * i * PAGE_SIZE, 1))
                .unwrap();
        }
        assert_eq!(groups(&mm), [16, 17]);
        let first_group = VaRange::from_len(VirtAddr::new(0x4000_0000), 32 * PAGE_SIZE);
        assert_eq!(mm.carve(first_group).len(), 16);
        assert_eq!(groups(&mm), [17]);
        mm.verify_regions().unwrap();
    }

    #[test]
    fn a_child_copies_only_the_groups_it_changes() {
        let (mut phys, mut parent) = mm();
        for i in 0..64 {
            parent
                .insert_vma(anon(0x4000_0000 + 2 * i * PAGE_SIZE, 1))
                .unwrap();
        }
        assert_eq!(groups(&parent), [16, 16, 32]);
        let mut child = Mm::new(&mut phys, Pid::new(2), Asid::new(2)).unwrap();
        child.adopt_regions(parent.fork_regions());
        let held = |child: &Mm| -> Vec<bool> {
            let pairs = parent.vmas.iter().zip(&child.vmas);
            pairs.map(|(p, c)| Arc::ptr_eq(p, c)).collect()
        };
        assert_eq!(held(&child), [true, true, true]);
        // Below every region: the first group, copied one longer.
        child.insert_vma(anon(0x3FFF_F000, 1)).unwrap();
        assert_eq!(
            (groups(&child), held(&child)),
            (vec![17, 16, 32], vec![false, true, true])
        );
        // The last group's region, marked: that group copied, the
        // parent's region unmarked.
        let last = VirtAddr::new(0x4000_0000 + 126 * PAGE_SIZE);
        assert!(child.mark_global(last));
        assert_eq!(held(&child), [false, true, false]);
        assert!(!parent.vma_at(last).unwrap().global);
        assert!(child.vma_at(last).unwrap().global);
    }

    #[test]
    fn zygote_like_flagging() {
        let (_p, mut mm) = mm();
        assert!(!mm.is_zygote_like());
        mm.is_zygote_child = true;
        assert!(mm.is_zygote_like());
    }
}
