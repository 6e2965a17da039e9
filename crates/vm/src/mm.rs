//! Per-process address spaces: the `mm_struct` analogue.

use std::sync::Arc;

use sat_mmu::RootTable;
use sat_phys::PhysMem;
use sat_types::{Asid, Dacr, Pid, SatError, SatResult, VaRange, VirtAddr, PAGE_SIZE};

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
    /// The regions, sorted by `range.start` and disjoint. A fork hands
    /// the child pointers to the parent's regions ([`Mm::fork_regions`]),
    /// so a region may be shared with any number of relatives: every
    /// change to one goes through `Arc::make_mut` / `Arc::unwrap_or_clone`
    /// and is seen by this address space alone (DESIGN.md §17).
    vmas: Vec<Arc<Vma>>,
}

/// Spare slots in the region list a fork builds for the child, so the
/// first few regions the child maps (a fleet child maps its heap right
/// after the fork) do not double the list.
const FORK_HEADROOM: usize = 8;

/// A parent's regions on their way to the child of a fork: taken with
/// [`Mm::fork_regions`], walked by the page-table copy (which borrows
/// both address spaces mutably), and installed with
/// [`Mm::adopt_regions`]. Holds pointers, not copies.
pub struct ForkRegions(Vec<Arc<Vma>>);

impl ForkRegions {
    /// Iterates the regions in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Vma> {
        self.0.iter().map(Arc::as_ref)
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

    /// Index of the first region that ends above `va`: the region
    /// containing `va` if there is one, else the next one up.
    fn first_ending_above(&self, va: VirtAddr) -> usize {
        self.vmas.partition_point(|v| v.range.end <= va)
    }

    /// Returns the region containing `va`, if any.
    pub fn vma_at(&self, va: VirtAddr) -> Option<&Vma> {
        self.shared_vma_at(va).map(Arc::as_ref)
    }

    /// The pointer to the region containing `va`: what a caller that
    /// keeps the region across a mutable borrow of the address space
    /// clones, instead of the region.
    pub(crate) fn shared_vma_at(&self, va: VirtAddr) -> Option<&Arc<Vma>> {
        self.vmas
            .get(self.first_ending_above(va))
            .filter(|v| v.range.contains(va))
    }

    /// Sets the `global` flag of the region containing `va` — the
    /// paper's kernel marks the library code the zygote maps (Section
    /// 3.2.2). Returns `false` if no region contains `va`.
    pub fn mark_global(&mut self, va: VirtAddr) -> bool {
        let at = self.first_ending_above(va);
        let Some(vma) = self.vmas.get_mut(at).filter(|v| v.range.contains(va)) else {
            return false;
        };
        Arc::make_mut(vma).global = true;
        true
    }

    /// Returns regions overlapping `range`, in address order.
    ///
    /// A range query on the sorted list: regions are disjoint, so
    /// their ends ascend too, and the ones overlapping `range` — those
    /// that end above its start and start below its end — are
    /// consecutive from the first that ends above `range.start`.
    pub fn vmas_overlapping(&self, range: VaRange) -> impl Iterator<Item = &Vma> {
        self.vmas[self.first_ending_above(range.start)..]
            .iter()
            .map(Arc::as_ref)
            .take_while(move |v| v.range.start < range.end)
    }

    /// Returns `true` if any region overlaps `range`.
    pub fn any_vma_overlaps(&self, range: VaRange) -> bool {
        self.vmas_overlapping(range).next().is_some()
    }

    /// Iterates all regions in address order.
    pub fn vmas(&self) -> impl Iterator<Item = &Vma> {
        self.vmas.iter().map(Arc::as_ref)
    }

    /// Number of regions.
    pub fn vma_count(&self) -> usize {
        self.vmas.len()
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
        let at = self.first_ending_above(vma.range.start);
        if (self.vmas.get(at)).is_some_and(|next| next.range.start < vma.range.end) {
            return Err(SatError::MappingOverlap);
        }
        self.vmas.insert(at, Arc::new(vma));
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
        let lo = self.first_ending_above(range.start);
        let overlapping = self.vmas[lo..]
            .iter()
            .take_while(|v| v.range.start < range.end)
            .count();
        // The pieces leave as regions of their own: a region a relative
        // still points at is copied here, and only here.
        let mut removed: Vec<Vma> = self
            .vmas
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
        self.vmas.splice(lo..lo, head.into_iter().chain(tail));
        removed
    }

    /// Finds a free, `align`-aligned address range of `len` bytes at
    /// or above [`MMAP_BASE`], in the user portion of the address
    /// space.
    pub fn find_free(&self, len: u32, align: u32) -> SatResult<VirtAddr> {
        assert!(align.is_power_of_two() && align >= PAGE_SIZE);
        let align_up = |addr: u32| addr.checked_add(align - 1).map(|a| a & !(align - 1));
        let mut candidate = match align_up(MMAP_BASE.raw()) {
            Some(c) => c,
            None => return Err(SatError::OutOfMemory),
        };
        // From the first region that ends above the base. One that
        // ends at or below a later candidate re-derives that candidate
        // (the lowest aligned address above the region before it).
        for vma in &self.vmas[self.first_ending_above(VirtAddr::new(candidate))..] {
            if vma.range.start.raw() >= candidate && vma.range.start.raw() - candidate >= len {
                break;
            }
            candidate = match align_up(vma.range.end.raw()) {
                Some(c) => c,
                None => return Err(SatError::OutOfMemory),
            };
        }
        let end = candidate as u64 + len as u64;
        if end > sat_types::KERNEL_SPACE_START as u64 {
            return Err(SatError::OutOfMemory);
        }
        Ok(VirtAddr::new(candidate))
    }

    /// Releases the address space's root table. The caller must have
    /// torn down mappings first (see [`crate::syscalls::exit_mmap`]).
    pub fn free_root(self, phys: &mut PhysMem) {
        self.root.free(phys);
    }

    /// The regions a child of this address space inherits: one
    /// allocation of pointers to them, whatever they hold.
    pub fn fork_regions(&self) -> ForkRegions {
        let mut regions = Vec::with_capacity(self.vmas.len() + FORK_HEADROOM);
        regions.extend_from_slice(&self.vmas);
        ForkRegions(regions)
    }

    /// Installs the regions inherited from the parent (the end of a
    /// fork), replacing any held before.
    pub fn adopt_regions(&mut self, regions: ForkRegions) {
        self.vmas = regions.0;
    }

    /// Removes every region (used by exit).
    pub(crate) fn clear_vmas(&mut self) {
        self.vmas = Vec::new();
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

    #[test]
    fn zygote_like_flagging() {
        let (_p, mut mm) = mm();
        assert!(!mm.is_zygote_like());
        mm.is_zygote_child = true;
        assert!(mm.is_zygote_like());
    }
}
