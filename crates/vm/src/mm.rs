//! Per-process address spaces: the `mm_struct` analogue.

use std::collections::BTreeMap;

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
    vmas: BTreeMap<u32, Vma>,
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
            vmas: BTreeMap::new(),
        })
    }

    /// Returns `true` if the process is the zygote or a zygote child.
    pub fn is_zygote_like(&self) -> bool {
        self.is_zygote || self.is_zygote_child
    }

    /// Returns the region containing `va`, if any.
    pub fn vma_at(&self, va: VirtAddr) -> Option<&Vma> {
        self.vmas
            .range(..=va.raw())
            .next_back()
            .map(|(_, v)| v)
            .filter(|v| v.range.contains(va))
    }

    /// Returns a mutable reference to the region containing `va`.
    ///
    /// Used by the paper's kernel to set the `global` flag on regions
    /// mapped by the zygote (Section 3.2.2).
    pub fn vma_at_mut(&mut self, va: VirtAddr) -> Option<&mut Vma> {
        self.vmas
            .range_mut(..=va.raw())
            .next_back()
            .map(|(_, v)| v)
            .filter(|v| v.range.contains(va))
    }

    /// Returns regions overlapping `range`, in address order.
    ///
    /// A range query on the sorted map: regions are disjoint, so the
    /// only one that starts before `range` and still reaches into it is
    /// the one containing `range.start`.
    pub fn vmas_overlapping(&self, range: VaRange) -> impl Iterator<Item = &Vma> {
        let first = self
            .vma_at(range.start)
            .map_or(range.start, |v| v.range.start);
        self.vmas
            .range(first.raw()..)
            .map(|(_, v)| v)
            .take_while(move |v| v.range.start < range.end)
            .filter(move |v| v.range.overlaps(&range))
    }

    /// Returns `true` if any region overlaps `range`.
    pub fn any_vma_overlaps(&self, range: VaRange) -> bool {
        self.vmas_overlapping(range).next().is_some()
    }

    /// Iterates all regions in address order.
    pub fn vmas(&self) -> impl Iterator<Item = &Vma> {
        self.vmas.values()
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
        if self.any_vma_overlaps(vma.range) {
            return Err(SatError::MappingOverlap);
        }
        self.vmas.insert(vma.range.start.raw(), vma);
        Ok(())
    }

    /// Removes the portions of regions overlapping `range`, splitting
    /// regions that straddle its edges, and returns the removed
    /// pieces. The address space is left covering everything outside
    /// `range` exactly as before.
    pub fn carve(&mut self, range: VaRange) -> Vec<Vma> {
        let keys: Vec<u32> = self
            .vmas
            .values()
            .filter(|v| v.range.overlaps(&range))
            .map(|v| v.range.start.raw())
            .collect();
        let mut removed = Vec::new();
        for key in keys {
            let mut vma = self.vmas.remove(&key).expect("key just collected");
            // Leading piece stays.
            if vma.range.start < range.start {
                let tail = vma.split_at(range.start);
                self.vmas.insert(vma.range.start.raw(), vma);
                vma = tail;
            }
            // Trailing piece stays.
            if vma.range.end > range.end {
                let tail = vma.split_at(range.end);
                self.vmas.insert(tail.range.start.raw(), tail);
            }
            removed.push(vma);
        }
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
        for vma in self.vmas.values() {
            if vma.range.end.raw() <= candidate {
                continue;
            }
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

    /// Clones the region map (used by fork).
    pub fn clone_vmas(&self) -> BTreeMap<u32, Vma> {
        self.vmas.clone()
    }

    /// Replaces the region map (used by fork to install the inherited
    /// regions into the child).
    pub fn set_vmas(&mut self, vmas: BTreeMap<u32, Vma>) {
        self.vmas = vmas;
    }

    /// Removes every region (used by exit).
    pub(crate) fn clear_vmas(&mut self) {
        self.vmas.clear();
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
    fn overlap_query_equals_the_filter_over_every_region() {
        // xorshift: the region sets and queries repeat exactly.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut below = |n: u32| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % u64::from(n)) as u32
        };
        for regions in [0u32, 1, 2, 7, 40] {
            let (_p, mut mm) = mm();
            let mut at = 0x4000_0000 + below(4) * PAGE_SIZE;
            for _ in 0..regions {
                let pages = 1 + below(6);
                mm.insert_vma(anon(at, pages)).unwrap();
                // Abutting regions and gaps both occur.
                at += (pages + below(4)) * PAGE_SIZE;
            }
            let top = at + 8 * PAGE_SIZE;
            for _ in 0..400 {
                // Unaligned bounds, so queries start and end inside
                // regions; empty and inverted ranges included.
                let a = 0x3FFF_C000 + below(top - 0x3FFF_C000);
                let b = 0x3FFF_C000 + below(top - 0x3FFF_C000);
                let query = match below(4) {
                    0 => VaRange {
                        start: VirtAddr::new(a),
                        end: VirtAddr::new(b),
                    },
                    1 => VaRange::new(VirtAddr::new(a), VirtAddr::new(a)),
                    _ => VaRange::new(VirtAddr::new(a.min(b)), VirtAddr::new(a.max(b))),
                };
                let scanned: Vec<u32> = mm
                    .vmas()
                    .filter(|v| v.range.overlaps(&query))
                    .map(|v| v.range.start.raw())
                    .collect();
                let queried: Vec<u32> = mm
                    .vmas_overlapping(query)
                    .map(|v| v.range.start.raw())
                    .collect();
                assert_eq!(queried, scanned, "{regions} regions, {query:?}");
            }
        }
    }

    #[test]
    fn zygote_like_flagging() {
        let (_p, mut mm) = mm();
        assert!(!mm.is_zygote_like());
        mm.is_zygote_child = true;
        assert!(mm.is_zygote_like());
    }
}
