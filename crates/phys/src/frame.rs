//! The frame allocator and page cache.

use std::collections::{HashMap, HashSet, VecDeque};

use sat_types::{Pfn, Pid, SatError, SatResult, VirtAddr, MAX_FRAMES};

use crate::file::FileId;
use crate::page::PageInfo;

/// End-of-list marker in [`FrameKind::Free`] links. No frame can have
/// this PFN: a pool of `u32::MAX` frames ends at `u32::MAX - 1`.
const NIL: u32 = u32::MAX;

/// One reverse-map entry: the owner of a PTE and the va it maps.
type RmapKey = (Pid, VirtAddr);

/// One frame's reverse-map entries, in `(owner, va)` order. A key filed
/// twice (two sharing groups' tables mapping the frame at one va, both
/// under [`Pid::SHARED_TABLE`]) is stored twice, next to its twin, so
/// the multiset needs no count.
#[derive(Debug, Default)]
enum RmapSlot {
    /// No PTE maps the frame.
    #[default]
    Empty,
    /// One PTE maps it — most frames — held inline.
    One(RmapKey),
    /// Two or more, sorted. Boxed so a slot stays 16 bytes: a deque's
    /// own header is 32. Spilling costs two host allocations (box and
    /// buffer) where the nested `BTreeMap` this replaced paid one leaf
    /// for a frame's first entry; first entries far outnumber spills,
    /// so every benchmark workload makes fewer host allocations
    /// (DESIGN.md §14).
    #[allow(clippy::box_collection)]
    Many(Box<VecDeque<RmapKey>>),
}

const _: () = assert!(std::mem::size_of::<RmapSlot>() == 16);

impl RmapSlot {
    fn len(&self) -> usize {
        match self {
            RmapSlot::Empty => 0,
            RmapSlot::One(_) => 1,
            RmapSlot::Many(keys) => keys.len(),
        }
    }

    fn iter(&self) -> impl Iterator<Item = RmapKey> + '_ {
        let (one, many) = match self {
            RmapSlot::Empty => (None, None),
            RmapSlot::One(key) => (Some(*key), None),
            RmapSlot::Many(keys) => (None, Some(keys.iter().copied())),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }
}

/// The index of the first of the sorted `keys` not less than `key` —
/// `keys.partition_point(|k| k < key)` — found from whichever end is
/// nearer: probes step outward from both ends at once (offsets 0, 1,
/// 3, 7, … from the front, 1, 2, 4, 8, … from the back) until one
/// brackets the answer, then a binary search runs inside the bracket.
/// O(log d) for an answer d from the nearer end, so a fork appending
/// the newest pid and an exit taking the oldest touch a line or two of
/// a long deque, where a plain binary search would miss all the way
/// down. Measured against `partition_point` in its place: `fleet_churn`
/// `host_s`, seed 41, ten alternating pairs at `--seconds 10` on a
/// 2-core KVM guest, median 0.142 s here against 0.169 s (+19%) with
/// `partition_point`, which lost 9 of 10 pairs; the spread between
/// quartiles of this side's runs was 0.007 s.
fn nearer_end_bound<T: Ord>(keys: &VecDeque<T>, key: &T) -> usize {
    let n = keys.len();
    // The answer lies in `lo..=hi`.
    let (mut lo, mut hi) = (0, n);
    let mut step = 1;
    loop {
        let front = step - 1;
        if front >= hi {
            break;
        }
        if keys[front] >= *key {
            hi = front;
            break;
        }
        lo = front + 1;
        // `front < hi <= n`, so `step <= n`.
        let back = n - step;
        if back < lo {
            break;
        }
        if keys[back] < *key {
            lo = back + 1;
            break;
        }
        hi = back;
        step *= 2;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if keys[mid] < *key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// What a physical frame currently holds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameKind {
    /// Unallocated. The allocator's LIFO free list is threaded through
    /// the free frames' own metadata (the `struct page.lru` idiom), so
    /// it costs no memory beyond the frame table.
    Free {
        /// Raw PFN of the frame freed after this one (`u32::MAX` at
        /// the head — the next frame [`PhysMem::alloc`] hands out).
        prev: u32,
        /// Raw PFN of the frame freed before this one (`u32::MAX` at
        /// the tail).
        next: u32,
    },
    /// Anonymous memory (heap, stack, COW copies).
    Anon,
    /// A page-cache page backing `file` at 4KB page index `index`.
    File {
        /// Backing file.
        file: FileId,
        /// 4KB page index within the file.
        index: u32,
    },
    /// A page-table page (a pair of second-level tables plus their
    /// Linux shadow tables).
    PageTable,
    /// A first-level (root) translation table. The real structure
    /// occupies four contiguous frames; the simulator models it as a
    /// single logical frame.
    RootTable,
    /// Kernel text/data; only used to give kernel-space mappings a
    /// physical identity for the cache model.
    Kernel,
}

/// Allocation and usage statistics for physical memory.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct PhysMemStats {
    /// Total frames ever allocated.
    pub total_allocs: u64,
    /// Total frames ever freed.
    pub total_frees: u64,
    /// Frames currently allocated.
    pub in_use: u64,
    /// Maximum of `in_use` over the lifetime of the allocator.
    pub high_water: u64,
    /// Page-cache hits in [`PhysMem::file_page`].
    pub page_cache_hits: u64,
    /// Page-cache misses (simulated disk reads).
    pub page_cache_misses: u64,
    /// Minimum of the free-frame count (budget-relative when a frame
    /// budget is installed) over the lifetime of the allocator — the
    /// low-water complement of `high_water`, so pressure runs can
    /// assert the watermark floor was actually reached.
    pub free_low_water: u64,
    /// File page-cache frames evicted by reclaim.
    pub evictions: u64,
    /// Page-cache misses that re-read a previously evicted page.
    pub refaults: u64,
    /// Allocations that crossed the low watermark while a budget was
    /// installed.
    pub low_watermark_hits: u64,
}

/// Reclaim watermarks derived from the installed frame budget,
/// mirroring the kernel's per-zone `low`/`high` pair: reclaim kicks in
/// when budget-relative free frames drop below `low` and aims to
/// restore `high`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Watermarks {
    /// Reclaim trigger: free frames below this means pressure.
    pub low: u64,
    /// Reclaim target: eviction stops once this many frames are free.
    pub high: u64,
}

impl Watermarks {
    /// Derives watermarks from a frame budget: `low` is 1/16th of the
    /// budget and `high` 1/8th, each clamped to a small floor so tiny
    /// budgets still leave reclaim headroom.
    pub fn for_budget(budget: u64) -> Self {
        Watermarks {
            low: (budget / 16).max(8),
            high: (budget / 8).max(16),
        }
    }
}

/// The physical memory of the simulated machine.
///
/// Owns the per-frame metadata table (the `struct page` array), a
/// free-list allocator, and the page cache.
///
/// Allocation order is part of the simulated machine — PFNs become
/// cache-model physical tags — and is fixed: [`PhysMem::alloc`] hands
/// out the most recently freed frame (a fresh pool ascends from PFN
/// 0), and [`PhysMem::alloc_run`] takes the lowest-addressed free run
/// without reordering any other free frame.
#[derive(Debug)]
pub struct PhysMem {
    pages: Vec<PageInfo>,
    /// Head of the free list threaded through [`FrameKind::Free`]
    /// (`NIL` when no frame is free).
    free_head: u32,
    /// One bit per frame, set while the frame is free: the index
    /// [`PhysMem::alloc_run`] scans for a contiguous run. Derived from
    /// `pages` — never consulted to decide whether a frame is free.
    free_bits: Vec<u64>,
    page_cache: HashMap<(FileId, u32), Pfn>,
    stats: PhysMemStats,
    /// Optional soft frame budget. Allocation never hard-fails on the
    /// budget (the backing pool is the real limit); crossing the low
    /// watermark instead flags pressure so the kernel can reclaim.
    budget: Option<u64>,
    watermarks: Watermarks,
    /// Clock-LRU candidate list over file page-cache frames, in
    /// first-faulted order. Entries go stale when a frame is freed or
    /// evicted; the sweep drops them lazily.
    clock: Vec<Pfn>,
    clock_hand: usize,
    /// File pages evicted by reclaim and not yet refaulted, for the
    /// conservation invariant `evictions == refaults + evicted.len()`.
    evicted: HashSet<(FileId, u32)>,
    /// Reverse map, indexed by raw PFN: one `(owner, va)` entry per
    /// physical PTE mapping the frame, so eviction tears each by one
    /// lookup. The owner is exact: [`Pid::SHARED_TABLE`] iff the PTE
    /// hangs from a level-1 pair carrying `NEED_COPY` (the table serves
    /// every sharer), else the pid whose root points at the table. A
    /// pid key is therefore filed once; only shared-table keys repeat
    /// (two disjoint sharing groups mapping the same file page at the
    /// same va). A slot holds one entry inline and spills to a sorted
    /// deque, so reclaim reads entries in `(owner, va)` order. The
    /// vector reaches only the highest frame that has ever held an
    /// entry: sized to the pool it would cost 16 bytes a frame up
    /// front.
    rmap: Vec<RmapSlot>,
}

impl PhysMem {
    /// Creates a physical memory of `frames` 4KB frames.
    ///
    /// # Panics
    ///
    /// Panics if `frames` exceeds [`MAX_FRAMES`]: a frame past it has
    /// no 32-bit physical address, and the page-table words keep
    /// exactly the frame numbers below it.
    pub fn new(frames: u32) -> Self {
        assert!(
            frames <= MAX_FRAMES,
            "{frames} frames exceed the {MAX_FRAMES} a 32-bit physical address reaches"
        );
        // Allocate low frames first: link the free list in ascending
        // PFN order, which makes tests and traces deterministic and
        // readable.
        let link = |f: u32| if f < frames { f } else { NIL };
        let words = frames.div_ceil(64) as usize;
        let mut free_bits = vec![u64::MAX; words];
        if let Some(last) = free_bits.last_mut() {
            // Bits past the last frame stay clear, so no run reaches
            // into them.
            *last >>= words as u64 * 64 - u64::from(frames);
        }
        PhysMem {
            pages: (0..frames)
                .map(|f| PageInfo::free(link(f.wrapping_sub(1)), link(f + 1)))
                .collect(),
            free_head: link(0),
            free_bits,
            page_cache: HashMap::new(),
            stats: PhysMemStats {
                free_low_water: frames as u64,
                ..PhysMemStats::default()
            },
            budget: None,
            watermarks: Watermarks::for_budget(frames as u64),
            clock: Vec::new(),
            clock_hand: 0,
            evicted: HashSet::new(),
            rmap: Vec::new(),
        }
    }

    /// Creates a physical memory sized like the Nexus 7 (2012): 1GB.
    pub fn nexus7() -> Self {
        PhysMem::new((1u32 << 30) >> sat_types::PAGE_SHIFT)
    }

    /// Total number of frames.
    pub fn frame_count(&self) -> usize {
        self.pages.len()
    }

    /// Returns the allocator statistics.
    pub fn stats(&self) -> PhysMemStats {
        self.stats
    }

    /// The free-list links `(prev, next)` of free frame `f`, or `None`
    /// when `f` is `NIL` — which, like any PFN past the pool, indexes
    /// no frame.
    fn links_mut(&mut self, f: u32) -> Option<(&mut u32, &mut u32)> {
        match &mut self.pages.get_mut(f as usize)?.kind {
            FrameKind::Free { prev, next } => Some((prev, next)),
            kind => unreachable!("free list reaches allocated frame {f:#x} ({kind:?})"),
        }
    }

    /// Unlinks free frame `f` from wherever it sits on the free list
    /// and hands it out as a `kind` frame with `refcount == 1`.
    // Forced into `alloc`, which every workload's page faults go
    // through: left out of line, the call costs it ~0.8 ns of ~5.
    #[inline(always)]
    fn take(&mut self, f: u32, kind: FrameKind) {
        let (&mut prev, &mut next) = self.links_mut(f).expect("a frame to take");
        self.pages[f as usize] = PageInfo::new(kind);
        match self.links_mut(prev) {
            Some((_, after)) => *after = next,
            None => self.free_head = next,
        }
        if let Some((before, _)) = self.links_mut(next) {
            *before = prev;
        }
        self.free_bits[f as usize / 64] &= !(1 << (f % 64));
    }

    /// Accounts for `n` frames just handed out.
    fn note_alloc(&mut self, n: u32) {
        self.stats.total_allocs += u64::from(n);
        self.stats.in_use += u64::from(n);
        self.stats.high_water = self.stats.high_water.max(self.stats.in_use);
        let free = self.budget_free();
        self.stats.free_low_water = self.stats.free_low_water.min(free);
        if self.budget.is_some() && free < self.watermarks.low {
            self.stats.low_watermark_hits += 1;
        }
    }

    /// Allocates a frame of the given kind with `refcount == 1`: the
    /// most recently freed one.
    pub fn alloc(&mut self, kind: FrameKind) -> SatResult<Pfn> {
        if matches!(kind, FrameKind::Free { .. }) {
            return Err(SatError::InvalidArgument);
        }
        let f = self.free_head;
        if f == NIL {
            return Err(SatError::OutOfMemory);
        }
        self.take(f, kind);
        self.note_alloc(1);
        Ok(Pfn::new(f))
    }

    /// Base of the lowest-addressed run of `n` set bits in
    /// `free_bits`. A word that is all free or all allocated costs one
    /// step; only words holding a boundary are walked run by run.
    fn find_free_run(&self, n: u32) -> Option<u32> {
        let (mut start, mut len) = (0u32, 0u32);
        for (w, &word) in self.free_bits.iter().enumerate() {
            let mut pos = 0u32;
            while pos < 64 {
                // The zeros shifted in at the top never read as free.
                let rest = word >> pos;
                let ones = rest.trailing_ones();
                if ones == 0 {
                    // An allocated frame ends the run; skip to the
                    // next free one in this word, if any.
                    len = 0;
                    pos += rest.trailing_zeros();
                    continue;
                }
                if len == 0 {
                    start = w as u32 * 64 + pos;
                }
                len += ones;
                if len >= n {
                    return Some(start);
                }
                pos += ones;
            }
        }
        None
    }

    /// Allocates `n` physically contiguous frames of the given kind
    /// (each with `refcount == 1`) and returns the base PFN — the
    /// backing store for large pages and sections, whose replicated
    /// descriptors assume `base + i` really is the frame for page `i`.
    ///
    /// Picks the lowest-addressed free run, so allocation stays
    /// deterministic, and fails with [`SatError::OutOfMemory`] when
    /// free memory is too fragmented to hold the run — exactly the
    /// external-fragmentation failure real large-page allocation hits.
    pub fn alloc_run(&mut self, kind: FrameKind, n: u32) -> SatResult<Pfn> {
        if n == 0 || matches!(kind, FrameKind::Free { .. }) {
            return Err(SatError::InvalidArgument);
        }
        if n == 1 {
            return self.alloc(kind);
        }
        if u64::from(n) > self.pages.len() as u64 - self.stats.in_use {
            return Err(SatError::OutOfMemory);
        }
        let base = self.find_free_run(n).ok_or(SatError::OutOfMemory)?;
        for f in base..base + n {
            self.take(f, kind);
        }
        self.note_alloc(n);
        Ok(Pfn::new(base))
    }

    /// Returns the metadata for `pfn`.
    ///
    /// # Panics
    ///
    /// Panics if `pfn` is out of range.
    pub fn page(&self, pfn: Pfn) -> &PageInfo {
        &self.pages[pfn.raw() as usize]
    }

    /// Returns mutable metadata for `pfn`.
    ///
    /// # Panics
    ///
    /// Panics if `pfn` is out of range.
    pub fn page_mut(&mut self, pfn: Pfn) -> &mut PageInfo {
        &mut self.pages[pfn.raw() as usize]
    }

    /// Increments the frame's reference count.
    pub fn get_page(&mut self, pfn: Pfn) {
        let p = self.page_mut(pfn);
        debug_assert!(!p.is_free(), "get_page on free frame {pfn:?}");
        p.refcount += 1;
    }

    /// Decrements the frame's reference count, freeing the frame when
    /// it reaches zero. Returns `true` if the frame was freed. A frame
    /// that holds no reference (it is already free) is left alone:
    /// linking it a second time would corrupt the free list.
    pub fn put_page(&mut self, pfn: Pfn) -> bool {
        let idx = pfn.raw() as usize;
        let p = &mut self.pages[idx];
        if p.is_free() || p.refcount == 0 {
            debug_assert!(false, "put_page on unreferenced frame {pfn:?}");
            return false;
        }
        p.refcount -= 1;
        if p.refcount > 0 {
            return false;
        }
        if let FrameKind::File { file, index } = p.kind {
            self.page_cache.remove(&(file, index));
        }
        let head = self.free_head;
        self.pages[idx] = PageInfo::free(NIL, head);
        if let Some((before, _)) = self.links_mut(head) {
            *before = pfn.raw();
        }
        self.free_head = pfn.raw();
        self.free_bits[idx / 64] |= 1 << (idx % 64);
        self.stats.total_frees += 1;
        self.stats.in_use -= 1;
        true
    }

    /// Increments the frame's mapcount (a new PTE maps it, or a new
    /// process shares the PTP).
    pub fn map_inc(&mut self, pfn: Pfn) {
        self.page_mut(pfn).mapcount += 1;
    }

    /// Decrements the frame's mapcount and returns the new value.
    pub fn map_dec(&mut self, pfn: Pfn) -> u32 {
        let p = self.page_mut(pfn);
        debug_assert!(p.mapcount > 0, "map_dec on unmapped frame {pfn:?}");
        p.mapcount -= 1;
        p.mapcount
    }

    /// Returns the frame's mapcount.
    pub fn mapcount(&self, pfn: Pfn) -> u32 {
        self.page(pfn).mapcount
    }

    /// Looks up a file page in the page cache without faulting it in.
    pub fn page_cache_lookup(&self, file: FileId, index: u32) -> Option<Pfn> {
        self.page_cache.get(&(file, index)).copied()
    }

    /// Returns the frame backing `file` page `index`, reading it from
    /// "disk" (allocating a frame) if it is not yet cached.
    ///
    /// The returned flag is `true` on a page-cache hit — the
    /// distinction between a *soft* (minor) and *hard* (major) page
    /// fault. The caller must take its own reference with
    /// [`PhysMem::get_page`] if it maps the page.
    pub fn file_page(&mut self, file: FileId, index: u32) -> SatResult<(Pfn, bool)> {
        if let Some(pfn) = self.page_cache_lookup(file, index) {
            self.stats.page_cache_hits += 1;
            // Feed the clock's access bit from the lookup path.
            self.pages[pfn.raw() as usize].referenced = true;
            return Ok((pfn, true));
        }
        let pfn = self.alloc(FrameKind::File { file, index })?;
        self.page_cache.insert((file, index), pfn);
        self.stats.page_cache_misses += 1;
        self.pages[pfn.raw() as usize].referenced = true;
        self.clock.push(pfn);
        if self.evicted.remove(&(file, index)) {
            self.stats.refaults += 1;
        }
        Ok((pfn, false))
    }

    /// Number of pages currently in the page cache.
    pub fn page_cache_len(&self) -> usize {
        self.page_cache.len()
    }

    /// Frames currently allocated.
    pub fn frames_in_use(&self) -> u64 {
        self.stats.in_use
    }

    /// Installs (or removes) a soft physical-frame budget and derives
    /// the reclaim watermarks from it. Allocation never hard-fails on
    /// the budget; it only drives watermark pressure.
    pub fn set_budget(&mut self, frames: Option<u64>) {
        self.budget = frames;
        if let Some(b) = frames {
            self.watermarks = Watermarks::for_budget(b);
            self.stats.free_low_water = self.budget_free();
        }
    }

    /// The installed frame budget, if any.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// The current reclaim watermarks (meaningful when a budget is
    /// installed).
    pub fn watermarks(&self) -> Watermarks {
        self.watermarks
    }

    /// Free frames relative to the budget (or to the physical pool
    /// when no budget is installed).
    pub fn budget_free(&self) -> u64 {
        match self.budget {
            Some(b) => b.saturating_sub(self.stats.in_use),
            None => self.pages.len() as u64 - self.stats.in_use,
        }
    }

    /// Returns `true` when a budget is installed and budget-relative
    /// free frames have dropped below the low watermark.
    pub fn below_low_watermark(&self) -> bool {
        self.budget.is_some() && self.budget_free() < self.watermarks.low
    }

    /// How many frames reclaim should evict to restore the high
    /// watermark; zero when there is no pressure.
    pub fn reclaim_target(&self) -> u64 {
        if self.below_low_watermark() {
            self.watermarks.high.saturating_sub(self.budget_free())
        } else {
            0
        }
    }

    /// Advances the clock hand to the next eviction candidate: a live,
    /// unreferenced file page-cache frame. Referenced frames get their
    /// access bit cleared (a second chance) and are skipped; stale
    /// entries are dropped. Returns `None` once two full sweeps find
    /// nothing evictable.
    pub fn clock_next_victim(&mut self) -> Option<Pfn> {
        let mut scanned = 0;
        let budget = 2 * self.clock.len();
        while scanned <= budget && !self.clock.is_empty() {
            if self.clock_hand >= self.clock.len() {
                self.clock_hand = 0;
            }
            let pfn = self.clock[self.clock_hand];
            let live = matches!(
                self.pages[pfn.raw() as usize].kind,
                FrameKind::File { file, index } if self.page_cache.get(&(file, index)) == Some(&pfn)
            );
            if !live {
                self.clock.swap_remove(self.clock_hand);
                continue;
            }
            scanned += 1;
            let page = &mut self.pages[pfn.raw() as usize];
            if page.referenced {
                page.referenced = false;
                self.clock_hand += 1;
                continue;
            }
            self.clock_hand += 1;
            return Some(pfn);
        }
        None
    }

    /// Evicts a file page-cache frame whose PTEs have all been torn
    /// (mapcount zero), recording it for refault accounting. Returns
    /// `true` if the frame was freed.
    pub fn evict_file_frame(&mut self, pfn: Pfn) -> bool {
        let p = self.page(pfn);
        debug_assert_eq!(p.mapcount, 0, "evicting frame {pfn:?} with live PTEs");
        let FrameKind::File { file, index } = p.kind else {
            debug_assert!(false, "evict_file_frame on non-file frame {pfn:?}");
            return false;
        };
        debug_assert_eq!(
            p.refcount, 1,
            "evicting frame {pfn:?} with references beyond the page cache"
        );
        self.evicted.insert((file, index));
        self.stats.evictions += 1;
        self.put_page(pfn)
    }

    /// File pages evicted and not yet refaulted. Together with the
    /// stats this pins the conservation invariant
    /// `evictions == refaults + still_evicted()`.
    pub fn still_evicted(&self) -> usize {
        self.evicted.len()
    }

    /// Files one physical PTE mapping `pfn` at `va` under `owner`: the
    /// pid whose private table holds it, or [`Pid::SHARED_TABLE`] for
    /// a PTE in a shared PTP (filed again when two disjoint sharing
    /// groups map the same page at the same va).
    pub fn rmap_add(&mut self, pfn: Pfn, owner: Pid, va: VirtAddr) {
        let idx = pfn.raw() as usize;
        if idx >= self.rmap.len() {
            self.rmap.resize_with(idx + 1, RmapSlot::default);
        }
        let key = (owner, va);
        let slot = &mut self.rmap[idx];
        match slot {
            RmapSlot::Empty => *slot = RmapSlot::One(key),
            RmapSlot::One(first) => {
                let pair = [key.min(*first), key.max(*first)];
                *slot = RmapSlot::Many(Box::new(VecDeque::from(pair)));
            }
            RmapSlot::Many(keys) => keys.insert(nearer_end_bound(keys, &key), key),
        }
    }

    /// Removes the entry of one torn PTE: exactly the `(owner, va)`
    /// key it was filed under. The owner is kept true by whoever flips
    /// `NEED_COPY` on a live table ([`PhysMem::rmap_reown`]), so a
    /// missing key is a bug in the caller.
    pub fn rmap_remove(&mut self, pfn: Pfn, owner: Pid, va: VirtAddr) {
        let key = (owner, va);
        if let Some(slot) = self.rmap.get_mut(pfn.raw() as usize) {
            match slot {
                RmapSlot::One(only) if *only == key => {
                    *slot = RmapSlot::Empty;
                    return;
                }
                RmapSlot::Many(keys) => {
                    let at = nearer_end_bound(keys, &key);
                    if keys.get(at) == Some(&key) {
                        keys.remove(at);
                        if keys.len() == 1 {
                            *slot = RmapSlot::One(keys[0]);
                        }
                        return;
                    }
                }
                _ => {}
            }
        }
        debug_assert!(false, "no rmap entry for {pfn:?} at {va:?} under {owner:?}");
    }

    /// Moves one entry at `va` from owner `from` to owner `to` — the
    /// call of the two transitions that flip `NEED_COPY` on a live
    /// table: the first share (its pid → [`Pid::SHARED_TABLE`]) and
    /// the last sharer's unshare (back to that sharer's pid).
    pub fn rmap_reown(&mut self, pfn: Pfn, from: Pid, to: Pid, va: VirtAddr) {
        self.rmap_remove(pfn, from, va);
        self.rmap_add(pfn, to, va);
    }

    /// Returns the recorded PTE mappings for `pfn` with multiplicity,
    /// in `(owner, va)` order.
    pub fn rmap_entries(&self, pfn: Pfn) -> Vec<(Pid, VirtAddr)> {
        self.rmap
            .get(pfn.raw() as usize)
            .map(|s| s.iter().collect())
            .unwrap_or_default()
    }

    /// Number of rmap entries (with multiplicity) recorded for `pfn`.
    pub fn rmap_len(&self, pfn: Pfn) -> usize {
        self.rmap.get(pfn.raw() as usize).map_or(0, RmapSlot::len)
    }

    /// Total rmap entries (with multiplicity) across all frames.
    pub fn rmap_total(&self) -> usize {
        self.rmap.iter().map(RmapSlot::len).sum()
    }

    /// Returns `true` if the rmap records no mappings at all.
    pub fn rmap_is_empty(&self) -> bool {
        self.rmap.iter().all(|s| matches!(s, RmapSlot::Empty))
    }

    /// Checks "frames in = frames out": walking the free list from its
    /// head visits every free frame exactly once through consistent
    /// links, `free_bits` marks exactly the free frames, and together
    /// with `stats.in_use` they account for the whole pool.
    fn free_list_verify(&self) -> Result<(), String> {
        let mut free = 0u64;
        for (raw, p) in self.pages.iter().enumerate() {
            let bit = self.free_bits[raw / 64] >> (raw % 64) & 1 == 1;
            if bit != p.is_free() {
                return Err(format!(
                    "frame {:?}: free bit {bit} on a {:?} frame",
                    Pfn::new(raw as u32),
                    p.kind
                ));
            }
            free += u64::from(bit);
        }
        let set_bits: u64 = self
            .free_bits
            .iter()
            .map(|w| u64::from(w.count_ones()))
            .sum();
        if set_bits != free {
            return Err(format!(
                "free bitmap has {} bits set past the last frame",
                set_bits - free
            ));
        }
        if free + self.stats.in_use != self.pages.len() as u64 {
            return Err(format!(
                "{free} free + {} in use != {} frames",
                self.stats.in_use,
                self.pages.len()
            ));
        }
        // Every link is checked against the frame the walk came from,
        // so the walk cannot revisit a frame without tripping here.
        let (mut before, mut at, mut walked) = (NIL, self.free_head, 0u64);
        while at != NIL {
            match self.pages.get(at as usize).map(|p| p.kind) {
                Some(FrameKind::Free { prev, next }) if prev == before => {
                    (before, at) = (at, next);
                    walked += 1;
                }
                got => {
                    return Err(format!(
                        "free list: frame {:?} reached from {before:#x} holds {got:?}",
                        Pfn::new(at)
                    ));
                }
            }
        }
        if walked != free {
            return Err(format!(
                "free list links {walked} frames but {free} are free"
            ));
        }
        Ok(())
    }

    /// Checks that every rmap entry count reconciles exactly with the
    /// frame's live PTE count (`mapcount`), that no freed frame
    /// retains entries, and that the free list and its bitmap index
    /// hold exactly the frames not in use. Returns a description of
    /// the first mismatch.
    pub fn rmap_verify(&self) -> Result<(), String> {
        self.free_list_verify()?;
        for (raw, slot) in self.rmap.iter().enumerate() {
            let entries = slot.len();
            if entries == 0 {
                continue;
            }
            let pfn = Pfn::new(raw as u32);
            let p = self.page(pfn);
            if p.is_free() {
                return Err(format!(
                    "rmap holds {entries} entries for free frame {pfn:?}"
                ));
            }
            if p.mapcount as usize != entries {
                return Err(format!(
                    "frame {pfn:?}: mapcount {} != rmap entries {entries}",
                    p.mapcount
                ));
            }
        }
        for (raw, p) in self.pages.iter().enumerate() {
            let pfn = Pfn::new(raw as u32);
            if matches!(p.kind, FrameKind::Anon | FrameKind::File { .. })
                && p.mapcount > 0
                && self.rmap_len(pfn) == 0
            {
                return Err(format!(
                    "frame {pfn:?}: mapcount {} but no rmap entries",
                    p.mapcount
                ));
            }
        }
        Ok(())
    }

    /// Publishes allocator occupancy gauges to the installed obs sink.
    pub fn publish_gauges(&self) {
        let total = self.pages.len() as u64;
        sat_obs::gauge_set("phys.frames.in_use", self.stats.in_use);
        sat_obs::gauge_set("phys.frames.free", total - self.stats.in_use);
        sat_obs::gauge_set("phys.page_cache.pages", self.page_cache.len() as u64);
        // Pressure gauges only exist when a frame budget is installed,
        // keeping budget-less runs byte-identical to earlier versions.
        if self.budget.is_some() {
            sat_obs::gauge_set("phys.frames.budget_free", self.budget_free());
            sat_obs::gauge_set("phys.frames.free_low", self.stats.free_low_water);
            sat_obs::gauge_set("phys.frames.reclaimed", self.stats.evictions);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_round_trip() {
        let mut pm = PhysMem::new(4);
        let a = pm.alloc(FrameKind::Anon).unwrap();
        let b = pm.alloc(FrameKind::Anon).unwrap();
        assert_ne!(a, b);
        assert_eq!(pm.frames_in_use(), 2);
        assert!(pm.put_page(a));
        assert_eq!(pm.frames_in_use(), 1);
        assert!(pm.put_page(b));
        assert_eq!(pm.frames_in_use(), 0);
        assert_eq!(pm.stats().total_allocs, 2);
        assert_eq!(pm.stats().total_frees, 2);
    }

    /// Holds in release builds too: the page-table words drop frame
    /// bits past `MAX_FRAMES` without a check of their own.
    #[test]
    #[should_panic(expected = "frames exceed")]
    fn a_pool_past_the_32_bit_physical_space_is_refused() {
        PhysMem::new(MAX_FRAMES + 1);
    }

    #[test]
    fn a_pool_of_exactly_the_32_bit_physical_space_is_accepted() {
        let pm = PhysMem::new(MAX_FRAMES);
        assert_eq!(pm.frame_count(), 1 << 20);
    }

    #[test]
    fn exhaustion_returns_enomem() {
        let mut pm = PhysMem::new(1);
        pm.alloc(FrameKind::Anon).unwrap();
        assert_eq!(
            pm.alloc(FrameKind::Anon).unwrap_err(),
            SatError::OutOfMemory
        );
    }

    #[test]
    fn refcount_keeps_frame_alive() {
        let mut pm = PhysMem::new(2);
        let a = pm.alloc(FrameKind::Anon).unwrap();
        pm.get_page(a);
        assert!(!pm.put_page(a));
        assert_eq!(pm.frames_in_use(), 1);
        assert!(pm.put_page(a));
        assert_eq!(pm.frames_in_use(), 0);
    }

    #[test]
    fn page_cache_deduplicates_file_pages() {
        let mut pm = PhysMem::new(8);
        let f = FileId(0);
        let (p1, hit1) = pm.file_page(f, 3).unwrap();
        let (p2, hit2) = pm.file_page(f, 3).unwrap();
        assert_eq!(p1, p2);
        assert!(!hit1);
        assert!(hit2);
        assert_eq!(pm.stats().page_cache_hits, 1);
        assert_eq!(pm.stats().page_cache_misses, 1);
        // A different page of the same file gets its own frame.
        let (p3, _) = pm.file_page(f, 4).unwrap();
        assert_ne!(p1, p3);
    }

    #[test]
    fn freeing_file_page_evicts_cache_entry() {
        let mut pm = PhysMem::new(2);
        let f = FileId(0);
        let (p, _) = pm.file_page(f, 0).unwrap();
        assert!(pm.put_page(p));
        assert_eq!(pm.page_cache_lookup(f, 0), None);
        // Re-reading allocates anew (a fresh disk read).
        let (_, hit) = pm.file_page(f, 0).unwrap();
        assert!(!hit);
    }

    #[test]
    fn mapcount_tracks_sharers() {
        let mut pm = PhysMem::new(2);
        let ptp = pm.alloc(FrameKind::PageTable).unwrap();
        pm.map_inc(ptp);
        pm.map_inc(ptp);
        assert_eq!(pm.mapcount(ptp), 2);
        assert_eq!(pm.map_dec(ptp), 1);
        assert_eq!(pm.map_dec(ptp), 0);
    }

    #[test]
    fn alloc_run_picks_lowest_contiguous_run() {
        let mut pm = PhysMem::new(16);
        // Fragment the low frames: hold 0, free 1, hold 2.
        let f0 = pm.alloc(FrameKind::Anon).unwrap();
        let f1 = pm.alloc(FrameKind::Anon).unwrap();
        let f2 = pm.alloc(FrameKind::Anon).unwrap();
        assert_eq!((f0.raw(), f1.raw(), f2.raw()), (0, 1, 2));
        pm.put_page(f1);
        // Frames 3..16 are the lowest run of 4; frame 1 alone is not.
        let base = pm.alloc_run(FrameKind::Anon, 4).unwrap();
        assert_eq!(base.raw(), 3);
        for i in 0..4 {
            let p = pm.page(Pfn::new(3 + i));
            assert_eq!(p.kind, FrameKind::Anon);
            assert_eq!(p.refcount, 1);
        }
        // Frame 1 is still free and still allocatable singly.
        assert_eq!(pm.alloc(FrameKind::Anon).unwrap().raw(), 1);
    }

    #[test]
    fn alloc_run_fails_when_fragmented() {
        let mut pm = PhysMem::new(8);
        let held: Vec<Pfn> = (0..8).map(|_| pm.alloc(FrameKind::Anon).unwrap()).collect();
        // Free every other frame: 4 frames free, no two adjacent.
        for p in held.iter().step_by(2) {
            pm.put_page(*p);
        }
        assert_eq!(pm.frames_in_use(), 4);
        assert_eq!(pm.alloc_run(FrameKind::Anon, 2), Err(SatError::OutOfMemory));
        // The failure must not have consumed anything.
        assert_eq!(pm.frames_in_use(), 4);
        // Single frames still come out of the fragmented pool.
        assert!(pm.alloc_run(FrameKind::Anon, 1).is_ok());
    }

    #[test]
    fn alloc_run_finds_runs_across_bitmap_words() {
        // 200 frames: three full bitmap words and a partial fourth.
        let mut pm = PhysMem::new(200);
        let held: Vec<Pfn> = (0..200)
            .map(|_| pm.alloc(FrameKind::Anon).unwrap())
            .collect();
        // Free 60..=130 (spans words 0, 1 and 2) except frame 100, and
        // the pool's last eight frames.
        for p in held[60..=130].iter().chain(&held[192..]) {
            if p.raw() != 100 {
                pm.put_page(*p);
            }
        }
        pm.rmap_verify().unwrap();
        // 39 fit at 60..99; 40 then fit neither in 99 + 101..=130 nor
        // in the eight-frame tail, whose run stops at the pool's end.
        assert_eq!(pm.alloc_run(FrameKind::Anon, 39).unwrap().raw(), 60);
        assert_eq!(
            pm.alloc_run(FrameKind::Anon, 40),
            Err(SatError::OutOfMemory)
        );
        assert_eq!(pm.alloc_run(FrameKind::Anon, 30).unwrap().raw(), 101);
        assert_eq!(pm.alloc_run(FrameKind::Anon, 8).unwrap().raw(), 192);
        // Frame 99 was in no run and is still on the list.
        assert_eq!(pm.alloc(FrameKind::Anon).unwrap().raw(), 99);
        pm.rmap_verify().unwrap();
        assert_eq!(pm.frames_in_use(), 200);
    }

    #[test]
    fn alloc_run_rejects_empty_and_oversized_runs() {
        let mut pm = PhysMem::new(8);
        assert_eq!(
            pm.alloc_run(FrameKind::Anon, 0),
            Err(SatError::InvalidArgument)
        );
        pm.alloc(FrameKind::Anon).unwrap();
        // Seven frames are free: eight can never fit.
        assert_eq!(pm.alloc_run(FrameKind::Anon, 8), Err(SatError::OutOfMemory));
        assert_eq!(pm.stats().total_allocs, 1);
        assert_eq!(pm.alloc_run(FrameKind::Anon, 7).unwrap().raw(), 1);
        pm.rmap_verify().unwrap();
    }

    #[test]
    fn allocating_a_free_frame_kind_is_refused() {
        let mut pm = PhysMem::new(4);
        let free = FrameKind::Free { prev: 0, next: 1 };
        assert_eq!(pm.alloc(free), Err(SatError::InvalidArgument));
        assert_eq!(pm.alloc_run(free, 2), Err(SatError::InvalidArgument));
        assert_eq!(pm.frames_in_use(), 0);
        pm.rmap_verify().unwrap();
    }

    /// A second `put_page` is a caller bug — debug builds say so — but
    /// it must never link the frame into the free list twice.
    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "put_page on unreferenced frame")
    )]
    fn double_put_page_leaves_the_free_list_alone() {
        let mut pm = PhysMem::new(4);
        let a = pm.alloc(FrameKind::Anon).unwrap();
        let b = pm.alloc(FrameKind::Anon).unwrap();
        assert!(pm.put_page(a));
        let stats = pm.stats();
        assert!(!pm.put_page(a));
        assert_eq!(pm.stats(), stats);
        pm.rmap_verify().unwrap();
        assert_eq!(pm.alloc(FrameKind::Anon).unwrap(), a);
        assert_eq!(pm.alloc(FrameKind::Anon).unwrap().raw(), 2);
        pm.put_page(b);
    }

    #[test]
    fn audit_reports_a_corrupted_free_list_link() {
        let mut pm = PhysMem::new(8);
        pm.alloc(FrameKind::Anon).unwrap();
        pm.rmap_verify().unwrap();
        // Free frame 3 sits between 2 and 4; point it back at 5.
        pm.page_mut(Pfn::new(3)).kind = FrameKind::Free { prev: 5, next: 4 };
        let err = pm.rmap_verify().unwrap_err();
        assert!(err.contains("free list: frame Pfn(0x3)"), "{err}");
        // A link that skips a frame shortens the walk.
        pm.page_mut(Pfn::new(3)).kind = FrameKind::Free { prev: 2, next: 4 };
        pm.page_mut(Pfn::new(6)).kind = FrameKind::Free {
            prev: 5,
            next: u32::MAX,
        };
        let err = pm.rmap_verify().unwrap_err();
        assert!(err.contains("links 6 frames but 7 are free"), "{err}");
    }

    #[test]
    fn audit_reports_a_stray_free_bit() {
        let mut pm = PhysMem::new(70);
        let a = pm.alloc(FrameKind::Anon).unwrap();
        pm.free_bits[0] |= 1;
        let err = pm.rmap_verify().unwrap_err();
        assert!(err.contains("free bit true on a Anon frame"), "{err}");
        pm.free_bits[0] &= !1;
        pm.rmap_verify().unwrap();
        // Past the last frame (70 frames: bits 6.. of word 1).
        pm.free_bits[1] |= 1 << 6;
        let err = pm.rmap_verify().unwrap_err();
        assert!(err.contains("1 bits set past the last frame"), "{err}");
        pm.free_bits[1] &= !(1 << 6);
        // A missing bit on a free frame.
        pm.put_page(a);
        pm.free_bits[0] &= !1;
        let err = pm.rmap_verify().unwrap_err();
        assert!(err.contains("free bit false"), "{err}");
    }

    #[test]
    fn audit_reports_frames_lost_to_the_counters() {
        let mut pm = PhysMem::new(8);
        pm.alloc(FrameKind::Anon).unwrap();
        pm.stats.in_use += 1;
        let err = pm.rmap_verify().unwrap_err();
        assert!(err.contains("7 free + 2 in use != 8 frames"), "{err}");
    }

    #[test]
    fn high_water_tracks_peak_usage() {
        let mut pm = PhysMem::new(4);
        let a = pm.alloc(FrameKind::Anon).unwrap();
        let b = pm.alloc(FrameKind::Anon).unwrap();
        pm.put_page(a);
        pm.put_page(b);
        pm.alloc(FrameKind::Anon).unwrap();
        assert_eq!(pm.stats().high_water, 2);
    }

    #[test]
    fn free_low_water_tracks_floor() {
        let mut pm = PhysMem::new(8);
        assert_eq!(pm.stats().free_low_water, 8);
        let a = pm.alloc(FrameKind::Anon).unwrap();
        let b = pm.alloc(FrameKind::Anon).unwrap();
        let c = pm.alloc(FrameKind::Anon).unwrap();
        assert_eq!(pm.stats().free_low_water, 5);
        pm.put_page(a);
        pm.put_page(b);
        pm.put_page(c);
        // Freeing does not raise the floor back up.
        assert_eq!(pm.stats().free_low_water, 5);
    }

    #[test]
    fn budget_watermarks_flag_pressure() {
        let mut pm = PhysMem::new(1024);
        pm.set_budget(Some(160));
        let wm = pm.watermarks();
        assert_eq!(wm.low, 10);
        assert_eq!(wm.high, 20);
        assert!(!pm.below_low_watermark());
        assert_eq!(pm.reclaim_target(), 0);
        let mut held = Vec::new();
        while !pm.below_low_watermark() {
            held.push(pm.alloc(FrameKind::Anon).unwrap());
        }
        // Free dropped below low; the target restores high.
        assert!(pm.budget_free() < wm.low);
        assert_eq!(pm.reclaim_target(), wm.high - pm.budget_free());
        assert!(pm.stats().low_watermark_hits > 0);
        assert_eq!(pm.stats().free_low_water, pm.budget_free());
        // Allocation stays soft: the budget never hard-fails.
        held.push(pm.alloc(FrameKind::Anon).unwrap());
    }

    #[test]
    fn clock_gives_second_chances_then_evicts() {
        let mut pm = PhysMem::new(8);
        let f = FileId(0);
        let (a, _) = pm.file_page(f, 0).unwrap();
        let (b, _) = pm.file_page(f, 1).unwrap();
        // Both frames were referenced at fault time: the first sweep
        // ages them, the second finds `a` (hand order) evictable.
        assert_eq!(pm.clock_next_victim(), Some(a));
        // `b` is next; a fresh lookup re-references it first.
        pm.file_page(f, 1).unwrap();
        assert_eq!(pm.clock_next_victim(), Some(a));
        // With both referenced again and `a` evicted, only `b` remains.
        pm.evict_file_frame(a);
        assert_eq!(pm.clock_next_victim(), Some(b));
        pm.evict_file_frame(b);
        assert_eq!(pm.clock_next_victim(), None);
    }

    #[test]
    fn eviction_and_refault_conserve() {
        let mut pm = PhysMem::new(8);
        let f = FileId(3);
        let (p, _) = pm.file_page(f, 7).unwrap();
        assert!(pm.evict_file_frame(p));
        assert_eq!(pm.stats().evictions, 1);
        assert_eq!(pm.still_evicted(), 1);
        assert_eq!(pm.page_cache_lookup(f, 7), None);
        // Refault: a miss that re-reads an evicted page.
        let (_, hit) = pm.file_page(f, 7).unwrap();
        assert!(!hit);
        assert_eq!(pm.stats().refaults, 1);
        assert_eq!(pm.still_evicted(), 0);
        assert_eq!(
            pm.stats().evictions,
            pm.stats().refaults + pm.still_evicted() as u64
        );
    }

    #[test]
    fn rmap_reconciles_with_mapcount() {
        let mut pm = PhysMem::new(8);
        let f = FileId(0);
        let (p, _) = pm.file_page(f, 0).unwrap();
        let pid1 = Pid::new(1);
        let pid2 = Pid::new(2);
        let va1 = VirtAddr::new(0x4000_0000);
        let va2 = VirtAddr::new(0x5000_0000);
        pm.get_page(p);
        pm.map_inc(p);
        pm.rmap_add(p, pid1, va1);
        pm.get_page(p);
        pm.map_inc(p);
        pm.rmap_add(p, pid2, va2);
        assert_eq!(pm.rmap_len(p), 2);
        pm.rmap_verify().unwrap();
        pm.rmap_remove(p, pid1, va1);
        pm.map_dec(p);
        pm.put_page(p);
        pm.rmap_verify().unwrap();
        assert_eq!(pm.rmap_entries(p), vec![(pid2, va2)]);
        pm.rmap_remove(p, pid2, va2);
        pm.map_dec(p);
        pm.put_page(p);
        assert!(pm.rmap_is_empty());
        pm.rmap_verify().unwrap();
    }

    #[test]
    fn rmap_counts_duplicate_sentinel_entries() {
        // Two disjoint sharing groups mapping the same file page at
        // the same va both record the sentinel key; storing it twice
        // keeps rmap totals reconciled with mapcount.
        let mut pm = PhysMem::new(8);
        let f = FileId(0);
        let (p, _) = pm.file_page(f, 0).unwrap();
        let sentinel = Pid::SHARED_TABLE;
        let va = VirtAddr::new(0x4000_0000);
        pm.get_page(p);
        pm.map_inc(p);
        pm.rmap_add(p, sentinel, va);
        pm.get_page(p);
        pm.map_inc(p);
        pm.rmap_add(p, sentinel, va);
        assert_eq!(pm.rmap_len(p), 2);
        assert_eq!(pm.rmap_entries(p), vec![(sentinel, va), (sentinel, va)]);
        pm.rmap_verify().unwrap();
        pm.rmap_remove(p, sentinel, va);
        pm.map_dec(p);
        pm.put_page(p);
        assert_eq!(pm.rmap_len(p), 1);
        pm.rmap_verify().unwrap();
        pm.rmap_remove(p, sentinel, va);
        pm.map_dec(p);
        pm.put_page(p);
        assert!(pm.rmap_is_empty());
        pm.rmap_verify().unwrap();
    }

    /// The nearer-end search is `partition_point` for every length up
    /// to 70 and every key, present or absent, over runs of duplicates
    /// of every width — and over deques whose ring has wrapped.
    #[test]
    fn nearer_end_bound_is_partition_point() {
        for n in 0..=70u32 {
            for width in [1, 2, 3, n.max(1)] {
                let sorted: Vec<u32> = (0..n).map(|i| 2 * (i / width)).collect();
                // The back half from the start of the buffer, the front
                // half pushed in before it from the buffer's end.
                let (front, back) = sorted.split_at(sorted.len() / 2);
                let mut wrapped = VecDeque::with_capacity(n as usize);
                wrapped.extend(back);
                for &k in front.iter().rev() {
                    wrapped.push_front(k);
                }
                if !front.is_empty() {
                    assert_eq!(wrapped.as_slices().1, back);
                }
                for keys in [VecDeque::from(sorted.clone()), wrapped] {
                    for key in 0..=2 * n + 1 {
                        let want = sorted.partition_point(|&k| k < key);
                        let got = nearer_end_bound(&keys, &key);
                        assert_eq!(got, want, "n {n}, width {width}, key {key}");
                    }
                }
            }
        }
    }

    /// What the search exists for: at every deque length, the slot past
    /// the last key (a fork's new pid) costs two comparisons and the
    /// first key (a lowest-pid reap) one. A probe moved inward still
    /// finds the right slot, so only this test sees it.
    #[test]
    fn nearer_end_bound_finds_either_end_in_constant_comparisons() {
        use std::cell::Cell;
        use std::cmp::Ordering;
        thread_local!(static CMPS: Cell<usize> = const { Cell::new(0) });
        #[derive(PartialEq, Eq)]
        struct Counted(u32);
        impl Ord for Counted {
            fn cmp(&self, other: &Self) -> Ordering {
                CMPS.with(|c| c.set(c.get() + 1));
                self.0.cmp(&other.0)
            }
        }
        impl PartialOrd for Counted {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        let search = |keys: &VecDeque<Counted>, key| {
            CMPS.with(|c| c.set(0));
            let at = nearer_end_bound(keys, &Counted(key));
            (at, CMPS.with(Cell::get))
        };
        for n in 2..=1025u32 {
            let keys: VecDeque<_> = (1..=n).map(Counted).collect();
            assert_eq!(search(&keys, n + 1), (n as usize, 2), "append, n {n}");
            assert_eq!(search(&keys, 1), (0, 1), "first, n {n}");
        }
    }

    /// A deque of entries grows and shrinks through every slot state:
    /// one inline, spilled, and back to one when the rest are gone.
    #[test]
    fn rmap_slot_spills_and_returns_inline() {
        let mut pm = PhysMem::new(8);
        let p = Pfn::new(7);
        let va = VirtAddr::new(0x4000_0000);
        let pids: Vec<Pid> = (1..=5).map(Pid::new).collect();
        for &pid in pids.iter().rev() {
            pm.rmap_add(p, pid, va);
        }
        assert!(matches!(pm.rmap[7], RmapSlot::Many(_)));
        let want: Vec<_> = pids.iter().map(|&pid| (pid, va)).collect();
        assert_eq!(pm.rmap_entries(p), want);
        for &pid in &pids[..4] {
            pm.rmap_remove(p, pid, va);
        }
        assert!(matches!(pm.rmap[7], RmapSlot::One((pid, _)) if pid == pids[4]));
        pm.rmap_remove(p, pids[4], va);
        assert!(matches!(pm.rmap[7], RmapSlot::Empty));
        assert!(pm.rmap_is_empty());
        assert_eq!(pm.rmap_total(), 0);
    }
}
