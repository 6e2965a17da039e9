//! The `Vec<Pfn>` reference frame allocator and the nested-`BTreeMap`
//! reference reverse map.
//!
//! The allocator is the one [`crate::PhysMem`] had before its free list
//! moved into the frames' own metadata: a `Vec` popped from the back,
//! and an `alloc_run` that copies the list, sorts it, scans for the
//! lowest run and `retain`s the list through a `HashSet` of it. It is
//! kept as the executable specification of the *allocation order* —
//! which PFN every call returns is part of the simulated machine.
//!
//! The reverse map is the one [`crate::PhysMem`] had before it was
//! indexed by frame number: a map of frames to maps of `(owner, va)`
//! keys to counts. It is kept as the specification of what the rmap
//! answers, and in which order — reclaim tears a victim's entries in
//! the order `rmap_entries` lists them.
//!
//! The differential proptests below drive each model and its subject
//! with identical operation sequences.
//!
//! Do not "optimise" this file; its value is being obviously correct.

use std::collections::{BTreeMap, HashMap, HashSet};

use sat_types::{Pfn, Pid, SatError, SatResult, VirtAddr};

use crate::file::FileId;
use crate::frame::{FrameKind, PhysMemStats, Watermarks};

/// Reference model of [`crate::PhysMem`]'s reverse map: per frame, a
/// count per `(owner, va)` key.
#[derive(Default)]
pub(crate) struct RefRmap(BTreeMap<Pfn, BTreeMap<(Pid, VirtAddr), u32>>);

impl RefRmap {
    pub(crate) fn add(&mut self, pfn: Pfn, owner: Pid, va: VirtAddr) {
        *self
            .0
            .entry(pfn)
            .or_default()
            .entry((owner, va))
            .or_insert(0) += 1;
    }

    pub(crate) fn remove(&mut self, pfn: Pfn, owner: Pid, va: VirtAddr) {
        let set = self.0.get_mut(&pfn).expect("a frame with entries");
        let count = set.get_mut(&(owner, va)).expect("a filed key");
        *count -= 1;
        if *count == 0 {
            set.remove(&(owner, va));
            if set.is_empty() {
                self.0.remove(&pfn);
            }
        }
    }

    pub(crate) fn reown(&mut self, pfn: Pfn, from: Pid, to: Pid, va: VirtAddr) {
        self.remove(pfn, from, va);
        self.add(pfn, to, va);
    }

    pub(crate) fn entries(&self, pfn: Pfn) -> Vec<(Pid, VirtAddr)> {
        self.0
            .get(&pfn)
            .map(|s| {
                s.iter()
                    .flat_map(|(&key, &n)| std::iter::repeat_n(key, n as usize))
                    .collect()
            })
            .unwrap_or_default()
    }

    pub(crate) fn len(&self, pfn: Pfn) -> usize {
        self.entries(pfn).len()
    }

    pub(crate) fn total(&self) -> usize {
        self.0
            .values()
            .flat_map(|s| s.values())
            .map(|&n| n as usize)
            .sum()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Reference model of [`crate::PhysMem`]'s allocator, page cache and
/// statistics.
pub(crate) struct RefPhysMem {
    /// `(kind, refcount)` of every allocated frame; `None` when free.
    pages: Vec<Option<(FrameKind, u32)>>,
    free: Vec<Pfn>,
    page_cache: HashMap<(FileId, u32), Pfn>,
    stats: PhysMemStats,
    budget: Option<u64>,
    watermarks: Watermarks,
    evicted: HashSet<(FileId, u32)>,
}

impl RefPhysMem {
    pub(crate) fn new(frames: u32) -> Self {
        RefPhysMem {
            pages: vec![None; frames as usize],
            // Allocate low frames first: reverse the free list so
            // `pop` yields ascending PFNs.
            free: (0..frames).rev().map(Pfn::new).collect(),
            page_cache: HashMap::new(),
            stats: PhysMemStats {
                free_low_water: frames as u64,
                ..PhysMemStats::default()
            },
            budget: None,
            watermarks: Watermarks::for_budget(frames as u64),
            evicted: HashSet::new(),
        }
    }

    pub(crate) fn stats(&self) -> PhysMemStats {
        self.stats
    }

    pub(crate) fn alloc(&mut self, kind: FrameKind) -> SatResult<Pfn> {
        let pfn = self.free.pop().ok_or(SatError::OutOfMemory)?;
        self.pages[pfn.raw() as usize] = Some((kind, 1));
        self.stats.total_allocs += 1;
        self.stats.in_use += 1;
        self.stats.high_water = self.stats.high_water.max(self.stats.in_use);
        let free = self.budget_free();
        self.stats.free_low_water = self.stats.free_low_water.min(free);
        if self.budget.is_some() && free < self.watermarks.low {
            self.stats.low_watermark_hits += 1;
        }
        Ok(pfn)
    }

    pub(crate) fn alloc_run(&mut self, kind: FrameKind, n: u32) -> SatResult<Pfn> {
        debug_assert!(n > 0);
        if n == 1 {
            return self.alloc(kind);
        }
        let mut sorted: Vec<u32> = self.free.iter().map(|p| p.raw()).collect();
        sorted.sort_unstable();
        let mut run_base: Option<u32> = None;
        let mut run_len = 0u32;
        let mut found = None;
        for &f in &sorted {
            match run_base {
                Some(b) if f == b + run_len => run_len += 1,
                _ => {
                    run_base = Some(f);
                    run_len = 1;
                }
            }
            if run_len == n {
                found = run_base;
                break;
            }
        }
        let base = found.ok_or(SatError::OutOfMemory)?;
        let run: HashSet<u32> = (base..base + n).collect();
        self.free.retain(|p| !run.contains(&p.raw()));
        for f in base..base + n {
            self.pages[f as usize] = Some((kind, 1));
        }
        self.stats.total_allocs += u64::from(n);
        self.stats.in_use += u64::from(n);
        self.stats.high_water = self.stats.high_water.max(self.stats.in_use);
        let free = self.budget_free();
        self.stats.free_low_water = self.stats.free_low_water.min(free);
        if self.budget.is_some() && free < self.watermarks.low {
            self.stats.low_watermark_hits += 1;
        }
        Ok(Pfn::new(base))
    }

    pub(crate) fn get_page(&mut self, pfn: Pfn) {
        let (_, refcount) = self.pages[pfn.raw() as usize]
            .as_mut()
            .expect("get_page on free frame");
        *refcount += 1;
    }

    pub(crate) fn put_page(&mut self, pfn: Pfn) -> bool {
        let idx = pfn.raw() as usize;
        let (kind, refcount) = self.pages[idx].as_mut().expect("put_page on free frame");
        *refcount -= 1;
        if *refcount > 0 {
            return false;
        }
        if let FrameKind::File { file, index } = *kind {
            self.page_cache.remove(&(file, index));
        }
        self.pages[idx] = None;
        self.free.push(pfn);
        self.stats.total_frees += 1;
        self.stats.in_use -= 1;
        true
    }

    pub(crate) fn file_page(&mut self, file: FileId, index: u32) -> SatResult<(Pfn, bool)> {
        if let Some(&pfn) = self.page_cache.get(&(file, index)) {
            self.stats.page_cache_hits += 1;
            return Ok((pfn, true));
        }
        let pfn = self.alloc(FrameKind::File { file, index })?;
        self.page_cache.insert((file, index), pfn);
        self.stats.page_cache_misses += 1;
        if self.evicted.remove(&(file, index)) {
            self.stats.refaults += 1;
        }
        Ok((pfn, false))
    }

    pub(crate) fn evict_file_frame(&mut self, pfn: Pfn) -> bool {
        let Some((FrameKind::File { file, index }, _)) = self.pages[pfn.raw() as usize] else {
            panic!("evict_file_frame on non-file frame {pfn:?}");
        };
        self.evicted.insert((file, index));
        self.stats.evictions += 1;
        self.put_page(pfn)
    }

    pub(crate) fn set_budget(&mut self, frames: Option<u64>) {
        self.budget = frames;
        if let Some(b) = frames {
            self.watermarks = Watermarks::for_budget(b);
            self.stats.free_low_water = self.budget_free();
        }
    }

    fn budget_free(&self) -> u64 {
        match self.budget {
            Some(b) => b.saturating_sub(self.stats.in_use),
            None => self.pages.len() as u64 - self.stats.in_use,
        }
    }
}

mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;
    use crate::PhysMem;

    /// One randomized operation: `(opcode, a, b)`, decoded in
    /// [`apply`].
    type Op = (u8, u32, u32);

    fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec((0u8..16, 0u32..1 << 16, 0u32..1 << 16), 1..400)
    }

    /// Pool sizes from one frame up, half of them small enough that
    /// exhaustion, fragmentation and the bitmap's partial last word
    /// come up within a few hundred operations.
    fn frames_strategy() -> impl Strategy<Value = u32> {
        prop_oneof![1u32..200, 1u32..4097]
    }

    /// Applies `op` to both allocators and checks that they answer
    /// alike. `held` lists the frames the sequence holds a reference
    /// on, one entry per reference.
    fn apply(
        new: &mut PhysMem,
        old: &mut RefPhysMem,
        held: &mut Vec<Pfn>,
        (code, a, b): Op,
    ) -> Result<(), TestCaseError> {
        let kind = if a % 3 == 0 {
            FrameKind::PageTable
        } else {
            FrameKind::Anon
        };
        let (file, index) = (FileId(a % 3), b % 64);
        match code {
            // Weighted towards single frames, like the kernel's use.
            0..=4 => {
                let got = new.alloc(kind);
                prop_assert_eq!(got, old.alloc(kind));
                held.extend(got.ok());
            }
            // Short runs, large-page runs and everything up to 256;
            // `n == 1` takes the delegation to `alloc`.
            5..=7 => {
                let n = match code {
                    5 => 1 + a % 4,
                    6 => 16,
                    _ => 1 + a % 256,
                };
                let got = new.alloc_run(kind, n);
                prop_assert_eq!(got, old.alloc_run(kind, n));
                if let Ok(base) = got {
                    held.extend((0..n).map(|i| Pfn::new(base.raw() + i)));
                }
            }
            8..=11 if !held.is_empty() => {
                let pfn = held.swap_remove(b as usize % held.len());
                prop_assert_eq!(new.put_page(pfn), old.put_page(pfn));
            }
            // Free a stretch of references in one go, so long runs
            // reappear in pools that have filled up.
            12 if !held.is_empty() => {
                let from = b as usize % held.len();
                for pfn in held.drain(from..(from + 64).min(held.len())) {
                    prop_assert_eq!(new.put_page(pfn), old.put_page(pfn));
                }
            }
            13 if !held.is_empty() => {
                let pfn = held[b as usize % held.len()];
                new.get_page(pfn);
                old.get_page(pfn);
                held.push(pfn);
            }
            14 => {
                prop_assert_eq!(new.file_page(file, index), old.file_page(file, index));
            }
            // The page cache holds the only reference on a file frame
            // this sequence never `get_page`s: evictable when cached.
            15 => {
                if let Some(pfn) = new.page_cache_lookup(file, index) {
                    prop_assert_eq!(new.evict_file_frame(pfn), old.evict_file_frame(pfn));
                }
            }
            _ => {}
        }
        prop_assert_eq!(new.stats(), old.stats());
        new.rmap_verify().map_err(TestCaseError::fail)
    }

    proptest! {
        /// The struct-page free list hands out exactly the frames the
        /// `Vec<Pfn>` allocator did, call for call, with and without a
        /// frame budget.
        #[test]
        fn allocation_order_matches_the_vec_allocator(
            frames in frames_strategy(),
            budget in prop::option::of(1u64..4097),
            ops in ops_strategy(),
        ) {
            let mut new = PhysMem::new(frames);
            let mut old = RefPhysMem::new(frames);
            new.set_budget(budget);
            old.set_budget(budget);
            let mut held = Vec::new();
            for op in ops {
                apply(&mut new, &mut old, &mut held, op)?;
            }
            // Drain: the free list must take every frame back.
            for pfn in held {
                prop_assert_eq!(new.put_page(pfn), old.put_page(pfn));
            }
            prop_assert_eq!(new.stats(), old.stats());
            new.rmap_verify().map_err(TestCaseError::fail)?;
        }
    }

    /// One randomized reverse-map operation: `(opcode, frame, owner,
    /// va, position)`, decoded in [`apply_rmap`].
    type RmapOp = (u8, u32, u32, u32, u32);

    fn rmap_ops_strategy() -> impl Strategy<Value = Vec<RmapOp>> {
        let op = (0u8..100, any::<u32>(), 0u32..48, 0u32..6, any::<u32>());
        prop::collection::vec(op, 1..800)
    }

    /// Applies `op` to both reverse maps over a pool of `frames`, then
    /// checks that they answer alike for every frame in `touched`.
    /// Half the operations land on the pool's last frame, so its
    /// entries run to deques a hundred long, like a zygote page's in a
    /// fleet; a quarter on the first and the middle frame; the rest
    /// anywhere in the pool.
    fn apply_rmap(
        new: &mut PhysMem,
        old: &mut RefRmap,
        frames: u32,
        touched: &mut BTreeSet<u32>,
        (code, a, owner, va, at): RmapOp,
    ) -> Result<(), TestCaseError> {
        let pfn = Pfn::new(match a % 8 {
            0..=3 => frames - 1,
            4 => 0,
            5 => frames / 2,
            _ => (a >> 3) % frames,
        });
        touched.insert(pfn.raw());
        // Pid 0 is `Pid::SHARED_TABLE`, whose keys repeat.
        let owner = Pid::new(owner);
        let va = VirtAddr::new(0x4000_0000 + va * 0x1000);
        let filed = old.entries(pfn);
        // A filed key near the front, near the back, or anywhere.
        let pick = |code: u8| {
            let n = filed.len();
            let i = match code % 3 {
                0 => (at as usize % 4).min(n - 1),
                1 => n - 1 - (at as usize % 4).min(n - 1),
                _ => at as usize % n,
            };
            filed[i]
        };
        match code {
            0..=59 => {
                new.rmap_add(pfn, owner, va);
                old.add(pfn, owner, va);
            }
            60..=79 if !filed.is_empty() => {
                let (owner, va) = pick(code);
                new.rmap_remove(pfn, owner, va);
                old.remove(pfn, owner, va);
            }
            80..=97 if !filed.is_empty() => {
                let (from, va) = pick(code);
                new.rmap_reown(pfn, from, owner, va);
                old.reown(pfn, from, owner, va);
            }
            // Empty the frame from alternate ends, through every slot
            // state on the way down.
            98 | 99 => {
                let mut keys = std::collections::VecDeque::from(filed);
                while let Some((owner, va)) = if keys.len() % 2 == 0 {
                    keys.pop_front()
                } else {
                    keys.pop_back()
                } {
                    new.rmap_remove(pfn, owner, va);
                    old.remove(pfn, owner, va);
                }
            }
            _ => {}
        }
        for &raw in touched.iter() {
            let pfn = Pfn::new(raw);
            prop_assert_eq!(new.rmap_entries(pfn), old.entries(pfn), "{:?}", pfn);
            prop_assert_eq!(new.rmap_len(pfn), old.len(pfn), "{:?}", pfn);
        }
        prop_assert_eq!(new.rmap_total(), old.total());
        prop_assert_eq!(new.rmap_is_empty(), old.is_empty());
        Ok(())
    }

    proptest! {
        /// The frame-indexed reverse map answers exactly as the nested
        /// `BTreeMap` did — entries in the same order, with the same
        /// multiplicity — through random adds, removes taken near
        /// either end or in the middle, re-owns and drains, on pools
        /// of one frame up.
        #[test]
        fn rmap_matches_the_nested_btree_map(
            frames in frames_strategy(),
            ops in rmap_ops_strategy(),
        ) {
            let mut new = PhysMem::new(frames);
            let mut old = RefRmap::default();
            let mut touched = BTreeSet::new();
            for op in ops {
                apply_rmap(&mut new, &mut old, frames, &mut touched, op)?;
            }
        }
    }
}
