//! The L1 instruction cache, kept as stretches of equal sets.
//!
//! A fault handler's text runs through the L1-I hundreds of lines at a
//! time, one line per set, every set of a lap under one tag. Such a run
//! leaves long stretches of consecutive sets holding the same tags in
//! the same order, and an LRU set's answers depend only on those tags
//! and on the tags it receives — so a stretch answers a run as one set
//! does, and is touched once for all of its sets.

use sat_types::PhysAddr;

use crate::set_assoc::{touch, CacheConfig, CacheStats, SetIndex, INVALID};

/// A set-associative true-LRU cache, as [`crate::Cache`], that keeps
/// its sets as *stretches*: maximal runs of consecutive sets whose ways
/// hold the same tags in the same order.
///
/// The tags live in [`crate::Cache`]'s flat, set-major, most recent
/// first array, plus one bit per set saying that the set *continues*
/// the stretch of the set before it. A continuing set's own slot is not
/// kept current: the stretch's first set, its head, holds the tags for
/// all of it. Set 0 never continues; after [`StretchCache::flush`]
/// every other set does.
///
/// A single access to a set in a stretch, unless it hits the head's
/// most recent way (which changes nothing), first cuts the set out (and
/// the set after it, which continued from it) and then touches it as
/// [`crate::Cache`] does, so the common case — neither the set nor the
/// next one continues — costs [`crate::Cache::access`] plus two bit
/// tests. A run ([`StretchCache::access_run`]) touches each stretch of a
/// lap once, counts its length, and joins it to the stretch before it
/// when their tags agree. Every answer, every counter and the order of
/// the misses equal [`crate::Cache`]'s line by line.
pub struct StretchCache {
    line_bytes: u32,
    tags: Vec<u32>,
    /// Bit `s` set: set `s` continues the stretch of set `s - 1`. One
    /// word more than the sets need, always zero past the last set, so
    /// the set after the last reads as a head.
    continues: Vec<u64>,
    ways: usize,
    stats: CacheStats,
    sets: SetIndex,
}

impl StretchCache {
    /// Creates an empty cache with the given geometry: one stretch.
    ///
    /// # Panics
    ///
    /// As [`crate::Cache::new`], with the same messages.
    pub fn new(config: CacheConfig) -> Self {
        let sets = SetIndex::new(config);
        let mut cache = StretchCache {
            line_bytes: config.line_bytes,
            tags: vec![INVALID; sets.count() * config.ways as usize],
            continues: vec![0; sets.count() / 64 + 1],
            ways: config.ways as usize,
            stats: CacheStats::default(),
            sets,
        };
        cache.flush();
        cache
    }

    /// Returns the statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the statistics (not the contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Whether `set` continues the stretch of the set before it (never
    /// for set 0 or for the set after the last).
    #[inline(always)]
    fn continues(&self, set: usize) -> bool {
        self.continues[set / 64] >> (set % 64) & 1 != 0
    }

    /// The head of `set`'s stretch: the nearest set at or below it that
    /// does not continue.
    fn head(&self, set: usize) -> usize {
        let mut word = set / 64;
        // Only set 0 is sure not to continue, and it ends the scan.
        let mut heads = !self.continues[word] & (u64::MAX >> (63 - set % 64));
        while heads == 0 {
            word -= 1;
            heads = !self.continues[word];
        }
        word * 64 + 63 - heads.leading_zeros() as usize
    }

    /// The first set after `set` that heads a stretch, or `end` if none
    /// does below it.
    #[inline(always)]
    fn stretch_end(&self, set: usize, end: usize) -> usize {
        let mut next = set + 1;
        while next < end {
            let heads = !self.continues[next / 64] >> (next % 64);
            if heads != 0 {
                return end.min(next + heads.trailing_zeros() as usize);
            }
            next = (next / 64 + 1) * 64;
        }
        end
    }

    /// Makes `set` the head of its own stretch: its slot takes its old
    /// head's tags, which it held all along.
    fn cut(&mut self, set: usize) {
        if self.continues(set) {
            let (head, w) = (self.head(set), self.ways);
            self.tags.copy_within(head * w..(head + 1) * w, set * w);
            self.continues[set / 64] &= !(1 << (set % 64));
        }
    }

    /// Accesses the line containing `pa`, allocating it on a miss.
    /// Returns `true` on a hit.
    #[inline]
    pub fn access(&mut self, pa: PhysAddr) -> bool {
        let (set, tag) = self.sets.locate(pa);
        let hit = if self.continues(set) || self.continues(set + 1) {
            self.access_in_stretch(set, tag)
        } else if self.ways == 4 {
            touch(
                &mut self.tags[set * 4..][..4],
                tag,
                &mut self.stats.evictions,
            )
        } else {
            let w = self.ways;
            touch(
                &mut self.tags[set * w..][..w],
                tag,
                &mut self.stats.evictions,
            )
        };
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// [`StretchCache::access`] to a set that shares its stretch with a
    /// neighbour. A hit on the head's most recent way changes nothing;
    /// anything else cuts the set and the set after it out of the
    /// stretch before touching the set. A single access never joins.
    #[cold]
    #[inline(never)]
    fn access_in_stretch(&mut self, set: usize, tag: u32) -> bool {
        if self.tags[self.head(set) * self.ways] == tag {
            return true;
        }
        self.cut(set + 1);
        self.cut(set);
        let w = self.ways;
        touch(
            &mut self.tags[set * w..][..w],
            tag,
            &mut self.stats.evictions,
        )
    }

    /// Accesses the `n` consecutive lines from the one holding `pa`
    /// exactly as `n` calls of [`StretchCache::access`] at `pa`,
    /// `pa + line`, … would, and calls `on_miss(first, lines)` with each
    /// maximal run of consecutive lines that missed, in order. The
    /// counters are updated once per run; the run must end below 4 GiB.
    #[inline]
    pub fn access_run(&mut self, pa: PhysAddr, n: u32, on_miss: impl FnMut(PhysAddr, u32)) {
        match self.ways {
            4 => self.run_w::<4>(pa, n, on_miss),
            _ => self.run_w::<0>(pa, n, on_miss),
        }
    }

    /// [`StretchCache::access_run`] at `W` ways a set, known at compile
    /// time, or at the geometry's count for `W = 0`; one lap of the sets
    /// at a time, as [`crate::Cache`]'s run walks them. A lap gives each
    /// of its sets the same tag, so each stretch inside it is touched
    /// once, after the lap's first set and the set after its last are
    /// cut from whatever stretch reaches past them.
    #[inline(always)]
    fn run_w<const W: usize>(
        &mut self,
        pa: PhysAddr,
        n: u32,
        mut on_miss: impl FnMut(PhysAddr, u32),
    ) {
        let w = if W == 0 { self.ways } else { W };
        let line = self.line_bytes;
        let sets = self.sets.count();
        let (mut set, mut tag) = self.sets.locate(pa);
        let (mut addr, mut left) = (pa.raw(), n as usize);
        let (mut hits, mut evictions) = (0, 0);
        // The run of missed lines not yet handed on.
        let (mut missed_from, mut missed) = (0, 0);
        while left > 0 {
            let end = sets.min(set + left);
            if end < sets {
                self.cut(end);
            }
            self.cut(set);
            let first = set;
            // The head of the lap's stretch before the current one.
            let mut before = usize::MAX;
            while set < end {
                let next = self.stretch_end(set, end);
                let len = (next - set) as u32;
                let mut evicted = 0;
                if touch(&mut self.tags[set * w..][..w], tag, &mut evicted) {
                    hits += len;
                    if missed > 0 {
                        on_miss(PhysAddr::new(missed_from), missed);
                        missed = 0;
                    }
                } else {
                    evictions += evicted * u64::from(len);
                    if missed == 0 {
                        missed_from = addr.wrapping_add((set - first) as u32 * line);
                    }
                    missed += len;
                }
                if before != usize::MAX && self.tags[before * w..][..w] == self.tags[set * w..][..w]
                {
                    self.continues[set / 64] |= 1 << (set % 64);
                } else {
                    before = set;
                }
                set = next;
            }
            addr = addr.wrapping_add((end - first) as u32 * line);
            left -= end - first;
            (set, tag) = (0, tag + 1);
        }
        if missed > 0 {
            on_miss(PhysAddr::new(missed_from), missed);
        }
        self.stats.hits += u64::from(hits);
        self.stats.misses += u64::from(n - hits);
        self.stats.evictions += evictions;
    }

    /// Probes whether `pa`'s line is resident without touching LRU
    /// state or statistics.
    pub fn probe(&self, pa: PhysAddr) -> bool {
        let (set, tag) = self.sets.locate(pa);
        let head = self.head(set);
        self.tags[head * self.ways..][..self.ways].contains(&tag)
    }

    /// Invalidates everything: all sets are equal, one stretch.
    pub fn flush(&mut self) {
        self.tags.fill(INVALID);
        let sets = self.sets.count();
        self.continues.fill(0);
        for set in 1..sets {
            self.continues[set / 64] |= 1 << (set % 64);
        }
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        let w = self.ways;
        let mut valid = 0;
        (0..self.sets.count())
            .map(|set| {
                if !self.continues(set) {
                    valid = self.tags[set * w..][..w]
                        .iter()
                        .filter(|&&t| t != INVALID)
                        .count();
                }
                valid
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sets that head a stretch.
    fn heads(c: &StretchCache) -> Vec<usize> {
        (0..c.sets.count()).filter(|&s| !c.continues(s)).collect()
    }

    #[test]
    fn runs_join_what_single_accesses_cut() {
        let mut c = StretchCache::new(CacheConfig::L1_32K);
        let line = |i: u32| PhysAddr::new(i * 32);
        assert_eq!(heads(&c), [0], "an empty cache is one stretch");
        // Three laps and a bit: sets 0..32 hold four tags, the rest
        // three, each half one stretch after the run.
        let mut missed = Vec::new();
        c.access_run(line(0), 800, |pa, n| missed.push((pa, n)));
        assert_eq!(missed, [(line(0), 800)], "one run of misses for the L2");
        assert_eq!(heads(&c), [0, 32]);
        assert_eq!(c.stats().misses, 800);
        assert_eq!(c.occupancy(), 800);
        // A hit on the head's most recent way changes nothing.
        assert!(c.access(line(799)));
        assert_eq!(heads(&c), [0, 32]);
        // Any other access cuts its set and the next one out: a hit on
        // set 5's last way, and a fill of set 40's empty way.
        assert!(c.access(line(5)));
        assert!(!c.access(line(256 * 9 + 40)));
        assert_eq!(heads(&c), [0, 5, 6, 32, 40, 41]);
        assert!(c.probe(line(256 * 9 + 40)) && c.probe(line(512 + 40)));
        assert!(c.probe(line(512 + 41)) && !c.probe(line(256 * 9 + 41)));
        // A lap of the next tag fills sets 32.. to the tags of 6..32,
        // which they join, and leaves sets 5 and 40, which the single
        // accesses reordered, in stretches of their own.
        c.access_run(line(768), 256, |_, _| {});
        assert_eq!(heads(&c), [0, 5, 6, 40, 41]);
        c.flush();
        assert_eq!((heads(&c), c.occupancy()), (vec![0], 0));
    }

    #[test]
    #[should_panic(expected = "a cache needs at least one way")]
    fn zero_ways_is_refused_by_name() {
        StretchCache::new(CacheConfig {
            size_bytes: 128,
            ways: 0,
            line_bytes: 32,
        });
    }

    #[test]
    #[should_panic(expected = "a cache needs at least one set")]
    fn a_way_count_whose_product_overflows_is_refused_by_name() {
        StretchCache::new(CacheConfig {
            size_bytes: 1 << 20,
            ways: 1 << 27,
            line_bytes: 32,
        });
    }
}
