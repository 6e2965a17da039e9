//! How the tables that gain one entry at a time grow.
//!
//! A `Vec` or `VecDeque` that runs out of room doubles, so a table
//! that has just grown is up to half empty. The simulator's per-frame
//! tables, its reverse-map deques and its process table each grow one
//! entry at a time to the size of the run, and at the `fleet_churn`
//! peak their doubling left 2.86 of its 15.98 MiB of heap empty. They
//! grow through [`GrowGently`] instead, by an eighth of their length,
//! which leaves at most an eighth empty; the reallocations this adds
//! still cost O(1) a push, amortized.

use std::collections::VecDeque;

/// What a full table of `len` entries grows by.
const fn growth_step(len: usize) -> usize {
    len / 8 + 1
}

/// A table grown by an eighth of its length rather than doubled.
pub trait GrowGently {
    /// Makes room for at least `additional` more entries, growing by
    /// `len / 8 + 1` when that is more.
    fn reserve_gently(&mut self, additional: usize);
}

impl<T> GrowGently for Vec<T> {
    fn reserve_gently(&mut self, additional: usize) {
        if self.capacity() - self.len() < additional {
            self.reserve_exact(additional.max(growth_step(self.len())));
        }
    }
}

impl<T> GrowGently for VecDeque<T> {
    fn reserve_gently(&mut self, additional: usize) {
        if self.capacity() - self.len() < additional {
            self.reserve_exact(additional.max(growth_step(self.len())));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_table_grows_by_an_eighth_and_a_jump_by_what_it_needs() {
        let mut v: Vec<u64> = vec![0; 64];
        assert_eq!(v.capacity(), 64);
        v.reserve_gently(1);
        assert_eq!(v.capacity(), 64 + 9);
        // Room already there: nothing moves.
        v.reserve_gently(9);
        assert_eq!(v.capacity(), 73);
        // A jump past the step reserves the jump.
        v.reserve_gently(100);
        assert_eq!(v.capacity(), 164);
        let mut d: VecDeque<u64> = VecDeque::new();
        for n in 0..1000 {
            d.reserve_gently(1);
            d.push_back(n);
        }
        assert!(d.capacity() <= 1000 + growth_step(1000), "{}", d.capacity());
    }
}
