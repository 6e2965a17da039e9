//! Descriptor-word storage for both table levels, held by populated
//! group, each group shared copy-on-write between the tables that hold
//! the same words.
//!
//! A zygote child's tables are sparse: at the stock kernel's
//! `fleet_churn` peak a page-table page holds 4.3 of its 512 slots and
//! a root table 77 of its 4,096 entries, in 1.14 and 5.2 groups of 64.
//! [`Groups`] therefore stores a table as `N` groups of
//! [`GROUP_WORDS`] words and keeps only the groups that hold a
//! non-zero word: a group is allocated when its first non-zero word is
//! written and released when its last is cleared, and an absent group
//! reads as all zeroes — the all-fault encoding at both levels. A
//! table costs the host what it holds, not what it could.
//!
//! Most of what a stock fork copies it copies word for word: both
//! sides of a COW-protected anonymous PTE end up with the same word.
//! A group is therefore an `Arc`, and [`Groups::adopt_equal`] lets a
//! table point at another table's group wherever the two hold the same
//! 64 words — the paper's PTP sharing (§3.1), applied to the
//! simulator's heap rather than to the simulated machine. Every write
//! goes through `Arc::make_mut`, so no table ever sees a sibling's
//! change; a write that leaves the word as it was changes nothing, and
//! one that clears a group's last word drops the pointer without
//! copying. Adoption is by equality, not by prediction: what a caller
//! expects to be equal is compared, so no rule about which PTEs a fork
//! copies has to hold for the tables to stay isolated.
//!
//! This is the only representation; there is no dense or unshared form
//! beside it.

use std::ops::Range;
use std::sync::Arc;

/// Words per group. Picked from the occupancy above: a half-table
/// (256-word) group would leave a sparse PTP at 1 KiB, and 16-word
/// groups need a 32-entry directory that costs more than they save.
/// One `u64` has a bit for each word.
pub(crate) const GROUP_WORDS: usize = u64::BITS as usize;

/// One populated group: its words, and the set of those that are
/// non-zero (bit `i` for word `i`) — the group's live count, and what
/// lets an iterator visit the words a group holds instead of all 64.
#[derive(Clone, PartialEq, Eq)]
struct Group {
    words: [u32; GROUP_WORDS],
    live: u64,
}

/// `N * GROUP_WORDS` descriptor words, all zero when new. `Clone`
/// copies pointers: the clone shares every group until one side
/// writes it.
#[derive(Clone)]
pub(crate) struct Groups<const N: usize> {
    groups: [Option<Arc<Group>>; N],
}

impl<const N: usize> Groups<N> {
    /// All words zero; owns no group.
    pub(crate) fn new() -> Self {
        Groups {
            groups: [const { None }; N],
        }
    }

    /// The word at `idx`.
    pub(crate) fn get(&self, idx: usize) -> u32 {
        match &self.groups[idx / GROUP_WORDS] {
            Some(group) => group.words[idx % GROUP_WORDS],
            None => 0,
        }
    }

    /// Writes `word` at `idx` and returns the word it replaces. The
    /// group is allocated by its first non-zero word and released with
    /// its last; a group other tables hold is copied before it is
    /// changed, and not at all when the word is already `word`.
    pub(crate) fn set(&mut self, idx: usize, word: u32) -> u32 {
        let slot = &mut self.groups[idx / GROUP_WORDS];
        let (at, bit) = (idx % GROUP_WORDS, 1 << (idx % GROUP_WORDS));
        let Some(group) = slot else {
            if word != 0 {
                let mut group = Group {
                    words: [0; GROUP_WORDS],
                    live: bit,
                };
                group.words[at] = word;
                *slot = Some(Arc::new(group));
            }
            return 0;
        };
        let prev = group.words[at];
        if prev == word {
            return prev;
        }
        if word == 0 && group.live == bit {
            *slot = None;
            return prev;
        }
        let group = Arc::make_mut(group);
        group.words[at] = word;
        if word != 0 {
            group.live |= bit;
        } else {
            group.live &= !bit;
        }
        prev
    }

    /// Makes `self` hold `other`'s group wherever the two groups at
    /// one index hold the same words, dropping its own: no word of
    /// `self` changes.
    pub(crate) fn adopt_equal(&mut self, other: &Groups<N>) {
        for (mine, theirs) in self.groups.iter_mut().zip(&other.groups) {
            if let (Some(group), Some(theirs)) = (mine.as_ref(), theirs) {
                if !Arc::ptr_eq(group, theirs) && group == theirs {
                    *mine = Some(Arc::clone(theirs));
                }
            }
        }
    }

    /// The groups that hold a word of `range`, which must start and
    /// end on group boundaries.
    fn in_range(&self, range: Range<usize>) -> impl Iterator<Item = &Group> {
        debug_assert!(
            range.start.is_multiple_of(GROUP_WORDS) && range.end.is_multiple_of(GROUP_WORDS)
        );
        self.groups[range.start / GROUP_WORDS..range.end / GROUP_WORDS]
            .iter()
            .flatten()
            .map(Arc::as_ref)
    }

    /// `true` if any word of the group-aligned `range` is non-zero:
    /// whether any of its groups is present.
    pub(crate) fn any(&self, range: Range<usize>) -> bool {
        self.in_range(range).next().is_some()
    }

    /// The number of non-zero words in the group-aligned `range`: a
    /// popcount of its groups' live sets.
    pub(crate) fn count(&self, range: Range<usize>) -> usize {
        self.in_range(range)
            .map(|group| group.live.count_ones() as usize)
            .sum()
    }

    /// The non-zero words among `range` as `(idx, word)`, in ascending
    /// order: O(words held), not O(range).
    pub(crate) fn iter(&self, range: Range<usize>) -> impl Iterator<Item = (usize, u32)> + '_ {
        let groups = if range.is_empty() {
            0..0
        } else {
            range.start / GROUP_WORDS..range.end.div_ceil(GROUP_WORDS)
        };
        groups.flat_map(move |g| {
            let base = g * GROUP_WORDS;
            let lo = range.start.max(base) - base;
            let hi = range.end.min(base + GROUP_WORDS) - base;
            // Bits `lo..hi`; the group overlaps the range, so `hi > lo`.
            let in_range = u64::MAX >> (GROUP_WORDS - (hi - lo)) << lo;
            self.groups[g].iter().flat_map(move |group| {
                let mut left = group.live & in_range;
                std::iter::from_fn(move || {
                    let at = (left != 0).then(|| left.trailing_zeros() as usize)?;
                    left &= left - 1;
                    Some((base + at, group.words[at]))
                })
            })
        })
    }

    /// Number of groups currently allocated.
    pub(crate) fn populated(&self) -> usize {
        self.groups.iter().flatten().count()
    }

    /// Number of allocated groups that another table holds too.
    #[cfg(test)]
    pub(crate) fn shared(&self) -> usize {
        let shared = |group: &&Arc<Group>| Arc::strong_count(group) > 1;
        self.groups.iter().flatten().filter(shared).count()
    }

    /// Checks that every allocated group holds at least one non-zero
    /// word and that its live set is exactly the non-zero words.
    pub(crate) fn verify(&self) -> Result<(), String> {
        for (g, group) in self.groups.iter().enumerate() {
            let Some(group) = group else { continue };
            let held = (0..GROUP_WORDS)
                .filter(|&at| group.words[at] != 0)
                .fold(0u64, |set, at| set | 1 << at);
            if held == 0 {
                return Err(format!("group {g} is allocated but holds no word"));
            }
            if group.live != held {
                return Err(format!(
                    "group {g} records live words {:#018x} but holds {held:#018x}",
                    group.live
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two groups' worth of words.
    type Pair = Groups<2>;

    #[test]
    fn a_clone_shares_every_group_until_one_side_writes() {
        let mut a = Pair::new();
        a.set(3, 7);
        a.set(70, 9);
        let mut b = a.clone();
        assert_eq!((a.shared(), b.shared()), (2, 2));
        // A write copies the one group it lands in, for the writer.
        b.set(4, 5);
        assert_eq!((a.get(4), b.get(4)), (0, 5));
        assert_eq!((a.shared(), b.shared()), (1, 1));
        // Clearing a shared group's last word drops the pointer: the
        // other side keeps the group, alone now.
        b.set(70, 0);
        assert_eq!((a.get(70), b.get(70)), (9, 0));
        assert_eq!((a.shared(), b.populated()), (0, 1));
        a.verify().unwrap();
        b.verify().unwrap();
    }

    #[test]
    fn rewriting_a_word_as_it_was_keeps_the_group_shared() {
        let mut a = Pair::new();
        a.set(10, 0x41);
        let mut b = a.clone();
        assert_eq!(b.set(10, 0x41), 0x41);
        assert_eq!(b.set(11, 0), 0);
        assert_eq!(b.set(100, 0), 0);
        assert_eq!((b.shared(), b.populated()), (1, 1));
    }

    #[test]
    fn adoption_takes_only_the_groups_whose_words_are_equal() {
        let (mut a, mut b) = (Pair::new(), Pair::new());
        for idx in [1, 2, 65] {
            a.set(idx, idx as u32);
            b.set(idx, idx as u32);
        }
        b.set(66, 1);
        b.adopt_equal(&a);
        assert_eq!((a.shared(), b.shared()), (1, 1));
        assert_eq!(
            b.iter(0..128).collect::<Vec<_>>(),
            [(1, 1), (2, 2), (65, 65), (66, 1)]
        );
        // Adopting again, or from a table that holds less, changes
        // nothing.
        b.adopt_equal(&a);
        b.adopt_equal(&Pair::new());
        assert_eq!((a.shared(), b.shared(), b.populated()), (1, 1, 2));
    }

    #[test]
    fn any_and_count_read_the_live_sets() {
        let mut a = Groups::<4>::new();
        assert!(!a.any(0..256));
        for idx in [0, 63, 64, 200] {
            a.set(idx, 1);
        }
        assert_eq!(
            (a.count(0..128), a.count(128..256), a.count(0..256)),
            (3, 1, 4)
        );
        a.set(200, 0);
        assert!(a.any(0..128) && !a.any(128..256));
    }
}
