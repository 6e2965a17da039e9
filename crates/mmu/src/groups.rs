//! Descriptor-word storage for both table levels, held by populated
//! group.
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
//! This is the only representation; there is no dense form beside it.

use std::ops::Range;

/// Words per group. Picked from the occupancy above: a half-table
/// (256-word) group would leave a sparse PTP at 1 KiB, and 16-word
/// groups need a 32-entry directory that costs more than they save.
/// One `u64` has a bit for each word.
pub(crate) const GROUP_WORDS: usize = u64::BITS as usize;

/// One populated group: its words, and the set of those that are
/// non-zero (bit `i` for word `i`) — the group's live count, and what
/// lets an iterator visit the words a group holds instead of all 64.
#[derive(Clone)]
struct Group {
    words: [u32; GROUP_WORDS],
    live: u64,
}

/// `N * GROUP_WORDS` descriptor words, all zero when new.
#[derive(Clone)]
pub(crate) struct Groups<const N: usize> {
    groups: [Option<Box<Group>>; N],
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
    /// its last.
    pub(crate) fn set(&mut self, idx: usize, word: u32) -> u32 {
        let slot = &mut self.groups[idx / GROUP_WORDS];
        let (at, bit) = (idx % GROUP_WORDS, 1 << (idx % GROUP_WORDS));
        let Some(group) = slot else {
            if word != 0 {
                let mut group = Box::new(Group {
                    words: [0; GROUP_WORDS],
                    live: bit,
                });
                group.words[at] = word;
                *slot = Some(group);
            }
            return 0;
        };
        let prev = std::mem::replace(&mut group.words[at], word);
        if word != 0 {
            group.live |= bit;
        } else {
            group.live &= !bit;
            if group.live == 0 {
                *slot = None;
            }
        }
        prev
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
