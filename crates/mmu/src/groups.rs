//! Descriptor-word storage for both table levels, held by populated
//! group, each group holding only its non-zero words and shared
//! copy-on-write between the tables that hold the same words.
//!
//! A zygote child's tables are sparse: at the stock kernel's
//! `fleet_churn` peak a page-table page holds 4.3 of its 512 slots and
//! a root table 77 of its 4,096 entries, in 1.14 and 5.2 groups of 64,
//! and about 10,900 of the 15,095 live groups hold six words or fewer.
//! [`Groups`] therefore stores a table as `N` groups of
//! [`GROUP_WORDS`] words and keeps only the groups that hold a
//! non-zero word: a group is allocated when its first non-zero word is
//! written and released when its last is cleared, and an absent group
//! reads as all zeroes — the all-fault encoding at both levels. A
//! group in turn keeps its live set (bit `i` for word `i`) and only
//! the non-zero words, in index order: word `i` is at the rank
//! `popcount(live & (2^i - 1))`. Up to [`INLINE`] words sit in the
//! group itself, beside where a larger group's spilled words are
//! pointed at, so a group costs 56 bytes where a dense one cost 280. A
//! table costs the host what it holds, not what it could.
//!
//! Most of what a stock fork copies it copies word for word: both
//! sides of a COW-protected anonymous PTE end up with the same word.
//! A group is therefore an `Arc`, and a fork installs each group it
//! copied once ([`Groups::install`]): as the parent's group wherever
//! the live set and the words are the parent's, else as one allocation
//! of exactly its words — the paper's PTP sharing (§3.1), applied to
//! the simulator's heap rather than to the simulated machine. A write
//! to a group no other table holds edits it in place; a write to a
//! shared one copies it first (`Arc::make_mut`), so no table ever sees
//! a sibling's change. A write that leaves the word as it was changes
//! nothing, and one that clears a group's last word drops the pointer
//! without copying. Sharing is by equality, not by prediction: the
//! words are compared before anything is allocated, so no rule about
//! which PTEs a fork copies has to hold for the tables to stay
//! isolated.
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

/// Words a group holds without a heap block of their own: as many as
/// fit in the room a spilled group's vector takes.
const INLINE: usize = 6;

/// One populated group: the set of its non-zero words (bit `i` for
/// word `i`) and those words, in index order. What a group holds is
/// its live set and its live words ([`Group::words`]); an inline slot
/// past the live count is stale and never read.
#[derive(Clone)]
struct Group {
    live: u64,
    words: Words,
}

/// A group's non-zero words: inline while there are at most [`INLINE`]
/// of them, spilled to the heap beyond.
#[derive(Clone)]
enum Words {
    Inline([u32; INLINE]),
    Spill(Vec<u32>),
}

const _: () = assert!(std::mem::size_of::<Group>() <= 40);

impl Group {
    /// A group holding `word` at `at` alone.
    fn one(at: usize, word: u32) -> Group {
        let mut words = [0; INLINE];
        words[0] = word;
        Group {
            live: 1 << at,
            words: Words::Inline(words),
        }
    }

    /// A group holding `words`, in index order, at the members of
    /// `live`: inline when they fit, else in a vector of exactly their
    /// length.
    fn of(live: u64, words: &[u32]) -> Group {
        debug_assert_eq!(live.count_ones() as usize, words.len());
        debug_assert!(!words.contains(&0), "a group stores no zero word");
        let words = match words.len() {
            n if n <= INLINE => {
                let mut inline = [0; INLINE];
                inline[..n].copy_from_slice(words);
                Words::Inline(inline)
            }
            _ => Words::Spill(words.to_vec()),
        };
        Group { live, words }
    }

    /// Number of non-zero words.
    fn len(&self) -> usize {
        self.live.count_ones() as usize
    }

    /// Where word `at` is, or would be, among the stored words.
    #[inline]
    fn rank(&self, at: usize) -> usize {
        (self.live & !(u64::MAX << at)).count_ones() as usize
    }

    /// The non-zero words, in index order.
    fn words(&self) -> &[u32] {
        &self.stored_from(0)[..self.len()]
    }

    /// The stored words from `rank` on, stale inline slots included.
    fn stored_from(&self, rank: usize) -> &[u32] {
        match &self.words {
            Words::Inline(words) => &words[rank..],
            Words::Spill(words) => &words[rank..],
        }
    }

    /// The word at `at`.
    #[inline]
    fn get(&self, at: usize) -> u32 {
        if self.live & 1 << at == 0 {
            return 0;
        }
        self.stored(self.rank(at))
    }

    /// The stored word at `rank`.
    #[inline]
    fn stored(&self, rank: usize) -> u32 {
        match &self.words {
            Words::Inline(words) => words[rank],
            Words::Spill(words) => words[rank],
        }
    }

    /// Writes `word` at `at`, whose rank is `rank`, where the group
    /// holds `prev`: the two differ, and the caller drops a group
    /// instead of clearing its last word.
    fn set(&mut self, at: usize, rank: usize, prev: u32, word: u32) {
        if prev != 0 && word != 0 {
            match &mut self.words {
                Words::Inline(words) => words[rank] = word,
                Words::Spill(words) => words[rank] = word,
            }
            return;
        }
        self.live ^= 1 << at;
        match (&mut self.words, word) {
            // The slot past the last word is left stale.
            (Words::Inline(words), 0) => {
                for i in rank..INLINE - 1 {
                    words[i] = words[i + 1];
                }
            }
            (Words::Spill(words), 0) => {
                words.remove(rank);
                if let Ok(inline) = <[u32; INLINE]>::try_from(&words[..]) {
                    self.words = Words::Inline(inline);
                }
            }
            (Words::Inline(words), _) if self.live.count_ones() as usize <= INLINE => {
                for i in (rank + 1..INLINE).rev() {
                    words[i] = words[i - 1];
                }
                words[rank] = word;
            }
            (Words::Inline(words), _) => {
                let mut spill = Vec::with_capacity(2 * INLINE);
                spill.extend_from_slice(&words[..rank]);
                spill.push(word);
                spill.extend_from_slice(&words[rank..]);
                self.words = Words::Spill(spill);
            }
            (Words::Spill(words), _) => {
                // Doubling, but never past a full group.
                if words.len() == words.capacity() {
                    words.reserve_exact(words.len().min(GROUP_WORDS - words.len()));
                }
                words.insert(rank, word);
            }
        }
    }
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

    /// The word at `idx`: a test of the group's live set and, for a
    /// word it holds, one popcount to find it.
    #[inline]
    pub(crate) fn get(&self, idx: usize) -> u32 {
        match &self.groups[idx / GROUP_WORDS] {
            Some(group) => group.get(idx % GROUP_WORDS),
            None => 0,
        }
    }

    /// Writes `word` at `idx` and returns the word it replaces. The
    /// group is allocated by its first non-zero word and released with
    /// its last; a group only this table holds is edited in place, and
    /// one other tables hold is copied before it is changed, and not at
    /// all when the word is already `word`.
    pub(crate) fn set(&mut self, idx: usize, word: u32) -> u32 {
        let slot = &mut self.groups[idx / GROUP_WORDS];
        let at = idx % GROUP_WORDS;
        let Some(group) = slot else {
            if word != 0 {
                *slot = Some(Arc::new(Group::one(at, word)));
            }
            return 0;
        };
        let rank = group.rank(at);
        let prev = if group.live & 1 << at != 0 {
            group.stored(rank)
        } else {
            0
        };
        if prev == word {
            return prev;
        }
        if word == 0 && group.live == 1 << at {
            *slot = None;
            return prev;
        }
        Arc::make_mut(group).set(at, rank, prev, word);
        prev
    }

    /// Installs group `g` as the words `words`, in index order, at the
    /// members of `live`, replacing what it held: `donor`'s group at
    /// `g` itself when that holds the same live set and words, else
    /// one allocation of exactly these (none when `live` is empty).
    /// No word of `donor` changes, and a later write to either table
    /// copies a shared group first.
    pub(crate) fn install(&mut self, g: usize, live: u64, words: &[u32], donor: &Groups<N>) {
        self.groups[g] = match &donor.groups[g] {
            Some(theirs) if theirs.live == live && theirs.words() == words => {
                Some(Arc::clone(theirs))
            }
            _ if live == 0 => None,
            _ => Some(Arc::new(Group::of(live, words))),
        };
    }

    /// The live set of group `g` and its words, in index order.
    pub(crate) fn group(&self, g: usize) -> (u64, &[u32]) {
        match &self.groups[g] {
            Some(group) => (group.live, group.words()),
            None => (0, &[]),
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
        self.in_range(range).map(Group::len).sum()
    }

    /// The groups that overlap `range`, each as its index, the members
    /// of its live set that lie in `range`, and its stored words from
    /// the first of them on: one rank a group.
    fn runs(&self, range: Range<usize>) -> impl Iterator<Item = (usize, u64, &[u32])> {
        let groups = if range.is_empty() {
            0..0
        } else {
            range.start / GROUP_WORDS..range.end.div_ceil(GROUP_WORDS)
        };
        groups.filter_map(move |g| {
            let group = self.groups[g].as_deref()?;
            let base = g * GROUP_WORDS;
            let lo = range.start.max(base) - base;
            let hi = range.end.min(base + GROUP_WORDS) - base;
            // Bits `lo..hi`; the group overlaps the range, so `hi > lo`.
            let in_range = u64::MAX >> (GROUP_WORDS - (hi - lo)) << lo;
            Some((g, group.live & in_range, group.stored_from(group.rank(lo))))
        })
    }

    /// The non-zero words among `range` as `(idx, word)`, in ascending
    /// order: O(words held), not O(range).
    pub(crate) fn iter(&self, range: Range<usize>) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.runs(range).flat_map(|(g, mut left, words)| {
            let bits = std::iter::from_fn(move || {
                let at = (left != 0).then(|| left.trailing_zeros() as usize)?;
                left &= left - 1;
                Some(g * GROUP_WORDS + at)
            });
            bits.zip(words.iter().copied())
        })
    }

    /// Calls `f(idx, word)` for the non-zero words among `range`, in
    /// ascending order: [`Groups::iter`] as one loop a group, the live
    /// bits walked against the stored words.
    pub(crate) fn for_each(&self, range: Range<usize>, mut f: impl FnMut(usize, u32)) {
        for (g, mut left, words) in self.runs(range) {
            for &word in words {
                if left == 0 {
                    break;
                }
                f(g * GROUP_WORDS + left.trailing_zeros() as usize, word);
                left &= left - 1;
            }
        }
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

    /// Installs every group of `self` anew with `donor` as the donor:
    /// the isolation differential's way to build a table that holds
    /// another's groups where they are equal.
    #[cfg(test)]
    pub(crate) fn reinstall_from(&mut self, donor: &Groups<N>) {
        for g in 0..N {
            let (live, words) = self.group(g);
            let words = words.to_vec();
            self.install(g, live, &words, donor);
        }
    }

    /// Checks that every allocated group holds at least one word, that
    /// it stores one word for each member of its live set (inline
    /// exactly when they fit), and that no stored word is zero.
    pub(crate) fn verify(&self) -> Result<(), String> {
        for (g, group) in self.groups.iter().enumerate() {
            let Some(group) = group else { continue };
            let live = group.len();
            if live == 0 {
                return Err(format!("group {g} is allocated but holds no word"));
            }
            let stored = match &group.words {
                Words::Inline(_) if live > INLINE => {
                    return Err(format!("group {g} holds {live} words inline"));
                }
                Words::Inline(_) => live,
                Words::Spill(words) if words.len() <= INLINE => {
                    return Err(format!("group {g} spills {} words", words.len()));
                }
                Words::Spill(words) => words.len(),
            };
            if stored != live {
                return Err(format!(
                    "group {g} stores {stored} words for live set {:#018x}",
                    group.live
                ));
            }
            if let Some(rank) = group.words().iter().position(|&word| word == 0) {
                return Err(format!("group {g} stores a zero word at rank {rank}"));
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

    /// Installs group `g` of `into` as `words` at `live` with `donor`
    /// as the donor, checks `verify`, and says whether `into` now holds
    /// the donor's group itself.
    fn installs_donors(into: &mut Pair, g: usize, live: u64, words: &[u32], donor: &Pair) -> bool {
        into.install(g, live, words, donor);
        into.verify().unwrap();
        assert_eq!(into.group(g), (live, words), "group {g} reads back");
        match (&into.groups[g], &donor.groups[g]) {
            (Some(mine), Some(theirs)) => Arc::ptr_eq(mine, theirs),
            _ => false,
        }
    }

    #[test]
    fn install_takes_the_donors_group_exactly_when_its_words_are_equal() {
        let mut donor = Pair::new();
        for idx in [1, 2, 65] {
            donor.set(idx, idx as u32);
        }
        let before: Vec<_> = donor.iter(0..128).collect();
        let mut a = Pair::new();
        // The donor's live set and words: its group itself.
        assert!(installs_donors(&mut a, 0, 0b110, &[1, 2], &donor));
        assert!(installs_donors(&mut a, 1, 0b10, &[65], &donor));
        assert_eq!((a.shared(), donor.shared()), (2, 2));
        // One word different, the same words at other places, a word
        // more and a word fewer: a group of its own.
        for (live, words) in [
            (0b110, &[1, 3][..]),
            (0b1010, &[1, 2]),
            (0b1110, &[1, 2, 3]),
            (0b10, &[1]),
        ] {
            assert!(
                !installs_donors(&mut a, 0, live, words, &donor),
                "{live:#b}"
            );
        }
        assert_eq!((a.shared(), donor.shared()), (1, 1));
        // A group the donor does not hold; then none at all.
        let mut empty = Pair::new();
        assert!(!installs_donors(&mut empty, 1, 0b10, &[65], &Pair::new()));
        assert!(!installs_donors(&mut a, 1, 0, &[], &donor));
        assert_eq!((a.populated(), donor.shared()), (1, 0));
        // No word of the donor moved.
        assert_eq!(donor.iter(0..128).collect::<Vec<_>>(), before);
    }

    #[test]
    fn an_installed_group_is_inline_to_six_words_and_exact_above() {
        for n in [1, INLINE, INLINE + 1, 12, 13, GROUP_WORDS] {
            let live = u64::MAX >> (GROUP_WORDS - n);
            let words: Vec<u32> = (1..=n as u32).collect();
            let mut a = Pair::new();
            assert!(!installs_donors(&mut a, 1, live, &words, &Pair::new()));
            match &a.groups[1].as_deref().unwrap().words {
                Words::Inline(_) => assert!(n <= INLINE, "{n} words inline"),
                Words::Spill(spilled) => {
                    assert!(n > INLINE, "{n} words spilled");
                    assert_eq!(spilled.capacity(), n, "{n} words");
                }
            }
            // It takes writes as any group does.
            let mut dense = [0u32; 128];
            dense[64..64 + n].copy_from_slice(&words);
            for (idx, word) in [(64, 0), (127, 5), (65, 9)] {
                a.set(idx, word);
                dense[idx] = word;
            }
            assert_reads(&a, &dense);
        }
    }

    /// Every answer `a` gives, against a dense copy of its words.
    fn assert_reads(a: &Pair, dense: &[u32; 128]) {
        for (idx, &word) in dense.iter().enumerate() {
            assert_eq!(a.get(idx), word, "word {idx}");
        }
        for range in [0..128, 3..61, 5..70, 64..65, 40..40] {
            let held = range.clone().map(|idx| (idx, dense[idx]));
            assert_eq!(
                a.iter(range.clone()).collect::<Vec<_>>(),
                held.filter(|&(_, word)| word != 0).collect::<Vec<_>>(),
                "{range:?}"
            );
        }
        a.verify().unwrap();
    }

    #[test]
    fn the_seventh_word_spills_and_removals_bring_it_back_inline() {
        let (mut a, mut dense) = (Pair::new(), [0u32; 128]);
        // Out of index order, so each insert lands between held words.
        let order = [40, 2, 63, 17, 0, 33, 9, 50, 25];
        for (n, &idx) in order.iter().enumerate() {
            let word = 0x100 + idx as u32;
            assert_eq!(a.set(idx, word), 0);
            dense[idx] = word;
            let spilled = matches!(a.groups[0].as_deref().unwrap().words, Words::Spill(_));
            assert_eq!(spilled, n + 1 > INLINE, "{} words", n + 1);
            assert_reads(&a, &dense);
        }
        // A rewrite in a spilled group, then removals down to one word.
        a.set(17, 7);
        dense[17] = 7;
        assert_reads(&a, &dense);
        for &idx in &order[..order.len() - 1] {
            assert_eq!(a.set(idx, 0), dense[idx]);
            dense[idx] = 0;
            assert_reads(&a, &dense);
        }
        assert_eq!(a.count(0..64), 1);
        a.set(25, 0);
        assert_eq!(a.populated(), 0);
    }

    #[test]
    fn groups_reached_by_different_orders_are_equal_and_installed_as_one() {
        let (mut a, mut b) = (Pair::new(), Pair::new());
        // `a` goes past the inline words and back; `b` never spills,
        // and leaves a stale inline word behind a removal.
        for idx in [1, 2, 3, 4, 5, 6, 7, 8] {
            a.set(idx, 9);
        }
        for idx in [8, 7, 1] {
            a.set(idx, 0);
        }
        for idx in [6, 5, 4, 3, 2] {
            b.set(idx, 9);
        }
        b.set(60, 5);
        b.set(60, 0);
        assert_eq!(
            a.iter(0..64).collect::<Vec<_>>(),
            b.iter(0..64).collect::<Vec<_>>()
        );
        // A copy of those words installs as either one's group.
        let (live, words) = (0b111_1100, [9; 5]);
        let mut c = Pair::new();
        assert!(installs_donors(&mut c, 0, live, &words, &a));
        assert!(installs_donors(&mut c, 0, live, &words, &b));
        // And either one, installed anew from the other, takes it.
        b.reinstall_from(&a);
        assert_eq!((a.shared(), b.shared()), (1, 1));
        // Different live sets over equal words are not equal.
        assert!(!installs_donors(&mut c, 0, 0b1011_1100, &words, &a));
    }

    #[test]
    fn verify_rejects_a_word_count_the_live_set_disagrees_with() {
        let mut a = Pair::new();
        for idx in 0..8 {
            a.set(idx, 1);
        }
        a.verify().unwrap();
        let group = Arc::make_mut(a.groups[0].as_mut().unwrap());
        group.live &= !1;
        let err = a.verify().unwrap_err();
        assert!(err.contains("stores 8 words"), "{err}");
        // Inline words past the live count are stale, not counted; too
        // many live words for the inline slots is an error.
        let mut b = Pair::new();
        b.set(70, 1);
        Arc::make_mut(b.groups[1].as_mut().unwrap()).live = 0xFF;
        let err = b.verify().unwrap_err();
        assert!(err.contains("inline"), "{err}");
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
