//! Differential and isolation property test for the region list.
//!
//! [`Mm`] keeps its regions sorted by start address in groups of at
//! most 32 shared pointers, each group shared copy-on-write: a fork
//! copies the group pointers, a change rebuilds the one group it lands
//! in, and a change to a region copies that region first. Before that
//! it kept one vector of region pointers, and before that a
//! `BTreeMap<u32, Vma>` keyed by start address, cloned whole at every
//! fork. This file keeps the map, verbatim, as the specification
//! ([`RefRegions`] below — its overlap query and its `carve` are the
//! filter over every region they were before they became range
//! operations), and drives a *family* of forked address spaces and
//! their reference twins with the same random operations — in a narrow
//! window where regions abut and split, and runs of one-page regions
//! across a wide one, so lists reach three groups and more and the
//! operations cross group boundaries. After every one:
//!
//! - each member observes what its twin observes — every region field
//!   for field, and the answer the operation itself gave;
//! - each member's list passes [`Mm::verify_regions`]: regions sorted,
//!   disjoint, non-empty and page-aligned, groups non-empty, at most 32
//!   long and ascending;
//! - **no member but the one operated on observes any change** — the
//!   copy-on-write rule, checked directly rather than through the twins
//!   (a twin is a deep copy, so it cannot get this wrong).
//!
//! The test counts the cases in which a member held more than 64
//! regions and fails if fewer than a quarter did. CI runs this file in
//! the release profile at 2,048 cases too.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use sat_mmu::PtpStore;
use sat_phys::{FileId, PhysMem};
use sat_types::{
    Asid, Perms, Pid, RegionTag, SatError, SatResult, VaRange, VirtAddr, KERNEL_SPACE_START,
    PAGE_SIZE,
};
use sat_vm::mm::MMAP_BASE;
use sat_vm::{Backing, Mm, Vma};

/// The region map `Mm` had: regions keyed by start address. Do not
/// "optimise" it; its value is being obviously correct.
#[derive(Clone, Default)]
struct RefRegions {
    vmas: BTreeMap<u32, Vma>,
}

impl RefRegions {
    fn vma_at(&self, va: VirtAddr) -> Option<&Vma> {
        self.vmas
            .range(..=va.raw())
            .next_back()
            .map(|(_, v)| v)
            .filter(|v| v.range.contains(va))
    }

    fn mark_global(&mut self, va: VirtAddr) -> bool {
        let vma = self
            .vmas
            .range_mut(..=va.raw())
            .next_back()
            .map(|(_, v)| v)
            .filter(|v| v.range.contains(va));
        vma.map(|v| v.global = true).is_some()
    }

    fn vmas_overlapping(&self, range: VaRange) -> Vec<&Vma> {
        self.vmas
            .values()
            .filter(|v| v.range.overlaps(&range))
            .collect()
    }

    fn insert_vma(&mut self, vma: Vma) -> SatResult<()> {
        if vma.range.is_empty() {
            return Err(SatError::InvalidArgument);
        }
        if !vma.range.start.is_page_aligned() || !vma.range.end.is_page_aligned() {
            return Err(SatError::InvalidArgument);
        }
        if !self.vmas_overlapping(vma.range).is_empty() {
            return Err(SatError::MappingOverlap);
        }
        self.vmas.insert(vma.range.start.raw(), vma);
        Ok(())
    }

    fn carve(&mut self, range: VaRange) -> Vec<Vma> {
        // The map's `carve` split an empty range that lay inside a
        // region at the same address twice and panicked; no caller
        // passed one. The list defines it: nothing is removed.
        if range.is_empty() {
            return Vec::new();
        }
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

    fn find_free(&self, len: u32, align: u32) -> SatResult<VirtAddr> {
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
        if end > KERNEL_SPACE_START as u64 {
            return Err(SatError::OutOfMemory);
        }
        Ok(VirtAddr::new(candidate))
    }
}

/// Everything a region says, comparable (`Vma` is not).
type Seen = (
    VaRange,
    Perms,
    Backing,
    (bool, bool, bool),
    RegionTag,
    Arc<str>,
);

fn seen(v: &Vma) -> Seen {
    let flags = (v.shared, v.global, v.dont_share_ptp);
    (
        v.range,
        v.perms,
        v.backing,
        flags,
        v.tag,
        Arc::clone(&v.name),
    )
}

/// The window the operations play in: a few pages below [`MMAP_BASE`]
/// (where `find_free` starts) to a few dozen above, so regions abut,
/// leave holes, and get split again and again.
const WINDOW_BASE: u32 = MMAP_BASE.raw() - 4 * PAGE_SIZE;
const WINDOW_PAGES: u32 = 48;

/// The wider window [`Op::Runs`] lays its regions across, from the
/// same base: room for a few hundred one-page regions a page apart, so
/// a member's list grows past one group and its groups split, and the
/// carves, lookups and marks drawn from it cross group boundaries.
const WIDE_PAGES: u32 = 512;

/// Regions a list must hold for a case to count as reaching three
/// groups or more: past two full groups.
const MANY: usize = 64;

#[derive(Clone, Debug)]
enum Op {
    /// A new member: a child of `member`.
    Fork,
    /// `insert_vma` of a region `pages` long at `page` of the window,
    /// `skew` bytes off alignment (mostly 0).
    Insert {
        page: u32,
        pages: u32,
        skew: u32,
        file: bool,
    },
    /// `insert_vma` of `count` one-page regions a page apart from
    /// `page` of the wide window on.
    Runs { page: u32, count: u32, file: bool },
    /// `carve` of the page range — empty and inverted ones included.
    Carve { from: u32, to: u32 },
    /// `vma_at` of a byte address.
    At { offset: u32 },
    /// `vmas_overlapping` / `any_vma_overlaps` of a byte range — empty
    /// and inverted ones included.
    Overlapping { from: u32, to: u32 },
    /// `find_free`.
    FindFree { pages: u32, align_pages: u32 },
    /// `mark_global` of a byte address.
    MarkGlobal { offset: u32 },
}

fn insert() -> impl Strategy<Value = Op> {
    // One insert in nine is off alignment; `pages` may be 0.
    let skew = (0u32..9, 1..PAGE_SIZE).prop_map(|(n, skew)| if n == 0 { skew } else { 0 });
    (0..WINDOW_PAGES, 0u32..7, skew, any::<bool>()).prop_map(|(page, pages, skew, file)| {
        Op::Insert {
            page,
            pages,
            skew,
            file,
        }
    })
}

/// A run of up to 40 regions from anywhere in the wide window.
fn runs() -> impl Strategy<Value = Op> {
    (0..WIDE_PAGES, 1u32..41, any::<bool>()).prop_map(|(page, count, file)| Op::Runs {
        page,
        count,
        file,
    })
}

/// A carve within the first `pages` of the window.
fn carve(pages: u32) -> impl Strategy<Value = Op> {
    (0..pages + 1, 0..pages + 1).prop_map(|(from, to)| Op::Carve { from, to })
}

/// A carve of up to 23 pages from anywhere in the wide window: a
/// dozen regions of a run at most, so the lists keep their length.
fn short_carve() -> impl Strategy<Value = Op> {
    (0..WIDE_PAGES, 0u32..24).prop_map(|(from, pages)| Op::Carve {
        from,
        to: from + pages,
    })
}

fn overlapping(pages: u32) -> impl Strategy<Value = Op> {
    let bytes = pages * PAGE_SIZE;
    (0..bytes, 0..bytes, 0u32..4).prop_map(|(from, to, shape)| match shape {
        // As drawn (half of them inverted), empty, or ordered.
        0 => Op::Overlapping { from, to },
        1 => Op::Overlapping { from, to: from },
        _ => Op::Overlapping {
            from: from.min(to),
            to: from.max(to),
        },
    })
}

/// An operation and the (not yet reduced) index of the member it is
/// for. Listed more than once: drawn more often.
fn op_strategy() -> impl Strategy<Value = (usize, Op)> {
    let (bytes, wide) = (WINDOW_PAGES * PAGE_SIZE, WIDE_PAGES * PAGE_SIZE);
    let align = prop_oneof![Just(1u32), Just(2), Just(8), Just(512)];
    let op = prop_oneof![
        Just(Op::Fork),
        insert(),
        insert(),
        insert(),
        runs(),
        runs(),
        carve(WINDOW_PAGES),
        carve(WINDOW_PAGES),
        short_carve(),
        (0..bytes).prop_map(|offset| Op::At { offset }),
        (0..wide).prop_map(|offset| Op::At { offset }),
        overlapping(WINDOW_PAGES),
        overlapping(WIDE_PAGES),
        (1u32..9, align).prop_map(|(pages, align_pages)| Op::FindFree { pages, align_pages }),
        (0..bytes).prop_map(|offset| Op::MarkGlobal { offset }),
        (0..wide).prop_map(|offset| Op::MarkGlobal { offset }),
    ];
    (any::<usize>(), op)
}

/// A family member and its reference twin.
struct Member {
    mm: Mm,
    twin: RefRegions,
}

impl Member {
    fn observed(&self) -> Vec<Seen> {
        self.mm.vmas().map(seen).collect()
    }

    /// The member agrees with its twin and its list is well formed
    /// ([`Mm::verify_regions`]: the regions and the groups holding them).
    fn check(&self, what: &str) -> Result<(), TestCaseError> {
        let observed = self.observed();
        let expected: Vec<Seen> = self.twin.vmas.values().map(seen).collect();
        prop_assert_eq!(&observed, &expected, "{}", what);
        prop_assert_eq!(self.mm.vma_count(), expected.len());
        let verified = self.mm.verify_regions();
        prop_assert!(verified.is_ok(), "{}: {:?}", what, verified);
        Ok(())
    }
}

fn at(offset: u32) -> VirtAddr {
    VirtAddr::new(WINDOW_BASE + offset)
}

/// A raw range: `VaRange::new` refuses an inverted one, the queries
/// must not.
fn span(from: u32, to: u32) -> VaRange {
    VaRange {
        start: at(from),
        end: at(to),
    }
}

/// A region `pages` long at `page` of the window, `skew` bytes off
/// alignment.
fn region(page: u32, pages: u32, skew: u32, file: bool) -> Vma {
    let range = span(page * PAGE_SIZE + skew, (page + pages) * PAGE_SIZE + skew);
    let name = format!("r{page}+{pages}");
    if file {
        Vma::file(
            range,
            Perms::RX,
            FileId(page),
            page,
            RegionTag::OtherLibCode,
            &name,
        )
    } else {
        Vma::anon(range, Perms::RW, RegionTag::Heap, &name)
    }
}

fn apply(
    family: &mut Vec<Member>,
    phys: &mut PhysMem,
    who: usize,
    op: &Op,
) -> Result<(), TestCaseError> {
    if let Op::Fork = op {
        let pid = Pid::new(family.len() as u32 + 1);
        let mut mm = Mm::new(phys, pid, Asid::new(1)).unwrap();
        let parent = &family[who];
        mm.adopt_regions(parent.mm.fork_regions());
        let twin = parent.twin.clone();
        family.push(Member { mm, twin });
        return Ok(());
    }
    let Member { mm, twin } = &mut family[who];
    match *op {
        Op::Fork => unreachable!("handled above"),
        Op::Insert {
            page,
            pages,
            skew,
            file,
        } => {
            let vma = region(page, pages, skew, file);
            prop_assert_eq!(mm.insert_vma(vma.clone()), twin.insert_vma(vma));
        }
        Op::Runs { page, count, file } => {
            for page in (page..).step_by(2).take(count as usize) {
                let vma = region(page, 1, 0, file);
                prop_assert_eq!(mm.insert_vma(vma.clone()), twin.insert_vma(vma));
            }
        }
        Op::Carve { from, to } => {
            let range = span(from * PAGE_SIZE, to * PAGE_SIZE);
            let removed: Vec<Seen> = mm.carve(range).iter().map(seen).collect();
            let expected: Vec<Seen> = twin.carve(range).iter().map(seen).collect();
            prop_assert_eq!(removed, expected, "carve {:?}", range);
        }
        Op::At { offset } => {
            let va = at(offset);
            prop_assert_eq!(mm.vma_at(va).map(seen), twin.vma_at(va).map(seen));
        }
        Op::Overlapping { from, to } => {
            let range = span(from, to);
            let queried: Vec<Seen> = mm.vmas_overlapping(range).map(seen).collect();
            let scanned: Vec<Seen> = twin.vmas_overlapping(range).into_iter().map(seen).collect();
            prop_assert_eq!(mm.any_vma_overlaps(range), !scanned.is_empty());
            prop_assert_eq!(queried, scanned, "overlapping {:?}", range);
        }
        Op::FindFree { pages, align_pages } => {
            let (len, align) = (pages * PAGE_SIZE, align_pages * PAGE_SIZE);
            prop_assert_eq!(mm.find_free(len, align), twin.find_free(len, align));
        }
        Op::MarkGlobal { offset } => {
            let va = at(offset);
            prop_assert_eq!(mm.mark_global(va), twin.mark_global(va));
        }
    }
    Ok(())
}

/// Members a family grows to; forks past it are skipped.
const FAMILY: usize = 6;

/// Plays `ops` on a family grown from one empty member, checking every
/// member after each; returns the most regions any member held.
fn play(ops: &[(usize, Op)]) -> Result<usize, TestCaseError> {
    let mut phys = PhysMem::new(64);
    let mm = Mm::new(&mut phys, Pid::new(1), Asid::new(1)).unwrap();
    let mut family = vec![Member {
        mm,
        twin: RefRegions::default(),
    }];
    let mut most = 0;
    for (step, (who, op)) in ops.iter().enumerate() {
        if matches!(op, Op::Fork) && family.len() == FAMILY {
            continue;
        }
        let who = who % family.len();
        let before: Vec<Vec<Seen>> = family.iter().map(Member::observed).collect();
        apply(&mut family, &mut phys, who, op)?;
        let what = format!("step {step}, member {who}: {op:?}");
        for (i, member) in family.iter().enumerate() {
            member.check(&what)?;
            // The copy-on-write rule: whatever `who` did, it did to
            // itself (a fork: to nobody).
            if i != who && i < before.len() {
                prop_assert_eq!(
                    &member.observed(),
                    &before[i],
                    "{}: member {} moved",
                    what,
                    i
                );
            }
        }
        if matches!(op, Op::Fork) {
            prop_assert_eq!(&family[who].observed(), &before[who], "{}", what);
        }
        most = most.max(family[who].mm.vma_count());
    }
    for member in family {
        sat_vm::exit_mmap(member.mm, &mut PtpStore::new(), &mut phys, |_| {});
    }
    Ok(most)
}

/// The differential, case by case, counting the cases in which a
/// member's list grew past [`MANY`] regions: at least a quarter must,
/// or the generator has lost its reach into third groups and the
/// boundaries between them.
#[test]
fn region_list_equals_the_map_and_no_relative_sees_a_change() {
    let name = "region_list_equals_the_map_and_no_relative_sees_a_change";
    let config = ProptestConfig::default();
    let ops = prop::collection::vec(op_strategy(), 1..120);
    let (mut reached, mut cases) = (0, 0);
    // The cases `proptest!` would run, by the same name and seeds, with
    // a count kept across them.
    proptest::run_cases(name, &config, |rng| {
        let most = play(&ops.generate(rng))?;
        cases += 1;
        reached += usize::from(most > MANY);
        Ok(())
    });
    assert!(
        4 * reached >= cases,
        "{reached} of {cases} cases held more than {MANY} regions"
    );
}
