//! The stock side of `fork`: which PTEs a fork copies eagerly, and the
//! copy itself (`copy_page_range`), one region at a time.
//!
//! Linux skips copying PTEs for file-backed mappings — soft page
//! faults refill them in the child — but must copy PTEs for anonymous
//! memory (and write-protect private writable pages in both parent and
//! child for COW). The paper's Table 4 compares three fork variants on
//! the zygote:
//!
//! - **Stock** ([`ForkPtePolicy::Stock`]): copy anonymous PTEs only.
//! - **Copied PTEs** ([`ForkPtePolicy::CopyAll`]): additionally copy
//!   the file-backed PTEs of the zygote-preloaded shared code — faster
//!   launches but a 58.6% slower fork and more PTPs.
//! - **Shared PTPs**: the paper's mechanism.
//!
//! The fork itself lives in `sat-core` (`fork.rs`): it calls
//! [`copy_vma_ptes_in_range`], clamped to a 2MB chunk, for every chunk
//! it does not share — under the first two kernels, every chunk.

use sat_mmu::{Mapper, PtpStore};
use sat_phys::PhysMem;
use sat_types::{Domain, SatResult, VaRange};

use crate::mm::Mm;
use crate::vma::{Backing, Vma};

/// Which PTEs `fork` copies eagerly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ForkPtePolicy {
    /// Stock Linux: copy anonymous mappings, skip file-backed ones.
    Stock,
    /// Copy every populated PTE, including file-backed mappings (the
    /// paper's "Copied PTEs" comparison kernel).
    CopyAll,
}

/// What the copies of one fork did so far, for the Table 4 accounting
/// ([`copy_vma_ptes_in_range`] adds to it).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct ForkReport {
    /// PTEs copied from parent to child.
    pub ptes_copied: u64,
    /// Of those, PTEs belonging to file-backed mappings (cheaper to
    /// copy than anonymous ones, which also need COW protection).
    pub ptes_copied_file: u64,
    /// PTPs allocated for the child.
    pub ptps_allocated: u64,
    /// Parent PTEs newly write-protected for COW.
    pub cow_protected: u64,
}

/// Returns `true` if the policy copies this region's PTEs at fork.
///
/// Stock Linux copies anonymous mappings and any private *writable*
/// file mapping (data segments acquire anonymous COW pages from
/// relocation processing, and refaulting those from the file would
/// lose the written data); read-only/executable file mappings are
/// skipped and refault in the child.
pub fn copies_ptes(policy: ForkPtePolicy, vma: &Vma) -> bool {
    match policy {
        ForkPtePolicy::Stock => match vma.backing {
            Backing::Anon => true,
            Backing::File { .. } => !vma.shared && vma.perms.write(),
        },
        ForkPtePolicy::CopyAll => true,
    }
}

/// Copies the populated PTEs of `vma` that fall within `clamp` from
/// `parent` to `child`, COW-protecting private writable pages in both.
///
/// A copy that runs out of frames part-way returns the error with the
/// PTEs copied so far in place — and the parent PTEs behind them
/// already write-protected, which `report.cow_protected` shows. The
/// caller owns the child's teardown and the parent's TLB flush.
#[allow(clippy::too_many_arguments)]
pub fn copy_vma_ptes_in_range(
    parent: &mut Mm,
    child: &mut Mm,
    ptps: &mut PtpStore,
    phys: &mut PhysMem,
    vma: &Vma,
    clamp: VaRange,
    child_domain: Domain,
    report: &mut ForkReport,
) -> SatResult<()> {
    let Some(range) = vma.range.intersect(&clamp) else {
        return Ok(());
    };
    // Collect the parent's populated PTEs first (cannot hold a borrow
    // of the parent's tables while mutating the child's).
    let parent_ptes = {
        let parent_mapper = Mapper::new(&mut parent.root, ptps, phys, parent.pid);
        parent_mapper.iter_range(range)
    };
    let cow = vma.is_private_writable();
    for (va, slot) in parent_ptes {
        let mut hw = slot.hw;
        if cow && hw.perms.write() {
            // Write-protect in the parent...
            let mut pm = Mapper::new(&mut parent.root, ptps, phys, parent.pid);
            pm.update_pte(va, |hw, _| *hw = hw.write_protected());
            report.cow_protected += 1;
            // ...and copy the protected version into the child.
            hw = hw.write_protected();
        }
        let mut cm = Mapper::new(&mut child.root, ptps, phys, child.pid);
        let res = cm.set_pte(va, hw, slot.sw, child_domain)?;
        report.ptes_copied += 1;
        if matches!(vma.backing, Backing::File { .. }) {
            report.ptes_copied_file += 1;
        }
        if res.ptp_allocated {
            report.ptps_allocated += 1;
        }
    }
    Ok(())
}
