//! The page-fault handler: demand paging, COW, and write-enable.
//!
//! This is the stock Linux path. A soft (minor) fault finds its page
//! already in memory — for Android's zygote-preloaded shared code that
//! is the overwhelmingly common case, since the zygote warmed the page
//! cache at boot — and only has to populate the PTE. The paper
//! measures such a fault at ≈2.25µs/2,700 cycles on the Nexus 7 and
//! eliminates most of them by making PTEs populated in a *shared* PTP
//! visible to every sharer.

use sat_mmu::{HwPte, L1Entry, Mapper, PtpStore, SwPte};
use sat_phys::{FrameKind, PhysMem};
use sat_types::{AccessType, Domain, PageSize, Perms, SatError, SatResult, VirtAddr};

use crate::mm::Mm;
use crate::vma::{Backing, Vma};

/// How a fault was resolved.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Resolved without I/O (page already resident); a *soft* fault.
    Minor,
    /// Required a simulated disk read; a *hard* fault.
    Major,
    /// Copy-on-write: a private copy of the page was made.
    Cow,
    /// Write to a write-protected PTE resolved by re-enabling write
    /// (MAP_SHARED pages and exclusively-owned anonymous pages).
    WriteEnable,
    /// The PTE was already present and sufficient (e.g. another
    /// process sharing the PTP populated it first, or a stale TLB
    /// entry); nothing to do.
    Spurious,
}

/// Resolution details returned by [`handle_fault`].
#[derive(Clone, Copy, Debug)]
pub struct FaultOutcome {
    /// How the fault was resolved.
    pub kind: FaultKind,
    /// A PTP had to be allocated.
    pub ptp_allocated: bool,
    /// The faulting region is file-backed (the class counted by the
    /// paper's "page faults for file-based mappings" metric).
    pub file_backed: bool,
    /// The PTE that now serves the access carries the global bit.
    pub global: bool,
    /// Resolving the fault split a 64KB large page back to 4KB PTEs
    /// (write-protect fault on a replicated descriptor); holds the
    /// group's start address so the caller can emit the demotion and
    /// flush the stale wide translation.
    pub demoted: Option<VirtAddr>,
}

/// Per-process fault-handling policy knobs, fixed by the kernel
/// configuration and the process's zygote status.
#[derive(Clone, Copy, Debug)]
pub struct FaultCtx {
    /// Create PTEs in `global`-flagged regions with the hardware
    /// global bit set (the paper's TLB sharing, Section 3.2.3).
    pub mark_global: bool,
    /// Domain for this process's user-space level-1 entries
    /// ([`Domain::ZYGOTE`] for zygote-like processes under the paper's
    /// kernel, [`Domain::USER`] otherwise).
    pub domain: Domain,
}

impl Default for FaultCtx {
    fn default() -> Self {
        FaultCtx {
            mark_global: false,
            domain: Domain::USER,
        }
    }
}

/// Handles a page fault at `va` for `access`, exactly as the stock
/// kernel would.
///
/// The caller (the `sat-core` kernel wrapper) is responsible for
/// unsharing a NEED_COPY PTP *before* calling this for a write access;
/// the stock kernel has no shared PTPs, so this path never sees one.
pub fn handle_fault(
    mm: &mut Mm,
    ptps: &mut PtpStore,
    phys: &mut PhysMem,
    va: VirtAddr,
    access: AccessType,
    ctx: FaultCtx,
) -> SatResult<FaultOutcome> {
    let vma = mm.vma_at(va).ok_or(SatError::NotMapped(va))?.clone();
    if !vma.perms.allows(access) {
        return Err(SatError::PermissionDenied(va));
    }
    let file_backed = matches!(vma.backing, Backing::File { .. });
    let page = va.page_base();
    let mut mapper = Mapper::new(&mut mm.root, ptps, phys, mm.pid);

    let outcome = match mapper.get_pte(page) {
        Some(slot) => {
            if access.is_write() && !slot.hw.perms.write() {
                let (slot, demoted) = if slot.hw.size == PageSize::Large64K {
                    // A write-protected large page can neither COW nor
                    // re-enable one 4KB page wide: split the group
                    // first, then resolve against the small PTE.
                    mapper.split_large(page);
                    let group = VirtAddr::new(page.raw() & !(PageSize::Large64K.bytes() - 1));
                    (
                        mapper.get_pte(page).expect("split preserves the slot"),
                        Some(group),
                    )
                } else {
                    (slot, None)
                };
                let mut o = resolve_write_protect_fault(&mut mapper, &vma, page, slot.hw, slot.sw)?;
                o.demoted = demoted;
                o
            } else {
                FaultOutcome {
                    kind: FaultKind::Spurious,
                    ptp_allocated: false,
                    file_backed,
                    global: slot.hw.global,
                    demoted: None,
                }
            }
        }
        None => {
            if let L1Entry::Section { perms, global, .. } = mapper.root.entry_for(page) {
                // A 1MB section already serves the access: the
                // promotion policy only builds sections from settled
                // mappings (never mid-COW), so this is a stale-TLB
                // spurious fault, not demand paging.
                debug_assert!(!access.is_write() || perms.write());
                FaultOutcome {
                    kind: FaultKind::Spurious,
                    ptp_allocated: false,
                    file_backed,
                    global,
                    demoted: None,
                }
            } else {
                resolve_not_present(&mut mapper, &vma, page, access, ctx)?
            }
        }
    };

    // Mirror the paper's software counters.
    let c = &mut mm.counters;
    c.faults_total += 1;
    if file_backed {
        c.faults_file += 1;
    }
    match outcome.kind {
        FaultKind::Minor => c.faults_soft += 1,
        FaultKind::Major => c.faults_hard += 1,
        FaultKind::Cow => {
            c.faults_soft += 1;
            c.faults_cow += 1;
        }
        FaultKind::WriteEnable => {
            c.faults_soft += 1;
            c.faults_write_enable += 1;
        }
        FaultKind::Spurious => c.faults_spurious += 1,
    }
    if outcome.ptp_allocated {
        c.ptps_allocated += 1;
    }
    if sat_obs::enabled() {
        sat_obs::emit(
            sat_obs::Subsystem::VmFault,
            mm.pid.raw(),
            mm.asid.raw(),
            sat_obs::Payload::PageFault {
                class: match outcome.kind {
                    FaultKind::Minor => sat_obs::FaultClass::Minor,
                    FaultKind::Major => sat_obs::FaultClass::Major,
                    FaultKind::Cow => sat_obs::FaultClass::Cow,
                    FaultKind::WriteEnable => sat_obs::FaultClass::WriteEnable,
                    FaultKind::Spurious => sat_obs::FaultClass::Spurious,
                },
                va: page.raw(),
                file_backed,
            },
        );
    }
    Ok(outcome)
}

/// Write to a present but write-protected PTE: COW, or re-enable.
fn resolve_write_protect_fault(
    mapper: &mut Mapper<'_>,
    vma: &Vma,
    page: VirtAddr,
    hw: HwPte,
    sw: SwPte,
) -> SatResult<FaultOutcome> {
    debug_assert!(vma.perms.write(), "checked against VMA perms already");
    let reuse = if sw.shared {
        // MAP_SHARED: the write goes straight to the shared frame.
        true
    } else {
        // Private: reuse the frame only if we are its sole mapper
        // (do_wp_page's reuse path), otherwise copy.
        !sw.file_backed && mapper.phys.mapcount(hw.pfn) == 1
    };
    if reuse {
        mapper.update_pte(page, |hw, sw| {
            hw.perms |= Perms::W;
            sw.dirty = true;
            sw.young = true;
        });
        return Ok(FaultOutcome {
            kind: FaultKind::WriteEnable,
            ptp_allocated: false,
            file_backed: sw.file_backed,
            global: hw.global,
            demoted: None,
        });
    }
    // COW: allocate a private anonymous copy. The copy is private to
    // this process, so it must not carry the global bit.
    let copy = mapper.phys.alloc(FrameKind::Anon)?;
    let new_hw = HwPte::small(copy, vma.perms, false);
    let mut new_sw = SwPte::anon(true);
    new_sw.dirty = true;
    new_sw.young = true;
    let res = mapper.set_pte(page, new_hw, new_sw, Domain::USER)?;
    debug_assert!(res.replaced);
    mapper.phys.put_page(copy); // the PTE now holds the only reference
    Ok(FaultOutcome {
        kind: FaultKind::Cow,
        ptp_allocated: res.ptp_allocated,
        file_backed: sw.file_backed,
        global: false,
        demoted: None,
    })
}

/// Not-present fault: demand paging.
fn resolve_not_present(
    mapper: &mut Mapper<'_>,
    vma: &Vma,
    page: VirtAddr,
    access: AccessType,
    ctx: FaultCtx,
) -> SatResult<FaultOutcome> {
    match vma.backing {
        Backing::File { .. } => {
            let (file, index) = vma
                .file_page_index(page)
                .expect("file backing produces an index");
            let (frame, cached) = mapper.phys.file_page(file, index)?;
            let kind = if cached {
                FaultKind::Minor
            } else {
                FaultKind::Major
            };

            if access.is_write() && !vma.shared {
                // Private file write: COW immediately into an
                // anonymous page (the file page stays clean in the
                // page cache).
                let copy = mapper.phys.alloc(FrameKind::Anon)?;
                let mut sw = SwPte::anon(true);
                sw.dirty = true;
                sw.young = true;
                let res =
                    mapper.set_pte(page, HwPte::small(copy, vma.perms, false), sw, ctx.domain)?;
                mapper.phys.put_page(copy);
                return Ok(FaultOutcome {
                    kind,
                    ptp_allocated: res.ptp_allocated,
                    file_backed: true,
                    global: false,
                    demoted: None,
                });
            }

            // Map the page-cache frame. Private writable mappings stay
            // write-protected until the first write (COW pending);
            // shared writable mappings get write access directly.
            let hw_perms = if vma.shared {
                vma.perms
            } else {
                vma.perms.without_write()
            };
            let global = ctx.mark_global && vma.global;
            let mut sw = SwPte::file(vma.perms.write(), vma.shared);
            sw.young = true;
            if access.is_write() {
                sw.dirty = true;
            }
            let res =
                mapper.set_pte(page, HwPte::small(frame, hw_perms, global), sw, ctx.domain)?;
            Ok(FaultOutcome {
                kind,
                ptp_allocated: res.ptp_allocated,
                file_backed: true,
                global,
                demoted: None,
            })
        }
        Backing::Anon => {
            // Zero-fill on demand. (The shared zero page is not
            // modeled; the frame is allocated on first touch.) A read
            // fault maps the page write-protected — as Linux's
            // zero-page mapping would be — so that populating a PTE in
            // a *shared* PTP can never hand write access to every
            // sharer; the first write re-enables or COWs.
            let frame = mapper.phys.alloc(FrameKind::Anon)?;
            let hw_perms = if access.is_write() || vma.shared {
                vma.perms
            } else {
                vma.perms.without_write()
            };
            let mut sw = SwPte::anon(vma.perms.write());
            sw.young = true;
            sw.dirty = access.is_write();
            sw.shared = vma.shared;
            let res = mapper.set_pte(page, HwPte::small(frame, hw_perms, false), sw, ctx.domain)?;
            mapper.phys.put_page(frame);
            Ok(FaultOutcome {
                kind: FaultKind::Minor,
                ptp_allocated: res.ptp_allocated,
                file_backed: false,
                global: false,
                demoted: None,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat_phys::FileId;
    use sat_types::{Asid, Pid, RegionTag, VaRange, PAGE_SIZE};

    struct Fx {
        phys: PhysMem,
        ptps: PtpStore,
        mm: Mm,
        file: FileId,
    }

    fn fx() -> Fx {
        let mut phys = PhysMem::new(4096);
        let mm = Mm::new(&mut phys, Pid::new(1), Asid::new(1)).unwrap();
        Fx {
            phys,
            ptps: PtpStore::new(),
            mm,
            file: FileId(0),
        }
    }

    fn fault(fx: &mut Fx, va: u32, access: AccessType) -> SatResult<FaultOutcome> {
        handle_fault(
            &mut fx.mm,
            &mut fx.ptps,
            &mut fx.phys,
            VirtAddr::new(va),
            access,
            FaultCtx::default(),
        )
    }

    fn add_code_vma(fx: &mut Fx, start: u32, pages: u32) {
        let vma = Vma::file(
            VaRange::from_len(VirtAddr::new(start), pages * PAGE_SIZE),
            Perms::RX,
            fx.file,
            0,
            RegionTag::ZygoteNativeCode,
            "libfoo.so",
        );
        fx.mm.insert_vma(vma).unwrap();
    }

    fn add_anon_vma(fx: &mut Fx, start: u32, pages: u32) {
        let vma = Vma::anon(
            VaRange::from_len(VirtAddr::new(start), pages * PAGE_SIZE),
            Perms::RW,
            RegionTag::Heap,
            "[heap]",
        );
        fx.mm.insert_vma(vma).unwrap();
    }

    #[test]
    fn unmapped_address_segfaults() {
        let mut f = fx();
        assert_eq!(
            fault(&mut f, 0x7000_0000, AccessType::Read).unwrap_err(),
            SatError::NotMapped(VirtAddr::new(0x7000_0000))
        );
    }

    #[test]
    fn permission_violation_detected() {
        let mut f = fx();
        add_code_vma(&mut f, 0x4000_0000, 1);
        assert_eq!(
            fault(&mut f, 0x4000_0000, AccessType::Write).unwrap_err(),
            SatError::PermissionDenied(VirtAddr::new(0x4000_0000))
        );
    }

    #[test]
    fn first_file_touch_is_major_then_minor_elsewhere() {
        let mut f = fx();
        add_code_vma(&mut f, 0x4000_0000, 2);
        let o = fault(&mut f, 0x4000_0123, AccessType::Execute).unwrap();
        assert_eq!(o.kind, FaultKind::Major);
        assert!(o.file_backed);
        assert!(o.ptp_allocated);
        // Re-fault on the same page in a fresh mm is minor (page
        // cache warm). Simulate by clearing the PTE.
        Mapper::new(&mut f.mm.root, &mut f.ptps, &mut f.phys, f.mm.pid)
            .clear_pte(VirtAddr::new(0x4000_0000));
        let o2 = fault(&mut f, 0x4000_0123, AccessType::Execute).unwrap();
        assert_eq!(o2.kind, FaultKind::Minor);
        assert!(!o2.ptp_allocated);
        assert_eq!(f.mm.counters.faults_file, 2);
        assert_eq!(f.mm.counters.faults_hard, 1);
        assert_eq!(f.mm.counters.faults_soft, 1);
    }

    #[test]
    fn anon_fault_allocates_frame() {
        let mut f = fx();
        add_anon_vma(&mut f, 0x0800_0000, 4);
        let before = f.phys.frames_in_use();
        let o = fault(&mut f, 0x0800_1000, AccessType::Write).unwrap();
        assert_eq!(o.kind, FaultKind::Minor);
        assert!(!o.file_backed);
        // One frame for the page, one for the PTP.
        assert_eq!(f.phys.frames_in_use(), before + 2);
        let slot = Mapper::new(&mut f.mm.root, &mut f.ptps, &mut f.phys, f.mm.pid)
            .get_pte(VirtAddr::new(0x0800_1000))
            .unwrap();
        assert!(slot.hw.perms.write());
        assert!(slot.sw.dirty);
    }

    #[test]
    fn private_file_write_cows_immediately() {
        let mut f = fx();
        let vma = Vma::file(
            VaRange::from_len(VirtAddr::new(0x5000_0000), PAGE_SIZE),
            Perms::RW,
            f.file,
            0,
            RegionTag::ZygoteNativeData,
            "libfoo.so(data)",
        );
        f.mm.insert_vma(vma).unwrap();
        let o = fault(&mut f, 0x5000_0000, AccessType::Write).unwrap();
        assert_eq!(o.kind, FaultKind::Major); // first touch read the file page
        let slot = Mapper::new(&mut f.mm.root, &mut f.ptps, &mut f.phys, f.mm.pid)
            .get_pte(VirtAddr::new(0x5000_0000))
            .unwrap();
        assert!(!slot.sw.file_backed); // the mapping is now anonymous
        assert!(slot.hw.perms.write());
    }

    #[test]
    fn private_file_read_then_write_cows_on_second_fault() {
        let mut f = fx();
        let vma = Vma::file(
            VaRange::from_len(VirtAddr::new(0x5000_0000), PAGE_SIZE),
            Perms::RW,
            f.file,
            0,
            RegionTag::ZygoteNativeData,
            "libfoo.so(data)",
        );
        f.mm.insert_vma(vma).unwrap();
        let o1 = fault(&mut f, 0x5000_0000, AccessType::Read).unwrap();
        assert_eq!(o1.kind, FaultKind::Major);
        // Mapped write-protected (COW pending).
        let slot = Mapper::new(&mut f.mm.root, &mut f.ptps, &mut f.phys, f.mm.pid)
            .get_pte(VirtAddr::new(0x5000_0000))
            .unwrap();
        assert!(!slot.hw.perms.write());
        assert!(slot.sw.writable);
        let o2 = fault(&mut f, 0x5000_0000, AccessType::Write).unwrap();
        assert_eq!(o2.kind, FaultKind::Cow);
        assert_eq!(f.mm.counters.faults_cow, 1);
    }

    #[test]
    fn exclusive_anon_write_reenables_instead_of_copying() {
        let mut f = fx();
        add_anon_vma(&mut f, 0x0800_0000, 1);
        fault(&mut f, 0x0800_0000, AccessType::Read).unwrap();
        // Write-protect it, as a fork would.
        Mapper::new(&mut f.mm.root, &mut f.ptps, &mut f.phys, f.mm.pid)
            .write_protect_range(VaRange::from_len(VirtAddr::new(0x0800_0000), PAGE_SIZE));
        let frames_before = f.phys.frames_in_use();
        let o = fault(&mut f, 0x0800_0000, AccessType::Write).unwrap();
        assert_eq!(o.kind, FaultKind::WriteEnable);
        assert_eq!(f.phys.frames_in_use(), frames_before); // no copy
    }

    #[test]
    fn shared_file_write_enables_write() {
        let mut f = fx();
        let mut vma = Vma::file(
            VaRange::from_len(VirtAddr::new(0x6000_0000), PAGE_SIZE),
            Perms::RW,
            f.file,
            5,
            RegionTag::AppData,
            "shared.dat",
        );
        vma.shared = true;
        f.mm.insert_vma(vma).unwrap();
        let o1 = fault(&mut f, 0x6000_0000, AccessType::Read).unwrap();
        assert_eq!(o1.kind, FaultKind::Major);
        // Shared mapping maps writable right away.
        let slot = Mapper::new(&mut f.mm.root, &mut f.ptps, &mut f.phys, f.mm.pid)
            .get_pte(VirtAddr::new(0x6000_0000))
            .unwrap();
        assert!(slot.hw.perms.write());
        let o2 = fault(&mut f, 0x6000_0000, AccessType::Write).unwrap();
        assert_eq!(o2.kind, FaultKind::Spurious);
    }

    #[test]
    fn global_bit_set_only_with_ctx_and_vma_flag() {
        let mut f = fx();
        add_code_vma(&mut f, 0x4000_0000, 2);
        // VMA not marked global: no global bit even with ctx on.
        let ctx = FaultCtx {
            mark_global: true,
            domain: Domain::ZYGOTE,
        };
        let o = handle_fault(
            &mut f.mm,
            &mut f.ptps,
            &mut f.phys,
            VirtAddr::new(0x4000_0000),
            AccessType::Execute,
            ctx,
        )
        .unwrap();
        assert!(!o.global);
        // Mark the VMA global (as the paper's zygote mmap path does).
        let mut f2 = fx();
        let mut vma = Vma::file(
            VaRange::from_len(VirtAddr::new(0x4000_0000), 2 * PAGE_SIZE),
            Perms::RX,
            f2.file,
            0,
            RegionTag::ZygoteNativeCode,
            "libfoo.so",
        );
        vma.global = true;
        f2.mm.insert_vma(vma).unwrap();
        let o2 = handle_fault(
            &mut f2.mm,
            &mut f2.ptps,
            &mut f2.phys,
            VirtAddr::new(0x4000_0000),
            AccessType::Execute,
            ctx,
        )
        .unwrap();
        assert!(o2.global);
        let slot = Mapper::new(&mut f2.mm.root, &mut f2.ptps, &mut f2.phys, f2.mm.pid)
            .get_pte(VirtAddr::new(0x4000_0000))
            .unwrap();
        assert!(slot.hw.global);
    }

    #[test]
    fn write_fault_on_protected_large_page_splits_group() {
        use crate::largepage::{promoted_region, LARGE_PAGE_BYTES};
        let mut f = fx();
        let at = VirtAddr::new(0x4000_0000);
        promoted_region(&mut f.mm, &mut f.ptps, &mut f.phys, at, 1, Perms::RW);
        // Write-protect the whole group, as fork's COW arming does —
        // uniform across the sixteen replicated descriptors, so the
        // mapping legitimately stays large.
        Mapper::new(&mut f.mm.root, &mut f.ptps, &mut f.phys, f.mm.pid)
            .write_protect_range(VaRange::from_len(at, LARGE_PAGE_BYTES));
        // The next write cannot resolve one 4KB page wide against a
        // 64KB descriptor: the fault must demote the group first.
        let target = VirtAddr::new(at.raw() + 3 * PAGE_SIZE);
        let o = fault(&mut f, target.raw(), AccessType::Write).unwrap();
        assert_eq!(o.kind, FaultKind::WriteEnable); // sole mapper: no copy
        assert_eq!(o.demoted, Some(at));
        let m = Mapper::new(&mut f.mm.root, &mut f.ptps, &mut f.phys, f.mm.pid);
        let hit = m.get_pte(target).unwrap();
        assert_eq!(hit.hw.size, sat_types::PageSize::Small4K);
        assert!(hit.hw.perms.write());
        // The untouched neighbours are small and still protected.
        let other = m.get_pte(at).unwrap();
        assert_eq!(other.hw.size, sat_types::PageSize::Small4K);
        assert!(!other.hw.perms.write());
    }

    #[test]
    fn counters_accumulate() {
        let mut f = fx();
        add_code_vma(&mut f, 0x4000_0000, 4);
        for i in 0..4 {
            fault(&mut f, 0x4000_0000 + i * PAGE_SIZE, AccessType::Execute).unwrap();
        }
        assert_eq!(f.mm.counters.faults_total, 4);
        assert_eq!(f.mm.counters.faults_file, 4);
        assert_eq!(f.mm.counters.faults_hard, 4);
        assert_eq!(f.mm.counters.ptps_allocated, 1);
    }
}
