//! `reach_promote` — the three translation-reach cells (stock,
//! shared, promoted): fault in the Figure 4 sparse working set,
//! `promote_scan` it into 64KB groups, fork two apps that sweep it,
//! then demote groups with partial `munmap`/`mprotect`. Why:
//! `sat_core::promote` + `PhysMem::alloc_run` + `sat_vm::demote_range`
//! do nearly all the work — the contiguous-run use of the allocator
//! that `fleet_churn` (single frames) bypasses.

use sat_core::{Kernel, KernelConfig, NoTlb, PromotePolicy};
use sat_sim::Machine;
use sat_types::{AccessType, Perms, RegionTag, SatResult, VaRange, VirtAddr, PAGE_SIZE};
use sat_vm::MmapRequest;

use super::{Rep, Sizing};
use crate::ledger::Snapshot;
use crate::span::span;

const IMAGE_BASE: u32 = 0x4000_0000;
/// Alternating two-process sweeps after promotion.
const SWEEPS: usize = 4;
/// Every `DEMOTE_STRIDE`-th group is split again: one page unmapped
/// in the first app, one page reprotected in the second.
const DEMOTE_STRIDE: u32 = 8;

fn cells() -> [KernelConfig; 3] {
    [
        KernelConfig::stock(),
        KernelConfig::shared_ptp_tlb(),
        // Sections stay off so smaps (which walks PTPs) keeps seeing
        // every resident page.
        KernelConfig::stock().with_promote(PromotePolicy {
            enabled: true,
            min_populated: 1,
            sections: false,
        }),
    ]
}

pub fn run(rep: &mut Rep, sizing: Sizing) -> SatResult<()> {
    // Touched 4KB pages; the image is 16/6 of that (Figure 4 density).
    let touched: u32 = match sizing {
        Sizing::Bench => 384,
        Sizing::Smoke => 48,
        Sizing::Paper => 1_536,
    };
    let image_pages = touched * 16 / 6;
    let groups = image_pages / 16;
    let touched_va = |i: u32| VirtAddr::new(IMAGE_BASE + (i as u64 * 16 / 6) as u32 * PAGE_SIZE);
    let group_va = |g: u32, page: u32| VirtAddr::new(IMAGE_BASE + (g * 16 + page) * PAGE_SIZE);

    let mut image_rss = Vec::new();
    for config in cells() {
        let (mut kernel, zygote) = rep.setup(|_| -> SatResult<_> {
            let mut kernel = Kernel::new(config, 1 << 18);
            let zygote = kernel.create_process()?;
            kernel.exec_zygote(zygote)?;
            let file = kernel
                .files
                .register("image".to_string(), image_pages * PAGE_SIZE);
            let req = MmapRequest::file(
                image_pages * PAGE_SIZE,
                Perms::RX,
                file,
                0,
                RegionTag::ZygoteNativeCode,
                "image",
            )
            .at(VirtAddr::new(IMAGE_BASE));
            kernel.mmap(zygote, &req, &mut NoTlb)?;
            Ok((kernel, zygote))
        })?;
        let before = Snapshot::of_kernel(&kernel);

        // Five measured phases per cell. Launch: the zygote
        // demand-faults the sparse working set, then the khugepaged
        // pass (inert unless enabled).
        rep.measured(|rep| -> SatResult<()> {
            span("core.fault_ms", || -> SatResult<()> {
                for i in 0..touched {
                    kernel.page_fault(zygote, touched_va(i), AccessType::Execute, &mut NoTlb)?;
                }
                Ok(())
            })?;
            let scan = span("core.promote_ms", || {
                kernel.promote_scan(zygote, &mut NoTlb)
            });
            rep.op("promote_scan", scan)?;
            Ok(())
        })?;
        let sweep = |m: &mut Machine, a, b| -> SatResult<()> {
            for pid in [a, b] {
                span("sim.switch_ms", || m.context_switch(0, pid))?;
                span("sim.access_ms", || -> SatResult<()> {
                    for i in 0..touched {
                        m.access(0, touched_va(i), AccessType::Execute)?;
                    }
                    Ok(())
                })?;
            }
            Ok(())
        };
        // Two apps fork and warm up.
        let (mut m, a, b) = rep.measured(|rep| -> SatResult<_> {
            let forked = span("sim.fork_ms", || -> SatResult<_> {
                Ok((kernel.fork(zygote)?.child, kernel.fork(zygote)?.child))
            });
            let (a, b) = rep.ops_call("fork", 2, forked)?;
            let mut m = Machine::single_core(kernel);
            sweep(&mut m, a, b)?;
            Ok((m, a, b))
        })?;
        // khugepaged visits the apps too: under stock fork the
        // file-backed image is refaulted per child, so each app pays
        // its own collapse and its own waste.
        rep.measured(|rep| -> SatResult<()> {
            for pid in [a, b] {
                let scan = span("core.promote_ms", || {
                    m.syscall(|k, tlb| k.promote_scan(pid, tlb))
                });
                rep.op("promote_scan", scan)?;
            }
            Ok(())
        })?;
        rep.measured(|_| -> SatResult<()> {
            for _ in 0..SWEEPS {
                sweep(&mut m, a, b)?;
            }
            Ok(())
        })?;
        // Demotion: partial region ops split large mappings (the same
        // calls run in every cell; under 4KB paging they are plain
        // one-page ops).
        rep.measured(|rep| {
            span("core.demote_ms", || -> SatResult<()> {
                for g in (0..groups).step_by(DEMOTE_STRIDE as usize) {
                    let r = m.syscall(|k, tlb| {
                        k.munmap(a, VaRange::from_len(group_va(g, 0), PAGE_SIZE), tlb)
                    });
                    rep.op("munmap", r)?;
                    let r = m.syscall(|k, tlb| {
                        k.mprotect(
                            b,
                            VaRange::from_len(group_va(g, 1), PAGE_SIZE),
                            Perms::R,
                            tlb,
                        )
                    });
                    rep.op("mprotect", r)?;
                }
                Ok(())
            })
        })?;
        let after = Snapshot::of(&m);
        rep.window(&before, &after);
        rep.ops += (after.kernel.promotions - before.kernel.promotions)
            + (after.kernel.demotions - before.kernel.demotions);

        // Resident footprint of the image in the zygote, per smaps:
        // touched pages under 4KB paging, every page of every
        // collapsed group under promotion.
        let mm = m.kernel.mm(zygote)?;
        let rss: u64 = sat_vm::smaps(mm, &m.kernel.ptps, &m.kernel.phys)
            .iter()
            .filter(|e| e.tag == RegionTag::ZygoteNativeCode)
            .map(|e| e.rss)
            .sum();
        rep.digest.u64(rss);
        image_rss.push(rss);
        rep.audit_invariants(&m.kernel);
    }
    rep.paper_row(
        "core.waste_ratio_x",
        "64KB-page memory blow-up x",
        image_rss[2] as f64 / image_rss[0] as f64,
        2.6,
    );
    Ok(())
}
