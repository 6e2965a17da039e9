//! `mmap` boundary arguments: a length that rounds past 2³², a fixed
//! range that wraps the address space, and a fixed range that reaches
//! into kernel space are refused with `InvalidArgument` — no panic, the
//! same answer in both profiles (CI runs this file in release too,
//! where the overflow used to wrap instead of panicking), nothing
//! inserted and no PTP unshared.

use sat_core::{Kernel, KernelConfig, NoTlb};
use sat_types::{
    AccessType, Perms, RegionTag, SatError, VirtAddr, KERNEL_SPACE_START, PAGE_SIZE, PTP_SPAN,
};
use sat_vm::MmapRequest;

const HEAP: u32 = 0x0800_0000;

fn anon(len: u32) -> MmapRequest {
    MmapRequest::anon(len, Perms::RW, RegionTag::Heap, "[heap]")
}

#[test]
fn boundary_arguments_are_refused_and_leave_nothing_behind() {
    let refused: [(&str, MmapRequest); 8] = [
        ("length rounds to 2^32", anon(0xFFFF_F001)),
        ("length rounds to 2^32", anon(u32::MAX)),
        (
            "fixed, length rounds to 2^32, in a shared chunk",
            anon(u32::MAX).at(VirtAddr::new(HEAP + PTP_SPAN / 2)),
        ),
        (
            "fixed range wraps 2^32",
            anon(0x2_0000).at(VirtAddr::new(0xFFFF_0000)),
        ),
        (
            "fixed range ends at 2^32",
            anon(0x1_0000).at(VirtAddr::new(0xFFFF_0000)),
        ),
        (
            "fixed address at the start of kernel space",
            anon(PAGE_SIZE).at(VirtAddr::new(KERNEL_SPACE_START)),
        ),
        (
            "fixed range crosses into kernel space",
            anon(2 * PAGE_SIZE).at(VirtAddr::new(KERNEL_SPACE_START - PAGE_SIZE)),
        ),
        (
            "no address, longer than user space",
            anon(KERNEL_SPACE_START + PAGE_SIZE),
        ),
    ];
    for config in [KernelConfig::stock(), KernelConfig::shared_ptp_tlb()] {
        let mut k = Kernel::new(config, 4096);
        let parent = k.create_process().unwrap();
        let heap = anon(2 * PAGE_SIZE).at(VirtAddr::new(HEAP));
        k.mmap(parent, &heap, &mut NoTlb).unwrap();
        k.page_fault(parent, VirtAddr::new(HEAP), AccessType::Write, &mut NoTlb)
            .unwrap();
        let child = k.fork(parent).unwrap().child;
        for (what, req) in &refused {
            let before = (
                k.mm(child).unwrap().vma_count(),
                k.phys.frames_in_use(),
                k.ptps.len(),
                k.phys.rmap_total(),
                k.registry.len(),
                k.stats.ptp_unshares,
            );
            let got = k.mmap(child, req, &mut NoTlb);
            assert_eq!(got, Err(SatError::InvalidArgument), "{what}");
            let after = (
                k.mm(child).unwrap().vma_count(),
                k.phys.frames_in_use(),
                k.ptps.len(),
                k.phys.rmap_total(),
                k.registry.len(),
                k.stats.ptp_unshares,
            );
            assert_eq!(before, after, "{what}");
            k.audit().expect(what);
        }
        // The last user page is still mappable: the bound is inclusive.
        let top = anon(PAGE_SIZE).at(VirtAddr::new(KERNEL_SPACE_START - PAGE_SIZE));
        assert_eq!(
            k.mmap(child, &top, &mut NoTlb).map(VirtAddr::raw),
            Ok(KERNEL_SPACE_START - PAGE_SIZE)
        );
    }
}
