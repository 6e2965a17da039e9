//! Ablations for the design choices discussed in Sections 3.1.3 and
//! 3.2.3.

use sat_android::{launch_app, LibraryLayout};
use sat_core::{CopyOnUnshare, KernelConfig, TlbProtection};
use sat_types::{AccessType, Perms, SatResult, VirtAddr, PAGE_SIZE};
use sat_vm::MmapRequest;

use crate::launchbench::launch_opts;
use crate::render::Table;
use crate::zygotebench::profiles;
use crate::Scale;

/// Ablation 1 (Section 3.1.3, "Whether Page Table Entries Should Be
/// Copied Upon Unsharing"): copy all valid PTEs vs only referenced
/// ones. Copying less makes the unshare cheaper but re-introduces
/// soft faults for the skipped PTEs.
pub fn ablation_unshare(scale: Scale) -> SatResult<String> {
    let mut t = Table::new(
        "Ablation: copy-on-unshare policy",
        &[
            "Policy",
            "PTEs copied by unshares",
            "file faults",
            "unshares",
        ],
    );
    for (label, policy) in [
        ("Copy all (paper)", CopyOnUnshare::All),
        ("Referenced only", CopyOnUnshare::ReferencedOnly),
    ] {
        let config = KernelConfig {
            copy_on_unshare: policy,
            ..KernelConfig::shared_ptp()
        };
        let mut sys = crate::boot(config, LibraryLayout::Original, scale)?;
        let p = profiles(&sys, scale).remove(0);
        let (pid, _) = launch_app(&mut sys, &launch_opts(scale))?;
        let slot = sys.attach_app(pid, p)?;
        sys.run_steady(slot, crate::steadybench::steady_events(scale))?;
        let r = sys.steady_report(slot)?;
        let mm = sys.machine.kernel.mm(pid)?;
        t.row(vec![
            label.to_string(),
            format!("{}", mm.counters.ptes_copied_unshare),
            format!("{}", r.file_faults),
            format!("{}", r.unshares),
        ]);
    }
    Ok(t.render())
}

/// Ablation 2 (Section 3.1.3, "Hardware Support"): if level-1 PTEs
/// could write-protect their whole range (as x86 PDEs can), the
/// per-PTE write-protect pass at share time would be unnecessary,
/// making fork cheaper still.
pub fn ablation_hw_assist(scale: Scale) -> SatResult<String> {
    let mut t = Table::new(
        "Ablation: level-1 write-protect hardware assist",
        &["Kernel", "fork cycles (x10^6)", "write-protect ops at fork"],
    );
    for (label, l1_wp) in [
        ("ARM (per-PTE pass)", false),
        ("Hypothetical L1 assist", true),
    ] {
        let config = KernelConfig {
            l1_write_protect: l1_wp,
            ..KernelConfig::shared_ptp()
        };
        let mut sys = crate::boot(config, LibraryLayout::Original, scale)?;
        let (outcome, cycles) = sys.machine.fork(0, sys.zygote)?;
        t.row(vec![
            label.to_string(),
            format!("{:.2}", cycles as f64 / 1e6),
            format!("{}", outcome.write_protect_ops),
        ]);
    }
    Ok(t.render())
}

/// Ablation 3 (Table 4's design choice): sharing the stack PTP too.
/// The stack is written as soon as the child runs, so the share is
/// immediately undone by an unshare — pure overhead.
pub fn ablation_stack(scale: Scale) -> SatResult<String> {
    let mut t = Table::new(
        "Ablation: sharing the stack PTP",
        &[
            "Policy",
            "PTEs copied at fork",
            "PTPs shared",
            "unshares after first stack write",
        ],
    );
    for (label, share_stack) in [("Exclude stack (paper)", false), ("Share stack", true)] {
        let config = KernelConfig {
            share_stack,
            ..KernelConfig::shared_ptp()
        };
        let mut sys = crate::boot(config, LibraryLayout::Original, scale)?;
        let (outcome, _) = sys.machine.fork(0, sys.zygote)?;
        sys.machine.context_switch(0, outcome.child)?;
        // The child touches its stack immediately.
        sys.machine
            .access(0, VirtAddr::new(0xBF00_0000), AccessType::Write)?;
        let unshares = sys.machine.kernel.mm(outcome.child)?.counters.ptps_unshared;
        t.row(vec![
            label.to_string(),
            format!("{}", outcome.ptes_copied),
            format!("{}", outcome.ptps_shared),
            format!("{unshares}"),
        ]);
    }
    Ok(t.render())
}

/// Ablation 4 (Section 3.2.3): protecting shared global TLB entries
/// with the domain model (precise faults) vs flushing the whole TLB
/// when switching from a zygote-like to a non-zygote process.
pub fn ablation_tlb_protection(scale: Scale) -> SatResult<String> {
    let iterations = match scale {
        Scale::Paper => 2_000,
        Scale::Quick => 300,
    };
    let mut t = Table::new(
        "Ablation: shared-TLB-entry protection scheme",
        &[
            "Scheme",
            "app inst-TLB stall cycles",
            "domain faults",
            "full TLB flushes",
        ],
    );
    for (label, protection) in [
        ("Domain faults (paper)", TlbProtection::DomainFault),
        ("Flush on switch", TlbProtection::FlushOnSwitch),
    ] {
        let config = KernelConfig {
            tlb_protection: protection,
            ..KernelConfig::shared_ptp_tlb()
        };
        let mut sys = crate::boot(config, LibraryLayout::Original, scale)?;
        // A zygote-child app alternating with a non-zygote daemon that
        // runs its own code at non-overlapping addresses.
        let (app_outcome, _) = sys.machine.fork(0, sys.zygote)?;
        let app = app_outcome.child;
        let daemon = sys.machine.kernel.create_process()?;
        let dfile = sys
            .machine
            .kernel
            .files
            .register("daemon".to_string(), 32 * PAGE_SIZE);
        // The app's working set: the first pages of a large preloaded
        // library (global entries under shared TLB).
        let lib = *sys
            .catalog
            .zygote_native
            .iter()
            .find(|id| sys.catalog.lib(**id).code_pages >= 32)
            .expect("large library");
        let lib_base = sys.map.code_base(lib).unwrap();
        // The daemon maps its own code at the SAME virtual addresses
        // (a non-zygote process's mmap area naturally collides with
        // zygote-preloaded library addresses), so global entries left
        // by the app would translate the daemon's fetches WRONGLY —
        // the protection scheme must intervene.
        let dreq = MmapRequest::file(
            32 * PAGE_SIZE,
            Perms::RX,
            dfile,
            0,
            sat_types::RegionTag::AppCode,
            "daemon",
        )
        .at(lib_base);
        sys.machine.mmap(0, daemon, &dreq)?;

        let mut app_stall = 0;
        for _ in 0..iterations {
            sys.machine.context_switch(0, app)?;
            let s0 = sys.machine.cores[0].stats.inst_main_tlb_stall_cycles;
            for p in 0..16u32 {
                sys.machine.access(
                    0,
                    VirtAddr::new(lib_base.raw() + p * PAGE_SIZE),
                    AccessType::Execute,
                )?;
            }
            app_stall += sys.machine.cores[0].stats.inst_main_tlb_stall_cycles - s0;
            sys.machine.context_switch(0, daemon)?;
            for p in 0..8u32 {
                sys.machine.access(
                    0,
                    VirtAddr::new(lib_base.raw() + p * PAGE_SIZE),
                    AccessType::Execute,
                )?;
            }
        }
        let stats = sys.machine.cores[0].main_tlb.stats();
        t.row(vec![
            label.to_string(),
            format!("{app_stall}"),
            format!("{}", sys.machine.kernel.stats.domain_faults),
            format!("{}", stats.full_flushes),
        ]);
    }
    Ok(t.render())
}

/// Runs every ablation.
pub fn all(scale: Scale) -> SatResult<String> {
    let mut out = String::new();
    out.push_str(&ablation_unshare(scale)?);
    out.push_str(&ablation_hw_assist(scale)?);
    out.push_str(&ablation_stack(scale)?);
    out.push_str(&ablation_tlb_protection(scale)?);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::cell;

    #[test]
    fn ablations_quick() {
        let out = all(Scale::Quick).unwrap();
        for section in [
            "copy-on-unshare",
            "write-protect hardware assist",
            "sharing the stack",
            "protection scheme",
        ] {
            assert!(out.contains(section), "missing ablation {section}");
        }
    }

    #[test]
    fn hw_assist_removes_write_protect_pass() {
        let out = ablation_hw_assist(Scale::Quick).unwrap();
        // The assist row reports zero write-protect operations.
        assert_eq!(cell::<u64>(&out, &["Hypothetical L1 assist"], 3), 0);
    }

    #[test]
    fn sharing_stack_forces_immediate_unshare() {
        let out = ablation_stack(Scale::Quick).unwrap();
        // PTEs copied at fork drops to 0, but the first write unshares.
        let copied: u64 = cell(&out, &["Share stack"], 2);
        let unshares: u64 = cell(&out, &["Share stack"], 4);
        assert_eq!(copied, 0);
        assert!(unshares >= 1);
    }

    #[test]
    fn flush_on_switch_flushes_more() {
        let out = ablation_tlb_protection(Scale::Quick).unwrap();
        let get = |label, col| -> u64 { cell(&out, &[label], col) };
        let domain_flushes = get("Domain faults (paper)", 4);
        let switch_flushes = get("Flush on switch", 4);
        assert!(switch_flushes > domain_flushes);
        // The precise scheme actually takes domain faults.
        assert!(get("Domain faults (paper)", 3) > 0);
        assert_eq!(get("Flush on switch", 3), 0);
        // Domain-fault mode costs the app fewer TLB stalls.
        let domain_stall = get("Domain faults (paper)", 2);
        let switch_stall = get("Flush on switch", 2);
        assert!(
            domain_stall <= switch_stall,
            "{domain_stall} vs {switch_stall}"
        );
    }

    #[test]
    fn unshare_policy_tradeoff_visible() {
        let out = ablation_unshare(Scale::Quick).unwrap();
        let all_copied: u64 = cell(&out, &["Copy all (paper)"], 2);
        let ref_copied: u64 = cell(&out, &["Referenced only"], 2);
        assert!(ref_copied <= all_copied);
    }
}
