//! Kernel configuration: which parts of the paper's mechanism are
//! enabled, plus the ablation knobs from the design discussion
//! (Section 3.1.3).

use sat_vm::ForkPtePolicy;

/// What an unshare copies into the new private PTP.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CopyOnUnshare {
    /// Copy every valid PTE (the paper's implementation).
    #[default]
    All,
    /// Copy only PTEs with the (software) referenced bit set — the
    /// cheaper alternative the paper discusses but does not implement.
    ReferencedOnly,
}

/// How shared global TLB entries are protected from non-zygote
/// processes (Section 3.2.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TlbProtection {
    /// The ARM domain protection model: non-zygote processes take a
    /// domain fault; the handler flushes only the conflicting entries.
    #[default]
    DomainFault,
    /// Architectures without domains: flush the entire TLB on every
    /// context switch from a zygote-like to a non-zygote process.
    FlushOnSwitch,
}

/// Policy knobs for the khugepaged-style large-page promotion
/// scanner ([`crate::promote`]), which collapses 64KB groups — the one
/// large page the kernel builds. Off by default: page size stays a
/// pure 4KB world unless an experiment opts in, which keeps every
/// promotion-free run byte-identical to a build without the engine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PromotePolicy {
    /// Master switch for [`crate::Kernel::promote_scan`]; when off
    /// the scan is a no-op and the promotion gauges are not published.
    pub enabled: bool,
    /// Minimum populated 4KB slots (of 16) a group needs before the
    /// scanner collapses it — khugepaged's
    /// `max_ptes_none` expressed from the other direction. Holes up
    /// to `16 - min_populated` are filled with freshly allocated,
    /// never-touched frames; those are the measured memory waste.
    pub min_populated: u8,
    /// Must be `false`: [`crate::Kernel::new`] refuses `true`, since 1MB
    /// section promotion was removed. The field stays only because the
    /// benchmark package spells it out in its policies; it goes when
    /// the benchmark stops doing so.
    pub sections: bool,
}

impl PromotePolicy {
    /// Promotion off — the default for every preset.
    pub fn off() -> Self {
        PromotePolicy {
            enabled: false,
            min_populated: 1,
            sections: false,
        }
    }
}

impl Default for PromotePolicy {
    fn default() -> Self {
        PromotePolicy::off()
    }
}

/// Full kernel configuration.
#[derive(Clone, Copy, Debug)]
pub struct KernelConfig {
    /// Enable PTP sharing at fork (the paper's Section 3.1).
    pub share_ptp: bool,
    /// Enable TLB-entry sharing via the global bit and zygote domain
    /// (the paper's Section 3.2).
    pub share_tlb: bool,
    /// Fork PTE policy used when PTP sharing is off, or for regions a
    /// shared fork cannot share.
    pub fork_policy: ForkPtePolicy,
    /// ASIDs available: when `false`, the main TLB must be flushed on
    /// every context switch (the Figure 13 "Disabled ASID" baseline).
    pub asid: bool,
    /// Protection scheme for shared TLB entries.
    pub tlb_protection: TlbProtection,
    /// Ablation: also share PTPs covering stacks (the paper excludes
    /// them because stacks are written immediately after fork).
    pub share_stack: bool,
    /// Ablation: what unshare copies.
    pub copy_on_unshare: CopyOnUnshare,
    /// Ablation: pretend the hardware supports write protection in
    /// level-1 PTEs (as x86 PDEs do), making the per-PTE
    /// write-protect pass at share time unnecessary.
    pub l1_write_protect: bool,
    /// Large-page promotion policy (off in every preset; the reach
    /// experiment turns it on per cell).
    pub promote: PromotePolicy,
}

impl KernelConfig {
    /// The stock Android kernel.
    pub fn stock() -> Self {
        KernelConfig {
            share_ptp: false,
            share_tlb: false,
            fork_policy: ForkPtePolicy::Stock,
            asid: true,
            tlb_protection: TlbProtection::DomainFault,
            share_stack: false,
            copy_on_unshare: CopyOnUnshare::All,
            l1_write_protect: false,
            promote: PromotePolicy::off(),
        }
    }

    /// The "Copied PTEs" comparison kernel of Table 4: stock, but fork
    /// copies the PTEs of file-backed (zygote-preloaded shared code)
    /// mappings too.
    pub fn copied_ptes() -> Self {
        KernelConfig {
            fork_policy: ForkPtePolicy::CopyAll,
            ..KernelConfig::stock()
        }
    }

    /// PTP sharing only (the "Shared PTP" configuration).
    pub fn shared_ptp() -> Self {
        KernelConfig {
            share_ptp: true,
            ..KernelConfig::stock()
        }
    }

    /// The full mechanism: PTP sharing plus TLB-entry sharing
    /// ("Shared PTP & TLB").
    pub fn shared_ptp_tlb() -> Self {
        KernelConfig {
            share_ptp: true,
            share_tlb: true,
            ..KernelConfig::stock()
        }
    }

    /// Disables ASIDs (full TLB flush on context switch), as in the
    /// Figure 13 baseline.
    pub fn without_asid(mut self) -> Self {
        self.asid = false;
        self
    }

    /// Enables the large-page promotion scanner with `policy`.
    pub fn with_promote(mut self, policy: PromotePolicy) -> Self {
        self.promote = policy;
        self
    }
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig::stock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_configurations() {
        let stock = KernelConfig::stock();
        assert!(!stock.share_ptp && !stock.share_tlb);
        assert_eq!(stock.fork_policy, ForkPtePolicy::Stock);

        let copied = KernelConfig::copied_ptes();
        assert_eq!(copied.fork_policy, ForkPtePolicy::CopyAll);
        assert!(!copied.share_ptp);

        let shared = KernelConfig::shared_ptp();
        assert!(shared.share_ptp && !shared.share_tlb);

        let full = KernelConfig::shared_ptp_tlb();
        assert!(full.share_ptp && full.share_tlb);
        assert!(full.asid);
        assert!(!full.without_asid().asid);
    }

    #[test]
    fn promotion_is_off_in_every_preset() {
        for config in [
            KernelConfig::stock(),
            KernelConfig::copied_ptes(),
            KernelConfig::shared_ptp(),
            KernelConfig::shared_ptp_tlb(),
        ] {
            assert_eq!(config.promote, PromotePolicy::off());
        }
        let off = PromotePolicy::off();
        assert!(!off.enabled && !off.sections);
        assert_eq!(off.min_populated, 1);
    }
}
