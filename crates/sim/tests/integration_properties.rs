//! Property-based integration tests: for arbitrary operation
//! sequences, the paper's kernel must be *semantically invisible* —
//! after every op of the harness's grammar (`common/mod.rs`) it returns
//! what the stock kernel returns and its processes observe exactly the
//! frame-sharing relation the stock kernel produces ([`transparent`]) —
//! and must maintain its internal invariants and release all memory but
//! the page cache, which the harness checks.

mod common;

use common::{op_strategy, transparent};
use proptest::prelude::*;
use sat_core::{CopyOnUnshare, KernelConfig};

proptest! {
    /// The paper's kernel is semantically transparent, with PTP sharing
    /// alone and with TLB sharing too.
    #[test]
    fn shared_kernel_is_semantically_transparent(ops in prop::collection::vec(op_strategy(), 1..40)) {
        transparent(&[KernelConfig::shared_ptp(), KernelConfig::shared_ptp_tlb()], &ops);
    }

    /// The ablation configurations preserve the same semantics.
    #[test]
    fn ablation_configs_are_transparent_too(ops in prop::collection::vec(op_strategy(), 1..24)) {
        let shared = KernelConfig::shared_ptp();
        transparent(&[
            KernelConfig { l1_write_protect: true, ..shared },
            KernelConfig { share_stack: true, ..shared },
            KernelConfig { copy_on_unshare: CopyOnUnshare::ReferencedOnly, ..shared },
        ], &ops);
    }
}
