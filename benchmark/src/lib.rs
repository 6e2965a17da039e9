//! `satbench`: the repository's benchmark. Five workloads, the
//! end-to-end metrics a user of the simulator sees, and a per-layer
//! ledger measured from outside — spans and counters taken here, in
//! the benchmark's own files, around calls into the crates' public
//! functions and from their public stats structs.
//!
//! See `README.md` for the workload rationale, both metric tables and
//! how the layers are expected to move the end-to-end numbers.

pub mod alloc;
pub mod child;
pub mod compare;
pub mod ledger;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod runner;
pub mod span;
pub mod stats;
pub mod workload;
