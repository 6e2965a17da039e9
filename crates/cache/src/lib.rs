//! Cache-hierarchy model for the Tegra 3 (4× Cortex-A9).
//!
//! Each core has private 32KB L1 instruction and data caches; all
//! cores share a 1MB L2. The model is a classic set-associative LRU
//! simulator over *physical* line addresses — no data is stored, only
//! tags — plus a latency model that converts misses into stall cycles.
//!
//! Two behaviours matter to the paper:
//!
//! - A hardware table walk triggered by a TLB miss loads the fetched
//!   PTE into the L2 cache **and** the L1 data cache (Cortex-A9
//!   behaviour). When every process keeps a private copy of
//!   identical page tables, identical translations occupy *distinct*
//!   cache lines, displacing useful data from the shared L2 — sharing
//!   PTPs collapses them into one line.
//! - Page faults execute kernel code, polluting the L1 instruction
//!   cache; eliminating soft faults (shared PTPs make PTEs populated
//!   by one process visible to all) reduces L1-I stalls during
//!   application launch (Figure 8).

#![forbid(unsafe_code)]

pub mod hierarchy;
#[cfg(test)]
mod reference;
pub mod set_assoc;

pub use hierarchy::{AccessKind, CacheHierarchy, HierarchyStats, LatencyModel};
pub use set_assoc::{Cache, CacheConfig, CacheStats};
