//! The simulated machine: Tegra 3-like cores (private L1 caches,
//! micro-TLBs, and a 128-entry main TLB each; one shared L2 cache)
//! driving the patched-or-stock kernel from `sat-core`.
//!
//! [`Machine`] implements the full memory-access path of the paper's
//! evaluation platform:
//!
//! ```text
//! fetch/load/store
//!   → micro-TLB (flushed on context switch)
//!   → main TLB (ASID/global match, per-entry domain)
//!   → DACR domain check → domain fault → kernel handler → retry
//!   → permission check → page fault → kernel handler → retry
//!   → hardware table walk (descriptor fetches go through the caches,
//!     polluting L1-D and the shared L2 with PTE lines)
//!   → L1-I / L1-D → shared L2 → memory, accumulating stall cycles
//! ```
//!
//! Kernel activity is charged with a calibrated [`CycleModel`] (a
//! soft page fault costs ≈2,700 cycles, the paper's LMbench
//! `lat_pagefault` measurement) and additionally *executes* a
//! synthetic kernel instruction path through the caches, so that page
//! faults pollute the L1 instruction cache exactly as the paper
//! observes during application launch.

#![forbid(unsafe_code)]

pub mod machine;
pub mod model;

pub use machine::{Core, CoreStats, Machine};
pub use model::CycleModel;
