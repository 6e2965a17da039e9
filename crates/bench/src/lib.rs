//! The experiment harness: one module per group of tables/figures
//! from the paper's evaluation, plus ablations.
//!
//! Every experiment has a paper-scale and a quick-scale variant
//! (see [`Scale`]); the `repro` binary drives them and renders the
//! same rows/series the paper reports. Absolute cycle counts differ
//! from the Nexus 7 — the reproduction target is the *shape*: who
//! wins, by roughly what factor, and where the crossovers are.

#![forbid(unsafe_code)]

use sat_android::{AndroidSystem, BootOptions, LibraryLayout};
use sat_core::KernelConfig;
use sat_types::SatResult;

pub mod ablation;
pub mod extensions;
pub mod fleetbench;
pub mod ipcbench;
pub mod launchbench;
pub mod motivation;
pub mod pressurebench;
pub mod reachbench;
pub mod render;
pub mod servebench;
pub mod snapshot;
pub mod steadybench;
pub mod timesharebench;
pub mod zygotebench;

/// Experiment scale.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Paper-calibrated sizing (seconds to minutes per experiment).
    Paper,
    /// Scaled-down sizing for smoke tests and CI.
    Quick,
}

/// Boots the 11-app suite under `config` and `layout` from the
/// harness's [`motivation::SEED`], sized for `scale`: the one boot of
/// every experiment driver.
pub(crate) fn boot(
    config: KernelConfig,
    layout: LibraryLayout,
    scale: Scale,
) -> SatResult<AndroidSystem> {
    let opts = match scale {
        Scale::Paper => BootOptions::paper(),
        Scale::Quick => BootOptions::small(),
    };
    AndroidSystem::boot(config, layout, motivation::SEED, 11, opts)
}
