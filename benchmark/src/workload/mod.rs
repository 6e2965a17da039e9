//! The five workloads and the rep they all run inside.
//!
//! A rep is closed-loop on the host: one process, one thread, the
//! stock kernel and then the shared kernel back to back, because the
//! pair is what the simulator exists to compare. `seed` feeds
//! `AndroidSystem::boot`, `AppProfile::generate`, `TimeshareOptions`
//! and `ServeOptions` and nothing else reaches the program.

use std::time::Instant;

use sat_core::{Kernel, KernelConfig};
use sat_sim::Machine;
use sat_types::{Pid, SatResult};

use crate::ledger::{self, Digest, Ledger, Snapshot};
use crate::span::span;

mod binder_ipc;
mod fleet_churn;
mod reach_promote;
mod serve_pressure;
mod suite_steady;

/// The workloads, in the order every report lists them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    SuiteSteady,
    FleetChurn,
    ServePressure,
    ReachPromote,
    BinderIpc,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::SuiteSteady,
        Workload::FleetChurn,
        Workload::ServePressure,
        Workload::ReachPromote,
        Workload::BinderIpc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteSteady => "suite_steady",
            Workload::FleetChurn => "fleet_churn",
            Workload::ServePressure => "serve_pressure",
            Workload::ReachPromote => "reach_promote",
            Workload::BinderIpc => "binder_ipc",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one op of `sim_ops_per_s` is on this workload.
    pub fn op_unit(self) -> &'static str {
        match self {
            Workload::SuiteSteady => "simulated accesses",
            Workload::FleetChurn => "forks + exits",
            Workload::ServePressure => "requests",
            Workload::ReachPromote => "groups promoted + split",
            Workload::BinderIpc => "binder round trips",
        }
    }

    /// Whether the paper gives reference rows for this workload. The
    /// others are unvalidated and report no error figure.
    pub fn has_paper_reference(self) -> bool {
        self != Workload::ServePressure
    }
}

/// How large a rep is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sizing {
    /// The frozen sizing every timed and traced rep uses.
    Bench,
    /// Tiny: the test suite's pass through every code path.
    Smoke,
    /// The paper's sizing, for the fidelity rep.
    Paper,
}

impl Sizing {
    pub fn name(self) -> &'static str {
        match self {
            Sizing::Bench => "bench",
            Sizing::Smoke => "smoke",
            Sizing::Paper => "paper",
        }
    }

    pub fn parse(name: &str) -> Option<Sizing> {
        [Sizing::Bench, Sizing::Smoke, Sizing::Paper]
            .into_iter()
            .find(|s| s.name() == name)
    }
}

/// The two kernels every rep compares.
pub fn kernels() -> [(&'static str, KernelConfig); 2] {
    [
        ("stock", KernelConfig::stock()),
        ("shared", KernelConfig::shared_ptp_tlb()),
    ]
}

/// One rep's books.
#[derive(Debug, Default)]
pub struct Rep {
    pub seed: u64,
    /// Host nanoseconds of each set-up phase, in order: state built
    /// before a measured phase.
    pub setup_ns: Vec<u64>,
    /// Host nanoseconds of each measured phase, in order. A rep's
    /// phases are the same calls on every rep of a workload, so the
    /// runner can take each phase's best across reps.
    pub host_ns: Vec<u64>,
    /// Simulated ops the measured phases completed (see
    /// [`Workload::op_unit`]).
    pub ops: u64,
    /// Driver ops attempted: launches, steady runs, spawns, reaps,
    /// requests, scans, round trips, and every audit.
    pub attempted: u64,
    /// `Err` returns plus audit violations.
    pub failed: u64,
    pub failures: Vec<String>,
    pub ledger: Ledger,
    pub digest: Digest,
    /// One row per paper reference: (what, measured, paper).
    pub paper_rows: Vec<(&'static str, f64, f64)>,
}

impl Rep {
    /// Runs `body` as one set-up phase.
    pub fn setup<T>(&mut self, body: impl FnOnce(&mut Rep) -> T) -> T {
        let t = Instant::now();
        let out = span("setup", || body(self));
        self.setup_ns.push(t.elapsed().as_nanos() as u64);
        out
    }

    /// Runs `body` as one measured phase.
    pub fn measured<T>(&mut self, body: impl FnOnce(&mut Rep) -> T) -> T {
        let t = Instant::now();
        let out = span("measured", || body(self));
        self.host_ns.push(t.elapsed().as_nanos() as u64);
        out
    }

    /// Books `n` driver ops made by one call; an `Err` is one failure.
    pub fn ops_call<T>(&mut self, what: &str, n: u64, result: SatResult<T>) -> SatResult<T> {
        self.attempted += n;
        if let Err(e) = &result {
            self.fail(format!("{what}: {e:?}"));
        }
        result
    }

    /// Books one driver op.
    pub fn op<T>(&mut self, what: &str, result: SatResult<T>) -> SatResult<T> {
        self.ops_call(what, 1, result)
    }

    /// Books one audit.
    pub fn audit(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.count("core.audit_failures", 1);
            self.fail(format!("audit {what}: {e}"));
        }
    }

    /// Adds `v` to a ledger count the stats structs do not carry.
    pub fn count(&mut self, name: &'static str, v: u64) {
        *self.ledger.entry(name).or_insert(0.0) += v as f64;
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(message);
        }
    }

    /// Adds one machine's measured window to the ledger and its final
    /// state to the digest.
    pub fn window(&mut self, before: &Snapshot, after: &Snapshot) {
        ledger::add_window(&mut self.ledger, before, after);
        self.digest.snapshot(after);
    }

    /// The invariant audits every rep ends on.
    pub fn audit_invariants(&mut self, kernel: &Kernel) {
        self.audit("share accounting", kernel.verify_share_accounting());
        self.audit("rmap", kernel.phys.rmap_verify());
    }

    /// Exits every process but the zygote (lowest pid first), then
    /// checks nothing was left behind: one process, no registry entry
    /// above one sharer, the invariants again, and frames in use back
    /// at `boot_private` — the post-boot count, page-cache frames
    /// aside (those legitimately stay, or under a budget go).
    pub fn teardown(&mut self, m: &mut Machine, zygote: Pid, boot_private: i64) {
        let mut children: Vec<Pid> = m
            .kernel
            .processes()
            .map(|(pid, _)| *pid)
            .filter(|pid| *pid != zygote)
            .collect();
        children.sort_unstable();
        span("core.exit_ms", || {
            for pid in children {
                let r = m.syscall(|k, tlb| k.exit(pid, tlb));
                let _ = self.op("exit", r);
            }
        });
        self.audit_teardown(m, boot_private);
    }

    /// The after-teardown checks alone, for workloads that reap
    /// through their own driver.
    pub fn audit_teardown(&mut self, m: &Machine, boot_private: i64) {
        let k = &m.kernel;
        let live = k.process_count();
        self.audit(
            "one process left",
            (live == 1).then_some(()).ok_or(format!("{live} live")),
        );
        let shared = k.registry.iter().filter(|(_, e)| e.sharers > 1).count();
        self.audit(
            "no registry entry above one sharer",
            (shared == 0)
                .then_some(())
                .ok_or(format!("{shared} entries")),
        );
        let leaked = Snapshot::of_kernel(k).private_frames() - boot_private;
        self.count("phys.leaked_frames", leaked.max(0) as u64);
        self.audit(
            "frames back at the post-boot value",
            (leaked == 0)
                .then_some(())
                .ok_or(format!("{leaked:+} frames")),
        );
        self.audit_invariants(k);
    }

    /// Records one paper reference row and mirrors it in the ledger.
    pub fn paper_row(
        &mut self,
        metric: &'static str,
        what: &'static str,
        measured: f64,
        paper: f64,
    ) {
        self.ledger.insert(metric, measured);
        self.paper_rows.push((what, measured, paper));
    }

    /// Mean over the reference rows of |measured − paper| ÷ paper ×
    /// 100; `None` without rows.
    pub fn paper_err_pct(&self) -> Option<f64> {
        let n = self.paper_rows.len();
        (n > 0).then(|| {
            self.paper_rows
                .iter()
                .map(|(_, measured, paper)| (measured - paper).abs() / paper * 100.0)
                .sum::<f64>()
                / n as f64
        })
    }
}

/// Runs one rep of `workload` and returns its books. A failed driver
/// op ends the rep early; what ran until then is still reported.
pub fn run(workload: Workload, sizing: Sizing, seed: u64) -> Rep {
    let mut rep = Rep {
        seed,
        ..Rep::default()
    };
    let _ = span("rep", || match workload {
        Workload::SuiteSteady => suite_steady::run(&mut rep, sizing),
        Workload::FleetChurn => fleet_churn::run(&mut rep, sizing),
        Workload::ServePressure => serve_pressure::run(&mut rep, sizing),
        Workload::ReachPromote => reach_promote::run(&mut rep, sizing),
        Workload::BinderIpc => binder_ipc::run(&mut rep, sizing),
    });
    ledger::finish_ratios(&mut rep.ledger);
    rep.count("core.audit_failures", 0);
    rep
}

/// The median of a non-empty list of cycle counts.
pub(crate) fn median_u64(values: &mut [u64]) -> f64 {
    values.sort_unstable();
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2] as f64
    } else {
        (values[n / 2 - 1] + values[n / 2]) as f64 / 2.0
    }
}
