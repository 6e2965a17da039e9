#!/usr/bin/env bash
# The tier-1 gate: what must pass before every commit. CI
# (.github/workflows/ci.yml) runs this file as its gate step and the
# verify skill (.claude/skills/verify/SKILL.md) cites it, so a step is
# typed — and its comment kept — here and nowhere else.
#
# Run from anywhere: `ci/tier1.sh`. Needs no network and no environment
# variable; artifacts go to a temporary directory that is removed on
# exit. About five minutes on two cores.
set -euo pipefail
cd "$(dirname "$0")/.."

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

step() { printf '\n== %s\n' "$*"; }
repro() { cargo run --release --quiet -p sat-bench --bin repro -- "$@"; }

step "format"
cargo fmt --check

step "build (release)"
cargo build --release

step "tests"
cargo test -q

# The differential proptests against the kept reference models at
# release speed (`debug_assert!` compiled out, overflow wraps; 2048
# cases, about a minute in all): the frame allocator vs the Vec<Pfn>
# one and the frame-indexed reverse map vs the nested BTreeMap one
# (crates/phys/src/reference.rs: adds, removes near either end or in
# the middle, re-owns and drains, every answer compared after every op;
# frame.rs pins its nearer-end search to `partition_point` and its
# cost at either end to one or two comparisons), the flat cache vs the
# nested-Option one (crates/cache/src/reference.rs), kernel-text runs vs
# the line-by-line loop on twin machines (machine.rs,
# `run_vs_line_by_line`), the range walker vs the page-by-page
# get_pte/clear_pte loops on twin tables (crates/mmu/tests/proptests.rs,
# `range_walker`), the indexed main TLB vs the linear scan
# (crates/tlb/tests/differential.rs; it is what stands behind
# `MainTlb::insert`'s duplicate rule, and runs `MainTlb::verify` after
# every op), and the grouped page tables vs the dense `RefPtp` /
# `RefRootTable` (crates/mmu/src/reference.rs, with `Ptp::verify` /
# `RootTable::verify` after every op) — one table alone, and the
# isolation differential: a family of tables sharing groups
# copy-on-write, built from one another by clone, by word-by-word copy
# and by adopting equal groups, each member against its own dense twin
# after every op, so no write is seen through a shared group — plus the
# exhaustive round trips
# of the packed level-1 and slot words, whose frame bound is a
# `debug_assert!` resting on `PhysMem::new`'s `assert!`. sat-vm and
# sat-core ride along for the fork differential
# (crates/core/tests/fork_differential.rs: the kernel's chunk loop vs
# the per-region `fork_mm` loop kept there as the specification, child
# tables frame for frame) and the fail-cleanly sweeps
# (crates/core/tests/failed_fork.rs: the failed-fork sweep and the
# failed-unshare rows — a write fault, mmap, munmap and mprotect into a
# shared chunk with no frame left), and so the fork / unshare / reclaim
# tests also run in this profile: three of four perf PRs in a row found
# a release-only bug by accident. With them run the reverse map's
# ownership rows (crates/core/src/reclaim.rs: the last-sharer collapse,
# the lone-sharer exit, two sharing groups at one va) and its checker,
# `Kernel::verify_rmap_ownership`, after every op of the core proptests
# (inside `Kernel::audit`) and the promote differential — here the
# exact-key `debug_assert!` in
# `rmap_remove` is compiled out, so the checker is what vouches for the
# owner — and the `mmap` boundary-argument table
# (crates/core/tests/mmap_args.rs: a length that used to panic in debug
# and wrap in release). The region list rides in the same packages:
# crates/vm/tests/region_map.rs (the sorted list of shared regions vs
# the `BTreeMap<u32, Vma>` map kept there as the specification, over a
# family of forked maps — after every op each member equals its twin
# and no other member has changed) and crates/core/tests/region_args.rs
# (the refused `munmap` / `mprotect` table: an unaligned end inside a
# region used to reach `Vma::split_at`'s assertion, every refusal on
# the sharing kernel used to unshare the chunk first, and ranges
# reaching into kernel space used to be accepted), beside the
# host-allocation pins crates/core/tests/fork_allocations.rs (a fork's
# region list, a stock child holding its parent's page-table groups,
# and a write fault into a populated table allocating nothing: the
# reverse map's inline slot), and the dead-pid rows
# crates/core/tests/pid_args.rs (every call naming pid 0, an exited pid
# or u32::MAX is `NoSuchProcess` and changes nothing). sat-sched
# rides along for the budgeted-serve reclaim tests (crates/sched/src/serve.rs), which end on the same
# checker.
step "tests (release, 2048 cases: phys, mmu, tlb, cache, sim, vm, core, sched)"
PROPTEST_CASES=2048 cargo test --release -q \
    -p sat-phys -p sat-mmu -p sat-tlb -p sat-cache -p sat-sim -p sat-vm -p sat-core \
    -p sat-sched

step "clippy"
cargo clippy --workspace --all-targets -- -D warnings

# Intra-doc links are checked like code: a doc comment that links to a
# deleted or private item fails here.
step "docs (no dangling links)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# The benchmark package (benchmark/, its own workspace) compiles against
# the crates' public API: build and test it so an API deletion cannot
# break its frozen surface unnoticed (includes `all --smoke`, < 10 s).
step "benchmark package builds and passes its tests"
cargo test --release --offline --manifest-path benchmark/Cargo.toml

# Traced smoke: every experiment + both observability exporters
# end-to-end. The serve pair's flow charges push the full run to ~270k
# events — raise the ring so the trace stays lossless. No other
# environment variable matters: everything runs on one thread.
step "repro all --quick (traced, lossless)"
SAT_OBS_RING=2097152 repro all --quick --trace "$out/trace.json" --out "$out/BENCH_repro.json"

# Validate the artifacts: sat-bench/repro-v8 schema, non-empty
# traceEvents, >=5 subsystems (kernel, share, vm-fault, tlb, android) in
# the trace, per-thread tick monotonicity, span begin/end pairing (on
# lossless streams), monotone sample ticks + non-empty gauge names on
# counter samples, obs section enabled. Exits 1 with a reason.
step "repro check"
repro check --trace "$out/trace.json" --out "$out/BENCH_repro.json"

# Time-series smoke: rebucket the traced run into windows and render the
# gauge series (counter-track re-ingest + experiment filter).
step "repro timeline"
repro timeline "$out/trace.json" --experiment timeshare

# Fleet-scale smoke: fork/timeshare/reap the quick fleet grid (64 and
# 256 apps) through the shared-PTP registry, traced, and validate the
# artifacts (fleet coverage floor: no android events expected). The
# fleet trace carries the densest gauge sampling, so timeline it too.
step "repro fleet --quick (traced), check, timeline"
repro fleet --quick --trace "$out/fleet.json" --out "$out/BENCH_fleet.json"
repro check --trace "$out/fleet.json" --out "$out/BENCH_fleet.json"
repro timeline "$out/fleet.json"

# Serving smoke: bursty open-loop arrivals with request-level cycle
# blame. The quick serve emits ~94k events, so raise the ring to keep
# the trace lossless (exact attribution); check must pass WITHOUT the
# "blame attribution is partial" warning, and tails must print
# "attribution exact: 96 flows reconcile" for both kernels.
step "repro serve --quick (traced, lossless), check, tails"
SAT_OBS_RING=2097152 repro serve --quick --trace "$out/serve.json" --out "$out/BENCH_serve.json"
repro check --trace "$out/serve.json" --out "$out/BENCH_serve.json"
repro tails "$out/serve.json" --top 5

# Pressure smoke: the serve pair under a tight frame budget (75% of the
# measured 1,632-frame quick-scale peak) so the reclaim subsystem runs
# end-to-end: clock-LRU eviction, rmap tears through shared PTPs,
# refault repopulation. check validates the snapshot's reclaim totals
# and must NOT print "the frame budget never bit" (it warns — like
# partial attribution — when a budgeted run reclaimed nothing).
step "repro serve --quick --mem-frames 1224 (traced), check, tails"
SAT_OBS_RING=2097152 repro serve --quick --mem-frames 1224 \
    --trace "$out/serve_mem.json" --out "$out/BENCH_serve_mem.json"
repro check --trace "$out/serve_mem.json" --out "$out/BENCH_serve_mem.json"
repro tails "$out/serve_mem.json" --top 3

# Translation-reach smoke: the promotion engine collapses the Figure 4
# working set into 64KB pages (stock vs shared vs promoted), two apps
# sweep it, and a demote tail splits groups back to 4KB. check validates
# the reach coverage floor (kernel, share, vm-fault, tlb) and must NOT
# print "the promotion scanner never fired" (it warns — like the budget
# warning — when the promoted cell collapsed nothing).
step "repro reach --quick (traced), check"
repro reach --quick --trace "$out/reach.json" --out "$out/BENCH_reach.json"
repro check --trace "$out/reach.json" --out "$out/BENCH_reach.json"

# Regression gate over the simulated metrics: compare the fresh snapshot
# against the committed baseline, record by record, metric by metric.
# Any gauge.*, latency.*, reclaim.*, translation.* or run-wide counter.*
# metric growing at all fails (exit 1) — they are deterministic, so the
# threshold is 0; improvements and movement under the family's noise
# floor do not fail. wall_ms is host time: printed as `note ... host
# time, reported not judged`, never part of the verdict; a host-time
# claim is a `satbench compare` under the pairs rule. Fleet records gate
# per N (fleet_n64, fleet_n256, ... are separate experiments), so a
# regression at one N is never masked by the rest.
step "repro diff vs baseline"
repro diff BENCH_baseline.json "$out/BENCH_repro.json" --threshold-pct 0

step "tier-1 gate passed"
