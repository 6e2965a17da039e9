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
# `says FILE N TEXT`: FILE holds the line TEXT exactly N times (0 = never).
says() {
    local n
    n="$(grep -cF -- "$3" "$1" || true)"
    [ "$n" -eq "$2" ] || { echo "tier1: expected $2 line(s) saying '$3', got $n" >&2; exit 1; }
}

# benchmark/ is a workspace of its own, so the workspace check does not
# see it: check it by its manifest too.
step "format"
cargo fmt --check
cargo fmt --check --manifest-path benchmark/Cargo.toml

step "build (release)"
cargo build --release

# `satbench` (benchmark/) is the only stopwatch: nothing in `crates/`
# reads the host clock, so every span in a trace carries a simulated
# quantity and two traced runs write the same bytes (the traced smoke
# below `cmp`s them). Keyed on the module path, not on `Instant`, which
# also names Chrome's instant events.
step "no host clock in crates/"
if grep -rn 'std::time' crates/; then
    echo "tier1: crates/ reads the host clock (above); satbench owns host time" >&2
    exit 1
fi

step "tests"
cargo test -q

# One way to run a kernel operation on the machine: the typed calls on a
# named core (`Machine::fork`, `exit`, `mmap`, `munmap`, `mprotect`,
# `promote_scan`), which pick the TLB sink and the initiating core in
# crates/sim/src/machine.rs alone. Outside that file nothing under
# crates/*/src calls `.syscall(` or `.syscall_on(`, or reaches past the
# machine to its kernel's operations; a `Kernel` that no machine owns
# (reachbench's bare-kernel phases) does not match.
step "kernel operations go through the machine's typed calls"
if grep -rnE '\.syscall(_on)?\(|\.kernel\.(mmap|munmap|mprotect|exit|fork|fork_with_flush|promote_scan|page_fault|reclaim)\(' \
    crates/*/src | grep -v '^crates/sim/src/machine\.rs:'; then
    echo "tier1: a kernel operation bypasses the machine's typed calls (above)" >&2
    exit 1
fi

# The differential proptests against the kept reference models at
# release speed (`debug_assert!` compiled out, overflow wraps; 2048
# cases, about a minute in all): the frame allocator vs the Vec<Pfn>
# one and the frame-indexed reverse map vs the nested BTreeMap one
# (crates/phys/src/reference.rs: adds, removes near either end or in
# the middle, re-owns and drains, every answer compared after every op;
# frame.rs pins its nearer-end search to `partition_point` and its
# cost at either end to one or two comparisons), the recency-ordered
# cache vs the stamped nested-Option model, a run of lines against the
# same lines one at a time included, runs that lap every set up to a
# little past three times among them, on 1-, 2- and 3-way caches, which
# take the runtime-width instance, and on the 4-way L1 (its runs at the
# runtime width too) and the 8-way L2,
# and the L1-I's stretch cache vs the same model on 1-, 3-, 4- and
# 8-way caches and the L1, its missed lines compared as the maximal runs
# it hands the L2 (crates/cache/src/reference.rs),
# kernel-text runs vs the line-by-line loop on twin machines
# (machine.rs, `run_vs_line_by_line`; it also holds the L1-I's stretch
# walk to its single-access path, cuts included, and runs
# `Machine::audit` after every step), the property targets on their one
# harness over a two-core machine (crates/sim/tests/common/mod.rs: one
# op grammar — forks, maps, unmaps, protection changes, exits and
# promotion scans through the machine's typed calls on a named core,
# faults and reclaim beneath the machine, accesses and context
# switches — one zygote beside an outsider, one apply that runs
# `Machine::audit` after every op on every machine, one lockstep, one
# teardown that finds any leaked frame, PTP, registry or rmap entry):
# the TLBs against the kernel's tables on five kernels
# (crates/sim/tests/machine_audit.rs: `Machine::audit` — `Kernel::audit`
# with its unshare and eviction ledgers, every live micro-TLB entry what
# a fresh walk of the running process fills, every tagged main-TLB
# entry's ASID resident on its core and, with no rollover flush pending,
# held by a live process of the current generation whose walk fills the
# entry, and every main TLB's own `verify`), the budgeted registry run
# (proptests.rs), the promoted-vs-4KB differential and the stock ≡
# sharing transparency properties (integration_properties.rs). The
# slips they must catch are kept as patches (ci/mutants/, each naming
# the tests that fail): a range flush that skips the micro-TLBs, a fill
# that skips `note_resident`, a range flush that skips the main TLB, a
# copy-on-write fault that gathers no repair, a write-enable fault that
# gathers none — the last two fail machine_audit.rs's cross-core rows
# too — an exit that passes `NoTlb`, a range shootdown that skips the
# other cores, a first share that skips its write-protect pass (the
# COW clause), a process granted the zygote domain at creation (the
# zygote-domain clause), a refault that fails under the frame budget, a
# detach that counts only in the registry's stats (the unshare ledger),
# and a collapse that adds the write bit, which only at this case count
# does the promote differential reach with a read-only 64KB group.
# Then the range walker vs the page-by-page
# get_pte/clear_pte loops on twin tables (crates/mmu/tests/proptests.rs,
# `range_walker`), the main TLB vs the linear scan
# (crates/tlb/tests/differential.rs: lookups, by-address flushes and
# the 4KB duplicate check through the VA index, the full and tag
# flushes, large inserts and fills one pass over the slots; it is what
# stands behind `MainTlb::insert`'s duplicate rule, the fill after a
# miss that skips it, and the first-empty-slot fill, and runs
# `MainTlb::verify` after every op), the packed-lane micro-TLB vs the
# linear pass it replaced (`micro_tlb_matches_linear_reference`, same
# file, at capacities 1, 7, 8, 9, 32 and 64: every answer, the counters,
# the live entries and a lookup sweep after every op; it fails on each
# of three planted slips — the highest matching slot wins, a fill below
# capacity takes the round-robin victim, `flush_va` leaves a covering
# slot live — and the micro-TLB's unit rows run here too), and the grouped page
# tables vs the dense `RefPtp` / `RefRootTable`
# (crates/mmu/src/reference.rs, with `Ptp::verify` /
# `RootTable::verify` after every op) — one table alone, and the
# isolation differential: a family of tables sharing groups
# copy-on-write, built from one another by clone, by word-by-word copy
# and through the install primitive a fork's copy uses (every group
# installed anew with another member as the donor), each member against
# its own dense twin after every op, so no write is seen through a
# shared group — with the packed groups' own rows
# (crates/mmu/src/groups.rs: the seventh word spilling out of the six
# inline slots and removals bringing it back; the install rows — the
# donor's group taken exactly when the live set and the words are
# equal, donors that reached those words by different orders included,
# inline to six words and an exact-size vector above, `verify` after
# each; a word count its live set disagrees with refused by `verify`) — plus
# the exhaustive round trips
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
# `Kernel::verify_rmap_ownership` — here the exact-key `debug_assert!`
# in `rmap_remove` is compiled out, so the checker is what vouches for
# the owner. It runs inside `Kernel::audit`, and so after every op of
# the property targets on the machine harness above. With them runs the
# boundary table (crates/sim/tests/boundary.rs: refused `mmap`,
# `munmap`, `mprotect`, write-fault and dead-pid calls on five kernels,
# two under a frame budget, each a typed error that changes nothing —
# rows found panics, wraps, unshares and reclaim passes before a
# refusal). The region list rides in the same packages:
# crates/vm/tests/region_map.rs (the sorted list of shared regions,
# grouped by 32 and shared copy-on-write a group at a time, vs the
# `BTreeMap<u32, Vma>` map kept there as the specification, over a
# family of forked maps — after every op each member equals its twin,
# passes `Mm::verify_regions` (the regions sorted and disjoint, each
# group non-empty, at most 32 long, ascending) and no other member has
# changed; runs of one-page regions across a wide window take at least
# a quarter of the cases past 64 regions, three groups, or the test
# fails), beside the host-allocation pins
# crates/core/tests/fork_allocations.rs (a fork's region list, one pointer a group, and the child's first `mmap` copying
# one group at its exact size, a stock child holding its parent's page-table groups —
# a fork of one matched group and of eight making the same allocation
# calls and keeping the same bytes, so a matched group costs no
# allocation —
# write faults into a populated table allocating only what its group
# grows by — nothing while the words fit the group's six inline slots
# (the reverse map holds each frame's one entry inline), then the
# spill vector's four steps, pinned call for call and byte for byte,
# and one block of at most 64 bytes for a new group's first word —
# and a booted 1 GiB kernel's `PhysMem`
# holding under 64 KiB: no `struct page` for a frame never handed
# out). sat-sched
# rides along for the budgeted-serve reclaim tests (crates/sched/src/serve.rs), which end on
# `Kernel::audit`.
# The kept mutations (ci/mutants/NNN-<name>.patch, run by
# `ci/mutants.sh [pattern]`, which is not a tier-1 step: each patch
# applied to a copy of the tree, the tests its header names run in
# release and required to fail) must still apply, so a change that
# edits a mutated line refreshes its patch or deletes it.
step "mutation patches apply"
for p in ci/mutants/*.patch; do
    git apply --check "$p" || { echo "tier1: $p no longer applies (above)" >&2; exit 1; }
done

step "tests (release, 2048 cases: phys, mmu, tlb, cache, sim, vm, core, sched)"
PROPTEST_CASES=2048 cargo test --release -q \
    -p sat-phys -p sat-mmu -p sat-tlb -p sat-cache -p sat-sim -p sat-vm -p sat-core \
    -p sat-sched

# The cache's lap loop and its per-width instances again, at 8192 cases
# (about 15 s on two cores, most of it building the 1MB L2 and its
# nested twin anew each case): every instance, every lap and every
# mid-line start against the reference cache (crates/cache/src/reference.rs),
# the `stretch_*` rows among them: the L1-I's stretch cache at 1, 3, 4
# and 8 ways and as the L1, folded and lapped, where single accesses cut
# stretches that runs join again. Each of four planted slips fails them:
# a join that does not compare tags, a run that does not cut after its
# lap's last set, a single access that does not cut the next set, and a
# missing stretch that counts one eviction instead of its length.
step "tests (release, 8192 cases: cache)"
PROPTEST_CASES=8192 cargo test --release -q -p sat-cache

# vendor/rand, the offline stand-in every generated workload draws
# from, is a workspace member only as a path dependency inside the
# workspace directory: `cargo test -q` above runs its tests in debug.
# This runs them in release, the profile the simulator runs in
# (overflow wraps, `debug_assert!` compiled out). They pin every draw:
# the golden sequences (vendor/rand/tests/golden.rs: `gen_range` over
# u8/u32/u64/usize/i64 with spans past 2^63, f64 draws, `gen_bool`,
# `shuffle`, `choose_multiple` at amount 0, = len and > len) and the
# sparse `seq::index::sample` against the dense partial Fisher–Yates it
# stands in for. A few seconds.
step "rand stand-in (release)"
cargo test --release --offline -q --manifest-path vendor/rand/Cargo.toml

# The artifact readers against hostile files, at release speed, 2048
# cases a target (a few seconds): truncated, byte-flipped and spliced
# copies of the golden trace and BENCH_baseline.json through
# `Json::parse` then `parse_chrome_trace`, and through `Snapshot::parse`
# (crates/bench/tests/artifact_fuzz.rs). Each must come back `Ok` or an
# error with a message; a panic or an abort fails the step.
step "artifact fuzz (release, 2048 cases)"
PROPTEST_CASES=2048 cargo test --release -q -p sat-bench --test artifact_fuzz

# The benchmark package (its own workspace) is linted like the rest, in
# release as its test step builds it.
step "clippy"
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --release --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings

# Intra-doc links are checked like code: a doc comment that links to a
# deleted or private item fails here.
step "docs (no dangling links)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# The hardware models are pure mechanism, instrumented by the machine
# in sat-sim: it runs their primitives and reports them, every flush
# reason and charge cause an argument. None of them may depend on
# sat-obs (normal edges; the tree is captured first so a grep that
# stops early cannot mask a failing `cargo tree`).
step "hardware models do not depend on sat-obs"
for crate in sat-types sat-cache sat-tlb; do
    tree="$(cargo tree -e normal --offline -p "$crate")"
    if grep -q 'sat-obs' <<<"$tree"; then
        echo "tier1: $crate depends on sat-obs:" >&2
        echo "$tree" >&2
        exit 1
    fi
done

# The benchmark package (benchmark/, its own workspace) compiles against
# the crates' public API: build and test it so an API deletion cannot
# break its frozen surface unnoticed (includes `all --smoke`, < 10 s).
step "benchmark package builds and passes its tests"
cargo test --release --offline --manifest-path benchmark/Cargo.toml

# Same behaviour, without a hand run: satbench's `rep` (BENCHMARK.json's
# command) on all five workloads — bench sizing at seeds 7 and 13,
# smoke sizing at seed 7 — and each `sim_digest` compared with the
# committed ci/sim_digests.txt (`workload sizing seed digest`, a line
# each); any difference fails. About 3 s once the step above has built
# the package. A change that moves simulated behaviour on purpose
# regenerates the file from this step's output and lists the moved rows
# in CHANGES.md, as it would for the golden.
step "satbench sim_digest pins"
for workload in suite_steady fleet_churn serve_pressure reach_promote binder_ipc; do
    for run in "bench 7" "bench 13" "smoke 7"; do
        read -r sizing seed <<<"$run"
        digest="$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
            rep --workload "$workload" --sizing "$sizing" --seed "$seed" |
            sed -n 's/.*, sim_digest //p')"
        echo "$workload $sizing $seed $digest"
    done
done > "$out/sim_digests.txt"
diff -u ci/sim_digests.txt "$out/sim_digests.txt"

# ci/pairs.sh, the alternating before/after runs behind a host-time
# claim, on one checkout against itself: one pair of timed runs of
# `reach_promote` at `--seconds 1`, every end-to-end metric's row
# printed, and the two sides' `sim_digest`s equal (the script exits 1
# when they differ). A few seconds once the package is built.
step "ci/pairs.sh (one checkout against itself)"
ci/pairs.sh . . --workload reach_promote --seed 7 --pairs 1 --seconds 1 | tee "$out/pairs.txt"
says "$out/pairs.txt" 0 "missing from a run"
says "$out/pairs.txt" 1 "sim_digest: equal"

# The four examples README advertises, run through the public API in
# release (< 1 s together). `cargo test` only builds them, so without
# this step a panic in one would go unnoticed; quickstart must also
# print its COW-through-sharing line.
step "examples run"
for example in app_launch binder_ipc sparsity_analysis; do
    cargo run --release --quiet --example "$example" > /dev/null
done
cargo run --release --quiet --example quickstart | grep -F 'unshared=true, resolution=Cow'

# The paper-scale stdout, pinned like the quick one
# (crates/bench/tests/golden/all_quick.txt, a CLI test): a change that
# moves a paper-scale number shows it in this diff and regenerates the
# golden with `target/release/repro all >
# crates/bench/tests/golden/all_paper.txt`. EXPERIMENTS.md prints the
# same bytes between its two `all_paper.txt` marker lines (each fence
# line inside them dropped), so the document cannot drift from the
# code. `repro all` takes about 5.4 s in release on one core.
step "repro all (paper scale) matches its golden and EXPERIMENTS.md"
repro all --out "$out/BENCH_paper.json" > "$out/all_paper.txt"
diff -u crates/bench/tests/golden/all_paper.txt "$out/all_paper.txt"
awk '/^<!-- end all_paper.txt -->$/ { on = 0 } on && !/^```/; /^<!-- begin all_paper.txt -->$/ { on = 1 }' \
    EXPERIMENTS.md > "$out/experiments_paper.txt"
diff -u crates/bench/tests/golden/all_paper.txt "$out/experiments_paper.txt"

# Traced smoke: every experiment, the trace and the snapshot
# end-to-end. The serve pair's flow charges push the full run to ~270k
# events — raise the ring so the trace stays lossless. No other
# environment variable matters: everything runs on one thread. The run
# is made twice and the two traces must be byte-identical (about 1 s
# more): every span ends with simulated cycles or enclosed ticks, never
# host time. Recording must not change what is simulated: the traced
# run's stdout is diffed against the same golden that pins the
# untraced stdout (`all_quick_stdout_matches_the_golden`).
step "repro all --quick (traced, lossless, twice; stdout equals the untraced golden)"
SAT_OBS_RING=2097152 repro all --quick --trace "$out/trace.json" --out "$out/BENCH_repro.json" \
    > "$out/all_quick_traced.txt"
diff -u crates/bench/tests/golden/all_quick.txt "$out/all_quick_traced.txt"
SAT_OBS_RING=2097152 repro all --quick --trace "$out/trace2.json" --out "$out/BENCH_repro2.json" \
    > /dev/null
cmp "$out/trace.json" "$out/trace2.json"

# Validate the artifacts: sat-bench/repro-v9 schema with every param a
# string and every metric a count, non-empty traceEvents, >=5
# subsystems (kernel, share, vm-fault, tlb, android) in the trace,
# per-thread tick monotonicity, span begin/end pairing (on lossless
# streams), monotone sample ticks + non-empty gauge names on counter
# samples, and the run record's `traced` param true. Exits 1 with a
# reason.
step "repro check"
repro check --trace "$out/trace.json" --out "$out/BENCH_repro.json" | tee "$out/check.txt"

# The same artifacts read end to end: `check` of the whole suite must
# not warn that a frame budget never bit or that the promotion scanner
# never fired (both key on what the snapshot's records carry, not on
# the verb), and `report` renders the real run's rollup in all three
# formats and sliced to one experiment's bracket. Each must exit 0.
# The text report is gated data: it must equal
# crates/bench/tests/golden/report_all_quick.txt line for line (every
# event count, unshare cause, flush row, span total and percentile,
# gauge series), and is regenerated with the command below only by a
# change that means to move the trace.
step "repro check says no warning; repro report matches its golden, json, folded, --experiment"
says "$out/check.txt" 0 "the frame budget never bit"
says "$out/check.txt" 0 "the promotion scanner never fired"
repro report "$out/trace.json" > "$out/report.txt"
diff -u crates/bench/tests/golden/report_all_quick.txt "$out/report.txt"
for format in json folded; do
    repro report "$out/trace.json" --format "$format" > /dev/null
done
repro report "$out/trace.json" --experiment serve_shared > /dev/null

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
repro check --trace "$out/serve.json" --out "$out/BENCH_serve.json" | tee "$out/serve_check.txt"
says "$out/serve_check.txt" 0 "blame attribution is partial"
repro tails "$out/serve.json" --top 5 | tee "$out/serve_tails.txt"
says "$out/serve_tails.txt" 2 "attribution exact: 96 flows reconcile"

# Pressure smoke: the serve pair under the budgets `repro pressure`
# derives from the measured 1,632-frame quick-scale peak (inf, tight
# 15/16, starved 3/4), so the reclaim subsystem runs end-to-end:
# clock-LRU eviction, rmap tears through shared PTPs, refault
# repopulation. The ~286k events need the raised ring to stay
# lossless. check validates the snapshot's reclaim totals and must NOT
# print "the frame budget never bit" (it warns — like partial
# attribution — when no budgeted cell reclaimed), and tails must print
# "attribution exact: 96 flows reconcile" for each of the six cells.
step "repro pressure --quick (traced), check, tails"
SAT_OBS_RING=2097152 repro pressure --quick \
    --trace "$out/pressure.json" --out "$out/BENCH_pressure.json"
repro check --trace "$out/pressure.json" --out "$out/BENCH_pressure.json" \
    | tee "$out/pressure_check.txt"
says "$out/pressure_check.txt" 0 "the frame budget never bit"
repro tails "$out/pressure.json" --top 3 | tee "$out/pressure_tails.txt"
says "$out/pressure_tails.txt" 6 "attribution exact: 96 flows reconcile"

# Translation-reach smoke: the promotion engine collapses the Figure 4
# working set into 64KB pages (stock vs shared vs promoted), two apps
# sweep it, and a demote tail splits groups back to 4KB. check validates
# the reach coverage floor (kernel, share, vm-fault, tlb) and must NOT
# print "the promotion scanner never fired" (it warns — like the budget
# warning — when the promoted cell collapsed nothing).
step "repro reach --quick (traced), check"
repro reach --quick --trace "$out/reach.json" --out "$out/BENCH_reach.json"
repro check --trace "$out/reach.json" --out "$out/BENCH_reach.json" | tee "$out/reach_check.txt"
says "$out/reach_check.txt" 0 "the promotion scanner never fired"

# Behaviour gate over the simulated numbers: compare the fresh snapshot
# against the committed baseline for equality — every record's params
# and metrics, the run-wide record's included. They are deterministic,
# so any difference, up or down, a record or key on one side only,
# prints as `record.key: old -> new` and fails (exit 1). The snapshot
# holds no host time; a host-time claim is a `satbench compare` under
# the pairs rule. Fleet records are per N (fleet_n64, fleet_n256, ...
# are separate experiments), so a change at one N is never masked by
# the rest.
step "repro diff vs baseline"
repro diff BENCH_baseline.json "$out/BENCH_repro.json"

step "tier-1 gate passed"
