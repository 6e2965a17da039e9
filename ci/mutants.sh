#!/usr/bin/env bash
# The kept mutations: each `ci/mutants/NNN-<name>.patch` plants one slip
# that a test must catch. Its header says what the slip is, which
# CHANGES.md entry first planted it, the package, and the tests that
# must fail, one `Fails:` line each:
#
#   Slip: A range flush that skips the micro-TLBs.
#   Source: CHANGES.md, "A micro-TLB miss costs what a hit costs": ...
#   Package: sat-sim
#   Fails: machine_audit::tlbs_agree_with_the_tables_after_every_op
#
# A test is `<target>::<name>`: an integration-test target of the
# package and the test's full name in it, or `lib::<path>` for a unit
# test. `git apply` skips the header.
#
# Usage: `ci/mutants.sh [pattern]` runs the patches whose file name
# contains `pattern` (all of them by default). The tree is copied once
# to a temporary directory; the tests every chosen patch names must pass
# there unpatched, then each patch is applied, its tests run in release
# at PROPTEST_CASES=2048 (or the caller's value), and the patch
# reverted. A patch is caught when every test it names fails, missed
# otherwise; one that does not apply or build is missed. Exits 1 on any
# miss. Builds share one CARGO_TARGET_DIR (default target/mutants), so
# each patch rebuilds only what it touches; the copy's files are given
# fresh times, so nothing a previous run built from a patched file is
# taken as up to date.
#
# Not a tier-1 step (a few minutes on two cores for the full set);
# tier 1 checks that every patch still applies.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"
pattern="${1:-}"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target/mutants}"
export PROPTEST_CASES="${PROPTEST_CASES:-2048}"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
tar --exclude=./target --exclude=./.git --exclude=./.bench_build \
    --exclude=./benchmark/target -cf - . | tar -xmf - -C "$work"

patches=()
for p in ci/mutants/*.patch; do
    case "$(basename "$p")" in *"$pattern"*) patches+=("$p") ;; esac
done
[ "${#patches[@]}" -gt 0 ] || { echo "mutants: no patch matches '$pattern'" >&2; exit 1; }

field() { sed -n "s/^$2: *//p" "$1"; }

# `run_tests PACKAGE TEST...`: runs each test alone in release, printing
# `pass`, `fail` or `missing` (no test of that name ran) per test;
# returns 2 if the package does not build.
run_tests() {
    local pkg="$1" t target out
    shift
    (cd "$work" && cargo test --release -q -p "$pkg" --no-run >/dev/null 2>&1) || return 2
    for t in "$@"; do
        target="${t%%::*}"
        local sel=(--test "$target")
        [ "$target" = lib ] && sel=(--lib)
        out="$(cd "$work" && cargo test --release -q -p "$pkg" "${sel[@]}" -- --exact "${t#*::}" 2>&1)" || {
            echo fail
            continue
        }
        if grep -q '^test result: ok. 1 passed' <<<"$out"; then echo pass; else echo missing; fi
    done
}

echo "== unpatched: every named test passes"
declare -A named=()
for p in "${patches[@]}"; do
    while read -r t; do named["$(field "$p" Package) $t"]=1; done < <(field "$p" Fails)
done
clean=0
for key in "${!named[@]}"; do
    result="$(run_tests ${key})" || result=broken
    if [ "$result" != pass ]; then
        echo "mutants: ${key}: $result on the unpatched tree" >&2
        clean=1
    fi
done
[ "$clean" -eq 0 ] || exit 1

missed=0
for p in "${patches[@]}"; do
    name="$(basename "$p" .patch)"
    start=$SECONDS
    if ! (cd "$work" && git apply "$root/$p" 2>/dev/null); then
        echo "missed  $name (does not apply)"
        missed=1
        continue
    fi
    mapfile -t tests < <(field "$p" Fails)
    results="$(run_tests "$(field "$p" Package)" "${tests[@]}")" || results=broken
    (cd "$work" && git apply -R "$root/$p")
    if [ "$results" = broken ]; then
        echo "missed  $name (does not build)"
        missed=1
    elif grep -qv fail <<<"$results"; then
        survivors="$(paste -d' ' <(printf '%s\n' "$results") <(printf '%s\n' "${tests[@]}") \
            | grep -v '^fail ' | tr '\n' ' ')"
        echo "missed  $name (not failed: $survivors)"
        missed=1
    else
        echo "caught  $name (${#tests[@]} test(s) failed, $((SECONDS - start)) s)"
    fi
done
exit "$missed"
