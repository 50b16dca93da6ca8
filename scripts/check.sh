#!/usr/bin/env bash
# Local pre-PR gate: tier-1 tests, the ASan+UBSan suite, the TSan run of the
# multi-threaded (ScenarioRunner) suite, a churn smoke run of the
# fault-injection ablation, a parallel bench smoke (fig06 --jobs 4), the
# whole-scenario benchmark's unit tests, and the perf-regression gate
# (perf_suite vs the committed BENCH_perf.json).
# Any failure aborts with nonzero exit.
#
#   scripts/check.sh                 # everything
#   scripts/check.sh --fast          # tier-1 only (skip sanitizers + smokes)
#   scripts/check.sh --preset NAME   # one CMakePresets preset: configure,
#                                    # build, ctest, smokes (CI entry);
#                                    # NAME=tsan runs only `ctest -L tsan`
#
# Benches write their CSV/JSON time-series into the directory they run from;
# every mode ends by scanning the source tree for stray generated artifacts,
# including ones .gitignore would hide.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"

# Every configure disables find_package(benchmark): the build needs no
# Google Benchmark, and a host that has it installed must not let the
# dependency creep back in. Compiler cache when available (the CI matrix
# restores it between runs).
CONFIGURE_ARGS=(-DCMAKE_DISABLE_FIND_PACKAGE_benchmark=ON)
if command -v ccache > /dev/null 2>&1; then
  CONFIGURE_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

check_no_stray_artifacts() {
  echo "== artifact scan: no generated CSV/JSON in the source tree =="
  # `git ls-files -o` WITHOUT --exclude-standard also lists gitignored
  # files, so artifacts .gitignore hides (fig*.csv, ablation*.csv) are
  # still caught. Build trees and editor/tooling caches are exempt.
  # Matched explicitly on top of the generic extensions: exported causal
  # traces (*.trace.json), run manifests (*manifest.json), journal dumps
  # (*.journal.json), alert histories (*.alerts.json), incident bundles
  # (*.incident.json), Prometheus text scrapes (*.prom), metric exports
  # (*.metrics.csv/.json), and perf reports (BENCH_*.json) — the
  # observability artifacts the benches write. The committed repo-root BENCH_perf.json
  # baseline is tracked, so `git ls-files -o` (untracked only) never flags
  # it; only freshly generated copies outside the build tree are strays.
  local stray
  stray="$(git ls-files -o \
    | grep -vE '^(build[^/]*|\.cache|\.ccache|\.vscode|\.idea)/' \
    | grep -vE '^compile_commands\.json$' \
    | grep -E '(\.trace\.json|manifest\.json|\.journal\.json|\.alerts\.json|\.incident\.json|\.prom|BENCH_[^/]*\.json|\.metrics\.(csv|json)|\.(csv|json))$' \
    || true)"
  if [[ -n "$stray" ]]; then
    echo "error: generated artifacts left in the source tree:" >&2
    echo "$stray" >&2
    echo "hint: run benches from inside the build directory" >&2
    exit 1
  fi
}

churn_smoke() {
  local bindir="$1"
  echo "== churn smoke: fault-injection ablation, short horizon =="
  # Run from the build tree so the time-series CSVs land there.
  (cd "$bindir" && ./bench/ablation_churn --quick)
}

parallel_bench_smoke() {
  local bindir="$1"
  echo "== parallel bench smoke: fig06 sweep on a 4-wide pool =="
  # Exercises the ScenarioRunner path end-to-end; the run manifest records
  # jobs plus per-run derived seeds and wall times.
  (cd "$bindir" && ./bench/fig06_attack_confinement --quick --jobs 4)
}

adaptive_smoke() {
  local bindir="$1"
  echo "== adaptive-adversary smoke: hardening scorecard on a 4-wide pool =="
  # Closed-loop attackers vs the hardening stack; the bench exits nonzero if
  # any acceptance gate (evasion, confinement, flash-crowd FP) fails. Its
  # per-case CSVs and journal dumps (ablation_adaptive_*.csv / *.journal.json)
  # land in the build tree and are covered by the stray-artifact scan.
  (cd "$bindir" && ./bench/ablation_adaptive --quick --jobs 4)
}

state_smoke() {
  local bindir="$1"
  echo "== state-exhaustion smoke: bounded-table scorecard on a 4-wide pool =="
  # Identity-churn attacker vs capacity budgets + overload mode; the bench
  # exits nonzero if any gate fails (legit goodput, table bounds, eviction
  # re-latch, storm alert). Artifacts (ablation_state_exhaust_*.csv /
  # *.journal.json / *.alerts.json / *.prom) land in the build tree.
  (cd "$bindir" && ./bench/ablation_state_exhaust --quick --jobs 4)
}

scenbench_unit_tests() {
  echo "== scenbench: the whole-scenario benchmark's own unit tests =="
  # Pure-Python reductions and checks of scenbench/run.py; they read saved
  # JSON run documents and need no build.
  python3 -m unittest discover -s scenbench -p 'test_*.py'
}

perf_gate() {
  local bindir="$1"
  echo "== perf gate: canonical suite vs committed BENCH_perf.json =="
  # Runs the canonical perf suite (--quick) and diffs the fresh report
  # against the committed repo-root baseline. Only machine-portable metrics
  # (allocation counts, floc-vs-droptail ratios) gate by default; absolute
  # wall-clock numbers are trajectory-only, so the gate is meaningful on
  # hardware other than the baseline's. Exit 1 = gated regression; exit 2 =
  # schema drift (refresh the baseline: run perf_suite and commit the JSON).
  (cd "$bindir" && ./bench/perf_suite --quick --out BENCH_perf.json)
  "$bindir"/bench/perf_compare BENCH_perf.json "$bindir"/BENCH_perf.json
}

if [[ "${1:-}" == "--preset" ]]; then
  PRESET="${2:?usage: scripts/check.sh --preset <name>}"
  echo "== preset $PRESET: configure + build + ctest =="
  cmake --preset "$PRESET" "${CONFIGURE_ARGS[@]}" > /dev/null
  cmake --build --preset "$PRESET" -j "$JOBS" > /dev/null
  ctest --preset "$PRESET" -j "$JOBS"
  # The tsan preset's ctest already ran the label-filtered multi-threaded
  # suite (runner + parallel scenario/telemetry worlds); the serial churn
  # smoke would only re-run single-threaded code an order of magnitude
  # slower, so the smokes stay on the non-tsan legs.
  if [[ "$PRESET" != "tsan" ]]; then
    churn_smoke "build-$PRESET"
    if [[ "$PRESET" == "release" ]]; then
      scenbench_unit_tests
      parallel_bench_smoke "build-$PRESET"
      adaptive_smoke "build-$PRESET"
      state_smoke "build-$PRESET"
      perf_gate "build-$PRESET"
    fi
  fi
  check_no_stray_artifacts
  echo "== preset $PRESET passed =="
  exit 0
fi

echo "== tier-1: release build + full ctest =="
cmake -B build -S . "${CONFIGURE_ARGS[@]}" > /dev/null
cmake --build build -j "$JOBS" > /dev/null
ctest --test-dir build --output-on-failure -j "$JOBS"

if [[ "${1:-}" == "--fast" ]]; then
  echo "== fast mode: skipping sanitize + churn smoke =="
  check_no_stray_artifacts
  exit 0
fi

echo "== sanitize: ASan+UBSan suite (ctest preset) =="
cmake --preset sanitize "${CONFIGURE_ARGS[@]}" > /dev/null
cmake --build --preset sanitize -j "$JOBS" > /dev/null
ctest --preset sanitize -j "$JOBS"

echo "== tsan: ThreadSanitizer on the multi-threaded (runner) suite =="
cmake --preset tsan "${CONFIGURE_ARGS[@]}" > /dev/null
cmake --build --preset tsan -j "$JOBS" > /dev/null
ctest --preset tsan -j "$JOBS"

churn_smoke build
parallel_bench_smoke build
adaptive_smoke build
state_smoke build
perf_gate build
check_no_stray_artifacts

echo "== all checks passed =="
