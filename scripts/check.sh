#!/usr/bin/env bash
# Local pre-PR gate: tier-1 tests (every figure runs as a `figures`-labelled
# ctest smoke in its own build-tree directory), the ASan+UBSan suite, the
# TSan run of the multi-threaded (ScenarioRunner) suite, the whole-scenario
# benchmark's unit tests, and the perf-regression gate (perf_suite vs the
# committed BENCH_perf.json).
# Any failure aborts with nonzero exit.
#
#   scripts/check.sh                 # everything
#   scripts/check.sh --fast          # tier-1 only (skip sanitizers + perf)
#   scripts/check.sh --preset NAME   # one CMakePresets preset: configure,
#                                    # build, ctest (CI entry);
#                                    # NAME=tsan runs only `ctest -L tsan`
#
# Figures write their CSV/JSON artifacts into the directory they run from;
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
  # Every non-tsan preset's ctest runs the figure smokes (label `figures`);
  # the tsan preset's ctest runs only the label-filtered multi-threaded
  # suite (runner + parallel scenario/telemetry worlds).
  if [[ "$PRESET" == "release" ]]; then
    scenbench_unit_tests
    perf_gate "build-$PRESET"
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
  echo "== fast mode: skipping sanitize, tsan + perf gate =="
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

perf_gate build
check_no_stray_artifacts

echo "== all checks passed =="
