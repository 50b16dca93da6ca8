#!/usr/bin/env bash
# List the src/ code that no figure, example, tool or benchmark runs.
#
#   scripts/coverage_unused.sh [WORKDIR]     # default WORKDIR: build-coverage
#
# Builds two --coverage Debug trees under WORKDIR (nothing else is touched):
#   main/       the root project: floc_figures, perf_suite, perf_compare,
#               floc_inspect and the five examples (no unit tests);
#   scenbench/  the benchmark driver, from the unmodified scenbench/CMakeLists.txt.
# Then runs every artifact:
#   * ctest -L figures (all 18 figures at --quick, plus the unknown-name and
#     fig06 --jobs determinism checks);
#   * the five examples;
#   * floc_inspect summary and timeline on every incident bundle the figures
#     wrote, and diff on each neighbouring pair;
#   * perf_suite --quick, then perf_compare against the committed
#     BENCH_perf.json (its verdict is ignored: -O0 timings regress);
#   * the scenbench driver on all four workloads at --trace 0 and --trace 1.
# Finally it merges `gcov --json-format` output of both trees by source path
# and prints, per src/ file, the functions that never ran, then the total of
# never-run executable src/ lines. Unit tests are not run: code only they
# reach counts as never run.
#
# Needs cmake, a GCC toolchain with gcov (-j, GCC >= 9) and python3. The
# whole run takes about 15 minutes on 4 vCPUs.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
work="${1:-$root/build-coverage}"
mkdir -p "$work"
work="$(cd "$work" && pwd)"
jobs="$(nproc 2>/dev/null || echo 2)"
[ "$jobs" -gt 4 ] && jobs=4
cov_flags=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS=--coverage
           -DCMAKE_EXE_LINKER_FLAGS=--coverage)

echo "== configure + build (coverage, Debug) in $work, log: $work/build.log =="
build() {  # build SRC BIN TARGET...
  local src="$1" bin="$2"
  shift 2
  if ! { cmake -S "$src" -B "$bin" "${cov_flags[@]}" &&
         cmake --build "$bin" -j "$jobs" --target "$@"; } >>"$work/build.log" 2>&1
  then
    tail -n 30 "$work/build.log" >&2
    exit 1
  fi
}
: >"$work/build.log"
build "$root" "$work/main" floc_figures perf_suite perf_compare floc_inspect \
  quickstart flooding_defense covert_attack internet_scale trace_flood
build "$root/scenbench" "$work/scenbench" scenbench_driver

# Counters accumulate across runs; start from zero.
find "$work" -name '*.gcda' -delete

failures=0
run() {  # run DIR CMD...: run CMD in DIR; report (not abort on) failure
  local dir="$1"
  shift
  mkdir -p "$dir"
  if ! (cd "$dir" && "$@") >/dev/null 2>&1; then
    echo "   nonzero exit: $*" >&2
    failures=$((failures + 1))
  fi
}

echo "== figures (ctest -L figures) =="
(cd "$work/main" && ctest -L figures -j 2 --output-on-failure) ||
  failures=$((failures + 1))

echo "== examples =="
for ex in quickstart flooding_defense covert_attack internet_scale trace_flood; do
  run "$work/run/examples" "$work/main/examples/$ex"
done

echo "== floc_inspect =="
mapfile -t bundles < <(find "$work/main/bench" -name '*.incident.json' | sort)
prev=""
for b in "${bundles[@]}"; do
  run "$work/run" "$work/main/bench/floc_inspect" summary "$b"
  run "$work/run" "$work/main/bench/floc_inspect" timeline "$b"
  # diff exits 1 when the bundles differ, which is the expected outcome.
  [ -n "$prev" ] && "$work/main/bench/floc_inspect" diff "$prev" "$b" \
    >/dev/null 2>&1 || true
  prev="$b"
done
echo "   ${#bundles[@]} bundle(s)"

echo "== perf_suite --quick + perf_compare =="
run "$work/run/perf" "$work/main/bench/perf_suite" --quick --out BENCH_perf.json
"$work/main/bench/perf_compare" "$root/BENCH_perf.json" \
  "$work/run/perf/BENCH_perf.json" >/dev/null 2>&1 || true

echo "== scenbench driver =="
for w in floc_flood floc_churn baseline_flood inet_tick; do
  for t in 0 1; do
    run "$work/run" "$work/scenbench/scenbench_driver" --workload "$w" \
      --seed 1 --seconds 1 --trace "$t"
  done
done

echo "== gcov merge =="
python3 - "$root" "$work/main" "$work/scenbench" <<'PY'
import json
import os
import subprocess
import sys

root, trees = sys.argv[1], sys.argv[2:]
src = os.path.join(root, "src") + os.sep
lines = {}  # path -> {line: ran}
funcs = {}  # (path, start_line) -> [name, ran]

for tree in trees:
    for d, _, files in os.walk(tree):
        for f in files:
            if not f.endswith(".gcno"):
                continue
            # A .gcno without a .gcda (an object no process loaded) reads as
            # all-zero, so unreached translation units still count.
            out = subprocess.run(
                ["gcov", "--json-format", "--stdout", os.path.join(d, f)],
                cwd=d, capture_output=True, text=True, check=False).stdout
            for doc in out.splitlines():
                if not doc.startswith("{"):
                    continue
                data = json.loads(doc)
                cwd = data.get("current_working_directory", d)
                for fe in data["files"]:
                    path = os.path.realpath(os.path.join(cwd, fe["file"]))
                    if not path.startswith(src):
                        continue
                    ls = lines.setdefault(path, {})
                    for ln in fe["lines"]:
                        n = ln["line_number"]
                        ls[n] = ls.get(n, False) or ln["count"] > 0
                    for fn in fe["functions"]:
                        key = (path, fn["start_line"])
                        ent = funcs.setdefault(key, [fn["demangled_name"], False])
                        ent[1] = ent[1] or fn["execution_count"] > 0

never = {}
for (path, start), (name, ran) in sorted(funcs.items()):
    if not ran:
        never.setdefault(path, []).append((start, name))
for path in sorted(never):
    print(os.path.relpath(path, root))
    for start, name in never[path]:
        print("  %5d  %s" % (start, name))

total = sum(len(ls) for ls in lines.values())
unrun = sum(1 for ls in lines.values() for ran in ls.values() if not ran)
tel = os.path.join(src, "telemetry") + os.sep
tel_total = sum(len(ls) for p, ls in lines.items() if p.startswith(tel))
tel_unrun = sum(1 for p, ls in lines.items() if p.startswith(tel)
                for ran in ls.values() if not ran)
print("never-run functions: %d" % sum(len(v) for v in never.values()))
print("never-run executable src/ lines: %d of %d" % (unrun, total))
print("never-run executable src/telemetry lines: %d of %d" % (tel_unrun, tel_total))
PY
if [ "$failures" -ne 0 ]; then
  echo "warning: $failures artifact run(s) exited nonzero (see above)" >&2
fi
