#!/usr/bin/env python3
"""Whole-scenario benchmark of the FLoc simulator.

Builds the driver from ../src (CMake, into .bench_build or $CARGO_TARGET_DIR),
runs one workload for a fixed wall time, checks the outputs and prints every
metric as "name value unit", then one JSON object as the last line:

    python3 scenbench/run.py --workload floc_flood --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(self time per layer from a run with profiler sections attached). The exit
code is nonzero when any case check fails. --from-json FILE reduces a saved
driver document instead of building and running (used by the tests).
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("floc_flood", "floc_churn", "baseline_flood", "inet_tick")
DRIVER_TIMEOUT_S = 170

# (name, unit). Every end-to-end value must be positive on every workload;
# a per-layer value that does not apply to a workload reads 0.
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("pkts_per_s", "pkts/s"),
    ("peak_rss_mb", "MB"),
    ("allocs_per_kpkt", "allocs/kpkt"),
    ("legit_share", "fraction"),
)

FLOC_DROPS = ("token", "preferential", "random_early", "queue_full",
              "capability", "blacklist", "overload")
BASELINES = ("droptail", "red-pd", "pushback")
INET_POLICIES = ("nd", "ff", "na", "agg")
LAYERS = ("netsim", "core", "baselines", "inetsim")

PER_LAYER = (
    [("netsim.self_ns_per_event", "ns"),
     ("netsim.events", "count"),
     ("netsim.events_per_pkt", "events/pkt"),
     ("netsim.events_per_s", "events/s"),
     ("netsim.late_events", "count"),
     ("core.enqueue.self_ns_per_call", "ns"),
     ("core.dequeue.ns_per_call", "ns"),
     ("core.cap_verify.ns_per_call", "ns"),
     ("core.control.ns_per_call", "ns"),
     ("core.control.calls", "count"),
     ("core.origins", "count"),
     ("core.aggregates", "count"),
     ("core.evictions", "count"),
     ("core.overload_entries", "count"),
     ("core.admit_ratio", "fraction")]
    + [("core.drops." + d, "count") for d in FLOC_DROPS]
    + [("baselines.%s.%s.ns_per_call" % (s, op), "ns")
       for s in BASELINES for op in ("enqueue", "dequeue")]
    + [("baselines.%s.admit_ratio" % s, "fraction") for s in BASELINES]
    + [("inetsim.%s.ns_per_tick" % p, "ns") for p in INET_POLICIES]
    + [("inetsim.dropped_internal_ratio", "fraction"),
       ("inetsim.aggregates", "count"),
       ("topology.tree.build_ms", "ms"),
       ("topology.skitter.build_ms", "ms"),
       ("topology.placement.build_ms", "ms")]
    + [("%s.self_ns_per_pkt" % layer, "ns") for layer in LAYERS]
    + [("telemetry.clock_read_ns", "ns"),
       ("telemetry.trace_overhead_ratio", "ratio"),
       ("telemetry.self_sum_ratio", "ratio"),
       ("telemetry.tracer.overhead_ratio", "ratio"),
       ("telemetry.journal.overhead_ratio", "ratio")]
)

# The layer self times of a traced repetition, divided by the run phase of
# the untraced repetition before it, must lie within this share of 1 (the
# median over traced repetitions). The two repetitions run the same inputs,
# so the ratio strays from 1 by the error of the calibrated instrumentation
# cost plus the host's drift between them. On a shared 4-vCPU host the
# clock read itself drifted between 37 and 59 ns across runs, single pairs
# read 0.74-1.39, and the medians 0.97-1.24 over the tree workloads. That
# sets this width.
# It catches a timer left uncalibrated (sim.dispatch's timers alone cost
# about half an untraced floc_flood run), not a calibration off by 20%.
SELF_SUM_TOLERANCE = 0.40

# A section's self time may fall below 0 by at most this share of the
# instrumentation subtracted from it. A thin section such as link.dequeue
# keeps a few ms after about 100 ms of timer cost is subtracted, so its self
# time is 0 within the calibration's error.
SELF_SLACK = 0.10


class CheckFailed(Exception):
    pass


# ---- Build and run the driver ---------------------------------------------

def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build_driver():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise CheckFailed("simulator sources not found under %s/src" % ROOT)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", "scenbench_driver",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "scenbench_driver")


def run_driver(binary, args):
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, timeout=DRIVER_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise CheckFailed("driver exited with %d" % proc.returncode)
    return json.loads(proc.stdout)


# ---- Self time ------------------------------------------------------------

def self_times(sections, cal):
    """Exclusive time of each profiled section, in ns.

    A section's self time is its total minus its children's totals, minus the
    instrumentation. `cal` gives, per timer kind (a section's "timer"), the
    cost that lands inside the interval the timer records (`inner_ns`) and
    its whole cost to the enclosing section (`outer_ns`). Each of a section's
    own calls carries its timer's inner cost, and each child call costs it
    the rest of the child's timer, `outer_ns - inner_ns`.

    A self time below 0 by more than SELF_SLACK of the subtracted
    instrumentation fails the check: the section holds a child it cannot
    contain (a wrong parent), or the calibration subtracts more than the
    timers cost.
    """
    names = {s["name"] for s in sections}
    for s in sections:
        if s["parent"] and s["parent"] not in names:
            raise CheckFailed("section %s has unknown parent %s"
                              % (s["name"], s["parent"]))
        if s["timer"] not in cal:
            raise CheckFailed("section %s has uncalibrated timer %s"
                              % (s["name"], s["timer"]))
    out = {}
    for s in sections:
        kids = [k for k in sections if k["parent"] == s["name"]]
        own = s["calls"] * cal[s["timer"]]["inner_ns"] + sum(
            k["calls"] * (cal[k["timer"]]["outer_ns"]
                          - cal[k["timer"]]["inner_ns"]) for k in kids)
        self_ns = s["total_ns"] - sum(k["total_ns"] for k in kids) - own
        if self_ns < -SELF_SLACK * own:
            raise CheckFailed("section %s has negative self time %.0f ns"
                              % (s["name"], self_ns))
        out[s["name"]] = self_ns
    return out


def layer_self(sections, selfs):
    totals = dict.fromkeys(LAYERS, 0.0)
    for s in sections:
        totals[s["layer"]] += selfs[s["name"]]
    return totals


# ---- Reduction ------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def rep_sum(rep, key):
    return sum(c[key] for c in rep["cases"])


def rep_run_s(rep):
    return rep_sum(rep, "run_ns") / 1e9


def ratio(num, den):
    return num / den if den else 0.0


def count_failures(doc):
    attempted = 0
    failed = 0
    messages = list(doc.get("failures", []))
    for rep in doc["reps"]:
        for c in rep["cases"]:
            attempted += 1
            if not c["ok"]:
                failed += 1
                messages.append("%s: %s" % (c["name"], c["why"]))
    attempted += sum(len(v) for v in doc.get("channels", {}).values())
    failed = min(attempted, failed + len(doc.get("failures", [])))
    return attempted, failed, messages


def end_to_end(doc):
    reps = [r for r in doc["reps"] if not r["traced"]]
    first = reps[0]
    pkts = rep_sum(first, "pkts")
    setup = [sum(c["setup_ns"] for c in rep) / 1e9 for rep in doc["setup_reps"]]
    return {
        "setup_s": median(setup),
        "run_s": median([rep_run_s(r) for r in reps]),
        "pkts_per_s": median([ratio(rep_sum(r, "pkts"), rep_run_s(r))
                              for r in reps]),
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
        "allocs_per_kpkt": median([ratio(rep_sum(r, "allocs"), pkts / 1000.0)
                                   for r in reps]),
        "legit_share": statistics.fmean(c["legit_share"]
                                        for c in first["cases"]),
    }


def setup_part_ms(doc, part):
    return median([sum(c["setup_parts"].get(part, 0) for c in rep) / 1e6
                   for rep in doc["setup_reps"]])


def per_layer(doc):
    reps = doc["reps"]
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    first = untraced[0]
    cases = first["cases"]
    pkts = rep_sum(first, "pkts")
    events = rep_sum(first, "events")
    run_untraced = median([rep_run_s(r) for r in untraced])
    m = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)

    # Self time per traced repetition, then the median of each figure. The
    # driver alternates untraced and traced repetitions; each traced one is
    # compared with the untraced one just before it, which ran under nearly
    # the same host load.
    per_rep = []
    for i, rep in enumerate(reps):
        if not rep["traced"]:
            continue
        if i == 0 or reps[i - 1]["traced"]:
            raise CheckFailed("traced repetition %d follows no untraced one"
                              % i)
        sections = rep["sections"]
        selfs = self_times(sections, rep["calibration"])
        layers = layer_self(sections, selfs)
        fig = {"layers": layers,
               "self_sum_ratio": ratio(sum(layers.values()) / 1e9,
                                       rep_run_s(reps[i - 1])),
               "clock_read_ns": rep["calibration"]["clock_read_ns"]}
        for s in sections:
            fig["self." + s["name"]] = ratio(selfs[s["name"]], s["calls"])
            fig["calls." + s["name"]] = s["calls"]
        per_rep.append(fig)
    if not per_rep:
        raise CheckFailed("no traced repetition")

    def med(key):
        return median([f.get(key, 0.0) for f in per_rep])

    m["telemetry.self_sum_ratio"] = med("self_sum_ratio")
    if abs(m["telemetry.self_sum_ratio"] - 1.0) > SELF_SUM_TOLERANCE:
        raise CheckFailed(
            "layer self times sum to %.3f x the untraced run phase, "
            "outside 1 +- %.2f" % (m["telemetry.self_sum_ratio"],
                                   SELF_SUM_TOLERANCE))

    for layer in LAYERS:
        layer_ns = median([f["layers"][layer] for f in per_rep])
        m["%s.self_ns_per_pkt" % layer] = ratio(layer_ns, pkts)
        if layer == "netsim":
            m["netsim.self_ns_per_event"] = ratio(layer_ns, events)
    m["netsim.events"] = events
    m["netsim.events_per_pkt"] = ratio(events, pkts)
    m["netsim.events_per_s"] = ratio(events, run_untraced)
    m["netsim.late_events"] = rep_sum(first, "late_events")

    floc = [c for c in cases if c["layer"] == "core"]
    if floc:
        m["core.enqueue.self_ns_per_call"] = med("self.floc.enqueue")
        m["core.dequeue.ns_per_call"] = med("self.floc.dequeue")
        m["core.cap_verify.ns_per_call"] = med("self.floc.cap_verify")
        m["core.control.ns_per_call"] = med("self.floc.control")
        m["core.control.calls"] = med("calls.floc.control")
        counters = [c["counters"] for c in floc]
        m["core.origins"] = max(k["origins"] for k in counters)
        m["core.aggregates"] = max(k["aggregates"] for k in counters)
        m["core.evictions"] = sum(k["evictions"] for k in counters)
        m["core.overload_entries"] = sum(k["overload_entries"]
                                         for k in counters)
        m["core.admit_ratio"] = ratio(sum(c["admitted"] for c in floc),
                                      sum(c["pkts"] for c in floc))
        for d in FLOC_DROPS:
            m["core.drops." + d] = sum(k["drops." + d] for k in counters)

    for c in cases:
        if c["layer"] == "baselines" and c["name"] in BASELINES:
            for op in ("enqueue", "dequeue"):
                m["baselines.%s.%s.ns_per_call" % (c["name"], op)] = med(
                    "self.%s.%s" % (c["name"], op))
            m["baselines.%s.admit_ratio" % c["name"]] = ratio(c["admitted"],
                                                              c["pkts"])

    inet = [c for c in cases if c["layer"] == "inetsim"]
    if inet:
        ticks = inet[0]["counters"]["ticks"]
        for p in INET_POLICIES:
            per_call = med("self.inetsim." + p)
            m["inetsim.%s.ns_per_tick" % p] = ratio(per_call, ticks)
        dropped = sum(c["counters"]["dropped_internal"] for c in inet)
        m["inetsim.dropped_internal_ratio"] = ratio(
            dropped, dropped + sum(c["pkts"] for c in inet))
        m["inetsim.aggregates"] = statistics.fmean(
            c["counters"]["aggregates"] for c in inet)

    m["topology.tree.build_ms"] = setup_part_ms(doc, "topology.tree")
    m["topology.skitter.build_ms"] = setup_part_ms(doc, "topology.skitter")
    m["topology.placement.build_ms"] = setup_part_ms(doc, "topology.placement")

    m["telemetry.clock_read_ns"] = med("clock_read_ns")
    m["telemetry.trace_overhead_ratio"] = ratio(
        median([rep_run_s(r) for r in traced]), run_untraced)
    channels = doc.get("channels")
    if channels:
        detached = median(channels["detached"])
        for name in ("tracer", "journal"):
            m["telemetry.%s.overhead_ratio" % name] = ratio(
                median(channels[name]), detached)
    return m


def reduce(doc, trace):
    """Returns (result object, printable metric lines)."""
    attempted, failed, messages = count_failures(doc)
    table = PER_LAYER if trace else END_TO_END
    try:
        values = per_layer(doc) if trace else end_to_end(doc)
        for name, _ in table:
            if not math.isfinite(values[name]):
                raise CheckFailed("%s is not finite" % name)
            if not trace and values[name] <= 0:
                raise CheckFailed("%s is not positive" % name)
    except CheckFailed as e:
        values = {}
        messages.append(str(e))
        failed = max(failed, 1)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in table if name in values}
    result = {"correct": failed == 0 and not messages,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    lines = ["FAILED %s" % msg for msg in messages]
    lines += ["%-36s %16.6g %s" % (n, v["value"], v["unit"])
              for n, v in metrics.items()]
    return result, lines


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--from-json", metavar="FILE",
                   help="reduce a saved driver document; skip build and run")
    args = p.parse_args()

    try:
        if args.from_json:
            with open(args.from_json) as f:
                doc = json.load(f)
        else:
            doc = run_driver(build_driver(), args)
    except (CheckFailed, OSError, ValueError, subprocess.SubprocessError) as e:
        print("scenbench: %s" % e, file=sys.stderr)
        return 1

    result, lines = reduce(doc, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
