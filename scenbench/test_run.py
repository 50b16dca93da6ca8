"""Tests of the benchmark's reduction, contract and failure handling.

    python3 -m unittest discover -s scenbench -p 'test_*.py'

They feed run.py synthetic driver documents, so they need no build.
"""

import copy
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
CAL = {"clock_read_ns": 20.0,
       "scoped": {"inner_ns": 20.0, "outer_ns": 50.0},
       "dispatch": {"inner_ns": 25.0, "outer_ns": 60.0}}


def load_benchmark():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def section(name, parent, layer, calls, total_ns, timer="scoped"):
    return {"name": name, "parent": parent, "layer": layer, "timer": timer,
            "calls": calls, "total_ns": total_ns}


def make_case(name, layer, ok=True):
    counters = {}
    if layer == "core":
        counters = {"origins": 27, "aggregates": 30, "evictions": 5,
                    "overload_entries": 1}
        counters.update({"drops." + d: 10 for d in run.FLOC_DROPS})
    elif layer == "inetsim":
        counters = {"dropped_internal": 500, "aggregates": 12, "ticks": 1200}
    setup_part = ("topology.skitter" if layer == "inetsim"
                  else "topology.tree")
    return {"name": name, "layer": layer, "setup_ns": 400000,
            "run_ns": 500000000, "pkts": 100000, "admitted": 60000,
            "events": 0 if layer == "inetsim" else 4000000,
            "late_events": 0, "allocs": 300000, "legit_share": 0.8,
            "digest": "0", "ok": ok, "why": "" if ok else "audit: broken",
            "setup_parts": {setup_part: 400000}, "counters": counters}


def make_sections(workload, cases):
    n = len(cases)
    if workload == "inet_tick":
        secs = [section("run", "", "inetsim", n, n * 500000000)]
        secs += [section("inetsim." + p, "run", "inetsim", n, n * 100000000)
                 for p in run.INET_POLICIES]
        return secs
    secs = [section("run", "", "netsim", n, n * 500000000),
            section("sim.dispatch", "run", "netsim", n * 4000000,
                    n * 400000000, timer="dispatch")]
    if workload == "baseline_flood":
        for c in cases:
            for op in ("enqueue", "dequeue"):
                secs.append(section("%s.%s" % (c["name"], op), "sim.dispatch",
                                    "baselines", 100000, 30000000))
        return secs
    secs += [
        section("link.enqueue", "sim.dispatch", "netsim", n * 100000,
                n * 40000000),
        section("link.dequeue", "sim.dispatch", "netsim", n * 60000,
                n * 10000000),
        section("floc.enqueue", "link.enqueue", "core", n * 100000,
                n * 30000000),
        section("floc.dequeue", "link.dequeue", "core", n * 60000,
                n * 4000000),
        section("floc.control", "floc.enqueue", "core", n * 100, n * 2000000),
        section("floc.cap_verify", "floc.enqueue", "core", n * 100000,
                n * 12000000),
    ]
    return secs


def traced_rep(workload, cases):
    """A traced repetition whose layer self times sum to the untraced run.

    The root section ("run") grows by the instrumentation the calibration
    subtracts, as a traced run phase does, and the cases' run phases with it.
    """
    sections = make_sections(workload, cases)
    root = sections[0]
    untraced_ns = root["total_ns"]
    root["total_ns"] = 10 ** 15  # keeps every self time positive here
    overhead = root["total_ns"] - sum(run.self_times(sections, CAL).values())
    root["total_ns"] = untraced_ns + overhead
    traced_cases = [dict(c, run_ns=root["total_ns"] / len(cases))
                    for c in cases]
    return {"traced": True, "calibration": copy.deepcopy(CAL),
            "cases": traced_cases, "sections": sections}


CASES = {
    "floc_flood": [("tcp-population", "core"), ("cbr", "core"),
                   ("shrew", "core")],
    "floc_churn": [("state-exhaust", "core")],
    "baseline_flood": [(s, "baselines") for s in run.BASELINES],
    "inet_tick": [("f-root", "inetsim"), ("h-root", "inetsim"),
                  ("jpn", "inetsim")],
}


def fake_doc(workload, trace, ok=True, failures=()):
    cases = [make_case(n, layer, ok) for n, layer in CASES[workload]]
    reps = [{"traced": False, "cases": cases, "sections": []}]
    if trace:
        reps.append(traced_rep(workload, cases))
    doc = {"workload": workload, "seed": 1, "trace": bool(trace),
           "setup_reps": [cases, cases, cases], "reps": reps,
           "peak_rss_kb": 4096, "failures": list(failures)}
    if trace and workload == "floc_flood":
        doc["channels"] = {"detached": [1.0, 1.1], "tracer": [1.5, 1.6],
                           "journal": [1.2, 1.2]}
    return doc


def run_from_json(doc, trace):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        return subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             doc["workload"], "--trace", str(trace), "--from-json", path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            check=False)


class ContractTest(unittest.TestCase):
    def test_every_benchmark_metric_is_printed_with_its_unit(self):
        bench = load_benchmark()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in bench[key]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    proc = run_from_json(fake_doc(workload, trace), trace)
                    self.assertEqual(proc.returncode, 0, proc.stdout)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, declared)
                    for name, unit in declared.items():
                        self.assertTrue(
                            any(line.split()[:1] == [name]
                                and line.split()[-1] == unit
                                for line in lines[:-1]), name)

    def test_names_and_units_are_well_formed(self):
        bench = load_benchmark()
        names = [w["name"] for w in bench["workloads"]]
        names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME_RE)
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(m["unit"], UNIT_RE)
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]),
                         sorted(run.WORKLOADS))
        self.assertIn({"name": "setup_s", "unit": "s", "better": "lower",
                       "bound": max(m["bound"] for m in bench["end_to_end"])},
                      bench["end_to_end"])


class SelfTimeTest(unittest.TestCase):
    # Scoped timers carry 2 ns inside their interval and cost their parent
    # 3 ns more; the dispatch timer 3 ns and 4 ns more.
    CAL = {"clock_read_ns": 2.0, "scoped": {"inner_ns": 2.0, "outer_ns": 5.0},
           "dispatch": {"inner_ns": 3.0, "outer_ns": 7.0}}

    def test_nested_profile(self):
        # root R holds A and C; A holds B.
        sections = [section("R", "", "netsim", 1, 1000),
                    section("A", "R", "core", 10, 600, timer="dispatch"),
                    section("B", "A", "core", 5, 200),
                    section("C", "R", "baselines", 2, 100)]
        selfs = run.self_times(sections, self.CAL)
        self.assertEqual(selfs, {"R": 1000 - 700 - 2 - 10 * 4 - 2 * 3,
                                 "A": 600 - 200 - 10 * 3 - 5 * 3,
                                 "B": 200 - 5 * 2,
                                 "C": 100 - 2 * 2})
        layers = run.layer_self(sections, selfs)
        self.assertEqual(layers["core"], selfs["A"] + selfs["B"])

    def test_unknown_parent_is_rejected(self):
        with self.assertRaises(run.CheckFailed):
            run.self_times([section("A", "missing", "core", 1, 10)], self.CAL)

    def test_child_larger_than_its_parent_is_rejected(self):
        # B cannot run inside A: it took longer than A did.
        sections = [section("R", "", "netsim", 1, 1000),
                    section("A", "R", "core", 10, 100),
                    section("B", "A", "core", 5, 300)]
        with self.assertRaises(run.CheckFailed):
            run.self_times(sections, self.CAL)


class FailureTest(unittest.TestCase):
    def test_failed_case_exits_nonzero(self):
        proc = run_from_json(fake_doc("floc_flood", 0, ok=False), 0)
        self.assertNotEqual(proc.returncode, 0)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_failed_global_check_exits_nonzero(self):
        doc = fake_doc("inet_tick", 0,
                       failures=["f-root: rows differ from "
                                 "run_inet_experiment"])
        proc = run_from_json(doc, 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(json.loads(proc.stdout.splitlines()[-1])["correct"])

    def test_zero_metric_exits_nonzero(self):
        doc = fake_doc("floc_churn", 0)
        doc["peak_rss_kb"] = 0
        self.assertNotEqual(run_from_json(doc, 0).returncode, 0)

    def test_uncalibrated_dispatch_timer_exits_nonzero(self):
        # Subtracting nothing for sim.dispatch leaves its 240 ms of timer
        # cost per case in the self times: they sum to 1.48x the untraced
        # run phase.
        doc = fake_doc("floc_flood", 1)
        doc["reps"][1]["calibration"]["dispatch"] = {"inner_ns": 0.0,
                                                     "outer_ns": 0.0}
        proc = run_from_json(doc, 1)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("untraced run phase", proc.stdout)

    def test_wrong_parent_exits_nonzero(self):
        doc = fake_doc("floc_flood", 1)
        for s in doc["reps"][1]["sections"]:
            if s["name"] == "link.enqueue":
                s["parent"] = "floc.dequeue"
        proc = run_from_json(doc, 1)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("negative self time", proc.stdout)

    def test_without_sources_exits_nonzero_and_prints_no_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "scenbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "scenbench/run.py", "--workload",
                 "floc_flood", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=60, check=False)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
