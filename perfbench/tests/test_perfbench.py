"""Tests of the benchmark itself (not of vcgt).

    python3 -m unittest discover -s perfbench/tests -v

Run from the repository root. The first test to run builds the benchmark
(a few minutes cold); the whole file then takes about two minutes.
"""
import collections
import importlib.util
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_PY = os.path.join(ROOT, "perfbench", "run.py")

_spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

WORKLOADS = [w["name"] for w in json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["workloads"]]

# Metrics that are counts of work, not times: they must repeat exactly.
COUNT_METRICS = {
    "rig_rk": ["op2.loop_calls_per_step", "jm76.candidates_per_step", "minimpi.msgs_per_step",
               "minimpi.bytes_per_step", "minimpi.slab_allocs_per_step", "trace.dropped"],
    "row_implicit": ["hydra.outer_iters", "krylov.iters_per_outer", "op2.loop_calls_per_step",
                     "op2.halo_msgs_per_outer", "op2.halo_bytes_per_outer",
                     "minimpi.msgs_per_step", "minimpi.bytes_per_step",
                     "minimpi.slab_allocs_per_step", "trace.dropped"],
    "serve_mix": ["serve.cache_evictions_per_session", "serve.warm_frac",
                  "op2.loop_calls_per_step", "minimpi.msgs_per_step", "trace.dropped"],
}
# serve_mix counts cache lookups over its first 80 sessions. A cold session's
# Coupler Unit looks up the row meshes while its Hydra Session ranks may
# still be inserting them, so the hit/miss split can move by a lookup from
# run to run; the number of lookups cannot.
SERVE_COUNTED_SESSIONS = 80

_results = {}


def bench(workload, seed=1, trace=0, seconds=1):
    """Runs perfbench/run.py once (memoized) and returns its result line."""
    key = (workload, seed, trace, seconds)
    if key not in _results:
        env = {k: v for k, v in os.environ.items() if not k.startswith("VCGT_")}
        p = subprocess.run([sys.executable, RUN_PY, "--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", str(trace)],
                           cwd=ROOT, capture_output=True, text=True, env=env, timeout=600)
        if p.returncode != 0:
            raise AssertionError("run.py failed (%d): %s" % (p.returncode, p.stderr[-3000:]))
        _results[key] = json.loads(p.stdout.strip().splitlines()[-1])
    return _results[key]


def schedule(seed, blocks=8):
    run.build()
    out = subprocess.run([run.BINARY, "--print-schedule", str(blocks), "--seed", str(seed),
                          "--refs", os.path.join(ROOT, "perfbench", "refs")],
                         capture_output=True, text=True, check=True).stdout
    return [tuple(line.split()) for line in out.splitlines()]


class MetricNames(unittest.TestCase):
    def test_result_line_matches_benchmark_json(self):
        for trace in (0, 1):
            names = run.declared_metrics(trace)
            for w in WORKLOADS:
                res = bench(w, trace=trace)
                self.assertEqual(sorted(res), ["attempted", "correct", "failed", "metrics"])
                self.assertEqual(sorted(res["metrics"]), sorted(names), (w, trace))


class Correctness(unittest.TestCase):
    def test_every_workload_passes_its_check_on_a_short_run(self):
        for w in WORKLOADS:
            res = bench(w)
            self.assertTrue(res["correct"], w)
            self.assertGreaterEqual(res["attempted"], 1, w)
            self.assertEqual(res["failed"], 0, w)
            for name, m in res["metrics"].items():
                self.assertGreater(m["value"], 0.0, (w, name))

    def test_traced_run_reports_floors_and_drops_nothing(self):
        for w in WORKLOADS:
            m = bench(w, trace=1)["metrics"]
            self.assertEqual(m["trace.dropped"]["value"], 0, w)
            for floor in ("hw.triad_gbs", "op2.triad_gbs", "minimpi.pingpong_us"):
                self.assertGreater(m[floor]["value"], 0.0, (w, floor))

    def test_refuses_vcgt_knobs(self):
        env = dict(os.environ, VCGT_OP2_LAYOUT="soa")
        p = subprocess.run([sys.executable, RUN_PY, "--workload", "rig_rk", "--seed", "1",
                            "--seconds", "1", "--trace", "0"],
                           cwd=ROOT, capture_output=True, text=True, env=env)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout.strip(), "")


class ServeSchedule(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        self.assertEqual(schedule(7), schedule(7))

    def test_other_seed_reorders_with_identical_mode_shares(self):
        a, b = schedule(7), schedule(8)
        self.assertNotEqual([m for m, _ in a], [m for m, _ in b])
        shares = collections.Counter(m for m, _ in a)
        self.assertEqual(shares, collections.Counter(m for m, _ in b))
        self.assertEqual(shares, {"warm": 48, "cached": 16, "cold": 16})

    def test_modes_mean_what_they_say(self):
        prev = ("cold", "h1")  # the priming pass parks the last hot spec
        seen = {"h0", "h1"}
        for mode, spec in schedule(7):
            if mode == "warm":
                self.assertEqual(spec, prev[1])
            elif mode == "cached":
                self.assertTrue(spec.startswith("h"))
                self.assertNotEqual(spec, prev[1])
            else:
                self.assertNotIn(spec, seen)
            seen.add(spec)
            prev = (mode, spec)


class CountsRepeat(unittest.TestCase):
    def test_count_metrics_repeat_exactly(self):
        for w, names in COUNT_METRICS.items():
            a = bench(w, trace=1)["metrics"]
            b = bench(w, trace=1, seconds=2)["metrics"]
            for name in names:
                self.assertEqual(a[name]["value"], b[name]["value"], (w, name))

    def test_serve_cache_lookups_repeat_exactly(self):
        def lookups(m):
            return sum(round(m[k]["value"] * SERVE_COUNTED_SESSIONS)
                       for k in ("serve.cache_hits_per_session", "serve.cache_misses_per_session"))
        a = bench("serve_mix", trace=1)["metrics"]
        b = bench("serve_mix", trace=1, seconds=2)["metrics"]
        self.assertEqual(lookups(a), lookups(b))


if __name__ == "__main__":
    unittest.main()
