#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_perfbench.py

They drive perfbench/run.py in its --short mode (scaled-down inputs, a
few seconds in all), so the first run also builds the benchmark program.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ("swim_fleet", "swim_fleet_pdes", "opc_plant", "failover_pair")


def bench(workload, seed=7, trace=0):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--short"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)


def result_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sim_domain(proc):
    """The digest and every simulated-time scorecard row."""
    out = proc.stdout
    digest = re.search(r"^scorecard .* digest=([0-9a-f]+)", out, re.M).group(1)
    rows = [line for line in out.splitlines()
            if re.match(r"^  \S+\s+\S+\s+\S+\s+(sim|count)\s", line)]
    return digest, rows


class ShortModeTest(unittest.TestCase):
    def test_every_workload_runs_end_to_end(self):
        for wl in WORKLOADS:
            with self.subTest(workload=wl):
                p = bench(wl)
                self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
                r = result_line(p)
                self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(r["correct"])
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(set(r["metrics"]), {"sim_speed", "setup_s", "peak_rss_mb"})
                for m in r["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_traced_run_reports_layers_and_writes_a_loadable_trace(self):
        with open(ROOT / "BENCHMARK.json") as f:
            declared = [(m["name"], m["unit"]) for m in json.load(f)["per_layer"]]
        for wl in WORKLOADS:
            with self.subTest(workload=wl):
                p = bench(wl, trace=1)
                self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
                r = result_line(p)
                reported = [(k, v["unit"]) for k, v in r["metrics"].items()]
                self.assertEqual(reported, declared)
                self.assertGreater(r["metrics"]["sim.events"]["value"], 0)
                path = re.search(r"^# trace: (\S+)", p.stdout, re.M).group(1)
                with open(path) as f:
                    trace = json.load(f)
                names = {e["name"] for e in trace["traceEvents"]}
                self.assertIn("rep", names)
                self.assertTrue(any(n.startswith("phase.") for n in names))
                self.assertTrue(any(n.startswith("setup.") for n in names))


class DeterminismTest(unittest.TestCase):
    def test_same_seed_gives_identical_sim_metrics_and_digest(self):
        for wl in WORKLOADS:
            with self.subTest(workload=wl):
                a, b = bench(wl, seed=11), bench(wl, seed=11)
                self.assertEqual(a.returncode, 0, a.stdout)
                self.assertEqual(b.returncode, 0, b.stdout)
                self.assertEqual(sim_domain(a), sim_domain(b))

    def test_pdes_digest_does_not_depend_on_worker_count(self):
        # The traced run replays the seed at W=1 and exits 3 on a digest
        # that differs from the W=3 one.
        p = bench("swim_fleet_pdes", seed=5, trace=1)
        self.assertEqual(p.returncode, 0, p.stdout)
        w1 = re.search(r"^# W=1 reference: digest ([0-9a-f]+)", p.stdout, re.M).group(1)
        self.assertEqual(w1, sim_domain(p)[0])


class ContractTest(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "opc_plant",
                                "--seed", "1", "--seconds", "1", "--trace", "0"],
                               cwd=tmp, capture_output=True, text=True, timeout=120, env=env)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
