"""Self-test of the benchmark; run from the repository root:

    python3 bench/check_bench.py

Checks that the tracer sees nested calls through every namespace that
binds a wrapped function and removes every wrapper afterwards, that self
times add up, that count metrics repeat exactly for one seed, that the
printed metrics match BENCHMARK.json, that a run leaves the source tree
as it was, and that the benchmark refuses to run without the sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import nilcat.cli  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("period-sweep", "mesh-export", "verify-suite")


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_status():
    proc = subprocess.run(["git", "status", "--porcelain", "--ignored"],
                          cwd=ROOT, capture_output=True, text=True)
    return proc.stdout if proc.returncode == 0 else None


class TracerTest(unittest.TestCase):
    def test_nesting_self_time_and_removal(self):
        before = {m.__name__: dict(vars(m)) for m in tracer.nilcat_modules()}
        tr = tracer.Tracer()
        with tempfile.TemporaryDirectory() as tmp:
            tr.install()
            try:
                tr.request = 0
                t0 = time.perf_counter()
                status = nilcat.cli.main(["verify", "--alpha", "1.0", "--out",
                                          os.path.join(tmp, "v.json")])
                wall = time.perf_counter() - t0
                tr.request = None
            finally:
                tr.uninstall()
        self.assertEqual(status, 0)
        spans = tr.spans

        want = ["cli.main", "verify.run_verification",
                "catenoid.build_catenoid", "period.find_theta_tilde",
                "period.L_integral"]
        chains = []
        for i, s in enumerate(spans):
            if s[0] == "period.L_integral":
                chain = []
                while i >= 0:
                    chain.append(spans[i][0])
                    i = spans[i][3]
                chains.append([n for n in reversed(chain) if n in want])
        self.assertIn(want, chains)

        self_t = tracer.self_times(spans)
        self.assertGreaterEqual(min(self_t), 0.0)
        self.assertLessEqual(sum(self_t), wall)

        self.assertEqual(tracer.installed_wrappers(), [])
        after = {m.__name__: dict(vars(m)) for m in tracer.nilcat_modules()}
        for name, attrs in before.items():
            for attr, obj in attrs.items():
                self.assertIs(after[name][attr], obj, f"{name}.{attr}")


class RunTest(unittest.TestCase):
    def test_counts_repeat_and_names_match(self):
        names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            a, b = (result(bench("--workload", workload, "--seed", "7",
                                 "--seconds", "1", "--trace", "1"))
                    for _ in range(2))
            got = {k: v["unit"] for k, v in a["metrics"].items()}
            self.assertEqual(got, names, workload)
            for k, v in a["metrics"].items():
                if v["unit"] in ("count", "bytes"):
                    self.assertEqual(v["value"], b["metrics"][k]["value"],
                                     f"{workload}: {k}")

    def test_end_to_end_names_and_clean_tree(self):
        status = git_status()
        res = result(bench("--workload", "period-sweep", "--seed", "3",
                           "--seconds", "1", "--trace", "0"))
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()},
                         {m["name"]: m["unit"] for m in SPEC["end_to_end"]})
        if status is not None:
            self.assertEqual(git_status(), status)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(tmp) / path)
            proc = bench("--workload", "period-sweep", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
