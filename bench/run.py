"""Benchmark of the nilcat pipeline; run from the repository root.

    python3 bench/run.py --workload period-sweep --seed 1 --seconds 20 --trace 0

With `--trace 0` it measures set-up (several fresh interpreters, median)
and then one fresh interpreter that runs whole request blocks in several
passes, about `--seconds` of request time in all, and takes each
request's least latency; it prints the end-to-end metrics.  With
`--trace 1` it runs a fixed number of blocks twice, traced and untraced
with the same seed, and prints the per-layer metrics and the tracing
overhead.  Every request is checked; the last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

Everything is written under a temporary directory in the repository
root, removed at exit.  The program is imported from `src/`; without it
the benchmark exits with status 2.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
# Per workload: the tail percentile, and the passes of a timed run.  On a
# shared virtual machine other tenants can slow a run by up to 1.5x for
# seconds to minutes, yet even slow spells leave short fast moments; a
# request's least latency over many passes finds them (see README.md).
TAILS = {"period-sweep": 75, "mesh-export": 70, "verify-suite": 60}
PASSES = {"period-sweep": 15, "mesh-export": 6, "verify-suite": 8}
TRACE_BLOCKS = {"period-sweep": 2, "mesh-export": 1, "verify-suite": 2}
THREAD_PINS = ("NILCAT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


def per_layer_unit(name):
    for suffix, unit in (("_s", "s"), (".bytes", "bytes"),
                         ("ns_per_point", "ns"), ("_share", "ratio"),
                         ("_ratio", "ratio"), ("_max", "1"),
                         ("worst_margin", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def spawn(args, tmp, deadline):
    """Run one worker; returns (set-up seconds, its JSON log or None)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0", TMPDIR=tmp)
    env.update({k: "1" for k in THREAD_PINS})
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--tmp", tmp, *args],
        stdout=subprocess.PIPE, env=env, cwd=tmp, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                               proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or first.strip() != "ready":
        raise RuntimeError(f"worker {args} exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def tail(values, pct):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(pct / 100 * len(s)) - 1)]


def end_to_end(workload, seed, seconds, tmp, deadline):
    def setup_probe():
        return spawn(["--workload", workload, "--seed", str(seed), "--mode",
                      "setup"], tmp, deadline)[0]

    # set-up samples before and after the timed worker, which is one too
    setups = [setup_probe() for _ in range(SETUP_SAMPLES // 2)]
    pct = TAILS[workload]
    # enough requests that the tail percentile has ten samples beyond it
    least = math.ceil(10 / (1 - pct / 100))
    setup, log = spawn(["--workload", workload, "--seed", str(seed),
                        "--mode", "timed", "--seconds", str(seconds),
                        "--min-requests", str(least),
                        "--passes", str(PASSES[workload])], tmp, deadline)
    setups.append(setup)
    setups += [setup_probe() for _ in range(SETUP_SAMPLES - len(setups))]
    lat = log["latency_s"]
    wall = sum(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "request_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "request_tail_ms": (1e3 * tail(lat, pct), "ms"),
        "alphas_per_s": (log["alphas"] / wall, "1/s"),
        "peak_rss_mb": (log["peak_rss_mb"], "MB"),
    }
    notes = [f"requests {len(lat)} in {log['executed']} executions, best-pass "
             f"wall {wall:.3f} s, tail is p{pct} "
             f"({len(lat) - math.ceil(pct / 100 * len(lat))} beyond it)",
             f"error_rate {len(log['errors']) / log['executed']:.6g} ratio"]
    if log["vertices"]:
        notes.append(f"vertices_per_s {log['vertices'] / wall:.6g} 1/s")
    return metrics, log["executed"], len(log["errors"]), notes


def traced(workload, seed, tmp, deadline):
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(HERE))
    import tracer
    spans_path = os.path.join(tmp, "spans.json")
    common = ["--workload", workload, "--seed", str(seed),
              "--blocks", str(TRACE_BLOCKS[workload])]
    _, log = spawn(common + ["--mode", "traced", "--spans", spans_path],
                   tmp, deadline)
    _, plain = spawn(common + ["--mode", "replay"], tmp, deadline)
    with open(spans_path) as fh:
        spans = json.load(fh)
    if log["wrappers_left"]:
        raise RuntimeError(f"wrappers left installed: {log['wrappers_left']}")
    m = tracer.layer_metrics(spans, log["alphas"], log["verify"])
    m["trace.wall_s"] = sum(log["latency_s"])
    m["trace.untraced_wall_s"] = sum(plain["latency_s"])
    m["trace.overhead_ratio"] = m["trace.wall_s"] / m["trace.untraced_wall_s"] - 1
    metrics = {k: (v, per_layer_unit(k)) for k, v in m.items()}
    notes = [f"traced wall {m['trace.wall_s']:.3f} s vs untraced "
             f"{m['trace.untraced_wall_s']:.3f} s "
             f"(overhead {100 * m['trace.overhead_ratio']:.1f}%)"]
    attempted = log["executed"] + plain["executed"]
    return metrics, attempted, len(log["errors"]) + len(plain["errors"]), notes


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(TAILS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "nilcat" / "cli.py").is_file():
        print(f"no nilcat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind: the worker is killed and the temp dir removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + TIME_LIMIT_S
    tmp = tempfile.mkdtemp(prefix=".bench-run-", dir=ROOT)
    try:
        if args.trace:
            metrics, attempted, failed, notes = traced(
                args.workload, args.seed, tmp, deadline)
        else:
            metrics, attempted, failed, notes = end_to_end(
                args.workload, args.seed, args.seconds, tmp, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    for line in notes:
        print(line)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
