"""One workload process of the benchmark; started by run.py, never twice.

Imports `nilcat.cli`, runs one untimed warm-up request and prints
`ready`: the parent times set-up from spawn to that line.  Then, unless
the mode is `setup`, it runs whole blocks of the workload as a closed
loop with one client, checks every request after its timer stops, and
prints one JSON line with the request log.

Modes: `setup` stops after `ready`.  `timed` draws a power of two of
blocks that holds `--min-requests` requests and `--seconds / --passes`
of request time, then runs the same requests in the remaining passes and
logs each request's least latency.  `traced` and `replay` run exactly `--blocks` blocks once,
with and without the tracer; `traced` writes its spans to `--spans`.
"""

import argparse
import json
import os
import resource
import sys
import time

import nilcat.cli  # noqa: F401  (set-up time includes this import)

import tracer
import workloads



def run_request(req, tr=None, request_id=None):
    """(latency_s, error message or None) of one request and its check.

    Spans are recorded under `request_id` while the request runs, never
    while it is checked."""
    if tr is not None:
        tr.request = request_id
    t0 = time.perf_counter()
    try:
        status = workloads.execute(req)
        error = None if status == 0 else f"exit status {status}"
    except (Exception, SystemExit) as exc:
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if tr is not None:
        tr.request = None
    if os.path.exists(req.out):
        # checked even after a non-zero exit, so verify's counts are read
        try:
            workloads.check(req)
        except (Exception, SystemExit) as exc:
            error = error or f"check: {type(exc).__name__}: {exc}"
    elif error is None:
        error = "no output written"
    if os.path.exists(req.out):
        os.unlink(req.out)
    req.result.pop("mesh", None)
    return latency, error


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True,
                   choices=("setup", "timed", "traced", "replay"))
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--min-requests", type=int, default=1)
    p.add_argument("--passes", type=int, default=1)
    p.add_argument("--blocks", type=int, default=0)
    p.add_argument("--tmp", required=True)
    p.add_argument("--spans")
    args = p.parse_args()
    wl = workloads.WORKLOADS[args.workload]

    _, error = run_request(wl.warmup.request(args.tmp))
    if error is not None:
        sys.exit(f"warm-up request failed: {error}")
    print("ready", flush=True)
    if args.mode == "setup":
        return

    draw = workloads.Draws(args.seed)
    tr = tracer.Tracer() if args.mode == "traced" else None
    log = {"latency_s": [], "alphas": 0, "vertices": 0, "executed": 0,
           "errors": [], "verify": {"checks": 0, "failed": 0,
                                    "worst_margin": 0.0}}

    def run(spec, repeat):
        req = spec.request(args.tmp, repeat)
        latency, error = run_request(req, tr, log["executed"])
        log["executed"] += 1
        if error is not None:
            log["errors"].append(error)
            print(f"request failed: {req.argv}: {error}", file=sys.stderr)
        v = req.result.get("verify")
        if v is not None:
            agg = log["verify"]
            agg["checks"] += v["checks"]
            agg["failed"] += v["failed"]
            agg["worst_margin"] = max(agg["worst_margin"], v["worst_margin"])
        return latency, req

    if tr is not None:
        tr.install()
    try:
        specs, first, blocks = [], [], 0
        while True:
            for spec in wl.block(draw, blocks):
                latency, req = run(spec, 0)
                specs.append(spec)
                first.append(latency)
                log["alphas"] += len(req.alphas)
                log["vertices"] += req.result.get("vertices", 0)
            blocks += 1
            if args.mode != "timed":
                if blocks >= args.blocks:
                    break
            # a power of two of blocks fills every stratum evenly (Draws)
            elif (sum(first) >= args.seconds / args.passes
                  and len(specs) >= args.min_requests
                  and blocks & (blocks - 1) == 0):
                break
        log["latency_s"] = first
        for repeat in range(1, args.passes):
            log["latency_s"] = [min(t, run(spec, repeat)[0])
                                for t, spec in zip(log["latency_s"], specs)]
    finally:
        if tr is not None:
            tr.uninstall()
    log["wrappers_left"] = tracer.installed_wrappers()
    log["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tr is not None:
        with open(args.spans, "w") as fh:
            json.dump(tr.spans, fh)
    print(json.dumps(log), flush=True)


if __name__ == "__main__":
    main()
