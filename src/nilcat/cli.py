"""Command-line interface: period solving, mesh export, curve export, and
the one-shot verification suite.

Exit codes: 0 on success, 1 when a verification threshold fails, 2 on a
usage error.  All artifacts are written atomically with deterministic
formatting (no timestamps); identical invocations produce byte-identical
files.  NILCAT_THREADS caps the worker count for alpha sweeps.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .catenoid import build_catenoid, limit_deviation, mesh_catenoid, \
    section_curve, waist_extent
from .cmc import build_cmc_annulus, reflect_and_mesh
from .errors import NilcatError
from .helicoid import build_helicoid, mesh_helicoid
from .meshes import _atomic_write_bytes, csv_text, write_mesh
from .period import appendix_I_decomposition
from .verify import run_verification, thread_count

COMMANDS = ("solve-period", "mesh-catenoid", "mesh-helicoid", "mesh-cmc",
            "section", "limit-study", "verify")


class UsageError(ValueError):
    pass


@dataclass
class JobConfig:
    """Validated job description for one CLI invocation."""

    command: str
    alphas: list = field(default_factory=lambda: [1.0])
    nu: int = 64
    nv: int = 64
    v_range: tuple = (-2.0, 2.0)
    tol: float = 1e-11
    out: str | None = None
    fmt: str = "obj"
    section_c: float = 0.0
    samples: int = 1024

    def validate(self):
        if self.command not in COMMANDS:
            raise UsageError(f"unknown command {self.command!r}")
        if not self.alphas or not all(0 < a < math.inf for a in self.alphas):
            raise UsageError("alpha values must be positive and finite")
        if self.nu < 16 or self.nv < 2:
            raise UsageError("resolution must be at least nu=16, nv=2")
        if self.samples < 16:
            raise UsageError("samples must be at least 16")
        if not 1e-14 <= self.tol <= 1e-6:
            raise UsageError("tol must lie in [1e-14, 1e-6]")
        if not all(math.isfinite(x) for x in self.v_range):
            raise UsageError("v-range bounds must be finite")
        if self.v_range[1] <= self.v_range[0]:
            raise UsageError("v-range must be increasing lo:hi")
        if not math.isfinite(self.section_c):
            raise UsageError("section-c must be finite")
        if self.fmt not in ("obj", "ply", "csv", "json"):
            raise UsageError(f"unknown format {self.fmt!r}")
        if self.command.startswith("mesh-") and self.out is None:
            raise UsageError(f"{self.command} requires --out")
        if self.command.startswith("mesh-") and self.fmt not in ("obj", "ply"):
            raise UsageError("mesh output format must be obj or ply")
        return self


def _parse_span(text):
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"expected lo:hi, got {text!r}")
    return (float(parts[0]), float(parts[1]))


def _parse_sweep(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"expected a:b:n, got {text!r}")
    a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(a) and math.isfinite(b)):
        raise UsageError("sweep ends must be finite")
    if n < 1:
        raise UsageError("sweep count must be positive")
    return list(np.linspace(a, b, n))


def _emit(payload: str, out):
    if out is None:
        sys.stdout.write(payload)
    else:
        _atomic_write_bytes(out, payload.encode())


def _period_record(alpha, tol):
    model = build_catenoid(alpha, tol=tol)
    theta = model.theta_tilde
    d = appendix_I_decomposition(alpha, theta)
    return {
        "alpha": alpha,
        "theta_tilde": theta,
        "L_residual": d.L,
        "I1": d.I1, "I2": d.I2, "I3": d.I3,
        "U": model.U, "betaU": model.profile.betaU, "GU": model.profile.GU,
        "V": model.V,
    }


def _sweep_map(fn, alphas):
    workers = min(thread_count(), len(alphas))
    if workers <= 1:
        return [fn(a) for a in alphas]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, alphas))


def run(config: JobConfig) -> int:
    """Execute a validated job; returns the process exit status."""
    cmd = config.command
    if cmd == "solve-period":
        recs = _sweep_map(lambda a: _period_record(a, config.tol),
                          config.alphas)
        if len(recs) == 1 and config.fmt != "csv":
            _emit(json.dumps(recs[0], indent=2, sort_keys=True) + "\n",
                  config.out)
        else:
            header = ["alpha", "theta_tilde", "L_residual", "I1", "I2", "I3"]
            _emit(csv_text(header, [[r[k] for k in header] for r in recs]),
                  config.out)
        return 0

    if cmd == "mesh-catenoid":
        model = build_catenoid(config.alphas[0], tol=config.tol)
        mesh = mesh_catenoid(model, config.v_range, config.nu, config.nv)
        write_mesh(mesh, config.fmt, config.out)
        return 0

    if cmd == "mesh-helicoid":
        model = build_helicoid(config.alphas[0])
        mesh = mesh_helicoid(model, config.v_range, config.nu, config.nv)
        write_mesh(mesh, config.fmt, config.out)
        return 0

    if cmd == "mesh-cmc":
        model = build_cmc_annulus(config.alphas[0])
        mesh = reflect_and_mesh(model, nu=config.nu, nv=config.nv,
                                v_range=config.v_range)
        write_mesh(mesh, config.fmt, config.out)
        return 0

    if cmd == "section":
        model = build_catenoid(config.alphas[0], tol=config.tol)
        s = section_curve(model, config.section_c, config.samples)
        _emit(csv_text(["u", "y1", "y3", "v", "curvature"],
                       zip(s.u, s.y1, s.y3, s.v, s.curvature)), config.out)
        return 0

    if cmd == "limit-study":
        def study(alpha):
            model = build_catenoid(alpha, tol=config.tol)
            grid = np.linspace(-1, 1, 3)
            dev = max(max(limit_deviation(model, uh, vh))
                      for uh in grid for vh in grid)
            return [alpha, waist_extent(model), dev]

        _emit(csv_text(["alpha", "waist_extent", "max_limit_deviation"],
                       _sweep_map(study, config.alphas)), config.out)
        return 0

    # verify
    reports = _sweep_map(lambda a: run_verification(a, tol=config.tol),
                         config.alphas)
    payload = {}
    ok = True
    for alpha, rep in zip(config.alphas, reports):
        payload[f"alpha={alpha:g}"] = rep.as_dict()
        ok = ok and rep.all_pass()
        for name in rep.failures():
            sys.stderr.write(f"FAIL alpha={alpha:g}: {name} residual="
                             f"{rep.entries[name]['residual']:.3e}\n")
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", config.out)
    return 0 if ok else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="nilcat",
        description="Horizontal minimal catenoids and helicoids in the "
                    "Heisenberg group and their CMC 1/2 sister annuli: "
                    "construction, verification, mesh export.")
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--alpha", type=float, default=None)
        sp.add_argument("--alpha-sweep", type=str, default=None,
                        metavar="A:B:N")
        sp.add_argument("--tol", type=float, default=1e-11)
        sp.add_argument("--nu", type=int, default=64)
        sp.add_argument("--nv", type=int, default=64)
        sp.add_argument("--v-range", type=str, default="-2:2", metavar="LO:HI")
        sp.add_argument("--section-c", type=float, default=0.0)
        sp.add_argument("--samples", type=int, default=1024)
        sp.add_argument("--format", dest="fmt", type=str, default=None,
                        choices=("obj", "ply", "csv", "json"))
        sp.add_argument("--out", type=str, default=None)
    return p


def config_from_args(args) -> JobConfig:
    if args.alpha is not None and args.alpha_sweep is not None:
        raise UsageError("--alpha and --alpha-sweep are mutually exclusive")
    if args.alpha_sweep is not None:
        alphas = _parse_sweep(args.alpha_sweep)
    else:
        alphas = [args.alpha if args.alpha is not None else 1.0]
    fmt = args.fmt
    if fmt is None:
        fmt = "obj" if args.command.startswith("mesh-") else "json"
    return JobConfig(command=args.command, alphas=alphas, nu=args.nu,
                     nv=args.nv, v_range=_parse_span(args.v_range),
                     tol=args.tol, out=args.out, fmt=fmt,
                     section_c=args.section_c,
                     samples=args.samples).validate()


def _glue_dash_values(argv):
    """Join '--v-range -3:3' into '--v-range=-3:3' so argparse does not
    mistake the negative bound for an option."""
    out = []
    it = iter(argv)
    for a in it:
        if a in ("--v-range", "--alpha-sweep", "--section-c"):
            nxt = next(it, None)
            out.append(a if nxt is None else f"{a}={nxt}")
        else:
            out.append(a)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_glue_dash_values(argv))
    try:
        config = config_from_args(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    try:
        return run(config)
    except NilcatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
