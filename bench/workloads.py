"""Seeded request blocks, request execution and output checks for the
three workloads.

A workload is an endless sequence of blocks.  Each block has a fixed mix
(alpha strata, sweep lengths, surfaces, formats, mesh sides); the seed
places every request inside its stratum, through `Draws`, and shuffles
the block.  Runs measure whole blocks, so two seeds give different inputs
with nearly the same mix and comparable medians and tails.

Requests go through `nilcat.cli.main(argv)`; mesh requests also read the
file back and take its Euler characteristic.  Checks run after the timer
stops and re-derive what they test without the code they test.
"""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import nilcat.cli
import nilcat.meshes
from nilcat.catenoid import build_catenoid
from nilcat.cmc import build_cmc_annulus
from nilcat.helicoid import HelicoidModel
from nilcat.profile import AnnulusParams, solve_profile

PERIOD_ALPHAS = (0.2, 100.0)
MESH_ALPHAS = (0.5, 4.0)
SWEEP_LENGTHS = (2, 3, 4, 3)
MESH_SIDES = (64, 80, 100)
SURFACES = ("catenoid", "helicoid", "cmc")
FORMATS = ("ply", "obj")
SAMPLE_VERTICES = 64


class CheckError(Exception):
    """An output that breaks an invariant of the request."""


@dataclass
class Request:
    argv: list
    alphas: list
    out: str
    mesh: dict | None = None
    check_seed: int = 0
    result: dict = field(default_factory=dict)


def _num(x):
    return repr(float(x))


@dataclass(frozen=True)
class Spec:
    """One request of a block before it is rendered as CLI arguments.

    `command` is `solve-period`, `verify` or `mesh-<surface>`; a sweep
    has `alpha_end` and `count`, a mesh `fmt`, `side` and `half_width`.
    """

    command: str
    alpha: float
    alpha_end: float | None = None
    count: int = 1
    fmt: str = ""
    side: int = 0
    half_width: float = 0.0
    check_seed: int = 0

    def request(self, tmp, repeat=0):
        """The request of pass `repeat`.  Later passes scale alpha by
        1 + repeat * 2**-30: the same work, but a cache keyed on alpha
        (`build_helicoid` keeps one) is not hit again."""
        scale = 1.0 + repeat * 2.0 ** -30
        a = self.alpha * scale
        if self.command == "solve-period":
            out = os.path.join(tmp, "period.out")
            if self.alpha_end is None:
                return Request(["solve-period", "--alpha", _num(a), "--out",
                                out], [a], out)
            b = self.alpha_end * scale
            return Request(["solve-period", "--alpha-sweep",
                            f"{_num(a)}:{_num(b)}:{self.count}", "--out", out],
                           [float(x) for x in np.linspace(a, b, self.count)],
                           out)
        if self.command == "verify":
            out = os.path.join(tmp, "verify.json")
            return Request(["verify", "--alpha", _num(a), "--out", out], [a],
                           out)
        surface = self.command[len("mesh-"):]
        # the CMC mesh doubles its grid by reflection, so it gets half the rows
        nu = self.side
        nv = self.side // 2 if surface == "cmc" else self.side
        w = self.half_width
        out = os.path.join(tmp, f"mesh.{self.fmt}")
        argv = [self.command, "--alpha", _num(a), "--nu", str(nu), "--nv",
                str(nv), "--v-range", f"{_num(-w)}:{_num(w)}", "--format",
                self.fmt, "--out", out]
        return Request(argv, [a], out, check_seed=self.check_seed, mesh={
            "surface": surface, "fmt": self.fmt, "nu": nu, "nv": nv,
            "alpha": a, "v_range": (-w, w)})


class Draws:
    """Seeded quasi-random numbers in [0, 1) for the blocks of one run.

    Draw `key` of block b is frac(radical_inverse(b, base) + shift), with
    the shift drawn once per key from the seed.  The first B blocks of a
    key fill [0, 1) evenly for every B, so runs of different seeds and
    lengths see nearly the same mix of costs.
    """

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self._shifts = {}

    def __call__(self, block, key, base=2):
        if key not in self._shifts:
            self._shifts[key] = self.rng.random()
        x, f, b = 0.0, 1.0 / base, block
        while b:
            b, digit = divmod(b, base)
            x += digit * f
            f /= base
        return (x + self._shifts[key]) % 1.0

    def shuffled(self, specs):
        return [specs[i] for i in self.rng.permutation(len(specs))]


def _log_at(lo, hi, strata, k, u):
    """Point u of log stratum k of `strata` equal strata of [lo, hi]."""
    return math.exp(math.log(lo) + (k + u) / strata * math.log(hi / lo))


# -- request blocks ----------------------------------------------------------

def period_block(draw, b):
    """12 single-alpha and 4 short-sweep solve-period requests; the sweeps
    run from a to at most 2a."""
    lo, hi = PERIOD_ALPHAS
    specs = [Spec("solve-period", _log_at(lo, hi, 12, k, draw(b, ("one", k))))
             for k in range(12)]
    for k, n in enumerate(SWEEP_LENGTHS):
        a = _log_at(lo, hi / 2, len(SWEEP_LENGTHS), k, draw(b, ("from", k)))
        end = a * 2.0 ** draw(b, ("to", k), base=3)
        specs.append(Spec("solve-period", a, alpha_end=end, count=n))
    return draw.shuffled(specs)


def verify_block(draw, b):
    """8 verify requests, one alpha from each log stratum."""
    return draw.shuffled([
        Spec("verify", _log_at(*PERIOD_ALPHAS, 8, k, draw(b, ("one", k))))
        for k in range(8)])


def mesh_block(draw, b):
    """Every surface in both formats at every side."""
    combos = [(s, f, n) for s in SURFACES for f in FORMATS for n in MESH_SIDES]
    return draw.shuffled([
        Spec(f"mesh-{surface}", _log_at(*MESH_ALPHAS, 1, 0, draw(b, ("a", c))),
             fmt=fmt, side=side, half_width=0.5 + draw(b, ("v", c), base=3),
             check_seed=int(draw.rng.integers(2 ** 31)))
        for c, (surface, fmt, side) in enumerate(combos)])


# -- execution (timed) -------------------------------------------------------

def execute(req):
    """Run one request through the public entry points; returns the exit
    status.  Mesh requests also read the file back and count chi."""
    status = nilcat.cli.main(req.argv)
    if req.mesh is not None and status == 0:
        read = nilcat.meshes.read_ply if req.mesh["fmt"] == "ply" \
            else nilcat.meshes.read_obj
        mesh = read(req.out)
        req.result["mesh"] = mesh
        req.result["chi"] = nilcat.meshes.euler_characteristic(mesh)
    return status


# -- checks (untimed) --------------------------------------------------------

def period_L(alpha, theta, n=512):
    """L(alpha, theta) = alpha G(U) + C beta(U) by the midpoint rule in
    t = asin x.  The integrand is smooth and pi-periodic in t, so the rule
    converges geometrically; n and 2n must agree."""
    C = math.sin(2 * theta) / (2 * alpha)
    c2t = math.cos(2 * theta)

    def rule(m):
        t = (np.arange(m) + 0.5) * math.pi / m - math.pi / 2
        x2 = np.sin(t) ** 2
        sq = np.sqrt(alpha ** 2 + c2t * x2 - C ** 2 * x2 * x2)
        f = (2 * alpha * C ** 2 * x2 - alpha * c2t + C ** 2 * x2 * sq) \
            / (sq * (alpha + sq))
        return float(f.sum()) * math.pi / m

    coarse, fine = rule(n), rule(2 * n)
    if not abs(coarse - fine) <= 1e-12:
        raise CheckError(f"midpoint rule for L not converged at alpha="
                         f"{alpha}: {coarse} vs {fine}")
    return fine


def check_period_row(alpha, theta, I1, I2, I3):
    t_plus = math.pi / 2 if alpha > 1 else 0.5 * math.acos(1 - 2 * alpha ** 2)
    if not 0.0 < theta < min(t_plus, math.pi / 4):
        raise CheckError(f"theta {theta} outside (0, min(theta_plus, pi/4)) "
                         f"at alpha={alpha}")
    L = period_L(alpha, theta)
    if not abs(L) <= 1e-10:
        raise CheckError(f"|L(alpha={alpha}, theta)| = {abs(L):.3e} > 1e-10")
    split = I1 - math.cos(2 * theta) * I2 + I3
    if not abs(split) <= 1e-8:
        raise CheckError(f"|I1 - cos(2 theta) I2 + I3| = {abs(split):.3e} "
                         f"> 1e-8 at alpha={alpha}")


def check_period(req):
    with open(req.out) as fh:
        text = fh.read()
    if len(req.alphas) == 1:
        rec = json.loads(text)
        rows = [[rec[k] for k in ("alpha", "theta_tilde", "I1", "I2", "I3")]]
    else:
        lines = text.splitlines()
        if lines[0] != "alpha,theta_tilde,L_residual,I1,I2,I3":
            raise CheckError(f"unexpected sweep header {lines[0]!r}")
        rows = []
        for line in lines[1:]:
            a, th, _, i1, i2, i3 = (float(x) for x in line.split(","))
            rows.append([a, th, i1, i2, i3])
    if [r[0] for r in rows] != req.alphas:
        raise CheckError(f"alphas {[r[0] for r in rows]} != {req.alphas}")
    for row in rows:
        check_period_row(*row)


def check_verify(req):
    (alpha,) = req.alphas
    with open(req.out) as fh:
        payload = json.load(fh)
    key = f"alpha={alpha:g}"
    if list(payload) != [key] or not payload[key]:
        raise CheckError(f"expected one non-empty report {key!r}")
    failed, worst = [], 0.0
    for name, e in payload[key].items():
        thr = e["threshold"]
        ok = e["pass"] is not False
        if thr is not None:
            r = e["residual"]
            ok = ok and math.isfinite(r) and r <= thr
            if thr > 0:
                worst = max(worst, r / thr)
        if not ok:
            failed.append(name)
    req.result["verify"] = {"checks": len(payload[key]),
                            "failed": len(failed), "worst_margin": worst}
    if failed:
        raise CheckError(f"verify alpha={alpha}: failed {failed}")


def parse_mesh(path, fmt):
    """Vertices and faces of a written mesh, parsed without nilcat."""
    with open(path, "rb") as fh:
        data = fh.read()
    if fmt == "ply":
        end = data.index(b"end_header\n") + len(b"end_header\n")
        head = data[:end].decode().split()
        nv = int(head[head.index("vertex") + 1])
        nf = int(head[head.index("face") + 1])
        verts = np.frombuffer(data, "<f8", 3 * nv, end).reshape(nv, 3)
        rec = np.frombuffer(data, [("n", "u1"), ("i", "<i4", 3)], nf,
                            end + 24 * nv)
        if len(data) != end + 24 * nv + 13 * nf or np.any(rec["n"] != 3):
            raise CheckError("PLY body does not match its header")
        return verts, rec["i"].astype(np.int64)
    split = data.find(b"\nf ") + 1
    vpart, fpart = data[:split], data[split:]
    nv, nf = vpart.count(b"\n"), fpart.count(b"\n")
    if not (vpart.startswith(b"v ") and vpart.count(b"\nv ") == nv - 1
            and fpart.startswith(b"f ") and fpart.count(b"\nf ") == nf - 1):
        raise CheckError("OBJ is not a block of v lines then f lines")
    verts = np.loadtxt(io.BytesIO(vpart), usecols=(1, 2, 3), ndmin=2)
    faces = np.loadtxt(io.BytesIO(fpart), usecols=(1, 2, 3), ndmin=2,
                       dtype=np.int64) - 1
    return verts, faces


def _chi(n_vertices, faces):
    e = np.sort(np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]],
                                faces[:, [2, 0]]]), axis=1)
    edges = np.unique(e[:, 0] * n_vertices + e[:, 1])
    return n_vertices - len(edges) + len(faces)


def _expected_vertices(m, ids):
    """Vertices `ids` of the mesh request m, from a freshly built model's
    public sampler and the grid layout of the mesh builders."""
    nu, nv, alpha = m["nu"], m["nv"], m["alpha"]
    t = np.linspace(m["v_range"][0], m["v_range"][1], nv)
    if m["surface"] == "catenoid":
        model = build_catenoid(alpha)
        s = np.arange(nu) / nu
        i, j = ids % nu, ids // nu
        return model.xyz(2.0 * model.U * s[i], 2.0 * model.V * s[i] + t[j])
    if m["surface"] == "helicoid":
        model = HelicoidModel(solve_profile(AnnulusParams(alpha, 0.0)))
        u = np.linspace(-model.U, model.U, nu)
        return model.xyz(u[ids % nu], t[ids // nu])
    # cmc: front grid, then its height reflection without the two welded
    # boundary columns, which sit at height zero
    model = build_cmc_annulus(alpha)
    u = np.linspace(-model.U / 2, model.U / 2, nu)
    front = ids < nu * nv
    back = ids - nu * nv
    i = np.where(front, ids % nu, back % (nu - 2) + 1)
    j = np.where(front, ids // nu, back // (nu - 2))
    x = model.xyz(u[i], t[j])
    x[~front, 2] *= -1.0
    x[(i == 0) | (i == nu - 1), 2] = 0.0
    return x


def check_mesh(req):
    m = req.mesh
    nu, nv = m["nu"], m["nv"]
    want_v, want_f, want_chi = {
        "catenoid": (nu * nv, 2 * nu * (nv - 1), 0),
        "helicoid": (nu * nv, 2 * (nu - 1) * (nv - 1), 1),
        "cmc": (nu * nv + (nu - 2) * nv, 4 * (nu - 1) * (nv - 1), 0),
    }[m["surface"]]
    verts, faces = parse_mesh(req.out, m["fmt"])
    back = req.result["mesh"]
    for label, n_v, n_f in (("file", len(verts), len(faces)),
                            ("read-back", back.n_vertices, back.n_faces)):
        if (n_v, n_f) != (want_v, want_f):
            raise CheckError(f"{label} mesh has {n_v} vertices, {n_f} faces;"
                             f" the grid gives {want_v}, {want_f}")
    if faces.min() < 0 or faces.max() >= want_v:
        raise CheckError("face index out of range")
    chi = _chi(want_v, faces)
    if chi != want_chi or req.result["chi"] != want_chi:
        raise CheckError(f"chi {chi} (file), {req.result['chi']} (read-back)"
                         f"; expected {want_chi}")
    rng = np.random.default_rng(req.check_seed)
    ids = rng.choice(want_v, SAMPLE_VERTICES, replace=False)
    want = _expected_vertices(m, ids)
    scale = np.maximum(1.0, np.max(np.abs(want), axis=1))
    for label, got in (("file", verts[ids]), ("read-back",
                                              back.vertices[ids])):
        err = np.max(np.abs(got - want), axis=1) / scale
        if not np.all(err <= 1e-9):
            raise CheckError(f"{label} vertices differ from the sampler by "
                             f"{np.max(err):.3e} (relative)")
    req.result["vertices"] = want_v


def check(req):
    if req.mesh is not None:
        check_mesh(req)
    elif req.argv[0] == "verify":
        check_verify(req)
    else:
        check_period(req)


@dataclass(frozen=True)
class Workload:
    block: object
    warmup: object


# Each warm-up is one fixed request, so set-up time does not depend on the
# seed.
WORKLOADS = {
    "period-sweep": Workload(period_block, Spec("solve-period", 1.0)),
    "mesh-export": Workload(mesh_block, Spec("mesh-catenoid", 1.0, fmt="ply",
                                             side=64, half_width=1.0)),
    "verify-suite": Workload(verify_block, Spec("verify", 1.0)),
}
