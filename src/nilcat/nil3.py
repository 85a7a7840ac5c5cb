"""Heisenberg-group ambient geometry and sampler-based verification tools.

The model is R^3 in exponential coordinates with line element

    dx1^2 + dx2^2 + (dx3 + (x2 dx1 - x1 dx2) / 2)^2,

a Riemannian fibration over R^2 whose vertical Killing field is E3.  The
left-invariant orthonormal frame is

    E1 = d/dx1 - (x2/2) d/dx3,  E2 = d/dx2 + (x1/2) d/dx3,  E3 = d/dx3.

Christoffel symbols are hard-coded closed forms (derived once from the
Koszul formula for this metric); the test suite re-derives them by central
finite differences of the metric.  The mean-curvature evaluator works for
any ambient metric given as callables, so the product metric on H2 x R can
reuse it.

Samplers passed to the evaluators must be vectorized: given broadcastable
arrays (u, v) they return an array of points with shape (..., 3), and they
must be safe for concurrent evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError, TransversalityError


# -- points and coordinate changes ------------------------------------------

def to_y(points):
    """Coordinates (y1, y2, y3) = (x1, x2, x3 + x1 x2 / 2) of an (..., 3)
    array of points; in a plane y2 = const the pair (y1, y3) is Euclidean."""
    p = np.asarray(points, dtype=float)
    out = p.copy()
    out[..., 2] += 0.5 * p[..., 0] * p[..., 1]
    return out


def from_y(points):
    p = np.asarray(points, dtype=float)
    out = p.copy()
    out[..., 2] -= 0.5 * p[..., 0] * p[..., 1]
    return out


def coord_to_frame(points, vectors):
    """Frame components of coordinate-basis vectors at the given points."""
    p = np.asarray(points, dtype=float)
    w = np.asarray(vectors, dtype=float)
    out = w.copy()
    out[..., 2] = 0.5 * p[..., 1] * w[..., 0] - 0.5 * p[..., 0] * w[..., 1] \
        + w[..., 2]
    return out


# -- metric and connection ---------------------------------------------------

def nil3_metric(points) -> np.ndarray:
    """Coordinate metric g_ij at an (..., 3) array of points."""
    p = np.asarray(points, dtype=float)
    a, b = p[..., 0], p[..., 1]
    g = np.zeros(p.shape[:-1] + (3, 3))
    g[..., 0, 0] = 1.0 + b * b / 4.0
    g[..., 0, 1] = g[..., 1, 0] = -a * b / 4.0
    g[..., 0, 2] = g[..., 2, 0] = b / 2.0
    g[..., 1, 1] = 1.0 + a * a / 4.0
    g[..., 1, 2] = g[..., 2, 1] = -a / 2.0
    g[..., 2, 2] = 1.0
    return g


def nil3_christoffels(points) -> np.ndarray:
    """Christoffel symbols Gamma^k_ij, indexed [..., k, i, j].

    Closed forms for the exponential-coordinate metric; validated against a
    finite-difference Koszul computation in the test suite.
    """
    p = np.asarray(points, dtype=float)
    a, b = p[..., 0], p[..., 1]
    G = np.zeros(p.shape[:-1] + (3, 3, 3))
    G[..., 0, 0, 1] = G[..., 0, 1, 0] = b / 4.0
    G[..., 0, 1, 1] = -a / 2.0
    G[..., 0, 1, 2] = G[..., 0, 2, 1] = 0.5
    G[..., 1, 0, 0] = -b / 2.0
    G[..., 1, 0, 1] = G[..., 1, 1, 0] = a / 4.0
    G[..., 1, 0, 2] = G[..., 1, 2, 0] = -0.5
    G[..., 2, 0, 0] = -a * b / 4.0
    G[..., 2, 0, 1] = G[..., 2, 1, 0] = (a * a - b * b) / 8.0
    G[..., 2, 0, 2] = G[..., 2, 2, 0] = -a / 4.0
    G[..., 2, 1, 1] = a * b / 4.0
    G[..., 2, 1, 2] = G[..., 2, 2, 1] = -b / 4.0
    return G


# -- finite-difference jets of samplers --------------------------------------

def _step(u, v, h):
    if h is not None:
        return np.broadcast_to(np.asarray(h, dtype=float),
                               np.broadcast(u, v).shape).copy()
    return 1e-4 * np.maximum(1.0, np.maximum(np.abs(u), np.abs(v)))


# offsets of the 5-point stencils, in units of the step
STENCIL5 = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
_C4 = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0  # offsets -2, -1, 1, 2


def stencil5(s, h):
    """First and second derivatives from samples s[k] = f(x + STENCIL5[k] h).

    The 4th-order central 5-point stencils; d1 is exact through degree 4
    and d2 through degree 5.  s is an array whose leading axis holds the
    five samples, or any sequence of five arrays.
    """
    d1 = (s[0] - 8 * s[1] + 8 * s[3] - s[4]) / (12 * h)
    d2 = (-s[0] + 16 * s[1] - 30 * s[2] + 16 * s[3] - s[4]) / (12 * h * h)
    return d1, d2


def surface_jet2(sampler, u, v, h=None):
    """Point, first and second parameter derivatives of a sampler.

    All stencils are 4th order: 5-point for first and pure second
    derivatives, and the 16-point tensor product of the first-derivative
    stencil for the mixed one.  Returns arrays of shape (..., 3).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    h = _step(u, v, h)
    steps = (-2, -1, 1, 2)
    off = [(0, 0)]
    off += [(s, 0) for s in steps]
    off += [(0, s) for s in steps]
    off += [(a, b) for a in steps for b in steps]
    off = np.array(off, dtype=float)
    uu = u[..., None] + h[..., None] * off[:, 0]
    vv = v[..., None] + h[..., None] * off[:, 1]
    X = np.asarray(sampler(uu, vv), dtype=float)
    h1 = h[..., None]
    Xu, Xuu = stencil5([X[..., k, :] for k in (1, 2, 0, 3, 4)], h1)
    Xv, Xvv = stencil5([X[..., k, :] for k in (5, 6, 0, 7, 8)], h1)
    cross = X[..., 9:, :].reshape(X.shape[:-2] + (4, 4, 3))
    Xuv = np.einsum("i,j,...ijk->...k", _C4, _C4, cross) / (h1 * h1)
    return X[..., 0, :], Xu, Xv, Xuu, Xuv, Xvv


def _dot(g, a, b):
    return np.einsum("...ij,...i,...j->...", g, a, b)


def unit_normal(points, Xu, Xv, metric_fn):
    """g-unit normal with the orientation of (Xu, Xv).

    The Euclidean cross product of g Xu and g Xv is g-orthogonal to both
    tangents; normalizing in g gives the unit normal.
    """
    g = metric_fn(points)
    w1 = np.einsum("...ij,...j->...i", g, Xu)
    w2 = np.einsum("...ij,...j->...i", g, Xv)
    n = np.cross(w1, w2)
    nn = np.sqrt(_dot(g, n, n))
    if np.any(nn <= 0.0):
        raise DegeneracyError("tangent vectors numerically parallel")
    return n / nn[..., None], g


def mean_curvature(sampler, u, v, metric_fn, christoffel_fn, h=None):
    """Mean curvature of a sampled surface in a curved ambient space.

    Second fundamental form from finite-difference jets corrected by the
    ambient Christoffels; sign follows the (Xu, Xv) orientation of the
    normal.  Raises on a numerically degenerate first fundamental form.
    """
    P0, Xu, Xv, Xuu, Xuv, Xvv = surface_jet2(sampler, u, v, h)
    g = metric_fn(P0)
    E = _dot(g, Xu, Xu)
    F = _dot(g, Xu, Xv)
    G2 = _dot(g, Xv, Xv)
    det = E * G2 - F * F
    if np.any(det <= 1e-14 * np.maximum(E * G2, 1.0)):
        raise DegeneracyError("first fundamental form numerically degenerate")
    n, g = unit_normal(P0, Xu, Xv, metric_fn)
    Gam = christoffel_fn(P0)
    cuu = Xuu + np.einsum("...kij,...i,...j->...k", Gam, Xu, Xu)
    cuv = Xuv + np.einsum("...kij,...i,...j->...k", Gam, Xu, Xv)
    cvv = Xvv + np.einsum("...kij,...i,...j->...k", Gam, Xv, Xv)
    e = _dot(g, cuu, n)
    f = _dot(g, cuv, n)
    g2 = _dot(g, cvv, n)
    return (e * G2 - 2 * f * F + g2 * E) / (2 * det)


def mean_curvature_nil3(sampler, u, v, h=None):
    """Mean curvature in the Heisenberg metric; 0 for minimal surfaces."""
    return mean_curvature(sampler, u, v, nil3_metric, nil3_christoffels, h)


def first_fundamental_form(sampler, u, v, metric_fn=nil3_metric, h=None):
    """(E, F, G) of a sampled surface, for conformality checks."""
    P0, Xu, Xv, *_ = surface_jet2(sampler, u, v, h)
    g = metric_fn(P0)
    return _dot(g, Xu, Xu), _dot(g, Xu, Xv), _dot(g, Xv, Xv)


# -- Gauss map ----------------------------------------------------------------

@dataclass(frozen=True)
class GaussValue:
    """Stereographic Gauss map value and the vertical normal component."""

    g: complex
    nu: float


def gauss_map(sampler, u, v, h=None) -> GaussValue:
    """Gauss map at one point from the finite-difference normal.

    The unit normal N (frame components) is projected stereographically from
    the south pole: g = (N1 + i N2) / (1 + N3); nu = N3.  The orientation is
    pinned so that g = 0 corresponds to N = E3 on an x3-graph parametrized
    by (x1, x2).
    """
    P0, Xu, Xv, *_ = surface_jet2(sampler, u, v, h)
    n, _ = unit_normal(P0, Xu, Xv, nil3_metric)
    a = coord_to_frame(P0, n)
    a1, a2, a3 = float(a[..., 0]), float(a[..., 1]), float(a[..., 2])
    if abs(a3) <= 1e-10:
        raise TransversalityError(
            f"tangent plane vertical at (u, v) = ({u}, {v}); |nu| = {abs(a3)}")
    return GaussValue(g=complex(a1, a2) / (1.0 + a3), nu=a3)


def _gauss_field(sampler, h):
    def field(uu, vv):
        P0, Xu, Xv, *_ = surface_jet2(sampler, uu, vv, h)
        n, _ = unit_normal(P0, Xu, Xv, nil3_metric)
        a = coord_to_frame(P0, n)
        return (a[..., 0] + 1j * a[..., 1]) / (1.0 + a[..., 2])
    return field


def gauss_map_and_residuals(sampler, u, v, h=None, gauss=None, hg=None):
    """Gauss map plus harmonicity and Hopf-differential data at (u, v).

    harmonic_residual is |(1 - |g|^2) g_zz + 2 conj(g) g_z g_zb| for
    z = u + iv, and Q_num = 4 g_z conj(g_zb) / (1 - |g|^2)^2, the quantity
    that must equal exp(-2 i theta) / 4 on this family.

    Derivatives of g come from 5-point stencils (step hg) on `gauss` when a
    closed form is supplied (budget ~1e-9).  Otherwise the g-field is itself
    built from finite-difference normals and a coarser outer step is used;
    the residual budget degrades to ~1e-5.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    value = None
    if u.ndim == 0:
        value = gauss_map(sampler, u, v, h)
    if gauss is not None:
        field = gauss
        hg = 1e-3 if hg is None else hg
    else:
        field = _gauss_field(sampler, h)
        hg = 3e-2 if hg is None else hg
    off = np.array([(0, 0),
                    (-2, 0), (-1, 0), (1, 0), (2, 0),
                    (0, -2), (0, -1), (0, 1), (0, 2)], dtype=float)
    gg = field(u[..., None] + hg * off[:, 0], v[..., None] + hg * off[:, 1])
    gu, guu = stencil5([gg[..., k] for k in (1, 2, 0, 3, 4)], hg)
    gv, gvv = stencil5([gg[..., k] for k in (5, 6, 0, 7, 8)], hg)
    g0 = gg[..., 0]
    gz = 0.5 * (gu - 1j * gv)
    gzb = 0.5 * (gu + 1j * gv)
    gzzb = 0.25 * (guu + gvv)
    mod2 = np.abs(g0) ** 2
    harmonic = np.abs((1.0 - mod2) * gzzb + 2.0 * np.conj(g0) * gz * gzb)
    Q_num = 4.0 * gz * np.conj(gzb) / (1.0 - mod2) ** 2
    return value, harmonic, Q_num


# -- graphs over the plane ----------------------------------------------------

@dataclass(frozen=True)
class GraphJet:
    """Second-order jet of a local graph x3 = f(x1, x2), with the shifted
    gradient p = f_x1 + x2/2, q = f_x2 - x1/2 of the minimal graph equation."""

    p: float
    q: float
    r: float
    s: float
    t: float


def graph_jet(f, x1, x2, h=3e-4) -> GraphJet:
    """Finite-difference jet of a graph function (5-point stencils)."""
    x1 = float(x1)
    x2 = float(x2)
    fx1, r = stencil5(f(x1 + h * STENCIL5, x2), h)
    fx2, t = stencil5(f(x1, x2 + h * STENCIL5), h)
    s_ = (f(x1 + h, x2 + h) - f(x1 + h, x2 - h)
          - f(x1 - h, x2 + h) + f(x1 - h, x2 - h)) / (4 * h * h)
    return GraphJet(p=fx1 + 0.5 * x2, q=fx2 - 0.5 * x1, r=r, s=s_, t=t)


def graph_pde_residual(f, x1, x2, h=3e-4) -> float:
    """Residual of the minimal graph equation (1+q^2) r - 2pqs + (1+p^2) t."""
    j = graph_jet(f, x1, x2, h)
    return abs((1 + j.q ** 2) * j.r - 2 * j.p * j.q * j.s + (1 + j.p ** 2) * j.t)


# -- residual bookkeeping -----------------------------------------------------

@dataclass
class ResidualReport:
    """Named max-residuals, the common output of the verification passes."""

    entries: dict = field(default_factory=dict)

    def add(self, name: str, residual: float, location=None,
            threshold: float | None = None):
        self.entries[name] = {
            "residual": float(residual),
            "location": location,
            "threshold": threshold,
            "pass": None if threshold is None else bool(residual <= threshold),
        }

    def all_pass(self) -> bool:
        return all(e["pass"] is not False for e in self.entries.values())

    def failures(self) -> list[str]:
        return [k for k, e in self.entries.items() if e["pass"] is False]

    def as_dict(self) -> dict:
        return {k: dict(v) for k, v in sorted(self.entries.items())}
