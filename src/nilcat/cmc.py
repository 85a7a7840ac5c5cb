"""CMC 1/2 annuli in H2 x R built from the conjugate harmonic-map pair.

Starting from the theta = 0 profile (phi'^2 = alpha^2 + cos^2 phi) and its
conjugate (phi*'^2 = alpha*^2 - cos^2 phi*, alpha*^2 = alpha^2 + 1), the
height and the hyperboloid lift of the horizontal component have closed
forms:

    h* = cos(phi) cosh(alpha v) / (alpha (phi' - alpha)),
    X1 = cosh(alpha v) sin(phi*) f(u),  sin(phi*) = alpha sin(phi) / |phi'|,
    X2 = cosh(alpha v) sinh(alpha* v) (f + alpha*/alpha)
         - cosh(alpha* v) sinh(alpha v),
    X3 = cosh(alpha v) cosh(alpha* v) (f + alpha*/alpha)
         - sinh(alpha* v) sinh(alpha v),

with f(u) = (alpha cos phi* - alpha* cos phi) / (alpha cos phi cos^2 phi*),
which extends continuously to f = -1/(2 alpha alpha*) at cos phi = 0; the
disk-model point is F* = (X1 + i X2)/(1 + X3) and the surface has constant
mean curvature 1/2.  The piece u in [-U/2, U/2] is a graph; reflecting it
across height zero closes the properly embedded annulus.

The conjugacy identity |phi'| cos phi* = alpha* cos phi gives phi* in closed
form from phi, so the model samples one profile.  `conjugate_profile`
solves for phi* on its own; `verify` uses it to check the identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ARG_MAX, DomainError, RangeError, ResolutionError
from .helicoid import build_helicoid
from .meshes import Mesh
from .nil3 import STENCIL5, mean_curvature, stencil5
from .profile import Profile, solve_profile
from .roots import brentq, golden_min


@dataclass(frozen=True)
class _ConjugateQuartic:
    """The conjugate's quartic P(x) = alpha*^2 - x^2 in the fields Profile
    reads: cos 2 theta = -1 and C = 0 exactly.  (AnnulusParams at theta =
    pi/2 would carry C = sin(pi) / (2 alpha*), about 6e-17 / alpha*.)  P > 0
    on [-1, 1] holds exactly when alpha* > 1."""

    alpha: float
    cos2theta: float = -1.0
    C: float = 0.0

    @property
    def in_omega(self) -> bool:
        return self.alpha > 1.0


def conjugate_profile(alpha_star: float) -> Profile:
    """Dense solution of phi*'^2 = alpha*^2 - cos^2 phi*, phi*(0) = 0,
    decreasing branch: the same profile solver on the conjugate quartic."""
    return solve_profile(_ConjugateQuartic(float(alpha_star)))


class CmcAnnulusModel:
    """Assembled CMC 1/2 annulus on the theta = 0 profile; immutable,
    samplers pure and vectorized."""

    def __init__(self, profile: Profile):
        self.profile = profile
        self.alpha = profile.params.alpha
        self.alpha_star_sq = self.alpha ** 2 + 1.0
        self.alpha_star = math.sqrt(self.alpha_star_sq)
        self.U = profile.U
        self.gamma = -1.0 / (2.0 * self.alpha * self.alpha_star)

    # -- scalar building blocks ------------------------------------------------

    def _check_v(self, v):
        if np.any((self.alpha + self.alpha_star) * np.abs(v) > ARG_MAX):
            raise RangeError("v-range too large: cosh products overflow")

    def f_of_u(self, u):
        """The coefficient f(u) of the hyperboloid lift, stable everywhere.

        The printed quotient (alpha cos phi* - alpha* cos phi) /
        (alpha cos phi cos^2 phi*) cancels catastrophically near its
        removable singularities at cos phi = 0.  Substituting the conjugacy
        identity cos phi* = alpha* cos phi / |phi'| (checked against the
        conjugate profile by `verify`) collapses it to

            f = -|phi'| / (alpha alpha* (alpha + |phi'|)),

        which is smooth, exact, and reaches gamma = -1/(2 alpha alpha*) at
        |phi'| = alpha, i.e. on the level curves.
        """
        pv = self.profile.eval(np.asarray(u, dtype=float))
        speed = -pv.phiprime
        return -speed / (self.alpha * self.alpha_star * (self.alpha + speed))

    def hstar(self, u, v):
        """Height h* = cos(phi) cosh(alpha v) / (alpha (phi' - alpha))."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        self._check_v(v)
        return self._hstar_from(self.profile.eval(u), v)

    def _hstar_from(self, pv, v):
        return np.cos(pv.phi) * np.cosh(self.alpha * v) \
            / (self.alpha * (pv.phiprime - self.alpha))

    def H_field(self, u, v):
        """h*_z written in the everywhere-smooth form
        (i cos phi sinh(alpha v) - sin phi cosh(alpha v)) / (2 (alpha - phi'))."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        self._check_v(v)
        pv = self.profile.eval(u)
        av = self.alpha * v
        return (1j * np.cos(pv.phi) * np.sinh(av)
                - np.sin(pv.phi) * np.cosh(av)) \
            / (2.0 * (self.alpha - pv.phiprime))

    def tau(self, u):
        """Metric datum tau = (phi' + alpha)^2 / cos^2 phi, evaluated through
        the exact identity phi' + alpha = -cos^2 phi / (alpha - phi'), which
        removes the 0/0 at cos phi = 0."""
        pv = self.profile.eval(np.asarray(u, dtype=float))
        return np.cos(pv.phi) ** 2 / (self.alpha - pv.phiprime) ** 2

    def lambda_conf(self, u, v):
        """Conformal factor cosh^2(alpha v)/(alpha - phi')^2 = tau + 4|H|^2."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        pv = self.profile.eval(u)
        return np.cosh(self.alpha * v) ** 2 / (self.alpha - pv.phiprime) ** 2

    def hyperboloid_point(self, u, v):
        """(X1, X2, X3) on the Minkowski hyperboloid, shape (..., 3).

        The direct products cosh(alpha v) sinh(alpha* v) (f + alpha*/alpha)
        - cosh(alpha* v) sinh(alpha v) cancel catastrophically at large
        alpha (the annulus is exponentially thin), so the sampler uses the
        algebraically equivalent cancellation-free split

            X2 = sinh(delta v) + b cosh(alpha v) sinh(alpha* v),
            X3 = cosh(delta v) + b cosh(alpha v) cosh(alpha* v),

        with delta = alpha* - alpha = 1/(alpha* + alpha) and
        b = f + alpha*/alpha - 1 = delta sin^2(phi)
            / ((alpha* + |phi'|) alpha* (alpha + |phi'|)),
        both evaluated without differencing (uses phi'^2 = alpha^2 +
        cos^2 phi and alpha*^2 = alpha^2 + 1).  With sin phi* = alpha sin phi
        / |phi'| the first coordinate X1 = cosh(alpha v) sin(phi*) f is
        -cosh(alpha v) sin phi / (alpha* (alpha + |phi'|)).
        """
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        u, v = np.broadcast_arrays(u, v)
        self._check_v(v)
        return self._hyperboloid_from(self.profile.eval(u), v)

    def _hyperboloid_from(self, pv, v):
        a, a_s = self.alpha, self.alpha_star
        speed = -pv.phiprime
        delta = 1.0 / (a_s + a)
        b = delta * np.sin(pv.phi) ** 2 \
            / ((a_s + speed) * a_s * (a + speed))
        cav = np.cosh(a * v)
        X1 = -cav * np.sin(pv.phi) / (a_s * (a + speed))
        X2 = np.sinh(delta * v) + b * cav * np.sinh(a_s * v)
        X3 = np.cosh(delta * v) + b * cav * np.cosh(a_s * v)
        return np.stack([X1, X2, X3], axis=-1)

    def hyperboloid_point_printed(self, conjugate: Profile, u, v):
        """The literal printed block for (X1, X2, X3), with phi* from
        `conjugate = conjugate_profile(alpha_star)`; verification only."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        u, v = np.broadcast_arrays(u, v)
        self._check_v(v)
        a, a_s = self.alpha, self.alpha_star
        phis = conjugate.eval(u).phi
        f = self.f_of_u(u)
        cav, sav = np.cosh(a * v), np.sinh(a * v)
        casv, sasv = np.cosh(a_s * v), np.sinh(a_s * v)
        B = f + a_s / a
        return np.stack([cav * np.sin(phis) * f,
                         cav * sasv * B - casv * sav,
                         cav * casv * B - sasv * sav], axis=-1)

    def disk_point(self, u, v):
        """Disk coordinate F* = (X1 + i X2) / (1 + X3), shape (...)."""
        return self._disk_from(self.hyperboloid_point(u, v))

    @staticmethod
    def _disk_from(X):
        X3 = X[..., 2]
        if np.any(X3 + 1.0 <= 0.0):
            raise DomainError("hyperboloid lift left the upper sheet")
        disk = (X[..., 0] + 1j * X[..., 1]) / (1.0 + X3)
        if np.any(np.abs(disk) >= 1.0 - 1e-12):
            raise RangeError("disk coordinate reached the ideal boundary")
        return disk

    def xyz(self, u, v) -> np.ndarray:
        """Product-space sampler (Re F*, Im F*, h*), shape (..., 3).

        Evaluates the profile once for both the disk point and the height.
        """
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float),
                                   np.asarray(v, dtype=float))
        self._check_v(v)
        pv = self.profile.eval(u)
        disk = self._disk_from(self._hyperboloid_from(pv, v))
        h = self._hstar_from(pv, v)
        return np.stack([disk.real, disk.imag, h], axis=-1)

    def __call__(self, u, v) -> np.ndarray:
        return self.xyz(u, v)


def w_equation_residual(W5, alpha: float, h: float) -> float:
    """Largest residual of W'^2 = (W^2 - 1)(W^2 - alpha^2 - 1), with W
    sampled on the 5-point stencil of step h along axis 0.  The terms grow
    like W^4, so the residual is judged relative to them."""
    Wp, _ = stencil5(W5, h)
    Wv = W5[2]
    rhs = (Wv ** 2 - 1) * (Wv ** 2 - alpha ** 2 - 1)
    return float(np.max(np.abs(Wp ** 2 - rhs) / np.maximum(1.0, np.abs(rhs))))


def build_cmc_annulus(alpha: float) -> CmcAnnulusModel:
    """Assemble the annulus on the theta = 0 profile, the helicoid's, built
    once per alpha by the cached `build_helicoid`.

    The build checks the one identity that needs no phi*: W = phi'/cos phi
    solves the W equation (judged at 1e-5, as a squared finite difference),
    away from cos phi = 0.  The identities that compare the profile with
    its conjugate are `verify` checks.
    """
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    profile = build_helicoid(alpha).profile
    u = np.linspace(-2 * profile.U, 2 * profile.U, 1001)
    u = u[np.abs(np.cos(profile.eval(u).phi)) > 0.3]
    h = 1e-5
    pv5 = profile.eval(np.add.outer(h * STENCIL5, u))
    r = w_equation_residual(pv5.phiprime / np.cos(pv5.phi), alpha, h)
    if r > 1e-5:
        raise DomainError(f"W equation fails for W=phi'/cos: {r:.3e} > 1e-05")
    return CmcAnnulusModel(profile)


# -- level curves at height zero ------------------------------------------------

@dataclass(frozen=True)
class HalfplaneCurve:
    """The height-zero level curve u = -sign * U/2 in the half-plane model."""

    sign: int
    v: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    critical_v: tuple
    tangential: bool


def halfplane_x1(model: CmcAnnulusModel, sign: int, v):
    """First half-plane coordinate of the level curve for u = sign * U/2:
    -sign * gamma e^{alpha* v} / (gamma + alpha*/alpha + tanh(alpha v))."""
    v = np.asarray(v, dtype=float)
    g, B = model.gamma, model.gamma + model.alpha_star / model.alpha
    return -sign * g * np.exp(model.alpha_star * v) \
        / (B + np.tanh(model.alpha * v))


def halfplane_x2(model: CmcAnnulusModel, v):
    v = np.asarray(v, dtype=float)
    B = model.gamma + model.alpha_star / model.alpha
    return np.exp(model.alpha_star * v) \
        / (np.cosh(model.alpha * v) * (B + np.tanh(model.alpha * v)))


def _halfplane_x1_prime(model, sign, v):
    """Calculus derivative of the sampled curve expression (not the solved
    critical-point formula, which the tests verify independently)."""
    v = np.asarray(v, dtype=float)
    a, a_s, g = model.alpha, model.alpha_star, model.gamma
    B = g + a_s / a
    T = np.tanh(a * v)
    return -sign * g * np.exp(a_s * v) \
        * (a_s * (B + T) - a * (1.0 - T * T)) / (B + T) ** 2


def halfplane_curve(model: CmcAnnulusModel, sign: int = -1,
                    v_range=(-4.0, 3.0), n: int = 4001) -> HalfplaneCurve:
    """Sample the level curve and locate critical points of x1(v).

    Simple extrema are found as sign changes of the analytic derivative and
    refined by brentq; a tangential (double) zero, which occurs exactly
    at alpha = 1, is caught by minimizing |x1'| and testing the value
    against a curvature-scaled tolerance.
    """
    if n < 64:
        raise ResolutionError(f"need at least 64 samples, got {n}")
    if model.alpha_star * max(abs(v_range[0]), abs(v_range[1])) > ARG_MAX:
        raise RangeError("v-range overflows exp")
    v = np.linspace(float(v_range[0]), float(v_range[1]), n)
    x1 = halfplane_x1(model, sign, v)
    x2 = halfplane_x2(model, v)
    d = _halfplane_x1_prime(model, sign, v)

    crit = []
    flips = np.nonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0)[0]
    for i in flips:
        crit.append(brentq(
            lambda t: float(_halfplane_x1_prime(model, sign, t)),
            v[i], v[i + 1], xtol=1e-15))

    tangential = False
    if not crit:
        # a double zero leaves no sign change; look for a near-zero dip
        j = int(np.argmin(np.abs(d)))
        if 0 < j < n - 1:
            x, fx = golden_min(
                lambda t: abs(float(_halfplane_x1_prime(model, sign, t))),
                v[j - 1], v[j], v[j + 1], xtol=1e-13)
            scale = np.max(np.abs(d))
            if fx <= 1e-9 * scale:
                crit.append(float(x))
                tangential = True

    return HalfplaneCurve(sign=sign, v=v, x1=x1, x2=x2,
                          critical_v=tuple(sorted(crit)),
                          tangential=tangential)


# -- ambient geometry of H2 x R ---------------------------------------------------

def h2xr_metric(points) -> np.ndarray:
    """Product metric diag(sigma^2, sigma^2, 1), sigma = 2/(1 - x^2 - y^2)."""
    p = np.asarray(points, dtype=float)
    w = 1.0 - p[..., 0] ** 2 - p[..., 1] ** 2
    g = np.zeros(p.shape[:-1] + (3, 3))
    g[..., 0, 0] = g[..., 1, 1] = 4.0 / (w * w)
    g[..., 2, 2] = 1.0
    return g


def h2xr_christoffels(points) -> np.ndarray:
    """Christoffels of the conformal disk factor; the R factor is flat."""
    p = np.asarray(points, dtype=float)
    x, y = p[..., 0], p[..., 1]
    w = 1.0 - x * x - y * y
    lx = 2.0 * x / w
    ly = 2.0 * y / w
    G = np.zeros(p.shape[:-1] + (3, 3, 3))
    G[..., 0, 0, 0] = lx
    G[..., 0, 0, 1] = G[..., 0, 1, 0] = ly
    G[..., 0, 1, 1] = -lx
    G[..., 1, 1, 1] = ly
    G[..., 1, 0, 1] = G[..., 1, 1, 0] = lx
    G[..., 1, 0, 0] = -ly
    return G


def mean_curvature_h2xr(sampler, u, v, h=None):
    """Mean curvature in H2 x R with the (Xu, Xv) orientation of the normal."""
    return mean_curvature(sampler, u, v, h2xr_metric, h2xr_christoffels, h)


# -- reflection and meshing --------------------------------------------------------

def reflect_and_mesh(model: CmcAnnulusModel, nu: int = 64, nv: int = 64,
                     v_range=(-2.0, 2.0)) -> Mesh:
    """Mesh the graph piece u in [-U/2, U/2] and its height reflection.

    The two height-zero boundary columns are shared vertices, so the weld is
    exact; the reflected half gets flipped winding for a consistent
    orientation.  With both v-ends open the result is an annulus (Euler
    characteristic 0).
    """
    if nu < 16 or nv < 2:
        raise ResolutionError(f"resolution too small: nu={nu}, nv={nv}")
    u = np.linspace(-model.U / 2, model.U / 2, nu)
    v = np.linspace(float(v_range[0]), float(v_range[1]), nv)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    pts = model.xyz(uu.T.ravel(), vv.T.ravel())
    pts = pts.reshape(nv, nu, 3)
    # the boundary columns sit at height zero up to roundoff; pin them so the
    # reflected copy welds exactly
    pts[:, 0, 2] = 0.0
    pts[:, -1, 2] = 0.0

    # vertex ids by grid position (j, i): the back half shares the two
    # boundary columns and numbers its inner columns after the front half
    front_id = np.arange(nv * nu).reshape(nv, nu)
    back_id = front_id.copy()
    back_id[:, 1:-1] = nu * nv + np.arange(nv * (nu - 2)).reshape(nv, nu - 2)
    back = pts[:, 1:-1, :].copy()
    back[..., 2] *= -1.0
    verts = np.concatenate([pts.reshape(-1, 3), back.reshape(-1, 3)])

    def corners(ids):
        """Ids at (i, j), (i+1, j), (i+1, j+1), (i, j+1) of every cell."""
        return ids[:-1, :-1], ids[:-1, 1:], ids[1:, 1:], ids[1:, :-1]

    a, b, c, d = corners(front_id)
    a2, b2, c2, d2 = corners(back_id)
    # per cell, j outer and i inner: two front faces, then two back faces
    # with flipped winding
    faces = np.stack([a, b, c, a, c, d, a2, c2, b2, a2, d2, c2], axis=-1)
    return Mesh(verts, faces.reshape(-1, 3))
