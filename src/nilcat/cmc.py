"""CMC 1/2 annuli in H2 x R built from the conjugate harmonic-map pair.

Starting from the theta = 0 profile (phi'^2 = alpha^2 + cos^2 phi) and its
conjugate (phi*'^2 = alpha*^2 - cos^2 phi*, alpha*^2 = alpha^2 + 1), the
height and the hyperboloid lift of the horizontal component have closed
forms:

    h* = cos(phi) cosh(alpha v) / (alpha (phi' - alpha)),
    X1 = cosh(alpha v) sin(phi*) f(u),
    X2 = cosh(alpha v) sinh(alpha* v) (f + alpha*/alpha)
         - cosh(alpha* v) sinh(alpha v),
    X3 = cosh(alpha v) cosh(alpha* v) (f + alpha*/alpha)
         - sinh(alpha* v) sinh(alpha v),

with f(u) = (alpha cos phi* - alpha* cos phi) / (alpha cos phi cos^2 phi*),
which extends continuously to f = -1/(2 alpha alpha*) at cos phi = 0; the
disk-model point is F* = (X1 + i X2)/(1 + X3) and the surface has constant
mean curvature 1/2.  The piece u in [-U/2, U/2] is a graph; reflecting it
across height zero closes the properly embedded annulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import ARG_MAX, DomainError, RangeError, ResolutionError
from .meshes import Mesh
from .nil3 import mean_curvature
from .profile import _GL_W, _GL_X, AnnulusParams, Profile, solve_profile


class ConjugateProfile:
    """Dense solution of phi*'^2 = alpha*^2 - cos^2 phi*, phi*(0) = 0,
    decreasing branch; same quasi-period structure as the source profile."""

    def __init__(self, alpha_star: float, nodes: int = 4096):
        if alpha_star <= 1.0:
            raise DomainError("conjugate profile needs alpha_star > 1")
        self.alpha_star = alpha_star
        phi = -np.pi * np.arange(nodes + 1) / nodes
        lo, hi = phi[1:], phi[:-1]
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        psi = mid[:, None] + half[:, None] * _GL_X[None, :]
        speed = np.sqrt(alpha_star ** 2 - np.cos(psi) ** 2)
        du = ((half[:, None] * _GL_W[None, :]) / speed).sum(axis=1)
        u = np.concatenate([[0.0], np.cumsum(du)])
        self.u_nodes = u
        self.phi_nodes = phi
        self.U = float(u[-1])
        d_end = -math.sqrt(alpha_star ** 2 - 1.0)
        self._sp = CubicSpline(u, phi, bc_type=((1, d_end), (1, d_end)))

    def eval(self, u):
        """(phi*, phi*') at arbitrary u through the quasi-period law."""
        u_in = np.asarray(u, dtype=float)
        u = u_in.ravel()
        k = np.floor(u / self.U)
        u0 = u - k * self.U
        over = u0 >= self.U
        u0[over] -= self.U
        k[over] += 1.0
        phi = self._sp(u0) - k * np.pi
        phiprime = -np.sqrt(self.alpha_star ** 2 - np.cos(phi) ** 2)
        return phi.reshape(u_in.shape), phiprime.reshape(u_in.shape)


@dataclass(frozen=True)
class H2xRPoint:
    """Poincare-disk coordinate and height in the product H2 x R."""

    disk: complex
    height: float


@dataclass(frozen=True)
class CmcFieldSample:
    """Pointwise field data of the CMC annulus at one (u, v)."""

    hstar: float
    H: complex
    tau: float
    lam: float
    f: float
    G1: float
    G2: float
    G3: float
    X1: float
    X2: float
    X3: float
    cosh_omega: float


class CmcAnnulusModel:
    """Assembled CMC 1/2 annulus; immutable, samplers pure and vectorized."""

    def __init__(self, profile: Profile, conjugate: ConjugateProfile):
        self.profile = profile
        self.conjugate = conjugate
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
        identity cos phi* = alpha* cos phi / |phi'| (asserted independently
        at build time) collapses it to

            f = -|phi'| / (alpha alpha* (alpha + |phi'|)),

        which is smooth, exact, and reaches gamma = -1/(2 alpha alpha*) at
        |phi'| = alpha, i.e. on the level curves.
        """
        pv = self.profile.eval(np.asarray(u, dtype=float))
        speed = -pv.phiprime
        return -speed / (self.alpha * self.alpha_star * (self.alpha + speed))

    def f_printed(self, u):
        """The literal printed quotient for f(u); used by verification only,
        valid away from cos phi = 0."""
        u = np.asarray(u, dtype=float)
        phi = self.profile.eval(u).phi
        phis, _ = self.conjugate.eval(u)
        c, cs = np.cos(phi), np.cos(phis)
        return (self.alpha * cs - self.alpha_star * c) \
            / (self.alpha * c * cs ** 2)

    def hstar(self, u, v):
        """Height h* = cos(phi) cosh(alpha v) / (alpha (phi' - alpha))."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        self._check_v(v)
        pv = self.profile.eval(u)
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
        cos^2 phi and alpha*^2 = alpha^2 + 1).
        """
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        u, v = np.broadcast_arrays(u, v)
        self._check_v(v)
        a, a_s = self.alpha, self.alpha_star
        pv = self.profile.eval(u)
        speed = -pv.phiprime
        phis, _ = self.conjugate.eval(u)
        delta = 1.0 / (a_s + a)
        b = delta * np.sin(pv.phi) ** 2 \
            / ((a_s + speed) * a_s * (a + speed))
        f = -speed / (a * a_s * (a + speed))
        cav = np.cosh(a * v)
        X1 = cav * np.sin(phis) * f
        X2 = np.sinh(delta * v) + b * cav * np.sinh(a_s * v)
        X3 = np.cosh(delta * v) + b * cav * np.cosh(a_s * v)
        return np.stack([X1, X2, X3], axis=-1)

    def hyperboloid_point_printed(self, u, v):
        """The literal printed block for (X1, X2, X3); verification only."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        u, v = np.broadcast_arrays(u, v)
        self._check_v(v)
        a, a_s = self.alpha, self.alpha_star
        phis, _ = self.conjugate.eval(u)
        f = self.f_of_u(u)
        cav, sav = np.cosh(a * v), np.sinh(a * v)
        casv, sasv = np.cosh(a_s * v), np.sinh(a_s * v)
        B = f + a_s / a
        return np.stack([cav * np.sin(phis) * f,
                         cav * sasv * B - casv * sav,
                         cav * casv * B - sasv * sav], axis=-1)

    def disk_point(self, u, v):
        """Disk coordinate F* = (X1 + i X2) / (1 + X3), shape (...)."""
        X = self.hyperboloid_point(u, v)
        X3 = X[..., 2]
        if np.any(X3 + 1.0 <= 0.0):
            raise DomainError("hyperboloid lift left the upper sheet")
        disk = (X[..., 0] + 1j * X[..., 1]) / (1.0 + X3)
        if np.any(np.abs(disk) >= 1.0 - 1e-12):
            raise RangeError("disk coordinate reached the ideal boundary")
        return disk

    def xyz(self, u, v) -> np.ndarray:
        """Product-space sampler (Re F*, Im F*, h*), shape (..., 3)."""
        disk = self.disk_point(u, v)
        h = self.hstar(u, v)
        return np.stack([disk.real, disk.imag,
                         np.broadcast_to(h, disk.shape)], axis=-1)

    def __call__(self, u, v) -> np.ndarray:
        return self.xyz(u, v)


def _assert_small(name, value, tol):
    if value > tol:
        raise DomainError(f"conjugacy identity {name} fails: {value:.3e} > "
                          f"{tol:.1e}")


def build_cmc_annulus(alpha: float, tol: float = 1e-8,
                      nodes: int = 4096) -> CmcAnnulusModel:
    """Solve both profiles and assert the conjugacy identities on a grid."""
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    profile = solve_profile(AnnulusParams(alpha, 0.0), nodes=nodes)
    conj = ConjugateProfile(math.sqrt(alpha ** 2 + 1.0), nodes=nodes)
    model = CmcAnnulusModel(profile, conj)

    _assert_small("U* = U", abs(profile.U - conj.U), 1e-9)
    u = np.linspace(-2 * profile.U, 2 * profile.U, 1001)
    pv = profile.eval(u)
    phis, _ = conj.eval(u)
    # cross-multiplied cosh-omega identity |phi'| cos phi* = alpha* cos phi
    cw = np.abs(np.abs(pv.phiprime) * np.cos(phis)
                - model.alpha_star * np.cos(pv.phi))
    _assert_small("cosh-omega", float(np.max(cw)), tol)
    # equality of the two sqrt(tau) expressions
    st = np.abs(np.cos(pv.phi) / (alpha - pv.phiprime)
                - np.cos(phis) / (model.alpha_star - _conj_prime(model, u)))
    _assert_small("tau = tau*", float(np.max(st)), tol)
    # both candidates solve W'^2 = (W^2 - 1)(W^2 - alpha^2 - 1); the terms
    # grow like W^4 so the residual is judged relative to them
    for name, W in (("W=phi'/cos", lambda x: _W1(model, x)),
                    ("W=a*/cos*", lambda x: _W2(model, x))):
        mask_u = u[np.abs(np.cos(pv.phi)) > 0.3]
        h = 1e-5
        Wp = (W(mask_u - 2 * h) - 8 * W(mask_u - h) + 8 * W(mask_u + h)
              - W(mask_u + 2 * h)) / (12 * h)
        Wv = W(mask_u)
        rhs = (Wv ** 2 - 1) * (Wv ** 2 - alpha ** 2 - 1)
        r = np.abs(Wp ** 2 - rhs) / np.maximum(1.0, np.abs(rhs))
        _assert_small(name, float(np.max(r)), max(100 * tol, 1e-5))
    return model


def _conj_prime(model, u):
    return model.conjugate.eval(u)[1]


def _W1(model, u):
    pv = model.profile.eval(u)
    return pv.phiprime / np.cos(pv.phi)


def _W2(model, u):
    phis, _ = model.conjugate.eval(u)
    return model.alpha_star / np.cos(phis)


def hstar_field(model: CmcAnnulusModel, u: float, v: float) -> CmcFieldSample:
    """All pointwise fields at one parameter value."""
    u = float(u)
    v = float(v)
    pv = model.profile.eval(u)
    phis, _ = model.conjugate.eval(u)
    a, a_s = model.alpha, model.alpha_star
    cs = float(np.cos(phis))
    X = model.hyperboloid_point(u, v)
    c = float(np.cos(pv.phi))
    with np.errstate(divide="ignore"):
        G1 = float(np.tan(phis))
        G2 = math.sinh(a_s * v) / cs if cs != 0 else math.inf
        G3 = math.cosh(a_s * v) / cs if cs != 0 else math.inf
        cosh_omega = abs(float(pv.phiprime)) / abs(c) if c != 0 else math.inf
    tau = float(model.tau(u))
    H = complex(model.H_field(u, v))
    return CmcFieldSample(
        hstar=float(model.hstar(u, v)), H=H, tau=tau,
        lam=tau + 4.0 * abs(H) ** 2, f=float(model.f_of_u(u)),
        G1=G1, G2=G2, G3=G3,
        X1=float(X[0]), X2=float(X[1]), X3=float(X[2]),
        cosh_omega=cosh_omega)


def annulus_point(model: CmcAnnulusModel, u: float, v: float) -> H2xRPoint:
    """One point of the annulus in disk coordinates plus height."""
    return H2xRPoint(disk=complex(model.disk_point(float(u), float(v))),
                     height=float(model.hstar(float(u), float(v))))


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
    refined by bisection; a tangential (double) zero, which occurs exactly
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
        lo, hi = v[i], v[i + 1]
        flo = _halfplane_x1_prime(model, sign, lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            fm = _halfplane_x1_prime(model, sign, mid)
            if fm == 0.0:
                lo = hi = mid
                break
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        crit.append(0.5 * (lo + hi))

    tangential = False
    if not crit:
        # a double zero leaves no sign change; look for a near-zero dip
        j = int(np.argmin(np.abs(d)))
        if 0 < j < n - 1:
            from scipy.optimize import minimize_scalar
            r = minimize_scalar(
                lambda t: abs(float(_halfplane_x1_prime(model, sign, t))),
                bracket=(v[j - 1], v[j], v[j + 1]), method="golden",
                options={"xtol": 1e-13})
            scale = np.max(np.abs(d))
            if abs(r.fun) <= 1e-9 * scale:
                crit.append(float(r.x))
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
