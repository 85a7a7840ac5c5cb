"""Horizontal minimal catenoids: period-solved annuli with closed-form
sampling, section curves, curvature, large-parameter diagnostics and meshes.

With A = alpha v + beta(u), the immersion is the closed form

    x1 = (G'/alpha) cos(phi) sinh A - (C/alpha) sin(phi) cosh A,
    x2 = C v - G(u),
    x3 = -x1 x2 / 2 + (C/alpha)(G'/alpha - 1) cos(phi) cosh A
         - (1/alpha)(C^2/alpha + G') sin(phi) sinh A,

with conformal factor lambda = (G'^2 + C^2) cosh^2 A.  At theta =
theta_tilde(alpha) the period identity alpha G(U) + C beta(U) = 0 makes X
doubly invariant under z -> z + Z, Z = 2 (U + i V), V = -beta(U)/alpha, so
the image closes into a properly embedded annulus.  Sampling always uses
the closed forms; overflow of cosh A is the only hazard, so |A| is capped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ARG_MAX, DomainError, RangeError, ResolutionError
from .meshes import Mesh, grid_mesh_faces
from .nil3 import STENCIL5, stencil5
from .period import check_period_defect, find_theta_tilde
from .profile import AnnulusParams, Profile, solve_profile


class CatenoidModel:
    """Sampler bundle for one horizontal catenoid.

    Immutable after construction; all samplers are pure and vectorized
    (arrays in, (..., 3) arrays out), safe for concurrent use.
    """

    def __init__(self, params: AnnulusParams, profile: Profile):
        self.params = params
        self.profile = profile
        self.alpha = params.alpha
        self.theta_tilde = params.theta
        self.U = profile.U
        self.V = profile.V
        self.Z = profile.Z
        self.period_defect = abs(params.alpha * profile.GU
                                 + params.C * profile.betaU)

    # -- closed-form sampling ------------------------------------------------

    def _terms(self, u, v):
        p = self.params
        pv = self.profile.eval(u)
        A = p.alpha * np.asarray(v, dtype=float) + pv.beta
        if np.any(np.abs(A) > ARG_MAX):
            raise RangeError(
                f"|A| exceeds {ARG_MAX}; shrink the v-range (cosh overflow)")
        return pv, A

    def _xyz_from(self, pv, A, v):
        p = self.params
        a, C = p.alpha, p.C
        sin, cos = np.sin(pv.phi), np.cos(pv.phi)
        sh, ch = np.sinh(A), np.cosh(A)
        Gp = pv.Gprime
        x1 = (Gp / a) * cos * sh - (C / a) * sin * ch
        x2 = C * np.asarray(v, dtype=float) - pv.G
        y3 = (C / a) * (Gp / a - 1.0) * cos * ch \
            - (1.0 / a) * (C * C / a + Gp) * sin * sh
        return np.stack([x1, x2, y3 - 0.5 * x1 * x2], axis=-1)

    def xyz(self, u, v) -> np.ndarray:
        """Immersion in exponential coordinates, shape (..., 3)."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        u, v = np.broadcast_arrays(u, v)
        pv, A = self._terms(u, v)
        return self._xyz_from(pv, A, v)

    def __call__(self, u, v) -> np.ndarray:
        return self.xyz(u, v)

    def lambda_conf(self, u, v) -> np.ndarray:
        """Conformal factor (G'^2 + C^2) cosh^2 A of the induced metric."""
        pv, A = self._terms(u, v)
        return (pv.Gprime ** 2 + self.params.C ** 2) * np.cosh(A) ** 2

    def gauss(self, u, v) -> np.ndarray:
        """Closed-form Gauss map (sin phi + i sinh A) / (cos phi + cosh A)."""
        pv, A = self._terms(u, v)
        return (np.sin(pv.phi) + 1j * np.sinh(A)) \
            / (np.cos(pv.phi) + np.cosh(A))

    def hopf_coefficient(self) -> complex:
        """Constant value exp(-2 i theta_tilde) / 4 of the Hopf quantity."""
        return 0.25 * np.exp(-2j * self.theta_tilde)


def build_catenoid(alpha: float, tol: float = 1e-11) -> CatenoidModel:
    """Solve the period problem at alpha and assemble the annulus model."""
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    theta = find_theta_tilde(alpha, tol=tol).theta
    profile = solve_profile(AnnulusParams(alpha, theta))
    model = CatenoidModel(profile.params, profile)
    check_period_defect(model.period_defect)
    return model


def period_closure_residual(model: CatenoidModel, grid=None) -> float:
    """max |X(z + Z) - X(z)| in coordinates over a (u, v) grid."""
    if grid is None:
        uu, vv = np.meshgrid(np.linspace(-model.U, model.U, 20),
                             np.linspace(-2.0, 2.0, 20), indexing="ij")
    else:
        uu, vv = grid
    a = model.xyz(uu, vv)
    b = model.xyz(np.asarray(uu) + 2 * model.U, np.asarray(vv) + 2 * model.V)
    return float(np.max(np.abs(b - a)))


# -- vertical sections ---------------------------------------------------------

@dataclass(frozen=True)
class SectionCurve:
    """Closed intersection curve with the vertical plane y2 = c."""

    c: float
    u: np.ndarray
    y1: np.ndarray
    y3: np.ndarray
    v: np.ndarray
    closure_gap: float
    curvature: np.ndarray
    min_curvature: float
    turning_number: int
    slope_residual: float


def _section_y(model: CatenoidModel, c: float, u):
    """(y1, y3, v) on the section y2 = c, parametrized by u."""
    p = model.params
    a, C = p.alpha, p.C
    pv = model.profile.eval(u)
    A = (a / C) * c + pv.beta + (a / C) * pv.G
    if np.any(np.abs(A) > ARG_MAX):
        raise RangeError("section leaves the overflow-safe band; reduce |c|")
    sin, cos = np.sin(pv.phi), np.cos(pv.phi)
    sh, ch = np.sinh(A), np.cosh(A)
    Gp = pv.Gprime
    y1 = (Gp / a) * cos * sh - (C / a) * sin * ch
    y3 = (C / a) * (Gp / a - 1.0) * cos * ch \
        - (1.0 / a) * (C * C / a + Gp) * sin * sh
    return y1, y3, (A - pv.beta) / a


def _planar_curvature(d1, d2) -> np.ndarray:
    """Signed curvature (x' y'' - y' x'') / |gamma'|^3 of the derivative
    pairs d1 = (x', y') and d2 = (x'', y'').

    Far out the derivatives are cosh-sized and their squares overflow, so
    each point's derivatives are divided by a power of two 2^e near their
    size, which is exact, and kappa(gamma / 2^e) = 2^e kappa(gamma) is
    scaled back.  |gamma'|^3 is s2 sqrt(s2), not s2 ** 1.5: sqrt is
    correctly rounded, so the scaling changes no bit.  Raises RangeError
    where a curvature is not finite.
    """
    e = np.frexp(np.maximum(np.abs(d1[0]), np.abs(d1[1])))[1]
    x1, y1, x2, y2 = (np.ldexp(d, -e) for d in (*d1, *d2))
    s2 = x1 * x1 + y1 * y1
    with np.errstate(all="ignore"):
        curvature = np.ldexp((x1 * y2 - y1 * x2) / (s2 * np.sqrt(s2)), -e)
    if not np.all(np.isfinite(curvature)):
        raise RangeError("section curvature is not finite; the section "
                         "reaches beyond the float range")
    return curvature


def section_curve(model: CatenoidModel, c: float, n: int = 1024) -> SectionCurve:
    """Sample the section curve over u in [-U, U] and report its geometry.

    The report carries the closure gap |gamma(U) - gamma(-U)|, the discrete
    planar curvature (strictly positive for a convex curve), the turning
    number from the winding of the tangent, and the largest defect of the
    slope identity dy3/dy1 = -tan(phi) on samples with |cos phi| >= 0.5.
    """
    if n < 16:
        raise ResolutionError(f"need at least 16 samples, got {n}")
    if model.params.C == 0:
        raise DomainError("sections need C != 0 (theta > 0)")
    u = np.linspace(-model.U, model.U, n)
    h = 1e-4 * max(1.0, model.U)
    y1s, y3s, vs = _section_y(model, c, np.add.outer(h * STENCIL5, u))
    y1, y3, v = y1s[2], y3s[2], vs[2]
    gap = math.hypot(y1[-1] - y1[0], y3[-1] - y3[0])

    d1, d2 = zip(stencil5(y1s, h), stencil5(y3s, h))
    curvature = _planar_curvature(d1, d2)

    ang = np.unwrap(np.arctan2(d1[1], d1[0]))
    turning = int(round((ang[-1] - ang[0]) / (2 * math.pi)))

    phi = model.profile.eval(u).phi
    mask = np.abs(np.cos(phi)) >= 0.5
    slope = d1[1][mask] / d1[0][mask]
    slope_residual = float(np.max(np.abs(slope + np.tan(phi[mask]))))

    return SectionCurve(c=float(c), u=u, y1=y1, y3=y3, v=v, closure_gap=gap,
                        curvature=curvature,
                        min_curvature=float(np.min(curvature)),
                        turning_number=turning,
                        slope_residual=slope_residual)


# -- remarkable curves ----------------------------------------------------------

@dataclass(frozen=True)
class RemarkableCurves:
    """Closed-form curves on the annulus, as functions of y2.

    bottom(y2): lowest point (y1, y3) of the section at y2 (the u = 0 curve).
    vertical(y2, sign): point of the u = sign * U/2 curve where the tangent
    plane is vertical.  halfwidth(y2): the horizontal projection bound; the
    whole surface projects into |y1| <= halfwidth(y2).
    """

    bottom: callable
    vertical: callable
    halfwidth: callable


def remarkable_curves(model: CatenoidModel) -> RemarkableCurves:
    p = model.params
    a, C, c2t = p.alpha, p.C, p.cos2theta
    w = math.sqrt(a * a + c2t - C * C)  # = -phi'(0)

    def bottom(y2):
        y2 = np.asarray(y2, dtype=float)
        t = a * y2 / C
        return ((a - w) / a) * np.sinh(t), -(C * w / a ** 2) * np.cosh(t)

    def vertical(y2, sign=1):
        y2 = np.asarray(y2, dtype=float)
        t = a * y2 / C
        y1 = (C / a) * np.cosh(t)
        y3 = ((2 * C * C - c2t) / (2 * a * a)) * np.sinh(t)
        return (y1, y3) if sign >= 0 else (-y1, -y3)

    def halfwidth(y2):
        return (C / a) * np.cosh(a * np.asarray(y2, dtype=float) / C)

    return RemarkableCurves(bottom=bottom, vertical=vertical,
                            halfwidth=halfwidth)


# -- curvature -------------------------------------------------------------------

def gauss_curvature_K(model: CatenoidModel, u, v):
    """Gauss curvature of the induced metric from the expanded closed form.

    K lambda = 2 C phi' sin cos tanh A - (C^2 cos^4 + alpha^2) / cosh^2 A
               - (C^2 + G'^2) sin^2 cos^2 - G' phi' (2 cos^2 - 1),
    divided by lambda = (G'^2 + C^2) cosh^2 A.  Cross-checkable against the
    finite-difference Laplacian of log lambda.
    """
    p = model.params
    a, C = p.alpha, p.C
    pv, A = model._terms(np.asarray(u, dtype=float), v)
    sin, cos = np.sin(pv.phi), np.cos(pv.phi)
    Gp, php = pv.Gprime, pv.phiprime
    Klam = 2 * C * php * sin * cos * np.tanh(A) \
        - (C ** 2 * cos ** 4 + a ** 2) / np.cosh(A) ** 2 \
        - (C ** 2 + Gp ** 2) * sin ** 2 * cos ** 2 \
        - Gp * php * (2 * cos ** 2 - 1.0)
    return Klam / ((Gp ** 2 + C ** 2) * np.cosh(A) ** 2)


# -- large-alpha diagnostics ------------------------------------------------------

def limit_deviation(model: CatenoidModel, u_hat: float, v_hat: float):
    """Distance of the rescaled annulus from its plane limit.

    At u = u_hat / alpha, v = (4 log alpha + v_hat) / (2 alpha), so that
    A = 2 log alpha + v_hat / 2 and cosh A ~ alpha^2 e^{v_hat/2} / 2, the
    coordinates approach
    (sin(u_hat)/4 e^{v_hat/2}, 0, -cos(u_hat)/4 e^{v_hat/2});
    returns the three absolute deviations.  Those of y1 and y3 are
    O(1/alpha^2).  That of y2 is O(log alpha / alpha^2): y2 = C v - G(u)
    with C alpha -> 1/2, so its C v term is about
    (log alpha + v_hat / 4) / alpha^2, and |y2 - C v| is O(1/alpha^4).
    """
    a = model.alpha
    u = u_hat / a
    v = (4.0 * math.log(a) + v_hat) / (2.0 * a)
    x = model.xyz(u, v)
    y1, y2 = x[..., 0], x[..., 1]
    y3 = x[..., 2] + 0.5 * y1 * y2
    s = 0.25 * math.exp(v_hat / 2.0)
    return (float(np.abs(y1 - math.sin(u_hat) * s)),
            float(np.abs(y2)),
            float(np.abs(y3 + math.cos(u_hat) * s)))


def waist_extent(model: CatenoidModel, n: int = 4096) -> float:
    """max sqrt(y1^2 + y3^2) over the y2 = 0 section (the waist)."""
    sec = section_curve(model, 0.0, n)
    return float(np.max(np.hypot(sec.y1, sec.y3)))


def graph_patch(model: CatenoidModel):
    """Local graph x3 = f(x1, x2) around the waist bottom X(0, 0).

    The tangent plane at (u, v) = (0, 0) is horizontal (nu = 1), so the
    horizontal projection is invertible nearby; f inverts it by Newton with
    the closed-form Jacobian
        dF/du = (C cos phi cosh A + G' sin phi sinh A, -G'),
        dF/dv = (G' cos phi cosh A - C sin phi sinh A,  C),
    and returns the third coordinate.  Valid while the projection stays
    injective (small |x1|, |x2|); Newton failing to reach 1e-13 raises.
    """
    p = model.params
    a, C = p.alpha, p.C

    def invert(X1, X2):
        X1 = np.asarray(X1, dtype=float)
        X2 = np.asarray(X2, dtype=float)
        u = np.zeros_like(X1)
        v = np.zeros_like(X1)
        for _ in range(80):
            pv = model.profile.eval(u)
            A = a * v + pv.beta
            sin, cos = np.sin(pv.phi), np.cos(pv.phi)
            sh, ch = np.sinh(A), np.cosh(A)
            Gp = pv.Gprime
            r1 = (Gp / a) * cos * sh - (C / a) * sin * ch - X1
            r2 = C * v - pv.G - X2
            if max(np.max(np.abs(r1)), np.max(np.abs(r2))) < 1e-13:
                return u, v
            j11 = C * cos * ch + Gp * sin * sh
            j12 = Gp * cos * ch - C * sin * sh
            j21 = -Gp
            j22 = C
            det = j11 * j22 - j12 * j21
            u = u - (r1 * j22 - r2 * j12) / det
            v = v - (j11 * r2 - j21 * r1) / det
        raise DomainError("graph inversion did not converge; point outside "
                          "the injective patch")

    def f(x1, x2):
        u, v = invert(x1, x2)
        return model.xyz(u, v)[..., 2]

    return f


# -- meshing ----------------------------------------------------------------------

def mesh_catenoid(model: CatenoidModel, v_range=(-2.0, 2.0), nu: int = 64,
                  nv: int = 64) -> Mesh:
    """One full period in u, welded into a topological annulus.

    The u-rings follow z = s Z + i t, s in [0, 1), so the last ring of faces
    reconnects to ring 0 through the exact Z-translation identification;
    Euler characteristic is 0 with the two t-boundaries left open.
    """
    if nu < 16 or nv < 2:
        raise ResolutionError(f"resolution too small: nu={nu}, nv={nv}")
    t0, t1 = float(v_range[0]), float(v_range[1])
    if not t1 > t0:
        raise DomainError(f"empty v-range {v_range}")
    s = np.arange(nu) / nu
    t = np.linspace(t0, t1, nv)
    ss, tt = np.meshgrid(s, t, indexing="ij")
    uu = 2.0 * model.U * ss
    vv = 2.0 * model.V * ss + tt
    verts = model.xyz(uu.T.ravel(), vv.T.ravel())
    faces = grid_mesh_faces(nu, nv, wrap_u=True)
    return Mesh(verts, faces)
