"""Profile functions phi, beta, G of the one-parameter harmonic-map family.

Everything downstream (catenoids, helicoids, CMC annuli) is a closed-form
expression in three functions of one variable:

    phi' ** 2 = P(cos phi),      P(x) = alpha^2 + cos(2 theta) x^2 - C^2 x^4,
    beta'     = C cos^2 phi,     C = sin(2 theta) / (2 alpha),
    G'        = (C^2 cos^2 phi - cos 2 theta) / (alpha - phi'),

with phi(0) = beta(0) = G(0) = 0 and the decreasing branch phi' < 0.  On the
admissible parameter set P > 0 on [-1, 1], so phi is a decreasing bijection
of the line with the quasi-period law phi(u + U) = phi(u) - pi, and beta, G
are odd with beta(u + U) = beta(u) + beta(U), G(u + U) = G(u) + G(U).

The solver integrates with phi as the independent variable (du/dphi =
-1 / sqrt(P(cos phi)), which never blows up on the admissible set), so the
half-period U is an endpoint of the integration rather than a root.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DomainError, ResolutionError

DEFAULT_NODES = 4096
DEFAULT_TOL = 1e-12

# 5-point Gauss-Legendre rule on [-1, 1]; composite per phi-cell this is
# accurate far beyond float64 for the smooth integrands below.
_GL_X = np.array([
    -0.9061798459386640, -0.5384693101056831, 0.0,
    0.5384693101056831, 0.9061798459386640,
])
_GL_W = np.array([
    0.2369268850561891, 0.4786286704993665, 0.5688888888888889,
    0.4786286704993665, 0.2369268850561891,
])


def theta_plus(alpha: float) -> float:
    """Right endpoint of the admissible theta interval for a given alpha.

    Equals pi/2 for alpha > 1 and arccos(1 - 2 alpha^2) / 2 otherwise; the
    two branches agree at alpha = 1.
    """
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if alpha > 1:
        return 0.5 * math.pi
    return 0.5 * math.acos(1.0 - 2.0 * alpha * alpha)


@dataclass(frozen=True)
class AnnulusParams:
    """Parameter pack (alpha, theta) with its derived constants.

    Derived fields: C = sin(2 theta)/(2 alpha), the admissibility bound
    theta_plus, the quartic's root parameters rho_minus/rho_plus (defined
    only when 2 theta is not a multiple of pi), and the membership flag
    in_omega (|theta| < theta_plus), which is exactly the condition for
    P > 0 on [-1, 1].
    """

    alpha: float
    theta: float
    C: float = field(init=False)
    theta_plus: float = field(init=False)
    rho_minus: float | None = field(init=False)
    rho_plus: float | None = field(init=False)
    in_omega: bool = field(init=False)

    def __post_init__(self):
        if self.alpha <= 0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        a, t = float(self.alpha), float(self.theta)
        c2t = math.cos(2.0 * t)
        object.__setattr__(self, "C", math.sin(2.0 * t) / (2.0 * a))
        object.__setattr__(self, "theta_plus", theta_plus(a))
        if math.sin(2.0 * t) != 0.0:
            object.__setattr__(self, "rho_minus", 2.0 * a * a / (1.0 - c2t))
            object.__setattr__(self, "rho_plus", 2.0 * a * a / (1.0 + c2t))
        else:
            object.__setattr__(self, "rho_minus", None)
            object.__setattr__(self, "rho_plus", None)
        object.__setattr__(self, "in_omega", abs(t) < self.theta_plus)

    @property
    def cos2theta(self) -> float:
        return math.cos(2.0 * self.theta)

    def P_min(self) -> float:
        """min of P over [-1, 1]; positive iff the parameters are admissible.

        P' vanishes only at x = 0 and (when cos 2 theta > 0) at an interior
        maximum, so the minimum sits at x = 0 or x = +-1.
        """
        return min(self.alpha ** 2, quartic_P(self, 1.0))


def quartic_P(params: AnnulusParams, x):
    """The quartic P(x) = alpha^2 + cos(2 theta) x^2 - C^2 x^4."""
    x = np.asarray(x, dtype=float)
    out = params.alpha ** 2 + params.cos2theta * x * x - params.C ** 2 * x ** 4
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ProfileValues:
    """Profile data at a batch of parameter values u."""

    phi: np.ndarray
    phiprime: np.ndarray
    beta: np.ndarray
    G: np.ndarray
    Gprime: np.ndarray


class Profile:
    """Dense solution of the profile system over one fundamental interval.

    Stores node records (u, phi, phi', beta, G, G') on a phi-uniform grid
    over phi in [-pi, 0] (u in [0, U]), one cubic spline in u whose three
    columns are phi, beta and G (one interval search per evaluation), and
    the quasi-period data (U, beta(U), G(U), V, Z).  Evaluation at
    arbitrary u reduces to the fundamental interval with the exact algebraic
    quasi-period laws; phi' and G' are recovered from closed forms in phi,
    never from spline derivatives.

    Immutable after construction; safe to share across threads.
    """

    def __init__(self, params: AnnulusParams, nodes: int = DEFAULT_NODES,
                 tol: float = DEFAULT_TOL):
        if not params.in_omega:
            raise DomainError(
                f"(alpha={params.alpha}, theta={params.theta}) is outside the "
                f"admissible set: |theta| >= theta_plus = {params.theta_plus}")
        if tol <= 0:
            raise DomainError(f"tol must be positive, got {tol}")
        if nodes < 16:
            raise ResolutionError(f"need at least 16 nodes, got {nodes}")
        self.params = params
        self.nodes_n = int(nodes)
        self.tol = float(tol)
        self._build()
        self._self_check()

    # -- construction -----------------------------------------------------

    def _cell_increments(self, lo: np.ndarray, hi: np.ndarray):
        """Gauss-Legendre increments of (u, beta, G) over phi-cells [lo, hi].

        Integrates du = -dphi / sqrt(P), dbeta = beta' du, dG = G' du
        downward in phi, returning positive increments per cell.
        """
        p = self.params
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        psi = mid[:, None] + half[:, None] * _GL_X[None, :]
        c = np.cos(psi)
        c2 = c * c
        sqP = np.sqrt(p.alpha ** 2 + p.cos2theta * c2 - p.C ** 2 * c2 * c2)
        w = half[:, None] * _GL_W[None, :]
        du = (w / sqP).sum(axis=1)
        dbeta = (w * (p.C * c2 / sqP)).sum(axis=1)
        dG = (w * ((p.C ** 2 * c2 - p.cos2theta)
                   / ((p.alpha + sqP) * sqP))).sum(axis=1)
        return du, dbeta, dG

    def _build(self):
        n = self.nodes_n
        phi = -np.pi * np.arange(n + 1) / n
        du, dbeta, dG = self._cell_increments(phi[1:], phi[:-1])
        u = np.concatenate([[0.0], np.cumsum(du)])
        beta = np.concatenate([[0.0], np.cumsum(dbeta)])
        G = np.concatenate([[0.0], np.cumsum(dG)])

        self.phi_nodes = phi
        self.u_nodes = u
        self.beta_nodes = beta
        self.G_nodes = G
        self.U = float(u[-1])
        self.betaU = float(beta[-1])
        self.GU = float(G[-1])
        self.V = -self.betaU / self.params.alpha
        self.Z = complex(2.0 * self.U, 2.0 * self.V)

        # One clamped spline for the columns (phi, beta, G): the exact
        # endpoint derivatives are known, and each is the same at both ends.
        p = self.params
        sqP1 = math.sqrt(quartic_P(p, 1.0))
        slopes = np.array([-sqP1, p.C,
                           (p.C ** 2 - p.cos2theta) / (p.alpha + sqP1)])
        self._sp = CubicSpline(u, np.stack([phi, beta, G], axis=1),
                               bc_type=((1, slopes), (1, slopes)))

    def _self_check(self):
        """Measure true interpolation error at cell midpoints.

        Integrates one extra half-cell from each node and compares against
        the splines; this is the worst-case interpolation point, so it
        bounds the dense-output error.  A tolerance finer than the grid can
        deliver raises instead of passing silently.
        """
        phi = self.phi_nodes
        mid = 0.5 * (phi[:-1] + phi[1:])
        du, dbeta, dG = self._cell_increments(mid, phi[:-1])
        exact = np.stack([mid, self.beta_nodes[:-1] + dbeta,
                          self.G_nodes[:-1] + dG], axis=1)
        err = np.max(np.abs(self._sp(self.u_nodes[:-1] + du) - exact))
        self.interp_error = float(err)
        if err > self.tol:
            raise ResolutionError(
                f"dense output error {err:.3e} exceeds tol {self.tol:.1e}; "
                f"increase nodes ({self.nodes_n}) or loosen tol")
        mids = np.abs(self._sp(0.5 * self.U)
                      - [-0.5 * math.pi, 0.5 * self.betaU, 0.5 * self.GU])
        if mids.max() > 100 * max(self.tol, 1e-14):
            raise ResolutionError(
                f"midpoint identities violated at {mids.max():.3e}; grid or "
                f"quadrature is inconsistent")

    # -- evaluation --------------------------------------------------------

    def eval(self, u) -> ProfileValues:
        """Profile values at arbitrary u via the exact quasi-period laws.

        Output arrays have the same shape as the input.
        """
        u_in = np.asarray(u, dtype=float)
        u = u_in.ravel()
        k = np.floor(u / self.U)
        u0 = u - k * self.U
        # floor can leave u0 == U through rounding; fold it back
        over = u0 >= self.U
        u0[over] -= self.U
        k[over] += 1.0
        y = self._sp(u0)
        phi = y[:, 0] - k * np.pi
        beta = y[:, 1] + k * self.betaU
        G = y[:, 2] + k * self.GU
        p = self.params
        c2 = np.cos(phi) ** 2
        sqP = np.sqrt(p.alpha ** 2 + p.cos2theta * c2 - p.C ** 2 * c2 * c2)
        phiprime = -sqP
        Gprime = (p.C ** 2 * c2 - p.cos2theta) / (p.alpha + sqP)
        shape = u_in.shape
        return ProfileValues(phi=phi.reshape(shape),
                             phiprime=phiprime.reshape(shape),
                             beta=beta.reshape(shape),
                             G=G.reshape(shape),
                             Gprime=Gprime.reshape(shape))

    def __call__(self, u) -> ProfileValues:
        return self.eval(u)

    def to_csv(self, path, n: int | None = None):
        """Dump node records (or n uniform-in-u samples) for external checks."""
        if n is None:
            u = self.u_nodes
        else:
            u = np.linspace(0.0, self.U, n)
        v = self.eval(u)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["u", "phi", "phiprime", "beta", "G", "Gprime"])
            for row in zip(u, v.phi, v.phiprime, v.beta, v.G, v.Gprime):
                w.writerow([repr(float(x)) for x in row])


def solve_profile(params: AnnulusParams, tol: float = DEFAULT_TOL,
                  nodes: int = DEFAULT_NODES) -> Profile:
    """Solve the profile system on the fundamental interval u in [0, U]."""
    return Profile(params, nodes=nodes, tol=tol)


def _fd5(f, u: np.ndarray, h: float) -> np.ndarray:
    """5-point first-derivative stencil, exact through degree 4."""
    return (f(u - 2 * h) - 8 * f(u - h) + 8 * f(u + h) - f(u + 2 * h)) / (12 * h)


def identity_residuals(profile: Profile, grid, h: float = 1e-5) -> dict:
    """Max residuals of the five printed differential identities on a grid.

    Second derivatives phi'' and G'' are formed by a 5-point finite
    difference (step h) of the closed-form first derivatives, so the checks
    are independent of the identities being tested.
    """
    p = profile.params
    u = np.asarray(grid, dtype=float)
    v = profile.eval(u)
    sin, cos = np.sin(v.phi), np.cos(v.phi)
    cos2 = cos * cos
    c2t, C = p.cos2theta, p.C
    phi2 = _fd5(lambda x: profile.eval(x).phiprime, u, h)
    G2 = _fd5(lambda x: profile.eval(x).Gprime, u, h)

    res = {
        "phi_prime_alpha": v.phiprime + p.alpha - v.Gprime * cos2,
        "phi_second": phi2 + (c2t - 2 * C ** 2 * cos2) * sin * cos,
        "G_second_cosphi": G2 * cos - (2 * v.phiprime * v.Gprime - c2t
                                       + 2 * C ** 2 * cos2) * sin,
        "G_second": G2 - (2 * C ** 2 * p.alpha - c2t * v.Gprime)
                    / (p.alpha - v.phiprime) * sin * cos,
        "G_second_quadratic": G2 - (C ** 2 + v.Gprime ** 2) * sin * cos,
    }
    out = {}
    for name, r in res.items():
        i = int(np.argmax(np.abs(r)))
        out[name] = (float(np.max(np.abs(r))), float(u[i]))
    return out
