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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResolutionError
from .nil3 import STENCIL5, stencil5

# The node count starts at START_NODES phi-cells, jumps to one doubling
# short of the count the n^-6 error model predicts, then doubles while the
# self-check's dense-output error exceeds TOL, up to the period rule's cap.
START_NODES = 128
MAX_NODES = 1 << 16
TOL = 1e-12

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
        s2t = math.sin(2.0 * t)
        object.__setattr__(self, "C", s2t / (2.0 * a))
        object.__setattr__(self, "theta_plus", theta_plus(a))
        if s2t != 0.0:
            # 2 a^2 / (1 -+ cos 2 theta), without the cancellation that
            # rounds 1 + cos 2 theta to 0 within 1e-8 of theta = pi/2
            object.__setattr__(self, "rho_minus", a * a / math.sin(t) ** 2)
            object.__setattr__(self, "rho_plus", a * a / math.cos(t) ** 2)
        else:
            object.__setattr__(self, "rho_minus", None)
            object.__setattr__(self, "rho_plus", None)
        object.__setattr__(self, "in_omega", abs(t) < self.theta_plus)

    @property
    def cos2theta(self) -> float:
        return math.cos(2.0 * self.theta)


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
    over phi in [-pi, 0] (u in [0, U]), one piecewise quintic Hermite
    interpolant in u whose three columns are phi, beta and G (built from
    the exact node values, slopes and curvatures; one interval search per
    evaluation), and the quasi-period data (U, beta(U), G(U), V, Z).
    Evaluation at arbitrary u reduces to the fundamental interval with the
    exact algebraic quasi-period laws; phi' and G' are recovered from closed
    forms in phi, never from interpolant derivatives.

    The grid starts at START_NODES cells.  The quintic's midpoint error
    falls like n^-6, 64x per doubling (slower on coarse grids at small
    alpha), so the grid jumps from the first measured dense-output error
    (interp_error) to one doubling short of the count at which that model
    predicts TOL, then doubles while the measured error exceeds TOL.
    Single doublings have fallen by up to 70x, and at alpha 0.0143 and
    0.0177 the model's count was the final count with no doubling to
    spare; one doubling short, the jump lands on the count plain doubling
    reaches unless the error falls more than 64x faster than the model
    over the whole jump, in at most four builds instead of up to nine.
    Reaching MAX_NODES first raises ResolutionError.  Small alpha needs the
    finer grids.

    params is an AnnulusParams or any pack of the fields the quartic reads
    (alpha, cos2theta, C) plus its admissibility flag in_omega; the CMC
    conjugate passes (alpha*, -1, 0).

    Immutable after construction; safe to share across threads.
    """

    def __init__(self, params: AnnulusParams):
        if not params.in_omega:
            raise DomainError(
                f"{params} is outside the admissible set: P(cos phi) > 0 "
                f"fails on [-1, 1]")
        self.params = params
        self.nodes_n = START_NODES
        self._build()
        error = self._interp_error()
        if error > TOL:
            # one doubling short of the count the n^-6 model predicts: a
            # fall up to 64x faster than the model over the jump still
            # lands on the count plain doubling reaches
            n, predicted = self.nodes_n, error
            while predicted > TOL and n < MAX_NODES:
                n *= 2
                predicted /= 64.0
            if n // 2 > self.nodes_n:
                self.nodes_n = n // 2
                self._build()
                error = self._interp_error()
        while error > TOL:
            if self.nodes_n >= MAX_NODES:
                raise ResolutionError(
                    f"dense output error {self.interp_error:.3e} exceeds "
                    f"tol {TOL:.1e} at the cap of {MAX_NODES} nodes")
            self.nodes_n *= 2
            self._build()
            error = self._interp_error()
        self._check_midpoint()

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

        # Exact node slopes and curvatures of (phi, beta, G) for the quintic
        # Hermite interpolant; the curvatures are the identities that
        # identity_residuals checks by finite differences.
        p = self.params
        c = np.cos(phi)
        c2 = c * c
        sc = np.sin(phi) * c
        sqP = np.sqrt(p.alpha ** 2 + p.cos2theta * c2 - p.C ** 2 * c2 * c2)
        Gp = (p.C ** 2 * c2 - p.cos2theta) / (p.alpha + sqP)
        y = np.stack([phi, beta, G])
        d1 = np.stack([-sqP, p.C * c2, Gp])
        d2 = np.stack([-(p.cos2theta - 2 * p.C ** 2 * c2) * sc,
                       2 * p.C * sc * sqP, (p.C ** 2 + Gp * Gp) * sc])
        self._breaks = u[1:-1]
        self._coef = _quintic_hermite(u, y, d1, d2)

    def _interp_error(self) -> float:
        """Measure true interpolation error at cell midpoints.

        Integrates one extra half-cell from each node and compares against
        the interpolant; this is the worst-case interpolation point, so it
        bounds the dense-output error.  The result is kept as interp_error.
        """
        phi = self.phi_nodes
        mid = 0.5 * (phi[:-1] + phi[1:])
        du, dbeta, dG = self._cell_increments(mid, phi[:-1])
        exact = np.stack([mid, self.beta_nodes[:-1] + dbeta,
                          self.G_nodes[:-1] + dG])
        self.interp_error = float(
            np.max(np.abs(self._dense(self.u_nodes[:-1] + du) - exact)))
        return self.interp_error

    def _check_midpoint(self):
        """The half-period laws phi(U/2) = -pi/2, beta(U/2) = beta(U)/2 and
        G(U/2) = G(U)/2 must hold on the converged grid."""
        mids = np.abs(self._dense(np.array([0.5 * self.U]))[:, 0]
                      - [-0.5 * math.pi, 0.5 * self.betaU, 0.5 * self.GU])
        if mids.max() > 100 * TOL:
            raise ResolutionError(
                f"midpoint identities violated at {mids.max():.3e}; grid or "
                f"quadrature is inconsistent")

    # -- evaluation --------------------------------------------------------

    def _dense(self, u0: np.ndarray) -> np.ndarray:
        """(phi, beta, G) at points u0 of [0, U] as a (3, m) array: one
        interval search, then Horner's rule in s = u0 - u_i per column."""
        i = np.searchsorted(self._breaks, u0, side="right")
        s = u0 - self.u_nodes[i]
        out = np.empty((3, len(u0)))
        for y, coef in zip(out, self._coef):
            acc = coef[5][i]
            for k in range(4, -1, -1):
                acc *= s
                acc += coef[k][i]
            y[:] = acc
        return out

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
        y = self._dense(u0)
        phi = y[0] - k * np.pi
        beta = y[1] + k * self.betaU
        G = y[2] + k * self.GU
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


def _quintic_hermite(u, y, d1, d2) -> np.ndarray:
    """Per-cell power-basis coefficients, shape (columns, 6, cells), of the
    quintic that matches value, slope and curvature at both cell ends.

    The inputs hold one row per column and one entry per node.  In t = (u -
    u_i) / h the quintic is y0 + h y0' t + h^2 y0'' t^2 / 2 + a3 t^3 + a4 t^4
    + a5 t^5, where a3, a4, a5 solve the three conditions at t = 1.
    Coefficient k is divided by h^k, so callers evaluate in s = u - u_i.
    """
    h = np.diff(u)
    dy = y[:, 1:] - y[:, :-1]
    s0, s1 = h * d1[:, :-1], h * d1[:, 1:]
    c0, c1 = 0.5 * h * h * d2[:, :-1], 0.5 * h * h * d2[:, 1:]
    a = np.stack([
        y[:, :-1], s0, c0,
        10 * dy - 6 * s0 - 4 * s1 - 3 * c0 + c1,
        -15 * dy + 8 * s0 + 7 * s1 + 3 * c0 - 2 * c1,
        6 * dy - 3 * s0 - 3 * s1 - c0 + c1,
    ], axis=1)
    return a / h ** np.arange(6)[:, None]


def solve_profile(params: AnnulusParams) -> Profile:
    """Solve the profile system on the fundamental interval u in [0, U]."""
    return Profile(params)


def identity_residuals(profile: Profile, grid, h: float | None = None) -> dict:
    """Max residuals of the five printed differential identities on a grid.

    Second derivatives phi'' and G'' are formed by a 5-point finite
    difference (step h) of the closed-form first derivatives, so the checks
    are independent of the identities being tested.  The default step
    h = 0.5 min(1, U) eps^(1/6) balances the truncation (~ h^4) and roundoff
    (~ eps / h^2) errors of a 5-point second difference of the profile, with
    the half-period U as its length scale when U < 1.
    """
    p = profile.params
    if h is None:
        h = 0.5 * min(1.0, profile.U) * np.finfo(float).eps ** (1 / 6)
    u = np.asarray(grid, dtype=float)
    v = profile.eval(u)
    sin, cos = np.sin(v.phi), np.cos(v.phi)
    cos2 = cos * cos
    c2t, C = p.cos2theta, p.C
    v5 = profile.eval(np.add.outer(h * STENCIL5, u))
    phi2, _ = stencil5(v5.phiprime, h)
    G2, _ = stencil5(v5.Gprime, h)

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
