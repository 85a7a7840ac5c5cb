"""The period integral L(alpha, theta) and its root theta_tilde(alpha).

The surface closes into an annulus exactly when

    L(alpha, theta) = alpha G(U) + C beta(U) = 0,

where L has the printed integral form over x in [-1, 1] with a 1/sqrt(1-x^2)
endpoint factor.  Substituting x = sin t turns it into an integrand over t
in [-pi/2, pi/2] that depends on t only through x^2 = sin^2 t, so it is
smooth and pi-periodic.  The plain trapezoidal rule converges exponentially
on such integrands (Trefethen & Weideman, SIAM Review 56, 2014).  The rule
starts at 16 nodes and doubles, reusing every node already evaluated, until
the n- and 2n-node sums agree to the requested tolerance; that difference
is the reported error estimate.  L is negative at theta = 0, increasing in
theta, and tends to +infinity at the admissibility boundary, so the root is
unique and a sign-checked bracket makes Brent's method safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import BracketError, DomainError, QuadratureError
from .profile import AnnulusParams, theta_plus

DEFAULT_QUAD_TOL = 1e-12
DEFAULT_ROOT_TOL = 1e-11

_N_START = 16
# Near the admissibility boundary sqrt(P) nearly vanishes at x = +-1 and the
# node count grows; 2^16 nodes resolve L to 1e-12 within 1e-5 of theta_plus
# (probed for alpha in [0.01, 1)).  The root search stays much farther in.
_N_MAX = 1 << 16
# Each trapezoidal sum carries rounding of a few eps times the integral of
# |f| (pairwise summation plus the integrand's own rounding); two sums can
# not be asked to agree more closely than that.
_ROUNDOFF = 32 * np.finfo(float).eps


@dataclass(frozen=True)
class PeriodIntegrals:
    """Values of the period integral and its diagnostic decompositions."""

    L: float
    quadrature_error_estimate: float
    converged: bool
    L1: float | None = None
    L2: float | None = None
    I1: float | None = None
    I2: float | None = None
    I3: float | None = None


def _periodic_trapezoid(rows, tol):
    """Integrals over t in [-pi/2, pi/2] of the integrand rows.

    rows(x2) maps x^2 = sin^2 t at a node batch to an (m, len(x2)) array.
    The nodes t_k = k h - pi/2 have sin^2 t_k = cos^2(k h); each doubling
    adds the midpoints.  Returns (integrals, error estimate, converged).
    """
    n = _N_START
    h = math.pi / n
    f = rows(np.cos(np.arange(n) * h) ** 2)
    total, abs_total = f.sum(axis=1), np.abs(f).sum(axis=1)
    est = total * h
    while True:
        f = rows(np.cos((np.arange(n) + 0.5) * h) ** 2)
        total = total + f.sum(axis=1)
        abs_total = abs_total + np.abs(f).sum(axis=1)
        n, h = 2 * n, 0.5 * h
        fine = total * h
        err = float(np.max(np.abs(fine - est)))
        est = fine
        ok = err <= max(tol, _ROUNDOFF * float(np.max(abs_total)) * h)
        if ok or n >= _N_MAX:
            return est, err, ok


def _sqrtP_denominator_L(params: AnnulusParams, x2):
    """sqrt(P), sqrt(P) (alpha + sqrt(P)) and the L integrand at x^2 = x2."""
    a, C, c2t = params.alpha, params.C, params.cos2theta
    sq = np.sqrt(a * a + c2t * x2 - C * C * x2 * x2)
    d = sq * (a + sq)
    return sq, d, (2.0 * a * C * C * x2 - a * c2t + C * C * x2 * sq) / d


def _check_omega(params: AnnulusParams):
    if not params.in_omega:
        raise DomainError(
            f"(alpha={params.alpha}, theta={params.theta}) outside the "
            f"admissible set; L is only defined there")


def L_integral(params: AnnulusParams, tol: float = DEFAULT_QUAD_TOL,
               split: bool = False) -> PeriodIntegrals:
    """Evaluate L(alpha, theta); optionally also the L1 + L2 split.

    A quadrature that cannot reach tol is reported with converged=False and
    the estimated error, never silently.
    """
    _check_omega(params)
    a, C, c2t = params.alpha, params.C, params.cos2theta

    def rows(x2):
        sq, d, L = _sqrtP_denominator_L(params, x2)
        if not split:
            return L[None]
        L1 = -2.0 * a * C * C * (1.0 - x2) / d
        L2 = (2.0 * a * C * C - a * c2t + C * C * x2 * sq) / d
        return np.stack([L, L1, L2])

    vals, err, ok = _periodic_trapezoid(rows, tol)
    L1, L2 = (float(vals[1]), float(vals[2])) if split else (None, None)
    return PeriodIntegrals(L=float(vals[0]), quadrature_error_estimate=err,
                           converged=ok, L1=L1, L2=L2)


def appendix_I_decomposition(alpha: float, theta: float,
                             tol: float = DEFAULT_QUAD_TOL) -> PeriodIntegrals:
    """The three asymptotic integrals with alpha L = I1 - cos(2 theta) I2 + I3.

    Asserts the printed lower bound
    I2 >= pi alpha^2 / (sqrt(alpha^2 + 1) (alpha + sqrt(alpha^2 + 1))),
    which only uses P <= alpha^2 + 1 on [-1, 1].
    """
    params = AnnulusParams(alpha, theta)
    _check_omega(params)
    a, C = params.alpha, params.C

    def rows(x2):
        sq, d, L = _sqrtP_denominator_L(params, x2)
        C2x2 = C * C * x2
        return np.stack([L, 2.0 * a * a * C2x2 / d, a * a / d,
                         a * C2x2 / (a + sq)])

    (L, I1, I2, I3), err, ok = _periodic_trapezoid(rows, tol)
    s = math.sqrt(a * a + 1.0)
    bound = math.pi * a * a / (s * (a + s))
    if I2 < bound - 10 * max(tol, err):
        raise BracketError(
            f"I2 = {I2} fell below its printed lower bound {bound}; this "
            f"contradicts P <= alpha^2 + 1 and indicates a quadrature bug")
    return PeriodIntegrals(L=float(L), quadrature_error_estimate=err,
                           converged=ok, I1=float(I1), I2=float(I2),
                           I3=float(I3))


def find_theta_tilde(alpha: float, tol: float = DEFAULT_ROOT_TOL) -> float:
    """The unique theta in (0, min(theta_plus, pi/4)) where L vanishes.

    Brent's method on a sign-checked bracket: guaranteed by monotonicity of
    L in theta.  The upper end starts 1% of theta_plus inside the
    admissibility boundary, where L stays cheap to resolve, and moves
    closer only while L is not yet positive.  Every L value used must come
    from a converged quadrature (else QuadratureError), and the returned
    value satisfies |L(alpha, theta)| <= tol.
    """
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"alpha must be positive and finite, got {alpha}")
    if tol <= 0:
        raise DomainError(f"tol must be positive, got {tol}")
    qtol = min(DEFAULT_QUAD_TOL, tol / 10.0)
    seen = {}

    def Lval(theta):
        if theta in seen:
            return seen[theta]
        r = L_integral(AnnulusParams(alpha, theta), tol=qtol)
        if not r.converged:
            raise QuadratureError(
                f"L quadrature did not converge at alpha={alpha}, "
                f"theta={theta}: error estimate "
                f"{r.quadrature_error_estimate:.3e} > {qtol:.1e}")
        seen[theta] = r.L
        return r.L

    tp = theta_plus(alpha)
    lo, gap = 0.0, 1e-2 * tp
    flo = Lval(lo)
    hi = min(tp - gap, math.pi / 4)
    fhi = Lval(hi)
    while flo < 0.0 and fhi <= 0.0 and gap > 1e-9:
        lo, flo = hi, fhi
        gap *= 0.1
        hi = tp - gap
        fhi = Lval(hi)
    if not (flo < 0.0 < fhi):
        raise BracketError(
            f"L must change sign on [{lo}, {hi}] for alpha={alpha}; got "
            f"L({lo})={flo}, L({hi})={fhi}")
    root = brentq(Lval, lo, hi, xtol=1e-15, maxiter=200)
    resid = Lval(root)
    if abs(resid) > tol:
        raise BracketError(
            f"root search stalled: |L(alpha, theta)| = {abs(resid)} > {tol} "
            f"at theta = {root}")
    return root
