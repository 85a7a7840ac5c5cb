"""The period integral L(alpha, theta) and its root theta_tilde(alpha).

The surface closes into an annulus exactly when

    L(alpha, theta) = alpha G(U) + C beta(U) = 0,

where L has the printed integral form over x in [-1, 1] with a 1/sqrt(1-x^2)
endpoint factor.  Substituting x = sin t turns it into an integrand over t
in [-pi/2, pi/2] that depends on t only through x^2 = sin^2 t, so it is
smooth and pi-periodic.  The plain trapezoidal rule converges exponentially
on such integrands (Trefethen & Weideman, SIAM Review 56, 2014).  The rule
starts at 16 nodes and doubles until the n- and 2n-node sums agree to the
requested tolerance; that difference is the reported error estimate.  Its
nodes are prefixes of one process-wide table of x^2, in the order the
doublings add them.  The integrand runs once on the first 128, which most
ladders never pass, and once per doubling beyond.  Each run fills one
fresh (2m, n) block for its m rows and n nodes: the rows f, written in
place, and under them |f|, whose sums set the convergence test's roundoff
floor; one pairwise sum per level covers the whole block.  The full-period
constants U, beta(U) and G(U) and the asymptotic integrals I1-I3 are
integrals of functions of cos^2 phi = x^2 too, so `L_integral` adds them
as further rows of the same pass on request.
L is negative at theta = 0, increasing in theta, and tends to +infinity at
the admissibility boundary, so the root is unique.  Each pass also
integrates the exact theta-derivative of L's integrand as one more row, so
the root search is Newton's method, safeguarded by bisection on a bracket
whose upper end is sign-checked before a step is clipped to it.  For
alpha in [0.01, 1000] it starts from a Chebyshev interpolant of the root
that is good to about 1e-9, so one step and the pass that confirms it
find the root, and the confirming pass carries the constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
# Outside the range of the start table below, Newton starts at
# (pi/4) tanh(1.0612 alpha): theta_tilde -> 0.8335 alpha as alpha -> 0,
# and 4 * 0.8335 / pi = 1.0612
_NEWTON_START = 1.0612
_NEWTON_MAXITER = 100
# A pass that follows a move below 1e-8 theta carries the constant rows.
# Over 900 alpha in [5e-4, 1e7] every move before a pass that did not
# confirm the root was above 1.9e-8 theta, and from the start table below
# the first move is below 1.4e-9 theta.
_CONFIRM_STEP = 1e-8

# g(y) = theta_tilde(alpha) (1 + alpha) / alpha as a Chebyshev series in
# y = alpha / (1 + alpha), mapped from [y(0.01), y(1000)] onto [-1, 1].
# y folds alpha in (0, infinity) onto (0, 1), and g runs smoothly from
# 0.8335 at y = 0 to pi/4 at y = 1; a series for theta_tilde in log alpha
# converges far more slowly (48 terms leave 6e-4 relative error).  The
# coefficients interpolate g at the 40 first-kind Chebyshev points, with
# the roots find_theta_tilde returns there (`theta_start_coefficients` in
# `tests/oracles.py` rebuilds them); the start y g(y) is then within
# 1.4e-9 of the root, relative, over 3000 log-spaced alpha.
_START_ALPHA = (0.01, 1000.0)
_START_Y = (0.01 / (1.0 + 0.01), 1000.0 / (1.0 + 1000.0))
_START_COEFFS = (
    0.9797878751376488, -0.036354938300846976, -0.19711789586076037,
    0.011639857873903004, 0.039292777887368104, -0.004527909824978505,
    -0.010187373189627709, 0.0020258910760901695, 0.0028999065694086308,
    -0.000863074912854156, -0.0008750765598215971, 0.00036730958231459,
    0.00026603249561917285, -0.00015214564568127864, -8.095537168460037e-05,
    6.290597555697053e-05, 2.3420564683893086e-05, -2.5441731016545568e-05,
    -6.3473276354808485e-06, 1.0280422274178137e-05, 1.35802390079931e-06,
    -4.052335708459865e-06, -1.332074820864504e-07, 1.598689679466192e-06,
    -1.1871619256149936e-07, -6.094592094441076e-07, 1.0504319708087851e-07,
    2.336112888190467e-07, -6.803395523891088e-08, -8.464931120499842e-08,
    3.488388276018384e-08, 3.122914498110419e-08, -1.7917128289357544e-08,
    -1.0296919361607593e-08, 7.976473678089624e-09, 3.5690325833614978e-09,
    -3.700721466770585e-09, -9.249744109540714e-10, 1.293686171383035e-09,
    2.934193998882506e-10,
)
# the rows L_integral adds for constants=True, after L and dL/dtheta
_CONSTANTS = ("I1", "I2", "I3", "U", "betaU", "GU")


@dataclass(frozen=True)
class PeriodIntegrals:
    """Values of the period integral and its diagnostic decompositions."""

    L: float
    quadrature_error_estimate: float
    converged: bool
    dL_dtheta: float | None = None
    L1: float | None = None
    L2: float | None = None
    I1: float | None = None
    I2: float | None = None
    I3: float | None = None
    U: float | None = None
    betaU: float | None = None
    GU: float | None = None
    theta: float | None = None


# x^2 = sin^2 t at the nodes in the order the ladder adds them (the 16-node
# rule, then each doubling's midpoints).  The table is the one element of
# this list, which _ladder_nodes updates in place as it grows the table up
# to _N_MAX, so no module attribute is ever rebound; threads racing to grow
# it build the same entries.
_NODE_TABLE = [np.empty(0)]
# An integrand call costs more than its arithmetic on 128 nodes, though most
# ladders stop at 32 (measured against 32 and 64, see CHANGES.md).
_N_FIRST = 128


def _ladder_nodes(n):
    """The first n entries of the node table, n a power of two."""
    x2 = _NODE_TABLE[0]
    while len(x2) < n:
        k, mid = (len(x2), 0.5) if len(x2) else (_N_START, 0.0)
        t = (np.arange(k) + mid) * (math.pi / k)
        x2 = _NODE_TABLE[0] = np.concatenate([x2, np.cos(t) ** 2])
    return x2[:n]


def _row_block(rows, x2):
    """The (2m, len(x2)) block of the integrand rows f and |f| at x2.

    rows(x2) writes the m rows of f into the top half of a block it
    allocates and returns that half; |f| fills the bottom half."""
    f = rows(x2)
    g = f.base
    np.abs(f, out=g[len(f):])
    return g


def _periodic_trapezoid(rows, tol):
    """Integrals over t in [-pi/2, pi/2] of the integrand rows.

    rows(x2) maps x^2 = sin^2 t at a node batch to the (m, len(x2)) top
    half of a fresh (2m, len(x2)) block (`_row_block`).  The nodes
    t_k = k h - pi/2 have sin^2 t_k = cos^2(k h); each doubling adds the
    midpoints.  rows runs on the table's first _N_FIRST nodes, then once
    per doubling past them; with |f| under f in the block, a level's sums
    are one pairwise sum.  Returns (integrals, error, converged).
    """
    g = _row_block(rows, _ladder_nodes(_N_FIRST))
    m, lo = len(g) // 2, 0
    n, h = _N_START, math.pi / _N_START
    sums = g[:, :n].sum(axis=1)
    est = sums[:m] * h
    while True:
        if 2 * n > lo + g.shape[1]:
            g, lo = _row_block(rows, _ladder_nodes(2 * n)[n:]), n
        sums += g[:, n - lo:2 * n - lo].sum(axis=1)
        n, h = 2 * n, 0.5 * h
        fine = sums[:m] * h
        err = float(abs(fine - est).max())
        est = fine
        ok = err <= max(tol, _ROUNDOFF * float(sums[m:].max()) * h)
        if ok or n >= _N_MAX:
            return est, err, ok


def _check_omega(params: AnnulusParams):
    if not params.in_omega:
        raise DomainError(
            f"(alpha={params.alpha}, theta={params.theta}) outside the "
            f"admissible set; L is only defined there")


def L_integral(params: AnnulusParams, tol: float = DEFAULT_QUAD_TOL,
               split: bool = False,
               constants: bool = False) -> PeriodIntegrals:
    """Evaluate L(alpha, theta) and dL/dtheta; optionally the L1 + L2 split
    and the constants of `appendix_I_decomposition`, all in one pass.

    The slope integrates the exact theta-derivative of L's integrand
    N / D in the same pass: with P = alpha^2 + c x^2 - C^2 x^4,
    c = cos 2 theta and C = sin 2 theta / (2 alpha), c' = -2 sin 2 theta
    and C' = c / alpha, and (N / D)' = (N' - (N / D) D') / D.  Every row
    takes part in the convergence test.  A quadrature that cannot reach
    tol is reported with converged=False and the estimated error, never
    silently.
    """
    _check_omega(params)
    a, C, c2t = params.alpha, params.C, params.cos2theta
    CC = C * C
    # c' = -2 sin 2 theta = -4 alpha C and (C^2)' = 2 C c / alpha
    dc, dC2 = -4.0 * a * C, 2.0 * C * c2t / a
    names = ("L", "dL_dtheta") + (("L1", "L2") if split else ()) \
        + (_CONSTANTS if constants else ())

    def rows(x2):
        # shared subterms formed once, each expression left to right as
        # the plain formulas read, so every row keeps their bits; f is
        # the top half of the block
        f = np.empty((2 * len(names), len(x2)))[:len(names)]
        C2x2 = CC * x2
        sq = np.sqrt(a * a + c2t * x2 - C2x2 * x2)
        ap = a + sq
        d = sq * ap
        C2x2sq = C2x2 * sq
        L = np.divide(2.0 * a * C * C * x2 - a * c2t + C2x2sq, d, out=f[0])
        dsq = (dc - dC2 * x2) * x2 / (2.0 * sq)
        dN = (2.0 * a + sq) * dC2 * x2 - a * dc + C2x2 * dsq
        np.divide(dN - L * dsq * (a + 2.0 * sq), d, out=f[1])
        if split:
            np.divide(-2.0 * a * C * C * (1.0 - x2), d, out=f[2])
            np.divide(2.0 * a * C * C - a * c2t + C2x2sq, d, out=f[3])
        if constants:
            I1, I2, I3, U, betaU, GU = f[-6:]
            np.divide(2.0 * a * a * C2x2, d, out=I1)
            np.divide(a * a, d, out=I2)
            np.divide(a * C2x2, ap, out=I3)
            np.divide(1.0, sq, out=U)
            np.divide(C * x2, sq, out=betaU)
            np.divide(C2x2 - c2t, d, out=GU)
        return f

    vals, err, ok = _periodic_trapezoid(rows, tol)
    return PeriodIntegrals(quadrature_error_estimate=err, converged=ok,
                           theta=params.theta,
                           **dict(zip(names, vals.tolist())))


def _check_I2_bound(alpha: float, r: PeriodIntegrals, tol: float) -> None:
    s = math.sqrt(alpha * alpha + 1.0)
    bound = math.pi * alpha * alpha / (s * (alpha + s))
    if r.I2 < bound - 10 * max(tol, r.quadrature_error_estimate):
        raise BracketError(
            f"I2 = {r.I2} fell below its printed lower bound {bound}; this "
            f"contradicts P <= alpha^2 + 1 and indicates a quadrature bug")


def appendix_I_decomposition(alpha: float, theta: float,
                             tol: float = DEFAULT_QUAD_TOL) -> PeriodIntegrals:
    """The three asymptotic integrals with alpha L = I1 - cos(2 theta) I2 + I3,
    and the full-period constants U, beta(U) and G(U) from the same pass.

    With cos^2 phi = x^2 the profile's increments over one half-period are
    dU = dt / sqrt(P), dbeta = C x^2 dU and dG = (C^2 x^2 - cos 2 theta)
    dU / (alpha + sqrt(P)), so alpha G(U) + C beta(U) integrates exactly L's
    integrand.  This is `L_integral(..., constants=True)` plus the printed
    lower bound
    I2 >= pi alpha^2 / (sqrt(alpha^2 + 1) (alpha + sqrt(alpha^2 + 1))),
    which only uses P <= alpha^2 + 1 on [-1, 1].
    """
    r = L_integral(AnnulusParams(alpha, theta), tol=tol, constants=True)
    _check_I2_bound(alpha, r, tol)
    return r


def check_period_defect(defect: float) -> None:
    """Raise DomainError when the period identity's defect
    |alpha G(U) + C beta(U)| exceeds 1e-9: the annulus does not close, so
    theta is not the root of L."""
    if defect > 1e-9:
        raise DomainError(
            f"period identity defect {defect:.3e} too large; the theta root "
            f"did not converge")


def _newton_start(alpha: float) -> float:
    """The start y g(y) from `_START_COEFFS` by Clenshaw's recurrence on
    [0.01, 1000], and (pi/4) tanh(1.0612 alpha) outside it."""
    if not _START_ALPHA[0] <= alpha <= _START_ALPHA[1]:
        return math.pi / 4 * math.tanh(_NEWTON_START * alpha)
    y = alpha / (1.0 + alpha)
    lo, hi = _START_Y
    t = (2.0 * y - lo - hi) / (hi - lo)
    b1 = b2 = 0.0
    for c in _START_COEFFS[:0:-1]:
        b1, b2 = 2.0 * t * b1 - b2 + c, b1
    return y * (t * b1 - b2 + _START_COEFFS[0])


def find_theta_tilde(alpha: float,
                     tol: float = DEFAULT_ROOT_TOL) -> PeriodIntegrals:
    """The unique theta in (0, min(theta_plus, pi/4)) where L vanishes.

    Newton's method on L with the slope from the same pass.  On
    alpha in [0.01, 1000] it starts from the Chebyshev table
    `_START_COEFFS`, within 1.4e-9 of the root, so one step and the pass
    that confirms it suffice.  Elsewhere it starts at
    (pi/4) tanh(1.0612 alpha): theta_tilde / alpha -> 0.8335 as alpha -> 0
    and theta_tilde -> pi/4 as alpha -> infinity.  L is increasing in
    theta and negative at 0, so each iterate narrows the bracket [lo, hi]
    around the root.  The upper end starts 1% of theta_plus inside the
    admissibility boundary, where L stays cheap to resolve; a step past it
    evaluates it first, and while L is not yet positive there it moves
    closer to theta_plus.  A step that would leave the sign-checked
    bracket bisects it instead.  Every L value used must come from a
    converged quadrature (else QuadratureError), and theta is found only
    once |L(alpha, theta)| <= tol and the Newton step is below
    1e-15 theta.

    Returns the `PeriodIntegrals` of the converged pass at theta, with
    `theta` set and I1-I3, U, beta(U) and G(U) (`appendix_I_decomposition`'s
    rows, I2 bound checked) at the root's quadrature tolerance
    min(1e-12, tol / 10).  Every caller gets the same root.  A pass after
    a move below 1e-8 theta carries those rows, so from the table the
    second pass returns them: two passes per root.  When the confirming
    pass came after a larger move, one more pass at theta adds them.
    """
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"alpha must be positive and finite, got {alpha}")
    if tol <= 0:
        raise DomainError(f"tol must be positive, got {tol}")
    qtol = min(DEFAULT_QUAD_TOL, tol / 10.0)

    def converged_pass(theta, with_constants):
        r = L_integral(AnnulusParams(alpha, theta), tol=qtol,
                       constants=with_constants)
        if not r.converged:
            raise QuadratureError(
                f"L quadrature did not converge at alpha={alpha}, "
                f"theta={theta}: error estimate "
                f"{r.quadrature_error_estimate:.3e} > {qtol:.1e}")
        return r

    tp = theta_plus(alpha)
    lo, gap = 0.0, 1e-2 * tp
    hi, hi_checked = min(tp - gap, math.pi / 4), False
    theta, confirming = min(_newton_start(alpha), hi), False
    for _ in range(_NEWTON_MAXITER):
        r = converged_pass(theta, confirming)
        if r.L > 0.0:
            hi, hi_checked = theta, True
        else:
            lo = theta
        step = -r.L / r.dL_dtheta if r.dL_dtheta > 0.0 else math.nan
        if abs(r.L) <= tol and abs(step) <= 1e-15 * theta:
            if r.I2 is None:
                r = converged_pass(theta, True)
            _check_I2_bound(alpha, r, qtol)
            return r
        if lo == hi:
            # L(hi) <= 0: the root lies closer to theta_plus
            if gap <= 1e-9:
                raise BracketError(
                    f"L must change sign on [0, {hi}] for alpha={alpha}; "
                    f"got L({hi})={r.L}")
            gap *= 0.1
            hi = tp - gap
        last = theta
        theta += step
        if not lo < theta < hi:
            theta = 0.5 * (lo + hi) if hi_checked else hi
        # Newton converges quadratically, so after a move this small the
        # next pass most likely confirms the root and carries the constant
        # rows.  They take part in the convergence test; on an earlier pass
        # they could stop its ladder at another level and move the later
        # iterates, so off the table the roots stay those of the tanh
        # start.
        confirming = abs(theta - last) <= _CONFIRM_STEP * theta
    raise BracketError(
        f"root search stalled: |L(alpha, theta)| = {abs(r.L)} at "
        f"theta = {theta} after {_NEWTON_MAXITER} steps")
