"""Bracketed root finding and golden-section minimisation in pure Python.

`brentq` follows scipy's `brentq.c` (Brent, *Algorithms for Minimization
without Derivatives*, 1973, ch. 4) statement for statement, with the same
defaults (xtol = 2e-12, rtol = 4 eps, 100 iterations), so it takes the same
iterates and returns the same root to the last bit.  `golden_min` follows
scipy's golden-section search on a three-point bracket.
"""

from __future__ import annotations

import math

from .errors import BracketError

# scipy's default and least relative tolerance: 4 eps
RTOL = 4 * 2.220446049250313e-16


def brentq(f, a: float, b: float, xtol: float = 2e-12,
           maxiter: int = 100) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    Stops when the bracket half-width falls below (xtol + RTOL |x|) / 2.
    Raises BracketError when f(a) and f(b) share a sign, f returns NaN, or
    maxiter iterations do not converge.
    """
    if xtol <= 0:
        raise ValueError(f"xtol must be positive, got {xtol}")

    def fx(x):
        y = float(f(x))
        if math.isnan(y):
            raise BracketError(f"f({x}) is NaN; the root search cannot go on")
        return y

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise BracketError(f"f({a}) = {fpre} and f({b}) = {fcur} must "
                           f"differ in sign")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fx(xcur)
    raise BracketError(f"no convergence in {maxiter} iterations; last "
                       f"iterate {xcur}")


_GR = 0.61803399  # golden ratio conjugate, as in scipy
_GC = 1.0 - _GR
_GOLDEN_MAXITER = 5000


def golden_min(f, xa: float, xb: float, xc: float,
               xtol: float) -> tuple[float, float]:
    """(x, f(x)) at a local minimum of f inside the bracket xa < xb < xc.

    Golden-section search; stops when the bracket is shorter than xtol
    times |x1| + |x2|, its two interior points, or after 5000 steps.
    """
    if xa > xc:
        xa, xc = xc, xa
    if not xa < xb < xc:
        raise ValueError(f"bracket ({xa}, {xb}, {xc}) is not ordered")
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1, x2 = xb, xb + _GC * (xc - xb)
    else:
        x1, x2 = xb - _GC * (xb - xa), xb
    f1, f2 = f(x1), f(x2)
    for _ in range(_GOLDEN_MAXITER):
        if abs(x3 - x0) <= xtol * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            x0, x1, x2 = x1, x2, _GR * x2 + _GC * x3
            f1, f2 = f2, f(x2)
        else:
            x3, x2, x1 = x2, x1, _GR * x1 + _GC * x0
            f2, f1 = f1, f(x1)
    return (x1, f1) if f1 < f2 else (x2, f2)
