"""Brute-force oracles, independent of the library's solution paths.

Everything here uses only direct quadrature (composite Simpson, midpoint
Riemann sums on dense grids, or adaptive Gauss-Kronrod from QUADPACK) of
the printed integrands, plus bisection.  The library integrates the profile
ODE in phi with Gauss cells and evaluates the period integral with a
periodic trapezoidal rule; none of that machinery is used here, so
agreement is a genuine cross-check.
"""

import numpy as np
from scipy.integrate import quad


def P_of(alpha, theta, x):
    C = np.sin(2.0 * theta) / (2.0 * alpha)
    return alpha ** 2 + np.cos(2.0 * theta) * x * x - C ** 2 * x ** 4


def simpson(f, a, b, n):
    """Composite Simpson with n subintervals (n even)."""
    if n % 2:
        n += 1
    x = np.linspace(a, b, n + 1)
    y = f(x)
    h = (b - a) / n
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def u_period(alpha, theta, n=10 ** 6):
    """U = integral over psi in [0, pi] of 1 / sqrt(P(cos psi))."""
    return simpson(lambda s: 1.0 / np.sqrt(P_of(alpha, theta, np.cos(s))),
                   0.0, np.pi, n)


def beta_period(alpha, theta, n=10 ** 6):
    """beta(U) as the printed x-integral, substituted x = sin t."""
    C = np.sin(2.0 * theta) / (2.0 * alpha)

    def f(t):
        x = np.sin(t)
        return C * x * x / np.sqrt(P_of(alpha, theta, x))

    return simpson(f, -np.pi / 2, np.pi / 2, n)


def G_period(alpha, theta, n=10 ** 6):
    """G(U) written as the printed x-integral, substituted x = sin t."""
    C = np.sin(2.0 * theta) / (2.0 * alpha)

    def f(t):
        x = np.sin(t)
        P = P_of(alpha, theta, x)
        sq = np.sqrt(P)
        return (C ** 2 * x * x - np.cos(2.0 * theta)) / (sq * (alpha + sq))

    return simpson(f, -np.pi / 2, np.pi / 2, n)


def L_integrand_t(alpha, theta, t):
    """Period integrand after the x = sin t substitution (smooth in t)."""
    C = np.sin(2.0 * theta) / (2.0 * alpha)
    x = np.sin(t)
    P = P_of(alpha, theta, x)
    sq = np.sqrt(P)
    num = 2.0 * alpha * C ** 2 * x * x - alpha * np.cos(2.0 * theta) \
        + C ** 2 * x * x * sq
    return num / (sq * (alpha + sq))


def L_simpson(alpha, theta, n=10 ** 6):
    return simpson(lambda t: L_integrand_t(alpha, theta, t),
                   -np.pi / 2, np.pi / 2, n)


def L_riemann(alpha, theta, n=10 ** 6):
    """Midpoint Riemann sum of the t-substituted period integrand."""
    t = (np.arange(n) + 0.5) / n * np.pi - np.pi / 2
    return L_integrand_t(alpha, theta, t).sum() * np.pi / n


def theta_tilde_bisect(alpha, n=10 ** 6, steps=200):
    """Root of L(alpha, .) by midpoint-Riemann L and plain bisection."""
    if alpha > 1:
        tp = np.pi / 2
    else:
        tp = 0.5 * np.arccos(1.0 - 2.0 * alpha ** 2)
    lo, hi = 0.0, min(tp - 1e-9, np.pi / 4)
    flo = L_riemann(alpha, lo, n)
    fhi = L_riemann(alpha, hi, n)
    assert flo < 0 < fhi, (flo, fhi)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if L_riemann(alpha, mid, n) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _quad(f):
    val, _err = quad(f, -np.pi / 2, np.pi / 2, epsabs=1e-14, epsrel=1e-13,
                     limit=500)
    return val


def L_quad(alpha, theta):
    """L(alpha, theta) by adaptive Gauss-Kronrod in t."""
    return _quad(lambda t: L_integrand_t(alpha, theta, t))


def I_quad(alpha, theta):
    """(I1, I2, I3) by adaptive Gauss-Kronrod in t."""
    return tuple(_quad(f) for f in _I_integrands(alpha, theta))


def _I_integrands(alpha, theta):
    C = np.sin(2.0 * theta) / (2.0 * alpha)

    def mk(kind):
        def f(t):
            x = np.sin(t)
            P = P_of(alpha, theta, x)
            sq = np.sqrt(P)
            if kind == 1:
                return 2.0 * alpha ** 2 * C ** 2 * x * x / (sq * (alpha + sq))
            if kind == 2:
                return alpha ** 2 / (sq * (alpha + sq))
            return alpha * C ** 2 * x * x / (alpha + sq)
        return f

    return [mk(k) for k in (1, 2, 3)]


def I_split(alpha, theta, n=10 ** 6):
    """The three asymptotic integrals, by direct Simpson in t."""
    return tuple(simpson(f, -np.pi / 2, np.pi / 2, n)
                 for f in _I_integrands(alpha, theta))


def fd1_5pt(f, x, h):
    """5-point first derivative."""
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


def fd2_5pt(f, x, h):
    """5-point second derivative."""
    return (-f(x - 2 * h) + 16 * f(x - h) - 30 * f(x)
            + 16 * f(x + h) - f(x + 2 * h)) / (12 * h * h)
