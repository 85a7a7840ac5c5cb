"""The in-house root finder and golden-section search against scipy's."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq
from scipy.optimize import minimize_scalar

from nilcat.errors import BracketError
from nilcat.roots import brentq, golden_min


def _recording(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


def _cases():
    rng = np.random.default_rng(5)
    for _ in range(60):
        r, w = rng.uniform(-2, 2), rng.uniform(0.2, 3)
        yield (lambda x, r=r, w=w: (x - r) * (1 + 0.4 * math.sin(w * x)),
               r - rng.uniform(0.01, 3), r + rng.uniform(0.01, 3))
        yield (lambda x, r=r, w=w: math.tanh(w * (x - r)),
               r - rng.uniform(0.01, 3), r + rng.uniform(0.01, 3))
        yield (lambda x, r=r: (x - r) ** 3 + 1e-3 * (x - r),
               r - rng.uniform(0.01, 3), r + rng.uniform(0.01, 3))


@pytest.mark.parametrize("kwargs", [{}, {"xtol": 1e-15},
                                    {"xtol": 1e-15, "maxiter": 200}])
def test_brentq_takes_scipys_iterates(kwargs):
    for f, a, b in _cases():
        g, mine = _recording(f)
        h, ref = _recording(f)
        assert brentq(g, a, b, **kwargs) == scipy_brentq(h, a, b, **kwargs)
        assert mine == ref


def test_brentq_endpoint_root_and_errors():
    assert brentq(lambda x: x, 0.0, 1.0) == 0.0
    with pytest.raises(BracketError):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(BracketError):
        brentq(lambda x: math.nan if x > 0.1 else -1.0, 0.0, 1.0)
    with pytest.raises(BracketError):
        brentq(lambda x: math.exp(x) - 1.5, 0.0, 1.0, maxiter=2)
    with pytest.raises(ValueError):
        brentq(lambda x: x, -1.0, 1.0, xtol=0.0)


def test_golden_min_matches_scipy():
    rng = np.random.default_rng(6)
    for _ in range(50):
        r, w = rng.uniform(-2, 2), rng.uniform(0.5, 3)

        def f(t, r=r, w=w):
            return abs(w * (t - r) ** 2 + 1e-3 * (t - r) ** 3)

        a, c = r - rng.uniform(0.01, 1), r + rng.uniform(0.01, 1)
        b = r + rng.uniform(-0.005, 0.005)
        ref = minimize_scalar(f, bracket=(a, b, c), method="golden",
                              options={"xtol": 1e-13})
        assert golden_min(f, a, b, c, xtol=1e-13) == (ref.x, ref.fun)
