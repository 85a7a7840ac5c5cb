import dataclasses
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import oracles
from nilcat import AnnulusParams, DomainError, QuadratureError
from nilcat import period
from nilcat.period import L_integral, appendix_I_decomposition, find_theta_tilde

from test_profile import THETA_TILDE_1


class TestLIntegral:
    def test_negative_at_theta_zero(self):
        for a in (0.5, 1.0, 2.0, 5.0):
            assert L_integral(AnnulusParams(a, 0.0)).L < 0

    def test_positive_near_pi_quarter(self):
        # for alpha > 1/sqrt(2) the integrand at theta = pi/4 is positive
        assert L_integral(AnnulusParams(1.0, math.pi / 4 - 1e-6)).L > 0

    def test_against_simpson_oracle(self):
        got = L_integral(AnnulusParams(2.0, 0.2))
        assert got.converged
        assert got.L == pytest.approx(-0.658812666533056, abs=1e-9)
        assert got.L == pytest.approx(oracles.L_simpson(2.0, 0.2), abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.2, 0.7, 1.0, 3.0, 100.0])
    @pytest.mark.parametrize("frac", [0.0, 0.3, 0.6, 0.9, 0.99])
    def test_against_quad_oracle(self, alpha, frac):
        theta = frac * min(AnnulusParams(alpha, 0.0).theta_plus, math.pi / 4)
        got = L_integral(AnnulusParams(alpha, theta), split=True)
        d = appendix_I_decomposition(alpha, theta)
        assert got.converged and d.converged
        L = oracles.L_quad(alpha, theta)
        assert abs(got.L - L) <= 1e-12
        assert abs(got.L1 + got.L2 - L) <= 1e-12
        assert abs(d.L - L) <= 1e-12
        for mine, ref in zip((d.I1, d.I2, d.I3),
                             oracles.I_quad(alpha, theta)):
            assert abs(mine - ref) <= 1e-12

    def test_split_sums_to_L(self):
        got = L_integral(AnnulusParams(0.8, 0.3), split=True)
        assert got.L1 < 0
        assert got.L1 + got.L2 == pytest.approx(got.L, abs=1e-10)

    def test_monotone_in_theta(self):
        for a in (0.5, 1.0, 3.0):
            hi = min(AnnulusParams(a, 0.0).theta_plus - 1e-6, math.pi / 4)
            ladder = np.linspace(0.0, hi, 12)
            vals = [L_integral(AnnulusParams(a, t)).L for t in ladder]
            assert np.all(np.diff(vals) > 0)

    def test_out_of_omega_raises(self):
        with pytest.raises(DomainError):
            L_integral(AnnulusParams(0.5, 1.0))


class TestFindThetaTilde:
    def test_alpha_one_matches_riemann_oracle(self):
        # fixture from oracles.theta_tilde_bisect(1.0): 200-step bisection on
        # a 1e6-point midpoint-Riemann evaluation of L
        tt = find_theta_tilde(1.0)
        assert tt == pytest.approx(THETA_TILDE_1, abs=1e-9)
        assert abs(L_integral(AnnulusParams(1.0, tt)).L) <= 1e-10

    @pytest.mark.parametrize(
        "alpha", [0.2, 0.35, 0.5, 1.0, 2.0, 4.0, 10.0, 30.0, 100.0])
    def test_root_residual(self, alpha):
        tt = find_theta_tilde(alpha)
        assert 0.0 < tt < min(AnnulusParams(alpha, 0.0).theta_plus, math.pi / 4)
        got = L_integral(AnnulusParams(alpha, tt))
        assert got.converged
        assert abs(got.L) <= 1e-10
        assert abs(oracles.L_riemann(alpha, tt, n=10 ** 5)) <= 1e-12

    def test_small_alpha_bracket(self):
        # theta_plus(0.5) = arccos(1/2)/2 = pi/6 bounds the root
        assert AnnulusParams(0.5, 0.0).theta_plus == pytest.approx(math.pi / 6)
        assert 0.0 < find_theta_tilde(0.5) < math.pi / 6

    def test_large_alpha_limit(self):
        assert abs(find_theta_tilde(100.0) - math.pi / 4) <= 1e-3

    def test_distance_to_pi_quarter_decreasing(self):
        gaps = [math.pi / 4 - find_theta_tilde(a) for a in (5, 10, 20, 50, 100)]
        assert all(g > 0 for g in gaps)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_bad_alpha(self):
        with pytest.raises(DomainError):
            find_theta_tilde(-1.0)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_non_finite_alpha(self, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                find_theta_tilde(alpha)

    @pytest.mark.parametrize("good_calls", [0, 1, 2])
    def test_unconverged_quadrature_raises(self, monkeypatch, good_calls):
        # good_calls = 0, 1: a bracket value is unconverged; 2: a value
        # inside the bracket, since brentq's bracket ends come from the cache
        calls = []

        def flaky(params, tol=period.DEFAULT_QUAD_TOL):
            r = L_integral(params, tol=tol)
            calls.append(params.theta)
            if len(calls) > good_calls:
                r = dataclasses.replace(r, converged=False)
            return r

        monkeypatch.setattr(period, "L_integral", flaky)
        with pytest.raises(QuadratureError):
            find_theta_tilde(1.0)
        assert len(calls) == good_calls + 1
        if good_calls == 2:
            assert calls[0] < calls[2] < calls[1]


class TestAppendixDecomposition:
    def test_identity_at_root(self):
        alpha = 10.0
        tt = find_theta_tilde(alpha)
        d = appendix_I_decomposition(alpha, tt)
        assert abs(d.I1 - math.cos(2 * tt) * d.I2 + d.I3) <= 1e-8

    def test_identity_equals_alpha_L_off_root(self):
        alpha, theta = 3.0, 0.31
        d = appendix_I_decomposition(alpha, theta)
        assert d.I1 - math.cos(2 * theta) * d.I2 + d.I3 == pytest.approx(
            alpha * d.L, abs=1e-10)

    def test_against_simpson_oracle(self):
        d = appendix_I_decomposition(2.0, 0.5)
        o1, o2, o3 = oracles.I_split(2.0, 0.5, n=10 ** 5)
        assert d.I1 == pytest.approx(o1, abs=1e-9)
        assert d.I2 == pytest.approx(o2, abs=1e-9)
        assert d.I3 == pytest.approx(o3, abs=1e-9)

    def test_I2_lower_bound(self):
        for alpha in (1.0, 10.0, 100.0):
            tt = find_theta_tilde(alpha)
            d = appendix_I_decomposition(alpha, tt)
            s = math.sqrt(alpha ** 2 + 1)
            assert d.I2 >= math.pi * alpha ** 2 / (s * (alpha + s))

    def test_tail_integrals_quadratic_decay(self):
        # I1 ~ pi / (8 alpha^2) and I3 ~ pi / (16 alpha^2) at the root, so
        # K = 1 has ample headroom
        K = 1.0
        alpha = 100.0
        d = appendix_I_decomposition(alpha, find_theta_tilde(alpha))
        assert d.I1 <= K / alpha ** 2
        assert d.I3 <= K / alpha ** 2


def test_cli_import_leaves_out_scipy_integrate():
    src = os.path.dirname(os.path.dirname(period.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, nilcat.cli; print('scipy.integrate' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
