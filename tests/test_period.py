import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import nilcat.catenoid as cat_mod
import oracles
from nilcat import AnnulusParams, BracketError, DomainError, QuadratureError
from nilcat import cli, period
from nilcat.period import L_integral, appendix_I_decomposition, find_theta_tilde
from nilcat.profile import solve_profile

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
        tt = find_theta_tilde(1.0).theta
        assert tt == pytest.approx(THETA_TILDE_1, abs=1e-9)
        assert abs(L_integral(AnnulusParams(1.0, tt)).L) <= 1e-10

    @pytest.mark.parametrize(
        "alpha", [0.2, 0.35, 0.5, 1.0, 2.0, 4.0, 10.0, 30.0, 100.0])
    def test_root_residual(self, alpha):
        tt = find_theta_tilde(alpha).theta
        assert 0.0 < tt < min(AnnulusParams(alpha, 0.0).theta_plus, math.pi / 4)
        got = L_integral(AnnulusParams(alpha, tt))
        assert got.converged
        assert abs(got.L) <= 1e-10
        assert abs(oracles.L_riemann(alpha, tt, n=10 ** 5)) <= 1e-12

    def test_small_alpha_bracket(self):
        # theta_plus(0.5) = arccos(1/2)/2 = pi/6 bounds the root
        assert AnnulusParams(0.5, 0.0).theta_plus == pytest.approx(math.pi / 6)
        assert 0.0 < find_theta_tilde(0.5).theta < math.pi / 6

    def test_large_alpha_limit(self):
        assert abs(find_theta_tilde(100.0).theta - math.pi / 4) <= 1e-3

    def test_distance_to_pi_quarter_decreasing(self):
        gaps = [math.pi / 4 - find_theta_tilde(a).theta
            for a in (5, 10, 20, 50, 100)]
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

    @pytest.mark.parametrize("alpha, bad", [
        (0.005, 0), (0.005, 1), (0.005, 3), (1500.0, 2), (1.0, 0), (1.0, 1)],
        ids=["first", "middle", "final", "constants", "table-first",
             "table-final"])
    def test_unconverged_quadrature_raises(self, monkeypatch, alpha, bad):
        # alpha 0.005 lies below the start table: four Newton passes from
        # (pi/4) tanh(1.0612 alpha), the last, after a step below 1e-8
        # theta, with the constant rows.  At alpha 1500 the step before the
        # confirming pass is larger, so the constants take a pass of their
        # own at the root.  alpha 1 takes two passes from the table, the
        # second with the constant rows.  An unconverged pass raises at
        # once, and no pass is made after it
        calls = []

        def counting(params, tol=period.DEFAULT_QUAD_TOL, constants=False):
            calls.append((params.theta, constants))
            return L_integral(params, tol=tol, constants=constants)

        monkeypatch.setattr(period, "L_integral", counting)
        root = find_theta_tilde(alpha).theta
        passes = list(calls)
        assert [c for _, c in passes] == {
            0.005: [False] * 3 + [True], 1500.0: [False, False, True],
            1.0: [False, True]}[alpha]
        assert passes[-1] == (root, True)
        assert (passes[-2][0] == root) == (alpha == 1500.0)
        calls.clear()

        def flaky(params, tol=period.DEFAULT_QUAD_TOL, constants=False):
            r = counting(params, tol=tol, constants=constants)
            if len(calls) > bad:
                r = dataclasses.replace(r, converged=False)
            return r

        monkeypatch.setattr(period, "L_integral", flaky)
        with pytest.raises(QuadratureError):
            find_theta_tilde(alpha)
        assert calls == passes[:bad + 1]

    def test_no_sign_change_raises(self, monkeypatch):
        # a converged pass whose L stays negative up to theta_plus: the
        # upper end moves toward theta_plus until 1e-9 from it, then
        # BracketError
        thetas = []

        def negative(params, tol=period.DEFAULT_QUAD_TOL, constants=False):
            thetas.append(params.theta)
            return period.PeriodIntegrals(
                L=-math.pi, quadrature_error_estimate=0.0, converged=True,
                dL_dtheta=1.0, theta=params.theta)

        monkeypatch.setattr(period, "L_integral", negative)
        with pytest.raises(BracketError):
            find_theta_tilde(0.5)
        tp = AnnulusParams(0.5, 0.0).theta_plus
        assert tp - 1.01e-9 < max(thetas) < tp


def _counted(monkeypatch):
    """A list that collects the `constants` flag of every L_integral pass."""
    calls = []

    def counting(*args, constants=False, **kwargs):
        calls.append(constants)
        return L_integral(*args, constants=constants, **kwargs)

    monkeypatch.setattr(period, "L_integral", counting)
    return calls


def _passes(monkeypatch, alpha):
    """The number of L_integral passes find_theta_tilde makes at alpha."""
    calls = _counted(monkeypatch)
    find_theta_tilde(alpha)
    monkeypatch.undo()
    return len(calls)


# find_theta_tilde as Brent's method on a sign-checked bracket returned it
# (xtol 1e-15), before the Newton search replaced it
FROZEN_ROOTS = [
    (0.005, 0.004167687091201713),
    (0.05, 0.04161840021722965),
    (0.2, 0.1641629346448327),
    (0.5, 0.38495367935319685),
    (1 / math.sqrt(2), 0.5040793472922025),
    (1.0, 0.6157824788316721),
    (3.0, 0.7645955373808805),
    (30.0, 0.7851898300949256),
    (1000.0, 0.7853979758974483),
]


class TestNewtonRoot:
    @pytest.mark.parametrize("alpha", [0.005, 0.2, 1.0, 10.0, 1000.0])
    def test_slope_matches_central_difference(self, alpha):
        top = min(AnnulusParams(alpha, 0.0).theta_plus, math.pi / 4)
        for theta in (0.1 * top, 0.5 * top, 0.9 * top):
            got = L_integral(AnnulusParams(alpha, theta))
            split = L_integral(AnnulusParams(alpha, theta), split=True)
            assert got.converged and split.dL_dtheta == got.dL_dtheta
            fd = oracles.fd1_5pt(
                lambda t: L_integral(AnnulusParams(alpha, t)).L, theta,
                1e-3 * theta)
            assert abs(got.dL_dtheta - fd) <= 1e-7 * abs(fd)

    def test_at_most_four_passes(self, monkeypatch):
        # a work counter, not a timing: the start (pi/4) tanh(1.0612 alpha)
        # and the exact slope leave Brent's 7.6 passes a root behind
        alphas = list(np.geomspace(0.005, 1000.0, 100)) \
            + [1 / math.sqrt(2), 1.0, 1.0 + 1e-9]
        counts = [_passes(monkeypatch, a) for a in alphas]
        assert max(counts) <= 4
        assert sum(counts[:100]) <= 350

    @pytest.mark.parametrize("alpha, frozen", FROZEN_ROOTS)
    def test_root_near_frozen_brent_root(self, alpha, frozen):
        root = find_theta_tilde(alpha).theta
        r_new = L_integral(AnnulusParams(alpha, root))
        assert r_new.converged and abs(r_new.L) <= period.DEFAULT_ROOT_TOL
        if alpha > 0.01:
            assert abs(root - frozen) <= 4 * math.ulp(frozen)
        else:
            # Brent stopped within its absolute xtol = 1e-15, about 1150
            # ulp of theta there, and left |L| = 6.6e-14; Newton goes on
            # until its step is below 1e-15 theta
            r_old = L_integral(AnnulusParams(alpha, frozen))
            assert abs(root - frozen) <= 1e-15
            assert abs(r_new.L) <= 1e-2 * abs(r_old.L)


# roots and Newton pass counts off the start table as the search returned
# them before the table, from the (pi/4) tanh(1.0612 alpha) start
OFF_TABLE_ROOTS = [
    (0.001, "0x1.b505eff695cc6p-11", 4),
    (0.002, "0x1.b505980f7a023p-10", 4),
    (0.00338, "0x1.7147e91b30e2ep-9", 4),
    (0.005, "0x1.11222fc1b550dp-8", 4),
    (0.0099, "0x1.0e630748fb7dfp-7", 3),
    (1500.0, "0x1.921fb2786ee16p-1", 2),
    (2e4, "0x1.921fb5403c06cp-1", 2),
    (1e5, "0x1.921fb54419963p-1", 2),
]


class TestStartTable:
    """The Newton start on [0.01, 1000] is a Chebyshev table, close enough
    to the root that one step and the confirming pass find it; the
    constants ride on that confirming pass.  Pass counts are work
    counters, not timings."""

    def test_start_error(self):
        alphas = np.geomspace(0.01, 1000.0, 1000)
        err = [abs(period._newton_start(a) / find_theta_tilde(a).theta - 1)
               for a in alphas]
        assert max(err) <= 1e-8

    def test_coefficients_rebuild_from_roots(self):
        got = oracles.theta_start_coefficients()
        assert len(got) == len(period._START_COEFFS) == 40
        assert np.max(np.abs(got - np.array(period._START_COEFFS))) <= 1e-12

    def test_two_passes_per_root(self, monkeypatch):
        calls = _counted(monkeypatch)
        for alpha in np.geomspace(0.01, 1000.0, 200):
            calls.clear()
            find_theta_tilde(alpha)
            assert calls == [False, True], alpha

    def test_solve_period_two_passes_per_alpha(self, tmp_path, monkeypatch):
        def no_decomposition(*args, **kwargs):
            raise AssertionError("appendix_I_decomposition called")

        monkeypatch.setattr(period, "appendix_I_decomposition",
                            no_decomposition)
        calls = _counted(monkeypatch)
        assert cli.main(["solve-period", "--alpha-sweep", "0.2:100:12",
                         "--format", "csv",
                         "--out", str(tmp_path / "s.csv")]) == 0
        assert calls == [False, True] * 12

    @pytest.mark.parametrize("alpha, root, newton", OFF_TABLE_ROOTS)
    def test_off_table_search_unchanged(self, monkeypatch, alpha, root,
                                        newton):
        # below 0.01 and above 1000 the roots are those from before the
        # table, to the bit.  The constants ride on the last Newton pass or
        # take one pass of their own at the root: no more passes than
        # solve-period made with its separate appendix_I_decomposition pass
        calls = _counted(monkeypatch)
        r = find_theta_tilde(alpha)
        assert r.theta.hex() == root
        assert newton <= len(calls) <= newton + 1
        assert calls == [False] * (len(calls) - 1) + [True]

    @pytest.mark.parametrize("alpha", [0.00338, 0.0099, 0.5, 30.0, 1500.0])
    def test_one_root_per_alpha(self, monkeypatch, capsys, alpha):
        # solve-period reports the root the catenoid is built on
        class Stop(Exception):
            pass

        thetas = []

        def stop(params):
            thetas.append(params.theta)
            raise Stop

        monkeypatch.setattr(cat_mod, "solve_profile", stop)
        with pytest.raises(Stop):
            cat_mod.build_catenoid(alpha)
        assert cli.main(["solve-period", "--alpha", repr(alpha)]) == 0
        assert json.loads(capsys.readouterr().out)["theta_tilde"] \
            == thetas[0]

    def test_folded_constants_equal_decomposition(self, monkeypatch):
        # the constants of find_theta_tilde are appendix_I_decomposition's
        # at the returned theta, bit for bit.  Against the pass without
        # the slope row, which gave them before, they are identical where
        # both ladders stop at the same level and agree to 1e-14 relative
        # otherwise
        real = period._periodic_trapezoid
        seen = []

        def recording(rows, tol):
            seen.append((rows, tol))
            return real(rows, tol)

        monkeypatch.setattr(period, "_periodic_trapezoid", recording)
        same = 0
        alphas = np.geomspace(0.005, 2000.0, 80)
        for alpha in alphas:
            r = find_theta_tilde(alpha)
            rows, tol = seen[-1]
            assert r.converged
            assert appendix_I_decomposition(alpha, r.theta) == r
            got = [r.I1, r.I2, r.I3, r.U, r.betaU, r.GU]
            _, level = oracles.ladder_levels(rows, tol)
            (L, *old), old_level = oracles.ladder_levels(
                oracles.appendix_rows(alpha, r.theta), tol)
            if level == old_level:
                same += 1
                assert [r.L] + got == [float(L)] + [float(v) for v in old]
            else:
                assert abs(r.L - L) <= 1e-14
                for mine, ref in zip(got, old):
                    assert abs(mine - ref) <= 1e-14 * abs(ref)
        assert same >= 0.9 * len(alphas)


class TestAppendixDecomposition:
    def test_identity_at_root(self):
        alpha = 10.0
        tt = find_theta_tilde(alpha).theta
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
            tt = find_theta_tilde(alpha).theta
            d = appendix_I_decomposition(alpha, tt)
            s = math.sqrt(alpha ** 2 + 1)
            assert d.I2 >= math.pi * alpha ** 2 / (s * (alpha + s))

    @pytest.mark.parametrize(
        "alpha", [0.02, 0.05, 0.2, 0.7, 1.0, 3.0, 10.0, 100.0])
    def test_period_constants_against_simpson_oracle(self, alpha):
        # the Simpson oracles sit on smooth periodic integrands too, so 1e4
        # intervals already reach roundoff
        tt = find_theta_tilde(alpha).theta
        d = appendix_I_decomposition(alpha, tt)
        assert d.converged
        for mine, oracle in ((d.U, oracles.u_period),
                             (d.betaU, oracles.beta_period),
                             (d.GU, oracles.G_period)):
            assert abs(mine - oracle(alpha, tt, n=10 ** 4)) <= 1e-12
        C = math.sin(2 * tt) / (2 * alpha)
        assert abs(alpha * d.GU + C * d.betaU - d.L) <= 1e-12

    def test_tail_integrals_quadratic_decay(self):
        # I1 ~ pi / (8 alpha^2) and I3 ~ pi / (16 alpha^2) at the root, so
        # K = 1 has ample headroom
        K = 1.0
        alpha = 100.0
        d = appendix_I_decomposition(alpha, find_theta_tilde(alpha).theta)
        assert d.I1 <= K / alpha ** 2
        assert d.I3 <= K / alpha ** 2


def _packs():
    """(alpha, theta) packs from theta = 0 to the admissibility boundary,
    alpha log-spaced in [0.005, 1000]; the top pack is 1e-9 inside."""
    packs = []
    for alpha in np.geomspace(0.005, 1000.0, 40):
        tp = AnnulusParams(alpha, 0.0).theta_plus
        packs += [(alpha, f * tp) for f in (0.0, 0.3, 0.6, 0.9)]
        packs += [(alpha, tp - 1e-5), (alpha, tp - 1e-9)]
    return packs + [(0.7, AnnulusParams(0.7, 0.0).theta_plus - 1e-6)]


def _bits(result):
    integrals, err, ok = result
    return integrals.shape, integrals.tobytes(), err.hex(), ok


class TestLadder:
    """The period rule on its shared node table returns what the ladder
    without it returned (`oracles.periodic_trapezoid`), bit for bit."""

    def test_identical_to_oracle(self, monkeypatch):
        real = period._periodic_trapezoid
        seen, sizes = [], []

        def both(rows, tol):
            def counted(x2):
                sizes.append(len(x2))
                return rows(x2)

            new = real(rows, tol)
            seen.append((_bits(new),
                         _bits(oracles.periodic_trapezoid(counted, tol))))
            return new

        monkeypatch.setattr(period, "_periodic_trapezoid", both)
        packs = _packs()
        assert len(packs) >= 200
        for alpha, theta in packs:
            params = AnnulusParams(alpha, theta)
            L_integral(params)
            L_integral(params, split=True)
            appendix_I_decomposition(alpha, theta)
        assert len(seen) == 3 * len(packs)
        assert all(new == old for new, old in seen)
        # ladders reach 2^12 nodes and more, and the last pack (alpha 0.7
        # at theta_plus - 1e-6) stops unconverged at the 2^16 cap
        assert 2 * max(sizes) == period._N_MAX
        assert [new[3] for new, _ in seen[-3:]] == [False] * 3

    @pytest.mark.parametrize("kw", [{}, {"split": True},
                                    {"constants": True}])
    def test_rows_identical_to_oracle_rows(self, kw):
        # the rows written into one block per pass give the bits of the
        # rows formed one array each and stacked
        names = ("L", "dL_dtheta") + (("L1", "L2") if "split" in kw else ()) \
            + (period._CONSTANTS if "constants" in kw else ())
        tol = period.DEFAULT_QUAD_TOL
        converged = []
        for alpha, theta in _packs():
            r = L_integral(AnnulusParams(alpha, theta), **kw)
            vals, err, ok = oracles.periodic_trapezoid(
                oracles.period_rows(alpha, theta, **kw), tol)
            assert [getattr(r, k).hex() for k in names] \
                == [float(v).hex() for v in vals], (alpha, theta)
            assert r.quadrature_error_estimate.hex() == err.hex()
            assert r.converged == ok
            converged.append(ok)
        # the last pack stops unconverged at the 2^16 cap
        assert not converged[-1] and sum(converged) >= 200

    def test_root_identical_to_oracle_driven_root(self, monkeypatch):
        alphas = np.geomspace(0.005, 1000.0, 100)
        roots = [find_theta_tilde(a).theta for a in alphas]
        monkeypatch.setattr(period, "_periodic_trapezoid",
                            oracles.periodic_trapezoid)
        assert [r.hex() for r in roots] \
            == [find_theta_tilde(a).theta.hex() for a in alphas]


@pytest.fixture
def empty_table():
    """Empty the node table for one test and put it back after; the
    table is the one element of its holder, so only that element moves."""
    holder = period._NODE_TABLE
    table, holder[0] = holder[0], np.empty(0)
    yield
    holder[0] = table


@pytest.mark.usefixtures("empty_table")
class TestNodeTable:
    def test_levels_are_the_ladders_nodes(self):
        x2 = period._ladder_nodes(period._N_MAX)
        n = period._N_START
        h = math.pi / n
        assert x2[:n].tobytes() == (np.cos(np.arange(n) * h) ** 2).tobytes()
        while n < period._N_MAX:
            mid = np.cos((np.arange(n) + 0.5) * h) ** 2
            assert x2[n:2 * n].tobytes() == mid.tobytes(), n
            n, h = 2 * n, 0.5 * h
        assert len(x2) == period._N_MAX

    def test_grows_lazily_to_the_cap(self):
        L_integral(AnnulusParams(1.0, 0.3))
        assert len(period._NODE_TABLE[0]) == period._N_FIRST
        for alpha in np.geomspace(0.2, 100.0, 200):
            appendix_I_decomposition(alpha, find_theta_tilde(alpha).theta)
        assert len(period._NODE_TABLE[0]) == 256
        for alpha in np.geomspace(0.005, 1000.0, 200):
            find_theta_tilde(alpha)
        assert len(period._NODE_TABLE[0]) == 8192
        r = L_integral(AnnulusParams(0.7, AnnulusParams(0.7, 0.0).theta_plus
                                     - 1e-6))
        assert not r.converged
        assert len(period._NODE_TABLE[0]) == period._N_MAX
        table = period._NODE_TABLE[0]
        period._ladder_nodes(period._N_MAX)
        assert period._NODE_TABLE[0] is table

    def test_growing_rebinds_no_module_attribute(self):
        # a tracer that wraps the module's functions and puts them back
        # checks that every attribute is the object it was before
        period._ladder_nodes(period._N_FIRST)
        before = dict(vars(period))
        r = L_integral(AnnulusParams(0.7, AnnulusParams(0.7, 0.0).theta_plus
                                     - 1e-6))
        assert len(period._NODE_TABLE[0]) == period._N_MAX > period._N_FIRST
        assert not r.converged
        after = dict(vars(period))
        assert after.keys() == before.keys()
        assert [k for k, v in before.items() if after[k] is not v] == []

    def test_threads_racing_to_grow_it(self):
        alphas = np.geomspace(0.005, 1000.0, 32)
        want = [find_theta_tilde(a).theta.hex() for a in alphas]
        period._NODE_TABLE[0] = np.empty(0)
        got = {}

        def work(i):
            got[i] = [find_theta_tilde(a).theta.hex()
                      for a in alphas[i::4]]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [got[i] for i in range(4)] == [want[i::4] for i in range(4)]
        table, period._NODE_TABLE[0] = period._NODE_TABLE[0], np.empty(0)
        assert table.tobytes() == period._ladder_nodes(len(table)).tobytes()


class TestSolvePeriodCommand:
    def _count_profile_builds(self, monkeypatch, *argv):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve_profile(*args, **kwargs)

        monkeypatch.setattr(cat_mod, "solve_profile", counting)
        assert cli.main(list(argv)) == 0
        return len(calls)

    def test_no_dense_profile(self, tmp_path, monkeypatch):
        assert self._count_profile_builds(
            monkeypatch, "solve-period", "--alpha", "1.5",
            "--out", str(tmp_path / "p.json")) == 0
        assert self._count_profile_builds(
            monkeypatch, "mesh-catenoid", "--alpha", "1.5", "--nu", "16",
            "--nv", "4", "--out", str(tmp_path / "m.obj")) == 1

    def test_small_alpha(self, tmp_path):
        # the 4096-cell dense profile cannot reach its 1e-12 self-check at
        # alpha = 0.05; the period constants need none
        out = tmp_path / "p.json"
        assert cli.main(["solve-period", "--alpha", "0.05",
                         "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["V"] == -rec["betaU"] / 0.05

    def test_unconverged_pass_exits_1(self, monkeypatch, capsys):
        # the pass that carries the constants does not converge
        def unconverged(params, tol=period.DEFAULT_QUAD_TOL,
                        constants=False):
            r = L_integral(params, tol=tol, constants=constants)
            return dataclasses.replace(r, converged=not constants)

        monkeypatch.setattr(period, "L_integral", unconverged)
        assert cli.main(["solve-period", "--alpha", "1"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unsolved_theta_exits_1(self, monkeypatch, capsys):
        # a converged pass with its own constants, at half the root
        def half_root(alpha, tol):
            theta = 0.5 * find_theta_tilde(alpha, tol=tol).theta
            return L_integral(AnnulusParams(alpha, theta), constants=True)

        monkeypatch.setattr(cli, "find_theta_tilde", half_root)
        assert cli.main(["solve-period", "--alpha", "1"]) == 1
        assert "period identity defect" in capsys.readouterr().err


def _scipy_modules_after(code):
    """Names of the scipy modules loaded by a fresh interpreter that runs
    `code` after `import nilcat.cli`."""
    src = os.path.dirname(os.path.dirname(period.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, nilcat.cli\n" + code + "\nprint(sorted(m for m in "
         "sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_out_scipy_integrate():
    # the run time is numpy-only: no scipy module at all, not only
    # scipy.integrate
    assert _scipy_modules_after("") == "[]"


def test_cli_runs_leave_out_scipy(tmp_path):
    # in-process commands and the halfplane curve's tangential zero at
    # alpha = 1 (golden-section search) import nothing from scipy either
    code = (
        "from nilcat.cli import main\n"
        "from nilcat.cmc import build_cmc_annulus, halfplane_curve\n"
        f"assert main(['mesh-cmc', '--nu', '32', '--nv', '16', '--out', "
        f"{str(tmp_path / 'm.obj')!r}]) == 0\n"
        f"assert main(['limit-study', '--alpha-sweep', '0.5:2:2', '--out', "
        f"{str(tmp_path / 'l.csv')!r}]) == 0\n"
        "assert halfplane_curve(build_cmc_annulus(1.0)).tangential\n")
    assert _scipy_modules_after(code) == "[]"
