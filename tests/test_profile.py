import math

import numpy as np
import pytest

import oracles
from nilcat import (
    AnnulusParams,
    DomainError,
    ResolutionError,
    build_cmc_annulus,
    build_helicoid,
    conjugate_profile,
    identity_residuals,
    quartic_P,
    solve_profile,
    theta_plus,
)
from nilcat.meshes import csv_text
from nilcat.period import L_integral
from nilcat.profile import TOL, Profile

# Oracle fixture: 200-step bisection on a 1e6-point midpoint-Riemann period
# integral (oracles.theta_tilde_bisect(1.0)), frozen here because the full
# run takes seconds.
THETA_TILDE_1 = 0.6157824788316721


class TestThetaPlus:
    def test_above_one(self):
        assert theta_plus(2.0) == math.pi / 2

    def test_at_one(self):
        # arccos(-1) = pi forces the same value as the alpha > 1 branch
        assert theta_plus(1.0) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_inv_sqrt2(self):
        assert theta_plus(1 / math.sqrt(2)) == pytest.approx(math.pi / 4, abs=1e-15)

    def test_continuity_at_one(self):
        assert abs(theta_plus(1 - 1e-9) - theta_plus(1 + 1e-9)) < 1e-4

    def test_nonpositive_alpha(self):
        with pytest.raises(DomainError):
            theta_plus(0.0)
        with pytest.raises(DomainError):
            theta_plus(-1.0)


class TestQuarticP:
    def test_theta_zero(self):
        # P reduces to alpha^2 + x^2 when theta = 0
        p = AnnulusParams(3.0, 0.0)
        assert quartic_P(p, 0.5) == pytest.approx(9.25, abs=1e-15)

    def test_constant_term(self):
        for a, t in [(0.7, 0.2), (2.0, -0.4), (5.0, 1.0)]:
            p = AnnulusParams(a, t)
            assert quartic_P(p, 0.0) == pytest.approx(a * a, abs=1e-14)

    def test_direct_vs_factored(self):
        # direct substitution at (1, pi/6, 1) against the factored form
        p = AnnulusParams(1.0, math.pi / 6)
        expected = 1.0 + math.cos(math.pi / 3) - math.sin(math.pi / 3) ** 2 / 4
        assert quartic_P(p, 1.0) == pytest.approx(expected, abs=1e-15)
        factored = p.C ** 2 * (p.rho_minus - 1.0) * (p.rho_plus + 1.0)
        assert factored == pytest.approx(expected, rel=1e-13)

    def test_positive_on_interval_when_admissible(self):
        x = np.linspace(-1, 1, 1001)
        for a, t in [(0.5, 0.4), (1.0, 0.7), (2.0, 1.2)]:
            p = AnnulusParams(a, t)
            assert p.in_omega
            assert np.min(quartic_P(p, x)) > 0
            # P' vanishes only at x = 0 and (when cos 2 theta > 0) at an
            # interior maximum, so the minimum sits at x = 0 or x = +-1
            ends = min(quartic_P(p, 0.0), quartic_P(p, 1.0))
            assert 0 < ends <= np.min(quartic_P(p, x))


class TestAnnulusParams:
    def test_derived_constants(self):
        p = AnnulusParams(1.3, 0.52)
        assert p.C == pytest.approx(math.sin(1.04) / 2.6, abs=1e-16)
        assert p.C ** 2 * p.rho_minus * p.rho_plus == pytest.approx(
            p.alpha ** 2, rel=1e-12)
        assert p.C ** 2 * (p.rho_minus - p.rho_plus) == pytest.approx(
            math.cos(1.04), rel=1e-12)

    @pytest.mark.parametrize("gap", [1e-9, 1e-12])
    def test_rho_next_to_theta_plus(self, gap):
        # for alpha > 1, theta_plus = pi/2 and 1 + cos 2 theta rounds to 0
        # within about 1e-8 of it; the pack is admissible and L finite
        theta = math.pi / 2 - gap
        p = AnnulusParams(2.0, theta)
        assert p.in_omega
        cos = math.pi / 2 - theta + 6.123233995736766e-17  # pi/2 - fl(pi/2)
        assert p.rho_plus == pytest.approx(4.0 / cos ** 2, rel=1e-12)
        assert p.rho_minus == pytest.approx(4.0, rel=1e-15)
        L = L_integral(p)
        assert L.converged and L.L == pytest.approx(0.8731525818926751,
                                                    rel=1e-12)

    def test_rho_undefined_at_theta_zero(self):
        p = AnnulusParams(1.0, 0.0)
        assert p.rho_minus is None and p.rho_plus is None

    def test_in_omega_boundary(self):
        assert AnnulusParams(0.5, 0.99 * theta_plus(0.5)).in_omega
        assert not AnnulusParams(0.5, 1.01 * theta_plus(0.5)).in_omega

    def test_alpha_must_be_positive(self):
        with pytest.raises(DomainError):
            AnnulusParams(0.0, 0.1)


class TestSolveProfile:
    def test_theta_zero_kills_beta(self):
        prof = solve_profile(AnnulusParams(1.0, 0.0))
        assert prof.params.C == 0.0
        u = np.linspace(-5, 5, 200)
        v = prof.eval(u)
        assert np.max(np.abs(v.beta)) == 0.0
        assert np.all(v.Gprime < 0)

    def test_midpoint_identity(self):
        prof = solve_profile(AnnulusParams(1.0, THETA_TILDE_1))
        v = prof.eval(prof.U / 2)
        assert float(v.phi) == pytest.approx(-math.pi / 2, abs=1e-12)
        assert float(v.beta) == pytest.approx(prof.betaU / 2, abs=1e-12)
        assert float(v.G) == pytest.approx(prof.GU / 2, abs=1e-12)

    def test_half_period_against_simpson_oracle(self):
        # U must equal the inverse-speed integral; 1e6-node composite Simpson
        prof = solve_profile(AnnulusParams(2.0, 0.3))
        assert prof.U == pytest.approx(1.499170008506262, abs=1e-12)
        assert prof.U == pytest.approx(oracles.u_period(2.0, 0.3), abs=1e-12)

    def test_beta_G_periods_against_oracle(self):
        prof = solve_profile(AnnulusParams(2.0, 0.3))
        assert prof.betaU == pytest.approx(oracles.beta_period(2.0, 0.3, 10 ** 5),
                                           abs=1e-10)
        assert prof.GU == pytest.approx(oracles.G_period(2.0, 0.3, 10 ** 5),
                                        abs=1e-10)

    def test_out_of_omega_raises(self):
        bad = AnnulusParams(0.5, 1.2)
        assert not bad.in_omega
        with pytest.raises(DomainError):
            solve_profile(bad)

    def test_node_cap_raises(self):
        # at alpha = 0.001 even MAX_NODES cells miss the 1e-12 dense error
        with pytest.raises(ResolutionError):
            solve_profile(AnnulusParams(0.001, 0.0))

    @pytest.mark.parametrize("alpha,nodes", [(1.0, 128), (0.1, 1024),
                                             (0.05, 2048), (0.02, 8192),
                                             (0.005, 32768)])
    def test_node_count_doubles_until_resolved(self, alpha, nodes):
        prof = solve_profile(AnnulusParams(alpha, 0.0))
        assert prof.nodes_n == nodes
        assert prof.interp_error <= 1e-12
        assert len(prof.u_nodes) == nodes + 1


class TestGridJump:
    """The jump by the n^-6 error model lands on the count plain doubling
    reaches (oracles.DoublingProfile), in fewer builds."""

    @pytest.mark.parametrize("alpha", np.geomspace(0.005, 100, 41))
    def test_same_count_as_doubling(self, alpha):
        for theta in (0.0, 0.5 * theta_plus(alpha)):
            p = AnnulusParams(alpha, theta)
            got, ref = solve_profile(p), oracles.DoublingProfile(p)
            assert got.nodes_n == ref.nodes_n
            assert got.interp_error == ref.interp_error

    @pytest.mark.parametrize("alpha", [0.0143, 0.0177])
    @pytest.mark.parametrize("frac", [0.0, 0.25, 0.5, 0.75, 0.95])
    def test_same_count_where_the_model_has_no_doubling_to_spare(self, alpha,
                                                                 frac):
        # here the n^-6 model's count was the final count, and single
        # doublings fell by 65.8x and 66.3x, faster than the model's 64x
        p = AnnulusParams(alpha, frac * theta_plus(alpha))
        got, ref = solve_profile(p), oracles.DoublingProfile(p)
        assert got.nodes_n == ref.nodes_n
        assert got.interp_error == ref.interp_error

    @pytest.mark.parametrize("alpha", [0.02, 0.005])
    def test_fewer_builds(self, monkeypatch, alpha):
        builds = []
        build = Profile._build

        def counting(self):
            builds.append(self.nodes_n)
            build(self)

        monkeypatch.setattr(Profile, "_build", counting)
        got = solve_profile(AnnulusParams(alpha, 0.0))
        monkeypatch.undo()
        ref = oracles.DoublingProfile(AnnulusParams(alpha, 0.0))
        assert builds[-1] == got.nodes_n == ref.nodes_n
        assert len(builds) < ref.builds


class TestSplineOracle:
    """The quintic Hermite profile against the cubic-spline solver it
    replaced (oracles.SplineProfile): both certify a 1e-12 dense-output
    error, so all three columns and the periods agree within TOL."""

    @pytest.mark.parametrize("alpha,theta", [(1.0, THETA_TILDE_1), (2.0, 0.3),
                                             (37.0, 0.7)])
    def test_matches_spline_oracle_within_tol(self, alpha, theta):
        p = AnnulusParams(alpha, theta)
        got = solve_profile(p)
        ref = oracles.SplineProfile(alpha, p.cos2theta, p.C)
        for a, b in [(got.U, ref.U), (got.betaU, ref.betaU), (got.GU, ref.GU)]:
            assert abs(a - b) <= TOL
        u = np.random.default_rng(7).uniform(-5 * ref.U, 5 * ref.U, 20000)
        v, (phi, beta, G) = got.eval(u), ref.eval(u)
        for a, b in [(v.phi, phi), (v.beta, beta), (v.G, G)]:
            assert np.max(np.abs(a - b)) <= TOL


class TestEllipticOracle:
    """theta = 0 profiles against Jacobi elliptic functions: the helicoid's,
    the CMC annulus's source and its conjugate, U and phi over three
    periods."""

    ALPHAS = [0.02, 0.05, 0.2, 0.7, 1.0, 3.0, 37.0, 100.0]

    @staticmethod
    def _assert_matches(prof, U, phi_of):
        assert abs(prof.U - U) <= 1e-12
        u = np.linspace(-3 * U, 3 * U, 20001)
        assert np.max(np.abs(prof.eval(u).phi - phi_of(u))) <= 1e-12

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_helicoid_and_cmc_source(self, alpha):
        U = oracles.elliptic_U(alpha)
        for prof in (build_helicoid(alpha).profile,
                     build_cmc_annulus(alpha).profile):
            self._assert_matches(prof, U,
                                 lambda u: oracles.elliptic_phi(alpha, u))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_conjugate(self, alpha):
        conj = conjugate_profile(math.sqrt(alpha ** 2 + 1.0))
        # the alpha the conjugate really solves for: alpha*^2 - 1 with the
        # rounded alpha*, formed without cancellation
        a_s = conj.params.alpha
        a = math.sqrt((a_s - 1.0) * (a_s + 1.0))
        self._assert_matches(conj, oracles.elliptic_conjugate_U(a),
                             lambda u: oracles.elliptic_conjugate_phi(a, u))


@pytest.fixture(scope="module")
def prof():
    return solve_profile(AnnulusParams(1.0, THETA_TILDE_1))


class TestEvalProfile:

    def test_initial_values(self, prof):
        p = prof.params
        v = prof.eval(0.0)
        assert float(v.phi) == 0.0 and float(v.beta) == 0.0 and float(v.G) == 0.0
        phip0 = -math.sqrt(p.alpha ** 2 + p.cos2theta - p.C ** 2)
        assert float(v.phiprime) == pytest.approx(phip0, abs=1e-15)

    def test_quasi_period_shift(self, prof):
        u = np.linspace(-7.3, 7.3, 257)
        a, b = prof.eval(u), prof.eval(u + prof.U)
        assert np.max(np.abs(b.phi - a.phi + math.pi)) < 1e-12
        assert np.max(np.abs(b.beta - a.beta - prof.betaU)) < 1e-12
        assert np.max(np.abs(b.G - a.G - prof.GU)) < 1e-12
        assert np.max(np.abs(b.phiprime - a.phiprime)) < 1e-12
        assert np.max(np.abs(b.Gprime - a.Gprime)) < 1e-12

    def test_oddness(self, prof):
        u = np.linspace(0.0, 3 * prof.U, 301)
        a, b = prof.eval(u), prof.eval(-u)
        assert np.max(np.abs(b.phi + a.phi)) < 1e-12
        assert np.max(np.abs(b.beta + a.beta)) < 1e-12
        assert np.max(np.abs(b.G + a.G)) < 1e-12
        assert np.max(np.abs(b.phiprime - a.phiprime)) < 1e-12

    def test_phiprime_negative_and_bracketed(self, prof):
        p = prof.params
        u = np.linspace(-10, 10, 2001)
        v = prof.eval(u)
        x = np.linspace(-1, 1, 4001)
        Pmax, Pmin = np.max(quartic_P(p, x)), np.min(quartic_P(p, x))
        assert np.all(v.phiprime < 0)
        assert np.all(v.phiprime >= -math.sqrt(Pmax) - 1e-12)
        assert np.all(v.phiprime <= -math.sqrt(Pmin) + 1e-12)

    def test_ode_residual_via_finite_differences(self, prof):
        # phi' from a 5-point stencil on phi itself, squared against P(cos phi)
        u = np.linspace(-2.5, 2.5, 401)
        fd = oracles.fd1_5pt(lambda x: prof.eval(x).phi, u, 1e-3)
        v = prof.eval(u)
        assert np.max(np.abs(fd ** 2 - quartic_P(prof.params, np.cos(v.phi)))) < 1e-9
        assert np.max(np.abs(fd - v.phiprime)) < 1e-9


class TestIdentityResiduals:
    def test_all_identities_small(self):
        prof = solve_profile(AnnulusParams(1.0, THETA_TILDE_1))
        grid = np.linspace(-3 * prof.U, 3 * prof.U, 1000)
        res = identity_residuals(prof, grid)
        assert set(res) == {"phi_prime_alpha", "phi_second", "G_second_cosphi",
                            "G_second", "G_second_quadratic"}
        for name, (r, _) in res.items():
            assert r <= 1e-8, name

    def test_theta_zero_first_identity_exact(self):
        prof = solve_profile(AnnulusParams(1.0, 0.0))
        res = identity_residuals(prof, np.linspace(-2, 2, 100))
        assert res["phi_prime_alpha"][0] < 1e-13

    def test_G_second_vanishes_at_origin(self):
        prof = solve_profile(AnnulusParams(1.5, 0.4))
        G2 = oracles.fd1_5pt(lambda x: prof.eval(x).Gprime, np.array([0.0]), 1e-5)
        assert abs(G2[0]) < 1e-8


def test_csv_roundtrip(tmp_path):
    prof = solve_profile(AnnulusParams(1.0, 0.3))
    path = tmp_path / "profile.csv"
    u = np.linspace(0.0, prof.U, 64)
    v = prof.eval(u)
    path.write_text(csv_text(
        ["u", "phi", "phiprime", "beta", "G", "Gprime"],
        zip(u, v.phi, v.phiprime, v.beta, v.G, v.Gprime)))
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape == (64, 6)
    v = prof.eval(rows[:, 0])
    assert np.max(np.abs(rows[:, 1] - v.phi)) == 0.0
    assert np.max(np.abs(rows[:, 4] - v.G)) == 0.0
