import math

import numpy as np
import pytest

import oracles
from nilcat import AnnulusParams, DomainError, RangeError, ResolutionError, solve_profile
from nilcat.catenoid import (
    CatenoidModel,
    build_catenoid,
    gauss_curvature_K,
    graph_patch,
    limit_deviation,
    mesh_catenoid,
    period_closure_residual,
    _planar_curvature,
    remarkable_curves,
    section_curve,
    waist_extent,
)
from nilcat.meshes import euler_characteristic
from nilcat.nil3 import (STENCIL5, gauss_map_and_residuals, graph_pde_residual,
                         mean_curvature_nil3, stencil5, to_y)

# Frozen from a direct evaluation sweep: waist extent at alpha = 100 is
# C/alpha + O(1/alpha^4) ~ 5.0e-5 (see test_waist_extent_bounds).
WAIST_EXTENT_100_BOUND = 5.1e-5


class TestBuild:
    def test_period_identity(self, cat1):
        p = cat1.profile
        assert abs(cat1.alpha * p.GU + cat1.params.C * p.betaU) <= 1e-9

    def test_period_data(self, cat1):
        assert cat1.V == pytest.approx(-cat1.profile.betaU / cat1.alpha, abs=0)
        assert cat1.Z == complex(2 * cat1.U, 2 * cat1.V)
        assert cat1.Z != 0

    def test_alpha_zero_rejected(self):
        with pytest.raises(DomainError):
            build_catenoid(0.0)


class TestImmersion:
    def test_origin_point(self, cat1):
        x1, x2, x3 = cat1.xyz(0.0, 0.0)
        lam = float(cat1.lambda_conf(0.0, 0.0))
        p = cat1.params
        w = math.sqrt(p.alpha ** 2 + p.cos2theta - p.C ** 2)
        g0 = (p.alpha - w)  # G'(0)
        assert x1 == pytest.approx(0.0, abs=1e-15)
        assert x2 == pytest.approx(0.0, abs=1e-15)
        assert x3 == pytest.approx((p.C / p.alpha) * (g0 / p.alpha - 1.0),
                                   abs=1e-14)
        assert lam == pytest.approx(g0 ** 2 + p.C ** 2, rel=1e-12)

    def test_rotation_symmetries(self, cat1):
        rng = np.random.default_rng(11)
        u = rng.uniform(-2.5, 2.5, 64)
        v = rng.uniform(-1.5, 1.5, 64)
        base = cat1.xyz(u, v)
        # pi around the x2-axis: shift by (U, V)
        assert np.max(np.abs(cat1.xyz(u + cat1.U, v + cat1.V)
                             - base * [-1, 1, -1])) <= 1e-9
        # pi around the x3-axis: (u, v) -> (-u, -v)
        assert np.max(np.abs(cat1.xyz(-u, -v) - base * [-1, -1, 1])) <= 1e-9
        # composition: pi around the x1-axis
        assert np.max(np.abs(cat1.xyz(-u - cat1.U, -v - cat1.V)
                             - base * [1, -1, -1])) <= 1e-9

    def test_overflow_guard(self, cat1):
        with pytest.raises(RangeError):
            cat1.xyz(0.0, 800.0 / cat1.alpha)


class TestPeriodClosure:
    def test_residual_small_on_grid(self, cat1):
        assert period_closure_residual(cat1) <= 1e-8

    def test_single_point_matches_definition(self, cat1):
        r = period_closure_residual(cat1, grid=(np.array(0.0), np.array(0.0)))
        direct = np.max(np.abs(cat1.xyz(2 * cat1.U, 2 * cat1.V)
                               - cat1.xyz(0.0, 0.0)))
        assert r == pytest.approx(float(direct), abs=0)

    def test_unsolved_theta_fails_to_close(self, cat1):
        # negative control: half the period root leaves a visible gap
        params = AnnulusParams(1.0, cat1.theta_tilde / 2)
        broken = CatenoidModel(params, solve_profile(params))
        assert period_closure_residual(broken) > 1e-3


class TestMinimality:
    def test_mean_curvature_at_spec_point(self, cat1):
        assert abs(mean_curvature_nil3(cat1, 0.3, 0.7)) <= 1e-4

    def test_mean_curvature_random(self, cat1):
        rng = np.random.default_rng(12)
        H = mean_curvature_nil3(cat1, rng.uniform(-2, 2, 100),
                                rng.uniform(-1.5, 1.5, 100))
        assert np.max(np.abs(H)) <= 1e-4

    def test_hopf_and_harmonic_residuals(self, cat1):
        uu, vv = np.meshgrid(np.linspace(-1.1, 1.1, 9),
                             np.linspace(-0.9, 0.9, 9), indexing="ij")
        _, harm, Q = gauss_map_and_residuals(cat1, uu, vv, gauss=cat1.gauss)
        assert np.max(harm) <= 1e-6
        assert np.max(np.abs(Q - cat1.hopf_coefficient())) <= 1e-6

    def test_gauss_map_unit_modulus_on_vertical_curve(self, cat1):
        v = np.linspace(-1.0, 1.0, 11)
        assert np.max(np.abs(np.abs(cat1.gauss(cat1.U / 2, v)) - 1.0)) <= 1e-8
        assert np.max(np.abs(np.abs(cat1.gauss(-cat1.U / 2, v)) - 1.0)) <= 1e-8

    def test_gauss_map_origin(self, cat1):
        assert cat1.gauss(0.0, 0.0) == 0.0


class TestSections:
    @pytest.mark.parametrize("c", [-1.0, 0.0, 1.0])
    def test_closed_convex_once_around(self, cat1, cat2, c):
        for model in (cat1, cat2):
            s = section_curve(model, c, 1024)
            assert s.closure_gap <= 1e-8
            assert s.min_curvature > 0
            assert s.turning_number == 1
            assert s.slope_residual <= 1e-6

    def test_y1_increasing_on_front_half(self, cat1):
        s = section_curve(cat1, 0.0, 2048)
        mask = (s.u > -cat1.U / 2 + 1e-6) & (s.u < cat1.U / 2 - 1e-6)
        assert np.all(np.diff(s.y1[mask]) > 0)

    def test_half_turn_antisymmetry(self, cat1):
        u = np.linspace(-cat1.U / 2, cat1.U / 2, 33)
        from nilcat.catenoid import _section_y
        y1a, y3a, _ = _section_y(cat1, 0.7, u)
        y1b, y3b, _ = _section_y(cat1, 0.7, u + cat1.U)
        assert np.max(np.abs(y1b + y1a)) <= 1e-9
        assert np.max(np.abs(y3b + y3a)) <= 1e-9

    def test_scaled_curvature_is_exact(self, cat1):
        # the power-of-two scaling of _planar_curvature is exact: on alpha 1,
        # c 0 it returns the unscaled formula's bits on the same derivatives
        from nilcat.catenoid import _section_y
        u = np.linspace(-cat1.U, cat1.U, 1024)
        h = 1e-4 * max(1.0, cat1.U)
        y1s, y3s, _ = _section_y(cat1, 0.0, np.add.outer(h * STENCIL5, u))
        d1, d2 = zip(stencil5(y1s, h), stencil5(y3s, h))
        s2 = d1[0] * d1[0] + d1[1] * d1[1]
        plain = (d1[0] * d2[1] - d1[1] * d2[0]) / (s2 * np.sqrt(s2))
        got = _planar_curvature(d1, d2)
        assert got.tobytes() == plain.tobytes()
        assert got.tobytes() == section_curve(cat1, 0.0).curvature.tobytes()

    def test_curvature_not_finite_raises(self):
        d1 = (np.array([1.0, np.inf]), np.array([1.0, 0.0]))
        d2 = (np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(RangeError):
            _planar_curvature(d1, d2)

    def test_section_resolution_guard(self, cat1):
        with pytest.raises(ResolutionError):
            section_curve(cat1, 0.0, 8)


class TestRemarkableCurves:
    def test_values_at_waist_plane(self, cat1):
        p = cat1.params
        rc = remarkable_curves(cat1)
        w = math.sqrt(p.alpha ** 2 + p.cos2theta - p.C ** 2)
        b1, b3 = rc.bottom(0.0)
        assert b1 == pytest.approx(0.0, abs=1e-15)
        assert b3 == pytest.approx(-p.C * w / p.alpha ** 2, rel=1e-13)
        v1, v3 = rc.vertical(0.0)
        assert v1 == pytest.approx(p.C / p.alpha, rel=1e-13)
        assert v3 == pytest.approx(0.0, abs=1e-15)
        assert rc.halfwidth(0.0) == pytest.approx(p.C / p.alpha, rel=1e-13)

    def test_curves_lie_on_surface(self, cat1):
        # evaluate the immersion along u = 0 and u = U/2 and compare
        rc = remarkable_curves(cat1)
        for v in (-0.9, 0.2, 1.4):
            y = to_y(cat1.xyz(0.0, v))
            b1, b3 = rc.bottom(y[1])
            assert abs(b1 - y[0]) <= 1e-10 and abs(b3 - y[2]) <= 1e-10
            yv = to_y(cat1.xyz(cat1.U / 2, v))
            v1, v3 = rc.vertical(yv[1])
            assert abs(v1 - yv[0]) <= 1e-10 and abs(v3 - yv[2]) <= 1e-10

    def test_bottom_is_lowest_point_of_section(self, cat1):
        # the sampled minimum can only sit O(du^2) above the true bottom
        s = section_curve(cat1, 0.4, 1024)
        rc = remarkable_curves(cat1)
        _, b3 = rc.bottom(0.4)
        assert np.min(s.y3) >= b3 - 1e-9
        assert np.min(s.y3) <= b3 + 1e-4


class TestGaussCurvature:
    def test_positive_far_out_on_vertical_curve(self, cat1):
        # K lambda -> cos(2 theta)/2 > 0 for large |A| at u = U/2
        beta_half = float(cat1.profile.eval(cat1.U / 2).beta)
        v = (6.0 - beta_half) / cat1.alpha
        K = float(gauss_curvature_K(cat1, cat1.U / 2, v))
        lam = float(cat1.lambda_conf(cat1.U / 2, v))
        assert K > 0
        assert K * lam == pytest.approx(
            -cat1.alpha ** 2 / math.cosh(6.0) ** 2 + cat1.params.cos2theta / 2,
            abs=1e-12)

    def test_negative_at_origin(self, cat1):
        p = cat1.params
        w = math.sqrt(p.alpha ** 2 + p.cos2theta - p.C ** 2)
        K = float(gauss_curvature_K(cat1, 0.0, 0.0))
        lam = float(cat1.lambda_conf(0.0, 0.0))
        assert K < 0
        assert K * lam == pytest.approx(
            -2 * p.alpha ** 2 - p.cos2theta + p.alpha * w, abs=1e-12)

    def test_against_fd_laplacian(self, cat1):
        # K = -(1/2 lambda) Laplacian(log lambda), by 5-point stencils
        for u0, v0 in [(0.71, -0.42), (1.9, 0.6), (-0.3, 1.1)]:
            h = 1e-4

            def ln_lam_u(x):
                return np.log(cat1.lambda_conf(x, v0))

            def ln_lam_v(x):
                return np.log(cat1.lambda_conf(u0, x))

            lap = oracles.fd2_5pt(ln_lam_u, u0, h) + oracles.fd2_5pt(ln_lam_v, v0, h)
            K_fd = -lap / (2 * cat1.lambda_conf(u0, v0))
            assert abs(float(gauss_curvature_K(cat1, u0, v0)) - float(K_fd)) <= 1e-5


class TestLimits:
    def test_deviation_grid_alpha_50(self, cat_models):
        m = cat_models(50.0)
        for uh in np.linspace(-1, 1, 5):
            for vh in np.linspace(-1, 1, 5):
                assert max(limit_deviation(m, uh, vh)) <= 1e-2

    def test_axis_case(self, cat_models):
        # u_hat = 0 sits over the plane point (0, 0, -e^{v_hat/2}/4)
        m = cat_models(50.0)
        d1, d2, d3 = limit_deviation(m, 0.0, 0.5)
        assert d1 <= 1e-4 and d2 <= 1e-2 and d3 <= 1e-3

    def test_monotone_in_alpha(self, cat_models):
        d25 = limit_deviation(cat_models(25.0), 0.5, 0.0)
        d100 = limit_deviation(cat_models(100.0), 0.5, 0.0)
        assert all(b < a for a, b in zip(d25, d100))


class TestWaist:
    def test_waist_extent_bounds(self, cat_models):
        e1 = waist_extent(cat_models(1.0))
        e10 = waist_extent(cat_models(10.0))
        e100 = waist_extent(cat_models(100.0))
        assert e100 < e10 < e1
        for alpha, e in [(1.0, e1), (10.0, e10), (100.0, e100)]:
            assert e >= cat_models(alpha).params.C / alpha - 1e-15
        assert e100 <= WAIST_EXTENT_100_BOUND


class TestGraphPatch:
    def test_minimal_graph_equation(self, cat1):
        f = graph_patch(cat1)
        for x1, x2 in [(0.0, 0.0), (0.05, -0.08), (-0.1, 0.12)]:
            assert graph_pde_residual(f, x1, x2) <= 1e-4

    def test_patch_matches_surface(self, cat1):
        f = graph_patch(cat1)
        x = cat1.xyz(0.07, -0.03)
        assert float(f(x[0], x[1])) == pytest.approx(float(x[2]), abs=1e-11)


class TestMesh:
    def test_topology(self, cat1):
        mesh = mesh_catenoid(cat1, (-2.0, 2.0), 64, 64)
        assert mesh.n_vertices == 64 * 64
        assert euler_characteristic(mesh) == 0
        # two open boundary rings of nu edges each
        assert oracles.boundary_edge_count(mesh.faces) == 128

    def test_vertices_inside_projection_bound(self, cat1):
        mesh = mesh_catenoid(cat1, (-2.5, 2.5), 48, 32)
        y = to_y(mesh.vertices)
        hw = remarkable_curves(cat1).halfwidth(y[:, 1])
        assert np.max(np.abs(y[:, 0]) - hw) <= 1e-9

    def test_no_slab_collisions(self, cat1):
        # embeddedness spot check: nearby points in a thin y2 slab must come
        # from nearby parameters (mod the period)
        nu, nv = 128, 33
        s = np.arange(nu) / nu
        t = np.linspace(-2, 2, nv)
        ss, tt = np.meshgrid(s, t, indexing="ij")
        uu = 2 * cat1.U * ss
        vv = 2 * cat1.V * ss + tt
        y = to_y(cat1.xyz(uu.ravel(), vv.ravel()))
        rng = np.random.default_rng(4)
        idx = rng.integers(0, len(y), size=(1000, 2))
        su = ss.ravel()
        for i, j in idx:
            if i == j or abs(y[i, 1] - y[j, 1]) > 0.02:
                continue
            spatial = np.linalg.norm(y[i] - y[j])
            ds = min(abs(su[i] - su[j]), 1 - abs(su[i] - su[j]))
            if ds > 0.05:
                assert spatial > 1e-6

    def test_resolution_guard(self, cat1):
        with pytest.raises(ResolutionError):
            mesh_catenoid(cat1, (-1, 1), 8, 8)

    def test_range_guard(self, cat1):
        with pytest.raises(RangeError):
            mesh_catenoid(cat1, (-900, 900), 16, 4)
