import numpy as np
import pytest

import oracles
from nilcat import DegeneracyError, TransversalityError
from nilcat.nil3 import (
    STENCIL5,
    GaussValue,
    ResidualReport,
    first_fundamental_form,
    from_y,
    gauss_map,
    graph_pde_residual,
    mean_curvature_nil3,
    nil3_christoffels,
    nil3_metric,
    stencil5,
    to_y,
)


def koszul_fd(p, h=1e-5):
    """Christoffels from central finite differences of the metric."""
    d = np.zeros((3, 3, 3))
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        d[k] = (nil3_metric(p + e) - nil3_metric(p - e)) / (2 * h)
    first = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3):
            for l in range(3):
                first[i, j, l] = 0.5 * (d[i, j, l] + d[j, i, l] - d[l, i, j])
    return np.einsum("kl,ijl->kij", np.linalg.inv(nil3_metric(p)), first)


class TestMetricConnection:
    def test_identity_at_origin(self):
        g = nil3_metric([0.0, 0.0, 0.0])
        assert np.array_equal(g, np.eye(3))
        assert np.array_equal(nil3_christoffels([0.0, 0.0, 0.0])[2],
                              np.zeros((3, 3)))

    def test_values_at_unit_x1(self):
        g = nil3_metric([1.0, 0.0, 0.0])
        assert g[1, 1] == 1.25
        assert g[1, 2] == -0.5

    def test_christoffels_match_koszul_oracle(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-2, 2, size=(100, 3))
        worst = max(np.max(np.abs(koszul_fd(p) - nil3_christoffels(p)))
                    for p in pts)
        assert worst <= 1e-7

    def test_frame_orthonormal_everywhere(self):
        rng = np.random.default_rng(8)
        for p in rng.uniform(-3, 3, size=(20, 3)):
            g = nil3_metric(p)
            # rows are the frame vectors E1, E2, E3 in coordinates
            E = np.array([[1, 0, -p[1] / 2], [0, 1, p[0] / 2], [0, 0, 1.0]])
            gram = E @ g @ E.T
            assert np.allclose(gram, np.eye(3), atol=1e-14)


class TestMeanCurvature:
    def test_vertical_plane_minimal(self):
        def plane(u, v):
            u, v = np.asarray(u, float), np.asarray(v, float)
            return np.stack([u, np.zeros_like(u), v], axis=-1)

        assert abs(mean_curvature_nil3(plane, 0.4, -0.7)) <= 1e-8

    def test_flat_graph_zero_at_origin(self):
        def graph(u, v):
            u, v = np.asarray(u, float), np.asarray(v, float)
            return np.stack([u, v, np.zeros_like(u)], axis=-1)

        assert abs(mean_curvature_nil3(graph, 0.0, 0.0)) <= 1e-10

    def test_round_sphere_registers(self):
        # coordinate embedding of the Euclidean unit sphere is not minimal
        def sphere(u, v):
            u, v = np.asarray(u, float), np.asarray(v, float)
            return np.stack([np.sin(u) * np.cos(v), np.sin(u) * np.sin(v),
                             np.cos(u)], axis=-1)

        assert abs(mean_curvature_nil3(sphere, 1.1, 0.6)) > 0.1

    def test_degenerate_sampler_raises(self):
        def bad(u, v):
            u, v = np.asarray(u, float), np.asarray(v, float)
            return np.stack([u, u, np.zeros_like(u)], axis=-1)

        with pytest.raises(DegeneracyError):
            mean_curvature_nil3(bad, 0.1, 0.1)


class TestGaussMap:
    def test_flat_graph_origin(self):
        def graph(u, v):
            u, v = np.asarray(u, float), np.asarray(v, float)
            return np.stack([u, v, np.zeros_like(u)], axis=-1)

        gv = gauss_map(graph, 0.0, 0.0)
        assert isinstance(gv, GaussValue)
        assert abs(gv.g) <= 1e-12
        assert gv.nu == pytest.approx(1.0, abs=1e-12)

    def test_nu_relation(self):
        def graph(u, v):
            u, v = np.asarray(u, float), np.asarray(v, float)
            return np.stack([u, v, 0.3 * u * u], axis=-1)

        gv = gauss_map(graph, 0.4, -0.9)
        assert gv.nu == pytest.approx(
            (1 - abs(gv.g) ** 2) / (1 + abs(gv.g) ** 2), abs=1e-12)

    def test_vertical_plane_raises(self):
        def plane(u, v):
            u, v = np.asarray(u, float), np.asarray(v, float)
            return np.stack([u, np.zeros_like(u), v], axis=-1)

        with pytest.raises(TransversalityError):
            gauss_map(plane, 0.1, 0.2)


class TestGraphPde:
    def test_zero_function(self):
        assert graph_pde_residual(lambda a, b: 0.0 * a * b, 0.3, 0.8) == 0.0

    def test_product_solution(self):
        # f = x1 x2 / 2 has q = 0, r = t = 0, so the residual vanishes
        assert graph_pde_residual(lambda a, b: 0.5 * a * b, 0.3, 0.8) <= 1e-8

    def test_nonsolution_registers(self):
        assert graph_pde_residual(lambda a, b: a * a + b * b, 0.3, 0.8) > 0.1


class TestCoordinates:
    def test_single_point(self):
        assert to_y([1.0, 2.0, 3.0]).tolist() == [1.0, 2.0, 4.0]
        assert from_y([1.0, 2.0, 4.0]).tolist() == [1.0, 2.0, 3.0]

    def test_x1_zero_fixed(self):
        assert to_y([0.0, 1.7, -2.2]).tolist() == [0.0, 1.7, -2.2]

    def test_roundtrip_random(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-5, 5, size=(200, 3))
        assert np.max(np.abs(from_y(to_y(pts)) - pts)) <= 1e-15


class TestResidualReport:
    def test_pass_fail_bookkeeping(self):
        r = ResidualReport()
        r.add("a", 1e-10, location=(0.0, 0.0), threshold=1e-8)
        r.add("b", 1e-3, threshold=1e-8)
        r.add("c", 5.0)
        assert not r.all_pass()
        assert r.failures() == ["b"]
        d = r.as_dict()
        assert d["a"]["pass"] is True and d["b"]["pass"] is False
        assert d["c"]["pass"] is None


class TestOnCatenoid:
    """Sampler-level checks wired to the closed-form annulus at alpha = 1."""

    def test_multigraph_patch_nu_sign_constant(self, cat1):
        u = np.linspace(-0.45 * cat1.U, 0.45 * cat1.U, 21)
        for uu in u:
            gv = gauss_map(cat1, uu, 0.3)
            assert gv.nu > 0

    def test_numeric_gauss_matches_closed_form(self, cat1):
        rng = np.random.default_rng(5)
        for uu, vv in zip(rng.uniform(-1.2, 1.2, 12), rng.uniform(-1, 1, 12)):
            gv = gauss_map(cat1, uu, vv)
            assert abs(gv.g - complex(cat1.gauss(uu, vv))) <= 1e-8

    def test_conformality(self, cat1):
        rng = np.random.default_rng(6)
        uu = rng.uniform(-2, 2, 100)
        vv = rng.uniform(-1.5, 1.5, 100)
        E, F, G = first_fundamental_form(cat1, uu, vv)
        lam = cat1.lambda_conf(uu, vv)
        assert np.max(np.abs(E - lam) / lam) <= 1e-5
        assert np.max(np.abs(G - lam) / lam) <= 1e-5
        assert np.max(np.abs(F) / lam) <= 1e-5


class TestStencil5:
    def test_matches_oracle_stencils_bit_for_bit(self):
        rng = np.random.default_rng(31)
        x = rng.uniform(-3, 3, 500)
        for f in (np.sin, np.exp, lambda t: np.cosh(t) / (2 + np.sin(3 * t))):
            for h in (1e-5, 1e-3, 0.37):
                d1, d2 = stencil5(f(np.add.outer(h * STENCIL5, x)), h)
                assert np.array_equal(d1, oracles.fd1_5pt(f, x, h))
                assert np.array_equal(d2, oracles.fd2_5pt(f, x, h))

    def test_sequence_of_samples(self):
        x, h = 0.3, 1e-3
        s = np.sin(x + h * STENCIL5)
        assert stencil5(list(s), h) == stencil5(s, h)

    def test_exact_on_polynomials(self):
        # dyadic x, h and integer coefficients keep every sample exact, so
        # the stencils' exactness shows as equality
        p4 = np.polynomial.Polynomial([3, -1, 2, 5, -4])
        p5 = np.polynomial.Polynomial([1, 2, -3, 4, -2, 3])
        for x in (0.0, 0.75, -1.5):
            for h in (0.5, 0.25, 0.125):
                d1, _ = stencil5(p4(x + h * STENCIL5), h)
                assert d1 == p4.deriv()(x)
                _, d2 = stencil5(p5(x + h * STENCIL5), h)
                assert d2 == p5.deriv(2)(x)
