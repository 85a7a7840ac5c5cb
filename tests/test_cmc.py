import math

import numpy as np
import pytest

import oracles
from nilcat import DomainError, RangeError
from nilcat.cmc import (
    CmcFieldSample,
    ConjugateProfile,
    annulus_point,
    build_cmc_annulus,
    halfplane_curve,
    halfplane_x1,
    halfplane_x2,
    hstar_field,
    mean_curvature_h2xr,
    reflect_and_mesh,
)
from nilcat.meshes import boundary_edge_count, euler_characteristic


@pytest.fixture(scope="module")
def cmc1():
    return build_cmc_annulus(1.0)


@pytest.fixture(scope="module")
def cmc2():
    return build_cmc_annulus(2.0)


def cayley_to_halfplane(w):
    """Disk -> half-plane sending (0,-1) to 0 and (0,1) to infinity;
    consistent with (X1/(X3 - X2), 1/(X3 - X2)) on the hyperboloid."""
    w = np.asarray(w, dtype=complex)
    return (2 * w.real + 1j * (1 - np.abs(w) ** 2)) / np.abs(w - 1j) ** 2


class TestBuild:
    def test_alpha_star(self, cmc1):
        assert cmc1.alpha_star == pytest.approx(math.sqrt(2.0), abs=0)
        assert cmc1.alpha_star_sq - cmc1.alpha ** 2 == 1.0

    def test_half_periods_agree(self, cmc1, cmc2):
        assert abs(cmc1.U - cmc1.conjugate.U) <= 1e-9
        assert abs(cmc2.U - cmc2.conjugate.U) <= 1e-9

    def test_cosh_omega_at_origin(self, cmc1):
        # both expressions equal sqrt(alpha^2 + 1) at u = 0
        pv = cmc1.profile.eval(0.0)
        phis, _ = cmc1.conjugate.eval(0.0)
        assert float(-pv.phiprime) == pytest.approx(math.sqrt(2), rel=1e-14)
        assert cmc1.alpha_star / float(np.cos(phis)) == pytest.approx(
            math.sqrt(2), rel=1e-14)

    def test_cosh_omega_identity_on_grid(self, cmc1):
        u = np.linspace(-2 * cmc1.U, 2 * cmc1.U, 1000)
        pv = cmc1.profile.eval(u)
        phis, _ = cmc1.conjugate.eval(u)
        r = np.abs(np.abs(pv.phiprime) * np.cos(phis)
                   - cmc1.alpha_star * np.cos(pv.phi))
        assert np.max(r) <= 1e-8

    def test_conjugate_profile_ode(self, cmc1):
        conj = cmc1.conjugate
        u = np.linspace(-3, 3, 500)
        phis, psp = conj.eval(u)
        assert float(conj.eval(0.0)[0]) == 0.0
        assert np.all(psp < 0)
        assert np.max(np.abs(psp ** 2 - conj.alpha_star ** 2
                             + np.cos(phis) ** 2)) <= 1e-12
        # quasi-period law
        a, b = conj.eval(u), conj.eval(u + conj.U)
        assert np.max(np.abs(b[0] - a[0] + math.pi)) <= 1e-12

    def test_bad_alpha(self):
        with pytest.raises(DomainError):
            build_cmc_annulus(-2.0)
        with pytest.raises(DomainError):
            ConjugateProfile(0.9)


class TestHeightField:
    def test_vanishes_on_level_curves(self, cmc1):
        v = np.linspace(-1.5, 1.5, 9)
        assert np.max(np.abs(cmc1.hstar(cmc1.U / 2, v))) <= 1e-12
        assert np.max(np.abs(cmc1.hstar(-cmc1.U / 2, v))) <= 1e-12

    def test_value_at_origin(self, cmc1):
        s = hstar_field(cmc1, 0.0, 0.0)
        assert isinstance(s, CmcFieldSample)
        expected = 1.0 / (1.0 * (-math.sqrt(2.0) - 1.0))
        assert s.hstar == pytest.approx(expected, rel=1e-14)

    def test_two_closed_forms_agree(self, cmc1):
        # h* in source-profile data equals h* in conjugate-profile data
        rng = np.random.default_rng(2)
        u = rng.uniform(-2, 2, 200)
        v = rng.uniform(-1.5, 1.5, 200)
        phis, psp = cmc1.conjugate.eval(u)
        alt = np.cos(phis) * np.cosh(cmc1.alpha * v) \
            / (cmc1.alpha * (psp - cmc1.alpha_star))
        assert np.max(np.abs(cmc1.hstar(u, v) - alt)) <= 1e-8

    def test_metric_identity(self, cmc1, cmc2):
        rng = np.random.default_rng(3)
        u = rng.uniform(-2, 2, 200)
        v = rng.uniform(-1.5, 1.5, 200)
        for m in (cmc1, cmc2):
            lam = m.lambda_conf(u, v)
            built = m.tau(u) + 4.0 * np.abs(m.H_field(u, v)) ** 2
            assert np.max(np.abs(built - lam) / lam) <= 1e-8

    def test_h_system_residuals(self, cmc1):
        # finite-difference z-derivatives of h* against the printed system,
        # away from cos phi = 0
        m = cmc1
        a = m.alpha
        u0 = np.linspace(-0.35 * m.U, 0.35 * m.U, 11)
        v0 = np.linspace(-1.0, 1.0, 7)
        uu, vv = [x.ravel() for x in np.meshgrid(u0, v0)]
        h = 1e-4
        pv = m.profile.eval(uu)

        def at(du, dv):
            return m.hstar(uu + du * h, vv + dv * h)

        huu = (-at(-2, 0) + 16 * at(-1, 0) - 30 * at(0, 0) + 16 * at(1, 0)
               - at(2, 0)) / (12 * h * h)
        hvv = (-at(0, -2) + 16 * at(0, -1) - 30 * at(0, 0) + 16 * at(0, 1)
               - at(0, 2)) / (12 * h * h)
        huv = (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4 * h * h)
        h_zz = 0.25 * (huu - hvv - 2j * huv)
        h_zzb = 0.25 * (huu + hvv)

        H = m.H_field(uu, vv)
        cos, sin = np.cos(pv.phi), np.sin(pv.phi)
        rhs1 = a * (sin / cos) * H + np.cosh(a * vv) / (4 * cos)
        rhs2 = (pv.phiprime + a) ** 2 * np.cosh(a * vv) / (4 * cos ** 3)
        assert np.max(np.abs(h_zz - rhs1)) <= 1e-6
        assert np.max(np.abs(h_zzb - rhs2)) <= 1e-6

    def test_H_is_dz_derivative_of_height(self, cmc1):
        # independent check that the closed-form H equals h*_z
        u0, v0, h = 0.4, 0.3, 1e-5
        hu = oracles.fd1_5pt(lambda x: cmc1.hstar(x, v0), u0, h)
        hv = oracles.fd1_5pt(lambda x: cmc1.hstar(u0, x), v0, h)
        fd = 0.5 * (hu - 1j * hv)
        assert abs(complex(cmc1.H_field(u0, v0)) - complex(fd)) <= 1e-9


class TestHyperboloidLift:
    def test_G_hyperboloid_identity(self, cmc1):
        rng = np.random.default_rng(5)
        for uu, vv in zip(rng.uniform(-0.4, 0.4, 50) * cmc1.U,
                          rng.uniform(-1.5, 1.5, 50)):
            s = hstar_field(cmc1, uu, vv)
            assert abs(s.G3 ** 2 - s.G1 ** 2 - s.G2 ** 2 - 1.0) <= 1e-10

    def test_X_hyperboloid_identity(self, cmc1):
        rng = np.random.default_rng(6)
        u = rng.uniform(-cmc1.U / 2, cmc1.U / 2, 300)
        v = rng.uniform(-1.5, 1.5, 300)
        X = cmc1.hyperboloid_point(u, v)
        r = X[..., 2] ** 2 - X[..., 0] ** 2 - X[..., 1] ** 2 - 1.0
        assert np.max(np.abs(r)) <= 1e-8
        assert np.all(X[..., 2] + 1.0 > 0)

    def test_f_endpoint_limit(self, cmc1, cmc2):
        for m in (cmc1, cmc2):
            for us in (m.U / 2, -m.U / 2, m.U / 2 + m.U):
                assert abs(float(m.f_of_u(us)) - m.gamma) <= 1e-4

    def test_f_matches_printed_quotient(self, cmc1, cmc2):
        # the stable form must reproduce the literal formula away from the
        # removable singularity
        for m in (cmc1, cmc2):
            u = np.linspace(-0.35 * m.U, 0.35 * m.U, 301)
            assert np.max(np.abs(m.f_of_u(u) - m.f_printed(u))) <= 1e-10

    def test_f_limit_from_printed_quotient(self, cmc1):
        # the printed formula itself tends to gamma as cos phi -> 0
        s = np.array([0.04, 0.02, 0.01, 0.005]) / cmc1.alpha
        vals = cmc1.f_printed(cmc1.U / 2 - s)
        gaps = np.abs(vals - cmc1.gamma)
        assert gaps[-1] <= 1e-4
        assert np.all(np.diff(gaps) < 0)

    def test_gamma_shift_bound(self, cmc1, cmc2):
        for m in (cmc1, cmc2):
            a, a_s = m.alpha, m.alpha_star
            assert m.gamma + a_s / a == pytest.approx(
                (2 * a * a + 1) / (2 * a * a_s), rel=1e-14)
            assert m.gamma + a_s / a >= 1.0

    def test_stable_lift_matches_printed_block(self, cmc1, cmc2):
        rng = np.random.default_rng(8)
        for m in (cmc1, cmc2):
            u = rng.uniform(-m.U / 2, m.U / 2, 200)
            v = rng.uniform(-1.2, 1.2, 200)
            d = np.abs(m.hyperboloid_point(u, v)
                       - m.hyperboloid_point_printed(u, v))
            assert np.max(d) <= 1e-10

    def test_annulus_point_at_origin(self, cmc1):
        p = annulus_point(cmc1, 0.0, 0.0)
        assert p.disk.imag == pytest.approx(0.0, abs=1e-15)  # X2 = 0
        assert p.height == pytest.approx(1.0 / (-math.sqrt(2) - 1), rel=1e-14)
        assert abs(p.disk) < 1

    def test_disk_stays_inside(self, cmc1):
        rng = np.random.default_rng(7)
        d = cmc1.disk_point(rng.uniform(-cmc1.U / 2, cmc1.U / 2, 500),
                            rng.uniform(-2, 2, 500))
        assert np.max(np.abs(d)) < 1.0

    def test_ideal_boundary_guard(self, cmc1):
        # far out in v the disk coordinate crowds the boundary
        with pytest.raises(RangeError):
            cmc1.disk_point(0.0, 250.0)


class TestHalfplaneCurves:
    def test_monotone_below_one(self):
        m = build_cmc_annulus(0.8)
        c = halfplane_curve(m, -1)
        assert c.critical_v == ()
        assert np.all(np.diff(c.x1) < 0)  # strictly monotone

    def test_single_tangential_point_at_one(self, cmc1):
        c = halfplane_curve(cmc1, -1)
        assert len(c.critical_v) == 1
        assert c.tangential
        v_pred = math.atanh(-math.sqrt(2) / 2)
        assert abs(c.critical_v[0] - v_pred) <= 1e-6

    def test_two_extrema_at_two(self, cmc2):
        c = halfplane_curve(cmc2, -1)
        assert len(c.critical_v) == 2 and not c.tangential
        pred = sorted(math.atanh(t) / 2 for t in
                      [(-math.sqrt(5) - math.sqrt(3)) / 4,
                       (-math.sqrt(5) + math.sqrt(3)) / 4])
        for got, want in zip(c.critical_v, pred):
            assert abs(got - want) <= 1e-8

    def test_extrema_against_fd_oracle(self, cmc2):
        # root-find the 5-point finite difference of the sampled curve
        got = halfplane_curve(cmc2, -1).critical_v

        def fd(v):
            return oracles.fd1_5pt(lambda t: halfplane_x1(cmc2, -1, t), v, 1e-5)

        for v_star in got:
            lo, hi = v_star - 1e-3, v_star + 1e-3
            flo, fhi = fd(lo), fd(hi)
            assert flo * fhi < 0
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                fm = fd(mid)
                if fm * flo > 0:
                    lo, flo = mid, fm
                else:
                    hi = mid
            assert abs(0.5 * (lo + hi) - v_star) <= 1e-7

    def test_components_disjoint(self, cmc1):
        v = np.linspace(-3, 2, 400)
        left = halfplane_x1(cmc1, -1, v)
        right = halfplane_x1(cmc1, 1, v)
        assert np.max(left) < 0 < np.min(right)

    def test_matches_disk_curve_through_cayley(self, cmc1):
        v = np.linspace(-1.2, 1.2, 25)
        disk = np.array([annulus_point(cmc1, -cmc1.U / 2, t).disk for t in v])
        zeta = cayley_to_halfplane(disk)
        assert np.max(np.abs(zeta.real - halfplane_x1(cmc1, -1, v))) <= 1e-8
        assert np.max(np.abs(zeta.imag - halfplane_x2(cmc1, v))) <= 1e-8

    def test_horocycle_exponent(self):
        # tail exponent of x2 against x1 approaches 1 - alpha/alpha*
        m = build_cmc_annulus(10.0)
        v = np.linspace(3, 6, 40)
        x1 = np.abs(halfplane_x1(m, -1, v))
        x2 = halfplane_x2(m, v)
        slope = np.polyfit(np.log(x1), np.log(x2), 1)[0]
        expected = 1 - m.alpha / m.alpha_star
        assert abs(slope - expected) <= 0.05 * abs(expected)

    def test_overflow_guard(self, cmc1):
        with pytest.raises(RangeError):
            halfplane_curve(cmc1, -1, v_range=(-900, 900))


class TestMeanCurvature:
    def test_horizontal_slice_minimal(self):
        def slab(u, v):
            u, v = np.asarray(u, float), np.asarray(v, float)
            return np.stack([0.3 * u, 0.3 * v, np.full_like(u, 0.7)], axis=-1)

        # 1e-7 is the roundoff floor of the second-derivative stencils
        assert abs(mean_curvature_h2xr(slab, 0.2, -0.1)) <= 1e-7

    def test_geodesic_cylinder_minimal(self):
        def cyl(u, v):
            u, v = np.asarray(u, float), np.asarray(v, float)
            return np.stack([np.tanh(u), np.zeros_like(u), v], axis=-1)

        assert abs(mean_curvature_h2xr(cyl, 0.4, 0.8)) <= 1e-8

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_annulus_is_cmc_half(self, alpha, cmc1, cmc2):
        m = cmc1 if alpha == 1.0 else cmc2
        rng = np.random.default_rng(9)
        u = rng.uniform(-0.45 * m.U, 0.45 * m.U, 100)
        v = rng.uniform(-1.2, 1.2, 100)
        H = mean_curvature_h2xr(m, u, v)
        assert np.max(np.abs(H - 0.5)) <= 1e-4

    def test_reflection_keeps_cmc_half(self, cmc1):
        # height flip reverses ambient orientation; re-parametrizing by
        # (u, -v) restores a normal with H = +1/2
        def refl(u, v):
            x = cmc1.xyz(np.asarray(u, float), -np.asarray(v, float))
            out = x.copy()
            out[..., 2] *= -1.0
            return out

        rng = np.random.default_rng(10)
        H = mean_curvature_h2xr(refl, rng.uniform(-0.4, 0.4, 20),
                                rng.uniform(-1.0, 1.0, 20))
        assert np.max(np.abs(H - 0.5)) <= 1e-4


class TestReflectAndMesh:
    def test_annulus_topology(self, cmc1):
        mesh = reflect_and_mesh(cmc1, nu=48, nv=40, v_range=(-1.5, 1.5))
        assert euler_characteristic(mesh) == 0
        assert boundary_edge_count(mesh) == 2 * (2 * 48 - 2)

    @pytest.mark.parametrize("nu,nv", [(16, 2), (24, 12), (100, 50)])
    def test_faces_match_cell_loop(self, cmc1, nu, nv):
        mesh = reflect_and_mesh(cmc1, nu=nu, nv=nv, v_range=(-1.0, 1.0))
        assert mesh.faces.dtype == np.int64
        assert np.array_equal(mesh.faces, oracles.reflect_faces(nu, nv))

    def test_weld_is_exact(self, cmc1):
        mesh = reflect_and_mesh(cmc1, nu=32, nv=16, v_range=(-1.0, 1.0))
        # every vertex is used by some face (no orphan duplicates)
        assert len(np.unique(mesh.faces)) == mesh.n_vertices

    def test_boundary_curves_match_halfplane(self, cmc1):
        nv = 17
        mesh = reflect_and_mesh(cmc1, nu=32, nv=nv, v_range=(-1.0, 1.0))
        v = np.linspace(-1.0, 1.0, nv)
        # column i = 0 of the front sheet is the u = -U/2 level curve
        left = mesh.vertices[np.arange(nv) * 32]
        zeta = cayley_to_halfplane(left[:, 0] + 1j * left[:, 1])
        assert np.max(np.abs(zeta.real - halfplane_x1(cmc1, -1, v))) <= 1e-8
        assert np.max(np.abs(zeta.imag - halfplane_x2(cmc1, v))) <= 1e-8
        assert np.max(np.abs(left[:, 2])) == 0.0  # height pinned to zero
