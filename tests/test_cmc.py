import math

import numpy as np
import pytest

import oracles
from nilcat import DomainError, RangeError
from nilcat.cmc import (
    build_cmc_annulus,
    conjugate_profile,
    halfplane_curve,
    halfplane_x1,
    halfplane_x2,
    mean_curvature_h2xr,
    reflect_and_mesh,
    w_equation_residual,
)
from nilcat.helicoid import build_helicoid
from nilcat.meshes import euler_characteristic
from nilcat.nil3 import STENCIL5
from nilcat.profile import TOL


@pytest.fixture(scope="module")
def cmc1():
    return build_cmc_annulus(1.0)


@pytest.fixture(scope="module")
def cmc2():
    return build_cmc_annulus(2.0)


@pytest.fixture(scope="module")
def conj1(cmc1):
    return conjugate_profile(cmc1.alpha_star)


@pytest.fixture(scope="module")
def conj2(cmc2):
    return conjugate_profile(cmc2.alpha_star)


def cayley_to_halfplane(w):
    """Disk -> half-plane sending (0,-1) to 0 and (0,1) to infinity;
    consistent with (X1/(X3 - X2), 1/(X3 - X2)) on the hyperboloid."""
    w = np.asarray(w, dtype=complex)
    return (2 * w.real + 1j * (1 - np.abs(w) ** 2)) / np.abs(w - 1j) ** 2


class TestBuild:
    def test_alpha_star(self, cmc1):
        assert cmc1.alpha_star == pytest.approx(math.sqrt(2.0), abs=0)
        assert cmc1.alpha_star_sq - cmc1.alpha ** 2 == 1.0

    def test_half_periods_agree(self, cmc1, cmc2, conj1, conj2):
        assert abs(cmc1.U - conj1.U) <= 1e-9
        assert abs(cmc2.U - conj2.U) <= 1e-9

    def test_cosh_omega_at_origin(self, cmc1, conj1):
        # both expressions equal sqrt(alpha^2 + 1) at u = 0
        pv = cmc1.profile.eval(0.0)
        phis = conj1.eval(0.0).phi
        assert float(-pv.phiprime) == pytest.approx(math.sqrt(2), rel=1e-14)
        assert cmc1.alpha_star / float(np.cos(phis)) == pytest.approx(
            math.sqrt(2), rel=1e-14)

    def test_cosh_omega_identity_on_grid(self, cmc1, conj1):
        u = np.linspace(-2 * cmc1.U, 2 * cmc1.U, 1000)
        pv = cmc1.profile.eval(u)
        phis = conj1.eval(u).phi
        r = np.abs(np.abs(pv.phiprime) * np.cos(phis)
                   - cmc1.alpha_star * np.cos(pv.phi))
        assert np.max(r) <= 1e-8

    def test_conjugate_profile_ode(self, conj1):
        u = np.linspace(-3, 3, 500)
        cv = conj1.eval(u)
        assert float(conj1.eval(0.0).phi) == 0.0
        assert np.all(cv.phiprime < 0)
        assert np.max(np.abs(cv.phiprime ** 2 - conj1.params.alpha ** 2
                             + np.cos(cv.phi) ** 2)) <= 1e-12
        # quasi-period law
        a, b = conj1.eval(u), conj1.eval(u + conj1.U)
        assert np.max(np.abs(b.phi - a.phi + math.pi)) <= 1e-12

    def test_one_profile(self, cmc1):
        # phi* comes from the conjugacy identity; the conjugate profile is
        # built only where the identities are checked
        assert not hasattr(cmc1, "conjugate")

    def test_w_check_limit(self):
        # at alpha 1000 the fixed step h = 1e-5 leaves both W candidates at
        # 1.16e-4 > 1e-5: the build raises on phi'/cos phi alone
        with pytest.raises(DomainError, match="W=phi'/cos"):
            build_cmc_annulus(1000.0)
        prof = build_helicoid(1000.0).profile
        u = np.linspace(-2 * prof.U, 2 * prof.U, 1001)
        u = u[np.abs(np.cos(prof.eval(u).phi)) > 0.3]
        h = 1e-5
        u5 = np.add.outer(h * STENCIL5, u)
        a_s = math.sqrt(1000.0 ** 2 + 1.0)
        W5 = a_s / np.cos(conjugate_profile(a_s).eval(u5).phi)
        assert w_equation_residual(W5, 1000.0, h) > 1e-5

    def test_bad_alpha(self):
        with pytest.raises(DomainError):
            build_cmc_annulus(-2.0)
        with pytest.raises(DomainError):
            conjugate_profile(0.9)
        with pytest.raises(DomainError):
            conjugate_profile(1.0)


class TestClosedFormPhiStar:
    """sin phi* = alpha sin phi / |phi'|, from |phi'| cos phi* = alpha*
    cos phi and phi'^2 = alpha^2 + cos^2 phi, against the conjugate profile
    solved on its own.  The conjugate solves for alpha_eff = sqrt(fl(alpha*)^2
    - 1), whose relative error is about eps/alpha^2; the bound allows the
    profiles' dense-output TOL on top of that."""

    @pytest.mark.parametrize("alpha", [0.005, 0.02, 1.0, 100.0, 1000.0])
    def test_matches_conjugate_profile(self, alpha):
        # the helicoid's profile: build_cmc_annulus(1000) raises
        prof = build_helicoid(alpha).profile
        conj = conjugate_profile(math.sqrt(alpha ** 2 + 1.0))
        u = np.linspace(-2 * prof.U, 2 * prof.U, 4001)
        pv = prof.eval(u)
        closed = alpha * np.sin(pv.phi) / np.abs(pv.phiprime)
        tol = TOL + 4 * np.finfo(float).eps / alpha ** 2
        assert np.max(np.abs(closed - np.sin(conj.eval(u).phi))) <= tol

    @pytest.mark.parametrize("alpha", [0.005, 1.0])
    def test_lift_uses_closed_form(self, alpha):
        # X1 = cosh(alpha v) sin(phi*) f(u) with the closed-form sin phi*
        m = build_cmc_annulus(alpha)
        rng = np.random.default_rng(12)
        u = rng.uniform(-m.U, m.U, 300)
        v = rng.uniform(-1.0, 1.0, 300) * min(1.0, 6.0 / alpha)
        pv = m.profile.eval(u)
        sin_star = alpha * np.sin(pv.phi) / np.abs(pv.phiprime)
        X1 = np.cosh(alpha * v) * sin_star * m.f_of_u(u)
        assert np.max(np.abs(m.hyperboloid_point(u, v)[..., 0] - X1)) \
            <= 1e-14 * max(1.0, float(np.max(np.abs(X1))))


class TestConjugateProfile:
    """The conjugate comes from the one profile solver on the quartic
    alpha*^2 - x^2; it must agree with the cubic-spline solver it replaced
    (oracles.SplineProfile) within TOL, the dense-output bound both
    certify.  tests/test_profile.py checks it against Jacobi elliptic
    functions."""

    @pytest.mark.parametrize("alpha", [0.2, 0.7, 1.0, 3.0, 37.0, 100.0])
    def test_matches_spline_oracle_within_tol(self, alpha):
        a_s = math.sqrt(alpha ** 2 + 1.0)
        got = conjugate_profile(a_s)
        ref = oracles.SplineProfile(a_s, -1.0, 0.0)
        assert abs(got.U - ref.U) <= TOL
        rng = np.random.default_rng(int(alpha * 10))
        u = np.concatenate([rng.uniform(-5 * ref.U, 5 * ref.U, 20000),
                            ref.u_nodes])
        cv = got.eval(u)
        phi = ref.eval(u)[0]
        assert np.max(np.abs(cv.phi - phi)) <= TOL
        assert np.max(np.abs(cv.phiprime
                             + np.sqrt(a_s ** 2 - np.cos(phi) ** 2))) <= TOL
        assert got.interp_error <= TOL


class TestHeightField:
    def test_vanishes_on_level_curves(self, cmc1):
        v = np.linspace(-1.5, 1.5, 9)
        assert np.max(np.abs(cmc1.hstar(cmc1.U / 2, v))) <= 1e-12
        assert np.max(np.abs(cmc1.hstar(-cmc1.U / 2, v))) <= 1e-12

    def test_value_at_origin(self, cmc1):
        expected = 1.0 / (1.0 * (-math.sqrt(2.0) - 1.0))
        assert float(cmc1.hstar(0.0, 0.0)) == pytest.approx(expected,
                                                            rel=1e-14)

    def test_two_closed_forms_agree(self, cmc1, conj1):
        # h* in source-profile data equals h* in conjugate-profile data
        rng = np.random.default_rng(2)
        u = rng.uniform(-2, 2, 200)
        v = rng.uniform(-1.5, 1.5, 200)
        cv = conj1.eval(u)
        alt = np.cos(cv.phi) * np.cosh(cmc1.alpha * v) \
            / (cmc1.alpha * (cv.phiprime - cmc1.alpha_star))
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

    def test_f_matches_printed_quotient(self, cmc1, cmc2, conj1, conj2):
        # the stable form must reproduce the literal formula away from the
        # removable singularity
        for m, conj in ((cmc1, conj1), (cmc2, conj2)):
            u = np.linspace(-0.35 * m.U, 0.35 * m.U, 301)
            printed = oracles.f_printed(m, conj, u)
            assert np.max(np.abs(m.f_of_u(u) - printed)) <= 1e-10

    def test_f_limit_from_printed_quotient(self, cmc1, conj1):
        # the printed formula itself tends to gamma as cos phi -> 0
        s = np.array([0.04, 0.02, 0.01, 0.005]) / cmc1.alpha
        vals = oracles.f_printed(cmc1, conj1, cmc1.U / 2 - s)
        gaps = np.abs(vals - cmc1.gamma)
        assert gaps[-1] <= 1e-4
        assert np.all(np.diff(gaps) < 0)

    def test_gamma_shift_bound(self, cmc1, cmc2):
        for m in (cmc1, cmc2):
            a, a_s = m.alpha, m.alpha_star
            assert m.gamma + a_s / a == pytest.approx(
                (2 * a * a + 1) / (2 * a * a_s), rel=1e-14)
            assert m.gamma + a_s / a >= 1.0

    def test_stable_lift_matches_printed_block(self, cmc1, cmc2, conj1,
                                               conj2):
        rng = np.random.default_rng(8)
        for m, conj in ((cmc1, conj1), (cmc2, conj2)):
            u = rng.uniform(-m.U / 2, m.U / 2, 200)
            v = rng.uniform(-1.2, 1.2, 200)
            d = np.abs(m.hyperboloid_point(u, v)
                       - m.hyperboloid_point_printed(conj, u, v))
            assert np.max(d) <= 1e-10

    def test_annulus_point_at_origin(self, cmc1):
        disk = complex(cmc1.disk_point(0.0, 0.0))
        assert disk.imag == pytest.approx(0.0, abs=1e-15)  # X2 = 0
        assert float(cmc1.hstar(0.0, 0.0)) == pytest.approx(
            1.0 / (-math.sqrt(2) - 1), rel=1e-14)
        assert abs(disk) < 1

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
        disk = cmc1.disk_point(np.full_like(v, -cmc1.U / 2), v)
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
        assert oracles.boundary_edge_count(mesh.faces) == 2 * (2 * 48 - 2)

    @pytest.mark.parametrize("nu,nv", [(16, 2), (24, 12), (100, 50)])
    def test_faces_match_cell_loop(self, cmc1, nu, nv):
        mesh = reflect_and_mesh(cmc1, nu=nu, nv=nv, v_range=(-1.0, 1.0))
        assert mesh.faces.dtype == np.int64
        assert np.array_equal(mesh.faces, oracles.reflect_faces(nu, nv))

    def test_one_profile_evaluation(self, cmc1, monkeypatch):
        calls = {"profile": 0}

        def counting(name, fn):
            def wrapped(u):
                calls[name] += 1
                return fn(u)
            return wrapped

        monkeypatch.setattr(cmc1.profile, "eval",
                            counting("profile", cmc1.profile.eval))
        reflect_and_mesh(cmc1, nu=64, nv=32, v_range=(-1.0, 1.0))
        assert calls == {"profile": 1}

    def test_xyz_equals_disk_point_and_height(self, cmc1):
        rng = np.random.default_rng(11)
        u = rng.uniform(-cmc1.U, cmc1.U, (7, 9))
        v = rng.uniform(-1.0, 1.0, 9)
        disk = cmc1.disk_point(u, v)
        h = np.broadcast_to(cmc1.hstar(u, v), disk.shape)
        assert np.array_equal(cmc1.xyz(u, v),
                              np.stack([disk.real, disk.imag, h], axis=-1))

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
