import numpy as np
import pytest

from nilcat import RangeError
from nilcat.helicoid import build_helicoid, mesh_helicoid, ruling_residual
from nilcat.meshes import euler_characteristic
from nilcat.nil3 import mean_curvature_nil3


@pytest.fixture(scope="module")
def heli():
    return build_helicoid(1.5)


class TestPoints:
    def test_axis_at_v_zero(self, heli):
        u = np.linspace(-3, 3, 11)
        y = heli.y_coords(u, np.zeros_like(u))
        assert np.max(np.abs(y[:, 0])) == 0.0
        assert np.max(np.abs(y[:, 2])) == 0.0
        assert np.max(np.abs(y[:, 1] + heli.profile.eval(u).G)) == 0.0

    def test_horizontal_line_at_u_zero(self, heli):
        v = np.linspace(-1.5, 1.5, 9)
        y = heli.y_coords(np.zeros_like(v), v)
        assert np.max(np.abs(y[:, 1])) == 0.0  # y2 = -G(0) = 0
        assert np.max(np.abs(y[:, 2])) == 0.0  # slope -tan(0) = 0

    def test_slope_identity(self, heli):
        rng = np.random.default_rng(17)
        u = rng.uniform(-2, 2, 40)
        v = rng.uniform(0.2, 1.5, 40)
        y = heli.y_coords(u, v)
        phi = heli.profile.eval(u).phi
        ok = np.abs(np.cos(phi)) > 0.3
        assert np.max(np.abs(y[ok, 2] / y[ok, 0] + np.tan(phi[ok]))) <= 1e-12

    def test_theta_zero_profile_degeneration(self, heli):
        assert heli.profile.params.C == 0.0
        u = np.linspace(-4, 4, 33)
        assert np.max(np.abs(heli.profile.eval(u).beta)) == 0.0

    def test_point_helper(self):
        assert build_helicoid(1.5).xyz(0.0, 0.0).tolist() == [0.0, 0.0, 0.0]

    def test_overflow_guard(self, heli):
        with pytest.raises(RangeError):
            heli.xyz(0.0, 600.0)


class TestRulings:
    @pytest.mark.parametrize("c", [-2.0, -0.5, 0.0, 0.5, 2.0])
    def test_line_fit_residual(self, c):
        assert ruling_residual(1.5, c, samples=64) <= 1e-9

    @pytest.mark.parametrize("alpha", [0.2, 1.0, 1.5, 37.0])
    def test_u_of_y2_inverts_G(self, alpha):
        # the c values the verify suite probes
        model = build_helicoid(alpha)
        for k in (-2.0, -0.5, 0.0, 0.5, 2.0):
            c = k * abs(model.profile.GU)
            u_c = model.u_of_y2(c)
            assert abs(float(model.profile.eval(u_c).G) + c) <= 1e-10
        assert model.u_of_y2(0.0) == 0.0

    def test_y2_independent_of_v_exactly(self, heli):
        v = np.linspace(-2, 2, 17)
        y = heli.y_coords(np.full_like(v, 0.8), v)
        assert np.ptp(y[:, 1]) == 0.0

    def test_line_through_plane_point(self, heli):
        # ruling at c = 0 passes through the origin with slope -tan(phi(0)) = 0
        y = heli.y_coords(0.0, 0.7)
        assert abs(y[2]) == 0.0

    def test_quasi_period_shift(self, heli):
        rng = np.random.default_rng(23)
        u = rng.uniform(-2, 2, 30)
        v = rng.uniform(-1.5, 1.5, 30)
        a = heli.y_coords(u, v)
        b = heli.y_coords(u + 2 * heli.U, v)
        shift = np.zeros(3)
        shift[1] = -2 * heli.profile.GU
        assert np.max(np.abs(b - (a + shift))) <= 1e-10


class TestMinimality:
    def test_mean_curvature_random(self, heli):
        rng = np.random.default_rng(19)
        H = mean_curvature_nil3(heli, rng.uniform(-2, 2, 60),
                                rng.uniform(-1.5, 1.5, 60))
        assert np.max(np.abs(H)) <= 1e-4


class TestMesh:
    def test_open_patch_topology(self, heli):
        mesh = mesh_helicoid(heli, (-1.5, 1.5), 32, 16)
        assert euler_characteristic(mesh) == 1  # a disk
        assert mesh.n_vertices == 32 * 16
