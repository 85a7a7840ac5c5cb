import json

import numpy as np
import pytest

import nilcat.catenoid as cat_mod
import nilcat.cli as cli_mod
from nilcat.cli import JobConfig, UsageError, config_from_args, build_parser, main
from nilcat.meshes import euler_characteristic, read_obj, read_ply
from nilcat.nil3 import ResidualReport
from nilcat.period import find_theta_tilde


def run_cli(*argv):
    return main(list(argv))


class TestConfig:
    def test_defaults(self):
        args = build_parser().parse_args(["verify"])
        cfg = config_from_args(args)
        assert cfg.alphas == [1.0] and cfg.tol == 1e-11

    def test_tol_band(self):
        cfg = JobConfig(command="verify", tol=1e-3)
        with pytest.raises(UsageError):
            cfg.validate()
        with pytest.raises(UsageError):
            JobConfig(command="verify", tol=1e-15).validate()

    def test_resolution_floor(self):
        with pytest.raises(UsageError):
            JobConfig(command="mesh-catenoid", nu=8, out="x.obj").validate()

    def test_mesh_needs_out(self):
        with pytest.raises(UsageError):
            JobConfig(command="mesh-catenoid").validate()

    def test_sweep_parsing(self):
        args = build_parser().parse_args(
            ["solve-period", "--alpha-sweep", "1:2:3"])
        cfg = config_from_args(args)
        assert cfg.alphas == [1.0, 1.5, 2.0]


class TestCommands:
    def test_solve_period_json(self, tmp_path, capsys):
        out = tmp_path / "period.json"
        assert run_cli("solve-period", "--alpha", "1", "--out", str(out)) == 0
        rec = json.loads(out.read_text())
        assert rec["alpha"] == 1.0
        assert abs(rec["L_residual"]) <= 1e-10
        assert 0 < rec["theta_tilde"] < 0.7853981633974483

    def test_solve_period_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("solve-period", "--alpha-sweep", "0.5:2:3",
                       "--format", "csv", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha,theta_tilde,L_residual,I1,I2,I3"
        assert len(lines) == 4

    def test_mesh_catenoid_obj(self, tmp_path):
        out = tmp_path / "cat.obj"
        assert run_cli("mesh-catenoid", "--alpha", "1", "--nu", "32",
                       "--nv", "16", "--v-range", "-2:2",
                       "--out", str(out)) == 0
        mesh = read_obj(out)
        assert mesh.n_vertices == 32 * 16
        assert euler_characteristic(mesh) == 0

    def test_mesh_cmc_ply(self, tmp_path):
        out = tmp_path / "ann.ply"
        assert run_cli("mesh-cmc", "--alpha", "1", "--nu", "24", "--nv", "12",
                       "--v-range", "-1.5:1.5", "--format", "ply",
                       "--out", str(out)) == 0
        assert euler_characteristic(read_ply(out)) == 0

    def test_mesh_helicoid(self, tmp_path):
        out = tmp_path / "heli.obj"
        assert run_cli("mesh-helicoid", "--alpha", "1.5", "--nu", "24",
                       "--nv", "8", "--out", str(out)) == 0
        assert read_obj(out).n_vertices == 24 * 8

    def test_section_csv(self, tmp_path):
        out = tmp_path / "sec.csv"
        assert run_cli("section", "--alpha", "1", "--section-c", "-0.5",
                       "--samples", "256", "--out", str(out)) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (256, 5)

    def test_limit_study(self, tmp_path):
        out = tmp_path / "lim.csv"
        assert run_cli("limit-study", "--alpha-sweep", "10:100:2",
                       "--out", str(out)) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows[1, 1] < rows[0, 1]  # waist extent shrinks with alpha

    def test_usage_error_exit_2(self):
        assert run_cli("solve-period", "--alpha", "-3") == 2
        assert run_cli("mesh-catenoid", "--alpha", "1") == 2
        assert run_cli("verify", "--tol", "0.1") == 2

    @pytest.mark.parametrize("argv", [
        ["solve-period", "--alpha", "nan"],
        ["solve-period", "--alpha", "inf"],
        ["solve-period", "--alpha-sweep", "1:inf:3"],
        ["solve-period", "--alpha-sweep", "nan:2:3"],
        ["verify", "--tol", "nan"],
        ["section", "--v-range", "-inf:2"],
        ["section", "--v-range", "0:nan"],
        ["section", "--section-c", "nan"],
        ["section", "--section-c", "-inf"],
        ["section", "--samples", "3"],
    ])
    def test_bad_numbers_exit_2(self, argv, capsys):
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.startswith("usage error:")

    def test_one_theta_solve_per_alpha(self, tmp_path, monkeypatch):
        calls = []

        def counting(alpha, tol=1e-11):
            calls.append(alpha)
            return find_theta_tilde(alpha, tol=tol)

        # a threaded sweep would append in completion order
        monkeypatch.setenv("NILCAT_THREADS", "1")
        monkeypatch.setattr(cat_mod, "find_theta_tilde", counting)
        assert run_cli("solve-period", "--alpha-sweep", "0.5:2:3",
                       "--format", "csv", "--out",
                       str(tmp_path / "s.csv")) == 0
        assert calls == [0.5, 1.25, 2.0]

    def test_verify_exit_codes(self, tmp_path, monkeypatch):
        out = tmp_path / "rep.json"
        assert run_cli("verify", "--alpha", "1", "--out", str(out)) == 0
        rep = json.loads(out.read_text())
        entries = rep["alpha=1"]
        assert entries and all(e["pass"] for e in entries.values())

        failing = ResidualReport()
        failing.add("synthetic", 1.0, threshold=1e-9)
        monkeypatch.setattr(cli_mod, "run_verification",
                            lambda a, tol: failing)
        assert run_cli("verify", "--alpha", "1") == 1


class TestDeterminism:
    def test_solve_period_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("solve-period", "--alpha", "1.5", "--out", str(a))
        run_cli("solve-period", "--alpha", "1.5", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_section_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("section", "--alpha", "2", "--samples", "128", "--out", str(a))
        run_cli("section", "--alpha", "2", "--samples", "128", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_thread_env_does_not_change_output(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("solve-period", "--alpha-sweep", "1:2:3", "--format", "csv",
                "--out", str(a))
        monkeypatch.setenv("NILCAT_THREADS", "3")
        run_cli("solve-period", "--alpha-sweep", "1:2:3", "--format", "csv",
                "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
