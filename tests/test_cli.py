import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import nilcat.catenoid as cat_mod
import nilcat.cli as cli_mod
import nilcat.cmc as cmc_mod
import nilcat.helicoid as heli_mod
from nilcat.cli import COMMANDS, JobConfig, UsageError, config_from_args, \
    build_parser, main
from nilcat.meshes import euler_characteristic, read_obj, read_ply
from nilcat.nil3 import ResidualReport
from nilcat.period import find_theta_tilde
from nilcat.profile import solve_profile


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


class TestParser:
    def test_help_lists_every_command(self):
        src = os.path.dirname(os.path.dirname(cli_mod.__file__))
        out = subprocess.run([sys.executable, "-m", "nilcat.cli", "--help"],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0
        for name in COMMANDS:
            assert name in out.stdout

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mesh-torus", "--alpha", "1"])
        assert exc.value.code == 2

    def test_options_before_command(self):
        tail = ["--alpha-sweep", "1:2:3", "--v-range", "-3:1", "--format",
                "csv", "--samples", "64"]
        before = build_parser().parse_args(
            cli_mod._glue_dash_values(tail + ["section"]))
        after = build_parser().parse_args(
            cli_mod._glue_dash_values(["section"] + tail))
        assert vars(before) == vars(after)
        assert config_from_args(before) == config_from_args(after)


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

    def test_far_section_curvature_finite(self, tmp_path):
        # the points there are about 1e162, and |gamma'|^2 overflowed to
        # inf before the derivatives were scaled: every curvature was nan
        out = tmp_path / "sec.csv"
        assert run_cli("section", "--alpha", "10", "--section-c", "1.9",
                       "--out", str(out)) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (1024, 5)
        assert np.all(np.isfinite(rows))
        assert np.max(np.abs(rows[:, 1:3])) > 1e150
        assert np.all(rows[:, 4] > 0)

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
        ["solve-period", "--alpha-sweep", "1:2:x"],
        ["solve-period", "--alpha-sweep", "1:2:2.5"],
        ["section", "--v-range", "a:b"],
    ])
    def test_bad_numbers_exit_2(self, argv, capsys):
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.startswith("usage error:")

    def test_sweep_count_capped_before_allocating(self, monkeypatch, capsys):
        # 10^11 alphas would ask np.linspace for 745 GiB
        def no_linspace(*args, **kwargs):
            raise AssertionError("np.linspace reached")

        monkeypatch.setattr(cli_mod.np, "linspace", no_linspace)
        for n in (cli_mod.MAX_SWEEP + 1, 10 ** 11):
            assert run_cli("solve-period", "--alpha-sweep", f"1:2:{n}") == 2
            assert capsys.readouterr().err.startswith("usage error:")
        monkeypatch.undo()
        assert len(cli_mod._parse_sweep(f"1:2:{cli_mod.MAX_SWEEP}")) \
            == cli_mod.MAX_SWEEP

    def test_sweep_alphas_are_python_floats(self):
        # the same doubles as np.linspace, so the root search runs on
        # Python floats rather than numpy scalars
        alphas = cli_mod._parse_sweep("0.2:100:7")
        assert [type(a) for a in alphas] == [float] * 7
        assert [a.hex() for a in alphas] \
            == [float(a).hex() for a in np.linspace(0.2, 100.0, 7)]

    def test_sweep_cap_in_help(self, capsys):
        with pytest.raises(SystemExit):
            cli_mod.main(["--help"])
        assert str(cli_mod.MAX_SWEEP) in capsys.readouterr().out

    def test_one_theta_solve_per_alpha(self, tmp_path, monkeypatch):
        calls = []

        def counting(alpha, tol=1e-11):
            calls.append(alpha)
            return find_theta_tilde(alpha, tol=tol)

        monkeypatch.setattr(cli_mod, "find_theta_tilde", counting)
        assert run_cli("solve-period", "--alpha-sweep", "0.5:2:3",
                       "--format", "csv", "--out",
                       str(tmp_path / "s.csv")) == 0
        assert calls == [0.5, 1.25, 2.0]

    def test_mesh_cmc_one_profile_build(self, tmp_path, monkeypatch):
        # the annulus samples the theta = 0 profile alone; the conjugate
        # profile is built only by verify
        builds = []

        def counting(params):
            builds.append(params)
            return solve_profile(params)

        for mod in (cat_mod, cmc_mod, heli_mod):
            monkeypatch.setattr(mod, "solve_profile", counting)
        heli_mod.build_helicoid.cache_clear()
        try:
            assert run_cli("mesh-cmc", "--alpha", "1.7", "--nu", "24",
                           "--nv", "12", "--format", "ply",
                           "--out", str(tmp_path / "m.ply")) == 0
        finally:
            heli_mod.build_helicoid.cache_clear()
        assert len(builds) == 1
        assert builds[0].theta == 0.0

    @pytest.mark.parametrize("argv", [
        ["mesh-catenoid", "--out", "m.obj"],
        ["section", "--out", "s.csv"],
        ["mesh-cmc", "--format", "ply", "--out", "m.ply"],
        ["mesh-helicoid", "--out", "m.obj"],
    ])
    def test_small_alpha_builds(self, tmp_path, argv):
        # a fixed 4096-cell cubic-spline profile raised at alpha 0.05
        argv = argv[:-1] + [str(tmp_path / argv[-1])]
        assert run_cli(*argv, "--alpha", "0.05") == 0
        assert (tmp_path / argv[-1]).stat().st_size > 0

    def test_parser_built_once(self, monkeypatch):
        def rebuilt():
            raise AssertionError("main rebuilt the parser")

        monkeypatch.setattr(cli_mod, "build_parser", rebuilt)
        assert run_cli("solve-period", "--alpha", "1.5") == 0

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

    # SHA-256 of these artifacts as recorded before the period pass wrote
    # its rows into one preallocated block (numpy 2.4, Python 3.11, x86-64)
    @pytest.mark.parametrize("argv, digest", [
        (["--alpha-sweep", "0.2:100:200", "--format", "csv"],
         "0e997c58b3d145b91421556251bd8ca6087847f6020eb45533a1ddcd7378219c"),
        (["--alpha", "1.5"],
         "2ddfd3403332a84656eb551cffaebf5077aa52e04477dccfe2f75f56bc74b11c"),
    ])
    def test_solve_period_golden_bytes(self, tmp_path, argv, digest):
        out = tmp_path / "out"
        assert run_cli("solve-period", *argv, "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_section_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("section", "--alpha", "2", "--samples", "128", "--out", str(a))
        run_cli("section", "--alpha", "2", "--samples", "128", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
