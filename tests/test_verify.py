import dataclasses
import math

import numpy as np
import pytest

import nilcat.catenoid as cat_mod
import nilcat.cmc as cmc_mod
import nilcat.helicoid as heli_mod
from nilcat import verify
from nilcat.nil3 import ResidualReport
from nilcat.period import L_integral, appendix_I_decomposition, \
    find_theta_tilde
from nilcat.profile import AnnulusParams, solve_profile
from nilcat.verify import run_verification


def test_all_pass_at_alpha_1_3():
    # alpha^2 + 1 - alpha^2 != 1 in float64 here; the defining relation of
    # alpha_star must be judged up to rounding
    rep = run_verification(1.3)
    assert rep.all_pass(), rep.failures()
    assert rep.entries["cmc.alpha_star_defining_relation"]["pass"]


def test_all_pass_at_alpha_0_05():
    # a fixed 4096-cell cubic-spline grid raised here
    rep = run_verification(0.05)
    assert rep.all_pass(), rep.failures()


def test_all_pass_at_alpha_0_02():
    # a fixed identity step h = 1e-5 failed G_second here (1.75e-8 > 1e-8)
    rep = run_verification(0.02)
    assert rep.all_pass(), rep.failures()


def test_hyperboloid_lift_at_alpha_0_005():
    # sin phi* read from the conjugate profile left 3.2e-8 > 1e-8 here; its
    # error is multiplied by about 1/alpha^2 in the lift residual
    rep = run_verification(0.005)
    assert rep.entries["cmc.hyperboloid_lift"]["pass"]
    assert rep.entries["cmc.hyperboloid_lift"]["residual"] <= 1e-10


def test_conjugacy_checks_in_verify():
    # the identities between the profile and the conjugate profile, checked
    # by verify since the model samples one profile
    rep = run_verification(1.0)
    for name, threshold in (("cmc.half_period_match", 1e-9),
                            ("cmc.cosh_omega_identity", 1e-8),
                            ("cmc.tau_identity", 1e-8),
                            ("cmc.W_equation_conjugate", 1e-5),
                            ("cmc.lift_matches_printed_block", 1e-9)):
        assert rep.entries[name]["threshold"] == threshold
        assert rep.entries[name]["pass"], name


def test_one_theta_solve(monkeypatch):
    calls = []

    def counting(alpha, tol=1e-11):
        calls.append(alpha)
        return find_theta_tilde(alpha, tol=tol)

    monkeypatch.setattr(cat_mod, "find_theta_tilde", counting)
    run_verification(2.0)
    assert calls == [2.0]


def test_three_profile_builds(monkeypatch):
    # the catenoid's at theta_tilde, one theta = 0 profile that the
    # helicoid and the CMC annulus share, and the conjugate one, built by
    # verify to check the conjugacy identities
    builds = []

    def counting(params):
        builds.append((type(params).__name__,
                       getattr(params, "theta", None)))
        return solve_profile(params)

    for mod in (cat_mod, cmc_mod, heli_mod):
        monkeypatch.setattr(mod, "solve_profile", counting)
    heli_mod.build_helicoid.cache_clear()
    try:
        run_verification(1.0)
    finally:
        heli_mod.build_helicoid.cache_clear()
    assert len(builds) == 3
    assert builds.count(("AnnulusParams", 0.0)) == 1


def _period_report(alpha):
    report = ResidualReport()
    verify._period_checks(report, cat_mod.build_catenoid(alpha))
    return report


def _ladder_check(alpha):
    return _period_report(alpha).entries["period.L_increasing_ladder"]


@pytest.mark.parametrize("alpha", [0.7, 0.705])
def test_L_ladder_holds_on_resolved_values(alpha):
    # near alpha = 1/sqrt(2) the top rung at theta_plus - 1e-6 does not
    # converge in 2^16 nodes; every step must still beat both rungs' errors
    hi = min(AnnulusParams(alpha, 0.0).theta_plus - 1e-6, math.pi / 4)
    rungs = [L_integral(AnnulusParams(alpha, t))
             for t in np.linspace(0.0, hi, 8)]
    err = [r.quadrature_error_estimate for r in rungs]
    for k in range(7):
        assert rungs[k + 1].L - rungs[k].L > err[k] + err[k + 1]
    assert _ladder_check(alpha)["pass"]


def test_L_ladder_fails_when_errors_swamp_the_steps(monkeypatch):
    def noisy(params, *args, **kwargs):
        r = L_integral(params, *args, **kwargs)
        return dataclasses.replace(r, quadrature_error_estimate=100.0,
                                   converged=False)

    monkeypatch.setattr(verify, "L_integral", noisy)
    assert _ladder_check(0.7)["pass"] is False


@pytest.mark.parametrize("alpha", [0.2, 0.7, 1.0, 7.0, 100.0])
def test_period_constants_match_profile(alpha):
    entry = _period_report(alpha).entries["period.constants_match_profile"]
    assert entry["pass"] and entry["threshold"] == 1e-12


def test_unconverged_constants_fail_their_checks(monkeypatch):
    def unconverged(*args, **kwargs):
        return dataclasses.replace(appendix_I_decomposition(*args, **kwargs),
                                   converged=False)

    monkeypatch.setattr(verify, "appendix_I_decomposition", unconverged)
    entries = _period_report(1.0).entries
    for name in ("period.I_split_identity", "period.I2_lower_bound",
                 "period.constants_match_profile"):
        assert entries[name]["pass"] is False, name


def test_unconverged_L_fails_root_checks(monkeypatch):
    # the root residual and the sign at theta = 0 come from L passes too;
    # an unconverged pass leaves them unresolved, and they fail
    def unconverged(params, *args, **kwargs):
        return dataclasses.replace(L_integral(params, *args, **kwargs),
                                   converged=False)

    monkeypatch.setattr(verify, "L_integral", unconverged)
    entries = _period_report(1.0).entries
    for name in ("period.root_residual", "period.L_negative_at_theta_zero"):
        assert entries[name]["pass"] is False, name
