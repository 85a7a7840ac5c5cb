import dataclasses
import math

import numpy as np
import pytest

import nilcat.catenoid as cat_mod
from nilcat import verify
from nilcat.nil3 import ResidualReport
from nilcat.period import L_integral, find_theta_tilde
from nilcat.profile import AnnulusParams
from nilcat.verify import run_verification


def test_all_pass_at_alpha_1_3():
    # alpha^2 + 1 - alpha^2 != 1 in float64 here; the defining relation of
    # alpha_star must be judged up to rounding
    rep = run_verification(1.3)
    assert rep.all_pass(), rep.failures()
    assert rep.entries["cmc.alpha_star_defining_relation"]["pass"]


def test_one_theta_solve(monkeypatch):
    calls = []

    def counting(alpha, tol=1e-11):
        calls.append(alpha)
        return find_theta_tilde(alpha, tol=tol)

    monkeypatch.setattr(cat_mod, "find_theta_tilde", counting)
    run_verification(2.0)
    assert calls == [2.0]


def _ladder_check(alpha):
    report = ResidualReport()
    verify._period_checks(report, alpha, find_theta_tilde(alpha), 1e-11)
    return report.entries["period.L_increasing_ladder"]


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
