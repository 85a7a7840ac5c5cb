import nilcat.catenoid as cat_mod
from nilcat.period import find_theta_tilde
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
