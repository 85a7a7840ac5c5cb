"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single [criterion NN] PASS/FAIL line (run with -s to see
them on success); the assertion carries the same numbers.
"""

import math

import numpy as np
import pytest

from nilcat import AnnulusParams, identity_residuals, quartic_P
from nilcat.catenoid import (
    graph_patch,
    limit_deviation,
    mesh_catenoid,
    period_closure_residual,
    remarkable_curves,
    section_curve,
    waist_extent,
)
from nilcat.cli import main as cli_main
from nilcat.cmc import (
    build_cmc_annulus,
    conjugate_profile,
    halfplane_curve,
    mean_curvature_h2xr,
)
from nilcat.helicoid import build_helicoid, ruling_residual
from nilcat.meshes import euler_characteristic, read_obj, read_ply, write_mesh
from nilcat.nil3 import (
    first_fundamental_form,
    gauss_map_and_residuals,
    graph_pde_residual,
    mean_curvature_nil3,
    to_y,
)
from nilcat.period import L_integral, appendix_I_decomposition, find_theta_tilde


def report(num, name, worst, tol, ok=None):
    ok = (worst <= tol) if ok is None else ok
    print(f"[criterion {num:02d}] {name}: worst {worst:.3e} vs tol {tol:.0e} "
          f"-> {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {worst} > {tol}"


@pytest.fixture(scope="module")
def cmc_pair():
    return {1.0: build_cmc_annulus(1.0), 2.0: build_cmc_annulus(2.0)}


def test_criterion_01_profile_laws(cat_models):
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        prof = cat_models(alpha).profile
        u = np.linspace(-3 * prof.U, 3 * prof.U, 1000)
        a, b, m = prof.eval(u), prof.eval(u + prof.U), prof.eval(-u)
        worst = max(
            worst,
            float(np.max(np.abs(b.phi - a.phi + math.pi))),
            float(np.max(np.abs(b.beta - a.beta - prof.betaU))),
            float(np.max(np.abs(b.G - a.G - prof.GU))),
            float(np.max(np.abs(m.phi + a.phi))),
            float(np.max(np.abs(m.beta + a.beta))),
            float(np.max(np.abs(m.G + a.G))),
        )
        h = 1e-3
        fd = (prof.eval(u - 2 * h).phi - 8 * prof.eval(u - h).phi
              + 8 * prof.eval(u + h).phi - prof.eval(u + 2 * h).phi) / (12 * h)
        worst = max(worst, float(np.max(np.abs(
            fd ** 2 - quartic_P(prof.params, np.cos(a.phi))))))
        half = prof.eval(prof.U / 2)
        worst = max(worst,
                    abs(float(half.phi) + math.pi / 2),
                    abs(float(half.beta) - prof.betaU / 2),
                    abs(float(half.G) - prof.GU / 2))
    report(1, "profile quasi-period/oddness/ODE/midpoint laws", worst, 1e-9)


def test_criterion_02_identity_suite(cat_models):
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        prof = cat_models(alpha).profile
        grid = np.linspace(-3 * prof.U, 3 * prof.U, 1000)
        for _name, (r, _loc) in identity_residuals(prof, grid, h=1e-5).items():
            worst = max(worst, r)
    report(2, "five differential identities (5-point stencils)", worst, 1e-8)


def test_criterion_03_period_root():
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0, 5.0, 100.0):
        tt = find_theta_tilde(alpha).theta
        worst = max(worst, abs(L_integral(AnnulusParams(alpha, tt)).L))
    ok = worst <= 1e-10
    for alpha in (0.5, 1.0, 2.0, 5.0, 100.0):
        ok = ok and L_integral(AnnulusParams(alpha, 0.0)).L < 0
    for alpha in (0.5, 1.0, 3.0):
        hi = min(AnnulusParams(alpha, 0.0).theta_plus - 1e-6, math.pi / 4)
        ladder = [L_integral(AnnulusParams(alpha, t)).L
                  for t in np.linspace(0.0, hi, 10)]
        ok = ok and bool(np.all(np.diff(ladder) > 0))
    gaps = [math.pi / 4 - find_theta_tilde(a).theta
            for a in (5, 10, 20, 50, 100)]
    ok = ok and gaps[-1] <= 1e-3 and all(x > y for x, y in zip(gaps, gaps[1:]))
    report(3, "period root, sign structure, pi/4 limit", worst, 1e-10, ok)


def test_criterion_04_appendix_decomposition():
    worst = 0.0
    ok = True
    for alpha in (1.0, 10.0, 100.0):
        tt = find_theta_tilde(alpha).theta
        d = appendix_I_decomposition(alpha, tt)
        worst = max(worst, abs(d.I1 - math.cos(2 * tt) * d.I2 + d.I3))
        s = math.sqrt(alpha ** 2 + 1)
        ok = ok and d.I2 >= math.pi * alpha ** 2 / (s * (alpha + s))
    report(4, "asymptotic I-decomposition and I2 bound", worst, 1e-8,
           ok and worst <= 1e-8)


def test_criterion_05_catenoid_exactness(cat_models):
    worst_named = {}
    for alpha in (1.0, 2.0):
        model = cat_models(alpha)
        rng = np.random.default_rng(21)
        u = rng.uniform(-2, 2, 100)
        v = rng.uniform(-1.5, 1.5, 100)
        worst_named["closure"] = max(worst_named.get("closure", 0),
                                     period_closure_residual(model))
        E, F, G = first_fundamental_form(model, u, v)
        lam = model.lambda_conf(u, v)
        conf = float(max(np.max(np.abs(E - lam) / lam),
                         np.max(np.abs(G - lam) / lam),
                         np.max(np.abs(F) / lam)))
        worst_named["conformality"] = max(worst_named.get("conformality", 0),
                                          conf)
        H = mean_curvature_nil3(model, u, v)
        worst_named["minimality"] = max(worst_named.get("minimality", 0),
                                        float(np.max(np.abs(H))))
        uu, vv = np.meshgrid(np.linspace(-1.1, 1.1, 7),
                             np.linspace(-0.9, 0.9, 7), indexing="ij")
        _, harm, Q = gauss_map_and_residuals(model, uu, vv, gauss=model.gauss)
        worst_named["harmonic"] = max(worst_named.get("harmonic", 0),
                                      float(np.max(harm)))
        worst_named["hopf"] = max(
            worst_named.get("hopf", 0),
            float(np.max(np.abs(Q - model.hopf_coefficient()))))
        base = model.xyz(u, v)
        sym = max(
            float(np.max(np.abs(model.xyz(u + model.U, v + model.V)
                                - base * [-1, 1, -1]))),
            float(np.max(np.abs(model.xyz(-u, -v) - base * [-1, -1, 1]))),
            float(np.max(np.abs(model.xyz(-u - model.U, -v - model.V)
                                - base * [1, -1, -1]))))
        worst_named["symmetries"] = max(worst_named.get("symmetries", 0), sym)
    tols = {"closure": 1e-8, "conformality": 1e-5, "minimality": 1e-4,
            "harmonic": 1e-6, "hopf": 1e-6, "symmetries": 1e-9}
    ok = all(worst_named[k] <= tols[k] for k in tols)
    worst_rel = max(worst_named[k] / tols[k] for k in tols)
    print("            " + "  ".join(f"{k}={worst_named[k]:.1e}"
                                     for k in sorted(tols)))
    report(5, "catenoid closure/conformality/minimality/Hopf/symmetry",
           worst_rel, 1.0, ok)


def test_criterion_06_sections(cat_models):
    ok = True
    worst_gap = worst_slope = 0.0
    for alpha in (1.0, 2.0):
        model = cat_models(alpha)
        for c in (-1.0, 0.0, 1.0):
            s = section_curve(model, c, 1024)
            worst_gap = max(worst_gap, s.closure_gap)
            worst_slope = max(worst_slope, s.slope_residual)
            ok = ok and s.min_curvature > 0 and s.turning_number == 1
        mesh = mesh_catenoid(model, (-2.5, 2.5), 48, 32)
        y = to_y(mesh.vertices)
        hw = remarkable_curves(model).halfwidth(y[:, 1])
        ok = ok and float(np.max(np.abs(y[:, 0]) - hw)) <= 1e-9
    ok = ok and worst_gap <= 1e-8 and worst_slope <= 1e-6
    report(6, "sections closed/convex/turning-1/slope + projection bound",
           max(worst_gap, worst_slope), 1e-6, ok)


def test_criterion_07_half_space_mechanism(cat_models):
    grid = np.linspace(-1, 1, 5)
    dev50 = max(max(limit_deviation(cat_models(50.0), uh, vh))
                for uh in grid for vh in grid)
    dev100 = max(max(limit_deviation(cat_models(100.0), uh, vh))
                 for uh in grid for vh in grid)
    extents = [waist_extent(cat_models(a)) for a in (1.0, 10.0, 100.0)]
    ok = dev50 <= 1e-2 and dev100 < dev50 \
        and extents[0] > extents[1] > extents[2]
    report(7, "plane-limit deviations and waist collapse", dev50, 1e-2, ok)


def test_criterion_08_helicoid():
    heli = build_helicoid(1.5)
    worst = max(ruling_residual(1.5, c) for c in (-2.0, -0.5, 0.0, 0.5, 2.0))
    v = np.linspace(-2, 2, 9)
    y = heli.y_coords(np.full_like(v, 0.8), v)
    ok = worst <= 1e-9 and float(np.ptp(y[:, 1])) == 0.0
    rng = np.random.default_rng(22)
    H = mean_curvature_nil3(heli, rng.uniform(-2, 2, 60),
                            rng.uniform(-1.5, 1.5, 60))
    ok = ok and float(np.max(np.abs(H))) <= 1e-4
    report(8, "helicoid rulings, y2 independence, minimality", worst, 1e-9, ok)


def test_criterion_09_cmc_annulus(cmc_pair):
    named = {}
    for alpha, m in cmc_pair.items():
        assert m.alpha_star_sq - m.alpha ** 2 == 1.0
        conj = conjugate_profile(m.alpha_star)
        named["U_match"] = max(named.get("U_match", 0), abs(m.U - conj.U))
        u = np.linspace(-2 * m.U, 2 * m.U, 1000)
        pv = m.profile.eval(u)
        phis = conj.eval(u).phi
        named["cosh_omega"] = max(named.get("cosh_omega", 0), float(np.max(
            np.abs(np.abs(pv.phiprime) * np.cos(phis)
                   - m.alpha_star * np.cos(pv.phi)))))
        rng = np.random.default_rng(23)
        ur = rng.uniform(-0.45 * m.U, 0.45 * m.U, 100)
        vr = rng.uniform(-1.2, 1.2, 100)
        lam = m.lambda_conf(ur, vr)
        named["metric"] = max(named.get("metric", 0), float(np.max(
            np.abs(m.tau(ur) + 4 * np.abs(m.H_field(ur, vr)) ** 2 - lam)
            / lam)))
        named["cmc_half"] = max(named.get("cmc_half", 0), float(np.max(
            np.abs(mean_curvature_h2xr(m, ur, vr) - 0.5))))
        named["f_endpoint"] = max(named.get("f_endpoint", 0),
                                  abs(float(m.f_of_u(m.U / 2)) - m.gamma))
        # h*-system away from cos phi = 0
        u0 = np.linspace(-0.35 * m.U, 0.35 * m.U, 9)
        v0 = np.linspace(-1.0, 1.0, 5)
        uu, vv = [x.ravel() for x in np.meshgrid(u0, v0)]
        h = 1e-4

        def at(du, dv, m=m, uu=uu, vv=vv):
            return m.hstar(uu + du * h, vv + dv * h)

        huu = (-at(-2, 0) + 16 * at(-1, 0) - 30 * at(0, 0) + 16 * at(1, 0)
               - at(2, 0)) / (12 * h * h)
        hvv = (-at(0, -2) + 16 * at(0, -1) - 30 * at(0, 0) + 16 * at(0, 1)
               - at(0, 2)) / (12 * h * h)
        huv = (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4 * h * h)
        pvg = m.profile.eval(uu)
        cos, sin = np.cos(pvg.phi), np.sin(pvg.phi)
        Hf = m.H_field(uu, vv)
        r1 = np.abs(0.25 * (huu - hvv - 2j * huv)
                    - (m.alpha * (sin / cos) * Hf
                       + np.cosh(m.alpha * vv) / (4 * cos)))
        r2 = np.abs(0.25 * (huu + hvv)
                    - (pvg.phiprime + m.alpha) ** 2 * np.cosh(m.alpha * vv)
                    / (4 * cos ** 3))
        named["h_system"] = max(named.get("h_system", 0),
                                float(max(np.max(r1), np.max(r2))))
    # half-plane extrema: two at alpha=2 matching tanh formula, one at 1,
    # none at 0.8
    c2 = halfplane_curve(cmc_pair[2.0], -1)
    pred = sorted(math.atanh(t) / 2 for t in
                  [(-math.sqrt(5) - math.sqrt(3)) / 4,
                   (-math.sqrt(5) + math.sqrt(3)) / 4])
    ok = len(c2.critical_v) == 2
    named["extrema_location"] = max(abs(a - b)
                                    for a, b in zip(c2.critical_v, pred))
    c1 = halfplane_curve(cmc_pair[1.0], -1)
    ok = ok and len(c1.critical_v) == 1
    c08 = halfplane_curve(build_cmc_annulus(0.8), -1)
    ok = ok and len(c08.critical_v) == 0

    tols = {"U_match": 1e-9, "cosh_omega": 1e-8, "metric": 1e-8,
            "cmc_half": 1e-4, "f_endpoint": 1e-4, "h_system": 1e-6,
            "extrema_location": 1e-8}
    ok = ok and all(named[k] <= tols[k] for k in tols)
    print("            " + "  ".join(f"{k}={named[k]:.1e}"
                                     for k in sorted(named)))
    report(9, "CMC annulus identities, CMC=1/2, level-curve extrema",
           max(named[k] / tols[k] for k in tols), 1.0, ok)


def test_criterion_10_graph_pde(cat_models):
    f = graph_patch(cat_models(1.0))
    worst = max(graph_pde_residual(f, x1, x2)
                for x1, x2 in [(0.0, 0.0), (0.05, -0.08), (-0.1, 0.12),
                               (0.12, 0.1)])
    report(10, "minimal graph equation on extracted patch", worst, 1e-4)


def test_criterion_11_artifacts(tmp_path, cat_models):
    ok = cli_main(["verify", "--alpha", "1",
                   "--out", str(tmp_path / "report.json")]) == 0
    mesh = mesh_catenoid(cat_models(1.0), (-2, 2), 32, 16)
    write_mesh(mesh, "obj", tmp_path / "m.obj")
    write_mesh(mesh, "ply", tmp_path / "m.ply")
    back_obj = read_obj(tmp_path / "m.obj")
    back_ply = read_ply(tmp_path / "m.ply")
    ok = ok and np.array_equal(back_obj.vertices, mesh.vertices)
    ok = ok and back_ply.vertices.tobytes() == mesh.vertices.tobytes()
    ok = ok and euler_characteristic(back_obj) == 0
    ok = ok and euler_characteristic(back_ply) == 0
    for i in (1, 2):
        cli_main(["solve-period", "--alpha", "1.5",
                  "--out", str(tmp_path / f"p{i}.json")])
        cli_main(["section", "--alpha", "1", "--samples", "128",
                  "--out", str(tmp_path / f"s{i}.csv")])
    ok = ok and (tmp_path / "p1.json").read_bytes() \
        == (tmp_path / "p2.json").read_bytes()
    ok = ok and (tmp_path / "s1.csv").read_bytes() \
        == (tmp_path / "s2.csv").read_bytes()
    report(11, "verify exit 0, mesh round-trips, byte determinism",
           0.0 if ok else 1.0, 0.5, ok)
