"""One-shot residual verification across all modules, at a given alpha.

Each check reduces to a named scalar residual with a threshold; boolean
facts (sign conditions, topology) are encoded as 0/1 residuals against a
0.5 threshold.  The output is a ResidualReport suitable for JSON export;
the CLI turns all_pass() into the process exit status.

To stay meaningful over the whole alpha range, probe windows shrink like
1/alpha (the surfaces grow like cosh(alpha v)) and checks whose natural
scale grows with the surface (section closure, projection bound, the
harmonic and graph equations) are measured relative to that scale; at
alpha near 1 the scales are O(1) and the relative and absolute readings
coincide.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

from . import cmc as cmc_mod
from .catenoid import (
    build_catenoid,
    gauss_curvature_K,
    graph_patch,
    mesh_catenoid,
    period_closure_residual,
    remarkable_curves,
    section_curve,
)
from .helicoid import build_helicoid, ruling_residual
from .meshes import euler_characteristic
from .nil3 import (
    ResidualReport,
    first_fundamental_form,
    gauss_map_and_residuals,
    graph_pde_residual,
    mean_curvature_nil3,
    nil3_christoffels,
    nil3_metric,
    to_y,
)
from .period import L_integral, appendix_I_decomposition
from .profile import AnnulusParams, identity_residuals


def thread_count() -> int:
    """Worker cap for sweeps, from NILCAT_THREADS (default 1)."""
    try:
        return max(1, int(os.environ.get("NILCAT_THREADS", "1")))
    except ValueError:
        return 1


def _bool_check(report, name, ok):
    report.add(name, 0.0 if ok else 1.0, threshold=0.5)


def _christoffel_selftest(report):
    rng = np.random.default_rng(0)
    h = 1e-5
    worst = 0.0
    for p in rng.uniform(-2, 2, size=(25, 3)):
        d = np.zeros((3, 3, 3))
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            d[k] = (nil3_metric(p + e) - nil3_metric(p - e)) / (2 * h)
        first = np.zeros((3, 3, 3))
        for i in range(3):
            for j in range(3):
                for l in range(3):
                    first[i, j, l] = 0.5 * (d[i, j, l] + d[j, i, l]
                                            - d[l, i, j])
        gk = np.einsum("kl,ijl->kij", np.linalg.inv(nil3_metric(p)), first)
        worst = max(worst, float(np.max(np.abs(gk - nil3_christoffels(p)))))
    report.add("nil3.christoffel_selftest", worst, threshold=1e-7)


def _profile_checks(report, model):
    prof = model.profile
    u = np.linspace(-3 * prof.U, 3 * prof.U, 1000)
    a, b = prof.eval(u), prof.eval(u + prof.U)
    report.add("profile.quasi_period_phi",
               float(np.max(np.abs(b.phi - a.phi + math.pi))), threshold=1e-9)
    report.add("profile.quasi_period_beta",
               float(np.max(np.abs(b.beta - a.beta - prof.betaU))),
               threshold=1e-9)
    report.add("profile.quasi_period_G",
               float(np.max(np.abs(b.G - a.G - prof.GU))), threshold=1e-9)
    m = prof.eval(-u)
    report.add("profile.oddness",
               float(max(np.max(np.abs(m.phi + a.phi)),
                         np.max(np.abs(m.beta + a.beta)),
                         np.max(np.abs(m.G + a.G)))), threshold=1e-9)
    h = 1e-3 * min(1.0, 3.0 / model.alpha)
    fd = (prof.eval(u - 2 * h).phi - 8 * prof.eval(u - h).phi
          + 8 * prof.eval(u + h).phi - prof.eval(u + 2 * h).phi) / (12 * h)
    from .profile import quartic_P
    # phi'^2 and P both grow like alpha^2; compare relative to that scale
    report.add("profile.ode_residual",
               float(np.max(np.abs(fd ** 2
                                   - quartic_P(prof.params, np.cos(a.phi)))))
               / max(1.0, model.alpha ** 2), threshold=1e-9)
    half = prof.eval(prof.U / 2)
    report.add("profile.midpoint_laws",
               float(max(abs(float(half.phi) + math.pi / 2),
                         abs(float(half.beta) - prof.betaU / 2),
                         abs(float(half.G) - prof.GU / 2))), threshold=1e-9)
    for name, (r, _loc) in identity_residuals(prof, u).items():
        report.add(f"profile.identity.{name}", r, threshold=1e-8)


def _period_checks(report, alpha, theta, tol):
    report.add("period.root_residual",
               abs(L_integral(AnnulusParams(alpha, theta)).L), threshold=1e-10)
    _bool_check(report, "period.L_negative_at_theta_zero",
                L_integral(AnnulusParams(alpha, 0.0)).L < 0)
    hi = min(AnnulusParams(alpha, 0.0).theta_plus - 1e-6, math.pi / 4)
    rungs = [L_integral(AnnulusParams(alpha, t))
             for t in np.linspace(0.0, hi, 8)]
    # the top rung may be unconverged near alpha = 1/sqrt(2); a step counts
    # only when it exceeds both rungs' quadrature error estimates
    err = np.array([r.quadrature_error_estimate for r in rungs])
    _bool_check(report, "period.L_increasing_ladder",
                bool(np.all(np.diff([r.L for r in rungs])
                            > err[:-1] + err[1:])))
    d = appendix_I_decomposition(alpha, theta)
    report.add("period.I_split_identity",
               abs(d.I1 - math.cos(2 * theta) * d.I2 + d.I3), threshold=1e-8)
    s = math.sqrt(alpha ** 2 + 1)
    _bool_check(report, "period.I2_lower_bound",
                d.I2 >= math.pi * alpha ** 2 / (s * (alpha + s)))


def _catenoid_checks(report, model):
    rng = np.random.default_rng(1)
    alpha = model.alpha
    v_max = min(1.5, 8.0 / alpha)
    report.add("catenoid.period_defect", model.period_defect, threshold=1e-9)
    report.add("catenoid.closure",
               period_closure_residual(
                   model, grid=np.meshgrid(
                       np.linspace(-model.U, model.U, 20),
                       np.linspace(-v_max, v_max, 20), indexing="ij")),
               threshold=1e-8)
    u = rng.uniform(-2 * model.U, 2 * model.U, 100)
    v = rng.uniform(-v_max, v_max, 100)
    E, F, G = first_fundamental_form(model, u, v)
    lam = model.lambda_conf(u, v)
    report.add("catenoid.conformality",
               float(max(np.max(np.abs(E - lam) / lam),
                         np.max(np.abs(G - lam) / lam),
                         np.max(np.abs(F) / lam))), threshold=1e-5)
    report.add("catenoid.mean_curvature",
               float(np.max(np.abs(mean_curvature_nil3(model, u, v)))),
               threshold=1e-4)
    uu, vv = np.meshgrid(np.linspace(-0.36, 0.36, 7) * model.U,
                         np.linspace(-0.9, 0.9, 7) * v_max, indexing="ij")
    _, harm, Q = gauss_map_and_residuals(model, uu, vv, gauss=model.gauss,
                                         hg=1e-3 * min(1.0, 2.5 / alpha))
    # the harmonic equation's terms grow like |g_z|^2 ~ alpha^2 / 4
    g_scale = max(1.0, 0.25 * alpha * alpha)
    report.add("catenoid.harmonic_residual", float(np.max(harm)) / g_scale,
               threshold=1e-6)
    report.add("catenoid.hopf_residual",
               float(np.max(np.abs(Q - model.hopf_coefficient()))),
               threshold=1e-6)
    base = model.xyz(u, v)
    r1 = np.max(np.abs(model.xyz(u + model.U, v + model.V)
                       - base * [-1, 1, -1]))
    r2 = np.max(np.abs(model.xyz(-u, -v) - base * [-1, -1, 1]))
    r3 = np.max(np.abs(model.xyz(-u - model.U, -v - model.V)
                       - base * [1, -1, -1]))
    coord_scale = max(1.0, float(np.max(np.abs(base))))
    report.add("catenoid.rotation_symmetries",
               float(max(r1, r2, r3)) / coord_scale, threshold=1e-9)
    c_max = min(1.0, 15.0 * model.params.C / alpha)
    for c in (-c_max, 0.0, c_max):
        s = section_curve(model, c, 1024)
        diam = float(max(1.0, np.max(np.hypot(s.y1, s.y3))))
        report.add(f"catenoid.section_gap[c={c:g}]", s.closure_gap / diam,
                   threshold=1e-8)
        _bool_check(report, f"catenoid.section_convex[c={c:g}]",
                    s.min_curvature > 0)
        _bool_check(report, f"catenoid.section_turning[c={c:g}]",
                    s.turning_number == 1)
        report.add(f"catenoid.section_slope[c={c:g}]", s.slope_residual,
                   threshold=1e-6)
    mesh = mesh_catenoid(model, (-v_max, v_max), 32, 24)
    _bool_check(report, "catenoid.mesh_chi_zero",
                euler_characteristic(mesh) == 0)
    y = to_y(mesh.vertices)
    hw = remarkable_curves(model).halfwidth(y[:, 1])
    report.add("catenoid.projection_bound",
               float(np.max((np.abs(y[:, 0]) - hw) / np.maximum(1.0, hw))),
               threshold=1e-9)
    u0, v0 = 0.1 * model.U, 0.27 * v_max
    k_here = float(gauss_curvature_K(model, u0, v0))
    lam0 = float(model.lambda_conf(u0, v0))
    h = 1e-4 * min(1.0, 3.0 / alpha)

    def lnlam_u(x):
        return np.log(model.lambda_conf(x, v0))

    def lnlam_v(x):
        return np.log(model.lambda_conf(u0, x))

    lap = ((-lnlam_u(u0 - 2 * h) + 16 * lnlam_u(u0 - h) - 30 * lnlam_u(u0)
            + 16 * lnlam_u(u0 + h) - lnlam_u(u0 + 2 * h)) / (12 * h * h)
           + (-lnlam_v(v0 - 2 * h) + 16 * lnlam_v(v0 - h) - 30 * lnlam_v(v0)
              + 16 * lnlam_v(v0 + h) - lnlam_v(v0 + 2 * h)) / (12 * h * h))
    report.add("catenoid.gauss_curvature_vs_laplacian",
               abs(k_here - float(-lap / (2 * lam0)))
               / max(1.0, abs(k_here)), threshold=1e-5)
    f = graph_patch(model)
    r_p = 0.1 * model.params.C / alpha
    h_p = min(3e-4, 0.02 * model.params.C / alpha)
    pde_scale = max(1.0, alpha)
    report.add("catenoid.graph_pde_residual",
               max(graph_pde_residual(f, 0.0, 0.0, h=h_p),
                   graph_pde_residual(f, r_p, -1.6 * r_p, h=h_p)) / pde_scale,
               threshold=1e-4)


def _helicoid_checks(report, alpha):
    heli = build_helicoid(alpha)
    v_max = min(2.0, 8.0 / alpha)
    cs = np.array([-2.0, -0.5, 0.0, 0.5, 2.0]) * abs(heli.profile.GU)
    worst = max(ruling_residual(alpha, c, v_max=v_max) for c in cs)
    report.add("helicoid.ruling_line_fit", worst, threshold=1e-9)
    v = np.linspace(-v_max, v_max, 9)
    y = heli.y_coords(np.full_like(v, 0.8 * heli.U), v)
    report.add("helicoid.y2_independent_of_v", float(np.ptp(y[:, 1])),
               threshold=0.0)
    rng = np.random.default_rng(2)
    H = mean_curvature_nil3(heli, rng.uniform(-2 * heli.U, 2 * heli.U, 50),
                            rng.uniform(-0.9 * v_max, 0.9 * v_max, 50))
    report.add("helicoid.mean_curvature", float(np.max(np.abs(H))),
               threshold=1e-4)


def _cmc_checks(report, alpha):
    m = cmc_mod.build_cmc_annulus(alpha)
    # alpha_star = sqrt(s) with s = fl(alpha^2 + 1), and target recomputes s
    # bit for bit.  The rounded sqrt is off by at most eps/2 relative, which
    # squaring doubles, and the product rounds by eps/2 more: alpha_star^2 is
    # within 1.5 eps of s.  The threshold 4 eps is that bound with a margin;
    # any larger residual means alpha_star is not tied to alpha^2 + 1.
    target = m.alpha ** 2 + 1.0
    report.add("cmc.alpha_star_defining_relation",
               abs(m.alpha_star ** 2 - target) / target,
               threshold=4 * sys.float_info.epsilon)
    report.add("cmc.half_period_match", abs(m.U - m.conjugate.U),
               threshold=1e-9)
    u = np.linspace(-2 * m.U, 2 * m.U, 1000)
    pv = m.profile.eval(u)
    phis, _ = m.conjugate.eval(u)
    report.add("cmc.cosh_omega_identity",
               float(np.max(np.abs(np.abs(pv.phiprime) * np.cos(phis)
                                   - m.alpha_star * np.cos(pv.phi)))),
               threshold=1e-8)
    rng = np.random.default_rng(3)
    v_max = min(1.2, 6.0 / alpha)
    ur = rng.uniform(-0.45 * m.U, 0.45 * m.U, 100)
    vr = rng.uniform(-v_max, v_max, 100)
    lam = m.lambda_conf(ur, vr)
    built = m.tau(ur) + 4.0 * np.abs(m.H_field(ur, vr)) ** 2
    report.add("cmc.metric_identity",
               float(np.max(np.abs(built - lam) / lam)), threshold=1e-8)
    report.add("cmc.mean_curvature_half",
               float(np.max(np.abs(cmc_mod.mean_curvature_h2xr(m, ur, vr)
                                   - 0.5))), threshold=1e-4)
    report.add("cmc.lift_matches_printed_block",
               float(np.max(np.abs(m.hyperboloid_point(ur, vr)
                                   - m.hyperboloid_point_printed(ur, vr)))),
               threshold=1e-9)
    report.add("cmc.f_endpoint", abs(float(m.f_of_u(m.U / 2)) - m.gamma),
               threshold=1e-4)
    X = m.hyperboloid_point(ur, vr)
    report.add("cmc.hyperboloid_lift",
               float(np.max(np.abs(X[..., 2] ** 2 - X[..., 0] ** 2
                                   - X[..., 1] ** 2 - 1.0))), threshold=1e-8)
    # h*-system residuals away from cos phi = 0
    u0 = np.linspace(-0.35 * m.U, 0.35 * m.U, 9)
    v0 = np.linspace(-0.8 * v_max, 0.8 * v_max, 5)
    uu, vv = [x.ravel() for x in np.meshgrid(u0, v0)]
    h = 1e-4 * min(1.0, 3.0 / alpha)

    def at(du, dv):
        return m.hstar(uu + du * h, vv + dv * h)

    huu = (-at(-2, 0) + 16 * at(-1, 0) - 30 * at(0, 0) + 16 * at(1, 0)
           - at(2, 0)) / (12 * h * h)
    hvv = (-at(0, -2) + 16 * at(0, -1) - 30 * at(0, 0) + 16 * at(0, 1)
           - at(0, 2)) / (12 * h * h)
    huv = (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4 * h * h)
    pvg = m.profile.eval(uu)
    cos, sin = np.cos(pvg.phi), np.sin(pvg.phi)
    H = m.H_field(uu, vv)
    r1 = np.abs(0.25 * (huu - hvv - 2j * huv)
                - (m.alpha * (sin / cos) * H
                   + np.cosh(m.alpha * vv) / (4 * cos)))
    r2 = np.abs(0.25 * (huu + hvv)
                - (pvg.phiprime + m.alpha) ** 2 * np.cosh(m.alpha * vv)
                / (4 * cos ** 3))
    # the system's terms grow like alpha^2 cosh(alpha v); judge relative
    h_scale = max(1.0, float(np.max(np.abs(
        (pvg.phiprime + m.alpha) ** 2 * np.cosh(m.alpha * vv)
        / (4 * cos ** 3)))))
    report.add("cmc.height_system",
               float(max(np.max(r1), np.max(r2))) / h_scale, threshold=1e-6)
    mesh = cmc_mod.reflect_and_mesh(m, nu=32, nv=24, v_range=(-v_max, v_max))
    _bool_check(report, "cmc.mesh_chi_zero", euler_characteristic(mesh) == 0)


def run_verification(alpha: float = 1.0, tol: float = 1e-11) -> ResidualReport:
    """Run every module's residual checks at one alpha."""
    report = ResidualReport()
    _christoffel_selftest(report)
    model = build_catenoid(alpha, tol=tol)
    _period_checks(report, alpha, model.theta_tilde, tol)
    _profile_checks(report, model)
    _catenoid_checks(report, model)
    _helicoid_checks(report, alpha)
    _cmc_checks(report, alpha)
    return report
