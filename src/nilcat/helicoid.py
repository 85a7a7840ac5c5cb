"""Helicoidal minimal surfaces: the theta = 0 members of the family.

At theta = 0 the profile degenerates to C = 0, beta = 0, A = alpha v, and
the immersion collapses to

    y1 = (G'/alpha) cos(phi) sinh(alpha v),
    y2 = -G(u),
    y3 = -(G'/alpha) sin(phi) sinh(alpha v),

so y3 / y1 = -tan(phi(u)) and y2 depends on u alone: every vertical plane
{y2 = c} meets the surface in a straight line through (0, c, 0).  G' =
-1/(alpha - phi') is strictly negative, which makes G a decreasing
bijection of the line and the ruling parameter u_c = G^{-1}(-c) unique.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ARG_MAX, DomainError, RangeError, ResolutionError
from .meshes import Mesh, grid_mesh_faces
from .nil3 import Nil3Point, from_y
from .profile import AnnulusParams, Profile, solve_profile


class HelicoidModel:
    """Sampler bundle for one helicoidal surface (immutable, thread-safe)."""

    def __init__(self, profile: Profile):
        if profile.params.theta != 0.0:
            raise DomainError("helicoids require theta = 0")
        self.profile = profile
        self.alpha = profile.params.alpha
        self.U = profile.U

    def y_coords(self, u, v) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        u, v = np.broadcast_arrays(u, v)
        A = self.alpha * v
        if np.any(np.abs(A) > ARG_MAX):
            raise RangeError(f"|alpha v| exceeds {ARG_MAX} (sinh overflow)")
        pv = self.profile.eval(u)
        sh = np.sinh(A)
        r = pv.Gprime / self.alpha * sh
        return np.stack([r * np.cos(pv.phi), -pv.G, -r * np.sin(pv.phi)],
                        axis=-1)

    def xyz(self, u, v) -> np.ndarray:
        """Exponential coordinates (x3 = y3 - y1 y2 / 2)."""
        return from_y(self.y_coords(u, v))

    def __call__(self, u, v) -> np.ndarray:
        return self.xyz(u, v)

    def u_of_y2(self, c: float) -> float:
        """Invert y2 = -G(u); G is strictly decreasing so this is global."""
        target = -float(c)
        lo, hi = 0.0, 0.0
        step = self.U
        while float(self.profile.eval(lo).G) < target:
            lo -= step
        while float(self.profile.eval(hi).G) > target:
            hi += step
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if float(self.profile.eval(mid).G) > target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


@lru_cache(maxsize=32)
def build_helicoid(alpha: float, nodes: int | None = None) -> HelicoidModel:
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    kwargs = {} if nodes is None else {"nodes": nodes}
    return HelicoidModel(solve_profile(AnnulusParams(alpha, 0.0), **kwargs))


def helicoid_point(alpha: float, u: float, v: float) -> Nil3Point:
    """One point of the helicoid of parameter alpha."""
    return Nil3Point(*(float(t) for t in build_helicoid(alpha).xyz(u, v)))


def ruling_residual(alpha: float, c: float, samples: int = 64,
                    v_max: float = 2.0) -> float:
    """Straightness defect of the intersection with the plane {y2 = c}.

    Solves G(u_c) = -c, samples the curve over v, and returns the largest
    distance from the samples to their total-least-squares line in the
    Euclidean (y1, y3) coordinates of the plane.
    """
    if samples < 8:
        raise ResolutionError(f"need at least 8 samples, got {samples}")
    model = build_helicoid(alpha)
    u_c = model.u_of_y2(c)
    resid = abs(float(model.profile.eval(u_c).G) + c)
    if resid > 1e-10:
        raise DomainError(f"could not invert y2 = {c}: residual {resid}")
    v = np.linspace(-v_max, v_max, samples)
    y = model.y_coords(u_c, v)
    pts = np.stack([y[:, 0], y[:, 2]], axis=-1)
    center = pts.mean(axis=0)
    d = pts - center
    _, _, vh = np.linalg.svd(d, full_matrices=False)
    normal = vh[-1]
    return float(np.max(np.abs(d @ normal)))


def mesh_helicoid(model: HelicoidModel, v_range=(-2.0, 2.0), nu: int = 64,
                  nv: int = 64) -> Mesh:
    """Open grid patch over one 2U period in u (a disk, not an annulus)."""
    if nu < 16 or nv < 2:
        raise ResolutionError(f"resolution too small: nu={nu}, nv={nv}")
    u = np.linspace(-model.U, model.U, nu)
    v = np.linspace(float(v_range[0]), float(v_range[1]), nv)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    verts = model.xyz(uu.T.ravel(), vv.T.ravel())
    return Mesh(verts, grid_mesh_faces(nu, nv, wrap_u=False))
