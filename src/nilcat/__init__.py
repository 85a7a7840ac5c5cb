"""Horizontal minimal catenoids and helicoids in the Heisenberg group and
their CMC 1/2 sister annuli in H2 x R: numerical construction, residual
verification and mesh export."""

from .catenoid import (
    CatenoidModel,
    build_catenoid,
    gauss_curvature_K,
    graph_patch,
    limit_deviation,
    mesh_catenoid,
    period_closure_residual,
    remarkable_curves,
    section_curve,
    waist_extent,
)
from .cmc import (
    CmcAnnulusModel,
    build_cmc_annulus,
    conjugate_profile,
    halfplane_curve,
    mean_curvature_h2xr,
    reflect_and_mesh,
)
from .errors import (
    BracketError,
    DegeneracyError,
    DomainError,
    NilcatError,
    QuadratureError,
    RangeError,
    ResolutionError,
    TransversalityError,
)
from .helicoid import HelicoidModel, build_helicoid, mesh_helicoid, \
    ruling_residual
from .meshes import Mesh, euler_characteristic, read_obj, read_ply, \
    write_mesh
from .nil3 import (
    GaussValue,
    GraphJet,
    ResidualReport,
    from_y,
    gauss_map,
    gauss_map_and_residuals,
    graph_pde_residual,
    mean_curvature_nil3,
    to_y,
)
from .period import (
    PeriodIntegrals,
    L_integral,
    appendix_I_decomposition,
    find_theta_tilde,
)
from .profile import (
    AnnulusParams,
    Profile,
    ProfileValues,
    identity_residuals,
    quartic_P,
    solve_profile,
    theta_plus,
)
from .verify import run_verification

__all__ = [
    "AnnulusParams",
    "BracketError",
    "CatenoidModel",
    "CmcAnnulusModel",
    "DegeneracyError",
    "DomainError",
    "GaussValue",
    "GraphJet",
    "HelicoidModel",
    "L_integral",
    "Mesh",
    "NilcatError",
    "PeriodIntegrals",
    "Profile",
    "ProfileValues",
    "QuadratureError",
    "RangeError",
    "ResidualReport",
    "ResolutionError",
    "TransversalityError",
    "appendix_I_decomposition",
    "build_catenoid",
    "build_cmc_annulus",
    "build_helicoid",
    "conjugate_profile",
    "euler_characteristic",
    "find_theta_tilde",
    "from_y",
    "gauss_curvature_K",
    "gauss_map",
    "gauss_map_and_residuals",
    "graph_patch",
    "graph_pde_residual",
    "halfplane_curve",
    "identity_residuals",
    "limit_deviation",
    "mean_curvature_h2xr",
    "mean_curvature_nil3",
    "mesh_catenoid",
    "mesh_helicoid",
    "period_closure_residual",
    "quartic_P",
    "read_obj",
    "read_ply",
    "reflect_and_mesh",
    "remarkable_curves",
    "ruling_residual",
    "run_verification",
    "section_curve",
    "solve_profile",
    "theta_plus",
    "to_y",
    "waist_extent",
    "write_mesh",
]

__version__ = "0.1.0"
