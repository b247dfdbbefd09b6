"""Darcy flow in porous media with thin inclusions.

Faults are modeled as lower-dimensional subdomains coupled to the ambient
medium through mortar interfaces. The interface law keeps the full fault
permeability tensor: the exchange flux depends on the in-plane pressure
gradient as well as the pressure jump, and the in-plane flow feels the
exchange fluxes through an induced vector source. An equi-dimensional
reference solver (fault resolved as a thin strip) and a convergence
harness check the reduced model against the resolved one.
"""

from .config import (
    BUILTIN_CASES,
    CaseConfig,
    ConfigError,
    FaultConfig,
    builtin_case,
    parse_config,
)
from .discretize import (
    BoundaryCondition,
    DiscretizationError,
    discretize,
    mpfa_discretize,
    tpfa_discretize,
)
from .equidim import EquiDimCase, average_fault_pressure, solve_equidim
from .mdassembly import (
    AssemblyError,
    BcClause,
    MaterialSet,
    SolverError,
    assemble_global,
    mass_balance_report,
    solve,
)
from .mdmesh import (
    FaultSpec,
    MeshError,
    MixedDimMesh,
    MortarInterface,
    build_cartesian_md_mesh,
)
from .semilocal import (
    EquiDimFaultPerm,
    InterfaceLawError,
    MixedDimLaw,
    check_wellposed,
    scale_to_mixed_dim,
    schur_effective_tensor,
)
from .verify import StudyResult, VerifyError, eoc, eoc_fit, l2_fault_error, run_case
from .vtkio import write_vtk

__version__ = "0.1.0"

__all__ = [
    "AssemblyError",
    "BUILTIN_CASES",
    "BcClause",
    "BoundaryCondition",
    "CaseConfig",
    "ConfigError",
    "DiscretizationError",
    "EquiDimCase",
    "EquiDimFaultPerm",
    "FaultConfig",
    "FaultSpec",
    "InterfaceLawError",
    "MaterialSet",
    "MeshError",
    "MixedDimLaw",
    "MixedDimMesh",
    "MortarInterface",
    "SolverError",
    "StudyResult",
    "VerifyError",
    "assemble_global",
    "average_fault_pressure",
    "build_cartesian_md_mesh",
    "builtin_case",
    "check_wellposed",
    "discretize",
    "eoc",
    "eoc_fit",
    "l2_fault_error",
    "mass_balance_report",
    "mpfa_discretize",
    "parse_config",
    "run_case",
    "scale_to_mixed_dim",
    "schur_effective_tensor",
    "solve",
    "solve_equidim",
    "tpfa_discretize",
    "write_vtk",
]
