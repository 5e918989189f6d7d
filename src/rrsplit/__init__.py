"""Loosely coupled Robin-Robin splitting for two-subdomain interface problems."""

from .cases import CASE_NAMES, ManufacturedCase, get_case, residual_oracle
from .coupling import (
    CoupledOperators,
    EnergyLedger,
    SchemeParams,
    SchemeState,
    SourceData,
    advance,
    energy_S,
    energy_Z,
    initial_state,
    monolithic_step,
    run,
    run_monolithic,
)
from .cutoff import grad_energy, phi, verify_assumptions
from .fem import DofMap, assemble_interface_mass, assemble_mass, assemble_stiffness
from .harness import ConvergenceTable, StudyConfig, energy_audit, rates, run_study
from .meshing import CoupledMesh, InterfaceGeometry, slanted_interface_mesh, uniform_split_mesh, validate
from .sparse import Factorization, factorize, from_triplets

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
