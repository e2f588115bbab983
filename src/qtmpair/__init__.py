"""Four-state pseudospin toolkit for coupled anisotropic 4f ion pairs.

Builds and diagonalizes the tunneling Hamiltonian of a lanthanide dimer
with and without applied field, derives tunneling rates and threshold
fields, and fits multi-process Arrhenius models to magnetization-lifetime
data.
"""

from .analysis import (
    SweepTable,
    ground_splitting,
    kelvin_to_gigahertz,
    sweep_field,
    sweep_ratio,
    tunneling_from_splitting,
    zeeman_threshold,
)
from .constants import K_B_OVER_H_GHZ, MU_B_OVER_K_B
from .model import (
    BASIS_LABELS,
    EigenSystem,
    FieldVector,
    ModelParams,
    Moment,
    basis_state,
    build_hamiltonian,
    eigensystem,
    evolve,
    moment_expectation,
    zero_field_eigensystem,
)
from .reference import DY2S_C82, REFERENCE_MOLECULES, TB2SCN_C80, MoleculeReference
from .relaxation import (
    ArrheniusProcess,
    DegenerateParametersError,
    FitResult,
    LifetimePoint,
    RelaxationDataset,
    RelaxationModel,
    fit,
    load_dataset,
    model_lifetime,
    parse_dataset_csv,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [
    "ArrheniusProcess",
    "BASIS_LABELS",
    "DY2S_C82",
    "DegenerateParametersError",
    "EigenSystem",
    "FieldVector",
    "FitResult",
    "K_B_OVER_H_GHZ",
    "LifetimePoint",
    "MU_B_OVER_K_B",
    "ModelParams",
    "MoleculeReference",
    "Moment",
    "REFERENCE_MOLECULES",
    "RelaxationDataset",
    "RelaxationModel",
    "SweepTable",
    "TB2SCN_C80",
    "basis_state",
    "build_hamiltonian",
    "eigensystem",
    "evolve",
    "fit",
    "ground_splitting",
    "kelvin_to_gigahertz",
    "load_dataset",
    "model_lifetime",
    "moment_expectation",
    "parse_dataset_csv",
    "sweep_field",
    "sweep_ratio",
    "synthesize",
    "tunneling_from_splitting",
    "zeeman_threshold",
    "zero_field_eigensystem",
]
