"""Non-Hermitian adiabatic quantum optimization toolkit.

Evolves time-dependent complex Hamiltonians, tracks spectral gaps, reduces
the dynamics to an effective two-level model at the crossover, locates
exceptional points, and evaluates adiabatic runtime bounds.
"""

__version__ = "0.1.0"

from .adiabatic import (
    AdiabaticBudget,
    min_time_linear_ramp,
    min_time_nonhermitian,
    tau_window,
)
from .evolve import EvolutionResult, decaying_driver_shift, evolve, initial_ground_state, success_probability
from .linalg import EigenSystem
from .model import (
    AnnealSpec,
    Schedule,
    XorTerms,
    ising_anneal_spec,
    linear_schedule,
    make_anneal_spec,
    random_ising,
    total_hamiltonian,
    two_level_spec,
)
from .reduction import (
    TwoLevelBasis,
    TwoLevelParams,
    build_crossover_basis,
    decompose_schedule_params,
    gap_two_level,
    hermitian_crossover,
    min_two_level_gap,
    nonhermitian_min_gap,
    project_effective,
    two_level_gap,
)
from .spectrum import (
    ExceptionalPoint,
    GapTrace,
    SpectrumSnapshot,
    detect_exceptional_point,
    find_crossover,
    instantaneous_spectrum,
    trace_gap,
)

__all__ = [
    "AdiabaticBudget",
    "AnnealSpec",
    "EigenSystem",
    "EvolutionResult",
    "ExceptionalPoint",
    "GapTrace",
    "Schedule",
    "SpectrumSnapshot",
    "TwoLevelBasis",
    "TwoLevelParams",
    "XorTerms",
    "build_crossover_basis",
    "decaying_driver_shift",
    "decompose_schedule_params",
    "detect_exceptional_point",
    "evolve",
    "find_crossover",
    "gap_two_level",
    "hermitian_crossover",
    "initial_ground_state",
    "instantaneous_spectrum",
    "ising_anneal_spec",
    "linear_schedule",
    "make_anneal_spec",
    "min_time_linear_ramp",
    "min_time_nonhermitian",
    "min_two_level_gap",
    "nonhermitian_min_gap",
    "project_effective",
    "random_ising",
    "success_probability",
    "tau_window",
    "total_hamiltonian",
    "trace_gap",
    "two_level_gap",
    "two_level_spec",
]
