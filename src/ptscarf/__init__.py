"""Complex Scarf-II PT-symmetric SUSY spectra.

Analytic machinery (superpotentials, partner potentials, parameter
exchanges, bound-state families and the bifurcation split) together with an
independent dense non-Hermitian eigensolver that cross-checks every claimed
level, pairing and PT property.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    GridError,
    MatchError,
    NonNormalizableError,
    PtScarfError,
    RegimeError,
    RepresentationError,
    ValidationError,
)
from .grids import Grid, Wavefunction, overlap_ratio, pt_apply
from .params import (
    TAU_PARAM,
    Params,
    Regime,
    Sector,
    broken_constraint_params,
    check_pt_condition,
    classify_regime,
    complex_pair,
    exchange_complex_pair,
    sl2_exchange,
)
from .solver import (
    BoundStates,
    Match,
    PairingReport,
    SpectrumReport,
    conjugate_pairing_check,
    discretize,
    eig_complex_dense,
    filter_bound_states,
    match_levels,
    solve_bound_states,
    verify_spectrum,
)
from .spectrum import (
    EnergyFamily,
    FamilyOrigin,
    analytic_families,
    bifurcated_spectrum,
    bound_state_count,
    second_family_unbroken,
    spectrum_family,
)
from .superpotential import (
    PotentialCoeffs,
    Superpotential,
    build_broken_pair,
    build_unbroken,
    check_pt_symmetric_potential,
    ground_state_closed_form,
    ground_state_energy,
    ground_state_residual,
    ground_state_wavefunction,
    partner_potential_minus,
    partner_potential_plus,
)

__version__ = "0.1.0"

__all__ = [
    "BoundStates",
    "ConvergenceError",
    "DomainError",
    "EnergyFamily",
    "FamilyOrigin",
    "Grid",
    "GridError",
    "Match",
    "MatchError",
    "NonNormalizableError",
    "PairingReport",
    "Params",
    "PotentialCoeffs",
    "PtScarfError",
    "Regime",
    "RegimeError",
    "RepresentationError",
    "Sector",
    "SpectrumReport",
    "Superpotential",
    "TAU_PARAM",
    "ValidationError",
    "Wavefunction",
    "analytic_families",
    "bifurcated_spectrum",
    "bound_state_count",
    "broken_constraint_params",
    "build_broken_pair",
    "build_unbroken",
    "check_pt_condition",
    "check_pt_symmetric_potential",
    "classify_regime",
    "complex_pair",
    "conjugate_pairing_check",
    "discretize",
    "eig_complex_dense",
    "exchange_complex_pair",
    "filter_bound_states",
    "ground_state_closed_form",
    "ground_state_energy",
    "ground_state_residual",
    "ground_state_wavefunction",
    "match_levels",
    "overlap_ratio",
    "partner_potential_minus",
    "partner_potential_plus",
    "pt_apply",
    "second_family_unbroken",
    "sl2_exchange",
    "solve_bound_states",
    "spectrum_family",
    "verify_spectrum",
]
