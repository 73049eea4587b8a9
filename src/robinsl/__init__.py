"""robinsl: first eigenvalues of Robin problems with piecewise and delta potentials.

The library solves -y'' + (q - lam) y = 0 on [0, 1] under
y'(0) = k0sq*y(0), y'(1) = -k1sq*y(1) for potentials made of constant
segments and Dirac point masses, evaluates the closed-form extrema of the
first eigenvalue over unit-mass potential classes, and verifies the bounds
statistically against an independent finite-difference oracle.
"""

from ._kernels import JIT_ENABLED
from .eigensolver import (
    EigenResult,
    fd_lambda1,
    lambda1,
    lambda1_value,
    quadratic_form,
    shoot,
)
from .errors import (
    BranchUndefined,
    GridTooCoarse,
    MixedSign,
    NoConvergence,
    NoCrossing,
    NonFiniteState,
    PolePoint,
    RobinSLError,
    ToleranceNotReached,
    ZeroMass,
)
from .extrema import (
    ExtremumReport,
    all_extrema,
    cot_secular,
    inf_minus,
    inf_plus,
    inf_plus_secular,
    left_half_eigenvalue,
    right_half_eigenvalue,
    sup_minus,
    sup_plus,
)
from .fmap import (
    PhaseOffsets,
    StrengthPoint,
    decay_logslope,
    decay_profile,
    delta_strength,
    delta_strength_dzeta,
    phase_offsets,
)
from .potential import (
    DeltaAtom,
    Potential,
    RobinBC,
    Segment,
    combine,
    delta_approx,
    fold_endpoint_atoms,
    normalize_mass,
    potential_from_dict,
    potential_to_dict,
    scale,
    total_integral,
)
from .verify import SampleReport, approach_extremum, check_bounds, sample_unit_mass

__version__ = "0.1.0"

__all__ = [
    "BranchUndefined",
    "DeltaAtom",
    "EigenResult",
    "ExtremumReport",
    "GridTooCoarse",
    "JIT_ENABLED",
    "MixedSign",
    "NoConvergence",
    "NoCrossing",
    "NonFiniteState",
    "PhaseOffsets",
    "PolePoint",
    "Potential",
    "RobinBC",
    "RobinSLError",
    "SampleReport",
    "Segment",
    "StrengthPoint",
    "ToleranceNotReached",
    "ZeroMass",
    "all_extrema",
    "approach_extremum",
    "check_bounds",
    "combine",
    "cot_secular",
    "decay_logslope",
    "decay_profile",
    "delta_approx",
    "delta_strength",
    "delta_strength_dzeta",
    "fd_lambda1",
    "fold_endpoint_atoms",
    "inf_minus",
    "inf_plus",
    "inf_plus_secular",
    "lambda1",
    "lambda1_value",
    "left_half_eigenvalue",
    "normalize_mass",
    "phase_offsets",
    "potential_from_dict",
    "potential_to_dict",
    "quadratic_form",
    "right_half_eigenvalue",
    "sample_unit_mass",
    "scale",
    "shoot",
    "sup_minus",
    "sup_plus",
    "total_integral",
]
