"""robinsl: first eigenvalues of Robin problems with piecewise and delta potentials.

The library solves -y'' + (q - lam) y = 0 on [0, 1] under
y'(0) = k0sq*y(0), y'(1) = -k1sq*y(1) for potentials made of constant
segments and Dirac point masses, evaluates the closed-form extrema of the
first eigenvalue over unit-mass potential classes, and verifies the bounds
statistically against an independent finite-difference oracle.
"""

from .eigensolver import (
    EigenResult,
    fd_lambda1,
    lambda1,
    lambda1_value,
)
from .errors import (
    NoConvergence,
    NonFiniteState,
    RobinSLError,
    ToleranceNotReached,
    ZeroMass,
)
from .extrema import ExtremumReport, all_extrema, inf_minus, inf_plus, sup_minus, sup_plus
from .fmap import StrengthPoint, delta_strength
from .potential import (
    DeltaAtom,
    Potential,
    RobinBC,
    Segment,
    potential_from_dict,
    potential_to_dict,
)
from .verify import SampleReport, check_bounds, sample_unit_mass

__version__ = "0.1.0"

# perfbench's machine_facts reports this; the kernels have one, uncompiled path.
JIT_ENABLED = False

__all__ = [
    "DeltaAtom",
    "EigenResult",
    "ExtremumReport",
    "NoConvergence",
    "NonFiniteState",
    "Potential",
    "RobinBC",
    "RobinSLError",
    "SampleReport",
    "Segment",
    "StrengthPoint",
    "ToleranceNotReached",
    "ZeroMass",
    "all_extrema",
    "check_bounds",
    "delta_strength",
    "fd_lambda1",
    "inf_minus",
    "inf_plus",
    "lambda1",
    "lambda1_value",
    "potential_from_dict",
    "potential_to_dict",
    "sample_unit_mass",
    "sup_minus",
    "sup_plus",
]
