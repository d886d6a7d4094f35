"""Rate-independent gradient plasticity with plastic spin on structured grids.

The plastic distortion is a trace-free, generally non-symmetric nodal tensor
field; its row-wise curl carries a quadratic defect energy, a symmetric
local backstress provides kinematic hardening, and each load step solves an
incremental variational inequality by accelerated proximal gradient in the
plastic field, the displacement eliminated by inner conjugate-gradient
solves.
"""

__version__ = "0.1.0"

from .grid import (
    BoundaryConfig,
    Grid,
    ScalarField,
    TensorField,
    VectorField,
)
from .korn import KornProblem, ZeroField, estimate_min_quotient, korn_quotient
from .models import (
    ModelVariant,
    SimState,
    eshelby_stress,
    incremental_dissipation,
    total_energy,
    yield_value,
)
from .oracles import (
    MicroStress,
    Poly3,
    PolyTensorField,
    microstress_identity_check,
    radial_return_0d,
    symbolic_curl,
)
from .scenario import ParseError, Scenario, ValidationError, canonical_text, parse_scenario
from .solver import (
    DiscreteProblem,
    InfeasibleBC,
    LoadStep,
    NoConvergence,
    SolverConfig,
    StepReport,
    prox_dissipation,
    time_step,
)
from .tensors import MaterialParams, NonSkewInput, axl, curl_from_gradient, decompose, elasticity_apply
