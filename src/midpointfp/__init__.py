"""Implicit-midpoint fixed-point iteration family with viscosity
regularization: schemes, schedules, inner solver, and diagnostics."""

from .diagnostics import (
    VICertificate,
    check_vi,
    compare_schemes,
    iterate_bound,
    sample_fixed_set_flip,
)
from .errors import (
    ConfigError,
    IllPosedError,
    InnerBudgetError,
    InvalidInputError,
    MidpointError,
    RejectedSampleError,
    UnsupportedNormError,
)
from .mappings import (
    Contraction,
    EnvelopeReport,
    Mapping,
    make_affine,
    make_affine_contraction,
    make_flip_map,
    make_scaling_contraction,
    verify_envelope,
)
from .schedules import (
    Schedule,
    ValidationReport,
    custom_schedule,
    paper_schedule,
    power_schedule,
    validate,
)
from .solver import (
    SCHEMES,
    Scheme,
    SolverConfig,
    Trace,
    implicit_step,
    run,
    scheme_by_name,
)
from .space import NormSpec, duality_map, norm

__version__ = "0.1.0"
