"""Limit certificates, fixed-set sampling, scheme comparison."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, MidpointError, RejectedSampleError
from .mappings import SAMPLE_RADIUS, Contraction, Mapping
from .solver import Trace, run
from .space import NormSpec, _first, _vdot, as_vector, duality_map, norm, norm_kernel

__all__ = [
    "VICertificate",
    "check_vi",
    "sample_fixed_set_flip",
    "iterate_bound",
    "SchemeRun",
    "compare_schemes",
]

# step-norm levels a comparison reports the first step n to reach
THRESHOLDS = (1e-2, 1e-4, 1e-6)


@dataclass(frozen=True)
class VICertificate:
    """Finite-sample check of the limit characterization
    <(I - f) p, J(x - p)> >= 0 over candidate fixed points x."""

    p: np.ndarray
    samples: list
    values: list
    min_value: float
    tolerance: float
    verdict: str  # "holds" | "violated"

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


def check_vi(
    p,
    contraction: Contraction,
    fixed_samples,
    norm_spec: NormSpec = NormSpec(),
    tol: float | None = None,
    mapping: Mapping | None = None,
) -> VICertificate:
    """Evaluate <(I - f) p, J(x - p)> on each sample and take the minimum.

    When ``mapping`` is given, every sample is first verified to be a
    fixed point (||T x - x|| <= 1e-12), all of them in one stack through
    :meth:`Mapping.images`; offenders, and samples whose image is not
    finite, raise RejectedSampleError. The default tolerance scales as
    1e-9 * (1 + ||p||) * (1 + max ||x - p||); the minimum is divided by that
    scale instead, so -inf fails where the product overflows. Each input is checked once.
    """
    pv = as_vector(p, dim=None if mapping is None else mapping.domain_dim)
    samples = [as_vector(x, dim=pv.size) for x in fixed_samples]
    if not samples:
        raise InvalidInputError("need at least one fixed-point sample")
    size = norm_kernel(norm_spec)
    if mapping is not None:
        stack = np.array(samples)
        moved = mapping.images(mapping.apply, stack) - stack
        offenders = [x for x, d in zip(samples, moved) if not size(d) <= 1e-12]
        if offenders:
            raise RejectedSampleError(
                f"{len(offenders)} sample(s) failed fixed-point verification",
                offenders=offenders,
            )
    g = pv - np.asarray(contraction.apply(pv), dtype=float)  # (I - f) p
    values = [float(_vdot(g, duality_map(x - pv, norm_spec))) for x in samples]
    min_value = min(values)
    if tol is None:
        scale_p, scale_x = 1.0 + size(pv), 1.0 + max(size(x - pv) for x in samples)
        tol, holds = 1e-9 * scale_p * scale_x, min_value / scale_p / scale_x >= -1e-9
    else:
        holds = min_value >= -tol
    verdict = "holds" if holds else "violated"
    return VICertificate(
        p=pv, samples=samples, values=values,
        min_value=min_value, tolerance=tol, verdict=verdict,
    )


def sample_fixed_set_flip(count: int, seed: int) -> list:
    """The origin plus ``count - 1`` random points of the flip map's fixed
    region {u : u1 u2 < 0}, fixed by construction: the coordinates have
    opposite signs and magnitudes drawn from [0.05, SAMPLE_RADIUS] (2)."""
    if count < 1:
        raise InvalidInputError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    out = [np.zeros(2)]
    while len(out) < count:
        u1 = rng.uniform(0.05, SAMPLE_RADIUS)
        u2 = -rng.uniform(0.05, SAMPLE_RADIUS)
        if rng.integers(0, 2):
            u1, u2 = -u1, -u2
        out.append(np.array([u1, u2]))
    return out


def iterate_bound(x1, p, contraction: Contraction, norm_spec: NormSpec = NormSpec()) -> float:
    """A-priori radius around the fixed point p containing every iterate:
    max(||x1 - p||, ||f(p) - p|| / (1 - alpha - eps)) with the slack
    eps = (1 - alpha) / 2. When p is also fixed under f the bound reduces
    to the starting distance.
    """
    x1 = as_vector(x1)
    p = as_vector(p, dim=x1.size)
    alpha = contraction.alpha
    eps = 0.5 * (1.0 - alpha)
    drift = norm(contraction(p) - p, norm_spec) / (1.0 - alpha - eps)
    return max(norm(x1 - p, norm_spec), drift)


@dataclass(frozen=True)
class SchemeRun:
    """Per-scheme outcome inside a comparison."""

    scheme: str
    trace: Trace | None
    error: str | None
    iters_to: dict  # threshold -> first n with step_norm <= threshold (or None)

    @property
    def failed(self) -> bool:
        return self.error is not None


def compare_schemes(cfgs) -> list:
    """Run the SolverConfigs of one problem, one per scheme, as ``build_solver_configs``
    makes them, in scheme-name order: one SchemeRun each. Their shared schedule object
    makes schedule values agree bitwise across columns. Each run records the first step
    n whose step norm reaches each level of THRESHOLDS (1e-2, 1e-4, 1e-6). A run that
    raises is reported failed while the others complete. The runs are made with
    ``run(cfg, residuals=False)``, so each trace's res_map and res_power are NaN."""
    cfgs = sorted(cfgs, key=lambda c: c.scheme.name)
    if len(cfgs) < 2:
        raise InvalidInputError("need at least two schemes to compare")
    runs = []
    for cfg in cfgs:
        try:
            trace = run(cfg, residuals=False)
        except MidpointError as exc:
            runs.append(SchemeRun(cfg.scheme.name, None, str(exc), dict.fromkeys(THRESHOLDS)))
            continue
        iters_to = {t: _first(trace.step_norm <= t) for t in THRESHOLDS}
        runs.append(SchemeRun(cfg.scheme.name, trace, None, iters_to))
    return runs

