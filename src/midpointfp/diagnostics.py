"""Limit certificates, fixed-set sampling, scheme comparison, rate fits."""

from __future__ import annotations

import io
from dataclasses import dataclass, replace

import numpy as np

from .errors import InsufficientDataError, InvalidInputError, MidpointError, RejectedSampleError
from .mappings import Contraction, Mapping, make_flip_map
from .solver import SolverConfig, Trace, run
from .space import NormSpec, as_vector, duality_map, inner, norm

__all__ = [
    "VICertificate",
    "check_vi",
    "sample_fixed_set_flip",
    "iterate_bound",
    "SchemeRun",
    "ComparisonReport",
    "compare_schemes",
    "estimate_rate",
]

DEFAULT_THRESHOLDS = (1e-2, 1e-4, 1e-6)


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
    fixed point (||T x - x|| <= 1e-12); offenders raise
    RejectedSampleError. The default tolerance scales as
    1e-9 * (1 + ||p||) * (1 + max ||x - p||).
    """
    pv = as_vector(p)
    samples = [as_vector(x, dim=pv.size) for x in fixed_samples]
    if not samples:
        raise InvalidInputError("need at least one fixed-point sample")
    if mapping is not None:
        offenders = [x for x in samples if norm(mapping(x) - x, norm_spec) > 1e-12]
        if offenders:
            raise RejectedSampleError(
                f"{len(offenders)} sample(s) failed fixed-point verification",
                offenders=offenders,
            )
    g = pv - contraction(pv)  # (I - f) p
    values = [inner(g, duality_map(x - pv, norm_spec)) for x in samples]
    if tol is None:
        spread = max(norm(x - pv, norm_spec) for x in samples)
        tol = 1e-9 * (1.0 + norm(pv, norm_spec)) * (1.0 + spread)
    min_value = min(values)
    verdict = "holds" if min_value >= -tol else "violated"
    return VICertificate(
        p=pv, samples=samples, values=values,
        min_value=min_value, tolerance=tol, verdict=verdict,
    )


def sample_fixed_set_flip(count: int, seed: int, radius: float = 2.0) -> list:
    """The origin plus ``count - 1`` random points of the flip map's
    fixed region {u : u1 u2 < 0}, each verified exactly fixed."""
    if count < 1:
        raise InvalidInputError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    flip = make_flip_map()
    out = [np.zeros(2)]
    while len(out) < count:
        u1 = rng.uniform(0.05, radius)
        u2 = -rng.uniform(0.05, radius)
        if rng.integers(0, 2):
            u1, u2 = -u1, -u2
        u = np.array([u1, u2])
        if not np.array_equal(flip(u), u):  # exact fixedness by construction
            raise MidpointError("generated point unexpectedly not fixed")
        out.append(u)
    return out


def iterate_bound(x1, p, contraction: Contraction, schedule=None,
                  norm_spec: NormSpec = NormSpec()) -> float:
    """A-priori radius around the fixed point p containing every iterate:
    max(||x1 - p||, ||f(p) - p|| / (1 - alpha - eps)).

    ``eps`` comes from the schedule when one is given, else defaults to
    (1 - alpha) / 2. When p is also fixed under f the bound reduces to
    the starting distance.
    """
    x1 = as_vector(x1)
    p = as_vector(p, dim=x1.size)
    alpha = contraction.alpha
    if schedule is not None:
        eps = schedule.resolve_epsilon(alpha)
    else:
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
    rate: float | None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass(frozen=True)
class ComparisonReport:
    """Aligned residual histories for several schemes on one problem."""

    runs: list
    thresholds: tuple

    def to_csv(self) -> str:
        """Columns: n, then one step_norm column per scheme (LF endings)."""
        cols = [[] if r.failed else r.trace.step_norm for r in self.runs]
        length = max(map(len, cols), default=0)
        buf = io.StringIO()
        header = ["n"] + [f"step_norm_{r.scheme}" for r in self.runs]
        buf.write(",".join(header) + "\n")
        for i in range(length):
            row = [str(i + 1)] + [format(c[i], ".17g") if i < len(c) else "" for c in cols]
            buf.write(",".join(row) + "\n")
        return buf.getvalue()

    def to_markdown(self) -> str:
        lines = [
            "| scheme | status | iterations | "
            + " | ".join(f"n @ {t:g}" for t in self.thresholds)
            + " | rate |",
            "|---|---|---|" + "---|" * len(self.thresholds) + "---|",
        ]
        for r in self.runs:
            if r.failed:
                cells = [r.scheme, f"failed: {r.error}", "-"] + ["-"] * len(self.thresholds) + ["-"]
            else:
                status = "converged" if r.trace.converged else "max_outer"
                hits = [str(r.iters_to[t]) if r.iters_to[t] is not None else "-"
                        for t in self.thresholds]
                rate = f"{r.rate:+.3f}" if r.rate is not None else "-"
                cells = [r.scheme, status, str(len(r.trace))] + hits + [rate]
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"


def compare_schemes(
    base_cfg: SolverConfig,
    schemes,
    thresholds=DEFAULT_THRESHOLDS,
) -> ComparisonReport:
    """Run each scheme on the shared configuration and align residuals.

    The mapping, contraction, initial point, tolerances, and the single
    schedule object are shared, so schedule values agree bitwise across
    columns. A scheme that raises is reported failed while the others
    complete. Runs are ordered by scheme name for deterministic output.
    """
    schemes = list(schemes)
    if len(schemes) < 2:
        raise InvalidInputError("need at least two schemes to compare")
    runs = []
    for scheme in sorted(schemes, key=lambda s: s.name):
        try:
            trace = run(replace(base_cfg, scheme=scheme))
        except MidpointError as exc:
            runs.append(SchemeRun(scheme.name, None, str(exc), {t: None for t in thresholds}, None))
            continue
        steps = trace.step_norm
        iters_to = {}
        for t in thresholds:
            hit = np.nonzero(steps <= t)[0]
            iters_to[t] = int(hit[0]) + 1 if hit.size else None
        try:
            rate = estimate_rate(steps)
        except InsufficientDataError:
            rate = None
        runs.append(SchemeRun(scheme.name, trace, None, iters_to, rate))
    return ComparisonReport(runs=runs, thresholds=tuple(thresholds))


def estimate_rate(residuals) -> float:
    """Power-law exponent: least-squares slope of log r_n against log n.

    Non-positive residuals are excluded; fewer than five usable points
    raise InsufficientDataError.
    """
    r = np.asarray(residuals, dtype=float)
    ns = np.arange(1, r.size + 1)
    keep = r > 0.0
    if int(keep.sum()) < 5:
        raise InsufficientDataError(
            f"need at least 5 positive residuals, got {int(keep.sum())}"
        )
    slope = np.polyfit(np.log(ns[keep]), np.log(r[keep]), 1)[0]
    return float(slope)
