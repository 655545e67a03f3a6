"""Parameter-sequence families and their validator.

A :class:`Schedule` provides the four sequences a_n, b_n, c_n (simplex:
a + b + c = 1) and k_n >= 1. :func:`validate` checks a run's
configuration over a finite horizon: the three convergence conditions,
the simplex identity, well-posedness of the implicit step (q_n < 1) and
a geometric bound on sup k_n, with steps 1..H read from the run's
:class:`SolverConfig` as one table (``step_table``, whose row n is the
``step_values(n)`` that ``run`` reads at step n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import InvalidInputError
from .space import _first, _largest

if TYPE_CHECKING:
    from .solver import SolverConfig

__all__ = [
    "Schedule",
    "CheckResult",
    "ValidationReport",
    "paper_schedule",
    "power_schedule",
    "custom_schedule",
    "validate",
    "HILBERT_NORMAL_STRUCTURE",
]

# normal-structure coefficient of a Hilbert space
HILBERT_NORMAL_STRUCTURE = math.sqrt(2.0)
TOL_III = 1e-3  # condition (iii): largest tail ratio (k_n^2 - 1)/a_n that passes


@dataclass(frozen=True)
class Schedule:
    """Immutable bundle of the sequences a, b, c, k (1-indexed callables).

    ``family`` tags a registered parametric family ("paper", "power",
    "custom"); ``sum_a`` is the family's (status, reason) verdict on
    condition (ii), sum(a_n) = inf, or None ("unknown"). ``k`` is an
    envelope declared in the 2-norm; a run uses the larger of it and the
    mapping's envelope (:meth:`SolverConfig.step_values`).
    """

    a: Callable[[int], float]
    b: Callable[[int], float]
    c: Callable[[int], float]
    k: Callable[[int], float]
    family: str = "custom"
    sum_a: tuple[str, str] | None = None


def paper_schedule() -> Schedule:
    """Benchmark family a_n = 1/n, b_n = (n-1)/(n(n+1)), c_n = (n-1)/(n+1).

    The simplex identity holds exactly by algebra:
    (n+1) + (n-1) + n(n-1) = n(n+1). Envelope k_n = 1 + 2^-n.
    """
    return Schedule(
        a=lambda n: 1.0 / n,
        b=lambda n: (n - 1) / (n * (n + 1)),
        c=lambda n: (n - 1) / (n + 1),
        k=lambda n: 1.0 + 0.5 ** n,
        family="paper",
        sum_a=("pass", "harmonic family diverges; partial sum reported"),
    )


def power_schedule(s: float, b_const: float = 0.0) -> Schedule:
    """a_n = n^-s, b_n = b_const (1 - a_n), c_n = 1 - a_n - b_n.

    The series sum(a_n) diverges iff s <= 1. Envelope k_n = 1.
    """
    if not (s > 0.0):
        raise InvalidInputError(f"power-law exponent must be positive, got {s}")
    if not (0.0 <= b_const < 1.0):
        raise InvalidInputError(f"b_const must lie in [0, 1), got {b_const}")
    a = lambda n: float(n) ** (-s)
    return Schedule(
        a=a,
        b=lambda n: b_const * (1.0 - a(n)),
        c=lambda n: 1.0 - (a_n := a(n)) - b_const * (1.0 - a_n),  # 1 - a_n - b_n, one a(n)
        k=lambda n: 1.0,
        family="power",
        sum_a=("pass", f"power family with s={float(s)} <= 1 diverges") if s <= 1.0
        else ("fail", f"power family with s={float(s)} > 1 converges"),
    )


def custom_schedule(table) -> Schedule:
    """Schedule from an explicit table of rows [a_n, b_n, c_n, k_n], n = 1.. ."""
    rows = [tuple(float(v) for v in row) for row in table]
    if not rows or any(len(r) != 4 for r in rows):
        raise InvalidInputError("custom schedule table must be non-empty rows of [a, b, c, k]")

    def at(n: int, j: int) -> float:
        if n < 1 or n > len(rows):
            raise InvalidInputError(
                f"custom schedule defined for n in [1, {len(rows)}], requested n={n}"
            )
        return rows[n - 1][j]

    return Schedule(
        a=lambda n: at(n, 0),
        b=lambda n: at(n, 1),
        c=lambda n: at(n, 2),
        k=lambda n: at(n, 3),
        family="custom",
    )


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class CheckResult:
    """One validator finding: status plus the witnessing value and index."""

    status: str  # "pass" | "fail" | "unknown" | "warn"
    value: float | None = None
    at_n: int | None = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class ValidationReport:
    condition_i: CheckResult
    condition_ii: CheckResult
    condition_iii: CheckResult
    simplex: CheckResult
    wellposed: CheckResult
    normal_structure_bound: CheckResult
    ranges: CheckResult
    horizon: int

    @property
    def passed(self) -> bool:
        """Overall verdict: (i), (iii), simplex, wellposed pass; (ii) pass or unknown."""
        return (
            self.condition_i.ok
            and self.condition_iii.ok
            and self.simplex.ok
            and self.wellposed.ok
            and self.condition_ii.status in ("pass", "unknown")
        )

    def rows(self):
        named = [
            ("condition (i): a_n -> 0", self.condition_i),
            ("condition (ii): sum a_n = inf", self.condition_ii),
            ("condition (iii): (k_n^2 - 1)/a_n -> 0", self.condition_iii),
            ("simplex: a_n + b_n + c_n = 1", self.simplex),
            ("wellposed: q_n = cT k_p / 2 < 1", self.wellposed),
            ("normal structure: sup k_n <= N^(1/2)", self.normal_structure_bound),
            ("ranges on tail", self.ranges),
        ]
        return [(label, r.status, r.value, r.at_n, r.detail) for label, r in named]


def _rises(vals) -> np.ndarray:
    """Whether the column ``vals`` increases at each of its entries after the
    first (or either value is NaN)."""
    return ~(vals[1:] <= vals[:-1] * (1.0 + 1e-12) + 1e-300)


def validate(cfg: SolverConfig, horizon: int) -> ValidationReport:
    """Check a run's configuration over n = 1..horizon.

    One ``cfg.step_table(horizon)`` gives, as columns, the rows that ``run``
    reads at steps 1..horizon: conditions (i), (ii) and the simplex identity
    read its a_n, b_n, c_n, and well-posedness its q_n, in the run's norm.
    Condition (iii), the normal-structure bound and k >= 1 read the declared
    2-norm k_n = max(schedule k_n, L_n), which ``step_table`` gives with it. An
    error that a row raises names its n, the first such row's.
    Tail-limit conditions are checked on the second half of the horizon,
    since the underlying requirements only bind for sufficiently large n.
    Divergence of sum(a_n) is the schedule's own symbolic verdict
    (``Schedule.sum_a``) and "unknown" (with the partial sum as evidence)
    where it has none, so that a false pass is never reported. The
    normal-structure bound produces a warning, not a failure.
    """
    if horizon < 10:
        raise InvalidInputError(f"validation horizon must be >= 10, got {horizon}")
    values, k = cfg.step_table(horizon)
    return _report(cfg, horizon, values.a, values.b, values.c, values.q, k)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # as float arithmetic does
def _report(cfg, horizon, a, b, c, q, k) -> ValidationReport:
    """:func:`validate`'s report on the columns a, b, c, q and k of n = 1..horizon."""
    half = horizon // 2
    tail = slice(half - 1, None)  # n = half..horizon

    # (i) a_n -> 0: monotone tail and endpoint below ten times the
    # observed half-horizon decrement (a trend-extrapolation threshold).
    bad_n = _first(_rises(a[tail]), half + 1)
    a_mid, a_end = float(a[half - 1]), float(a[-1])
    threshold = 10.0 * (a_mid - a_end) + 1e-12
    if bad_n is not None:
        cond_i = CheckResult("fail", float(a[bad_n - 1]), bad_n, f"a_n increases at n={bad_n}")
    elif a_end <= threshold:
        cond_i = CheckResult("pass", a_end, horizon,
                             f"monotone tail, a({horizon}) = {a_end:.3e} <= {threshold:.3e}")
    else:
        cond_i = CheckResult("fail", a_end, horizon,
                             f"a({horizon}) = {a_end:.3e} exceeds trend threshold {threshold:.3e}")

    # (ii) divergence of sum(a_n): the family's own verdict, else unknown.
    partial = math.fsum(a.tolist())
    status, reason = cfg.schedule.sum_a or (
        "unknown", f"series not classified; partial sum at horizon = {partial:.6g}")
    cond_ii = CheckResult(status, partial, horizon, reason)

    # (iii) (k_n^2 - 1)/a_n -> 0 on the tail; a zero a_n makes the ratio inf.
    ratio = np.where(a != 0.0, (k * k - 1.0) / a, math.inf)
    bad_n = _first(_rises(ratio[tail]), half + 1)
    r_end = float(ratio[-1])
    if bad_n is not None:
        cond_iii = CheckResult("fail", r_end, horizon,
                               f"ratio increases at n={bad_n}; tail value {r_end:.3e}")
    elif r_end <= TOL_III:
        first_ok = _first(ratio[tail] <= TOL_III, half)
        cond_iii = CheckResult("pass", r_end, horizon,
                               f"tail ratio {r_end:.3e} <= {TOL_III:g} (holds from n={first_ok})")
    else:
        cond_iii = CheckResult("fail", r_end, horizon,
                               f"tail ratio {r_end:.3e} exceeds {TOL_III:g}")

    # simplex, pointwise over the whole horizon: the first n off by more
    # than 1e-12 or NaN, else the largest deviation at its first n (None
    # when all are 0)
    dev = np.abs(a + b + c - 1.0)
    bad_n = _first(~(dev <= 1e-12))
    if bad_n is None:
        worst, at_n = _largest(dev)
        simplex = CheckResult("pass", worst, at_n if worst > 0.0 else None, "pointwise to 1e-12")
    else:
        value = float(dev[bad_n - 1])
        simplex = CheckResult("fail", value, bad_n, f"|a+b+c-1| = {value:.3e} at n={bad_n}")

    # wellposedness of the implicit step, by the q_n that run checks
    bad_n = _first(~(q < 1.0))
    if bad_n is None:
        q_max, q_arg = _largest(q)
        wellposed = CheckResult("pass", q_max, q_arg, f"max q_n = {q_max:.6f} at n={q_arg}")
    else:
        q_bad = float(q[bad_n - 1])
        wellposed = CheckResult("fail", q_bad, bad_n,
                                f"q_n {'>= 1' if q_bad >= 1.0 else 'is nan'} first at n={bad_n}")

    # geometric bound on the envelope (warning only: the benchmark
    # example itself exceeds the Hilbert value)
    sup_k, sup_arg = _largest(k)
    bound = HILBERT_NORMAL_STRUCTURE ** 0.5
    if sup_k <= bound:
        nsb = CheckResult("pass", sup_k, sup_arg, f"sup k_n = {sup_k:.6g} <= {bound:.6f}")
    else:
        nsb = CheckResult("warn", sup_k, sup_arg,
                          f"sup k_n = {sup_k:.6g} exceeds N^(1/2) = {bound:.6f}")

    # informational range check on the tail half
    at, bt, ct = a[tail], b[tail], c[tail]
    bad_n = _first(~((0.0 < at) & (at < 1.0) & (0.0 <= bt) & (bt < 1.0)
                     & (0.0 < ct) & (ct < 1.0) & (k[tail] >= 1.0)), half)
    if bad_n is None:
        ranges = CheckResult("pass", None, None, "a in (0,1), b in [0,1), c in (0,1), k >= 1 on tail")
    else:
        ranges = CheckResult("warn", None, bad_n, f"range violation at n={bad_n}")

    return ValidationReport(cond_i, cond_ii, cond_iii, simplex, wellposed, nsb, ranges, horizon)
