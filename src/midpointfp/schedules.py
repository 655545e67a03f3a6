"""Parameter-sequence families and their validator.

A :class:`Schedule` provides the four sequences a_n, b_n, c_n (simplex:
a + b + c = 1) and k_n >= 1. :func:`validate` checks a run's
configuration over a finite horizon: the three convergence conditions,
the simplex identity, well-posedness of the implicit step (q_n < 1) and
a geometric bound on sup k_n, with k_n and q_n read from the run's
:class:`SolverConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from .errors import InvalidInputError

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
    "custom"); ``params`` keeps the defining constants so divergence of
    the series sum(a_n) can be classified symbolically. ``k`` is an
    envelope declared in the 2-norm; a run uses the larger of it and the
    mapping's envelope (:meth:`SolverConfig.envelope`).
    """

    a: Callable[[int], float]
    b: Callable[[int], float]
    c: Callable[[int], float]
    k: Callable[[int], float]
    family: str = "custom"
    params: dict = field(default_factory=dict)


def paper_schedule(k: Callable[[int], float] | None = None) -> Schedule:
    """Benchmark family a_n = 1/n, b_n = (n-1)/(n(n+1)), c_n = (n-1)/(n+1).

    The simplex identity holds exactly by algebra:
    (n+1) + (n-1) + n(n-1) = n(n+1). Default envelope k_n = 1 + 2^-n.
    """
    kf = k if k is not None else (lambda n: 1.0 + 0.5 ** n)
    return Schedule(
        a=lambda n: 1.0 / n,
        b=lambda n: (n - 1) / (n * (n + 1)),
        c=lambda n: (n - 1) / (n + 1),
        k=kf,
        family="paper",
        params={},
    )


def power_schedule(s: float, b_const: float = 0.0,
                   k: Callable[[int], float] | None = None) -> Schedule:
    """a_n = n^-s, b_n = b_const (1 - a_n), c_n = 1 - a_n - b_n.

    The series sum(a_n) diverges iff s <= 1. Default envelope k_n = 1.
    """
    if not (s > 0.0):
        raise InvalidInputError(f"power-law exponent must be positive, got {s}")
    if not (0.0 <= b_const < 1.0):
        raise InvalidInputError(f"b_const must lie in [0, 1), got {b_const}")
    a = lambda n: float(n) ** (-s)
    b = lambda n: b_const * (1.0 - a(n))
    kf = k if k is not None else (lambda n: 1.0)
    return Schedule(
        a=a,
        b=b,
        c=lambda n: 1.0 - a(n) - b(n),
        k=kf,
        family="power",
        params={"s": s, "b_const": b_const},
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


def _monotone_nonincreasing(vals, start_n):
    """First index (1-based over the full horizon) where the tail increases, or None."""
    for i in range(1, len(vals)):
        if vals[i] > vals[i - 1] * (1.0 + 1e-12) + 1e-300:
            return start_n + i
    return None


def validate(cfg: SolverConfig, horizon: int) -> ValidationReport:
    """Check a run's configuration over n = 1..horizon.

    Conditions (i), (ii) and the simplex identity read the schedule;
    condition (iii), the normal-structure bound and k >= 1 read the
    declared 2-norm ``cfg.envelope(n)``; well-posedness reads the q_n that
    ``run`` checks, in the run's norm.
    Tail-limit conditions are checked on the second half of the horizon,
    since the underlying requirements only bind for sufficiently large n.
    Divergence of sum(a_n) is classified symbolically for registered
    families and reported "unknown" (with the partial sum as evidence)
    otherwise, so that a false pass is never reported. The
    normal-structure bound produces a warning, not a failure.
    """
    if horizon < 10:
        raise InvalidInputError(f"validation horizon must be >= 10, got {horizon}")
    sched = cfg.schedule
    ns = range(1, horizon + 1)
    a = [sched.a(n) for n in ns]
    b = [sched.b(n) for n in ns]
    c = [sched.c(n) for n in ns]
    k = [cfg.envelope(n) for n in ns]

    half = horizon // 2
    tail = slice(half - 1, horizon)  # 0-based slice covering n = half..horizon

    # (i) a_n -> 0: monotone tail and endpoint below ten times the
    # observed half-horizon decrement (a trend-extrapolation threshold).
    bad_n = _monotone_nonincreasing(a[tail], half)
    a_mid, a_end = a[half - 1], a[-1]
    threshold = 10.0 * (a_mid - a_end) + 1e-12
    if bad_n is not None:
        cond_i = CheckResult("fail", a[bad_n - 1], bad_n, f"a_n increases at n={bad_n}")
    elif a_end <= threshold:
        cond_i = CheckResult("pass", a_end, horizon,
                             f"monotone tail, a({horizon}) = {a_end:.3e} <= {threshold:.3e}")
    else:
        cond_i = CheckResult("fail", a_end, horizon,
                             f"a({horizon}) = {a_end:.3e} exceeds trend threshold {threshold:.3e}")

    # (ii) divergence of sum(a_n): symbolic per family, else unknown.
    partial = math.fsum(a)
    if sched.family == "paper":
        cond_ii = CheckResult("pass", partial, horizon,
                              "harmonic family diverges; partial sum reported")
    elif sched.family == "power":
        s = float(sched.params.get("s", math.nan))
        if s <= 1.0:
            cond_ii = CheckResult("pass", partial, horizon, f"power family with s={s} <= 1 diverges")
        else:
            cond_ii = CheckResult("fail", partial, horizon, f"power family with s={s} > 1 converges")
    else:
        cond_ii = CheckResult("unknown", partial, horizon,
                              f"series not classified; partial sum at horizon = {partial:.6g}")

    # (iii) (k_n^2 - 1)/a_n -> 0 on the tail.
    ratio = [(kk * kk - 1.0) / aa for kk, aa in zip(k, a)]
    bad_n = _monotone_nonincreasing(ratio[tail], half)
    r_end = ratio[-1]
    if bad_n is not None:
        cond_iii = CheckResult("fail", r_end, horizon,
                               f"ratio increases at n={bad_n}; tail value {r_end:.3e}")
    elif r_end <= TOL_III:
        first_ok = next(n for n in range(half, horizon + 1) if ratio[n - 1] <= TOL_III)
        cond_iii = CheckResult("pass", r_end, horizon,
                               f"tail ratio {r_end:.3e} <= {TOL_III:g} (holds from n={first_ok})")
    else:
        cond_iii = CheckResult("fail", r_end, horizon,
                               f"tail ratio {r_end:.3e} exceeds {TOL_III:g}")

    # simplex, pointwise over the whole horizon
    worst = 0.0
    worst_n = None
    for n, (aa, bb, cc) in enumerate(zip(a, b, c), start=1):
        dev = abs(aa + bb + cc - 1.0)
        if dev > worst:
            worst, worst_n = dev, n
        if dev > 1e-12 and worst_n == n:
            break
    if worst > 1e-12:
        simplex = CheckResult("fail", worst, worst_n, f"|a+b+c-1| = {worst:.3e} at n={worst_n}")
    else:
        simplex = CheckResult("pass", worst, worst_n, "pointwise to 1e-12")

    # wellposedness of the implicit step, by the q_n that run checks
    q = [cfg.step_bound(n, cfg.scheme.coefficients_from(*abc)[2])[0]
         for n, abc in enumerate(zip(a, b, c), start=1)]
    q_max = max(q)
    q_arg = q.index(q_max) + 1
    if q_max < 1.0:
        wellposed = CheckResult("pass", q_max, q_arg, f"max q_n = {q_max:.6f} at n={q_arg}")
    else:
        first_bad = next(n for n, qq in enumerate(q, start=1) if qq >= 1.0)
        wellposed = CheckResult("fail", q[first_bad - 1], first_bad,
                                f"q_n >= 1 first at n={first_bad}")

    # geometric bound on the envelope (warning only: the benchmark
    # example itself exceeds the Hilbert value)
    sup_k = max(k)
    sup_arg = k.index(sup_k) + 1
    bound = HILBERT_NORMAL_STRUCTURE ** 0.5
    if sup_k <= bound:
        nsb = CheckResult("pass", sup_k, sup_arg, f"sup k_n = {sup_k:.6g} <= {bound:.6f}")
    else:
        nsb = CheckResult("warn", sup_k, sup_arg,
                          f"sup k_n = {sup_k:.6g} exceeds N^(1/2) = {bound:.6f}")

    # informational range check on the tail half
    rng_bad = None
    for n in range(half, horizon + 1):
        aa, bb, cc, kk = a[n - 1], b[n - 1], c[n - 1], k[n - 1]
        if not (0.0 < aa < 1.0 and 0.0 <= bb < 1.0 and 0.0 < cc < 1.0 and kk >= 1.0):
            rng_bad = n
            break
    if rng_bad is None:
        ranges = CheckResult("pass", None, None, "a in (0,1), b in [0,1), c in (0,1), k >= 1 on tail")
    else:
        ranges = CheckResult("warn", None, rng_bad, f"range violation at n={rng_bad}")

    return ValidationReport(
        condition_i=cond_i,
        condition_ii=cond_ii,
        condition_iii=cond_iii,
        simplex=simplex,
        wellposed=wellposed,
        normal_structure_bound=nsb,
        ranges=ranges,
        horizon=horizon,
    )
