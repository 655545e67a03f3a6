"""Implicit-midpoint iteration family: inner step solver and outer loops.

Each outer step n solves the implicit equation

    x = cf * f(x_n) + cx * x_n + cT * T^p((x_n + x) / 2)

for x, where the coefficient triple (cf, cx, cT) and the power p depend
on the scheme (see :data:`SCHEMES`). The step map is a contraction with
factor q_n = |cT| * k_p / 2 whenever q_n < 1, so the step is solved by
Picard iteration warm-started at x_n with the standard a-posteriori
error bound q/(1-q) * ||y_m - y_{m-1}|| as the stopping rule. q_n comes
from ``SolverConfig.step_bound`` alone, its L_p from ``Mapping.lipschitz``,
and q_n < 1 is checked as step n is reached.

For affine T (a mapping with ``affine``) the step is the linear system
(I - (cT/2) A_p) x = cf f(x_n) + cx x_n + cT (A_p x_n / 2 + b_p).
When the first Picard iterate misses the bound, ``affine.solve`` solves
it once, for the correction from x_n whose right-hand side is that
iterate's residual G(x_n) - x_n, in A's eigenbasis (O(d^2) per step) or
by LU where the eigenbasis is ill-conditioned. The solve only moves the
warm start to x_n plus that correction: the one Picard loop runs from
there, so the accepted iterate passes the same a-posteriori bound
whatever the solve's accuracy, and the loop's first pass checks that
the step map contracts by q_n along the solve, which catches an
envelope that understates T. The tests check it against the same system
solved by LU, with powers by binary powering.

:func:`run` returns a :class:`Trace`: one table whose rows are the
rows of trace.csv, with each column as a view of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import IllPosedError, InnerBudgetError, InvalidInputError
from .mappings import Contraction, Mapping, _declared_k, power_operator
from .schedules import Schedule
from .space import NormSpec, _row_norms, as_vector, norm_kernel

__all__ = [
    "Scheme",
    "SCHEMES",
    "scheme_by_name",
    "SolverConfig",
    "StepResult",
    "Trace",
    "implicit_step",
    "run",
]


@dataclass(frozen=True)
class Scheme:
    """One member of the iteration family.

    ``viscosity``    whether the contraction term cf = a_n is present
                     (when absent, x_n carries 1 - a_n and the operator
                     carries a_n);
    ``keep_inertia`` whether the x_n term carries the schedule's b_n
                     (else it is dropped and the operator gets 1 - a_n);
    ``use_power``    whether step n applies T^n rather than T.
    """

    name: str
    viscosity: bool
    keep_inertia: bool
    use_power: bool

    def coefficients(self, sched: Schedule, n: int) -> tuple[float, float, float]:
        """(cf, cx, cT) for step n."""
        return self.coefficients_from(sched.a(n), sched.b(n), sched.c(n))

    def coefficients_from(self, a: float, b: float, c: float) -> tuple[float, float, float]:
        """(cf, cx, cT) from the schedule's a_n, b_n, c_n."""
        if not self.viscosity:
            return 0.0, 1.0 - a, a
        if self.keep_inertia:
            return a, b, c
        return a, 0.0, 1.0 - a

    def power(self, n: int) -> int:
        return n if self.use_power else 1


SCHEMES: dict[str, Scheme] = {
    "IMR": Scheme("IMR", viscosity=False, keep_inertia=False, use_power=False),
    "VIM": Scheme("VIM", viscosity=True, keep_inertia=False, use_power=False),
    "GVIM": Scheme("GVIM", viscosity=True, keep_inertia=True, use_power=False),
    "AGVIM": Scheme("AGVIM", viscosity=True, keep_inertia=True, use_power=True),
    "AVIM63": Scheme("AVIM63", viscosity=True, keep_inertia=False, use_power=True),
}


def scheme_by_name(name: str) -> Scheme:
    try:
        return SCHEMES[name.strip().upper()]
    except KeyError:
        raise InvalidInputError(
            f"unknown scheme {name!r}; choose from {sorted(SCHEMES)}"
        ) from None


@dataclass(frozen=True)
class SolverConfig:
    """Everything a run needs.

    ``tol_step = 0`` stops a run only at a step norm of 0
    (see :func:`run`); with a positive tol_step, tol_inner must be
    strictly smaller so the inner error cannot pollute the outer stopping
    decision. ``power_cap`` bounds n-fold power evaluation for mappings
    without a closed form (built in code: every config mapping kind has one).
    """

    scheme: Scheme
    mapping: Mapping
    schedule: Schedule
    x1: np.ndarray
    contraction: Optional[Contraction] = None
    max_outer: int = 10_000
    tol_step: float = 1e-8
    tol_inner: float = 1e-12
    max_inner: int = 10_000
    norm: NormSpec = field(default_factory=NormSpec)
    power_cap: int = 1_000

    def __post_init__(self):
        object.__setattr__(self, "x1", as_vector(self.x1, dim=self.mapping.domain_dim))
        if self.max_inner < 1 or self.max_outer < 1:
            raise InvalidInputError("max_inner and max_outer must be >= 1")
        # written so that NaN fails too
        if not (0.0 <= self.tol_step < math.inf and 0.0 < self.tol_inner < math.inf):
            raise InvalidInputError(
                f"tolerances must be finite and positive (tol_step may be 0), "
                f"got tol_step={self.tol_step}, tol_inner={self.tol_inner}"
            )
        if self.tol_step > 0.0 and not (self.tol_inner < self.tol_step):
            raise InvalidInputError(
                f"tol_inner ({self.tol_inner}) must be smaller than tol_step ({self.tol_step})"
            )
        if self.contraction is not None:  # its image of x1 shows its dimension
            try:
                shape = np.shape(self.contraction.apply(self.x1))
            except ValueError:  # e.g. a matrix of another size
                shape = None
            if shape != self.x1.shape:  # a non-finite image is the step's error
                raise InvalidInputError(f"contraction must map x1 to a vector in R^{self.x1.size}")
        elif self.scheme.viscosity:
            raise InvalidInputError(f"scheme {self.scheme.name} needs a contraction")

    def envelope(self, p: int, r: float = 2.0) -> float:
        """k_p = max(schedule k_p, L_p) in the r-norm, L_p = ``mapping.lipschitz(p, r)``:
        at r = 2, the declared value that :func:`verify_envelope` checks. A value
        that overflows a float reads as inf, and a NaN one raises InvalidInputError."""
        return max(_declared_k(self.schedule.k, p), self.mapping.lipschitz(p, r))

    def step_bound(self, n: int, cT: float | None = None) -> tuple[float, float]:
        """(q_n, k_p) for this scheme's step n: q_n = |cT| * k_p / 2 (cT < 0
        comes from, e.g., a custom c_n < 0), with k_p the :meth:`envelope` of
        T^p in the run's norm. cT is the step's, from the schedule unless the
        caller passes it. A step without the operator term (cT = 0) has
        q_n = 0, whatever k_p is."""
        if cT is None:
            cT = self.scheme.coefficients(self.schedule, n)[2]
        k = self.envelope(self.scheme.power(n), self.norm.p)
        return (0.5 * abs(cT) * k if cT != 0.0 else 0.0), k


@dataclass
class StepResult:
    """One solved step. ``deltas`` holds the first Picard delta and every
    later one, from y* on the affine path (empty on a step with cT = 0).
    ``power_x`` is T^p x_n, the operator term of the first Picard iterate
    (None on a step with cT = 0, which evaluates no power). It is not
    frozen: a frozen dataclass's ``__init__`` takes about twice as long,
    and every step builds one."""

    x: np.ndarray
    inner_iters: int
    q: float
    k: float
    bound: float
    deltas: list = field(default_factory=list)
    power_x: Optional[np.ndarray] = None


def implicit_step(cfg: SolverConfig, n: int, x_n,
                  coefficients: tuple[float, float, float] | None = None) -> StepResult:
    """Solve one implicit step by Picard iteration on the step map G.

    Returns the accepted iterate together with the inner iteration count
    and the final a-posteriori bound; the accepted iterate is within
    tol_inner of the exact step solution whenever the contraction bound
    is valid. For a mapping with an ``affine`` power whose first iterate
    y_1 = G(x_n) does not meet tol_inner, the step's linear system is
    solved once and its solution y* only replaces the warm start: the
    same loop runs from y*, inner_iters counts from there, and the first
    pass also checks the pair (y_1, G(y*)). Raises IllPosedError if
    q_n >= 1, if a Picard delta is non-finite or exceeds the first one,
    if the linear system is singular, or if ||y_1 - G(y*)|| > q_n
    ||x_n - y*|| + tol_inner (no q_n-contraction does any of these), and
    InnerBudgetError if max_inner is hit first (the achieved bound is
    attached), and InvalidInputError if a step without the operator term
    (cT = 0) comes out non-finite. ``x_n`` is checked once; the loop and
    the contraction run on raw arrays. ``coefficients`` is step n's
    (cf, cx, cT) when the caller has computed it already.
    """
    x_n = as_vector(x_n, dim=cfg.mapping.domain_dim)
    cf, cx, cT = coefficients or cfg.scheme.coefficients(cfg.schedule, n)
    p = cfg.scheme.power(n)
    q, k = cfg.step_bound(n, cT)
    if q >= 1.0:
        raise IllPosedError(
            f"implicit step not a contraction at n={n}: q_n = {q:.6f} >= 1", n=n, q=q
        )

    base = cx * x_n
    if cf != 0.0:
        base = base + cf * np.asarray(cfg.contraction.apply(x_n), dtype=float)

    if cT == 0.0:
        # operator term absent: the step map is constant, and no Picard
        # delta checks that it is finite
        if not np.isfinite(base).all():
            raise InvalidInputError(f"step {n} is not finite: the contraction gave NaN or Inf")
        return StepResult(x=base, inner_iters=1, q=q, k=k, bound=0.0)

    power = power_operator(cfg.mapping, p, cap=cfg.power_cap)
    size = norm_kernel(cfg.norm)
    factor = q / (1.0 - q)
    tol, max_inner = cfg.tol_inner, cfg.max_inner
    # the first iterate's midpoint is x_n itself: 0.5 * (x_n + x_n) == x_n
    power_x = power(x_n)
    y = base + cT * power_x
    residual = y - x_n  # of the affine system at x_n too
    first = size(residual)
    if not math.isfinite(first):
        raise _bad_delta(n, q, first, first, 1)
    # every later delta must be <= first, which NaN and inf fail too
    deltas = [first]
    bound = factor * first
    m, y1 = 1, None
    if bound > tol and cfg.mapping.affine is not None:
        # restart from y* = x_n + e, with (I - (cT/2) A_p) e = G(x_n) - x_n (the
        # system's residual at x_n); the loop counts from y* and first checks
        # that G brings x_n and y* closer by q_n
        try:
            y1, y = y, x_n + cfg.mapping.affine.solve(p, 0.5 * cT, residual)
        except np.linalg.LinAlgError as exc:
            raise IllPosedError(f"singular implicit system at n={n}: {exc}", n=n, q=q) from exc
        m, bound = 0, math.inf
    while bound > tol:
        if m == max_inner:
            raise InnerBudgetError(
                f"inner solver hit max_inner={max_inner} at n={n}; achieved bound {bound:.3e}",
                n=n, achieved_bound=bound, iterations=max_inner,
            )
        m += 1
        y_new = base + cT * power(0.5 * (x_n + y))
        delta = size(y_new - y)
        if not delta <= first:
            raise _bad_delta(n, q, delta, first, m)
        if y1 is not None:  # G(y*): the pair check, once
            gap, dist = size(y1 - y_new), size(x_n - y)
            if not gap <= q * dist + tol:
                raise _diverges(n, q, f"||G(x_n) - G(y*)|| = {gap:.3e} for "
                                      f"||x_n - y*|| = {dist:.3e}")
            y1 = None
        deltas.append(delta)
        y, bound = y_new, factor * delta
    return StepResult(x=y, inner_iters=m, q=q, k=k, bound=bound, deltas=deltas,
                      power_x=power_x)


def _bad_delta(n: int, q: float, delta: float, first: float, m: int) -> IllPosedError:
    if not math.isfinite(delta):
        return IllPosedError(f"step {n} is not finite: Picard delta {delta:.3e} "
                             f"at iteration {m}", n=n, q=q)
    return _diverges(n, q, f"Picard delta {delta:.3e} after {first:.3e} at iteration {m}")


def _diverges(n: int, q: float, evidence: str) -> IllPosedError:
    return IllPosedError(
        f"implicit step diverges at n={n}: {evidence}, so q_n = {q:.6f} understates "
        f"the operator's Lipschitz constant", n=n, q=q,
    )


# trace.csv's names of step n's values, which follow n and x_n in its rows
STEP_COLUMNS = ("step_norm", "res_T", "res_Tn", "inner_iters", "q_n", "a_n", "b_n", "c_n", "k_n")


def _step_column(name: str) -> property:
    """The view of ``rows`` that is trace.csv's column ``name``, n = 1..N."""
    i = STEP_COLUMNS.index(name) - len(STEP_COLUMNS)
    return property(lambda self: self.rows[:-1, i])


@dataclass(frozen=True, eq=False)
class Trace:
    """A run as the table of its trace.csv rows.

    Row n - 1 of ``rows`` is n, x_n and step n's :data:`STEP_COLUMNS`, and
    a last row is N + 1, x_{N+1} and NaNs. ``x`` (x_1 .. x_{N+1}), ``final``
    and the step columns are views of it. res_map is ||x_n - T x_n||,
    res_power is ||x_n - T^n x_n|| (NaN when the power is uncomputable
    under the configured cap), inner_iters holds whole numbers, a, b, c
    are the schedule's values, and k is the step's k_p: q = |cT| k / 2.
    ``stop`` is why :func:`run` ended it, and ``converged`` is stop != "max_outer".
    """

    rows: np.ndarray
    stop: str

    converged = property(lambda self: self.stop != "max_outer")
    x = property(lambda self: self.rows[:, 1:-len(STEP_COLUMNS)])
    final = property(lambda self: self.rows[-1, 1:-len(STEP_COLUMNS)])
    step_norm = _step_column("step_norm")
    res_map = _step_column("res_T")
    res_power = _step_column("res_Tn")
    inner_iters = _step_column("inner_iters")
    q = _step_column("q_n")
    a = _step_column("a_n")
    b = _step_column("b_n")
    c = _step_column("c_n")
    k = _step_column("k_n")

    def __len__(self):
        return len(self.rows) - 1


# rows allocated upfront; the table doubles when full, so a huge
# max_outer costs no memory until the run uses it
_FIRST_ROWS = 4096
# rows are finished, and passed on, in blocks of this many
BLOCK_ROWS = 64


def run(cfg: SolverConfig,
        on_block: Optional[Callable[[np.ndarray], None]] = None) -> Trace:
    """Iterate the configured scheme from x1.

    The trace's ``stop`` is "tol_step" ("stationary" if tol_step = 0) once
    ||x_{n+1} - x_n|| <= tol_step, which on a step whose operator
    coefficient cT is 0 also needs ||x_n - T x_n|| <= tol_step, else
    "max_outer" after max_outer steps. Well-posedness is checked as each
    step is reached: IllPosedError(n, q) is raised when q_n >= 1, before
    step n is solved, so a run that stops earlier returns normally.
    :func:`~midpointfp.schedules.validate` checks the same q_n over a
    whole horizon upfront.

    Rows are finished in blocks of :data:`BLOCK_ROWS` steps (n, the step
    values and res_map are written per block, the last block possibly
    shorter). After each finished block that the run goes on from,
    ``on_block(rows)`` gets trace.csv's rows so far, a view of the table
    that the returned :class:`Trace` holds; the last block is never passed on.
    """
    total, d = cfg.max_outer, cfg.mapping.domain_dim
    rows = min(total, _FIRST_ROWS)
    table = np.empty((rows + 1, 1 + d + len(STEP_COLUMNS)))
    size = norm_kernel(cfg.norm)
    apply = cfg.mapping.apply
    sched = cfg.schedule
    use_power = cfg.scheme.use_power
    x = table[0, 1:1 + d] = cfg.x1
    start, block = 0, []  # block: the STEP_COLUMNS values of the block's steps
    for n in range(1, total + 1):
        abc = sched.a(n), sched.b(n), sched.c(n)
        coef = cfg.scheme.coefficients_from(*abc)
        step = implicit_step(cfg, n, x, coefficients=coef)  # checks x_n, then q_n < 1
        if use_power and step.power_x is not None:  # T^n x_n, evaluated by the step
            res_power = size(x - step.power_x)
        else:
            try:
                res_power = size(x - power_operator(cfg.mapping, n, cfg.power_cap)(x))
            except InvalidInputError:  # n-fold power beyond the cap
                res_power = math.nan
        step_norm = size(step.x - x)
        if n > rows:  # table full: double it
            rows = min(2 * rows, total)
            table = np.concatenate((table, np.empty((rows + 1 - len(table), table.shape[1]))))
        # n and the step values are written when the block is finished, res_T last
        block.append((step_norm, math.nan, res_power, step.inner_iters, step.q, *abc, step.k))
        # a cT = 0 step can stand still off the fixed set: it stops only where T x = x
        stopped = step_norm <= cfg.tol_step and (
            coef[2] != 0.0 or size(x - apply(x)) <= cfg.tol_step
        )
        x = table[n, 1:1 + d] = step.x
        last = stopped or n == total
        if last or n % BLOCK_ROWS == 0:  # ||x - T x|| of the block's rows, bit for bit per row
            table[start:n, 1 + d:] = block
            block.clear()
            E = table[start:n, 1:1 + d] - cfg.mapping.images(apply, table[start:n, 1:1 + d])
            table[start:n, 0] = np.arange(start + 1, n + 1)
            table[start:n, 2 + d] = _row_norms(E) if cfg.norm.p == 2.0 else [size(e) for e in E]
            if last:
                break
            if on_block is not None:
                on_block(table[:n])
            start = n
    table[n, 0], table[n, 1 + d:] = n + 1, math.nan  # the row of x_{n+1}
    stop = ("tol_step" if cfg.tol_step > 0.0 else "stationary") if stopped else "max_outer"
    return Trace(rows=table[: n + 1], stop=stop)
