"""Implicit-midpoint iteration family: inner step solver and outer loops.

Each outer step n solves the implicit equation

    x = cf * f(x_n) + cx * x_n + cT * T^p((x_n + x) / 2)

for x, where the coefficient triple (cf, cx, cT) and the power p depend
on the scheme (see :data:`SCHEMES`). The step map is a contraction with
factor q_n = |cT| * k_p / 2 whenever q_n < 1, so the step is solved by
Picard iteration warm-started at x_n, with secant steps (Anderson
acceleration, window 1), and stopped by the standard a-posteriori error
bound q/(1-q) * ||G(y) - y||, which holds for G(y) at any y. q_n comes
from ``SolverConfig.step_values`` alone, with the step's other values, its
L_p from ``Mapping.lipschitz``, and q_n < 1 is checked as step n is reached.

For affine T (a mapping with ``affine``) the step is the linear system
(I - (cT/2) A_p) x = cf f(x_n) + cx x_n + cT (A_p x_n / 2 + b_p).
When the first Picard iterate misses the bound, ``affine.solve`` solves
it once, for the correction from x_n whose right-hand side is that
iterate's residual G(x_n) - x_n, in A's eigenbasis (O(d^2) per step) or
by LU where the eigenbasis is ill-conditioned. The solve only moves the
warm start, to y* = x_n + e with e that correction. T^p being affine, the
pass at y* is G(y*) = G(x_n) + (cT/2) A_p e (A_p from ``affine.pair``; no
second T^p evaluation), and it checks that the step map contracts by q_n
along the solve, ||(cT/2) A_p e|| <= q_n ||e|| + tol_inner, which catches
an envelope that understates T. Later passes are the one Picard loop's, so
the accepted iterate passes the same a-posteriori bound whatever the
solve's accuracy. The tests check it against LU, with binary powering.

:func:`run` returns a :class:`Trace`: one table whose rows are the
rows of trace.csv, with each column as a view of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import IllPosedError, InnerBudgetError, InvalidInputError
from .mappings import Contraction, Mapping, _declared_k, power_operator
from .schedules import Schedule
from .space import NormSpec, _row_norms, _vdot, as_vector, norm_kernel

__all__ = [
    "Scheme",
    "SCHEMES",
    "scheme_by_name",
    "SolverConfig",
    "StepValues",
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


class StepValues(NamedTuple):
    """Step n's a_n, b_n, c_n, the coefficients cf, cx, cT of f(x_n), x_n and
    T^p(midpoint), p, k = k_p and q = q_n (:meth:`SolverConfig.step_values`)."""

    a: float
    b: float
    c: float
    cf: float
    cx: float
    cT: float
    p: int
    k: float
    q: float


_new_row = tuple.__new__


@dataclass(frozen=True)
class SolverConfig:
    """Everything a run needs.

    ``tol_step = 0`` stops a run only at a step norm of 0
    (see :func:`run`); with a positive tol_step, tol_inner must be
    strictly smaller so the inner error cannot pollute the outer stopping
    decision. T^p of a mapping without a closed form (built in code) is a
    p-fold application, for p up to ``mappings.POWER_CAP``.
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

    def __post_init__(self):
        object.__setattr__(self, "x1", as_vector(self.x1, dim=self.mapping.domain_dim))
        if not all(isinstance(m, (int, np.integer)) and not isinstance(m, bool) and m >= 1
                   for m in (self.max_inner, self.max_outer)):  # a count never equals inf or 2.5
            raise InvalidInputError(f"max_inner and max_outer must be integers >= 1, got "
                                    f"{self.max_inner!r} and {self.max_outer!r}")
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

    def _bounds(self, p: int) -> tuple[float, float]:
        """The schedule's k_p and L_p of T^p in the run's norm."""
        return _declared_k(self.schedule.k, p), self.mapping.lipschitz(p, self.norm.p)

    def step_values(self, n: int) -> StepValues:
        """Step n's :class:`StepValues`: a_n, b_n, c_n and what :func:`_step_row` makes
        of them, with k_p = max(schedule k_p, L_p) of T^p in the run's norm. ``run`` makes
        one per step, as step n is reached, so an error names its n."""
        sched = self.schedule
        # tuple.__new__ skips StepValues' Python-level __new__: 0.2 us a row, not 0.56
        return _new_row(StepValues, _step_row(self.scheme, n, sched.a(n), sched.b(n),
                                              sched.c(n), self._bounds))

    def step_table(self, horizon: int) -> tuple[StepValues, np.ndarray]:
        """Steps n = 1..horizon as columns: the :class:`StepValues` whose row n - 1 is
        ``step_values(n)`` bit for bit, and the 2-norm k_n = max(schedule k_n, L_n).

        The schedule's a, b, c and k and the mapping's envelope are each called once
        per n, with n an int, row by row in the order ``step_values`` calls them, so
        the first row that raises names its n. L_p goes through ``Mapping.lipschitz``
        per p only where that reads affine pairs (an affine map at r != 2), and the
        schemes of p = 1 read k_1 and L_1 once. The rest is column arithmetic."""
        if horizon < 1:
            raise InvalidInputError(f"a step table needs a horizon >= 1, got {horizon}")
        sched, mapping, r = self.schedule, self.mapping, self.norm.p
        seq_a, seq_b, seq_c, seq_k, seq_env = sched.a, sched.b, sched.c, sched.k, mapping.envelope
        per_p = mapping.affine is not None and r != 2.0 and self.scheme.use_power
        a, b, c, k, env, lip = [], [], [], [], [], []
        for n in range(1, horizon + 1):
            a.append(seq_a(n))
            b.append(seq_b(n))
            c.append(seq_c(n))
            k.append(_declared_k(seq_k, n))
            env.append(_declared_k(seq_env, n))
            if per_p:
                lip.append(mapping.lipschitz(n, r, env[-1]))
        a, b, c, k, env = np.array((a, b, c, k, env), dtype=float)
        ns = np.arange(1, horizon + 1)
        if not self.scheme.use_power:
            bounds = (float(k[0]), mapping.lipschitz(1, r, float(env[0])))
        else:
            bounds = (k, np.array(lip) if per_p else mapping.lipschitz(ns, r, env))
        with np.errstate(over="ignore", invalid="ignore"):  # as float arithmetic does
            row = _step_row(self.scheme, ns, a, b, c, lambda p: bounds, np.where)
        # k_n at r = 2: the larger of the schedule's k_n and the mapping's
        return (StepValues._make(np.broadcast_to(v, (horizon,)) for v in row),
                np.where(env > k, env, k))


def _pick(cond, x, y):
    """x if cond else y: np.where of one step's values."""
    return x if cond else y


def _step_row(scheme: Scheme, n, a, b, c, bounds, where=_pick) -> tuple:
    """The :class:`StepValues` fields of step n from a_n, b_n, c_n, the one derivation
    of :meth:`SolverConfig.step_values` and :meth:`SolverConfig.step_table`: (cf, cx,
    cT) and p as the :class:`Scheme` says, k_p = max of the pair ``bounds(p)`` (the
    schedule's k_p and L_p), and q_n = |cT| * k_p / 2 (cT < 0 comes from, e.g., a
    custom c_n < 0), which is 0 on a step without the operator term (cT = 0), also
    where k_p is inf. Of one step with floats, or of columns with ``where=np.where``."""
    if not scheme.viscosity:
        cf, cx, cT = 0.0, 1.0 - a, a
    elif scheme.keep_inertia:
        cf, cx, cT = a, b, c
    else:
        cf, cx, cT = a, 0.0, 1.0 - a
    p = n if scheme.use_power else 1
    k_p, lip = bounds(p)
    k = where(lip > k_p, lip, k_p)  # max(k_p, lip), the first of equals
    return a, b, c, cf, cx, cT, p, k, 0.5 * abs(cT) * where(cT != 0.0, k, 0.0)


@dataclass
class StepResult:
    """One solved step. ``deltas`` holds the first Picard delta and the
    delta ||G(y) - y|| of every later pass, a dropped secant point's too,
    from y* on the affine path (empty on a step with cT = 0).
    ``power_x`` is T^p x_n, the operator term of the first Picard iterate
    (None on a step with cT = 0, which evaluates no power). It is not
    frozen: a frozen dataclass's ``__init__`` takes about twice as long,
    and every step builds one."""

    x: np.ndarray
    inner_iters: int
    bound: float
    deltas: list = field(default_factory=list)
    power_x: Optional[np.ndarray] = None


def implicit_step(cfg: SolverConfig, n: int, x_n,
                  values: StepValues | None = None) -> StepResult:
    """Solve one implicit step by Picard iteration on the step map G.

    Returns the accepted iterate together with the inner iteration count
    and the final a-posteriori bound; the accepted iterate is within
    tol_inner of the exact step solution whenever the contraction bound
    is valid. From the third pass on, a pass at y that misses tol_inner
    is followed by a secant step from the pairs (y, G(y) - y) of it and
    of the kept pass before it; a secant point whose delta exceeds that
    of the pass whose Picard iterate it replaced is dropped, and the loop
    goes on with Picard from that iterate. For a mapping with an
    ``affine`` power whose first iterate y_1 = G(x_n) does not meet
    tol_inner, the step's linear system is solved once for y* = x_n + e,
    which only replaces the warm start: inner_iters counts from y*, whose
    pass G(y*) = y_1 + (cT/2) A_p e is formed by linearity and checks the
    pair (y_1, G(y*)), and the loop goes on from G(y*). Raises IllPosedError
    if q_n >= 1, if the delta of a plain Picard pass is non-finite or
    exceeds the first one, if the linear system is singular, if T^p or
    lam^p is past the float range, or if ||(cT/2) A_p e|| > q_n ||e|| +
    tol_inner (no q_n-contraction does any of these), and
    InnerBudgetError if max_inner is hit first (the achieved bound is
    attached), and InvalidInputError if a step without the operator term
    (cT = 0) comes out non-finite. ``x_n`` is checked once; the loop and
    the contraction run on raw arrays. ``values`` is
    ``cfg.step_values(n)`` when the caller has made it already.
    """
    x_n = as_vector(x_n, dim=cfg.mapping.domain_dim)
    _, _, _, cf, cx, cT, p, _, q = values or cfg.step_values(n)
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
        return StepResult(x=base, inner_iters=1, bound=0.0)

    power = power_operator(cfg.mapping, p)
    size = norm_kernel(cfg.norm)
    factor = q / (1.0 - q)
    tol, max_inner = cfg.tol_inner, cfg.max_inner
    # the first iterate's midpoint is x_n itself: 0.5 * (x_n + x_n) == x_n
    try:
        power_x = power(x_n)
    except InvalidInputError as exc:  # an affine T^p past the float range
        raise IllPosedError(f"cannot evaluate the step at n={n}: {exc}", n=n, q=q) from exc
    y = base + cT * power_x
    residual = y - x_n  # of the affine system at x_n too
    first = size(residual)
    if not math.isfinite(first):
        raise _bad_delta(n, q, first, first, 1)
    # every later plain delta must be <= first, which NaN and inf fail too
    deltas = [first]
    bound = factor * first
    # prev: (y, G(y) - y) of the last kept pass; plain: the Picard iterate
    # that a secant point y replaced, and the delta of the pass that made it
    m, prev, plain = 1, None, None
    if bound > tol and cfg.mapping.affine is not None:
        # restart from y* = x_n + e, with (I - (cT/2) A_p) e = G(x_n) - x_n (the
        # system's residual at x_n). By linearity G(y*) = G(x_n) + (cT/2) A_p e, and G
        # brings x_n and y* closer by q_n if ||(cT/2) A_p e|| <= q_n ||e||, no cancellation
        try:
            e = cfg.mapping.affine.solve(p, 0.5 * cT, residual)
        except np.linalg.LinAlgError as exc:
            raise IllPosedError(f"singular implicit system at n={n}: {exc}", n=n, q=q) from exc
        except InvalidInputError as exc:  # A_p or lam^p past the float range
            raise IllPosedError(f"cannot solve the implicit system at n={n}: {exc}",
                                n=n, q=q) from exc
        term = 0.5 * cT * cfg.mapping.affine.pair(p)[0].dot(e)
        y_star, y = x_n + e, y + term
        f = y - y_star
        delta = size(f)
        deltas.append(delta)
        if not delta <= first:
            raise _bad_delta(n, q, delta, first, 1)
        gap, dist = size(term), size(e)
        if not gap <= q * dist + tol:
            raise _diverges(n, q, f"||G(x_n) - G(y*)|| = {gap:.3e} for "
                                  f"||x_n - y*|| = {dist:.3e}")
        prev, bound = (y_star, f), factor * delta
    while bound > tol:
        if m == max_inner:
            raise InnerBudgetError(
                f"inner solver hit max_inner={max_inner} at n={n}; achieved bound {bound:.3e}",
                n=n, achieved_bound=bound, iterations=max_inner,
            )
        m += 1
        y_new = base + cT * power(0.5 * (x_n + y))
        f = y_new - y
        delta = size(f)
        deltas.append(delta)
        if plain is not None:  # y is a secant point: kept only if no worse
            if not delta <= plain[1]:  # back to Picard from the iterate it replaced
                y, prev, plain = plain[0], None, None
                continue
            plain = None
        elif not delta <= first:
            raise _bad_delta(n, q, delta, first, m)
        bound = factor * delta
        if prev is not None and bound > tol:  # secant step: G(y) - gamma (G(y) - G(y'))
            df = f - prev[1]
            dd = float(_vdot(df, df))
            gamma = float(_vdot(f, df)) / dd if dd > 0.0 else math.nan
            if math.isfinite(gamma):
                plain = y_new, delta
                y_new = y_new - gamma * (y - prev[0] + df)
        prev, y = (y, f), y_new
    return StepResult(x=y, inner_iters=m, bound=bound, deltas=deltas, power_x=power_x)


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
    res_power is ||x_n - T^n x_n|| (NaN for an n-fold power past POWER_CAP
    or an affine one past the float range), inner_iters holds whole numbers,
    and q, a, b, c and k are step n's :class:`StepValues` q_n, a_n, b_n, c_n and k_p.
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
    x = table[0, 1:1 + d] = cfg.x1
    start, block = 0, []  # block: the STEP_COLUMNS values of the block's steps
    for n in range(1, total + 1):
        v = cfg.step_values(n)
        step = implicit_step(cfg, n, x, v)  # checks x_n, then q_n < 1
        if v.p == n and step.power_x is not None:  # T^n x_n, evaluated by the step
            res_power = size(x - step.power_x)
        else:
            try:
                res_power = size(x - power_operator(cfg.mapping, n)(x))
            except InvalidInputError:  # n-fold power beyond the cap, or past the float range
                res_power = math.nan
        step_norm = size(step.x - x)
        if n > rows:  # table full: double it
            rows = min(2 * rows, total)
            table = np.concatenate((table, np.empty((rows + 1 - len(table), table.shape[1]))))
        # n and the step values are written when the block is finished, res_T last
        block.append((step_norm, math.nan, res_power, step.inner_iters, v.q, v.a, v.b, v.c, v.k))
        # a cT = 0 step can stand still off the fixed set: it stops only where T x = x
        stopped = step_norm <= cfg.tol_step and (
            v.cT != 0.0 or size(x - apply(x)) <= cfg.tol_step
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
