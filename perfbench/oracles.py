"""Step oracles and trace checks of the benchmark, independent of the solver.

Every workload runs AGVIM with f(x) = x/2 and the paper schedule, so step n
solves

    x = a_n x_n / 2 + b_n x_n + c_n (A_n (x_n + x) / 2 + b_n')

where u -> A_n u + b_n' is the n-th power of the operator on the piece of
the plane (flip map) or of the space (affine map) that holds the midpoint.
The program solves this step by Picard iteration to within ``tol_inner``;
the oracles here solve it directly and every row of a written ``trace.csv``
is compared with them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS = np.finfo(float).eps


def paper_coefficients(n):
    """(a_n, b_n, c_n) of the paper schedule, elementwise for an array of n."""
    n = np.asarray(n, dtype=float)
    return 1.0 / n, (n - 1.0) / (n * (n + 1.0)), (n - 1.0) / (n + 1.0)


@dataclass
class TraceFile:
    n: np.ndarray
    x: np.ndarray  # (rows, d) iterates x_n
    step_norm: np.ndarray
    inner_iters: np.ndarray

    @property
    def rows(self) -> int:
        return self.n.size


def read_trace(path) -> TraceFile:
    """Parse a trace.csv written by ``midpointfp run`` or ``reproduce-table1``."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    col = {name: i for i, name in enumerate(header)}
    xcols = [i for name, i in col.items() if name.startswith("x") and name[1:].isdigit()]
    return TraceFile(
        n=data[:, col["n"]].astype(int),
        x=data[:, xcols],
        step_norm=data[:, col["step_norm"]],
        inner_iters=data[:, col["inner_iters"]].astype(int),
    )


def flip_steps(n: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exact AGVIM steps for the flip map, one per row of ``x``.

    On the open mixed-sign region T^n is the identity, elsewhere it is
    (-1)^n I. With sign s the step is x_n scaled by
    (a/2 + b + c s/2) / (1 - c s/2); the branch whose midpoint lies in its
    own region is accepted. Rows with no or two consistent branches are NaN.
    """
    a, b, c = paper_coefficients(n)
    out = np.full_like(x, np.nan)
    consistent = np.zeros(n.size, dtype=int)
    parity = np.where(n % 2 == 0, 1.0, -1.0)
    for s, in_mixed in ((np.ones(n.size), True), (parity, False)):
        ratio = (0.5 * a + b + 0.5 * c * s) / (1.0 - 0.5 * c * s)
        y = ratio[:, None] * x
        mid = 0.5 * (x + y)
        mixed = mid[:, 0] * mid[:, 1] < 0.0
        ok = mixed if in_mixed else ~mixed
        out[ok] = y[ok]
        consistent += ok
    out[consistent != 1] = np.nan
    return out


def affine_steps(A: np.ndarray, b: np.ndarray, n: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exact AGVIM steps for u -> A u + b by a dense linear solve per row.

    (A_n, b_n') is formed by repeated products, one per step, so ``n`` must
    run 1, 2, 3, ... as it does in a trace.
    """
    d = b.size
    if not np.array_equal(n, np.arange(1, n.size + 1)):
        raise ValueError("affine oracle needs consecutive steps from n = 1")
    a_n, b_n, c_n = paper_coefficients(n)
    An, bn = np.eye(d), np.zeros(d)
    eye = np.eye(d)
    out = np.empty_like(x)
    for i in range(n.size):
        An, bn = A @ An, A @ bn + b
        xn = x[i]
        rhs = (0.5 * a_n[i] + b_n[i]) * xn + c_n[i] * (0.5 * An @ xn + bn)
        out[i] = np.linalg.solve(eye - 0.5 * c_n[i] * An, rhs)
    return out


@dataclass
class StepCheck:
    rows: int
    inner_iters: int
    err_max: float  # worst step error in units of tol_inner
    problems: list


def check_steps(trace: TraceFile, oracle_next: np.ndarray, tol_inner: float,
                products_per_step: np.ndarray) -> StepCheck:
    """Compare each accepted step with the oracle.

    Rows 1..N-1 compare x_{n+1} with the oracle step from x_n; the last row
    compares its step_norm with ||oracle(x_N) - x_N||. A step passes when its
    error is at most tol_inner plus the oracle's own rounding, bounded by
    eps (8 + sqrt(k d)) (1 + ||x_n|| + ||x_{n+1}||) for an oracle that forms
    its operator power with k matrix products in dimension d.
    """
    problems = []
    x = trace.x
    d = x.shape[1]
    if np.isnan(oracle_next).any():
        bad = int(trace.n[np.isnan(oracle_next).any(axis=1)][0])
        problems.append(f"no unique oracle branch at n={bad}")
        oracle_next = np.nan_to_num(oracle_next)
    err = np.empty(trace.rows)
    err[:-1] = np.linalg.norm(x[1:] - oracle_next[:-1], axis=1)
    err[-1] = abs(np.linalg.norm(oracle_next[-1] - x[-1]) - trace.step_norm[-1])
    nxt = np.vstack([x[1:], oracle_next[-1:]])
    scale = 1.0 + np.linalg.norm(x, axis=1) + np.linalg.norm(nxt, axis=1)
    slack = EPS * (8.0 + np.sqrt(products_per_step * d)) * scale
    over = err > tol_inner + slack
    if over.any():
        i = int(np.argmax(err - tol_inner - slack))
        problems.append(
            f"{int(over.sum())} step(s) off the oracle; worst at n={int(trace.n[i])}: "
            f"{err[i]:.3e} > {tol_inner:.1e} + slack {slack[i]:.1e}"
        )
    # the step_norm column must be the norm of the written step
    recorded = np.linalg.norm(x[1:] - x[:-1], axis=1)
    mismatch = np.abs(recorded - trace.step_norm[:-1]) > 4.0 * EPS * (1.0 + recorded)
    if mismatch.any():
        problems.append(f"step_norm column disagrees with the iterates at {int(mismatch.sum())} row(s)")
    if not np.array_equal(trace.n, np.arange(1, trace.rows + 1)):
        problems.append("step index column is not 1..N")
    if (trace.inner_iters < 1).any():
        problems.append("inner_iters below 1")
    return StepCheck(trace.rows, int(trace.inner_iters.sum()), float(err.max() / tol_inner), problems)


def check_flip_trace(path, tol_inner: float) -> StepCheck:
    trace = read_trace(path)
    return check_steps(trace, flip_steps(trace.n, trace.x), tol_inner, np.ones(trace.rows))


def check_affine_trace(path, A, b, tol_inner: float) -> StepCheck:
    trace = read_trace(path)
    return check_steps(trace, affine_steps(A, b, trace.n, trace.x), tol_inner,
                       trace.n.astype(float))
