"""Independent oracles for affine maps u -> A u + b, for the tests.

They share no code with the library's affine powers or its implicit
step: powers come by binary powering rather than the library's product
chain, and the step's linear system is solved directly by LU. Step n's
coefficients and power are those the library's step reads,
``SolverConfig.step_values(n)``.
"""

from __future__ import annotations

import numpy as np

from midpointfp.errors import IllPosedError, InvalidInputError
from midpointfp.solver import SolverConfig
from midpointfp.space import as_vector


def affine_power_pair(A: np.ndarray, b: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(A_n, b_n) with (u -> A u + b)^n = u -> A_n u + b_n, by binary powering."""
    if n < 1:
        raise InvalidInputError(f"power must be a positive integer, got {n}")
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    # composition: (A1, b1) after (A2, b2) = (A1 A2, A1 b2 + b1)
    rA, rb = np.eye(A.shape[0]), np.zeros_like(b)
    pA, pb = A, b
    m = n
    while m > 0:
        if m & 1:
            rA, rb = pA @ rA, pA @ rb + pb
        m >>= 1
        if m:
            pA, pb = pA @ pA, pA @ pb + pb
    return rA, rb


def implicit_step_affine_oracle(A, b, cfg: SolverConfig, n: int, x_n) -> np.ndarray:
    """Exact implicit step n of ``cfg``'s scheme for the affine map u -> A u + b.

    Solves (I - (cT/2) A_p) x = cf f(x_n) + cx x_n + cT (A_p x_n / 2 + b_p)
    directly, with (cf, cx, cT) and p from ``cfg.step_values(n)``, f the
    config's contraction, and (A_p, b_p) the affine p-th power by binary
    powering.
    """
    A = np.asarray(A, dtype=float)
    x_n = as_vector(x_n, dim=A.shape[0])
    v = cfg.step_values(n)
    Ap, bp = affine_power_pair(A, b, v.p)
    rhs = v.cx * x_n + v.cT * (Ap @ x_n / 2.0 + bp)
    if v.cf != 0.0:
        rhs = rhs + v.cf * cfg.contraction(x_n)
    M = np.eye(A.shape[0]) - 0.5 * v.cT * Ap
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise IllPosedError(f"singular implicit system at n={n}: {exc}", n=n) from exc
