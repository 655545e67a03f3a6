"""Independent oracles for affine maps u -> A u + b, for the tests.

They share no code with the library's affine powers or its implicit
step: powers come by binary powering rather than the library's product
chain, and the step's linear system is solved directly by LU.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from midpointfp.errors import IllPosedError, InvalidInputError
from midpointfp.mappings import Contraction
from midpointfp.schedules import Schedule
from midpointfp.solver import Scheme
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


def implicit_step_affine_oracle(
    A,
    b,
    scheme: Scheme,
    schedule: Schedule,
    n: int,
    x_n,
    contraction: Optional[Contraction] = None,
) -> np.ndarray:
    """Exact implicit step for an affine mapping u -> A u + b.

    Solves (I - (cT/2) A_p) x = cf f(x_n) + cx x_n + cT (A_p x_n / 2 + b_p)
    directly, with (A_p, b_p) the affine p-th power by binary powering.
    """
    A = np.asarray(A, dtype=float)
    x_n = as_vector(x_n, dim=A.shape[0])
    cf, cx, cT = scheme.coefficients(schedule, n)
    p = scheme.power(n)
    Ap, bp = affine_power_pair(A, b, p)
    rhs = cx * x_n + cT * (Ap @ x_n / 2.0 + bp)
    if cf != 0.0:
        if contraction is None:
            raise InvalidInputError("scheme uses a contraction but none was given")
        rhs = rhs + cf * contraction(x_n)
    M = np.eye(A.shape[0]) - 0.5 * cT * Ap
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise IllPosedError(f"singular implicit system at n={n}: {exc}", n=n) from exc
