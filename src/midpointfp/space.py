"""Finite-dimensional normed-space primitives.

Vectors are 1-D float64 arrays. The space is R^d equipped with a p-norm,
1 < p <= inf; p = 2 is the Hilbert case. The normalized duality map J
pairs a point with the functional of equal norm that attains
<x, J(x)> = ||x||^2; for p-norms it has the closed form implemented in
:func:`duality_map`, and for p = 2 it is the identity.

It also holds the column reductions the reports share: the 2-norm of each
row of a stack, and the rule by which a report names its n, the first n
that attains a value (``_first``, ``_largest``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError, UnsupportedNormError

__all__ = ["NormSpec", "as_vector", "norm_kernel", "norm", "duality_map"]

# v . v as ndarray.dot sums it, bit for bit, but without a warning when the sum
# overflows: np.vdot, called past its __array_function__ dispatch, which costs
# about 0.2 us a call, as much as the sum itself at d <= 60
_vdot = getattr(np.vdot, "_implementation", np.vdot)


@dataclass(frozen=True)
class NormSpec:
    """p-norm selector, p in (1, inf]. Defaults to the Euclidean norm."""

    p: float = 2.0

    def __post_init__(self):
        if not (self.p > 1.0):
            raise UnsupportedNormError(f"norm exponent must satisfy p > 1, got {self.p}")

    @property
    def q(self) -> float:
        """Dual exponent p / (p - 1)."""
        if math.isinf(self.p):
            return 1.0
        return self.p / (self.p - 1.0)


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Validate and convert ``x`` to a finite 1-D float64 array.

    Raises
    ------
    InvalidInputError
        If ``x`` is not 1-D with at least one coordinate, contains a
        non-finite entry, or does not match ``dim`` when given.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise InvalidInputError(f"expected a 1-D vector, got shape {v.shape}")
    # v . v is finite when every entry is, unless it overflows, and only then
    # are the entries scanned
    if not math.isfinite(_vdot(v, v)) and not np.isfinite(v).all():
        raise InvalidInputError("vector contains NaN or Inf")
    if dim is not None and v.size != dim:
        raise InvalidInputError(f"dimension mismatch: expected {dim}, got {v.size}")
    return v


def norm_kernel(spec: NormSpec = NormSpec()) -> Callable[[np.ndarray], float]:
    """The p-norm as an unchecked function of a 1-D float64 array.

    For callers that have checked their vectors already, such as an inner
    loop. For p = 2 it is the square root of the dot product, which is
    what ``np.linalg.norm`` computes for such an array, bit for bit; where
    that dot product overflows a float but the entries are finite, it is
    the largest magnitude times the norm of the vector divided by it.
    """
    p = spec.p
    if p == 2.0:
        return _norm_2
    if math.isinf(p):
        return _norm_inf
    return lambda v: float(np.linalg.norm(v, ord=p))


def _norm_2(v: np.ndarray) -> float:
    # only if v . v overflows while every entry is finite is the norm taken
    # of v scaled by its largest magnitude
    r = math.sqrt(_vdot(v, v))
    if r == math.inf and np.isfinite(v).all():
        m = float(np.abs(v).max())
        u = v / m
        return m * math.sqrt(_vdot(u, u))
    return r


def _norm_inf(v: np.ndarray) -> float:
    return float(np.max(np.abs(v)))


def _row_norms(E: np.ndarray) -> np.ndarray:
    """2-norm of each row of E, each bit for bit ``norm_kernel()`` of the row:
    one dot product per row (np.einsum sums in another order), and a row
    whose squared norm passes the float range is handed to ``_norm_2``."""
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.matmul(E[:, None, :], E[:, :, None])[:, 0, 0])
    for i in np.flatnonzero(np.isinf(norms)):
        norms[i] = _norm_2(E[i])
    return norms


def _first(bad, start: int = 1) -> int | None:
    """The n of the first true entry of the mask ``bad``, whose entry 0 is n =
    ``start``, or None."""
    hits = np.flatnonzero(bad)
    return int(hits[0]) + start if hits.size else None


def _largest(vals) -> tuple[float, int]:
    """The largest entry of the column ``vals`` and the n of its first, n = 1..."""
    i = int(np.argmax(vals))
    return float(vals[i]), i + 1


def norm(x, spec: NormSpec = NormSpec()) -> float:
    """p-norm of ``x``; 0 iff x = 0."""
    return norm_kernel(spec)(as_vector(x))


def duality_map(x, spec: NormSpec = NormSpec()) -> np.ndarray:
    """Normalized duality map J(x) for the p-norm, 1 < p < inf.

    Componentwise ``||x||_p^(2-p) * |x_i|^(p-1) * sign(x_i)``, so that
    <x, J(x)> = ||x||_p^2 and ||J(x)||_q = ||x||_p with q = p/(p-1).
    J(0) = 0, and for p = 2 the map is the identity (exactly, including
    in floating point).

    Raises
    ------
    UnsupportedNormError
        If p = inf (the dual formula needs a finite exponent).
    """
    if math.isinf(spec.p):
        raise UnsupportedNormError("duality map requires a finite exponent 1 < p < inf")
    v = as_vector(x)
    p = spec.p
    nrm = norm_kernel(spec)(v)
    if nrm == 0.0:
        return np.zeros_like(v)
    return nrm ** (2.0 - p) * np.abs(v) ** (p - 1.0) * np.sign(v)
