"""Operators: the mapping interface, a small library of concrete maps,
and the envelope verifier.

A :class:`Mapping` bundles the operator itself, an optional closed form
for its n-th power (for affine maps also as a matrix pair), and an
envelope sequence ``k_n >= 1`` bounding the Lipschitz constant of every
power. A :class:`Contraction` is the viscosity anchor f with constant
alpha < 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import InvalidInputError
from .space import as_vector, norm

__all__ = [
    "Mapping",
    "Contraction",
    "EnvelopeReport",
    "make_flip_map",
    "flip_fixed",
    "make_affine",
    "make_scaling",
    "make_contraction_half",
    "make_scaling_contraction",
    "affine_power_pair",
    "operator_norm_est",
    "apply_power",
    "power_operator",
    "verify_envelope",
]


@dataclass(frozen=True)
class Mapping:
    """An operator T on R^d with its asymptotic envelope.

    ``envelope(n)`` must bound ``||T^n x - T^n y||_2 / ||x - y||_2`` on
    the mapping's sampling domain; it is the quantity :func:`verify_envelope`
    checks, and a run in another norm converts it (``SolverConfig.step_bound``).
    ``power`` is an optional closed form for T^n; when absent, powers are
    evaluated by n-fold application. ``sample_domain`` draws points from
    the region the envelope is declared on; when absent the verifier
    samples a uniform box. ``affine_pair(n)``, when present, returns
    (A_n, b_n) with T^n u = A_n u + b_n; the step solver then solves each
    implicit step as a linear system.
    """

    apply: Callable[[np.ndarray], np.ndarray]
    envelope: Callable[[int], float]
    domain_dim: int
    power: Optional[Callable[[int, np.ndarray], np.ndarray]] = None
    sample_domain: Optional[Callable[[np.random.Generator, int], np.ndarray]] = None
    name: str = "mapping"
    affine_pair: Optional[Callable[[int], tuple[np.ndarray, np.ndarray]]] = None

    def __call__(self, u) -> np.ndarray:
        v = as_vector(u, dim=self.domain_dim)
        return np.asarray(self.apply(v), dtype=float)


@dataclass(frozen=True)
class Contraction:
    """Viscosity anchor f with contraction constant alpha in [0, 1)."""

    apply: Callable[[np.ndarray], np.ndarray]
    alpha: float
    name: str = "contraction"

    def __post_init__(self):
        if not (0.0 <= self.alpha < 1.0):
            raise InvalidInputError(f"contraction constant must lie in [0, 1), got {self.alpha}")

    def __call__(self, u) -> np.ndarray:
        return np.asarray(self.apply(as_vector(u)), dtype=float)


def power_operator(
    mapping: Mapping, n: int, cap: int | None = None
) -> Callable[[np.ndarray], np.ndarray]:
    """u -> T^n u on vectors the caller has already checked.

    The closed form bound to n when the mapping has one, else n-fold
    application. ``cap`` bounds the n of a fold; exceeding it raises
    InvalidInputError so that O(n) per-step cost stays an explicit choice.
    """
    if n < 1:
        raise InvalidInputError(f"power must be a positive integer, got {n}")
    if mapping.power is not None:
        return partial(mapping.power, n)
    if cap is not None and n > cap:
        raise InvalidInputError(
            f"power {n} exceeds the n-fold application cap {cap} "
            f"for mapping {mapping.name!r} (no closed-form power)"
        )
    apply = mapping.apply

    def fold(u: np.ndarray) -> np.ndarray:
        for _ in range(n):
            u = np.asarray(apply(u), dtype=float)
        return u

    return fold


def apply_power(mapping: Mapping, n: int, u, cap: int | None = None) -> np.ndarray:
    """T^n u, via the closed form when available, else n-fold application
    (bounded by ``cap``, see :func:`power_operator`)."""
    power = power_operator(mapping, n, cap)
    return np.asarray(power(as_vector(u, dim=mapping.domain_dim)), dtype=float)


# ---------------------------------------------------------------------------
# concrete mappings


def _flip_apply(u: np.ndarray) -> np.ndarray:
    # sign-flip outside the open mixed-sign region; axes flip too
    if u[0] * u[1] < 0.0:
        return u.copy()
    return -u


def _flip_power(n: int, u: np.ndarray) -> np.ndarray:
    if u[0] * u[1] < 0.0:
        return u.copy()
    return u.copy() if n % 2 == 0 else -u


def _flip_sample(rng: np.random.Generator, count: int, radius: float = 2.0) -> np.ndarray:
    # points on the coordinate cross, where all powers act as +/- identity
    pts = np.zeros((count, 2))
    axes = rng.integers(0, 2, size=count)
    vals = rng.uniform(-radius, radius, size=count)
    pts[np.arange(count), axes] = vals
    return pts


def make_flip_map(envelope: Callable[[int], float] | None = None) -> Mapping:
    """Plane map fixing the open mixed-sign quadrants and negating elsewhere.

    Tu = u when u1*u2 < 0, Tu = -u when u1*u2 >= 0 (axis points are
    negated). Fixed-point set: {0} together with {u : u1*u2 < 0}.
    T^n has the closed form u (mixed signs) or (-1)^n u. The default
    envelope is k_n = 1 + 2^-n; on the sampling domain every power is an
    isometry, so k_n = 1 is also valid.
    """
    env = envelope if envelope is not None else (lambda n: 1.0 + 0.5 ** n)
    return Mapping(
        apply=_flip_apply,
        envelope=env,
        domain_dim=2,
        power=_flip_power,
        sample_domain=_flip_sample,
        name="flip",
    )


def flip_fixed(u) -> bool:
    """Membership test for the flip map's fixed-point set."""
    v = as_vector(u, dim=2)
    return bool(v[0] * v[1] < 0.0 or (v[0] == 0.0 and v[1] == 0.0))


def operator_norm_est(A: np.ndarray) -> float:
    """Spectral norm ||A||_2 of ``A``."""
    return float(np.linalg.norm(np.asarray(A, dtype=float), 2))


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


class _AffinePower:
    """n-th powers of an affine map, holding only the last pair formed.

    A run asks for n = 1, 2, 3, ... (possibly interleaved with n = 1), so
    T^n comes from T^(n-1) with one product; any other n falls back to
    binary powering.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray):
        self.A = A
        self.b = b
        self._n, self._An, self._bn = 1, A, b

    def pair(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        if n == 1:
            return self.A, self.b
        if n != self._n:
            if n == self._n + 1:
                # T^n = T o T^(n-1)
                self._An, self._bn = self.A @ self._An, self.A @ self._bn + self.b
            else:
                self._An, self._bn = affine_power_pair(self.A, self.b, n)
            self._n = n
        return self._An, self._bn

    def __call__(self, n: int, u: np.ndarray) -> np.ndarray:
        An, bn = self.pair(n)
        return An @ u + bn


def make_affine(A, b, envelope: Callable[[int], float] | None = None) -> Mapping:
    """u -> A u + b with closed-form powers and their affine pairs.

    Default envelope is max(1, ||A||_2)^n; pass ``envelope`` to declare
    a sharper sequence.
    """
    A = np.asarray(A, dtype=float)
    bv = as_vector(b)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInputError(f"A must be square, got shape {A.shape}")
    if A.shape[0] != bv.size:
        raise InvalidInputError(f"dimension mismatch: A is {A.shape}, b has {bv.size}")
    if not np.all(np.isfinite(A)):
        raise InvalidInputError("A contains NaN or Inf")
    if envelope is None:
        base = max(1.0, operator_norm_est(A))
        envelope = lambda n, _base=base: _base ** n
    power = _AffinePower(A, bv)
    return Mapping(
        apply=lambda u: A @ u + bv,
        envelope=envelope,
        domain_dim=bv.size,
        power=power,
        name="affine",
        affine_pair=power.pair,
    )


def make_scaling(factor: float, dim: int, envelope: Callable[[int], float] | None = None) -> Mapping:
    """u -> factor * u (envelope defaults to max(1,|factor|)^n)."""
    return make_affine(factor * np.eye(dim), np.zeros(dim), envelope=envelope)


def make_contraction_half() -> Contraction:
    """f(x) = x/2 with alpha = 1/2."""
    return Contraction(apply=lambda u: 0.5 * u, alpha=0.5, name="half")


def make_scaling_contraction(factor: float) -> Contraction:
    """f(x) = factor * x; requires |factor| < 1."""
    if not abs(factor) < 1.0:
        raise InvalidInputError(f"scaling contraction needs |factor| < 1, got {factor}")
    return Contraction(apply=lambda u: factor * u, alpha=abs(factor), name=f"scale({factor})")


# ---------------------------------------------------------------------------
# envelope verification


@dataclass(frozen=True)
class EnvelopeReport:
    """Outcome of sampling-based envelope verification."""

    passed: bool
    max_excess: float
    worst_n: int
    worst_pair: tuple
    n_max: int
    samples: int
    tol: float
    per_power_excess: dict = field(default_factory=dict)

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (
            f"envelope check: {status} in the 2-norm (max excess {self.max_excess:.3e} "
            f"at n={self.worst_n}, {self.samples} pairs, n_max={self.n_max}, tol={self.tol:g})"
        )


def verify_envelope(
    mapping: Mapping,
    n_max: int,
    samples: int,
    seed: int,
    radius: float = 2.0,
    envelope: Callable[[int], float] | None = None,
    tol: float = 1e-10,
) -> EnvelopeReport:
    """Check ``||T^n u - T^n v||_2 <= k_n ||u - v||_2`` on random pairs.

    Pairs are drawn from the mapping's own sampling domain when it
    declares one, else uniformly from [-radius, radius]^d; pairs closer
    than 1e-9 are discarded to avoid ratio blowup. Reports the maximum
    over samples and n <= n_max of ratio - k_n; passes iff <= ``tol``.
    A violating mapping yields a failing report, not an exception.
    """
    if n_max < 1 or samples < 1:
        raise InvalidInputError("n_max and samples must be >= 1")
    env = envelope if envelope is not None else mapping.envelope
    rng = np.random.default_rng(seed)
    d = mapping.domain_dim

    def draw(count):
        if mapping.sample_domain is not None:
            return mapping.sample_domain(rng, count)
        return rng.uniform(-radius, radius, size=(count, d))

    pairs = []
    guard = 0
    while len(pairs) < samples and guard < 100 * samples + 100:
        us = draw(samples)
        vs = draw(samples)
        for u, v in zip(us, vs):
            if np.linalg.norm(u - v) >= 1e-9:
                pairs.append((u, v))
                if len(pairs) == samples:
                    break
        guard += samples
    if len(pairs) < samples:
        raise InvalidInputError("could not draw enough well-separated sample pairs")

    max_excess = -np.inf
    worst_n = 1
    worst_pair = pairs[0]
    per_power = {}
    denoms = [norm(u - v) for u, v in pairs]
    images = list(pairs)  # (T^n u, T^n v) of each pair
    # n runs outermost so that each power is formed once, in the
    # sequential order closed-form powers are built in
    for n in range(1, n_max + 1):
        k_n = env(n)
        for i, (u, v) in enumerate(pairs):
            if mapping.power is not None:
                tu = apply_power(mapping, n, u)
                tv = apply_power(mapping, n, v)
            else:
                tu, tv = images[i]
                tu = np.asarray(mapping.apply(tu), dtype=float)
                tv = np.asarray(mapping.apply(tv), dtype=float)
                images[i] = (tu, tv)
            excess = norm(tu - tv) / denoms[i] - k_n
            if excess > per_power.get(n, -np.inf):
                per_power[n] = excess
            if excess > max_excess:
                max_excess = excess
                worst_n = n
                worst_pair = (u.copy(), v.copy())
    return EnvelopeReport(
        passed=bool(max_excess <= tol),
        max_excess=float(max_excess),
        worst_n=worst_n,
        worst_pair=worst_pair,
        n_max=n_max,
        samples=samples,
        tol=tol,
        per_power_excess=per_power,
    )
