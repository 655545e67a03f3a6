"""Operators: the mapping interface, a small library of concrete maps,
and the envelope verifier.

A :class:`Mapping` bundles the operator itself, an optional closed form
for its n-th power (for affine maps also as a matrix pair), and an
envelope sequence ``k_n >= 1`` bounding the Lipschitz constant of every
power. A :class:`Contraction` is the viscosity anchor f with constant
alpha < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import InvalidInputError
from .space import _row_norms, as_vector

__all__ = [
    "Mapping",
    "Contraction",
    "EnvelopeReport",
    "make_flip_map",
    "make_affine",
    "make_affine_contraction",
    "make_scaling_contraction",
    "affine_power_pair",
    "power_operator",
    "verify_envelope",
]

# half-width of the box the envelope check and the flip map's samplers draw from
SAMPLE_RADIUS = 2.0
# largest ratio - k_n that the envelope check passes
ENVELOPE_TOL = 1e-10


@dataclass(frozen=True)
class Mapping:
    """An operator T on R^d with its asymptotic envelope.

    ``envelope(n)`` must bound ``||T^n x - T^n y||_2 / ||x - y||_2`` on
    the mapping's sampling domain; it is the quantity :func:`verify_envelope`
    checks, and :meth:`lipschitz` turns it into a bound in a run's norm.
    ``power`` is an optional closed form for T^n; when absent, powers are
    evaluated by n-fold application. ``sample_domain`` draws points from
    the region the envelope is declared on; when absent the verifier
    samples a uniform box. ``affine``, present for a map built by
    :func:`make_affine`, holds its powers as pairs: ``affine.pair(n)``
    returns (A_n, b_n) with T^n u = A_n u + b_n, and ``affine.solve(p, s, r)``
    solves (I - s A_p) y = r, which the step solver uses for the
    correction from x_n to each implicit step's warm start.

    ``rowwise`` declares that ``apply`` and ``power`` also take a (B, d)
    stack of points and return the (B, d) stack of their images, each row
    bit for bit the 1-D call on that row; :meth:`images` then evaluates a
    stack in one call. The flip and affine maps declare it. It is opt-in
    because a map written for 1-D input can return wrong rows on a stack
    without failing (``lambda u: Q @ u`` on a (d, d) stack computes Q U,
    not U Q^T), so an undeclared map only ever receives 1-D points. Stacks
    go through ``apply`` and ``power`` themselves, so whatever wraps those
    two fields sees every evaluation.
    """

    apply: Callable[[np.ndarray], np.ndarray]
    envelope: Callable[[int], float]
    domain_dim: int
    power: Optional[Callable[[int, np.ndarray], np.ndarray]] = None
    sample_domain: Optional[Callable[[np.random.Generator, int], np.ndarray]] = None
    name: str = "mapping"
    affine: Optional[_AffinePower] = None
    rowwise: bool = False

    def __call__(self, u) -> np.ndarray:
        v = as_vector(u, dim=self.domain_dim)
        return np.asarray(self.apply(v), dtype=float)

    def images(self, f: Callable[[np.ndarray], np.ndarray], U: np.ndarray) -> np.ndarray:
        """f (``apply`` or a power) on each row of the (B, d) stack U: one
        call for a ``rowwise`` map, else one per row. Raises
        InvalidInputError unless the images form a stack of U's shape."""
        if self.rowwise:
            images = np.asarray(f(U), dtype=float)
        else:
            images = np.array([np.asarray(f(u), dtype=float) for u in U])
        if images.shape != U.shape:
            raise InvalidInputError(f"mapping {self.name!r} gave images of shape "
                                    f"{images.shape} for points of shape {U.shape}")
        return images

    def lipschitz(self, p: int, r: float = 2.0) -> float:
        """L_p, bounding the Lipschitz constant of T^p in the r-norm: an affine
        map's exact ||A_p||_inf at r = inf (inf once A_p overflows), else
        envelope(p) times rho = d^|1/r - 1/2| (rho = 1 at r = 2; Higham,
        Accuracy and Stability of Numerical Algorithms, ch. 6)."""
        if math.isinf(r) and self.affine is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                lip = float(np.linalg.norm(self.affine.pair(p)[0], np.inf))
            return math.inf if math.isnan(lip) else lip
        rho = 1.0 if r == 2.0 else self.domain_dim ** abs(1.0 / r - 0.5)
        return rho * _declared_k(self.envelope, p)


@dataclass(frozen=True)
class Contraction:
    """Viscosity anchor f with contraction constant alpha in [0, 1)."""

    apply: Callable[[np.ndarray], np.ndarray]
    alpha: float

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


# ---------------------------------------------------------------------------
# concrete mappings


def _flip_apply(u: np.ndarray) -> np.ndarray:
    # sign-flip outside the open mixed-sign region; axes flip too
    if u.ndim == 2:
        return _flip_rows(u)
    if u[0] * u[1] < 0.0:
        return u.copy()
    return -u


def _flip_power(n: int, u: np.ndarray) -> np.ndarray:
    # T is an involution: T^n is the identity for even n, T for odd n
    return u.copy() if n % 2 == 0 else _flip_apply(u)


def _flip_rows(U: np.ndarray) -> np.ndarray:
    """T on each row of a (B, 2) stack: a branch mask per row."""
    return np.where((U[:, 0] * U[:, 1] < 0.0)[:, None], U, -U)


def _flip_sample(rng: np.random.Generator, count: int) -> np.ndarray:
    # points on the coordinate cross, where all powers act as +/- identity
    pts = np.zeros((count, 2))
    axes = rng.integers(0, 2, size=count)
    vals = rng.uniform(-SAMPLE_RADIUS, SAMPLE_RADIUS, size=count)
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
        rowwise=True,
    )


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


# above this kappa_1(V) an implicit step is solved by LU instead (the
# eigenbasis then amplifies rounding too much)
_EIGEN_KAPPA_MAX = 1e3
# largest |s| max|lam^p| of an eigenbasis solve: every 1 - s lam_j^p is >= 2^-20
_EIGEN_SCALE_MAX = 1.0 - 2.0 ** -20


class _AffinePower:
    """n-th powers of an affine map on one chain, holding only the last
    pair formed, and the solve of the implicit step's linear system.

    The chain forms T^(m+1) = T o T^m with one product per power, so
    ``pair(n)`` is the same bits whatever was asked before: a run asks
    for n = 1, 2, 3, ... (possibly interleaved with n = 1, which is T
    itself), a request for an earlier n restarts the chain at T, and one
    for n < 1 raises InvalidInputError.
    :meth:`solve` works in A's eigenbasis A = V diag(lam) V^-1, computed
    on its first call, which restarts the chain too; lam^n and
    rho^n = max|lam|^n then come from the same steps as (A_n, b_n).
    """

    def __init__(self, A: np.ndarray, b: np.ndarray):
        self.A, self.b = A, b
        self._eig = None  # (lam, V, V^-1, rho) once solve has run; False if unusable
        self._restart()

    def _restart(self):
        # T^1: (A_n, b_n) and, while _eig is set, lam^n and rho^n at n = 1
        self._n, self._An, self._bn = 1, self.A, self.b
        if self._eig:
            self._lam_n, self._rho_n = self._eig[0], self._eig[3]

    def pair(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        if n == self._n:  # the pair held: a step asks for it more than once
            return self._An, self._bn
        if n == 1:
            return self.A, self.b
        if n < self._n:
            if n < 1:
                raise InvalidInputError(f"power must be a positive integer, got {n}")
            self._restart()
        while self._n < n:  # T^(m+1) = T o T^m
            self._An, self._bn = self.A.dot(self._An), self.A.dot(self._bn) + self.b
            if self._eig:
                self._lam_n = self._eig[0] * self._lam_n
                self._rho_n = self._eig[3] * self._rho_n
            self._n += 1
        return self._An, self._bn

    def __call__(self, n: int, u: np.ndarray) -> np.ndarray:
        An, bn = self.pair(n)
        return _affine_apply(An, bn, u)

    def solve(self, p: int, s: float, r: np.ndarray) -> np.ndarray:
        """y with (I - s A_p) y = r.

        In the eigenbasis, y = V ((V^-1 r) / (1 - s lam^p)): two complex d x d
        products, whose error scales with ||r|| and the drift of lam^p from
        the A_p formed by products (about p eps), so the step solver passes
        its residual at x_n as r. LU is used instead when eig or inv fails,
        when kappa_1(V) > _EIGEN_KAPPA_MAX (Bauer-Fike: V then amplifies
        rounding), or when |s| max|lam^p| > _EIGEN_SCALE_MAX. Raises
        np.linalg.LinAlgError when the LU system is singular.
        """
        if self._eig is None:
            self._eig = _eigenbasis(self.A)
            self._restart()
        Ap = self.pair(p)[0]
        if self._eig:
            lam, V, Vinv, rho = self._eig
            if p != 1:
                lam, rho = self._lam_n, self._rho_n
            if abs(s) * rho <= _EIGEN_SCALE_MAX:  # NaN fails too
                return V.dot(Vinv.dot(r) / (1.0 - s * lam)).real
        return np.linalg.solve(np.eye(r.size) - s * Ap, r)


def _affine_apply(A: np.ndarray, b: np.ndarray, u: np.ndarray) -> np.ndarray:
    """A u + b for a point u, or for each row of a (B, d) stack u."""
    if u.ndim == 1:
        return A.dot(u) + b
    # one gemv per row, as A.dot(u) makes; U @ A.T is a GEMM and rounds differently
    return np.matmul(A, u[..., None])[..., 0] + b


def _eigenbasis(A: np.ndarray):
    """(lam, V, V^-1, max|lam|) with A = V diag(lam) V^-1, or False when eig
    or inv fails or kappa_1(V) = ||V||_1 ||V^-1||_1 exceeds _EIGEN_KAPPA_MAX."""
    try:
        lam, V = np.linalg.eig(A)
        Vinv = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        return False
    kappa = np.linalg.norm(V, 1) * np.linalg.norm(Vinv, 1)
    if not kappa <= _EIGEN_KAPPA_MAX:  # also when NaN
        return False
    return lam, V, Vinv, float(np.abs(lam).max())


def _affine_parts(A, b) -> tuple[np.ndarray, np.ndarray]:
    """A, b of u -> A u + b as floats: A square and finite, b a vector of A's size."""
    A = np.asarray(A, dtype=float)
    bv = as_vector(b)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInputError(f"A must be square, got shape {A.shape}")
    if A.shape[0] != bv.size:
        raise InvalidInputError(f"dimension mismatch: A is {A.shape}, b has {bv.size}")
    if not np.all(np.isfinite(A)):
        raise InvalidInputError("A contains NaN or Inf")
    return A, bv


def make_affine(A, b, envelope: Callable[[int], float] | None = None) -> Mapping:
    """u -> A u + b with closed-form powers and their affine pairs.

    Default envelope is max(1, ||A||_2)^n; pass ``envelope`` to declare
    a sharper sequence.
    """
    A, bv = _affine_parts(A, b)
    if envelope is None:
        base = max(1.0, float(np.linalg.norm(A, 2)))
        envelope = lambda n, _base=base: _base ** n
    power = _AffinePower(A, bv)
    return Mapping(
        apply=partial(_affine_apply, A, bv),
        envelope=envelope,
        domain_dim=bv.size,
        power=power,
        name="affine",
        affine=power,
        rowwise=True,
    )


def make_affine_contraction(A, b) -> Contraction:
    """f(u) = A u + b, checked as by :func:`make_affine`; alpha = ||A||_2 < 1."""
    A, bv = _affine_parts(A, b)
    alpha = float(np.linalg.norm(A, 2))
    if not alpha < 1.0:
        raise InvalidInputError(f"affine contraction needs ||A||_2 < 1, got {alpha:.6f}")
    return Contraction(apply=partial(_affine_apply, A, bv), alpha=alpha)


def make_scaling_contraction(factor: float) -> Contraction:
    """f(x) = factor * x; requires |factor| < 1."""
    if not abs(factor) < 1.0:
        raise InvalidInputError(f"scaling contraction needs |factor| < 1, got {factor}")
    return Contraction(apply=lambda u: factor * u, alpha=abs(factor))


# ---------------------------------------------------------------------------
# envelope verification


def _declared_k(envelope: Callable[[int], float], n: int) -> float:
    """The declared envelope value k_n = ``envelope(n)`` as a float: inf when
    it overflows a float, InvalidInputError when it is NaN."""
    try:
        k = float(envelope(n))
    except OverflowError:  # e.g. the default affine envelope 1.9 ** 1107
        return math.inf
    if math.isnan(k):
        raise InvalidInputError(f"declared envelope value k_n is NaN at n={n}")
    return k


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


def verify_envelope(mapping: Mapping, n_max: int, samples: int, seed: int) -> EnvelopeReport:
    """Check ``||T^n u - T^n v||_2 <= k_n ||u - v||_2`` on random pairs.

    k_n is ``mapping.lipschitz(n)``, the declared envelope(n); a k_n that
    overflows a float reads as inf, and a NaN one raises InvalidInputError.
    Pairs are drawn from the mapping's own sampling domain when it declares
    one, else uniformly from [-SAMPLE_RADIUS, SAMPLE_RADIUS]^d (2); pairs
    closer than 1e-9 are discarded to avoid ratio blowup. Reports the
    maximum over samples and n <= n_max of ratio - k_n; passes iff
    <= ENVELOPE_TOL (1e-10).
    Each drawn stack of sample points is checked once. Per n, the u side
    and the v side of the pairs each go through :meth:`Mapping.images`,
    T^n on the pairs or T on the previous images: 2 * n_max calls for a
    ``rowwise`` map, 2 * samples * n_max otherwise. An exceeded envelope,
    also a distance that overflows to inf, yields a failing report; a
    malformed or non-finite sample stack, a malformed stack of images, or
    a NaN or Inf entry in an image difference T^n u - T^n v, raises
    InvalidInputError.
    """
    if n_max < 1 or samples < 1:
        raise InvalidInputError("n_max and samples must be >= 1")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    d = mapping.domain_dim

    def draw():
        if mapping.sample_domain is None:
            return rng.uniform(-SAMPLE_RADIUS, SAMPLE_RADIUS, size=(samples, d))
        pts = np.asarray(mapping.sample_domain(rng, samples), dtype=float)
        if pts.shape != (samples, d) or not np.all(np.isfinite(pts)):
            raise InvalidInputError(f"sample points must be {samples} finite points in R^{d}, "
                                    f"got an array of shape {pts.shape}")
        return pts

    us, vs = np.empty((0, d)), np.empty((0, d))
    guard = 0
    while len(us) < samples and guard < 100 * samples + 100:
        u, v = draw(), draw()
        keep = _row_norms(u - v) >= 1e-9
        us, vs = np.concatenate((us, u[keep])), np.concatenate((vs, v[keep]))
        guard += samples
    if len(us) < samples:
        raise InvalidInputError("could not draw enough well-separated sample pairs")
    us, vs = us[:samples], vs[:samples]

    max_excess = -np.inf
    worst_n = 1
    worst_pair = (us[0].copy(), vs[0].copy())
    per_power = {}
    denoms = _row_norms(us - vs)
    tus, tvs = us, vs  # T^n of each side
    # n runs outermost so that each power is formed once, in the
    # sequential order closed-form powers are built in
    for n in range(1, n_max + 1):
        if mapping.power is not None:  # T^n of the pairs
            step = partial(mapping.power, n)
            tus, tvs = mapping.images(step, us), mapping.images(step, vs)
        else:  # T of (T^(n-1) u, T^(n-1) v)
            tus, tvs = mapping.images(mapping.apply, tus), mapping.images(mapping.apply, tvs)
        diffs = tus - tvs
        if not np.isfinite(diffs).all():
            raise InvalidInputError(f"an image difference T^{n} u - T^{n} v contains NaN or Inf")
        excess = _row_norms(diffs) / denoms - mapping.lipschitz(n)
        i = int(np.argmax(excess))  # the first pair attaining the maximum
        if excess[i] > -np.inf:
            per_power[n] = float(excess[i])
        if excess[i] > max_excess:
            max_excess = float(excess[i])
            worst_n = n
            worst_pair = (us[i].copy(), vs[i].copy())
    return EnvelopeReport(
        passed=bool(max_excess <= ENVELOPE_TOL),
        max_excess=float(max_excess),
        worst_n=worst_n,
        worst_pair=worst_pair,
        n_max=n_max,
        samples=samples,
        tol=ENVELOPE_TOL,
        per_power_excess=per_power,
    )
