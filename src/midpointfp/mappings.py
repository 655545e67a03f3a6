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
from .space import _largest, _row_norms, as_vector

__all__ = [
    "Mapping",
    "Contraction",
    "EnvelopeReport",
    "make_flip_map",
    "make_affine",
    "make_affine_contraction",
    "make_scaling_contraction",
    "power_operator",
    "verify_envelope",
]

# half-width of the box the envelope check and the flip map's samplers draw from
SAMPLE_RADIUS = 2.0
# largest ratio - k_n that the envelope check passes
ENVELOPE_TOL = 1e-10
POWER_CAP = 1_000  # largest n of a power formed by n-fold application (no closed form)
_EPS = float(np.finfo(float).eps)


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
    correction e from x_n to each implicit step's warm start; the step
    reads A_p from ``affine.pair`` to form its pass there by linearity.

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

    def lipschitz(self, p: int, r: float = 2.0, k: float | None = None) -> float:
        """L_p, bounding the Lipschitz constant of T^p in the r-norm: an affine
        map's exact ||A_p||_inf at r = inf (inf once A_p overflows), else
        envelope(p) times rho = d^|1/r - 1/2| (rho = 1 at r = 2; Higham,
        Accuracy and Stability of Numerical Algorithms, ch. 6). At r != 2 an
        affine map takes the smaller of that and the Riesz-Thorin bound
        ||A_p||_1^(1/r) ||A_p||_inf^(1 - 1/r), rounded up (inf once it overflows;
        unused when A_p is 0). ``k`` is envelope(p) when the caller has read it
        (by ``_declared_k``); where no affine pair is read (r = 2, or a map
        without ``affine``), p and k may be columns, and so is L_p."""
        if math.isinf(r) and self.affine is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                lip = float(np.linalg.norm(self.affine.pair(p)[0], np.inf))
            return math.inf if math.isnan(lip) else lip
        rho = 1.0 if r == 2.0 else self.domain_dim ** abs(1.0 / r - 0.5)
        bound = rho * (_declared_k(self.envelope, p) if k is None else k)
        if r == 2.0 or self.affine is None:
            return bound
        # as row (col / row)^(1/r), whose rounded exponent moves it by at most
        # ln(d) eps / 2 (col / row lies in [1/d, d]); the sums' errors, up to
        # (d - 1) eps / 2 each, the quotient, the power and the product stay
        # within (1.5 d + 0.5 ln d) eps, so it is rounded up by 2 (d + 1) eps
        with np.errstate(over="ignore", invalid="ignore"):
            Ap = self.affine.pair(p)[0]
            row = np.linalg.norm(Ap, np.inf)
            riesz = float(row * (np.linalg.norm(Ap, 1) / row) ** (1.0 / r)
                          * (1.0 + 2 * (self.domain_dim + 1) * _EPS))
        # a NaN, from an A_p that is 0 or overflowed, leaves rho k_p
        return riesz if riesz < bound else bound


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


def power_operator(mapping: Mapping, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """u -> T^n u on vectors the caller has already checked.

    The closed form bound to n when the mapping has one, else n-fold
    application, for n up to POWER_CAP: a larger n raises InvalidInputError.
    """
    if n < 1:
        raise InvalidInputError(f"power must be a positive integer, got {n}")
    if mapping.power is not None:
        return partial(mapping.power, n)
    if n > POWER_CAP:
        raise InvalidInputError(f"power {n} exceeds the n-fold application cap {POWER_CAP} "
                                f"for mapping {mapping.name!r} (no closed-form power)")
    apply = mapping.apply

    def fold(u: np.ndarray) -> np.ndarray:
        for _ in range(n):
            u = np.asarray(apply(u), dtype=float)
        return u

    return fold


# ---------------------------------------------------------------------------
# concrete mappings


def _flip_apply(u: np.ndarray) -> np.ndarray:
    # sign-flip outside the open mixed-sign region, read from signs; axes flip too
    if u.ndim == 2:
        return _flip_rows(u)
    u0, u1 = u.tolist()  # Python floats: faster to compare than numpy scalars
    if u0 < 0.0 < u1 or u1 < 0.0 < u0:
        return u.copy()
    return -u


def _flip_power(n: int, u: np.ndarray) -> np.ndarray:
    # T is an involution: T^n is the identity for even n, T for odd n
    return u.copy() if n % 2 == 0 else _flip_apply(u)


def _flip_rows(U: np.ndarray) -> np.ndarray:
    """T on each row of a (B, 2) stack: a branch mask per row."""
    u0, u1 = U[:, 0], U[:, 1]
    return np.where(((u0 < 0.0) & (u1 > 0.0) | (u1 < 0.0) & (u0 > 0.0))[:, None], U, -U)


def _flip_sample(rng: np.random.Generator, count: int) -> np.ndarray:
    # points on the coordinate cross, where all powers act as +/- identity
    pts = np.zeros((count, 2))
    axes = rng.integers(0, 2, size=count)
    vals = rng.uniform(-SAMPLE_RADIUS, SAMPLE_RADIUS, size=count)
    pts[np.arange(count), axes] = vals
    return pts


def make_flip_map(envelope: Callable[[int], float] | None = None) -> Mapping:
    """Plane map fixing the open mixed-sign quadrants and negating elsewhere.

    Tu = u when u1 < 0 < u2 or u2 < 0 < u1, Tu = -u otherwise (axis points
    are negated). Fixed-point set: {0} together with that region.
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


# above this kappa_1(V) an implicit step is solved by LU instead (the
# eigenbasis then amplifies rounding too much)
_EIGEN_KAPPA_MAX = 1e3
# largest |s| max|lam^p| of an eigenbasis solve: every 1 - s lam_j^p is >= 2^-20
_EIGEN_SCALE_MAX = 1.0 - 2.0 ** -20
# while no entry of A_n or b_n can exceed this, neither the chain's next
# products nor lam^n (|lam^n| <= d max|A_n|) can leave the float range: the
# margin of 1e8 below it also covers d and the products' rounding
_POWER_ROOM = 1e300


class _AffinePower:
    """n-th powers of an affine map on one chain, holding only the last
    pair formed, and the solve of the implicit step's linear system.

    The chain forms T^(m+1) = T o T^m with one product per power, so
    ``pair(n)`` is the same bits whatever was asked before: a run asks
    for n = 1, 2, 3, ... (possibly interleaved with n = 1, which is T
    itself), a request for an earlier n restarts the chain at T, and one
    for n < 1 raises InvalidInputError. A power past the float range holds
    inf or NaN entries, formed without a RuntimeWarning; ``__call__`` and
    :meth:`solve` refuse it.
    :meth:`solve` works in A's eigenbasis A = V diag(lam) V^-1, computed
    on its first call, which restarts the chain too; lam^n then comes from
    the same steps as (A_n, b_n).
    """

    def __init__(self, A: np.ndarray, b: np.ndarray):
        self.A, self.b = A, b
        # max|A B| <= ||A||_inf max|B|, and b_(m+1) = A b_m + b adds max|b|
        self._grow, self._shift = float(np.linalg.norm(A, np.inf)), float(np.abs(b).max())
        self._eig = None  # (lam, V, V^-1, rho) once solve has run; False if unusable
        self._restart()

    def _restart(self):
        # T^1: (A_n, b_n), a bound on their entries and, while _eig is set, lam^n at n = 1
        self._n, self._An, self._bn = 1, self.A, self.b
        self._size = max(float(np.abs(self.A).max()), self._shift)
        if self._eig:
            self._lam_n = self._eig[0]

    def pair(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        if n == self._n:  # the pair held: a step asks for it more than once
            return self._An, self._bn
        if n == 1:
            return self.A, self.b
        if n < self._n:
            if n < 1:
                raise InvalidInputError(f"power must be a positive integer, got {n}")
            self._restart()
        while self._n < n:
            size = self._grow * self._size + self._shift  # bounds the next pair's entries
            if not size <= _POWER_ROOM:  # bound them again from the pair held (NaN stays)
                size = self._shift + self._grow * float(
                    np.maximum(np.abs(self._An).max(), np.abs(self._bn).max()))
            if size <= _POWER_ROOM:
                self._next()
            else:
                with np.errstate(over="ignore", invalid="ignore"):
                    self._next()
            self._size = size
        return self._An, self._bn

    def _next(self):
        """T^(m+1) = T o T^m, and lam^(m+1)."""
        self._An, self._bn = self.A.dot(self._An), self.A.dot(self._bn) + self.b
        if self._eig:
            self._lam_n = self._eig[0] * self._lam_n
        self._n += 1

    def _refuse_past_range(self, n: int, lam: bool = False):
        """InvalidInputError naming n if the held pair, or with ``lam`` lam^n, is not
        finite; checked only once n != 1 and the bound on the pair passes _POWER_ROOM."""
        if n == 1 or self._size <= _POWER_ROOM:
            return
        held = (self._An, self._bn, self._lam_n) if lam and self._eig else (self._An, self._bn)
        if not all(np.isfinite(v).all() for v in held):
            raise InvalidInputError(f"power {n} of the affine map is past the float range")

    def __call__(self, n: int, u: np.ndarray) -> np.ndarray:
        An, bn = self.pair(n)
        self._refuse_past_range(n)
        return _affine_apply(An, bn, u)

    def solve(self, p: int, s: float, r: np.ndarray) -> np.ndarray:
        """y with (I - s A_p) y = r.

        In the eigenbasis, y = V ((V^-1 r) / (1 - s lam^p)): two complex d x d
        products, whose error scales with ||r|| and the drift of lam^p from
        the A_p formed by products (about p eps), so the step solver passes
        its residual at x_n as r. LU is used instead when eig or inv fails,
        when kappa_1(V) > _EIGEN_KAPPA_MAX (Bauer-Fike: V then amplifies
        rounding), or when |s| max|lam^p| > _EIGEN_SCALE_MAX. Raises
        np.linalg.LinAlgError when the LU system is singular, and
        InvalidInputError naming p when A_p or lam^p is past the float range.
        """
        if self._eig is None:
            self._eig = _eigenbasis(self.A)
            self._restart()
        Ap = self.pair(p)[0]
        self._refuse_past_range(p, lam=True)
        if self._eig:
            lam, V, Vinv, rho = self._eig
            if p != 1:  # lam^p; below, |s| rho^p <= MAX as p-th roots, which cannot overflow
                lam = self._lam_n
            if abs(s) ** (1.0 / p) * rho <= _EIGEN_SCALE_MAX ** (1.0 / p):  # NaN fails too
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

    The default envelope bounds ||A_n||_2 by the powers themselves: k_n = 1
    when the computed ||A||_2 <= 1 + 4 d eps (within rounding of 1), else
    k_n = max(1, min(||A||_2^n, sqrt(||A_n||_1 ||A_n||_inf))) (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 6), with A_n the
    pair the map's powers are formed by and the square root rounded up. It
    admits a map that expands while its powers shrink, which the paper's
    class of asymptotically nonexpansive maps holds. Pass ``envelope`` to
    declare another sequence.
    """
    A, bv = _affine_parts(A, b)
    power = _AffinePower(A, bv)
    if envelope is None:
        envelope = _power_envelope(power)
    return Mapping(
        apply=partial(_affine_apply, A, bv),
        envelope=envelope,
        domain_dim=bv.size,
        power=power,
        name="affine",
        affine=power,
        rowwise=True,
    )


def _power_envelope(power: _AffinePower) -> Callable[[int], float]:
    """:func:`make_affine`'s default envelope of the powers ``power`` forms."""
    A, d = power.A, power.A.shape[0]
    base = float(np.linalg.norm(A, 2))
    # ||A||_2 comes from a backward stable SVD, whose error is p(d) eps ||A||_2
    # with p(d) a modestly growing function of d (LAPACK Users' Guide, sec.
    # 4.9). Orthogonal matrices from QR read 1 + 2 eps to 1 + 4 eps at every d
    # from 2 to 100, so p(d) = 4 d leaves a margin at small d too; a true norm
    # of 1 + 4 d eps read as 1 would understate k_n by at most 4 n d eps
    if base <= 1.0 + 4 * d * _EPS:
        return lambda n: 1.0
    # a float column or row sum of d terms, the product of two and its square
    # root are within (d + 1) eps / 2 of exact, relatively
    up = 1.0 + (d + 1) * _EPS

    def envelope(n: int) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            An = power.pair(n)[0]
            by_pair = math.sqrt(np.linalg.norm(An, 1) * np.linalg.norm(An, np.inf)) * up
        try:
            geometric = base ** n
        except OverflowError:
            geometric = math.inf
        # a NaN by_pair, from an A_n that overflowed, leaves the geometric bound
        return max(1.0, by_pair if by_pair < geometric else geometric)

    return envelope


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
    it overflows a float, InvalidInputError when it is NaN or negative."""
    try:
        k = float(envelope(n))
    except OverflowError:  # e.g. the default affine envelope 1.9 ** 1107
        return math.inf
    if math.isnan(k):
        raise InvalidInputError(f"declared envelope value k_n is NaN at n={n}")
    if k < 0.0:  # it would make q_n, and the step's error bound, negative
        raise InvalidInputError(f"declared envelope value k_n = {k:g} is negative at n={n}")
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
    # max over n <= n_max of ||A_n||_2 - k_n for an affine map, else None
    exact_excess: float | None = None

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        exact = ("" if self.exact_excess is None
                 else f"; exact ||A_n||_2 check: max excess {self.exact_excess:.3e}")
        return (
            f"envelope check: {status} in the 2-norm (max excess {self.max_excess:.3e} "
            f"at n={self.worst_n}, {self.samples} pairs, n_max={self.n_max}, tol={self.tol:g}"
            f"{exact})"
        )


def verify_envelope(mapping: Mapping, n_max: int, samples: int, seed: int) -> EnvelopeReport:
    """Check ``||T^n u - T^n v||_2 <= k_n ||u - v||_2`` on random pairs.

    k_n is ``mapping.lipschitz(n)``, the declared envelope(n); a k_n that
    overflows a float reads as inf, and a NaN or negative one raises
    InvalidInputError. Pairs are drawn from the mapping's own sampling domain
    when it declares one, else uniformly from [-SAMPLE_RADIUS, SAMPLE_RADIUS]^d
    (2); pairs closer than 1e-9 are discarded to avoid ratio blowup. Reports
    the maximum over samples and n <= n_max of ratio - k_n, at the first n and
    pair that attain it; passes iff <= ENVELOPE_TOL (1e-10). For a map with
    ``affine``, whose expanding direction sampling can miss, it also reports
    the maximum of ||A_n||_2 - k_n, from the pair the powers are formed by
    (inf once A_n overflows), as ``exact_excess``, and passes only if both do.
    Each drawn stack of sample points is checked once. Per n, the u side
    and the v side of the pairs each go through :meth:`Mapping.images`,
    T^n on the pairs or T on the previous images: 2 * n_max calls for a
    ``rowwise`` map, 2 * samples * n_max otherwise. An exceeded envelope,
    also a distance that overflows to inf, yields a failing report; a
    malformed or non-finite sample stack, a malformed stack of images, a
    NaN or Inf entry in an image difference T^n u - T^n v, or an affine
    power past the float range, raises InvalidInputError.
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

    maxima = []  # per power, the largest excess and the first pair attaining it
    exact_excess = None if mapping.affine is None else -math.inf
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
        k_n = mapping.lipschitz(n)
        # a NaN excess (inf - inf against k_n = inf, or inf / inf) reads -inf: it names no n
        excess = np.fmax(_row_norms(diffs) / denoms - k_n, -np.inf)
        if mapping.affine is not None:
            An = mapping.affine.pair(n)[0]
            exact = float(np.linalg.norm(An, 2)) if np.isfinite(An).all() else math.inf
            exact_excess = max(exact_excess, exact - k_n)
        maxima.append(_largest(excess))
    max_excess, worst_n = _largest([m for m, _ in maxima])
    i = maxima[worst_n - 1][1] - 1
    return EnvelopeReport(
        passed=bool(max_excess <= ENVELOPE_TOL
                    and (exact_excess is None or exact_excess <= ENVELOPE_TOL)),
        max_excess=max_excess,
        worst_n=worst_n,
        worst_pair=(us[i].copy(), vs[i].copy()),
        n_max=n_max,
        samples=samples,
        tol=ENVELOPE_TOL,
        per_power_excess={n: m for n, (m, _) in enumerate(maxima, 1) if m > -np.inf},
        exact_excess=exact_excess,
    )
