import dataclasses
import math
import re

import numpy as np
import pytest

from midpointfp import mappings
from midpointfp.errors import InvalidInputError
from midpointfp.mappings import (
    Contraction,
    Mapping,
    make_affine,
    make_affine_contraction,
    make_flip_map,
    make_scaling_contraction,
    power_operator,
    verify_envelope,
)
from midpointfp.space import norm

from affine_oracle import affine_power_pair


class TestFlipMap:
    def test_branches(self):
        flip = make_flip_map()
        np.testing.assert_array_equal(flip([1.0, -1.0]), [1.0, -1.0])
        np.testing.assert_array_equal(flip([1.0, 1.0]), [-1.0, -1.0])
        np.testing.assert_array_equal(flip([0.0, 0.0]), [0.0, 0.0])
        # axis points carry the flip branch
        np.testing.assert_array_equal(flip([0.0, 1.0]), [0.0, -1.0])

    def test_powers_against_repeated_application(self):
        flip = make_flip_map()
        u = np.array([1.0, 1.0])
        twice = flip(flip(u))
        np.testing.assert_array_equal(power_operator(flip, 2)(u), twice)
        np.testing.assert_array_equal(twice, [1.0, 1.0])
        thrice = flip(twice)
        np.testing.assert_array_equal(power_operator(flip, 3)(u), thrice)
        np.testing.assert_array_equal(thrice, [-1.0, -1.0])
        np.testing.assert_array_equal(power_operator(flip, 5)(np.array([2.0, -3.0])), [2.0, -3.0])

    @pytest.mark.parametrize("n", [0, -1])
    def test_a_power_below_one_is_refused(self, n):
        with pytest.raises(InvalidInputError, match=f"^power must be a positive integer, got {n}$"):
            power_operator(make_flip_map(), n)

    def test_power_consistency_random(self):
        flip = make_flip_map()
        rng = np.random.default_rng(3)
        for _ in range(100):
            u = rng.uniform(-2.0, 2.0, size=2)
            w = u.copy()
            for n in range(1, 11):
                w = flip(w)
                assert np.linalg.norm(power_operator(flip, n)(u) - w) <= 1e-12

    def test_fixed_set_membership(self):
        # F = {0} together with the open mixed-sign quadrants, also where u1 * u2
        # underflows to -0.0, in the 1-D call and in a stack
        flip = make_flip_map()
        cases = [([1.0, -1.0], True), ([-0.25, 0.75], True), ([0.0, 0.0], True),
                 ([1e-200, -1e-200], True), ([-1e-200, 1e-200], True),
                 ([2.0, 3.0], False), ([0.0, 1.0], False), ([-1.0, -1.0], False)]
        for u, fixed in cases:
            assert np.array_equal(flip(u), u) == fixed
        U = np.array([u for u, _ in cases])
        assert (flip.images(flip.apply, U) == U).all(axis=1).tolist() == [f for _, f in cases]

    def test_envelope_decays_to_one(self):
        flip = make_flip_map()
        assert flip.envelope(1) == 1.5
        assert flip.envelope(60) - 1.0 <= 1e-15
        assert all(flip.envelope(n) >= 1.0 for n in range(1, 50))

    def test_isometry_on_sampling_domain(self):
        # every power is an exact isometry on the mapping's own domain
        flip = make_flip_map()
        rng = np.random.default_rng(5)
        pts = flip.sample_domain(rng, 80)
        for i in range(0, 80, 2):
            u, v = pts[i], pts[i + 1]
            if np.linalg.norm(u - v) < 1e-9:
                continue
            for n in range(1, 11):
                power = power_operator(flip, n)
                lhs = np.linalg.norm(power(u) - power(v))
                assert lhs <= np.linalg.norm(u - v) * (1.0 + 1e-12)


class TestContraction:
    def test_half(self):
        f = make_scaling_contraction(0.5)
        np.testing.assert_array_equal(f([1.0, -1.0]), [0.5, -0.5])
        np.testing.assert_array_equal(f([0.0, 0.0]), [0.0, 0.0])
        assert f.alpha == 0.5

    def test_half_exact_ratio(self):
        f = make_scaling_contraction(0.5)
        rng = np.random.default_rng(9)
        for _ in range(50):
            x, y = rng.standard_normal(2), rng.standard_normal(2)
            if np.array_equal(x, y):
                continue
            num = np.linalg.norm(f(x) - f(y))
            assert num <= 0.5 * np.linalg.norm(x - y) + 1e-12

    def test_affine_contraction(self):
        A, b = np.array([[0.3, 0.4], [0.0, 0.2]]), np.array([1.0, -1.0])
        f = make_affine_contraction(A, b)
        assert f.alpha == np.linalg.norm(A, 2)
        np.testing.assert_array_equal(f([2.0, 3.0]), A @ [2.0, 3.0] + b)
        with pytest.raises(InvalidInputError, match="needs"):
            make_affine_contraction(2.0 * A, b)

    @pytest.mark.parametrize("A, b, message", [
        ([[0.5, 0.0]], [0.0], "A must be square, got shape (1, 2)"),
        ([[0.5, 0.0], [0.0, 0.5]], [0.0, 0.0, 0.0], "dimension mismatch: A is (2, 2), b has 3"),
        ([[0.5, 0.0], [0.0, math.nan]], [0.0, 0.0], "A contains NaN or Inf"),
    ])
    def test_affine_contraction_is_checked_as_the_affine_map(self, A, b, message):
        for make in (make_affine, make_affine_contraction):
            with pytest.raises(InvalidInputError, match=re.escape(message)):
                make(A, b)

    def test_a_constant_of_one_is_refused(self):
        with pytest.raises(InvalidInputError, match=re.escape("must lie in [0, 1), got 1.0")):
            Contraction(lambda u: u, alpha=1.0)

    def test_scaling_contraction_range(self):
        with pytest.raises(InvalidInputError):
            make_scaling_contraction(1.0)
        assert make_scaling_contraction(-0.3).alpha == 0.3


class TestAffine:
    def test_identity(self):
        ident = make_affine(np.eye(2), [0.0, 0.0])
        np.testing.assert_array_equal(ident([1.5, -2.5]), [1.5, -2.5])

    def test_halving(self):
        half = make_affine(0.5 * np.eye(2), [0.0, 0.0])
        np.testing.assert_array_equal(half([2.0, 2.0]), [1.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            make_affine(np.eye(2), [1.0, 2.0, 3.0])
        with pytest.raises(InvalidInputError):
            make_affine(np.ones((2, 3)), [1.0, 2.0])

    def test_power_pair_matches_folding(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = rng.integers(1, 4)
            A = rng.standard_normal((d, d)) * 0.6
            b = rng.standard_normal(d)
            u = rng.standard_normal(d)
            w = u.copy()
            for n in range(1, 9):
                w = A @ w + b
                An, bn = affine_power_pair(A, b, n)
                assert np.linalg.norm(An @ u + bn - w) <= 1e-12 * (1.0 + np.linalg.norm(w))

    def test_mapping_power_consistency(self):
        rng = np.random.default_rng(23)
        A = rng.standard_normal((2, 2)) * 0.5
        b = rng.standard_normal(2)
        T = make_affine(A, b)
        for _ in range(100):
            u = rng.uniform(-2.0, 2.0, size=2)
            w = u.copy()
            for n in range(1, 11):
                w = T(w)
                assert np.linalg.norm(power_operator(T, n)(u) - w) <= 1e-12

    def test_default_envelope_uses_operator_norm(self):
        T = make_affine(2.0 * np.eye(2), [0.0, 0.0])
        assert T.envelope(1) == pytest.approx(2.0, rel=1e-9)
        assert T.envelope(3) == pytest.approx(8.0, rel=1e-9)
        shrink = make_affine(0.5 * np.eye(2), [0.0, 0.0])
        assert shrink.envelope(4) == 1.0  # clamped below at 1

    def test_operator_norm_estimate(self):
        # the default envelope is max(1, min(||A||_2^n, sqrt(||A^n||_1 ||A^n||_inf)))
        rng = np.random.default_rng(31)
        for _ in range(10):
            A = rng.standard_normal((3, 3))
            T = make_affine(A, np.zeros(3))
            for n in (1, 3, 8):
                An = np.linalg.matrix_power(A, n)
                by_pair = math.sqrt(np.linalg.norm(An, 1) * np.linalg.norm(An, np.inf))
                want = max(1.0, min(np.linalg.norm(A, 2) ** n, by_pair))
                assert T.envelope(n) == pytest.approx(want, rel=1e-6)
                assert T.envelope(n) >= np.linalg.norm(An, 2)

    def test_a_norm_within_rounding_of_one_reads_as_one(self):
        # QR's orthogonal Q at d = 60 reads ||Q||_2 = 1 + 2 eps; the envelope
        # would be 1.0000000000000004^n, not 1, without the rounding margin
        Q = np.linalg.qr(np.random.default_rng(0).standard_normal((60, 60)))[0]
        assert np.linalg.norm(Q, 2) > 1.0
        T = make_affine(Q, np.zeros(60))
        assert [T.envelope(n) for n in (1, 46, 2000)] == [1.0] * 3

    def test_a_map_whose_powers_shrink_has_an_envelope_that_does(self):
        # ||A||_2 = 2.12, but A^n = 2^-n (I + 4 n N) with N = e1 e2^T, whose
        # sqrt(||.||_1 ||.||_inf) is 2^-n (1 + 4 n), rounded up
        T = make_affine([[0.5, 2.0], [0.0, 0.5]], [0.0, 0.0])
        k = [T.envelope(n) for n in range(1, 9)]
        assert k[0] == np.linalg.norm(T.affine.A, 2)
        for got, exact in zip(k[1:4], [2.25, 1.625, 1.0625]):
            assert exact < got <= exact * (1.0 + 1e-15)
        assert k[4:] == [1.0] * 4

    def test_operator_norm_exact_where_power_iteration_stalls(self):
        # the all-ones vector lies in the kernel of this A, whose 2-norm is 2
        T = make_affine([[1.0, -1.0], [-1.0, 1.0]], [0.0, 0.0])
        assert T.envelope(1) == pytest.approx(2.0, rel=1e-12)
        assert T.envelope(3) == pytest.approx(8.0, rel=1e-12)


def _rotation45():
    c = s = math.sqrt(0.5)
    return make_affine([[c, -s], [s, c]], [0.0, 0.0])


def _half100():
    return make_affine(0.5 * np.eye(100), np.zeros(100))


class TestLipschitz:
    """L_p = ``Mapping.lipschitz(p, r)``, the mapping's bound on T^p in the
    r-norm: exact ||A_p||_inf for an affine map at r = inf, else the 2-norm
    envelope(p) times rho = d^|1/r - 1/2|, or for an affine map the
    Riesz-Thorin bound ||A_p||_1^(1/r) ||A_p||_inf^(1 - 1/r), rounded up by
    2 (d + 1) eps, where that is smaller."""

    @pytest.mark.parametrize("build, r, want", [
        (make_flip_map, 2.0, lambda p: 1.0 + 0.5 ** p),
        (make_flip_map, 3.0, lambda p: 2.0 ** abs(1.0 / 3.0 - 0.5) * (1.0 + 0.5 ** p)),
        (_half100, math.inf, lambda p: 0.5 ** p),
        (_half100, 3.0, lambda p: 0.5 ** p * (1.0 + 202 * np.finfo(float).eps)),
        (_rotation45, math.inf, lambda p: math.sqrt(2.0) if p % 2 else 1.0),
        (lambda: dataclasses.replace(_half100(), affine=None), math.inf, lambda p: 10.0),
    ], ids=["flip r=2", "flip r=3", "half r=inf", "half r=3", "rotation r=inf",
            "half without pairs r=inf"])
    def test_bound_in_the_run_norm(self, build, r, want):
        mapping = build()
        for p in range(1, 10):
            assert mapping.lipschitz(p, r) == pytest.approx(want(p), rel=1e-14, abs=0)

    def test_declared_values(self):
        nan = make_flip_map(envelope=lambda n: math.nan)
        with pytest.raises(InvalidInputError, match="NaN at n=7"):
            nan.lipschitz(7)
        assert make_flip_map(envelope=lambda n: 10.0 ** n).lipschitz(400) == math.inf


class TestAffinePowerRequests:
    """power_operator on an affine map agrees with binary powering in any request
    order, and so does the eigenbasis solve of (I - s A_n) y = r, whose
    lam^n must keep in step with A_n. Both give the same bits whatever was
    asked before."""

    @pytest.fixture
    def affine(self):
        rng = np.random.default_rng(41)
        A = rng.standard_normal((6, 6))
        A *= 0.95 / np.linalg.norm(A, 2)
        b = rng.standard_normal(6)
        return A, b, make_affine(A, b), rng.standard_normal(6)

    @staticmethod
    def check(affine, n):
        A, b, T, u = affine
        An, bn = affine_power_pair(A, b, n)
        want = An @ u + bn
        assert np.linalg.norm(power_operator(T, n)(u) - want) <= 1e-12 * np.linalg.norm(want)
        # a run solves its step right after asking for T^n (power schemes)
        # or T^n then T (GVIM: power residual, then the step)
        for p, Ap in ((n, An), (1, A)):
            y = T.affine.solve(p, 0.45, u)
            want = np.linalg.solve(np.eye(len(u)) - 0.45 * Ap, u)
            assert np.linalg.norm(y - want) <= 1e-13 * np.linalg.norm(want)
        assert T.affine._eig  # the eigenbasis path, not LU

    def test_sequential(self, affine):
        for n in range(1, 51):
            self.check(affine, n)

    def test_same_n_twice(self, affine):
        for n in range(1, 21):
            self.check(affine, n)
            self.check(affine, n)

    def test_jump_back(self, affine):
        for n in [*range(1, 21), 7, 8, 9, 3, 30, 31, 2]:
            self.check(affine, n)

    def test_one_alternating_with_n(self, affine):
        # GVIM's run asks for T^n (power residual), then T (the step)
        for n in range(1, 41):
            self.check(affine, n)
            self.check(affine, 1)

    @staticmethod
    def stepped(A, b, n):
        """pair(n) of a fresh map asked for 1, 2, ..., n in turn."""
        power = make_affine(A, b).affine
        for m in range(1, n + 1):
            pair = power.pair(m)
        return pair

    def test_a_forward_jump_is_the_chain(self, affine):
        A, b, T, _ = affine
        for got, want in zip(T.affine.pair(8), self.stepped(A, b, 8)):
            assert_bitwise(got, want)

    def test_an_earlier_power_restarts_the_chain(self, affine):
        A, b, T, _ = affine
        T.affine.pair(8)
        for got, want in zip(T.affine.pair(5), self.stepped(A, b, 5)):
            assert_bitwise(got, want)

    def test_solve_is_the_same_after_any_history(self, affine):
        # lam^8 comes from the chain whatever was asked before: the first
        # solve restarts it, and so does an earlier power; at s = 50,
        # s lam^8 is about 0.8, so the last bits of lam^8 reach y
        A, b, _, u = affine
        want = make_affine(A, b).affine.solve(8, 50.0, u)
        for history in ([2, 3, 4, 5, 6, 7], [2], [3, 1, 5], [12], [20, 9]):
            T = make_affine(A, b)
            for n in history:
                T.affine.solve(n, 50.0, u)
            assert_bitwise(T.affine.solve(8, 50.0, u), want)
        assert T.affine._eig  # the eigenbasis path, not LU

    @pytest.mark.parametrize("p", [0, -2])
    def test_powers_below_one_are_refused(self, affine, p):
        _, _, T, u = affine
        for history in ([], [1], [5]):  # a fresh chain, one at T, one at T^5
            for n in history:
                T.affine.pair(n)
            for call in (lambda: T.power(p, u), lambda: T.affine.pair(p),
                         lambda: T.affine.solve(p, 0.45, u)):
                with pytest.raises(InvalidInputError, match=f"positive integer, got {p}"):
                    call()
        # a refused request leaves the chain as it was
        assert_bitwise(T.power(2, u), power_operator(make_affine(*affine[:2]), 2)(u))


class TestAffinePowerOverflow:
    """Powers past the float range are formed without a RuntimeWarning (the
    suite makes one an error), and ``solve`` refuses them, naming p."""

    @staticmethod
    def expanding():
        return make_affine([[3.0, 1.0], [0.0, 2.0]], [0.0, 0.0], envelope=lambda n: 1.0).affine

    def test_solve_refuses_a_power_past_the_float_range(self):
        # 3^700 overflows; the solve takes the LU path (|s| 3^p > 1)
        with pytest.raises(InvalidInputError, match="power 700 of the affine map is past"):
            self.expanding().solve(700, 0.1, np.ones(2))

    def test_the_chain_overflows_quietly(self):
        power = self.expanding()
        power.solve(2, 0.1, np.ones(2))  # lam^n is chained from here on
        for n in (700, 1000, 2000):
            assert not np.isfinite(power.pair(n)[0]).all()
        assert not np.isfinite(power._lam_n).all()
        assert_bitwise(power.pair(5)[0], np.linalg.matrix_power(power.A, 5))

    def test_a_finite_power_with_an_infinite_lam_p_is_refused(self):
        # A = [[1, 1], [1, 1]]: A^p = 2^(p-1) A is finite at p = 1024, while
        # lam^p = 2^p is not; |s| is small enough for the eigenbasis path
        power = make_affine([[1.0, 1.0], [1.0, 1.0]], [0.0, 0.0]).affine
        r = np.array([1.0, -1.0])
        assert_bitwise(power.solve(1023, 1e-310, r), r)
        with pytest.raises(InvalidInputError, match="power 1024 of the affine map is past"):
            power.solve(1024, 1e-310, r)
        assert np.isfinite(power.pair(1024)[0]).all()
        assert_bitwise(power(1024, r), np.zeros(2))  # only the solve reads lam^p

    def test_a_power_past_the_float_range_is_refused(self):
        # A^1025 = 2^1024 A overflows, and A^1025 (1, -1) would be inf - inf
        power = make_affine([[1.0, 1.0], [1.0, 1.0]], [0.0, 0.0]).affine
        u = np.array([1.0, -1.0])
        with pytest.raises(InvalidInputError, match="power 1025 of the affine map is past"):
            power(1025, u)
        assert not np.isfinite(power.pair(1025)[0]).all()
        assert_bitwise(power(1, u), np.zeros(2))  # T itself, with the overflowed pair held


class TestPowerCap:
    def test_cap_only_binds_without_closed_form(self, monkeypatch):
        monkeypatch.setattr(mappings, "POWER_CAP", 10)
        flip = make_flip_map()
        u = np.array([1.0, 1.0])
        power_operator(flip, 50)(u)  # closed form, cap ignored
        folded = Mapping(apply=lambda u: -u, envelope=lambda n: 1.0, domain_dim=2)
        np.testing.assert_array_equal(power_operator(folded, 10)(u), u)
        with pytest.raises(InvalidInputError):
            power_operator(folded, 11)


class TestVerifyEnvelope:
    def test_flip_passes_default_envelope(self):
        report = verify_envelope(make_flip_map(), n_max=10, samples=200, seed=1)
        assert report.passed
        assert report.max_excess <= 1e-10

    def test_flip_passes_unit_envelope(self):
        # the powers are exact isometries on the sampling domain
        report = verify_envelope(make_flip_map(envelope=lambda n: 1.0), n_max=10, samples=200,
                                 seed=1)
        assert report.passed
        assert abs(report.max_excess) <= 1e-12

    def test_doubling_fails_unit_envelope(self):
        T = make_affine(2.0 * np.eye(2), [0.0, 0.0], envelope=lambda n: 1.0)
        report = verify_envelope(T, n_max=1, samples=100, seed=4)
        assert not report.passed
        assert report.max_excess == pytest.approx(1.0, abs=1e-9)

    def test_failure_is_reported_not_raised(self):
        T = make_affine(2.0 * np.eye(2), [0.0, 0.0], envelope=lambda n: 1.0)
        report = verify_envelope(T, n_max=3, samples=50, seed=4)
        assert not report.passed
        assert report.worst_n == 3
        assert "FAIL" in str(report)

    def test_exact_check_catches_what_sampling_misses(self):
        # d = 60, A = 0.5 I + 2 e1 e2^T: ||A||_2 = 2.118, but a random pair
        # barely meets the expanding direction
        A = 0.5 * np.eye(60)
        A[0, 1] = 2.0
        T = make_affine(A, np.zeros(60), envelope=lambda n: 1.0)
        report = verify_envelope(T, n_max=20, samples=200, seed=7)
        assert report.max_excess < 0.0  # the sampled check alone would pass
        exact = max(np.linalg.norm(np.linalg.matrix_power(A, n), 2) for n in range(1, 21)) - 1.0
        assert report.exact_excess == pytest.approx(exact, rel=1e-12)
        assert not report.passed
        assert str(report).startswith("envelope check: FAIL in the 2-norm (")
        assert f"; exact ||A_n||_2 check: max excess {exact:.3e})" in str(report)

    @pytest.mark.parametrize("build", [
        # ||A^n||_2 <= ||A||_2^n, the default envelope
        lambda: make_affine([[0.5, 2.0], [0.0, 0.5]], [0.0, 0.0]),
        # ||Q^n||_2 exceeds 1 only by rounding
        lambda: make_affine(np.linalg.qr(np.random.default_rng(3).standard_normal((20, 20)))[0],
                            np.zeros(20), envelope=lambda n: 1.0),
    ], ids=["non-normal, default envelope", "orthogonal, unit envelope"])
    def test_exact_check_passes_an_honest_envelope(self, build):
        report = verify_envelope(build(), n_max=20, samples=50, seed=3)
        assert report.passed
        assert report.exact_excess <= 1e-14

    def test_no_exact_check_without_affine(self):
        report = verify_envelope(make_flip_map(), n_max=3, samples=20, seed=1)
        assert report.exact_excess is None
        assert "exact" not in str(report)

    def test_a_tie_names_the_first_power_and_pair(self):
        # every power of the flip map is an isometry on its sampling domain,
        # so with k_n = 1 every pair of every power has excess 0
        report = verify_envelope(make_flip_map(envelope=lambda n: 1.0), n_max=5, samples=30,
                                 seed=2)
        assert report.per_power_excess == dict.fromkeys(range(1, 6), 0.0)
        assert (report.max_excess, report.worst_n) == (0.0, 1)
        rng = np.random.default_rng(2)
        u, v = mappings._flip_sample(rng, 30), mappings._flip_sample(rng, 30)
        assert norm(u[0] - v[0]) >= 1e-9  # the first pair drawn is kept
        np.testing.assert_array_equal(report.worst_pair[0], u[0])
        np.testing.assert_array_equal(report.worst_pair[1], v[0])

    def test_bad_parameters(self):
        with pytest.raises(InvalidInputError):
            verify_envelope(make_flip_map(), n_max=0, samples=10, seed=1)
        with pytest.raises(InvalidInputError):
            verify_envelope(make_flip_map(), n_max=1, samples=0, seed=1)


def reference_envelope(mapping, n_max, samples, seed, radius=2.0):
    """The per-pair loop verify_envelope replaced: power_operator and the
    checked norm on every pair and power. Returns the report's fields."""
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
    max_excess, worst_n, worst_pair, per_power = -np.inf, 1, pairs[0], {}
    denoms = [norm(u - v) for u, v in pairs]
    images = list(pairs)
    for n in range(1, n_max + 1):
        k_n = mapping.envelope(n)
        for i, (u, v) in enumerate(pairs):
            if mapping.power is not None:
                power = power_operator(mapping, n)
                tu, tv = power(u), power(v)
            else:
                tu, tv = images[i]
                tu = np.asarray(mapping.apply(tu), dtype=float)
                tv = np.asarray(mapping.apply(tv), dtype=float)
                images[i] = (tu, tv)
            excess = norm(tu - tv) / denoms[i] - k_n
            if excess > per_power.get(n, -np.inf):
                per_power[n] = excess
            if excess > max_excess:
                max_excess, worst_n, worst_pair = excess, n, (u.copy(), v.copy())
    return max_excess <= 1e-10, max_excess, worst_n, worst_pair, per_power


def _tanh_map():
    # no closed-form power: verify_envelope folds apply n times
    return Mapping(apply=lambda u: np.tanh(2.0 * u), envelope=lambda n: 2.0 ** n, domain_dim=3)


def _affine5():
    rng = np.random.default_rng(52)
    return make_affine(0.4 * rng.standard_normal((5, 5)), rng.standard_normal(5))


ENVELOPE_CASES = {
    "flip default envelope": make_flip_map,
    "flip unit envelope": lambda: make_flip_map(envelope=lambda n: 1.0),
    "affine d=5": _affine5,
    "tanh, n-fold": _tanh_map,
    # doubles along e1 only, so the worst pair is the one closest to e1
    "doubling": lambda: make_affine(np.diag([2.0, 0.5]), [1.0, -1.0], envelope=lambda n: 1.0),
}


@pytest.mark.parametrize("seed", [1, 8])
@pytest.mark.parametrize("case", ENVELOPE_CASES, ids=list(ENVELOPE_CASES))
def test_verify_envelope_matches_the_per_pair_loop(case, seed):
    build = ENVELOPE_CASES[case]
    report = verify_envelope(build(), n_max=12, samples=150, seed=seed)
    passed, max_excess, worst_n, worst_pair, per_power = reference_envelope(
        build(), n_max=12, samples=150, seed=seed)
    assert report.passed == passed == (case != "doubling")
    assert report.max_excess == max_excess
    assert report.worst_n == worst_n
    np.testing.assert_array_equal(report.worst_pair[0], worst_pair[0])
    np.testing.assert_array_equal(report.worst_pair[1], worst_pair[1])
    assert report.per_power_excess == per_power


def assert_bitwise(got, want):
    """Equal bit for bit, so -0.0 differs from 0.0."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestStackedEvaluation:
    """A rowwise map evaluates a (B, d) stack in one call, each row bit for
    bit the 1-D call on that row."""

    FLIP_ROWS = np.array([
        [1.0, -1.0], [-0.25, 0.75], [2.0, 3.0], [-1.0, -1.5],  # mixed and same signs
        [0.0, 1.0], [-2.0, 0.0], [0.0, 0.0],  # axis points, u1 u2 = 0
        [-0.0, 1.0], [0.0, -0.0], [-0.0, -0.0], [1.5, -0.0],  # signed zeros
        [1e-300, -1e-300], [1e-200, 1e-200],  # u1 u2 underflows to -0.0 and 0.0
    ])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    def test_flip_power_matches_the_rows(self, n):
        flip, U = make_flip_map(), self.FLIP_ROWS
        assert_bitwise(flip.power(n, U), [flip.power(n, u) for u in U])

    def test_flip_apply_matches_the_rows(self):
        flip, U = make_flip_map(), self.FLIP_ROWS
        assert_bitwise(flip.apply(U), [flip.apply(u) for u in U])

    @pytest.mark.parametrize("d", [2, 5, 60])
    def test_affine_power_matches_the_rows(self, d):
        rng = np.random.default_rng(d)
        A, b = rng.standard_normal((d, d)) / np.sqrt(d), rng.standard_normal(d)
        T, U = make_affine(A, b), rng.uniform(-2.0, 2.0, size=(37, d))
        # the stack is one matmul, the 1-D calls ndarray.dot: the same
        # gemv per row, whichever kernel the BLAS picks
        assert_bitwise(T.apply(U), [T.apply(u) for u in U])
        for n in [1, 2, 3, 8, 5]:  # a forward jump, then a restart of the chain
            assert_bitwise(T.power(n, U), [T.power(n, u) for u in U])

    def test_only_the_library_maps_declare_stacks(self):
        assert make_flip_map().rowwise and make_affine(np.eye(2), np.zeros(2)).rowwise
        assert not Mapping(apply=lambda u: u, envelope=lambda n: 1.0, domain_dim=2).rowwise

    @pytest.mark.parametrize("rowwise, calls", [(True, 2 * 6), (False, 2 * 40 * 6)])
    def test_power_calls_per_check(self, rowwise, calls):
        seen = []
        flip = make_flip_map()

        def power(n, u):
            seen.append(u.shape)
            return flip.power(n, u)

        T = dataclasses.replace(flip, power=power, rowwise=rowwise)
        assert verify_envelope(T, n_max=6, samples=40, seed=3).passed
        assert len(seen) == calls
        assert set(seen) == {(40, 2) if rowwise else (2,)}

    @pytest.mark.parametrize("seed", [1, 8])
    def test_one_dimensional_map_gets_rows_when_samples_equal_d(self, seed):
        # Q @ U on a (3, 3) stack would not raise but give Q U, not U Q^T
        Q = 1.1 * np.linalg.qr(np.random.default_rng(6).standard_normal((3, 3)))[0]

        def apply(u):
            if u.ndim != 1:
                raise AssertionError("a 1-D map received a stack")
            return Q @ u

        T = Mapping(apply=apply, envelope=lambda n: 1.0, domain_dim=3)
        report = verify_envelope(T, n_max=5, samples=3, seed=seed)
        passed, max_excess, worst_n, worst_pair, per_power = reference_envelope(
            T, n_max=5, samples=3, seed=seed)
        assert report.passed == passed is False
        assert report.max_excess == max_excess
        assert report.worst_n == worst_n == 5
        np.testing.assert_array_equal(report.worst_pair[0], worst_pair[0])
        np.testing.assert_array_equal(report.worst_pair[1], worst_pair[1])
        assert report.per_power_excess == per_power

    def test_stack_of_the_wrong_shape_raises(self):
        # declared rowwise, but maps every stack to one point
        T = Mapping(apply=lambda u: u, envelope=lambda n: 1.0, domain_dim=2,
                    power=lambda n, u: np.sum(u, axis=0), rowwise=True)
        with pytest.raises(InvalidInputError, match=r"shape \(2,\) for points of shape \(20, 2\)"):
            verify_envelope(T, n_max=2, samples=20, seed=1)


def _past_the_float_range():
    """At n = 1 the pairs 1.7 apart in both coordinates have images 1.7e308
    apart in both, a distance that reads inf, against k_1 = inf."""
    return Mapping(apply=lambda u: u, envelope=lambda n: math.inf if n == 1 else 1.0,
                   domain_dim=2, power=lambda n, u: 1e308 * u if n == 1 else u,
                   sample_domain=lambda rng, count: rng.choice([-0.85, 0.85], size=(count, 2)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # arithmetic on the NaN/Inf images
class TestVerifyEnvelopeBoundary:
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_power_raises(self, bad):
        # finite up to n = 3, so the image is checked on every power
        power = lambda n, u: u if n < 4 else np.full_like(u, bad)
        T = Mapping(apply=lambda u: u, envelope=lambda n: 1.0, domain_dim=2, power=power)
        with pytest.raises(InvalidInputError):
            verify_envelope(T, n_max=5, samples=20, seed=1)

    def test_overflowing_fold_raises(self):
        T = Mapping(apply=lambda u: 1e200 * u, envelope=lambda n: 1.0, domain_dim=2)
        with pytest.raises(InvalidInputError):
            verify_envelope(T, n_max=3, samples=20, seed=1)

    @pytest.mark.parametrize("sampler", [
        lambda rng, count: rng.uniform(-1.0, 1.0, size=(count, 3)),
        lambda rng, count: rng.uniform(-1.0, 1.0, size=(count - 1, 2)),
        lambda rng, count: rng.uniform(-1.0, 1.0, size=count),
        lambda rng, count: np.vstack([rng.uniform(-1.0, 1.0, size=(count - 1, 2)), [[np.nan, 0.0]]]),
        lambda rng, count: np.vstack([[[np.inf, 1.0]], rng.uniform(-1.0, 1.0, size=(count - 1, 2))]),
    ], ids=["wrong dimension", "too few points", "flat", "nan point", "inf point"])
    def test_bad_sample_stack_raises(self, sampler):
        T = Mapping(apply=lambda u: u, envelope=lambda n: 1.0, domain_dim=2,
                    power=lambda n, u: u, sample_domain=sampler)
        with pytest.raises(InvalidInputError, match=r"20 finite points in R\^2"):
            verify_envelope(T, n_max=2, samples=20, seed=1)

    def test_a_domain_of_one_point_draws_no_pairs(self):
        T = Mapping(apply=lambda u: u, envelope=lambda n: 1.0, domain_dim=2,
                    sample_domain=lambda rng, count: np.ones((count, 2)))
        with pytest.raises(InvalidInputError, match="could not draw enough well-separated"):
            verify_envelope(T, n_max=2, samples=20, seed=1)

    def test_a_ratio_past_the_float_range_passes_an_infinite_envelope(self):
        report = verify_envelope(_past_the_float_range(), n_max=2, samples=50, seed=1)
        assert report.per_power_excess == {2: 0.0}
        assert (report.passed, report.max_excess, report.worst_n) == (True, 0.0, 2)

    def test_negative_seed_raises(self):
        with pytest.raises(InvalidInputError, match="seed"):
            verify_envelope(make_flip_map(), n_max=2, samples=20, seed=-1)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # outside the class's ignore
def test_an_infinite_ratio_against_an_infinite_envelope_warns_nothing():
    # inf - inf is NaN, which the check reads as -inf: no warning, as the README says
    report = verify_envelope(_past_the_float_range(), n_max=2, samples=50, seed=1)
    assert report.passed


@pytest.mark.parametrize("build", [
    lambda: Mapping(apply=lambda u: u, envelope=lambda n: 1.0, domain_dim=2,
                    power=lambda n, u: 1e200 * u),
    lambda: make_affine(1e200 * np.eye(2), [0.0, 0.0], envelope=lambda n: 1.0),
], ids=["per-row map", "affine"])
def test_overflowing_distance_fails_the_report(build):
    # images and their differences are finite, only the squares in their
    # 2-norm overflow: the norm is then taken of the scaled difference, so
    # each ratio reads 1e200, not inf
    report = verify_envelope(build(), n_max=1, samples=20, seed=1)
    assert report.passed is False
    assert report.max_excess == pytest.approx(1e200, rel=1e-12)
    assert report.worst_n == 1


def test_nan_declared_envelope_raises():
    # ratio - NaN is never above -inf, so an unchecked NaN k_n passes
    with pytest.raises(InvalidInputError, match="NaN at n=1"):
        verify_envelope(make_flip_map(envelope=lambda n: float("nan")), n_max=3, samples=10, seed=1)
