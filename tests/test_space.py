import math
import re

import numpy as np
import pytest

from midpointfp.errors import InvalidInputError, UnsupportedNormError
from midpointfp.space import (
    NormSpec, _row_norms, as_vector, duality_map, norm, norm_kernel,
)


class TestNorm:
    def test_pythagorean_triple(self):
        assert norm([3.0, 4.0], NormSpec(2.0)) == pytest.approx(5.0, abs=1e-15)

    def test_zero_vector(self):
        for p in (1.5, 2.0, 3.0, math.inf):
            assert norm([0.0, 0.0], NormSpec(p)) == 0.0

    def test_sqrt_two(self):
        assert norm([1.0, -1.0], NormSpec(2.0)) == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_max_norm(self):
        assert norm([1.0, -3.0, 2.0], NormSpec(math.inf)) == 3.0

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            norm([1.0, math.nan])
        with pytest.raises(InvalidInputError):
            norm([math.inf, 0.0])

    def test_rejects_bad_exponent(self):
        with pytest.raises(UnsupportedNormError):
            NormSpec(1.0)
        with pytest.raises(UnsupportedNormError):
            NormSpec(0.5)

    def test_dual_exponent_of_the_max_norm(self):
        assert NormSpec(math.inf).q == 1.0

    def test_homogeneity(self):
        rng = np.random.default_rng(7)
        for p in (1.5, 2.0, 3.0, math.inf):
            spec = NormSpec(p)
            for _ in range(50):
                x = rng.standard_normal(rng.integers(1, 6))
                t = rng.uniform(-5.0, 5.0)
                nx = norm(x, spec)
                assert norm(t * x, spec) == pytest.approx(abs(t) * nx, rel=1e-12, abs=1e-300)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(11)
        for p in (1.5, 2.0, 3.0, math.inf):
            spec = NormSpec(p)
            for _ in range(50):
                d = rng.integers(1, 6)
                x, y = rng.standard_normal(d), rng.standard_normal(d)
                assert norm(x + y, spec) <= norm(x, spec) + norm(y, spec) + 1e-12


    def test_kernel_matches_numpy_bitwise(self):
        rng = np.random.default_rng(9)
        for d in (1, 2, 7, 60):
            v = rng.standard_normal(d) * 10.0 ** rng.integers(-8, 8)
            assert norm_kernel(NormSpec(2.0))(v) == np.linalg.norm(v, 2)
            assert norm_kernel(NormSpec(math.inf))(v) == np.max(np.abs(v))
            assert norm_kernel(NormSpec(3.0))(v) == np.linalg.norm(v, 3)

    @pytest.mark.parametrize("x", [[1e200, -1e200], [1e308] * 3, [3.0, -1e300, 1e154]])
    def test_2_norm_of_a_vector_whose_square_overflows_is_finite(self, x):
        # v . v passes the float range, so the norm is taken of v / max|v_i|
        assert norm(x) == pytest.approx(math.hypot(*x), rel=1e-15)

    def test_2_norm_kernel_of_a_nonfinite_vector(self):
        # an Inf entry reads inf and a NaN one NaN, without a warning; so does
        # a finite vector whose norm itself passes the float range
        size = norm_kernel()
        assert size(np.array([math.inf, 1e200])) == math.inf
        assert math.isnan(size(np.array([math.nan, 1e200])))
        assert size(np.array([1.5e308, -1.5e308])) == math.inf

    def test_row_norms_hand_an_overflowing_row_to_the_kernel(self):
        E = np.array([[3.0, 4.0], [1e200, -1e200], [math.inf, 0.0], [0.5, -2.0]])
        norms = _row_norms(E)
        assert np.isfinite(norms[1])
        assert list(norms) == [norm_kernel()(e) for e in E]  # bit for bit


class TestAsVector:
    """The entries are scanned only when v . v is not finite: a finite vector
    whose squared norm overflows passes, and NaN or Inf anywhere is refused
    with one message."""

    @pytest.mark.parametrize("x", [[1e200, -1e200], [1e308] * 3])
    def test_finite_vector_whose_square_overflows(self, x):
        np.testing.assert_array_equal(as_vector(x, dim=len(x)), x)

    @pytest.mark.parametrize("fill", [1.0, 1e200])  # the other squares small, or overflowing
    @pytest.mark.parametrize("at", [0, 2, 4])  # first, middle, last coordinate
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_entry_is_refused(self, fill, at, bad):
        x = [fill] * 5
        x[at] = bad
        with pytest.raises(InvalidInputError, match=r"^vector contains NaN or Inf$"):
            as_vector(x)

    @pytest.mark.parametrize("x, shape", [([[1.0, 2.0]], "(1, 2)"), ([], "(0,)"), (3.0, "()")],
                             ids=["2-d", "empty", "0-d"])
    def test_only_a_non_empty_1d_input_is_a_vector(self, x, shape):
        message = f"expected a 1-D vector, got shape {shape}"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            as_vector(x)


class TestDualityMap:
    def test_identity_in_hilbert_case(self):
        x = np.array([1.0, -1.0])
        assert np.array_equal(duality_map(x, NormSpec(2.0)), x)

    def test_zero(self):
        for p in (1.5, 2.0, 4.0):
            assert np.all(duality_map([0.0, 0.0], NormSpec(p)) == 0.0)

    def test_p4_closed_form(self):
        # ||(1,1)||_4 = 2^(1/4); J = 2^(-1/2) * (1, 1), then both identities
        x = np.array([1.0, 1.0])
        spec = NormSpec(4.0)
        j = duality_map(x, spec)
        np.testing.assert_allclose(j, [0.7071067811865475] * 2, atol=1e-15)
        nx = norm(x, spec)
        assert np.dot(x, j) == pytest.approx(nx**2, abs=1e-12)
        assert norm(j, NormSpec(spec.q)) == pytest.approx(nx, abs=1e-12)

    def test_rejects_infinite_exponent(self):
        with pytest.raises(UnsupportedNormError):
            duality_map([1.0, 2.0], NormSpec(math.inf))

    def test_identities_random(self):
        # <x, J(x)> = ||x||^2 and ||J(x)||_q = ||x||_p on random data
        rng = np.random.default_rng(42)
        for p in (1.5, 2.0, 3.0, 4.0):
            spec = NormSpec(p)
            dual = NormSpec(spec.q)
            for _ in range(200):
                x = rng.uniform(-10.0, 10.0, size=rng.integers(1, 7))
                j = duality_map(x, spec)
                nx = norm(x, spec)
                assert abs(np.dot(x, j) - nx**2) <= 1e-10 * (1.0 + nx**2)
                assert abs(norm(j, dual) - nx) <= 1e-10 * (1.0 + nx)

    def test_zero_coordinates_small_p(self):
        # formula is continuous at zero coordinates for p < 2
        j = duality_map([1.0, 0.0, -2.0], NormSpec(1.5))
        assert j[1] == 0.0
        assert np.all(np.isfinite(j))
