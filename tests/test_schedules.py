import math

import pytest

from midpointfp.errors import InvalidInputError
from midpointfp.mappings import make_contraction_half, make_flip_map
from midpointfp.schedules import (
    custom_schedule,
    paper_schedule,
    power_schedule,
    validate,
)
from midpointfp.solver import SCHEMES, SolverConfig


def agvim_flip(schedule):
    """AGVIM on the flip map, whose envelope equals the paper schedule's k_n."""
    return SolverConfig(scheme=SCHEMES["AGVIM"], mapping=make_flip_map(), schedule=schedule,
                        x1=[0.5, 1.0], contraction=make_contraction_half())


class TestBenchmarkFamily:
    def test_first_terms(self):
        s = paper_schedule()
        assert (s.a(1), s.b(1), s.c(1)) == (1.0, 0.0, 0.0)
        assert s.a(2) == 0.5
        assert s.b(2) == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert s.c(2) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert s.a(2) + s.b(2) + s.c(2) == pytest.approx(1.0, abs=1e-15)

    def test_envelope_and_inner_factor(self):
        s = paper_schedule()
        assert s.k(2) == 1.25
        cfg = agvim_flip(s)
        assert cfg.step_contraction_factor(2) == pytest.approx(5.0 / 24.0, abs=1e-15)
        assert cfg.step_contraction_factor(1) == 0.0

    def test_simplex_over_horizon(self):
        s = paper_schedule()
        for n in range(1, 1001):
            assert abs(s.a(n) + s.b(n) + s.c(n) - 1.0) <= 1e-12

    def test_simplex_identity_exact_integers(self):
        # (n+1) + (n-1) + n(n-1) = n(n+1), checked in exact arithmetic
        for n in range(1, 10**6 + 1):
            assert (n + 1) + (n - 1) + n * (n - 1) == n * (n + 1)

    def test_inner_factor_below_one_everywhere(self):
        s = paper_schedule()
        cfg = agvim_flip(s)
        for n in range(1, 100_001, 97):
            q = cfg.step_contraction_factor(n)
            assert q < 1.0
            assert s.c(n) * s.k(n) <= 1.0 + 1e-12


class TestPowerFamily:
    def test_values(self):
        s = power_schedule(1.0, 0.0)
        assert (s.a(4), s.b(4), s.c(4)) == (0.25, 0.0, 0.75)
        assert power_schedule(2.0, 0.0).a(10) == pytest.approx(0.01, abs=1e-15)
        s = power_schedule(1.0, 0.5)
        assert (s.a(2), s.b(2), s.c(2)) == (0.5, 0.25, 0.25)

    def test_simplex(self):
        s = power_schedule(0.7, 0.3)
        for n in range(1, 1001):
            assert abs(s.a(n) + s.b(n) + s.c(n) - 1.0) <= 1e-12

    def test_parameter_validation(self):
        with pytest.raises(InvalidInputError):
            power_schedule(0.0, 0.0)
        with pytest.raises(InvalidInputError):
            power_schedule(1.0, 1.0)


class TestCustomFamily:
    def test_lookup(self):
        s = custom_schedule([[0.5, 0.25, 0.25, 1.0], [0.4, 0.3, 0.3, 1.1]])
        assert s.a(1) == 0.5
        assert s.k(2) == 1.1
        with pytest.raises(InvalidInputError):
            s.a(3)

    def test_shape_validation(self):
        with pytest.raises(InvalidInputError):
            custom_schedule([])
        with pytest.raises(InvalidInputError):
            custom_schedule([[0.5, 0.5, 0.0]])


class TestValidate:
    def test_paper_schedule_passes_with_structure_warning(self):
        report = validate(paper_schedule(), horizon=1000, alpha=0.5)
        assert report.condition_i.status == "pass"
        assert report.condition_ii.status == "pass"
        assert report.condition_iii.status == "pass"
        assert report.condition_iii.value < 1e-6  # tail ratio tends to zero
        assert report.simplex.status == "pass"
        assert report.wellposed.status == "pass"
        assert report.wellposed.value < 1.0
        # sup k_n = k_1 = 1.5 exceeds 2^(1/4) in the Hilbert configuration
        assert report.normal_structure_bound.status == "warn"
        assert report.normal_structure_bound.value == 1.5
        assert report.normal_structure_bound.at_n == 1
        assert report.passed

    def test_fast_decay_fails_divergence(self):
        report = validate(power_schedule(2.0, 0.0), horizon=1000, alpha=0.5)
        assert report.condition_ii.status == "fail"
        assert not report.passed

    def test_slow_envelope_fails_ratio(self):
        # k_n = 1 + 1/n with a_n = 1/n^2: ratio (k^2-1)/a ~ 2n grows
        sched = power_schedule(2.0, 0.0, k=lambda n: 1.0 + 1.0 / n)
        report = validate(sched, horizon=1000, alpha=0.5)
        assert report.condition_iii.status == "fail"
        assert report.condition_iii.value > 1000  # ~ 2 * horizon at the tail

    def test_slow_power_family_passes_i(self):
        report = validate(power_schedule(0.5, 0.0), horizon=1000, alpha=0.5)
        assert report.condition_i.status == "pass"
        assert report.condition_ii.status == "pass"

    def test_nonvanishing_a_fails_i(self):
        sched = custom_schedule([[0.5, 0.25, 0.25, 1.0]] * 200)
        report = validate(sched, horizon=200, alpha=0.5)
        assert report.condition_i.status == "fail"
        assert report.condition_ii.status == "unknown"

    def test_custom_simplex_violation_names_n(self):
        rows = [[0.5, 0.25, 0.25, 1.0]] * 20
        rows[4] = [0.5, 0.3, 0.25, 1.0]  # n = 5 breaks the simplex
        report = validate(custom_schedule(rows), horizon=20, alpha=0.5)
        assert report.simplex.status == "fail"
        assert report.simplex.at_n == 5
        assert not report.passed

    def test_illposed_schedule_fails_wellposed(self):
        rows = [[0.1, 0.0, 0.9, 4.0]] * 20
        report = validate(custom_schedule(rows), horizon=20, alpha=0.5)
        assert report.wellposed.status == "fail"
        assert report.wellposed.at_n == 1
        assert report.wellposed.value >= 1.0

    def test_horizon_guard(self):
        with pytest.raises(InvalidInputError):
            validate(paper_schedule(), horizon=5, alpha=0.5)

    def test_epsilon_resolution(self):
        s = paper_schedule()
        assert s.resolve_epsilon(0.5) == 0.25
        bad = power_schedule(1.0, 0.0)
        object.__setattr__(bad, "epsilon", 0.9)
        with pytest.raises(InvalidInputError):
            bad.resolve_epsilon(0.5)

    def test_normal_structure_pass_for_unit_envelope(self):
        report = validate(power_schedule(1.0, 0.0), horizon=100, alpha=0.5,
                          normal_structure=math.sqrt(2.0))
        assert report.normal_structure_bound.status == "pass"
