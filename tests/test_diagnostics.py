from dataclasses import replace

import numpy as np
import pytest

from midpointfp.diagnostics import (
    check_vi,
    compare_schemes,
    estimate_rate,
    iterate_bound,
    sample_fixed_set_flip,
)
from midpointfp.errors import InsufficientDataError, InvalidInputError, RejectedSampleError
from midpointfp.mappings import (
    make_affine,
    make_flip_map,
    make_scaling_contraction,
)
from midpointfp.schedules import power_schedule
from midpointfp.solver import SCHEMES, SolverConfig
from midpointfp.space import NormSpec, duality_map, inner


class TestCheckVI:
    def test_holds_trivially_at_anchor_fixed_point(self):
        f = make_scaling_contraction(0.5)
        samples = [np.zeros(2), np.array([1.0, -1.0]), np.array([-0.5, 2.0])]
        cert = check_vi([0.0, 0.0], f, samples)
        assert cert.holds
        assert all(v == 0.0 for v in cert.values)

    def test_violation_at_offset_candidate(self):
        # <(I-f)p, x-p> with p=(1,-1), x=0: <(0.5,-0.5), (-1,1)> = -1 exactly
        cert = check_vi([1.0, -1.0], make_scaling_contraction(0.5), [np.zeros(2)])
        assert cert.values[0] == -1.0
        assert cert.verdict == "violated"

    def test_hilbert_case_reduces_to_inner_product(self):
        rng = np.random.default_rng(13)
        f = make_scaling_contraction(0.3)
        for _ in range(20):
            p = rng.standard_normal(3)
            xs = [rng.standard_normal(3) for _ in range(4)]
            cert = check_vi(p, f, xs, NormSpec(2.0))
            g = p - f(p)
            direct = [float(np.dot(g, x - p)) for x in xs]
            np.testing.assert_allclose(cert.values, direct, atol=1e-14)

    def test_duality_map_route_for_general_p(self):
        p_vec = np.array([0.5, -0.25])
        xs = [np.array([1.0, -1.0]), np.array([-2.0, 0.5])]
        f = make_scaling_contraction(0.5)
        spec = NormSpec(3.0)
        cert = check_vi(p_vec, f, xs, spec)
        g = p_vec - f(p_vec)
        expected = [inner(g, duality_map(x - p_vec, spec)) for x in xs]
        np.testing.assert_allclose(cert.values, expected, atol=1e-14)

    def test_order_invariance(self):
        f = make_scaling_contraction(0.5)
        xs = [np.array([1.0, -1.0]), np.zeros(2), np.array([-3.0, 0.5])]
        a = check_vi([0.2, -0.4], f, xs)
        b = check_vi([0.2, -0.4], f, xs[::-1])
        assert a.min_value == b.min_value
        assert a.verdict == b.verdict

    def test_rejects_unverified_samples(self):
        flip = make_flip_map()
        with pytest.raises(RejectedSampleError) as err:
            check_vi([0.0, 0.0], make_scaling_contraction(0.5),
                     [np.zeros(2), np.array([1.0, 1.0])], mapping=flip)
        assert len(err.value.offenders) == 1

    def test_needs_samples(self):
        with pytest.raises(InvalidInputError):
            check_vi([0.0, 0.0], make_scaling_contraction(0.5), [])


class TestFixedSetSampling:
    def test_single_sample_is_origin(self):
        samples = sample_fixed_set_flip(1, seed=5)
        assert len(samples) == 1
        np.testing.assert_array_equal(samples[0], [0.0, 0.0])

    def test_samples_are_exactly_fixed(self):
        flip = make_flip_map()
        for u in sample_fixed_set_flip(25, seed=5):
            np.testing.assert_array_equal(flip(u), u)

    def test_deterministic_for_fixed_seed(self):
        a = sample_fixed_set_flip(8, seed=42)
        b = sample_fixed_set_flip(8, seed=42)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_count_guard(self):
        with pytest.raises(InvalidInputError):
            sample_fixed_set_flip(0, seed=1)


def _flip_cfg(x1, steps=60):
    return SolverConfig(
        scheme=SCHEMES["GVIM"],
        mapping=make_flip_map(),
        schedule=replace(power_schedule(1.0, 0.25), k=lambda n: 1.0 + 0.5 ** n),
        x1=x1,
        contraction=make_scaling_contraction(0.5),
        max_outer=steps,
        tol_step=0.0,
    )


class TestCompareSchemes:
    def test_two_scheme_report(self):
        report = compare_schemes(_flip_cfg([0.0, 1.0 / 3.0]), [SCHEMES["VIM"], SCHEMES["GVIM"]])
        assert [r.scheme for r in report.runs] == ["GVIM", "VIM"]  # name order
        for r in report.runs:
            assert not r.failed
            assert len(r.trace) == 60
            assert r.iters_to[1e-2] is not None
            assert r.iters_to[1e-4] is not None
        csv_text = report.to_csv()
        lines = csv_text.strip().split("\n")
        assert lines[0] == "n,step_norm_GVIM,step_norm_VIM"
        assert len(lines) == 61
        md = report.to_markdown()
        assert "GVIM" in md and "VIM" in md

    def test_schedule_values_shared_bitwise(self):
        cfg = _flip_cfg([0.5, 1.0], steps=20)
        report = compare_schemes(cfg, [SCHEMES["VIM"], SCHEMES["GVIM"], SCHEMES["AGVIM"]])
        traces = [r.trace for r in report.runs]
        for i in range(20):
            a_vals = {t.a[i] for t in traces}
            b_vals = {t.b[i] for t in traces}
            c_vals = {t.c[i] for t in traces}
            assert len(a_vals) == len(b_vals) == len(c_vals) == 1
        # k is each step's k_p: k_1 for single-application schemes, k_n for AGVIM
        for r in report.runs:
            powers = [SCHEMES[r.scheme].power(n) for n in range(1, 21)]
            assert r.trace.k.tolist() == [cfg.envelope(p) for p in powers]

    def test_fixed_start_hits_all_thresholds_immediately(self):
        cfg = _flip_cfg([0.0, 0.0], steps=10)
        cfg = SolverConfig(
            scheme=cfg.scheme, mapping=cfg.mapping, schedule=cfg.schedule,
            x1=[0.0, 0.0], contraction=cfg.contraction, max_outer=10,
        )
        report = compare_schemes(cfg, [SCHEMES["VIM"], SCHEMES["GVIM"]])
        for r in report.runs:
            assert all(hit == 1 for hit in r.iters_to.values())

    def test_failing_scheme_reported_others_complete(self):
        # k_n = 1.3^n makes the power scheme ill-posed from n = 5 on,
        # while single-application schemes stay well posed
        grow = make_affine(1.3 * np.eye(2), np.zeros(2))
        sched = replace(power_schedule(1.0, 0.2), k=lambda n: 1.3 ** n)
        cfg = SolverConfig(
            scheme=SCHEMES["VIM"], mapping=grow, schedule=sched,
            x1=[0.5, 0.5], contraction=make_scaling_contraction(0.4),
            max_outer=40, tol_step=0.0,
        )
        report = compare_schemes(cfg, [SCHEMES["AGVIM"], SCHEMES["VIM"]])
        by_name = {r.scheme: r for r in report.runs}
        assert by_name["AGVIM"].failed
        assert "q_n" in by_name["AGVIM"].error
        assert not by_name["VIM"].failed
        # failed column is empty in the CSV
        lines = report.to_csv().strip().split("\n")
        assert lines[1].split(",")[1] == ""

    def test_needs_two_schemes(self):
        with pytest.raises(InvalidInputError):
            compare_schemes(_flip_cfg([0.0, 1.0]), [SCHEMES["VIM"]])

    def test_imr_and_vim_both_converge(self):
        cfg = _flip_cfg([0.0, 1.0 / 3.0], steps=200)
        report = compare_schemes(cfg, [SCHEMES["IMR"], SCHEMES["VIM"]])
        for r in report.runs:
            assert not r.failed
            assert r.iters_to[1e-4] is not None


class TestIterateBound:
    def test_reduces_to_start_distance_at_common_fixed_point(self):
        f = make_scaling_contraction(0.5)
        assert iterate_bound([0.0, 1.0 / 3.0], [0.0, 0.0], f) == pytest.approx(1.0 / 3.0)

    def test_drift_term_for_moving_anchor(self):
        # f(p) = p/2 at p = (1,-1): drift ||p/2|| / (1 - 0.5 - 0.25)
        f = make_scaling_contraction(0.5)
        p = np.array([1.0, -1.0])
        drift = (np.sqrt(2.0) / 2.0) / 0.25
        assert iterate_bound(p, p, f) == pytest.approx(drift, rel=1e-12)


class TestEstimateRate:
    def test_harmonic_slope(self):
        r = [1.0 / n for n in range(1, 200)]
        assert estimate_rate(r) == pytest.approx(-1.0, abs=0.05)

    def test_quadratic_slope(self):
        r = [1.0 / n**2 for n in range(1, 200)]
        assert estimate_rate(r) == pytest.approx(-2.0, abs=0.05)

    def test_constant_slope(self):
        assert estimate_rate([0.7] * 50) == pytest.approx(0.0, abs=1e-12)

    def test_nonpositive_excluded_and_guarded(self):
        with pytest.raises(InsufficientDataError):
            estimate_rate([1.0, 0.5, 0.25])
        with pytest.raises(InsufficientDataError):
            estimate_rate([0.0, -1.0, 0.5, 0.25, 0.125, 0.0625])
        # exactly five positives is enough
        estimate_rate([0.0, 1.0, 0.5, 0.25, 0.125, 0.0625])
