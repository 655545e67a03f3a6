from dataclasses import replace

import numpy as np
import pytest

from midpointfp.diagnostics import (
    THRESHOLDS,
    check_vi,
    compare_schemes,
    iterate_bound,
    sample_fixed_set_flip,
)
from midpointfp.errors import InvalidInputError, RejectedSampleError
from midpointfp.mappings import (
    Mapping,
    _declared_k,
    make_affine,
    make_flip_map,
    make_scaling_contraction,
)
from midpointfp.schedules import power_schedule
from midpointfp.solver import SCHEMES, SolverConfig
from midpointfp.space import NormSpec, duality_map


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
        expected = [float(np.dot(g, duality_map(x - p_vec, spec))) for x in xs]
        np.testing.assert_allclose(cert.values, expected, atol=1e-14)

    def test_order_invariance(self):
        f = make_scaling_contraction(0.5)
        xs = [np.array([1.0, -1.0]), np.zeros(2), np.array([-3.0, 0.5])]
        a = check_vi([0.2, -0.4], f, xs)
        b = check_vi([0.2, -0.4], f, xs[::-1])
        assert a.min_value == b.min_value
        assert a.verdict == b.verdict

    def test_a_product_past_the_float_range_gives_a_verdict(self):
        # <(I - f) p, x - p> is about -1e400: the sum reads -inf, without a
        # warning. The default tolerance 1e-9 (1 + ||p||) (1 + spread)
        # overflows to inf too, and -inf >= -inf would read "holds"
        cert = check_vi([1e200, -1e200], make_scaling_contraction(0.5), [np.array([1.0, -1.0])],
                        mapping=make_flip_map())
        assert cert.values == [-np.inf] and cert.tolerance == np.inf
        assert cert.verdict == "violated"

    def test_rejects_unverified_samples(self):
        flip = make_flip_map()
        with pytest.raises(RejectedSampleError) as err:
            check_vi([0.0, 0.0], make_scaling_contraction(0.5),
                     [np.zeros(2), np.array([1.0, 1.0])], mapping=flip)
        assert len(err.value.offenders) == 1

    def test_fixed_points_are_verified_in_one_stacked_call(self):
        flip, seen = make_flip_map(), []

        def apply(u):
            seen.append(u.shape)
            return flip.apply(u)

        samples = sample_fixed_set_flip(10, seed=2020)
        cert = check_vi([0.0, 0.0], make_scaling_contraction(0.5), samples,
                        mapping=replace(flip, apply=apply))
        assert cert.holds and seen == [(10, 2)]

    def test_a_sample_with_a_non_finite_image_is_rejected(self):
        T = Mapping(apply=lambda u: u if u[0] < 1.0 else np.full(2, np.nan), envelope=lambda n: 1.0,
                    domain_dim=2)
        with pytest.raises(RejectedSampleError) as err:
            check_vi([0.0, 0.0], make_scaling_contraction(0.5),
                     [np.zeros(2), np.array([2.0, 1.0])], mapping=T)
        np.testing.assert_array_equal(err.value.offenders, [[2.0, 1.0]])

    def test_a_point_of_another_dimension_than_the_map_raises(self):
        with pytest.raises(InvalidInputError, match="dimension mismatch"):
            check_vi([0.0, 0.0, 0.0], make_scaling_contraction(0.5), [np.zeros(3)],
                     mapping=make_flip_map())

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


def _per_scheme(cfg, *names):
    """One configuration per scheme, sharing everything else of ``cfg``."""
    return [replace(cfg, scheme=SCHEMES[name]) for name in names]


class TestCompareSchemes:
    def test_two_scheme_report(self):
        runs = compare_schemes(_per_scheme(_flip_cfg([0.0, 1.0 / 3.0]), "VIM", "GVIM"))
        assert [r.scheme for r in runs] == ["GVIM", "VIM"]  # name order
        # VIM's step 2 lands on the fixed point 0, so with tol_step = 0 it
        # stops stationary after 3 steps; GVIM runs the whole budget (the
        # files compare writes of these runs: TestCompareCommand)
        for r, steps, stop in zip(runs, (60, 3), ("max_outer", "stationary")):
            assert not r.failed
            assert (len(r.trace), r.trace.stop) == (steps, stop)
            assert r.iters_to[1e-2] is not None
            assert r.iters_to[1e-4] is not None
        np.testing.assert_array_equal(runs[1].trace.final, [0.0, 0.0])

    def test_schedule_values_shared_bitwise(self):
        cfg = _flip_cfg([0.5, 1.0], steps=20)
        runs = compare_schemes(_per_scheme(cfg, "VIM", "GVIM", "AGVIM"))
        # VIM and GVIM land on the fixed point 0 and stop stationary; every
        # row of every run holds the schedule's own a_n, b_n and c_n
        assert [(len(r.trace), r.trace.stop) for r in runs] == [
            (20, "max_outer"), (6, "stationary"), (3, "stationary")]
        for t in (r.trace for r in runs):
            for i in range(len(t)):
                n = i + 1
                assert (t.a[i], t.b[i], t.c[i]) == (cfg.schedule.a(n), cfg.schedule.b(n),
                                                    cfg.schedule.c(n))
        # k is each step's k_p: k_1 for single-application schemes, k_n for AGVIM
        for r in runs:
            use_power = SCHEMES[r.scheme].use_power
            powers = [n if use_power else 1 for n in range(1, len(r.trace) + 1)]
            assert r.trace.k.tolist() == [max(_declared_k(cfg.schedule.k, p),
                                              cfg.mapping.lipschitz(p)) for p in powers]

    def test_fixed_start_hits_all_thresholds_immediately(self):
        cfg = _flip_cfg([0.0, 0.0], steps=10)
        cfg = SolverConfig(
            scheme=cfg.scheme, mapping=cfg.mapping, schedule=cfg.schedule,
            x1=[0.0, 0.0], contraction=cfg.contraction, max_outer=10,
        )
        runs = compare_schemes(_per_scheme(cfg, "VIM", "GVIM"))
        for r in runs:
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
        runs = compare_schemes(_per_scheme(cfg, "AGVIM", "VIM"))
        by_name = {r.scheme: r for r in runs}
        assert by_name["AGVIM"].failed
        assert "q_n" in by_name["AGVIM"].error
        assert not by_name["VIM"].failed

    def test_a_level_names_the_first_step_at_or_below_it(self):
        # AVIM63's step norm from (1/2, 1) falls to each level and rises above
        # it again at the next step; AGVIM's does so at 1e-2
        runs = compare_schemes(_per_scheme(_flip_cfg([0.5, 1.0], steps=60), "AGVIM", "AVIM63"))
        avim63 = runs[1]
        assert [avim63.iters_to[t] for t in THRESHOLDS] == [4, 10, 16]
        assert all(avim63.trace.step_norm[n] > t for t, n in avim63.iters_to.items())
        for r in runs:
            steps = r.trace.step_norm
            for t, n in r.iters_to.items():
                assert steps[n - 1] <= t and (steps[:n - 1] > t).all()

    def test_needs_two_schemes(self):
        with pytest.raises(InvalidInputError):
            compare_schemes(_per_scheme(_flip_cfg([0.0, 1.0]), "VIM"))

    def test_imr_and_vim_both_converge(self):
        cfg = _flip_cfg([0.0, 1.0 / 3.0], steps=200)
        runs = compare_schemes(_per_scheme(cfg, "IMR", "VIM"))
        for r in runs:
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

