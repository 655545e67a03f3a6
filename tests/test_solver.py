import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from midpointfp import mappings, solver
from midpointfp.errors import IllPosedError, InnerBudgetError, InvalidInputError
from midpointfp.mappings import (
    Contraction,
    Mapping,
    make_affine,
    make_flip_map,
    make_scaling_contraction,
    power_operator,
)
from midpointfp.schedules import Schedule, custom_schedule, paper_schedule, power_schedule
from midpointfp.solver import (
    SCHEMES,
    SolverConfig,
    implicit_step,
    run,
    scheme_by_name,
)
from midpointfp.space import NormSpec, norm

from affine_oracle import implicit_step_affine_oracle


def picard_only(mapping):
    """The mapping without its affine powers, so steps run plain Picard."""
    return replace(mapping, affine=None)


def one_d_identity_cfg(**kw):
    sched = custom_schedule([[0.5, 0.0, 0.5, 1.0]] * kw.pop("rows", 1))
    return SolverConfig(
        scheme=SCHEMES["GVIM"],
        mapping=picard_only(make_affine([[1.0]], [0.0])),
        schedule=sched,
        x1=[1.0],
        contraction=make_scaling_contraction(0.5),
        **kw,
    )


def benchmark_cfg(x1, scheme="AGVIM", **kw):
    return SolverConfig(
        scheme=SCHEMES[scheme],
        mapping=make_flip_map(),
        schedule=paper_schedule(),
        x1=x1,
        contraction=make_scaling_contraction(0.5),
        **kw,
    )


def ray_oracle(x1, steps):
    """Exact per-step solve of the implicit equation on the ray through x1.

    On a ray the flip map's powers act as +/- identity, so each step is
    a scalar affine equation solved in rational arithmetic; independent
    of the Picard path under test.
    """
    x1 = [Fraction(v).limit_denominator(10**12) for v in x1]
    prod = x1[0] * x1[1]
    t = Fraction(1)
    out = [tuple(x1)]
    for n in range(1, steps + 1):
        a, b, c = Fraction(1, n), Fraction(n - 1, n * (n + 1)), Fraction(n - 1, n + 1)
        s = Fraction(1) if prod < 0 else Fraction(-1) ** n
        t = t * (a / 2 + b + c * s / 2) / (1 - c * s / 2)
        out.append((t * x1[0], t * x1[1]))
    return out


class TestImplicitStep:
    def test_one_d_identity_example(self):
        # x = 0.25 + 0.25 (1 + x) has the unique solution 2/3
        cfg = one_d_identity_cfg()
        res = implicit_step(cfg, 1, [1.0])
        assert abs(res.x[0] - 2.0 / 3.0) <= cfg.tol_inner
        # first Picard iterates are 0.75 then 0.6875
        assert res.deltas[0] == 0.25
        assert res.deltas[1] == 0.0625
        oracle = implicit_step_affine_oracle([[1.0]], [0.0], cfg, 1, [1.0])
        assert oracle[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert abs(res.x[0] - oracle[0]) <= cfg.tol_inner

    @pytest.mark.parametrize("x", [[1e200, -1e200], [1e308] * 3])
    def test_finite_point_whose_square_overflows(self, x):
        # x . x overflows, so the finiteness check scans the entries; the
        # identity map with a = 1/2 steps to 0.5 x + 0.5 x, which is x exactly
        d = len(x)
        cfg = SolverConfig(scheme=SCHEMES["IMR"], mapping=make_affine(np.eye(d), np.zeros(d)),
                           schedule=custom_schedule([[0.5, 0.0, 0.5, 1.0]]), x1=x)
        np.testing.assert_array_equal(cfg.x1, x)
        res = implicit_step(cfg, 1, x)
        np.testing.assert_array_equal(res.x, x)
        assert res.deltas == [0.0]

    def test_a_step_whose_deltas_square_past_the_float_range_is_finite(self):
        # T = 0.9 I: IMR's step y = x_n / 2 + (0.9 / 2) (x_n + y) / 2 is
        # y = (0.725 / 0.775) x_n, and every iterate is finite
        x = np.array([1e200, -1e200])
        cfg = SolverConfig(scheme=SCHEMES["IMR"], mapping=make_affine(0.9 * np.eye(2), [0.0, 0.0]),
                           schedule=custom_schedule([[0.5, 0.0, 0.5, 1.0]]), x1=x)
        res = implicit_step(cfg, 1, x)
        assert np.isfinite(res.x).all()
        np.testing.assert_allclose(res.x, 0.725 / 0.775 * x, rtol=1e-12)

    def test_common_fixed_point_is_stationary(self):
        cfg = benchmark_cfg([0.0, 0.0])
        res = implicit_step(cfg, 2, [0.0, 0.0])
        np.testing.assert_array_equal(res.x, [0.0, 0.0])
        assert res.inner_iters == 1

    def test_first_step_is_explicit(self):
        # c_1 = 0 collapses the operator term: x_2 = f(x_1)
        cfg = benchmark_cfg([0.0, 1.0 / 3.0])
        res = implicit_step(cfg, 1, [0.0, 1.0 / 3.0])
        np.testing.assert_array_equal(res.x, [0.0, 1.0 / 6.0])
        assert res.inner_iters == 1
        assert cfg.step_values(1).q == 0.0

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("mapping", ["flip", "affine"])
    def test_a_step_makes_the_values_run_passes_it(self, scheme, mapping):
        # run passes each step cfg.step_values(n); without them the step
        # makes the same row itself, so it returns the same bits
        cfg = benchmark_cfg([0.5, 1.0], scheme, max_outer=20, tol_step=0.0)
        if mapping == "affine":  # ||A||_2 = 1.06, so k_p comes from the pair A_p
            cfg = replace(cfg, mapping=make_affine([[0.25, 1.0], [0.0, 0.25]], [0.1, 0.0]))
        xs = run(cfg).x
        for n in range(1, len(xs)):
            own = implicit_step(cfg, n, xs[n - 1])
            given = implicit_step(cfg, n, xs[n - 1], cfg.step_values(n))
            assert own.x.tobytes() == given.x.tobytes() == xs[n].tobytes()
            assert (own.inner_iters, own.bound, own.deltas) == (
                given.inner_iters, given.bound, given.deltas)

    def test_illposed_raises(self):
        sched = custom_schedule([[0.1, 0.0, 0.9, 4.0]] * 5)
        cfg = replace(one_d_identity_cfg(), schedule=sched)
        with pytest.raises(IllPosedError) as err:
            implicit_step(cfg, 1, [1.0])
        assert err.value.n == 1
        assert err.value.q >= 1.0

    def test_inner_budget_exceeded(self):
        sched = custom_schedule([[0.05, 0.0, 0.95, 1.9]] * 3)  # q = 0.9025
        cfg = replace(one_d_identity_cfg(), schedule=sched, max_inner=2)
        with pytest.raises(InnerBudgetError) as err:
            implicit_step(cfg, 1, [1.0])
        assert err.value.n == 1
        assert err.value.achieved_bound > cfg.tol_inner
        assert err.value.iterations == 2

    def test_diverging_step_raises_illposed(self):
        # a declared envelope of 1 understates ||A^n||: at n = 3 the step
        # map has factor c_3 ||A^3|| / 2 = 1.7, so the Picard deltas grow
        cfg = SolverConfig(
            scheme=SCHEMES["AGVIM"],
            mapping=picard_only(make_affine(np.diag([1.9, 0.1]), [0.0, 0.0],
                                            envelope=lambda n: 1.0)),
            schedule=paper_schedule(), x1=[1.0, 1.0], contraction=make_scaling_contraction(0.5),
        )
        with pytest.raises(IllPosedError, match="diverges") as err:
            run(cfg)
        assert err.value.n == 3
        assert err.value.q == cfg.step_values(3).q

    def test_understated_envelope_caught_by_the_affine_solve(self):
        # the solve finds the exact step solution whatever the envelope,
        # but at n = 2 the step map's true factor c_2 ||A^2|| / 2 = 0.60
        # exceeds q_2 = 0.21, and the first Picard iterate shows it
        cfg = SolverConfig(
            scheme=SCHEMES["AGVIM"],
            mapping=make_affine(np.diag([1.9, 0.1]), [0.0, 0.0], envelope=lambda n: 1.0),
            schedule=paper_schedule(), x1=[1.0, 1.0], contraction=make_scaling_contraction(0.5),
        )
        with pytest.raises(IllPosedError, match="diverges") as err:
            run(cfg)
        assert err.value.n == 2
        assert err.value.q == cfg.step_values(2).q

    def test_singular_affine_system_raises_illposed(self):
        # (I - (cT/2) A) is singular for A = 2I/cT; the declared envelope
        # hides that the step map is no contraction
        sched = custom_schedule([[0.5, 0.0, 0.5, 1.0]])
        cfg = SolverConfig(
            scheme=SCHEMES["GVIM"], mapping=make_affine(4.0 * np.eye(2), [1.0, 0.0],
                                                        envelope=lambda n: 1.0),
            schedule=sched, x1=[1.0, 1.0], contraction=make_scaling_contraction(0.5),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(IllPosedError, match="singular implicit system") as err:
                implicit_step(cfg, 1, [1.0, 1.0])
        assert err.value.n == 1
        # A = 4I has a perfect eigenbasis; the zero denominator 1 - s lam
        # sends the step to LU, which finds the system singular
        assert cfg.mapping.affine._eig

    def test_affine_fixed_point_start_passes_the_pair_check(self):
        # T is orthogonal about x*, so envelope 1 is exact, and once the
        # paper's k_n = 1 + 2^-n rounds to 1 (n > 52) the pair check holds
        # with equality up to rounding; f = x/2 does not fix x*, so every
        # step after the first moves and goes through the solve
        rng = np.random.default_rng(11)
        Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        x_star = rng.standard_normal(8)
        b = x_star - Q @ x_star
        cfg = SolverConfig(
            scheme=SCHEMES["AGVIM"], mapping=make_affine(Q, b, envelope=lambda n: 1.0),
            schedule=paper_schedule(), x1=x_star, contraction=make_scaling_contraction(0.5),
            max_outer=200, tol_step=0.0,
        )
        trace = run(cfg)
        assert len(trace) == 200
        assert np.all(trace.inner_iters == 1)
        for n in (2, 3, 200):
            want = implicit_step_affine_oracle(Q, b, cfg, n, trace.x[n - 1])
            assert np.linalg.norm(trace.x[n] - want) <= cfg.tol_inner

    @staticmethod
    def exact_contraction_cfg(x1):
        return SolverConfig(
            scheme=SCHEMES["AGVIM"], mapping=make_affine([[1.0]], [0.0], envelope=lambda n: 1.0),
            schedule=power_schedule(1.0), x1=[x1], contraction=make_scaling_contraction(0.5),
            max_outer=2, tol_step=0.0,
        )

    def test_exact_contraction_of_a_large_iterate_passes_the_pair_check(self):
        # T = identity on R: step 2 of AGVIM under a_n = 1/n contracts by
        # exactly q_2 = 1/4, so the pair check holds with equality; formed as
        # ||G(x_n) - G(y*)|| by subtraction, its rounding at |x| = 54191
        # exceeded tol_inner (found by the property test of honest runs in
        # test_properties.py), while ||(cT/2) A_p e|| carries no cancellation
        assert len(run(self.exact_contraction_cfg(54191.0))) == 2

    @pytest.mark.parametrize("k", [0, 10, 30, 60])
    def test_exact_contraction_passes_the_pair_check_at_any_scale(self, k):
        # the same step from 54191 * 2^k: the pair check's two sides scale
        # with 2^k, exactly in binary floating point, and hold with equality
        trace = run(self.exact_contraction_cfg(54191.0 * 2.0 ** k))
        assert len(trace) == 2
        assert trace.q[1] == 0.25

    def test_step_factor_uses_the_mapping_envelope(self):
        # the paper schedule's k_n = 1 + 2^-n is far below ||A^n|| = 1.9^n;
        # q_n must come from the larger envelope so the Picard bound holds
        A = np.diag([1.9, 0.1])
        cfg = SolverConfig(
            scheme=SCHEMES["AGVIM"], mapping=make_affine(A, [0.0, 0.0]),
            schedule=paper_schedule(), x1=[1.0, 1.0], contraction=make_scaling_contraction(0.5),
        )
        assert cfg.step_values(2).q == 0.5 * cfg.schedule.c(2) * 1.9 ** 2
        x2 = implicit_step(cfg, 1, cfg.x1).x
        got = implicit_step(cfg, 2, x2).x
        want = implicit_step_affine_oracle(A, [0.0, 0.0], cfg, 2, x2)
        assert np.linalg.norm(got - want) <= cfg.tol_inner
        with pytest.raises(IllPosedError, match="not a contraction") as err:
            run(cfg)
        assert err.value.n == 3

    @pytest.mark.parametrize("path", ["affine", "picard"])
    def test_a_negative_operator_coefficient_keeps_the_bound(self, path):
        # c_1 = -0.4 (the simplex still holds): the step map's Lipschitz
        # constant in y is |cT| k_p / 2 = 0.2, and a signed q_n = -0.2 made the
        # bound negative, so the first Picard iterate was accepted unchecked
        A = [[0.0, -0.99], [0.99, 0.0]]
        mapping = make_affine(A, [0.0, 0.0])
        cfg = SolverConfig(
            scheme=SCHEMES["GVIM"], mapping=mapping if path == "affine" else picard_only(mapping),
            schedule=custom_schedule([[0.5, 0.9, -0.4, 1.0]]), x1=[1.0, 2.0],
            contraction=make_scaling_contraction(0.5),
        )
        step = implicit_step(cfg, 1, cfg.x1)
        assert cfg.step_values(1).q == pytest.approx(0.2) and step.bound >= 0.0
        want = implicit_step_affine_oracle(A, [0.0, 0.0], cfg, 1, cfg.x1)
        assert np.linalg.norm(step.x - want) <= cfg.tol_inner

    @pytest.mark.parametrize("norm_p", [math.inf, 1.5, 3.0])
    def test_rotation_runs_in_a_non_euclidean_norm(self, norm_p):
        # ||R||_2 = 1 but ||R||_inf = sqrt(2) for a 45 degree rotation: k_p
        # is ||R^p||_inf at r = inf, and the 2-norm envelope times
        # rho = 2^|1/r - 1/2| otherwise, so q_n bounds the step map in the
        # norm the run measures in
        c = s = math.sqrt(0.5)
        R = np.array([[c, -s], [s, c]])
        spec = NormSpec(norm_p)
        cfg = SolverConfig(
            scheme=SCHEMES["AGVIM"], mapping=make_affine(R, [0.0, 0.0]),
            schedule=paper_schedule(), x1=[1.0, 0.3], contraction=make_scaling_contraction(0.5),
            max_outer=200, tol_step=0.0, norm=spec,
        )
        trace = run(cfg)
        assert len(trace) == 200
        assert max(trace.q) < 1.0
        np.testing.assert_array_equal(trace.q, 0.5 * trace.c * trace.k)
        for n in range(1, 201):
            want = implicit_step_affine_oracle(R, [0.0, 0.0], cfg, n, trace.x[n - 1])
            assert norm(trace.x[n] - want, spec) <= cfg.tol_inner

    def test_max_norm_bound_of_an_affine_map_is_exact(self):
        # ||(0.5 I)^p||_inf = 0.5^p, so at r = inf q_n is the 2-norm q_n. At
        # r = 3, L_1 is the Riesz-Thorin bound 0.5 (rho = 100^(1/6) times the
        # envelope 1 would refuse the run at n = 14, where q_n = (1 - 1/n) rho / 2
        # reaches 1), so k_p is again the schedule's k_1 = 1.5
        def cfg(r):
            return SolverConfig(scheme=SCHEMES["VIM"],
                                mapping=make_affine(0.5 * np.eye(100), np.zeros(100)),
                                schedule=paper_schedule(), x1=np.ones(100),
                                contraction=make_scaling_contraction(0.5), norm=NormSpec(r))
        for n in range(1, 50):
            assert cfg(math.inf).step_values(n) == cfg(2.0).step_values(n)
            assert cfg(3.0).step_values(n) == cfg(2.0).step_values(n)
        assert cfg(3.0).mapping.lipschitz(1, 3.0) == pytest.approx(0.5, rel=1e-13)
        assert run(cfg(math.inf)).converged
        assert run(cfg(3.0)).converged

    def test_nonfinite_delta_raises_illposed(self):
        blowup = Mapping(apply=lambda u: u, envelope=lambda n: 1.0, domain_dim=2,
                         power=lambda n, u: np.full_like(u, np.inf))
        cfg = SolverConfig(
            scheme=SCHEMES["AGVIM"], mapping=blowup, schedule=paper_schedule(),
            x1=[1.0, 1.0], contraction=make_scaling_contraction(0.5),
        )
        with pytest.raises(IllPosedError) as err:
            implicit_step(cfg, 2, [1.0, 1.0])
        assert err.value.n == 2
        assert err.value.q == cfg.step_values(2).q

    @pytest.mark.parametrize("schedule, error, message", [
        # c_1 = 0: step 1 has no operator term, so no Picard delta sees the NaN
        (paper_schedule(), InvalidInputError, "step 1 is not finite"),
        (custom_schedule([[0.5, 0.0, 0.5, 1.0]]), IllPosedError, "step 1 is not finite"),
    ], ids=["cT = 0", "cT != 0"])
    def test_nan_contraction_raises_a_typed_error(self, schedule, error, message):
        # run calls the contraction on the checked x_n without checking again
        nan = Contraction(apply=lambda u: np.full_like(u, np.nan), alpha=0.5)
        cfg = SolverConfig(scheme=SCHEMES["GVIM"], mapping=make_affine(0.5 * np.eye(3), np.ones(3)),
                           schedule=schedule, x1=np.ones(3), contraction=nan, max_outer=1)
        with pytest.raises(error, match=message):
            run(cfg)
        with pytest.raises(error, match=message):
            implicit_step(cfg, 1, np.ones(3))

    def test_picard_deltas_contract(self):
        rng = np.random.default_rng(77)
        sched = power_schedule(1.0, 0.2)
        for _ in range(20):
            d = rng.integers(1, 4)
            A = rng.standard_normal((d, d))
            A *= 0.9 / max(1.0, np.linalg.norm(A, 2))
            T = picard_only(make_affine(A, rng.standard_normal(d)))
            cfg = SolverConfig(
                scheme=SCHEMES["GVIM"], mapping=T, schedule=sched,
                x1=rng.standard_normal(d), contraction=make_scaling_contraction(0.4),
            )
            n = int(rng.integers(2, 6))
            res = implicit_step(cfg, n, rng.standard_normal(d))
            q = cfg.step_values(n).q
            for prev, cur in zip(res.deltas, res.deltas[1:]):
                if prev == 0.0:
                    assert cur == 0.0
                else:
                    assert cur <= prev * (q + 1e-10)

    def test_oracle_explicit_reduction(self):
        # cT = 0 collapses the linear system to the explicit combination
        cfg = SolverConfig(scheme=SCHEMES["GVIM"], mapping=make_affine([[1.0]], [0.0]),
                           schedule=custom_schedule([[1.0, 0.0, 0.0, 1.0]]), x1=[3.0],
                           contraction=make_scaling_contraction(0.5))
        got = implicit_step_affine_oracle([[1.0]], [0.0], cfg, 1, [3.0])
        assert got[0] == 1.5

    def test_oracle_constant_mapping(self):
        # A = 0: the operator contributes only its shift
        A, b = [[0.0, 0.0], [0.0, 0.0]], [2.0, -4.0]
        cfg = SolverConfig(scheme=SCHEMES["GVIM"], mapping=make_affine(A, b),
                           schedule=custom_schedule([[0.5, 0.25, 0.25, 1.0]]), x1=[1.0, 1.0],
                           contraction=make_scaling_contraction(0.5))
        got = implicit_step_affine_oracle(A, b, cfg, 1, [1.0, 1.0])
        # x = 0.5*f(x_n) + 0.25*x_n + 0.25*b
        np.testing.assert_allclose(got, [0.25 + 0.25 + 0.5, 0.25 + 0.25 - 1.0], atol=1e-15)

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(101)
        sched = power_schedule(1.0, 0.25)
        for _ in range(20):
            d = rng.integers(1, 4)
            A = rng.standard_normal((d, d))
            A *= rng.uniform(0.2, 1.0) / max(1.0, np.linalg.norm(A, 2))
            b = rng.standard_normal(d)
            T = picard_only(make_affine(A, b))
            cfg = SolverConfig(
                scheme=SCHEMES["AGVIM"], mapping=T, schedule=sched,
                x1=rng.standard_normal(d), contraction=make_scaling_contraction(0.3),
            )
            n = int(rng.integers(1, 6))
            x_n = rng.standard_normal(d)
            got = implicit_step(cfg, n, x_n).x
            want = implicit_step_affine_oracle(A, b, cfg, n, x_n)
            assert np.linalg.norm(got - want) <= cfg.tol_inner

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_affine_solve_takes_one_iteration(self, scheme):
        # the solved warm start passes the a-posteriori bound at once
        rng = np.random.default_rng(202)
        sched = power_schedule(1.0, 0.25)
        for _ in range(20):
            d = rng.integers(1, 5)
            A = rng.standard_normal((d, d))
            A *= rng.uniform(0.2, 1.0) / max(1.0, np.linalg.norm(A, 2))
            b = rng.standard_normal(d)
            cfg = SolverConfig(
                scheme=SCHEMES[scheme], mapping=make_affine(A, b), schedule=sched,
                x1=rng.standard_normal(d), contraction=make_scaling_contraction(0.3),
            )
            n = int(rng.integers(2, 7))
            x_n = rng.standard_normal(d)
            res = implicit_step(cfg, n, x_n)
            assert res.inner_iters == 1
            q = cfg.step_values(n).q
            assert res.bound <= cfg.tol_inner < res.deltas[0] * q / (1.0 - q)
            want = implicit_step_affine_oracle(A, b, cfg, n, x_n)
            assert np.linalg.norm(res.x - want) <= cfg.tol_inner


def scripted_cfg(outputs, **kw):
    """GVIM step 1 with G(y) = 0.5 * P at x_n = 0, where P runs through
    ``outputs`` one power evaluation at a time, whatever the argument."""
    values = iter(outputs)
    scripted = Mapping(apply=lambda u: u, envelope=lambda n: 1.0, domain_dim=1,
                       power=lambda n, u: np.full_like(u, next(values)))
    return SolverConfig(scheme=SCHEMES["GVIM"], mapping=scripted,
                        schedule=custom_schedule([[0.5, 0.0, 0.5, 1.0]]), x1=[0.0],
                        contraction=make_scaling_contraction(0.5), **kw)


class TestPicardLoop:
    """The failure paths and the delta record of the inner loop."""

    @pytest.mark.parametrize("outputs, message", [
        ([math.nan], "step 1 is not finite: Picard delta nan at iteration 1"),
        ([math.inf], "step 1 is not finite: Picard delta inf at iteration 1"),
        ([4.0, math.nan], "step 1 is not finite: Picard delta nan at iteration 2"),
        # deltas 2, 1, 3: the third exceeds the first, not only the second
        ([4.0, 2.0, 8.0], "diverges at n=1: Picard delta 3.000e+00 after 2.000e+00 "
                          "at iteration 3"),
    ], ids=["nan first", "inf first", "nan second", "grows at 3"])
    def test_bad_delta_names_its_iteration(self, outputs, message):
        with pytest.raises(IllPosedError, match=re.escape(message)) as err:
            implicit_step(scripted_cfg(outputs), 1, [0.0])
        assert (err.value.n, err.value.q) == (1, 0.25)

    def test_a_delta_equal_to_the_first_passes(self):
        # deltas 2, 2, 0
        res = implicit_step(scripted_cfg([4.0, 8.0, 8.0]), 1, [0.0])
        assert res.deltas == [2.0, 2.0, 0.0]
        assert res.x[0] == 4.0 and res.inner_iters == 3

    def test_affine_budget_counts_from_the_solve(self):
        # a solve that lands 1e-3 off y* leaves G(y*) short of tol_inner: with
        # max_inner = 1 the step evaluates G at x_n and at y*, then raises
        # with the bound of the iterate after the solve
        T = make_affine([[0.5]], [0.0])

        class OffSolve:
            pair = T.affine.pair

            def solve(self, p, s, r):
                return T.affine.solve(p, s, r) + 1e-3

        calls = []

        def power(n, u):
            calls.append(u.copy())
            return T.power(n, u)

        cfg = SolverConfig(scheme=SCHEMES["GVIM"], mapping=replace(T, power=power, affine=OffSolve()),
                           schedule=custom_schedule([[0.5, 0.0, 0.5, 1.0]]), x1=[1.0],
                           contraction=make_scaling_contraction(0.5), max_inner=1)
        with pytest.raises(InnerBudgetError) as err:
            implicit_step(cfg, 1, [1.0])
        # T^p at x_n only: G(y*) is formed from G(x_n) by linearity
        assert len(calls) == 1
        # G(y) = 0.375 + 0.125 y, y* = 3/7: the bound is (1/3) * 0.875 * 1e-3
        assert err.value.achieved_bound == pytest.approx(0.875e-3 / 3.0, rel=1e-9)
        assert err.value.iterations == 1

    def test_affine_restart_hands_off_to_the_loop(self):
        # a solve 1e-11 off y* leaves G(y*) short of tol_inner once: the loop
        # takes one more Picard iteration from G(y*), its one T^p evaluation
        # after the one at x_n, and accepts the next
        T = make_affine([[0.5]], [0.0])

        class OffSolve:
            pair = T.affine.pair

            def solve(self, p, s, r):
                return T.affine.solve(p, s, r) + 1e-11

        calls = []

        def power(n, u):
            calls.append(u.copy())
            return T.power(n, u)

        cfg = SolverConfig(scheme=SCHEMES["GVIM"], mapping=replace(T, power=power, affine=OffSolve()),
                           schedule=custom_schedule([[0.5, 0.0, 0.5, 1.0]]), x1=[1.0],
                           contraction=make_scaling_contraction(0.5), max_inner=2)
        res = implicit_step(cfg, 1, [1.0])
        assert res.inner_iters == 2 and len(calls) == 2
        # G(y) = 0.375 + 0.125 y from x_n = 1: the first delta is 0.5, then
        # each delta from y* + e is 0.875 e and shrinks by 0.125
        assert len(res.deltas) == 3 and res.deltas[0] == 0.5
        assert res.deltas[1] == pytest.approx(0.875e-11, rel=1e-4)
        assert res.deltas[2] == pytest.approx(0.125 * 0.875e-11, rel=1e-3)
        q = cfg.step_values(1).q
        assert res.bound == q / (1.0 - q) * res.deltas[2] <= cfg.tol_inner
        assert res.x[0] == pytest.approx(3.0 / 7.0, abs=cfg.tol_inner)

    def test_collected_deltas(self):
        # G(y) = 0.5 + 0.25 y from x_n = 1: three Picard passes with dyadic
        # deltas 4^-m, then the secant step through the last two lands on the
        # fixed point 2/3 of the affine G, where the fourth delta is 0
        res = implicit_step(one_d_identity_cfg(), 1, [1.0])
        assert res.deltas == [0.25, 0.0625, 0.015625, 0.0]
        assert res.inner_iters == 4 and res.x[0] == 2.0 / 3.0
        # on the affine path the list holds the first delta, then the deltas from y*
        cfg = replace(one_d_identity_cfg(), mapping=make_affine([[1.0]], [0.0]))
        res = implicit_step(cfg, 1, [1.0])
        assert res.inner_iters == 1
        assert res.deltas[0] == 0.25 and len(res.deltas) == 2
        assert res.deltas[1] <= 3.0 * cfg.tol_inner
        # a step without the operator term (c_1 = 0) makes no Picard iteration
        assert implicit_step(benchmark_cfg([0.0, 1.0]), 1, [0.0, 1.0]).deltas == []

    def test_a_secant_step_across_a_kink_falls_back_to_picard(self):
        # T u = |u| is nonexpansive with a kink at 0. From x_n = -2, GVIM's
        # step map is G(y) = -0.05 + 0.95 |y - 2| (q = 0.95): the first Picard
        # iterate lands past the kink at y = 2, so the secant through the next
        # two pairs straddles it and lands where the residual is larger than
        # that of the plain iterate it replaced
        kink = Mapping(apply=np.abs, envelope=lambda n: 1.0, domain_dim=1,
                       power=lambda n, u: np.abs(u))
        cfg = SolverConfig(scheme=SCHEMES["GVIM"], mapping=kink,
                           schedule=custom_schedule([[0.05, 0.0, 1.9, 1.0]]), x1=[-2.0],
                           contraction=make_scaling_contraction(0.5))
        res = implicit_step(cfg, 1, [-2.0])
        picard = [-2.0]
        for _ in range(5):
            picard.append(-0.05 + 0.95 * abs(picard[-1] - 2.0))
        # pass 4, at the secant point, is dropped, and passes 5 and 6
        # go on with Picard from the iterate it replaced
        assert res.deltas[3] > res.deltas[2]
        assert res.deltas[:3] + res.deltas[4:6] == pytest.approx(np.abs(np.diff(picard)), rel=1e-12)
        # both pairs then lie on the branch y < 2, where the secant step is
        # exact (plain Picard takes 605 iterations on this step)
        assert res.inner_iters == 7 and res.bound <= cfg.tol_inner
        # the branch's step: y = -0.05 + 0.95 (2 - y), so y = 37/39
        assert res.x[0] == pytest.approx(37.0 / 39.0, abs=cfg.tol_inner)


def _orthogonal_d60():
    """An orthogonal Q with b = (I - Q) x*, so x* is fixed, and a start x1."""
    rng = np.random.default_rng(7)
    q, r = np.linalg.qr(rng.standard_normal((60, 60)))
    q = q * np.sign(np.diag(r))
    x_star = rng.standard_normal(60)
    return q, x_star - q @ x_star, rng.standard_normal(60)


def _rotation():
    c = s = math.sqrt(0.5)
    return np.array([[c, -s], [s, c]]), np.array([0.5, -1.0]), np.array([1.0, 0.3]), None


def _symmetric():
    rng = np.random.default_rng(12)
    Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    A = Q @ np.diag(rng.uniform(-0.95, 0.95, 8)) @ Q.T
    return A, rng.standard_normal(8), rng.standard_normal(8), None


def _jordan():
    # sup_n ||J^n||_2 = 1.207, so the constant envelope 1.25 holds
    return np.array([[0.5, 1.0], [0.0, 0.5]]), np.array([1.0, -1.0]), np.array([2.0, 1.0]), 1.25


def _non_normal():
    # close eigenvalues and large couplings: kappa_1(V) is about 2e6, and
    # sup_n ||A^n||_2 = 1.41
    A = np.diag(np.linspace(0.3, 0.34, 5)) + np.triu(0.4 * np.ones((5, 5)), 1)
    return A, np.arange(5.0), np.ones(5), 1.5


class TestAffineSolve:
    """Each affine step is solved in A's eigenbasis, or by LU where the
    eigenbasis is ill-conditioned; both agree with the LU oracle."""

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("inputs, eigen, steps", [
        (_rotation, True, 200),
        (_symmetric, True, 200),
        (lambda: (*_orthogonal_d60(), None), True, 40),
        (_jordan, False, 200),
        (_non_normal, False, 200),
    ], ids=["rotation", "symmetric", "orthogonal d=60", "jordan", "non-normal"])
    def test_steps_agree_with_the_oracle(self, inputs, eigen, steps, scheme):
        A, b, x1, k = inputs()
        cfg = SolverConfig(
            scheme=SCHEMES[scheme],
            mapping=make_affine(A, b, envelope=None if k is None else lambda n: k),
            schedule=paper_schedule(), x1=x1, contraction=make_scaling_contraction(0.5),
            max_outer=steps, tol_step=0.0,
        )
        trace = run(cfg)
        assert len(trace) == steps
        assert np.all(trace.inner_iters == 1)
        assert bool(cfg.mapping.affine._eig) == eigen
        for n in range(1, steps + 1):
            want = implicit_step_affine_oracle(A, b, cfg, n, trace.x[n - 1])
            assert np.linalg.norm(trace.x[n] - want) <= cfg.tol_inner, n

    @staticmethod
    def orthogonal_d60_agvim(steps):
        A, b, x1 = _orthogonal_d60()
        return SolverConfig(
            scheme=SCHEMES["AGVIM"], mapping=make_affine(A, b), schedule=paper_schedule(),
            x1=x1, contraction=make_scaling_contraction(0.5), max_outer=steps, tol_step=0.0,
        )

    def test_a_step_whose_solve_lands_evaluates_one_power(self):
        # the pass at y* is formed from G(x_n) by linearity: mapping.power is
        # called at x_n only, and the step still takes its one inner iteration
        A, b, x1, _ = _rotation()
        T = make_affine(A, b)
        calls = []

        def power(n, u):
            calls.append(n)
            return T.power(n, u)

        cfg = SolverConfig(scheme=SCHEMES["AGVIM"], mapping=replace(T, power=power),
                           schedule=paper_schedule(), x1=x1,
                           contraction=make_scaling_contraction(0.5))
        res = implicit_step(cfg, 3, x1)
        assert calls == [3]
        assert res.inner_iters == 1 and len(res.deltas) == 2
        want = implicit_step_affine_oracle(A, b, cfg, 3, x1)
        assert np.linalg.norm(res.x - want) <= cfg.tol_inner

    def test_the_pass_at_y_star_is_the_loops_formula(self):
        # G(y*) = G(x_n) + (cT/2) A_p e against base + cT T^p((x_n + y*)/2), the
        # Picard loop's pass at the same y*, over the run's first 200 steps
        cfg = self.orthogonal_d60_agvim(200)
        affine, corrections = cfg.mapping.affine, []

        class Recorded:
            pair = affine.pair

            def solve(self, p, s, r):
                corrections.append(affine.solve(p, s, r))
                return corrections[-1]

        cfg = replace(cfg, mapping=replace(cfg.mapping, affine=Recorded()))
        eps = np.finfo(float).eps
        x_n = implicit_step(cfg, 1, cfg.x1).x  # c_1 = 0: step 1 has no operator term
        for n in range(2, 201):
            res = implicit_step(cfg, n, x_n)
            assert res.inner_iters == 1 and len(corrections) == n - 1
            _, _, _, cf, cx, cT, p, _, _ = cfg.step_values(n)
            y_star = x_n + corrections[-1]
            loop = cf * cfg.contraction(x_n) + cx * x_n + cT * affine(p, 0.5 * (x_n + y_star))
            assert np.linalg.norm(res.x - loop) <= 8 * eps * (norm(x_n) + norm(y_star)), n
            x_n = res.x

    def test_a_power_past_the_float_range_names_the_step(self):
        # A = [[1, 1], [1, 1]] and x_n on its null space: A_p x_n = 0, but
        # lam^1024 = 2^1024 overflows; with c_n = 1e-309, |s| 2^p stays
        # below 1, so the solve takes the eigenbasis path and refuses it
        cfg = SolverConfig(
            scheme=SCHEMES["AGVIM"],
            mapping=make_affine([[1.0, 1.0], [1.0, 1.0]], [0.0, 0.0], envelope=lambda n: 1.0),
            schedule=Schedule(a=lambda n: 0.5, b=lambda n: 0.5, c=lambda n: 1e-309,
                              k=lambda n: 1.0),
            x1=[1.0, -1.0], contraction=make_scaling_contraction(0.5), tol_inner=1e-320,
            tol_step=0.0,
        )
        assert implicit_step(cfg, 1023, cfg.x1).x.tolist() == [0.75, -0.75]
        with pytest.raises(IllPosedError, match="at n=1024: power 1024 of the affine map") as err:
            implicit_step(cfg, 1024, cfg.x1)
        assert err.value.n == 1024

    def test_defect_correction_keeps_the_residual_at_rounding_level(self):
        # lam^p and the A_p formed by products drift apart by rounding as p
        # grows; a solve for the whole right-hand side r reaches a relative
        # residual of about 2e-12 by p = 2000 at d = 60, while the step's
        # y* = x_n + solve(G(x_n) - x_n) stays at rounding level
        cfg = self.orthogonal_d60_agvim(2000)
        xs = run(cfg).x
        affine = make_affine(cfg.mapping.affine.A, cfg.mapping.affine.b).affine
        for p in range(1, 2001):
            x_n = xs[p - 1]
            _, _, _, cf, cx, cT, *_ = cfg.step_values(p)
            Ap, bp = affine.pair(p)
            base = cf * cfg.contraction(x_n) + cx * x_n
            r = base + cT * (0.5 * (Ap @ x_n) + bp)
            y = x_n + affine.solve(p, 0.5 * cT, base + cT * (Ap @ x_n + bp) - x_n)
            residual = r - (y - 0.5 * cT * (Ap @ y))
            assert np.linalg.norm(residual) <= 1e-14 * np.linalg.norm(r), p
        assert affine._eig

    def test_orthogonal_d60_runs_2000_steps_in_the_eigenbasis(self, monkeypatch):
        # |s| max|lam^p| <= q_n < 1 on every step, so the scalar guard never
        # sends a step to LU, and every step takes one inner iteration
        cfg = self.orthogonal_d60_agvim(2000)

        def no_lu(*args):
            raise AssertionError("LU solve on a well-posed step")

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "solve", no_lu)
            trace = run(cfg)
        assert len(trace) == 2000
        assert np.all(trace.inner_iters == 1)
        # A^n by products and by binary powering drift apart by rounding,
        # which moves the exact step solution by about 1e-15 n here (1.8e-12
        # at n = 2000, solved either way): the independent oracle is checked
        # up to n = 500, and every step against an LU solve of the run's A_p
        A, b, _ = _orthogonal_d60()
        affine = make_affine(A, b).affine
        for n in range(1, 2001):
            x_n = trace.x[n - 1]
            if n <= 500:
                want = implicit_step_affine_oracle(A, b, cfg, n, x_n)
                assert np.linalg.norm(trace.x[n] - want) <= cfg.tol_inner, n
            _, _, _, cf, cx, cT, *_ = cfg.step_values(n)
            Ap, bp = affine.pair(n)
            r = cf * cfg.contraction(x_n) + cx * x_n + cT * (0.5 * (Ap @ x_n) + bp)
            want = np.linalg.solve(np.eye(60) - 0.5 * cT * Ap, r)
            assert np.linalg.norm(trace.x[n] - want) <= cfg.tol_inner, n

    def test_zero_denominator_raises_illposed(self):
        # 1 - s lam^p = 1 - 0.5 * 2 = 0 exactly: s max|lam| = 1 fails the
        # guard, and LU finds the system singular
        cfg = SolverConfig(
            scheme=SCHEMES["GVIM"], mapping=make_affine(np.diag([2.0, 0.5]), [0.0, 0.0],
                                                        envelope=lambda n: 1.0),
            schedule=custom_schedule([[0.0, 0.0, 1.0, 1.0]]), x1=[1.0, 1.0],
            contraction=make_scaling_contraction(0.5),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(IllPosedError, match="singular implicit system") as err:
                implicit_step(cfg, 1, [1.0, 1.0])
        assert (err.value.n, err.value.q) == (1, 0.5)
        assert cfg.mapping.affine._eig

    def test_a_power_past_the_float_range_raises_illposed(self):
        # A^n = 2^(n-1) A overflows at n = 1025, where A_n x_n would be inf - inf
        cfg = SolverConfig(
            scheme=SCHEMES["AGVIM"], mapping=make_affine([[1.0, 1.0], [1.0, 1.0]], [0.0, 0.0],
                                                         envelope=lambda n: 1.0),
            schedule=custom_schedule([[0.5, 0.5, 0.5, 1.0]] * 1025), x1=[1.0, -1.0],
            contraction=make_scaling_contraction(0.5),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(IllPosedError, match="power 1025 of the affine map is past") as err:
                implicit_step(cfg, 1025, [1.0, -1.0])
        assert (err.value.n, err.value.q) == (1025, 0.25)


class TestRun:
    def test_trajectory_matches_rational_oracle(self):
        cfg = benchmark_cfg([0.0, 1.0 / 3.0], max_outer=12, tol_step=0.0)
        trace = run(cfg)
        oracle = ray_oracle([0.0, 1.0 / 3.0], 12)
        xs = trace.x
        for i, expected in enumerate(oracle):
            got = xs[i]
            want = np.array([float(expected[0]), float(expected[1])])
            assert np.linalg.norm(got - want) <= 5e-12, f"iterate {i}"

    def test_frozen_early_iterates(self):
        trace = run(benchmark_cfg([0.0, 1.0 / 3.0], max_outer=6, tol_step=0.0))
        xs = trace.x
        frozen = [
            1.0 / 6.0,            # f(x_1)
            7.0 / 60.0,
            7.0 / 900.0,
            161.0 / 25200.0,
            -23.0 / 48000.0,
        ]
        for i, want in enumerate(frozen):
            assert xs[i + 1][0] == 0.0
            assert xs[i + 1][1] == pytest.approx(want, abs=5e-12)

    def test_converges_from_table_start(self):
        trace = run(benchmark_cfg([0.0, 1.0 / 3.0]))
        assert trace.converged
        assert len(trace) <= 20
        assert trace.step_norm[-1] <= 1e-8
        assert np.all(trace.inner_iters <= 10_000)

    def test_stationary_start_stops_immediately(self):
        trace = run(benchmark_cfg([0.0, 0.0]))
        assert trace.converged
        assert len(trace) == 1
        np.testing.assert_array_equal(trace.final, [0.0, 0.0])
        for column in (trace.step_norm, trace.res_map, trace.res_power):
            np.testing.assert_array_equal(column, [0.0])

    @pytest.mark.parametrize("x1, settings, stop, steps", [
        ([0.0, 1.0 / 3.0], {}, "tol_step", 16),
        # step 1 (a_1 = 1, cT = 0) maps the origin to f(0) = 0, which T fixes too
        ([0.0, 0.0], {"tol_step": 0.0}, "stationary", 1),
        ([-2.0, 1.0], {"max_outer": 5, "tol_step": 0.0}, "max_outer", 5),
    ], ids=["tol_step", "stationary", "max_outer"])
    def test_each_stop_reason_is_reported(self, x1, settings, stop, steps):
        trace = run(benchmark_cfg(x1, **settings))
        assert (trace.stop, len(trace)) == (stop, steps)
        assert trace.converged is (stop != "max_outer")

    @pytest.mark.parametrize("scheme", ["VIM", "GVIM", "AGVIM", "AVIM63"])
    def test_explicit_first_step_does_not_stop_off_the_fixed_set(self, scheme):
        # a_1 = 1 makes step 1 x_2 = f(x_1), which is x_1 at the origin;
        # the origin is not a fixed point of T, so the run must go on
        T = make_affine(0.5 * np.eye(2), [1.0, 1.0])
        cfg = SolverConfig(
            scheme=SCHEMES[scheme], mapping=T, schedule=paper_schedule(), x1=[0.0, 0.0],
            contraction=make_scaling_contraction(0.5), max_outer=50,
        )
        trace = run(cfg)
        assert trace.step_norm[0] == 0.0
        assert trace.res_map[0] == pytest.approx(math.sqrt(2.0))
        assert len(trace) > 1

    @pytest.mark.xfail(raises=AssertionError, strict=True,
                       reason="the step-norm stop guards only cT = 0 (ROADMAP item 11): a "
                              "tiny cT stands still, and the run says converged, off the fixed set")
    @pytest.mark.parametrize("A, b, schedule, x1, settings", [
        # T(u) = u + 1 fixes no point; IMR's step 1 with cT = 1e-300 moves x
        # from 0 to 1e-300, whose squared step norm underflows to 0
        ([[1.0]], [1.0], custom_schedule([[1e-300, 0.0, 1.0, 1.0]]), [0.0], {"max_outer": 1}),
        ([[1.0]], [1.0], custom_schedule([[1e-300, 0.0, 1.0, 1.0]]), [0.0],
         {"max_outer": 1, "tol_step": 0.0}),
        # F = {0}: cT = n^-2 shrinks the steps below tol_step at ||x|| = 1,
        # after 1 000 steps with ||x - T x|| = 1.0e-2
        ([[math.cos(0.01), -math.sin(0.01)], [math.sin(0.01), math.cos(0.01)]], [0.0, 0.0],
         power_schedule(2), [1.0, 0.0], {}),
        # F = R x {0}: the same after 3 435 steps, ||x - T x|| = 0.118
        ([[1.0, 0.0], [0.0, 0.5]], [0.0, 0.0], power_schedule(2), [2.0, 1.0], {}),
    ], ids=["tiny cT", "tiny cT, tol_step 0", "rotation by 0.01", "diag(1, 0.5)"])
    def test_a_tiny_operator_coefficient_does_not_stop_off_the_fixed_set(
            self, A, b, schedule, x1, settings):
        cfg = SolverConfig(scheme=SCHEMES["IMR"], mapping=make_affine(A, b), schedule=schedule,
                           x1=x1, **settings)
        trace = run(cfg)
        assert not np.array_equal(trace.final, cfg.x1)  # the steps moved x
        residual = norm(trace.final - cfg.mapping(trace.final))
        assert trace.stop not in ("tol_step", "stationary") or residual <= cfg.tol_step

    def test_illposed_prescan_names_first_offender(self):
        # power scheme: q_3 = c_3 k_3 / 2 = 0.9 * 4 / 2 >= 1, raised when
        # step 3 is reached
        sched = custom_schedule([[0.5, 0.0, 0.5, 1.0]] * 2 + [[0.1, 0.0, 0.9, 4.0]] * 3)
        cfg = replace(one_d_identity_cfg(), schedule=sched, max_outer=5,
                      scheme=SCHEMES["AGVIM"], tol_step=0.0)
        with pytest.raises(IllPosedError) as err:
            run(cfg)
        assert err.value.n == 3
        # a run that ends before the ill-posed index returns normally
        assert len(run(replace(cfg, max_outer=2))) == 2

    def test_single_application_factor_ignores_power_envelope(self):
        # the same schedule is well posed for single-application schemes,
        # whose inner factor uses k_1
        sched = custom_schedule([[0.5, 0.0, 0.5, 1.0]] * 2 + [[0.1, 0.0, 0.9, 4.0]] * 3)
        cfg = replace(one_d_identity_cfg(), schedule=sched, max_outer=5, tol_step=0.0)
        trace = run(cfg)
        assert len(trace) == 5
        assert max(trace.q) < 1.0

    def test_boundedness_on_benchmark_runs(self):
        for x1 in ([0.0, 1.0 / 3.0], [0.5, 1.0], [-2.0, 1.0]):
            trace = run(benchmark_cfg(x1, max_outer=20, tol_step=0.0))
            r0 = np.linalg.norm(np.asarray(x1))
            for x in trace.x:
                assert np.linalg.norm(x) <= r0 + 1e-9

    def test_fixed_region_residuals_vanish(self):
        # iterates from (-2, 1) stay inside the open fixed region
        trace = run(benchmark_cfg([-2.0, 1.0], max_outer=20, tol_step=0.0))
        assert np.all(trace.res_map == 0.0)
        assert np.all(trace.res_power == 0.0)
        assert np.all(trace.step_norm > 0.0)

    def test_residual_chain_bound(self):
        # ||x_n - T x_n|| <= ||x_(n+1) - x_n|| + ||x_(n+1) - T^n x_n||
        #                    + k_1 ||x_n - T^(n-1) x_n||, recomputed from the trace
        cfg = benchmark_cfg([0.0, 1.0 / 3.0], max_outer=15, tol_step=0.0)
        trace = run(cfg)
        xs = trace.x
        k1 = cfg.schedule.k(1)
        for n in range(2, len(trace) + 1):
            x_n, x_next = xs[n - 1], xs[n]
            lhs = trace.res_map[n - 1]
            rhs = (
                trace.step_norm[n - 1]
                + np.linalg.norm(x_next - power_operator(cfg.mapping, n)(x_n))
                + k1 * np.linalg.norm(x_n - power_operator(cfg.mapping, n - 1)(x_n))
            )
            assert lhs <= rhs + 1e-12

    def test_power_cap_errors_for_foldonly_mapping(self, monkeypatch):
        monkeypatch.setattr(mappings, "POWER_CAP", 5)
        neg = Mapping(apply=lambda u: -u, envelope=lambda n: 1.0, domain_dim=2)
        cfg = SolverConfig(
            scheme=SCHEMES["AGVIM"], mapping=neg, schedule=power_schedule(1.0, 0.0),
            x1=[1.0, 2.0], contraction=make_scaling_contraction(0.5),
            max_outer=10, tol_step=0.0,
        )
        with pytest.raises(InvalidInputError):
            run(cfg)

    def test_power_cap_only_degrades_diagnostics_without_powers(self, monkeypatch):
        # the secant step lands step 2 on the fixed point 0, so the run stops
        # stationary at step 3, whose power T^3 is past the cap
        monkeypatch.setattr(mappings, "POWER_CAP", 2)
        neg = Mapping(apply=lambda u: -u, envelope=lambda n: 1.0, domain_dim=2)
        cfg = SolverConfig(
            scheme=SCHEMES["GVIM"], mapping=neg, schedule=power_schedule(1.0, 0.0),
            x1=[1.0, 2.0], contraction=make_scaling_contraction(0.5),
            max_outer=10, tol_step=0.0,
        )
        trace = run(cfg)
        assert (len(trace), trace.stop) == (3, "stationary")
        np.testing.assert_array_equal(trace.final, [0.0, 0.0])
        assert math.isnan(trace.res_power[2])
        assert not math.isnan(trace.res_power[1])

    def test_a_power_past_the_float_range_reads_nan_in_res_power(self):
        # cT = 0 and b_n = 1 hold x_n = (1, -1), and A^n = 2^(n-1) A overflows
        # at n = 1025, where A_n x_n would be inf - inf
        cfg = SolverConfig(
            scheme=SCHEMES["GVIM"], mapping=make_affine([[1.0, 1.0], [1.0, 1.0]], [0.0, 0.0]),
            schedule=custom_schedule([[0.0, 1.0, 0.0, 1.0]] * 1025), x1=[1.0, -1.0],
            contraction=make_scaling_contraction(0.5), max_outer=1025,
        )
        trace = run(cfg)
        assert (len(trace), trace.stop) == (1025, "max_outer")
        assert trace.res_power[1023] == math.sqrt(2.0)
        assert math.isnan(trace.res_power[1024])

    def test_buffers_grow_without_changing_the_trace(self, monkeypatch):
        cfg = benchmark_cfg([0.5, 1.0])
        want = run(cfg)
        monkeypatch.setattr(solver, "_FIRST_ROWS", 2)  # doubles to 4, 8, 16, 18
        got = run(cfg)
        assert len(got) == len(want) == 18 and got.converged
        for column in ("x", "step_norm", "res_map", "res_power", "inner_iters", "q", "a", "k"):
            np.testing.assert_array_equal(getattr(got, column), getattr(want, column))

    def test_affine_power_run_memory_stays_flat(self):
        # T^n comes from T^(n-1) with one product; no earlier power is kept
        d = 30
        rng = np.random.default_rng(3)
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        x_star = rng.standard_normal(d)
        cfg = SolverConfig(
            scheme=SCHEMES["AGVIM"], mapping=make_affine(Q, x_star - Q @ x_star),
            schedule=paper_schedule(), x1=rng.standard_normal(d),
            contraction=make_scaling_contraction(0.5), max_outer=1000, tol_step=0.0,
        )
        tracemalloc.start()
        try:
            trace = run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace) == 1000
        assert peak < 1_000_000


def rotate_into_ball(apply_calls):
    """T = P_B o R, a rotation by 0.3 followed by projection onto the unit
    ball: nonexpansive, with no closed-form power. Each apply appends to
    ``apply_calls``."""
    c, s = math.cos(0.3), math.sin(0.3)
    R = np.array([[c, -s], [s, c]])

    def apply(u):
        apply_calls.append(1)
        v = R @ u
        return v / max(1.0, math.sqrt(v.dot(v)))

    return Mapping(apply=apply, envelope=lambda n: 1.0, domain_dim=2)


class TestPowerReuse:
    """On every step whose power p is n, res_power reuses the step's T^n x_n."""

    def test_step_one_of_a_single_power_scheme_evaluates_t_x1_once(self):
        # IMR applies T, which is T^n at n = 1 (a_1 = 1, so cT = a_1 != 0)
        x1 = [1.0, 2.0]
        flip, seen = make_flip_map(), []
        counted = replace(flip, power=lambda n, u: seen.append((n, u.tolist())) or flip.power(n, u))
        cfg = replace(benchmark_cfg(x1, "IMR", max_outer=3, tol_step=0.0), mapping=counted)
        trace = run(cfg)
        assert seen.count((1, x1)) == 1
        assert trace.res_power.tolist() == self.res_power_direct(benchmark_cfg(x1, "IMR"), trace)

    @staticmethod
    def res_power_direct(cfg, trace):
        return [norm(x - power_operator(cfg.mapping, n)(x), cfg.norm)
                for n, x in enumerate(trace.x[:-1], start=1)]

    @pytest.mark.parametrize("scheme", ["AGVIM", "AVIM63"])
    @pytest.mark.parametrize("x1", [[0.0, 1.0 / 3.0], [0.5, 1.0], [-2.0, 1.0]])
    def test_flip_res_power_is_bit_identical(self, scheme, x1):
        cfg = benchmark_cfg(x1, scheme, max_outer=40)
        trace = run(cfg)
        assert trace.res_power.tolist() == self.res_power_direct(cfg, trace)

    @staticmethod
    def foldonly_cfg(calls):
        return SolverConfig(scheme=SCHEMES["AGVIM"], mapping=rotate_into_ball(calls),
                            schedule=paper_schedule(), x1=[2.0, 1.0],
                            contraction=make_scaling_contraction(0.5), max_outer=12, tol_step=0.0)

    def test_foldonly_map_saves_n_evaluations_per_step(self, monkeypatch):
        calls = []
        cfg = self.foldonly_cfg(calls)
        at_step = []  # map evaluations made before each step

        def counted_step(*args, **kwargs):
            at_step.append(len(calls))
            return implicit_step(*args, **kwargs)

        monkeypatch.setattr(solver, "implicit_step", counted_step)
        trace = run(cfg)
        per_step = np.diff(at_step + [len(calls)])
        assert len(trace) == 12
        # res_T takes 1 evaluation per row, all made when the run's one
        # block is finished, after the last step
        per_step[-1] -= len(trace)
        for n, (evals, inner, c) in enumerate(zip(per_step, trace.inner_iters, trace.c), start=1):
            # n per Picard iterate; a step without the operator term
            # (c_1 = 0) evaluates no power, so res_Tn folds n
            assert evals == (n * inner if c != 0.0 else n), n
        assert trace.c[0] == 0.0 and (trace.c[1:] != 0.0).all()

    def test_foldonly_res_power_is_bit_identical(self):
        cfg = self.foldonly_cfg([])
        trace = run(cfg)
        assert trace.res_power.tolist() == self.res_power_direct(cfg, trace)


class TestBlocks:
    """run finishes rows in blocks of BLOCK_ROWS: res_T is filled per block."""

    @staticmethod
    def affine5():
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        x_star = rng.standard_normal(5)  # a fixed point keeps the iterates bounded
        return make_affine(Q, x_star - Q @ x_star), rng.standard_normal(5)

    @pytest.mark.parametrize("kind", ["flip", "affine", "not rowwise"])
    @pytest.mark.parametrize("r", [2.0, math.inf, 3.0])
    def test_res_map_is_bit_identical_per_row(self, kind, r):
        if kind == "flip":
            mapping, x1 = make_flip_map(), [-2.0, 1.0]
        elif kind == "affine":
            mapping, x1 = self.affine5()
        else:
            mapping, x1 = rotate_into_ball([]), [2.0, 1.0]
        # c_n = 1/4 keeps q_n below 1 at every r
        cfg = SolverConfig(scheme=SCHEMES["GVIM"], mapping=mapping,
                           schedule=custom_schedule([[0.5, 0.25, 0.25, 1.0]] * 150), x1=x1,
                           contraction=make_scaling_contraction(0.5), max_outer=150, tol_step=0.0,
                           norm=NormSpec(r))
        trace = run(cfg)
        assert len(trace) > solver.BLOCK_ROWS
        assert trace.res_map.tolist() == [norm(x - mapping(x), cfg.norm) for x in trace.x[:-1]]

    def test_a_rowwise_map_is_applied_once_per_block(self):
        mapping, x1 = self.affine5()
        shapes = []
        apply = mapping.apply
        counted = replace(mapping, apply=lambda u: shapes.append(u.shape) or apply(u))
        cfg = SolverConfig(scheme=SCHEMES["AGVIM"], mapping=counted, schedule=paper_schedule(),
                           x1=x1, contraction=make_scaling_contraction(0.5), max_outer=150,
                           tol_step=0.0)
        run(cfg)
        assert shapes == [(64, 5), (64, 5), (22, 5)]

    def test_each_block_is_passed_on_once_finished(self):
        # trace.csv's rows so far, with n and res_T filled, as a view of the
        # returned table; the last block (n = 129..150) is not passed on
        blocks = []
        trace = run(benchmark_cfg([-2.0, 1.0], max_outer=150),
                    lambda rows: blocks.append((rows, rows.copy())))
        assert [len(rows) for rows, _ in blocks] == [64, 128]
        for rows, seen in blocks:
            assert np.shares_memory(rows, trace.rows)
            assert seen[:, 0].tolist() == list(range(1, len(seen) + 1))
            assert not np.isnan(seen).any()  # res_T too: NaN until the block is finished
            np.testing.assert_array_equal(seen, trace.rows[:len(seen)])

    def test_the_last_block_is_not_passed_on(self):
        # whether the run goes on is run's decision: a run that converges in
        # its first block makes no call, and one that ends on a block
        # boundary passes on only the blocks before it
        calls = []
        trace = run(benchmark_cfg([0.5, 1.0]), lambda rows: calls.append(len(rows)))
        assert trace.converged and len(trace) < solver.BLOCK_ROWS and calls == []
        trace = run(benchmark_cfg([-2.0, 1.0], max_outer=128),
                    lambda rows: calls.append(len(rows)))
        assert len(trace) == 128 and calls == [64]


class TestSchemeAlgebra:
    def test_registry_and_lookup(self):
        assert scheme_by_name("agvim").name == "AGVIM"
        assert scheme_by_name(" vim ").name == "VIM"
        with pytest.raises(InvalidInputError):
            scheme_by_name("nope")

    def test_imr_realization(self):
        # x' = (1-a) x + a T((x+x')/2) with T = I/2, a = 1/2, x = 1 -> 5/7
        sched = custom_schedule([[0.5, 0.25, 0.25, 1.0]])
        cfg = SolverConfig(
            scheme=SCHEMES["IMR"], mapping=make_affine([[0.5]], [0.0]),
            schedule=sched, x1=[1.0],
        )
        res = implicit_step(cfg, 1, [1.0])
        assert res.x[0] == pytest.approx(5.0 / 7.0, abs=1e-12)
        # IMR's inner factor is a_n k_1 / 2, not c_n k_n / 2
        assert cfg.step_values(1).q == 0.25

    def test_imr_needs_no_contraction(self):
        SolverConfig(
            scheme=SCHEMES["IMR"], mapping=make_affine([[0.5]], [0.0]),
            schedule=custom_schedule([[0.5, 0.25, 0.25, 1.0]]), x1=[1.0],
        )
        with pytest.raises(InvalidInputError):
            SolverConfig(
                scheme=SCHEMES["VIM"], mapping=make_affine([[0.5]], [0.0]),
                schedule=custom_schedule([[0.5, 0.25, 0.25, 1.0]]), x1=[1.0],
            )

    def _random_affine_cfg(self, rng, scheme, schedule, steps=12):
        d = rng.integers(1, 4)
        A = rng.standard_normal((d, d))
        A *= 0.9 / max(1.0, np.linalg.norm(A, 2))
        return SolverConfig(
            scheme=scheme, mapping=make_affine(A, rng.standard_normal(d)),
            schedule=schedule, x1=rng.standard_normal(d),
            contraction=make_scaling_contraction(0.4),
            max_outer=steps, tol_step=0.0,
        )

    def test_power_scheme_reduces_bitwise_without_inertia(self):
        rng = np.random.default_rng(5)
        sched = power_schedule(1.0, 0.0)  # b identically zero
        for _ in range(3):
            cfg = self._random_affine_cfg(rng, SCHEMES["AGVIM"], sched)
            a = run(cfg).x
            b = run(replace(cfg, scheme=SCHEMES["AVIM63"])).x
            assert np.array_equal(a, b)

    def test_single_application_power_scheme_is_inertial_scheme(self):
        rng = np.random.default_rng(6)
        sched = power_schedule(1.0, 0.3)  # k identically one
        single = replace(SCHEMES["AGVIM"], use_power=False)
        for _ in range(3):
            cfg = self._random_affine_cfg(rng, single, sched)
            a = run(cfg).x
            b = run(replace(cfg, scheme=SCHEMES["GVIM"])).x
            assert np.array_equal(a, b)

    def test_inertial_scheme_reduces_to_plain_viscosity(self):
        rng = np.random.default_rng(7)
        sched = power_schedule(1.0, 0.0)
        for _ in range(3):
            cfg = self._random_affine_cfg(rng, SCHEMES["GVIM"], sched)
            a = run(cfg).x
            b = run(replace(cfg, scheme=SCHEMES["VIM"])).x
            assert np.array_equal(a, b)


class TestConfigValidation:
    def test_tolerance_ordering(self):
        with pytest.raises(InvalidInputError):
            one_d_identity_cfg(tol_step=1e-12, tol_inner=1e-12)
        one_d_identity_cfg(tol_step=0.0, tol_inner=1e-12)  # 0 disables the stop

    def test_dimension_checked(self):
        with pytest.raises(InvalidInputError):
            benchmark_cfg([1.0, 2.0, 3.0])

    # anchors whose image of x1 is not a vector of R^2: a 3-d affine map (a
    # traceback at the first step), a 1-vector that broadcasts, a scalar;
    # a non-finite image is the step's typed error (test above)
    MISFIT_ANCHORS = {
        "3-d affine": lambda u: 0.5 * np.eye(3) @ u + np.zeros(3),
        "1-vector": lambda u: np.array([[0.5, 0.0]]) @ u + np.zeros(1),
        "scalar": lambda u: 0.5 * u[0],
    }

    @staticmethod
    def flip_cfg(contraction, scheme="AGVIM"):
        return SolverConfig(scheme=SCHEMES[scheme], mapping=make_flip_map(),
                            schedule=paper_schedule(), x1=[0.5, 1.0], contraction=contraction)

    @pytest.mark.parametrize("anchor", MISFIT_ANCHORS, ids=list(MISFIT_ANCHORS))
    def test_an_anchor_that_does_not_fit_is_refused_before_any_step(self, monkeypatch, anchor):
        monkeypatch.setattr(solver, "implicit_step", no_step)
        f = Contraction(self.MISFIT_ANCHORS[anchor], 0.5)
        with pytest.raises(InvalidInputError,
                           match=re.escape("contraction must map x1 to a vector in R^2")):
            run(self.flip_cfg(f))

    def test_a_3d_affine_anchor_is_refused(self):
        from midpointfp.mappings import make_affine_contraction
        with pytest.raises(InvalidInputError, match=re.escape("in R^2")):
            self.flip_cfg(make_affine_contraction(0.5 * np.eye(3), np.zeros(3)))

    def test_the_anchor_is_evaluated_once_at_x1(self):
        seen = []
        self.flip_cfg(Contraction(lambda u: seen.append(u.copy()) or 0.5 * u, 0.5), "IMR")
        assert len(seen) == 1 and np.array_equal(seen[0], [0.5, 1.0])

    def test_budget_guards(self):
        with pytest.raises(InvalidInputError):
            one_d_identity_cfg(max_inner=0)
        with pytest.raises(InvalidInputError):
            one_d_identity_cfg(max_outer=0)

    @pytest.mark.parametrize("budget", [
        {"max_inner": math.inf}, {"max_inner": 2.5}, {"max_outer": 2.5}, {"max_outer": 20.0},
        {"max_inner": True},
    ], ids=["max_inner inf", "max_inner 2.5", "max_outer 2.5", "max_outer 20.0", "max_inner bool"])
    def test_a_budget_must_be_an_integer(self, budget):
        # a max_inner of inf or 2.5 never equals the pass count, so a step that
        # misses tol_inner looped without end; max_outer=2.5 was a TypeError
        with pytest.raises(InvalidInputError, match="must be integers >= 1"):
            one_d_identity_cfg(**budget)

    def test_numpy_integers_are_budgets(self):
        cfg = one_d_identity_cfg(max_inner=np.int64(100), max_outer=np.int32(2), tol_step=0.0,
                                 rows=2)
        assert len(run(cfg)) == 2

    @pytest.mark.parametrize("tol_step, tol_inner", [
        (math.nan, 1e-12), (0.0, math.nan), (math.inf, 1e-12), (0.0, math.inf), (-1e-8, 1e-12),
    ])
    def test_nonfinite_tolerances_rejected(self, tol_step, tol_inner):
        # NaN would silently switch the stop rule or the Picard bound off
        with pytest.raises(InvalidInputError, match="tolerances"):
            one_d_identity_cfg(tol_step=tol_step, tol_inner=tol_inner)


def no_step(*args, **kwargs):
    raise AssertionError("a step was taken")


class TestExpandingAffineMaps:
    """Affine maps whose T expands while its powers shrink: the paper's class
    of asymptotically nonexpansive maps (Goebel & Kirk, Proc. AMS 35 (1972)
    171-174), for which the T^n schemes AGVIM and AVIM63 exist."""

    @pytest.mark.parametrize("scheme, outcome", [
        # the T schemes' steps need ||T||_2 = 2.12 in q_n, and IMR and VIM
        # weight T too heavily for that; the T^n schemes' k_n = 2.12, 2.25,
        # 1.63, 1.06, then 1 come from the pairs A_n
        ("IMR", "implicit step not a contraction at n=1: q_n = 1.059017 >= 1"),
        ("VIM", "implicit step not a contraction at n=18: q_n = 1.000183 >= 1"),
        ("GVIM", 27),
        ("AGVIM", 14),
        ("AVIM63", 12),
    ])
    def test_a_non_normal_map_whose_powers_shrink(self, scheme, outcome):
        # ||A^n||_2 for n = 1..8: 2.12, 2.03, 1.51, 1.00, 0.63, 0.38, 0.22, 0.13;
        # F = {0}, which is then the limit
        cfg = SolverConfig(
            scheme=SCHEMES[scheme], mapping=make_affine([[0.5, 2.0], [0.0, 0.5]], [0.0, 0.0]),
            schedule=paper_schedule(), x1=[1.0, 1.0], contraction=make_scaling_contraction(0.5),
        )
        if isinstance(outcome, str):
            with pytest.raises(IllPosedError, match=f"^{re.escape(outcome)}$"):
                run(cfg)
            return
        trace = run(cfg)
        assert trace.stop == "tol_step"
        assert len(trace) == outcome
        assert np.linalg.norm(trace.final) <= 1e-6

    @pytest.mark.xfail(raises=AssertionError, strict=True,
                       reason="a declared affine envelope is trusted (ROADMAP item 12): k_n = 1 "
                              "below ||A||_2 = 2.12 gives every step a q_n that is too low")
    def test_a_declared_envelope_below_the_maps_norm_is_refused(self):
        # d = 60, A = 0.5 I + 2 e1 e2^T declared with k_n = 1, which the
        # sampled envelope check passes (max excess -0.197 at seed 7): today
        # GVIM accepts 27 steps with q_n <= 0.70, while the true step factor
        # c_n ||A||_2 / 2 reaches 0.98
        A = 0.5 * np.eye(60)
        A[0, 1] = 2.0
        cfg = SolverConfig(
            scheme=SCHEMES["GVIM"], mapping=make_affine(A, np.zeros(60), envelope=lambda n: 1.0),
            schedule=paper_schedule(), x1=np.ones(60), contraction=make_scaling_contraction(0.5),
        )
        try:
            trace = run(cfg)
        except IllPosedError as err:
            assert err.n <= 2  # c_1 = 0: step 2 is the first with the operator term
        else:
            raise AssertionError(f"run accepted {len(trace)} steps ({trace.stop}), "
                                 f"with q_n <= {max(trace.q):.3f}")
