"""What a run does when the paper's condition (i), a_n -> 0, or (ii),
sum a_n = inf, fails.

Flip map, f = x/2, AGVIM, default tolerances, start (-2, 1), and the
power family a_n = n^-s with b_const = 0.3, so that (ii) holds iff
s <= 1. The viscosity limit is 0, the one fixed point of T where the
variational inequality <(I - f) p, x - p> >= 0 holds against the fixed
point x = 0. With s = 2 the steps shrink below tol_step while the
iterate is still far from 0, so the run reports convergence at a fixed
point of T that is not the limit, and only the VI certificate and
``validate``'s (ii) row show it.

For (i) the anchor is f(u) = u/2 + c with c = (1/2, 1/2), whose fixed
point 2c = (1, 1) lies outside F: there T(u) = -u. A constant a_n keeps
pulling the iterates towards 2c. README, "What the conditions do".
"""

import numpy as np
import pytest

from midpointfp import (
    SCHEMES, SolverConfig, check_vi, make_affine_contraction, make_flip_map,
    make_scaling_contraction, run, sample_fixed_set_flip,
)
from midpointfp.schedules import custom_schedule, paper_schedule, power_schedule, validate

START = [-2.0, 1.0]


def flip_cfg(s):
    return SolverConfig(scheme=SCHEMES["AGVIM"], mapping=make_flip_map(),
                        schedule=power_schedule(s, 0.3), x1=START,
                        contraction=make_scaling_contraction(0.5))


def certificate(p):
    return check_vi(p, make_scaling_contraction(0.5), [np.zeros(2)], mapping=make_flip_map())


def test_summable_a_n_stops_at_a_fixed_point_that_is_not_the_limit():
    cfg = flip_cfg(2.0)
    assert validate(cfg, 1000).condition_ii.status == "fail"
    trace = run(cfg)
    assert trace.converged and len(trace) == 7269
    p = trace.final
    np.testing.assert_allclose(p, [-0.614372, 0.307186], atol=1e-6)
    np.testing.assert_array_equal(make_flip_map()(p), p)
    cert = certificate(p)
    assert cert.verdict == "violated"
    # at the sample 0: <p/2, -p> = -||p||^2 / 2
    assert cert.min_value == pytest.approx(-0.5 * float(p @ p), rel=1e-12)
    assert cert.min_value == pytest.approx(-0.2359, abs=1e-4)


def test_divergent_a_n_reaches_the_viscosity_limit():
    cfg = flip_cfg(0.5)
    assert validate(cfg, 1000).condition_ii.status == "pass"
    trace = run(cfg)
    assert trace.converged and len(trace) == 140
    assert np.linalg.norm(trace.final) <= 2e-7
    assert certificate(trace.final).verdict == "holds"


SHIFTED = make_affine_contraction([[0.5, 0.0], [0.0, 0.5]], [0.5, 0.5])
STEPS = 200


def shifted_run(schedule):
    """AGVIM from (1/2, 1) with the shifted anchor, STEPS steps at most."""
    cfg = SolverConfig(scheme=SCHEMES["AGVIM"], mapping=make_flip_map(), schedule=schedule,
                       x1=[0.5, 1.0], contraction=SHIFTED, max_outer=STEPS)
    return cfg, run(cfg)


def off_fix(x):
    return float(np.linalg.norm(x - make_flip_map()(x)))


def fixed_set_certificate(p):
    # the origin and 9 points of F; F is not convex, so no point of it passes
    # against every sample, and only ||x - T x|| tells the two runs apart
    return check_vi(p, SHIFTED, sample_fixed_set_flip(10, seed=2020), mapping=make_flip_map())


def test_constant_a_n_settles_on_a_two_cycle_off_the_fixed_set():
    cfg, trace = shifted_run(custom_schedule([[0.1, 0.0, 0.9, 1.0]] * STEPS))
    report = validate(cfg, STEPS)
    assert report.condition_i.status == "fail"
    assert report.condition_i.detail == "a(200) = 1.000e-01 exceeds trend threshold 1.000e-12"
    assert not trace.converged and len(trace) == STEPS  # stops at max_outer
    # odd steps (T^n = -id on the first quadrant) land on (1, 1)/133, even
    # ones on 13 (1, 1)/133, and neither is fixed by T
    np.testing.assert_allclose(trace.x[-2], [1 / 133, 1 / 133], rtol=1e-9)
    np.testing.assert_allclose(trace.x[-1], [13 / 133, 13 / 133], rtol=1e-9)
    np.testing.assert_allclose(trace.step_norm[-1], 12 * np.sqrt(2) / 133, rtol=1e-9)
    assert off_fix(trace.x[-1]) == pytest.approx(26 * np.sqrt(2) / 133, rel=1e-9)  # 0.276
    cert = fixed_set_certificate(trace.final)
    assert cert.verdict == "violated" and cert.min_value == pytest.approx(-0.5732, abs=1e-4)


def test_vanishing_a_n_approaches_the_fixed_set():
    cfg, trace = shifted_run(paper_schedule())
    assert validate(cfg, STEPS).condition_i.status == "pass"
    assert not trace.converged and len(trace) == STEPS  # stops at max_outer
    # the same two-cycle, shrinking towards 0 in F about as 1/n
    np.testing.assert_allclose(trace.final, [4.98818e-3, 4.98818e-3], rtol=1e-5)
    assert off_fix(trace.final) == pytest.approx(0.014109, rel=1e-4)
    assert off_fix(trace.x[-2]) < 1.1e-4
    cert = fixed_set_certificate(trace.final)
    assert cert.verdict == "violated" and cert.min_value == pytest.approx(-0.7244, abs=1e-4)
