"""What a run does when the paper's condition (ii), sum a_n = inf, fails.

Flip map, f = x/2, AGVIM, default tolerances, start (-2, 1), and the
power family a_n = n^-s with b_const = 0.3, so that (ii) holds iff
s <= 1. The viscosity limit is 0, the one fixed point of T where the
variational inequality <(I - f) p, x - p> >= 0 holds against the fixed
point x = 0. With s = 2 the steps shrink below tol_step while the
iterate is still far from 0, so the run reports convergence at a fixed
point of T that is not the limit, and only the VI certificate and
``validate``'s (ii) row show it. README, "What the conditions do".
"""

import numpy as np
import pytest

from midpointfp import SCHEMES, SolverConfig, check_vi, make_contraction_half, make_flip_map, run
from midpointfp.schedules import power_schedule, validate

START = [-2.0, 1.0]


def flip_cfg(s):
    return SolverConfig(scheme=SCHEMES["AGVIM"], mapping=make_flip_map(),
                        schedule=power_schedule(s, 0.3), x1=START,
                        contraction=make_contraction_half())


def certificate(p):
    return check_vi(p, make_contraction_half(), [np.zeros(2)], mapping=make_flip_map())


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
