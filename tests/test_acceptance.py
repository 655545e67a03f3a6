"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Criterion 2 encodes the reference table's pattern bars verbatim;
see the README for the measured behaviour of the faithful runs.
"""

import time
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

from midpointfp.cli import main
from midpointfp.diagnostics import check_vi, iterate_bound, sample_fixed_set_flip
from midpointfp.mappings import (
    make_affine,
    make_flip_map,
    make_scaling_contraction,
    verify_envelope,
)
from midpointfp.schedules import paper_schedule, power_schedule, validate
from midpointfp.solver import SCHEMES, SolverConfig, implicit_step, run
from midpointfp.space import NormSpec, duality_map, inner, norm

from affine_oracle import implicit_step_affine_oracle

STARTS = [
    np.array([0.0, 1.0 / 3.0]),
    np.array([0.5, 1.0]),
    np.array([-2.0, 1.0]),
]


def _report(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def benchmark_cfg(x1, **kw):
    return SolverConfig(
        scheme=SCHEMES["AGVIM"],
        mapping=make_flip_map(),
        schedule=paper_schedule(),
        x1=x1,
        contraction=make_scaling_contraction(0.5),
        **kw,
    )


@pytest.fixture(scope="module")
def benchmark_default_traces():
    """The three benchmark runs at default tolerances."""
    return [run(benchmark_cfg(x1)) for x1 in STARTS]


@pytest.fixture(scope="module")
def table1_traces():
    """The three 20-step runs of table 1."""
    return [run(benchmark_cfg(x1, max_outer=20, tol_step=0.0)) for x1 in STARTS]


def test_criterion_1_inner_solver_oracle_equivalence():
    """Picard step equals the affine closed-form solve to tol_inner."""
    rng = np.random.default_rng(2024)
    tol_inner = 1e-12
    checked = 0
    worst = 0.0
    t0 = time.perf_counter()
    while checked < 100:
        d = int(rng.integers(1, 4))
        rho = float(rng.uniform(0.2, 1.25))
        A = rng.standard_normal((d, d))
        s = np.linalg.norm(A, 2)
        if s > 0:
            A *= rho / s
        b = rng.standard_normal(d)
        n = int(rng.integers(1, 7))
        base = max(1.0, rho)
        sched = replace(power_schedule(1.0, float(rng.uniform(0.0, 0.5))),
                        k=lambda m, _b=base: _b ** m)
        cfg = SolverConfig(
            scheme=SCHEMES["AGVIM"],
            mapping=make_affine(A, b, envelope=lambda m, _b=base: _b ** m),
            schedule=sched,
            x1=np.zeros(d),
            contraction=make_scaling_contraction(float(rng.uniform(0.0, 0.6))),
            tol_inner=tol_inner,
        )
        if cfg.step_bound(n)[0] > 0.9:
            continue
        x_n = rng.standard_normal(d)
        got = implicit_step(cfg, n, x_n).x
        want = implicit_step_affine_oracle(A, b, cfg.scheme, sched, n, x_n, cfg.contraction)
        worst = max(worst, float(np.linalg.norm(got - want)))
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= tol_inner and elapsed < 1.0
    _report("1 inner-solver oracle equivalence", ok,
            f"100 configs, worst deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_benchmark_table_pattern():
    """Reference-table pattern bars: residual <= 1.1e-3 at iteration 3 and
    0.0000 at 4 decimals from iteration 15, under either residual reading."""
    t0 = time.perf_counter()
    traces = [run(benchmark_cfg(x1, max_outer=20, tol_step=0.0)) for x1 in STARTS]
    failures = []
    for x1, trace in zip(STARTS, traces):
        steps = trace.step_norm
        dists = np.array([norm(x - trace.final) for x in trace.x[1:]])
        col_ok = False
        details = []
        for name, series in (("step", steps), ("dist", dists)):
            early_ok = series[2] <= 1.1e-3
            late_ok = bool(np.all(series[14:] < 5e-5))
            details.append(f"{name}: at n=3 {series[2]:.4g}, max n>=15 {series[14:].max():.4g}")
            if early_ok and late_ok:
                col_ok = True
        if not col_ok:
            failures.append(f"x1={x1.tolist()} [{'; '.join(details)}]")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    _report("2 benchmark table pattern", ok,
            "; ".join(failures) if failures else f"{elapsed:.2f}s")


def test_criterion_3_residual_laws(benchmark_default_traces):
    """Final residuals below 1e-6 and decreasing tails on all three runs."""

    def tail_windowed_nonincreasing(seq, window=2):
        tail = list(seq[len(seq) // 2:])
        maxima = [max(tail[i:i + window]) for i in range(0, len(tail), window)]
        return all(b <= a * (1.0 + 1e-9) + 1e-300 for a, b in zip(maxima, maxima[1:]))

    ok = True
    details = []
    for x1, trace in zip(STARTS, benchmark_default_traces):
        finals = (trace.step_norm[-1], trace.res_map[-1], trace.res_power[-1])
        if not all(v <= 1e-6 for v in finals):
            ok = False
            details.append(f"x1={x1.tolist()}: final residuals {finals}")
        for name, seq in (("step", trace.step_norm),
                          ("res_T", trace.res_map),
                          ("res_Tn", trace.res_power)):
            if not tail_windowed_nonincreasing(seq):
                ok = False
                details.append(f"x1={x1.tolist()}: {name} tail not decreasing")
    _report("3 residual laws", ok, "; ".join(details) if details else
            "three runs, final residuals <= 1e-6, decreasing tails")


def test_criterion_4_scheme_reductions():
    """Dropping inertia or powers reproduces the reduced schemes bit for bit."""
    rng = np.random.default_rng(99)

    def random_affine_cfg(scheme, schedule):
        d = int(rng.integers(1, 4))
        A = rng.standard_normal((d, d))
        A *= 0.9 / max(1.0, np.linalg.norm(A, 2))
        return SolverConfig(
            scheme=scheme, mapping=make_affine(A, rng.standard_normal(d)),
            schedule=schedule, x1=rng.standard_normal(d),
            contraction=make_scaling_contraction(0.4),
            max_outer=15, tol_step=0.0,
        )

    flip_env = lambda n: 1.0 + 0.5 ** n
    single_app = replace(SCHEMES["AGVIM"], use_power=False)
    cases = [
        ("AGVIM|b=0 == AVIM63", SCHEMES["AGVIM"], SCHEMES["AVIM63"],
         replace(power_schedule(1.0, 0.0), k=flip_env),
         replace(power_schedule(1.0, 0.0), k=flip_env)),
        ("AGVIM|single == GVIM", single_app, SCHEMES["GVIM"],
         replace(paper_schedule(), k=lambda n: 1.0), replace(paper_schedule(), k=lambda n: 1.0)),
        ("GVIM|b=0 == VIM", SCHEMES["GVIM"], SCHEMES["VIM"],
         power_schedule(1.0, 0.0), power_schedule(1.0, 0.0)),
    ]
    ok = True
    details = []
    for label, left, right, sched_rand, sched_ex in cases:
        for _ in range(10):
            cfg = random_affine_cfg(left, sched_rand)
            a = run(cfg).x
            b = run(replace(cfg, scheme=right)).x
            if not np.array_equal(a, b):
                ok = False
                details.append(f"{label} differs on a random affine problem")
                break
        for x1 in STARTS:
            cfg = SolverConfig(
                scheme=left, mapping=make_flip_map(), schedule=sched_ex, x1=x1,
                contraction=make_scaling_contraction(0.5), max_outer=20, tol_step=0.0,
            )
            a = run(cfg).x
            b = run(replace(cfg, scheme=right)).x
            if not np.array_equal(a, b):
                ok = False
                details.append(f"{label} differs on the benchmark mapping from {x1.tolist()}")
                break
    _report("4 scheme reductions", ok, "; ".join(details) if details else
            "three reductions, 10 random problems each plus the benchmark runs, bit-for-bit")


def test_criterion_5_schedule_validator():
    """Validator verdicts for the three stipulated schedules."""
    ok = True
    details = []

    def on_unit_flip(sched):
        # the flip map declared with envelope 1, so the run's k_n is the schedule's
        return replace(benchmark_cfg(STARTS[0]), mapping=make_flip_map(envelope=lambda n: 1.0),
                       schedule=sched)

    rep = validate(on_unit_flip(paper_schedule()), horizon=1000)
    if not (rep.condition_i.ok and rep.condition_ii.ok and rep.condition_iii.ok
            and rep.simplex.ok and rep.wellposed.ok
            and rep.normal_structure_bound.status == "warn" and rep.passed):
        ok = False
        details.append("benchmark schedule did not pass with structure warning")

    rep = validate(on_unit_flip(power_schedule(2.0, 0.0)), horizon=1000)
    if rep.condition_ii.status != "fail":
        ok = False
        details.append("a_n = 1/n^2 not flagged for convergent series")

    sched = replace(power_schedule(2.0, 0.0), k=lambda n: 1.0 + 1.0 / n)
    rep = validate(on_unit_flip(sched), horizon=1000)
    ratio_end = rep.condition_iii.value
    ratio_mid = (sched.k(500) ** 2 - 1.0) / sched.a(500)
    linear_growth = abs(ratio_end / ratio_mid - 2.0) < 0.05  # ratio ~ 2n
    if rep.condition_iii.status != "fail" or not linear_growth:
        ok = False
        details.append("k_n = 1 + 1/n with a_n = 1/n^2 not failed with ratio ~ n")

    _report("5 schedule validator", ok, "; ".join(details) if details else
            "benchmark passes with warning; divergence and ratio failures detected")


def test_criterion_6_boundedness(benchmark_default_traces):
    """||x_n|| <= ||x_1|| + 1e-9 along every benchmark run (anchor at 0)."""
    f = make_scaling_contraction(0.5)
    p = np.zeros(2)
    ok = True
    details = []
    for x1, trace in zip(STARTS, benchmark_default_traces):
        bound = iterate_bound(x1, p, f)
        assert bound == norm(np.asarray(x1))  # f fixes p, so the radius is ||x1||
        worst = max(norm(x - p) for x in trace.x)
        if worst > bound + 1e-9:
            ok = False
            details.append(f"x1={x1.tolist()}: max ||x_n|| = {worst} > {bound}")
    _report("6 boundedness bound", ok, "; ".join(details) if details else
            "all iterates inside the starting ball")


def test_criterion_7_duality_map_identities():
    """<x, J(x)> = ||x||^2 and ||J(x)||_q = ||x||_p on 1000 random pairs."""
    rng = np.random.default_rng(7)
    ok = True
    worst = 0.0
    for i in range(1000):
        p = (1.5, 2.0, 3.0, 4.0)[i % 4]
        spec = NormSpec(p)
        x = rng.uniform(-10.0, 10.0, size=int(rng.integers(1, 7)))
        j = duality_map(x, spec)
        nx = norm(x, spec)
        e1 = abs(inner(x, j) - nx**2) / (1.0 + nx**2)
        e2 = abs(norm(j, NormSpec(spec.q)) - nx) / (1.0 + nx)
        worst = max(worst, e1, e2)
        if e1 > 1e-10 or e2 > 1e-10:
            ok = False
    _report("7 duality-map identities", ok, f"worst relative error {worst:.2e}")


def test_criterion_8_envelope_checks():
    """Envelope verification passes for the benchmark map, fails for doubling."""
    rep_default = verify_envelope(make_flip_map(), n_max=10, samples=300, seed=12)
    rep_unit = verify_envelope(make_flip_map(envelope=lambda n: 1.0), n_max=10, samples=300,
                               seed=12)
    doubling = make_affine(2.0 * np.eye(2), [0.0, 0.0], envelope=lambda n: 1.0)
    rep_fail = verify_envelope(doubling, n_max=3, samples=100, seed=12)
    ok = rep_default.passed and rep_unit.passed and not rep_fail.passed
    _report("8 asymptotic-nonexpansiveness check", ok,
            f"flip excess {rep_default.max_excess:.1e} / {rep_unit.max_excess:.1e}, "
            f"doubling excess {rep_fail.max_excess:.2f}")


def test_criterion_9_vi_certificate(tmp_path, capsys):
    """Certificate holds at the origin, is exactly -1 for the offset
    candidate against the origin sample, and the reproduction command
    surfaces the reference-limit discrepancy."""
    f = make_scaling_contraction(0.5)
    ok = True
    details = []

    cert0 = check_vi([0.0, 0.0], f, sample_fixed_set_flip(10, seed=3))
    if not (cert0.holds and all(v == 0.0 for v in cert0.values)):
        ok = False
        details.append("certificate not trivial at the origin")

    cert1 = check_vi([1.0, -1.0], f, [np.zeros(2)])
    if not (cert1.values[0] == -1.0 and cert1.verdict == "violated"):
        ok = False
        details.append(f"offset candidate value {cert1.values[0]} (expected exactly -1)")

    code = main(["reproduce-table1", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    if code != 0 or "violated" not in out or "value -1 at sample (0,0)" not in out:
        ok = False
        details.append("reproduction command did not surface the discrepancy")

    with capsys.disabled():
        print()
        _report("9 VI certificate behavior", ok,
                "; ".join(details) if details else
                "holds at origin; exact -1 violation surfaced by reproduce-table1")


def exact_twin(x1, steps):
    """x_{steps+1} of the benchmark iteration from x1, in 40-digit decimals.

    The recursion of ``ray_oracle`` (tests/test_solver.py): on the ray
    through x1 the flip map's powers act as +/- identity, so x_n = t_n x1
    with a scalar t_n. x1 is taken exactly as the float it is.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        u = [Decimal(float(v)) for v in x1]
        fixed = u[0] * u[1] < 0
        t = Decimal(1)
        for n in range(1, steps + 1):
            a, b, c = Decimal(1) / n, Decimal(n - 1) / (n * (n + 1)), Decimal(n - 1) / (n + 1)
            s = 1 if fixed else (-1) ** n
            t = t * (a / 2 + b + c * s / 2) / (1 - c * s / 2)
        return [t * v for v in u]


def test_trajectories_stay_within_the_drift_bound_of_an_exact_twin(benchmark_default_traces,
                                                                   table1_traces):
    # each accepted step is within tol_inner of the exact step from the
    # accepted x_n, and the step map moves by at most L_n ||x_n - x'_n|| with
    # L_n = (a_n alpha + |b_n| + q_n)/(1 - q_n), so the errors add up to at
    # most e_{N+1}, with e_1 = 0 and e_{n+1} = L_n e_n + tol_inner
    alpha, tol = 0.5, 1e-12
    for trace in (*benchmark_default_traces, *table1_traces):
        bound = 0.0
        for a, b, q in zip(trace.a, trace.b, trace.q):
            bound = (a * alpha + abs(b) + q) / (1.0 - q) * bound + tol
        twin = exact_twin(trace.x[0], len(trace))
        with localcontext() as ctx:
            ctx.prec = 40
            dist = sum((Decimal(float(v)) - w) ** 2 for v, w in zip(trace.final, twin)).sqrt()
        assert float(dist) <= bound, (
            f"run from {trace.x[0].tolist()} of {len(trace)} steps ends {float(dist) / tol:.1f} "
            f"tol_inner from its exact twin, beyond the bound {bound / tol:.1f}")
