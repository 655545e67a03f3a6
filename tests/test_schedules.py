import math
from dataclasses import replace

import numpy as np
import pytest

from midpointfp.errors import IllPosedError, InvalidInputError
from midpointfp.mappings import (
    Mapping,
    _declared_k,
    make_affine,
    make_flip_map,
    make_scaling_contraction,
    verify_envelope,
)
from midpointfp.schedules import (
    Schedule,
    custom_schedule,
    paper_schedule,
    power_schedule,
    validate,
)
from midpointfp.solver import SCHEMES, SolverConfig, run
from midpointfp.space import NormSpec


def agvim_flip(schedule):
    """AGVIM on the flip map declared with envelope 1, so that the run's
    k_n is the schedule's k_n."""
    return SolverConfig(scheme=SCHEMES["AGVIM"], mapping=make_flip_map(envelope=lambda n: 1.0),
                        schedule=schedule, x1=[0.5, 1.0], contraction=make_scaling_contraction(0.5))


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
        assert cfg.step_values(2).q == pytest.approx(5.0 / 24.0, abs=1e-15)
        assert cfg.step_values(1).q == 0.0

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
            q = cfg.step_values(n).q
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
        report = validate(agvim_flip(paper_schedule()), horizon=1000)
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
        report = validate(agvim_flip(power_schedule(2.0, 0.0)), horizon=1000)
        assert report.condition_ii.status == "fail"
        assert not report.passed

    def test_slow_envelope_fails_ratio(self):
        # k_n = 1 + 1/n with a_n = 1/n^2: ratio (k^2-1)/a ~ 2n grows
        sched = replace(power_schedule(2.0, 0.0), k=lambda n: 1.0 + 1.0 / n)
        report = validate(agvim_flip(sched), horizon=1000)
        assert report.condition_iii.status == "fail"
        assert report.condition_iii.value > 1000  # ~ 2 * horizon at the tail

    def test_slow_power_family_passes_i(self):
        report = validate(agvim_flip(power_schedule(0.5, 0.0)), horizon=1000)
        assert report.condition_i.status == "pass"
        assert report.condition_ii.status == "pass"

    def test_nonvanishing_a_fails_i(self):
        sched = custom_schedule([[0.5, 0.25, 0.25, 1.0]] * 200)
        report = validate(agvim_flip(sched), horizon=200)
        assert report.condition_i.status == "fail"
        assert report.condition_ii.status == "unknown"

    def test_a_n_that_rises_on_the_tail_fails_i(self):
        # a_n = 1/n up to n = 14, then it rises: the tail n = 10..20 is not monotone
        a = [1.0 / n if n < 15 else 0.05 * n for n in range(1, 21)]
        sched = custom_schedule([[an, 0.0, 1.0 - an, 1.0] for an in a])
        row = validate(agvim_flip(sched), horizon=20).condition_i
        assert (row.status, row.value, row.at_n, row.detail) == (
            "fail", 0.75, 15, "a_n increases at n=15")

    # condition (ii) row of each family (status, detail) at horizon 100; the
    # value is the partial sum, and a table has no symbolic verdict
    SUM_A_ROWS = {
        "paper": (paper_schedule(), "pass", "harmonic family diverges; partial sum reported"),
        "power 0.5": (power_schedule(0.5, 0.3), "pass", "power family with s=0.5 <= 1 diverges"),
        "power 1": (power_schedule(1, 0.3), "pass", "power family with s=1.0 <= 1 diverges"),
        "power 2": (power_schedule(2.0, 0.3), "fail", "power family with s=2.0 > 1 converges"),
        "custom": (custom_schedule([[1.0 / n, 0.0, 1.0 - 1.0 / n, 1.0] for n in range(1, 101)]),
                   "unknown", "series not classified; partial sum at horizon = 5.18738"),
    }

    @pytest.mark.parametrize("family", SUM_A_ROWS, ids=list(SUM_A_ROWS))
    def test_condition_ii_row_of_each_family(self, family):
        sched, status, detail = self.SUM_A_ROWS[family]
        label, *row = validate(agvim_flip(sched), horizon=100).rows()[1]
        assert label == "condition (ii): sum a_n = inf"
        assert row == [status, math.fsum(sched.a(n) for n in range(1, 101)), 100, detail]

    def test_a_schedule_without_a_verdict_reads_unknown(self):
        # tagged "power" but built without power_schedule, so nothing decides (ii)
        s = power_schedule(2.0)
        sched = Schedule(a=s.a, b=s.b, c=s.c, k=s.k, family="power")
        row = validate(agvim_flip(sched), horizon=100).condition_ii
        assert row.status == "unknown"
        assert row.detail.startswith("series not classified")

    def test_custom_simplex_violation_names_n(self):
        rows = [[0.5, 0.25, 0.25, 1.0]] * 20
        rows[4] = [0.5, 0.3, 0.25, 1.0]  # n = 5 breaks the simplex
        report = validate(agvim_flip(custom_schedule(rows)), horizon=20)
        assert report.simplex.status == "fail"
        assert report.simplex.at_n == 5
        assert not report.passed

    @pytest.mark.parametrize("column", [0, 1, 2], ids=["a_n", "b_n", "c_n"])
    def test_a_nan_coefficient_fails_the_report(self, column):
        # a NaN passes every "value > tolerance" test, so each check must be
        # written to fail it
        rows = [[1.0 / n, 0.0, 1.0 - 1.0 / n, 1.0] for n in range(1, 41)]
        rows[24][column] = math.nan
        report = validate(agvim_flip(custom_schedule(rows)), horizon=40)
        assert (report.simplex.status, report.simplex.at_n) == ("fail", 25)
        assert math.isnan(report.simplex.value)
        assert not report.passed
        if column == 0:  # (i) and (iii) read a_n on the tail n = 20..40
            assert (report.condition_i.status, report.condition_i.detail) == (
                "fail", "a_n increases at n=25")
            assert report.condition_iii.status == "fail"
        wellposed = report.wellposed
        if column == 2:  # AGVIM's cT is c_n, so q_25 is NaN
            assert (wellposed.status, wellposed.at_n, wellposed.detail) == (
                "fail", 25, "q_n is nan first at n=25")
            assert math.isnan(wellposed.value)
        else:
            assert wellposed.status == "pass"

    def test_illposed_schedule_fails_wellposed(self):
        rows = [[0.1, 0.0, 0.9, 4.0]] * 20
        report = validate(agvim_flip(custom_schedule(rows)), horizon=20)
        assert report.wellposed.status == "fail"
        assert report.wellposed.at_n == 1
        assert report.wellposed.value >= 1.0

    def test_horizon_guard(self):
        with pytest.raises(InvalidInputError):
            validate(agvim_flip(paper_schedule()), horizon=5)

    def test_normal_structure_pass_for_unit_envelope(self):
        report = validate(agvim_flip(power_schedule(1.0, 0.0)), horizon=100)
        assert report.normal_structure_bound.status == "pass"


def overflowing_affine():
    """An affine map whose A^2 overflows: its off-diagonal is inf - inf."""
    return make_affine([[1e200, 1e200], [1e200, -1e200]], [0.0, 0.0])


class TestDeclaredEnvelopeValues:
    """Every reader takes a declared k_n the same way: a value that
    overflows a float is inf, and a NaN is an InvalidInputError naming n."""

    @pytest.mark.parametrize("side", ["schedule", "mapping", "schedule, overflowing A_p"])
    def test_nan_is_an_input_error_in_every_reader(self, side):
        # unchecked, a NaN makes q_n NaN on the schedule side, and max()
        # drops it on the mapping side; an A_p that overflows (its bound at
        # r = inf is then inf) must not hide the schedule's NaN
        nan = lambda n: math.nan
        cfg = SolverConfig(scheme=SCHEMES["AGVIM"], mapping=make_flip_map(),
                           schedule=paper_schedule(), x1=[0.5, 1.0],
                           contraction=make_scaling_contraction(0.5))
        if side == "mapping":
            cfg = replace(cfg, mapping=make_flip_map(envelope=nan))
        else:
            cfg = replace(cfg, schedule=replace(cfg.schedule, k=nan))
        n = 2
        if side == "schedule, overflowing A_p":
            cfg = replace(cfg, mapping=overflowing_affine(), norm=NormSpec(math.inf))
            n = 3
        with pytest.raises(InvalidInputError, match=f"NaN at n={n}"):
            cfg.step_values(n)
        with pytest.raises(InvalidInputError, match="NaN at n=1"):
            run(cfg)
        with pytest.raises(InvalidInputError, match="NaN at n=1"):
            validate(cfg, 20)

    def test_a_negative_value_is_an_input_error_in_every_reader(self):
        # k_p = -1 made q_2 = -0.25: step 2 accepted its first pass, with the
        # bound -0.68, 0.63 from the step's solution, and validate passed
        T = Mapping(apply=lambda u: 0.9 * u[::-1] + 1.0, envelope=lambda n: -1.0, domain_dim=2)
        cfg = SolverConfig(scheme=SCHEMES["VIM"], mapping=T,
                           schedule=replace(paper_schedule(), k=lambda n: -1.0),
                           x1=[3.0, -1.0], contraction=make_scaling_contraction(0.5))
        for call in (lambda: cfg.step_values(2), lambda: run(cfg), lambda: validate(cfg, 20),
                     lambda: verify_envelope(T, n_max=3, samples=10, seed=1)):
            with pytest.raises(InvalidInputError, match=r"k_n = -1 is negative at n=1$"):
                call()

    def test_overflow_is_inf_in_the_max_norm_bound(self):
        # at r = inf an affine map's k_p is max(schedule k_p, ||A_p||_inf);
        # the schedule's 10.0 ** 400 overflows a float
        cfg = SolverConfig(scheme=SCHEMES["AGVIM"],
                           mapping=make_affine(0.5 * np.eye(2), [0.0, 0.0]),
                           schedule=replace(paper_schedule(), k=lambda n: 10.0 ** n),
                           x1=[0.5, 1.0], contraction=make_scaling_contraction(0.5),
                           norm=NormSpec(math.inf))
        assert cfg.step_values(400)[-2:] == (math.inf, math.inf)
        # A_2 overflows to NaN entries, which read as inf too, and are no
        # RuntimeWarning
        cfg = replace(cfg, mapping=overflowing_affine(), schedule=paper_schedule())
        assert cfg.step_values(3)[-2:] == (math.inf, math.inf)
        with pytest.raises(IllPosedError, match="not a contraction at n=2") as err:
            run(cfg)
        assert err.value.q == math.inf
        assert validate(cfg, 50).wellposed.at_n == 2

    def test_step_without_operator_term_has_q_zero(self):
        # VIM with a_n = 1 has cT = 1 - a_n = 0, so the step is f(x_n)
        # whatever k_p is, and cT k_p / 2 would be 0 * inf = NaN
        cfg = SolverConfig(
            scheme=SCHEMES["VIM"],
            mapping=make_affine(0.5 * np.eye(2), [0.0, 0.0], envelope=lambda n: math.inf),
            schedule=custom_schedule([[1.0, 0.0, 0.0, 1.0]] * 20), x1=[1.0, 1.0],
            contraction=make_scaling_contraction(0.5), max_outer=3, tol_step=0.0,
        )
        trace = run(cfg)
        assert list(trace.q) == [0.0] * 3
        assert list(trace.k) == [math.inf] * 3
        report = validate(cfg, horizon=20)
        assert (report.wellposed.status, report.wellposed.value) == ("pass", 0.0)

    def test_a_negative_operator_coefficient_has_a_positive_q(self):
        # c_n = -0.4: q_n is the step map's Lipschitz constant |cT| k_p / 2
        cfg = SolverConfig(scheme=SCHEMES["GVIM"],
                           mapping=make_affine([[0.0, -0.99], [0.99, 0.0]], [0.0, 0.0]),
                           schedule=custom_schedule([[0.5, 0.9, -0.4, 1.0]] * 20), x1=[1.0, 2.0],
                           contraction=make_scaling_contraction(0.5))
        assert cfg.step_values(1)[-2:] == (1.0, 0.2)
        report = validate(cfg, horizon=20)
        assert (report.wellposed.status, report.wellposed.value) == ("pass", 0.2)


def counting(cfg):
    """``cfg`` with counting wrappers on ``Schedule.k`` and ``Mapping.envelope``,
    and the dict of their call counts."""
    calls = {"Schedule.k": 0, "Mapping.envelope": 0}

    def counted(name, f):
        def wrapped(n):
            calls[name] += 1
            return f(n)
        return wrapped

    return replace(cfg, schedule=replace(cfg.schedule, k=counted("Schedule.k", cfg.schedule.k)),
                   mapping=replace(cfg.mapping, envelope=counted("Mapping.envelope",
                                                                 cfg.mapping.envelope))), calls


class TestValidateReadsTheEnvelope:
    """validate reads the schedule's k and the mapping's envelope once per n,
    in every scheme and norm: its step table reads each once per n, k_1 and
    L_1 of the p = 1 schemes come from row 1, and condition (iii)'s 2-norm
    k_n from the same calls. An affine map at r != 2 is given envelope(p) by
    the table for its ``Mapping.lipschitz``."""

    @pytest.mark.parametrize("scheme, norm_p, per_n", [
        ("AGVIM", 2.0, 1), ("AVIM63", 2.0, 1), ("IMR", 2.0, 2), ("GVIM", 2.0, 2),
        ("AGVIM", 3.0, 2),
    ])
    def test_calls_per_n(self, scheme, norm_p, per_n):
        # per_n: what the same values cost per n read row by row, by
        # step_values(n) and, where k_p is not the 2-norm k_n, that k_n
        cfg, calls = counting(replace(agvim_flip(paper_schedule()), scheme=SCHEMES[scheme],
                                      norm=NormSpec(norm_p)))
        validate(cfg, horizon=100)
        assert calls == {"Schedule.k": 100, "Mapping.envelope": 100}
        calls.update({"Schedule.k": 0, "Mapping.envelope": 0})
        for n in range(1, 101):
            cfg.step_values(n)
            if not (cfg.scheme.use_power and norm_p == 2.0):
                max(_declared_k(cfg.schedule.k, n), cfg.mapping.lipschitz(n))
        assert calls == {"Schedule.k": 100 * per_n, "Mapping.envelope": 100 * per_n}

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("norm_p", [2.0, 3.0, math.inf])
    @pytest.mark.parametrize("mapping", [make_flip_map(envelope=lambda n: 1.0),
                                         make_affine([[0.5, 2.0], [0.0, 0.5]], [0.0, 0.0])],
                             ids=["flip", "affine"])
    def test_once_per_n_in_every_scheme_and_norm(self, scheme, norm_p, mapping):
        cfg, calls = counting(replace(agvim_flip(paper_schedule()), scheme=SCHEMES[scheme],
                                      mapping=mapping, norm=NormSpec(norm_p)))
        validate(cfg, horizon=100)
        assert calls == {"Schedule.k": 100, "Mapping.envelope": 100}


class TestStepTable:
    """``step_table(H)`` reads the sequences row by row, so the first row that
    raises is the error, named by its n, as a loop of ``step_values(n)``
    gives it; an envelope that overflows reads inf from there on."""

    @staticmethod
    def table_cfg(scheme, rows):
        return replace(agvim_flip(custom_schedule(rows)), scheme=SCHEMES[scheme])

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_the_first_failing_row_wins(self, scheme):
        rows = [[1.0 / n, 0.0, 1.0 - 1.0 / n, 1.0] for n in range(1, 41)]
        rows[6][3] = math.nan  # k_7; the table ends at n = 40
        cfg = self.table_cfg(scheme, rows)
        for call in (lambda: cfg.step_table(60), lambda: validate(cfg, 60)):
            with pytest.raises(InvalidInputError, match=r"k_n is NaN at n=7$"):
                call()

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_a_short_custom_table_names_the_requested_n(self, scheme):
        cfg = self.table_cfg(scheme, [[0.5, 0.25, 0.25, 1.0]] * 30)
        with pytest.raises(InvalidInputError, match=r"\[1, 30\], requested n=31$"):
            cfg.step_table(40)
        with pytest.raises(InvalidInputError, match=r"\[1, 30\], requested n=31$"):
            cfg.step_values(31)

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_an_empty_horizon_is_refused(self, horizon):
        cfg = replace(agvim_flip(paper_schedule()), scheme=SCHEMES["IMR"])
        with pytest.raises(InvalidInputError, match=f"horizon >= 1, got {horizon}"):
            cfg.step_table(horizon)

    @pytest.mark.parametrize("scheme", ["AGVIM", "IMR"])
    @pytest.mark.parametrize("norm_p", [2.0, 3.0])
    def test_an_overflowing_envelope_reads_inf(self, scheme, norm_p):
        # 1.9 ** n raises OverflowError from n = 1106 on; no RuntimeWarning
        # either (the suite makes one an error)
        cfg = replace(agvim_flip(paper_schedule()), scheme=SCHEMES[scheme], norm=NormSpec(norm_p),
                      mapping=make_flip_map(envelope=lambda n: 1.9 ** n))
        values, k = cfg.step_table(1200)
        assert np.isfinite(k[:1105]).all() and (k[1105:] == math.inf).all()
        for n in (1, 1105, 1106, 1200):
            assert tuple(col[n - 1] for col in values) == cfg.step_values(n)
        assert (values.k[1105:] == math.inf).all() == SCHEMES[scheme].use_power


class TestValidateAgreesWithRun:
    """validate reads the q_n that run checks: mapping, scheme and norm."""

    @staticmethod
    def diag_cfg(scheme, x1, steps):
        return SolverConfig(
            scheme=SCHEMES[scheme], mapping=make_affine(np.diag([1.9, 0.1]), [0.0, 0.0]),
            schedule=paper_schedule(), x1=x1, contraction=make_scaling_contraction(0.5),
            max_outer=steps, tol_step=0.0,
        )

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_wellposed_fails_where_run_stops(self, scheme):
        # the default envelope 1.9^p of A dominates the schedule's k_p, so
        # the power schemes stop at n = 3 and the others run 50 steps; x1
        # has no e1 part, so no iterate grows along A's expanding axis
        cfg = self.diag_cfg(scheme, [0.0, 1.0], 50)
        report = validate(cfg, horizon=50)
        if SCHEMES[scheme].use_power:
            with pytest.raises(IllPosedError, match="not a contraction") as err:
                run(cfg)
            assert report.wellposed.status == "fail"
            assert (report.wellposed.at_n, report.wellposed.value) == (3, err.value.q)
            assert err.value.n == 3
        else:
            trace = run(cfg)
            assert len(trace) == 50
            assert report.wellposed.status == "pass"
            assert report.wellposed.value == max(trace.q)

    def test_q_n_first_reaching_one_at_the_horizon(self):
        # the declared k_11 = 3 makes q_11 = 1.25, the first q_n >= 1: a
        # horizon of 10 is well posed and runs, one of 11 is neither
        cfg = SolverConfig(
            scheme=SCHEMES["AGVIM"],
            mapping=make_affine(0.5 * np.eye(2), [0.0, 0.0],
                                envelope=lambda n: 3.0 if n == 11 else 1.0),
            schedule=paper_schedule(), x1=[1.0, 2.0], contraction=make_scaling_contraction(0.5),
            tol_step=0.0,
        )
        report = validate(cfg, horizon=10)
        assert report.wellposed.status == "pass" and report.wellposed.at_n == 10
        trace = run(replace(cfg, max_outer=10))
        assert len(trace) == 10 and report.wellposed.value == max(trace.q)
        report = validate(cfg, horizon=11)
        assert (report.wellposed.status, report.wellposed.at_n) == ("fail", 11)
        with pytest.raises(IllPosedError, match="not a contraction") as err:
            run(replace(cfg, max_outer=11))
        assert (err.value.n, err.value.q) == (11, report.wellposed.value) == (11, 1.25)

    @pytest.mark.xfail(raises=IllPosedError, strict=True,
                       reason="tol_inner is absolute (ROADMAP item 2): once the iterates "
                              "grow, rounding in the step exceeds it and the pair check fails")
    @pytest.mark.parametrize("scheme", ["VIM", "GVIM"])
    def test_growing_iterates_run_to_the_budget(self, scheme):
        # q_n < 1 on every step, but the e1 part of x1 grows like 19^n
        cfg = self.diag_cfg(scheme, [1.0, 1.0], 50)
        assert validate(cfg, horizon=50).wellposed.status == "pass"
        assert len(run(cfg)) == 50

    def test_only_wellposedness_reads_the_run_norm(self):
        # k_n for conditions (iii) and the normal-structure bound is the
        # declared 2-norm envelope; the run's max norm enters through q_n
        c = s = np.sqrt(0.5)
        rotation = make_affine([[c, -s], [s, c]], [0.0, 0.0], envelope=lambda n: 1.0)
        for mapping in (rotation, make_flip_map()):
            cfg = SolverConfig(scheme=SCHEMES["AGVIM"], mapping=mapping,
                               schedule=paper_schedule(), x1=[1.0, 0.3],
                               contraction=make_scaling_contraction(0.5), norm=NormSpec(math.inf))
            report = validate(cfg, horizon=1000)
            assert report.passed
            assert report.condition_iii.status == "pass"
            assert report.normal_structure_bound.value == 1.5
            assert report.wellposed.value == max(cfg.step_values(n).q
                                                 for n in range(1, 1001))
