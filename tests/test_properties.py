"""Property-based checks (Hypothesis) of the implicit step on affine maps,
of validate's well-posedness verdict, of the config round-trip, of the
CSV writers, of the default affine envelope, of the step values that
validate and run share, of the CLI's outcome in any scheme order, of
an affine map's Lipschitz bound in a p-norm, and of the step table.

The profile is fixed (``derandomize=True``, a set ``max_examples``, no
example database), so every run draws the same examples.
"""

import contextlib
import copy
import io
import json
import math
import sys
import tempfile
from decimal import Decimal, localcontext
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from midpointfp import _csv_writer, cli
from midpointfp.config import parse_config
from midpointfp.errors import ConfigError, IllPosedError, MidpointError
from midpointfp.mappings import _declared_k, make_affine, make_flip_map, make_scaling_contraction
from midpointfp.schedules import custom_schedule, paper_schedule, power_schedule, validate
from midpointfp.solver import SCHEMES, SolverConfig, implicit_step, run
from midpointfp.space import NormSpec, norm

from affine_oracle import implicit_step_affine_oracle

FIXED = settings(derandomize=True, database=None, deadline=None)

# -- (a), (b) steps on affine maps with an honest envelope ------------------

EPS = np.finfo(float).eps
# NormSpec refuses p = 1, which ROADMAP's list of norms also names
NORMS = [1.5, 2.0, 3.0, math.inf]
# the implicit step and its oracle agree to tol_inner plus this many p eps
# per unit of the step's size (below); the largest seen was 0.32
ALLOWANCE = 16

SCHEDULES = st.one_of(
    st.just(paper_schedule()),
    st.builds(power_schedule, st.floats(0.25, 2.0), st.floats(0.0, 0.9)))
CONTRACTIONS = st.one_of(
    st.just(make_scaling_contraction(0.5)),
    st.builds(make_scaling_contraction, st.floats(-0.9, 0.9)))


def affine_matrix(draw, d, largest):
    """A d x d matrix with ||A||_2 drawn from [0, largest]."""
    A = draw(arrays(np.float64, (d, d), elements=st.floats(-1.0, 1.0, allow_subnormal=False)))
    size = np.linalg.norm(A, 2)
    return A * (draw(st.floats(0.0, largest)) / size) if size > 0.0 else A


@st.composite
def affine_problems(draw):
    """A SolverConfig on u -> A u + b with ||A||_2 <= 1, declared as k_n = 1
    (honest for every power), for n = max_outer <= 30 steps, and a point."""
    d = draw(st.integers(1, 4))
    A = affine_matrix(draw, d, 1.0)
    point = arrays(np.float64, d, elements=st.floats(-1e6, 1e6, allow_subnormal=False))
    schedule, contraction = draw(SCHEDULES), draw(CONTRACTIONS)
    cfg = SolverConfig(
        scheme=SCHEMES[draw(st.sampled_from(sorted(SCHEMES)))],
        mapping=make_affine(A, draw(point), envelope=lambda n: 1.0),
        schedule=schedule, x1=draw(point), contraction=contraction,
        norm=NormSpec(draw(st.sampled_from(NORMS))), max_outer=draw(st.integers(1, 30)),
        tol_step=0.0,
    )
    return cfg, draw(point)


@settings(FIXED, max_examples=150)
@given(affine_problems())
def test_a_step_is_a_typed_error_or_the_oracle_step(problem):
    # (a) at n = max_outer. The oracle solves by LU with A_p by binary
    # powering; the rounding of either side scales with the power p, with
    # the sizes of the vectors involved and with 1 / (1 - q_n)
    cfg, x_n = problem
    n = cfg.max_outer
    try:
        step = implicit_step(cfg, n, x_n)
    except MidpointError:
        return
    affine = cfg.mapping.affine
    want = implicit_step_affine_oracle(affine.A, affine.b, cfg, n, x_n)
    row = cfg.step_values(n)
    size = sum(norm(v, cfg.norm) for v in (x_n, want, affine.pair(row.p)[1], step.x))
    allowance = ALLOWANCE * row.p * EPS * size / (1.0 - row.q)
    assert norm(step.x - want, cfg.norm) <= cfg.tol_inner + allowance


def test_no_step_of_an_honest_run_diverges():
    # (b) on every step of a run from x1. The runs are checked after
    # Hypothesis has made them all, so a failure lists every run that
    # diverged, without a shrinking pass. A counterexample of item 2's
    # absolute tol_inner is pinned in test_solver.py
    diverged = []

    @settings(FIXED, max_examples=80)
    @given(affine_problems())
    def honest_run(problem):
        try:
            run(problem[0])
        except IllPosedError as exc:
            if "diverges" in str(exc):
                diverged.append((problem[0], exc))
        except MidpointError:
            pass

    honest_run()
    assert not diverged, f"{len(diverged)} run(s) diverged, first: {diverged[0]}"


# -- (c) a horizon validate calls well posed has no step with q_n >= 1 -------

@st.composite
def validated_problems(draw):
    """A SolverConfig on u -> A u + b with ||A||_2 <= 1.5, under its default
    envelope or declared as k_n = 1, whose max_outer is the horizon H >= 10
    of validate; a custom schedule is a table of H rows, a_n possibly 0."""
    d = draw(st.integers(1, 4))
    A = affine_matrix(draw, d, 1.5)
    point = arrays(np.float64, d, elements=st.floats(-1e6, 1e6, allow_subnormal=False))
    horizon = draw(st.integers(10, 20))
    row = st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), st.floats(0.0, 1.0),
                    st.floats(0.0, 1.0), st.floats(1.0, 3.0))
    table = st.lists(row, min_size=horizon, max_size=horizon).map(custom_schedule)
    envelope = draw(st.sampled_from([None, lambda n: 1.0]))
    return SolverConfig(
        scheme=SCHEMES[draw(st.sampled_from(sorted(SCHEMES)))],
        mapping=make_affine(A, draw(point), envelope=envelope),
        schedule=draw(st.one_of(SCHEDULES, table)), x1=draw(point),
        contraction=draw(CONTRACTIONS), norm=NormSpec(draw(st.sampled_from(NORMS))),
        max_outer=horizon, tol_step=0.0,
    )


@settings(FIXED, max_examples=60)
@given(validated_problems())
def test_a_well_posed_horizon_runs_without_q_n_at_least_one(cfg):
    if not validate(cfg, cfg.max_outer).wellposed.ok:
        return
    try:
        run(cfg)
    except IllPosedError as exc:
        assert "not a contraction" not in str(exc), exc
    except MidpointError:
        pass


# -- (d) parse_config(cfg.to_dict()) == cfg ----------------------------------

# JSON has no NaN or infinity, so a config's numbers are finite
number = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.integers(-10**20, 10**20))
integral = st.one_of(st.integers(-10**6, 10**6),
                     st.integers(-10**6, 10**6).map(float))


def vector(size):
    return st.lists(number, min_size=size, max_size=size)


@st.composite
def matrix(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    return draw(st.lists(vector(cols), min_size=rows, max_size=rows))


def section(variant_key, variant, required=None, optional=None):
    return st.fixed_dictionaries({variant_key: st.just(variant), **(required or {})},
                                 optional=optional or {})


envelope = {"envelope": st.sampled_from([None, "auto", "unit"])}
mappings = st.one_of(
    section("kind", "flip", optional=envelope),
    section("kind", "affine", {"A": matrix(), "b": st.integers(1, 4).flatmap(vector)}, envelope),
)
contractions = st.one_of(
    st.none(),
    section("kind", "half"),
    section("kind", "scale", {"factor": number}),
    section("kind", "affine", {"A": matrix(), "b": st.integers(1, 4).flatmap(vector)}),
)
schedules = st.one_of(
    section("family", "paper"),
    section("family", "power", optional={"s": number, "b_const": number}),
    section("family", "custom", {"table": matrix()}),
)
# scheme_by_name strips and upper-cases a name; a list names each scheme once
scheme_names = st.sampled_from(sorted(SCHEMES)).flatmap(
    lambda name: st.sampled_from([name, name.lower(), f" {name} "]))
SETTINGS = {"norm_p": number, "tol_step": number, "tol_inner": number,
            "max_outer": integral, "max_inner": integral}
configs = st.fixed_dictionaries(
    {"mapping": mappings, "schedule": schedules,
     "scheme": st.one_of(scheme_names, st.lists(scheme_names, min_size=1, max_size=5,
                                                unique_by=lambda name: name.strip().upper())),
     "x1": st.integers(1, 4).flatmap(vector)},
    optional={"contraction": contractions, **SETTINGS},
)


@settings(FIXED, max_examples=50)
@given(configs)
def test_config_round_trips(data):
    cfg = parse_config(data)
    assert parse_config(cfg.to_dict()) == cfg
    assert parse_config(json.loads(cfg.to_json())) == cfg


# one malformed value for each key that parse_config checks
BAD_NUMBER = ["1", True, None, [1.0], {"a": 1}, 10**400]
BAD_INTEGER = [1.5, "3", True, None, math.inf, [1]]
BAD_ARRAY = [[], "x", 3.0, [True], [math.nan], [1.0, "2"], [10**400]]
BAD_MATRIX = [[], [[]], "x", [1.0], [[1.0], [1.0, 2.0]], [[True]], [[math.inf]]]
BAD_SECTION = [5, [], "flip"]
BAD_VALUES = {
    "kind": ["nope", 3, None, "contraction_half"], "family": ["nope", 3, None],
    "A": BAD_MATRIX, "b": BAD_ARRAY, "table": BAD_MATRIX, "envelope": ["exact", 1, True],
    "factor": BAD_NUMBER, "s": BAD_NUMBER, "b_const": BAD_NUMBER,
    "mapping": BAD_SECTION, "schedule": BAD_SECTION, "contraction": BAD_SECTION,
    "scheme": [[], "NOPE", [1], 5, None, ["VIM", "X"], ["VIM", "vim"]], "x1": BAD_ARRAY,
    **{key: BAD_NUMBER for key in ("norm_p", "tol_step", "tol_inner")},
    **{key: BAD_INTEGER for key in ("max_outer", "max_inner")},
}
SECTION_KEYS = {"flip": ["envelope"], "affine": ["A", "b", "envelope"], "scale": ["factor"],
                "paper": [], "power": ["s", "b_const"], "custom": ["table"], "half": []}


@settings(FIXED, max_examples=50)
@given(configs, st.data())
def test_a_malformed_value_names_its_key(data, draw):
    data = copy.deepcopy(data)
    # a key of the top level or of a section the config has, set or not
    places = [(data, key) for key in ("mapping", "contraction", "schedule", "scheme", "x1",
                                      *SETTINGS)]
    for name in ("mapping", "contraction", "schedule"):
        spec = data.get(name)
        if spec is not None:
            variant_key = "family" if name == "schedule" else "kind"
            places += [(spec, key) for key in (variant_key, *SECTION_KEYS[spec[variant_key]])]
    where, key = draw.draw(st.sampled_from(places))
    where[key] = draw.draw(st.sampled_from(BAD_VALUES[key]))
    with pytest.raises(ConfigError) as err:
        parse_config(data)
    assert err.value.key == key


# -- (e) the column writer, cell by cell, and the helper agree --------------

cells = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
     1.7976931348623157e308, 0.1, 1.0 / 3.0]))


@st.composite
def columns(draw):
    """1 to 4 columns of 0 to 100 cells each (the helper reads 64 rows at a time)."""
    return [draw(arrays(np.float64, draw(st.integers(0, 100)), elements=cells))
            for _ in range(draw(st.integers(1, 4)))]


@settings(FIXED, max_examples=30)
@given(columns())
def test_the_writers_agree_and_round_trip_bit_for_bit(cols):
    header = [f"c{i}" for i in range(len(cols))]
    # the reference, cell by cell: n, then each cell as format(v, ".17g"),
    # and an empty cell past the end of a column
    rows = [[str(n), *(format(c[n - 1], ".17g") if n <= len(c) else "" for c in cols)]
            for n in range(1, max(map(len, cols)) + 1)]
    lines = [",".join(cells) + "\n" for cells in [["n", *header], *rows]]
    # the helper is sent the rows on which every column is live, n first
    common = min(map(len, cols))
    table = np.column_stack((np.arange(1, common + 1, dtype=float), *(c[:common] for c in cols)))
    with tempfile.TemporaryDirectory() as tmp:
        serial, helper = Path(tmp, "serial.csv"), Path(tmp, "helper.csv")
        cli._write_columns(serial, header, cols)
        stdin = SimpleNamespace(buffer=io.BytesIO(table.tobytes()))
        with mock.patch.object(sys, "stdin", stdin):
            _csv_writer.main(str(helper), str(table.shape[1]), cli._header_line(header),
                             cli._row_format(table.shape[1]))
        assert serial.read_bytes() == "".join(lines).encode()
        assert helper.read_bytes() == "".join(lines[:common + 1]).encode()
    for n, cells in enumerate(rows, start=1):
        for text, c in zip(cells[1:], cols):
            if n > len(c):
                assert text == ""
            elif math.isfinite(c[n - 1]):
                assert float(text).hex() == c[n - 1].hex()
            else:
                assert text in ("nan", "inf", "-inf")


# -- (f) the default affine envelope bounds every power ---------------------

# the maps' entries are multiples of 1/SCALE, so A and A^n are exact rationals
SCALE = 1024


@st.composite
def shrinking_non_normal_maps(draw):
    """Integer matrices M, A = M / SCALE upper triangular with |a_ii| < 1 and a
    non-zero strict upper part: non-normal, with powers that shrink in the
    end. Every square matrix is unitarily similar to a triangular one
    (Schur), and the 2-norm is unitarily invariant."""
    d = draw(st.integers(2, 4))
    M = np.diag(draw(arrays(np.int64, d, elements=st.integers(1 - SCALE, SCALE - 1))))
    upper = draw(arrays(np.int64, (d, d), elements=st.integers(-3 * SCALE, 3 * SCALE)))
    assume(np.triu(upper, 1).any())
    return M + np.triu(upper, 1)


@settings(FIXED, max_examples=100)
@given(shrinking_non_normal_maps())
def test_the_default_affine_envelope_bounds_each_power(M):
    # the reference ||A^n||_2 is the SVD 2-norm of A^n formed exactly in
    # integers and rounded once per entry; it is within the SVD's own
    # rounding, d eps relatively, of the exact value
    d = len(M)
    T = make_affine(M / SCALE, np.zeros(d))
    rows = [[int(v) for v in row] for row in M]
    power = rows
    for n in range(1, 51):
        if n > 1:
            power = [[sum(power[i][m] * rows[m][j] for m in range(d)) for j in range(d)]
                     for i in range(d)]
        exact = float(np.linalg.norm([[v / SCALE ** n for v in row] for row in power], 2))
        assert T.envelope(n) >= exact * (1.0 - d * EPS), n


# -- (g) validate and run read the same step values -------------------------

@st.composite
def shared_row_problems(draw):
    """A SolverConfig whose horizon H is max_outer: the flip map, or an affine
    map with ||A||_2 <= 1, both under their default envelopes, so that no
    step diverges. A custom table's rows may have c_n < 0 and k_n up to 3."""
    horizon = draw(st.integers(10, 20))
    row = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-1.0, 1.0),
                    st.floats(1.0, 3.0))
    table = st.lists(row, min_size=horizon, max_size=horizon).map(custom_schedule)
    if draw(st.booleans()):
        mapping, d = make_flip_map(), 2
    else:
        d = draw(st.integers(1, 4))
        b = draw(arrays(np.float64, d, elements=st.floats(-1.0, 1.0)))
        mapping = make_affine(affine_matrix(draw, d, 1.0), b)
    return SolverConfig(
        scheme=SCHEMES[draw(st.sampled_from(sorted(SCHEMES)))], mapping=mapping,
        schedule=draw(st.one_of(SCHEDULES, table)),
        x1=draw(arrays(np.float64, d, elements=st.floats(-10.0, 10.0))),
        contraction=draw(CONTRACTIONS), norm=NormSpec(draw(st.sampled_from([2.0, 3.0, math.inf]))),
        max_outer=horizon, tol_step=0.0,
    )


@settings(FIXED, max_examples=150)
@given(shared_row_problems())
def test_validate_and_run_read_the_same_q_n(cfg):
    # run's q_n of each step it solves, or of the step it refuses
    try:
        trace = run(cfg)
    except IllPosedError as err:
        assert "not a contraction" in str(err)
        wellposed = validate(cfg, cfg.max_outer).wellposed
        assert (wellposed.status, wellposed.at_n, wellposed.value) == ("fail", err.n, err.q)
        return
    # a run whose steps stand still stops early: validate its steps
    assume(len(trace) >= 10)
    wellposed = validate(cfg, len(trace)).wellposed
    q = trace.q.tolist()
    assert (wellposed.status, wellposed.value) == ("pass", max(q))
    assert wellposed.at_n == q.index(max(q)) + 1


# -- (h) the order of a config's schemes does not change a command's outcome

# every scheme runs its 2 steps (none stands still), so run exits 2 whichever
# scheme comes first, and compare exits 0
ORDER_BASE = {"mapping": {"kind": "flip"}, "schedule": {"family": "paper"}, "x1": [0.5, 1.0],
              "max_outer": 2, "tol_step": 0.0}


def cli_outcome(command, data):
    """The exit code and first stderr line of ``command`` on the config ``data``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "config.json")
        path.write_text(json.dumps(data))
        flags = ["--horizon", "10"] if command == "validate-schedule" else ["--out", tmp]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(path), *flags])
    return code, err.getvalue().partition("\n")[0]


@settings(FIXED, max_examples=40)
@given(st.lists(st.sampled_from(sorted(SCHEMES)), min_size=2, max_size=5, unique=True)
       .flatmap(st.permutations), st.booleans())
def test_the_scheme_order_does_not_change_a_commands_outcome(schemes, anchor):
    data = {**ORDER_BASE, **({"contraction": {"kind": "half"}} if anchor else {})}
    for command in ("run", "compare", "validate-schedule"):
        assert (cli_outcome(command, {**data, "scheme": schemes})
                == cli_outcome(command, {**data, "scheme": sorted(schemes)})), command


# -- (i) an affine map's Lipschitz bound holds in the run's norm -----------

@st.composite
def powers_and_points(draw):
    """An affine map on R^d, entries on a grid of 1/1000, declared with the
    envelope inf, so that at r != 2 its L_p is the Riesz-Thorin bound alone,
    a power p whose matrix A_p is not 0, and 10 non-zero points."""
    d = draw(st.integers(1, 5))
    grid = partial(arrays, np.int64, elements=st.integers(-2000, 2000))
    T = make_affine(draw(grid((d, d))) / 1000, np.zeros(d), envelope=lambda n: math.inf)
    p = draw(st.integers(1, 8))
    assume(T.affine.pair(p)[0].any())
    U = draw(grid((10, d))) / 1000
    assume(U.any(axis=1).all())
    return T, p, U


def exact_norm(v, r: Decimal) -> Decimal:
    """The r-norm of the Decimal vector v, to 60 digits."""
    return sum(abs(x) ** r for x in v) ** (1 / r)


# a diagonal map's norm is its largest |entry| in every r-norm, attained at a
# unit vector, which is also its Riesz-Thorin bound
DIAGONAL = (make_affine(np.diag([0.3, -0.9, 0.5]), np.zeros(3), envelope=lambda n: math.inf),
            7, np.eye(3))


@settings(FIXED, max_examples=60)
@given(powers_and_points(), st.sampled_from([1.25, 1.5, 3.0, 8.0]))
@example(DIAGONAL, 1.25)
@example(DIAGONAL, 8.0)
def test_the_lipschitz_bound_of_an_affine_power_holds_in_the_run_norm(problem, r):
    # the ratio ||A_p u||_r / ||u||_r of the power the map applies, worked
    # out in 60-digit decimals from its float entries
    T, p, U = problem
    bound = T.lipschitz(p, r)
    assert math.isfinite(bound)
    Ap = [[Decimal(a) for a in row] for row in T.affine.pair(p)[0].tolist()]
    with localcontext() as ctx:
        ctx.prec = 60
        for u in U.tolist():
            u = [Decimal(x) for x in u]
            image = [sum(a * x for a, x in zip(row, u)) for row in Ap]
            assert Decimal(bound) >= exact_norm(image, Decimal(r)) / exact_norm(u, Decimal(r))


# -- (j) row n of the step table is step_values(n), bit for bit --------------

TABLE_MAPPINGS = {
    "flip": make_flip_map,
    "diag(1.9, 0.1)": lambda: make_affine(np.diag([1.9, 0.1]), [0.0, 0.0]),
    "non-normal": lambda: make_affine([[0.5, 2.0], [0.0, 0.5]], [0.0, 0.0]),
}


@st.composite
def table_problems(draw):
    """A SolverConfig of any scheme, norm_p 2, 3 or inf, schedule (`paper`,
    `power` s = 0.5 or 2, or a custom table whose a_n, c_n may be 0 and k_n
    inf) and mapping of TABLE_MAPPINGS, and a horizon H."""
    horizon = draw(st.integers(1, 50))
    row = st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), st.floats(0.0, 1.0),
                    st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
                    st.one_of(st.just(math.inf), st.floats(1.0, 3.0)))
    table = st.lists(row, min_size=horizon, max_size=horizon).map(custom_schedule)
    return SolverConfig(
        scheme=SCHEMES[draw(st.sampled_from(sorted(SCHEMES)))],
        mapping=TABLE_MAPPINGS[draw(st.sampled_from(sorted(TABLE_MAPPINGS)))](),
        schedule=draw(st.one_of(st.just(paper_schedule()), st.just(power_schedule(0.5)),
                                st.just(power_schedule(2.0)), table)),
        x1=[0.5, 1.0], contraction=make_scaling_contraction(0.5),
        norm=NormSpec(draw(st.sampled_from([2.0, 3.0, math.inf]))),
    ), horizon


def bits(values) -> list:
    """The float64 bytes of each value."""
    return [np.float64(v).tobytes() for v in values]


@settings(FIXED, max_examples=150)
@given(table_problems())
def test_row_n_of_the_step_table_is_step_n(problem):
    cfg, horizon = problem
    values, k_2 = cfg.step_table(horizon)
    assert all(len(column) == horizon for column in values) and len(k_2) == horizon
    assert (values.q[values.cT == 0.0] == 0.0).all()  # also where k_p is inf
    for n in range(1, horizon + 1):
        assert bits(column[n - 1] for column in values) == bits(cfg.step_values(n)), n
        k_n = max(_declared_k(cfg.schedule.k, n), cfg.mapping.lipschitz(n))
        assert bits([k_2[n - 1]]) == bits([k_n]), n
