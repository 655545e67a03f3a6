"""Property-based checks (Hypothesis) of the implicit step on affine maps,
of validate's well-posedness verdict, of the config round-trip and of the
two trace.csv writers.

The profile is fixed (``derandomize=True``, a set ``max_examples``, no
example database), so every run draws the same examples.
"""

import copy
import io
import json
import math
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from midpointfp import _csv_writer, cli
from midpointfp.config import parse_config
from midpointfp.errors import ConfigError, IllPosedError, MidpointError
from midpointfp.mappings import make_affine, make_scaling_contraction
from midpointfp.schedules import custom_schedule, paper_schedule, power_schedule, validate
from midpointfp.solver import (
    SCHEMES, SolverConfig, implicit_step, implicit_step_affine_oracle, run,
)
from midpointfp.space import NormSpec, norm

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
    want = implicit_step_affine_oracle(affine.A, affine.b, cfg.scheme, cfg.schedule, n, x_n,
                                       contraction=cfg.contraction)
    p = cfg.scheme.power(n)
    size = sum(norm(v, cfg.norm) for v in (x_n, want, affine.pair(p)[1], step.x))
    allowance = ALLOWANCE * p * EPS * size / (1.0 - step.q)
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


# -- (e) the serial writer and the helper write the same bytes ---------------

cells = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
     1.7976931348623157e308, 0.1, 1.0 / 3.0]))


@st.composite
def columns(draw):
    """A 2-d x column and a 1-d one, 1 to 100 rows (the helper reads 64 at a time)."""
    rows, dim = draw(st.integers(1, 100)), draw(st.integers(1, 3))
    return (draw(arrays(np.float64, (rows, dim), elements=cells)),
            draw(arrays(np.float64, rows, elements=cells)))


@settings(FIXED, max_examples=30)
@given(columns())
def test_the_writers_agree_and_round_trip_bit_for_bit(cols):
    header = [f"x{i}" for i in range(cols[0].shape[1])] + ["v"]
    table = cli._table(cols)  # the rows the helper is sent, n first
    width = table.shape[1]
    with tempfile.TemporaryDirectory() as tmp:
        serial, helper = Path(tmp, "serial.csv"), Path(tmp, "helper.csv")
        cli._write_csv(serial, header, cols)
        stdin = SimpleNamespace(buffer=io.BytesIO(table.tobytes()))
        with mock.patch.object(sys, "stdin", stdin):
            _csv_writer.main(str(helper), str(width), cli._header_line(header),
                             cli._row_format(width))
        written = serial.read_bytes()
        assert helper.read_bytes() == written
    lines = written.decode().splitlines()
    assert lines[0] == ",".join(["n", *header]) and len(lines) == len(table) + 1
    for line, row in zip(lines[1:], table.tolist()):
        for text, value in zip(line.split(","), row):
            if math.isfinite(value):
                assert float(text).hex() == value.hex()
            else:
                assert text in ("nan", "inf", "-inf")
