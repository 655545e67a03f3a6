"""Property-based checks (Hypothesis) of the config round-trip and of the
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
from midpointfp.errors import ConfigError
from midpointfp.solver import SCHEMES

FIXED = settings(derandomize=True, database=None, deadline=None)

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
    optional={"contraction": contractions, **SETTINGS,
              "out": st.one_of(st.none(), st.text(max_size=8))},
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
    "out": [5, ["a"], {"a": 1}, True],
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
                                      *SETTINGS, "out")]
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
