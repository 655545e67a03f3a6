"""JSON experiment configuration: strict parsing, a round-trip that parses
back to an equal config, and builders for the solver objects.

Schema (unknown keys are rejected at every level; ``_SECTIONS`` declares
each section's variants, their keys and their builders)::

    {
      "mapping":     {"kind": ..., <the kind's keys>},
      "contraction": {"kind": ..., <the kind's keys>},     # optional
      "schedule":    {"family": ..., <the family's keys>},
      "scheme":      "AGVIM" or ["VIM", "GVIM", ...],   # no name twice
      "x1":          [..],
      "norm_p":      p,            # optional solver settings: a key left
      "tol_step":    tol,          # out takes SolverConfig's default, and
      "tol_inner":   tol,          # norm_p becomes norm=NormSpec(p)
      "max_outer":   count,
      "max_inner":   count
    }
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .errors import ConfigError, InvalidInputError, MidpointError
from .mappings import (
    Contraction,
    Mapping,
    make_affine,
    make_affine_contraction,
    make_flip_map,
    make_scaling_contraction,
)
from .schedules import Schedule, custom_schedule, paper_schedule, power_schedule
from .solver import SolverConfig, scheme_by_name
from .space import NormSpec

__all__ = ["ExperimentConfig", "load_config", "parse_config"]

# a mapping's "envelope" names: the map's own default, or k_n = 1
_ENVELOPES = {"auto": None, "unit": lambda n: 1.0}

# section: (the key naming its variant, {variant: ({key: required}, builder)}).
# A builder takes the section's dict; its factory is a module global, read
# when the builder runs, so that a replaced factory takes effect.
_SECTIONS = {
    "mapping": ("kind", {
        "flip": ({"envelope": False},
                 lambda s: make_flip_map(envelope=_ENVELOPES.get(s.get("envelope")))),
        "affine": ({"A": True, "b": True, "envelope": False},
                   lambda s: make_affine(s["A"], s["b"],
                                         envelope=_ENVELOPES.get(s.get("envelope")))),
    }),
    "contraction": ("kind", {
        "half": ({}, lambda s: make_scaling_contraction(0.5)),
        "scale": ({"factor": True}, lambda s: make_scaling_contraction(float(s["factor"]))),
        "affine": ({"A": True, "b": True}, lambda s: make_affine_contraction(s["A"], s["b"])),
    }),
    "schedule": ("family", {
        "paper": ({}, lambda s: paper_schedule()),
        "power": ({"s": False, "b_const": False},
                  lambda s: power_schedule(float(s.get("s", 1.0)), float(s.get("b_const", 0.0)))),
        "custom": ({"table": True}, lambda s: custom_schedule(s["table"])),
    }),
}


def _check_keys(section: str, data: dict, allowed: set):
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {section}", key=key)


def _require(section: str, data: dict, key: str):
    if key not in data:
        raise ConfigError(f"missing required key {key!r} in {section}", key=key)
    return data[key]


def _bad(key: str, value, expected: str):
    return ConfigError(f"bad value for {key!r}: expected {expected}, got {value!r}", key=key)


def _number(key: str, value) -> float:
    """A JSON number (not a boolean) as float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _bad(key, value, "a number")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise _bad(key, value, "a number in the float range") from None


def _integer(key: str, value) -> int:
    """A JSON number with an integral value (not a boolean) as int."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise _bad(key, value, "an integer")
    return int(value)


def _numbers(key: str, value, depth: int = 1) -> list:
    """A non-empty array of finite numbers (depth 1), or of equally long
    such arrays (depth 2), as floats."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"bad value for {key!r}: expected a non-empty array", key=key)
    if depth == 2:
        rows = [_numbers(key, row) for row in value]
        if len({len(row) for row in rows}) != 1:
            raise ConfigError(f"bad value for {key!r}: rows differ in length", key=key)
        return rows
    nums = [_number(key, v) for v in value]
    for v in nums:
        if not math.isfinite(v):
            raise _bad(key, v, "a finite number")
    return nums


def _envelope(key: str, value):
    if value not in (None, *_ENVELOPES):
        raise ConfigError(f"mapping envelope must be {' or '.join(map(repr, _ENVELOPES))}", key=key)


_matrix = functools.partial(_numbers, depth=2)
# how the value of each section key is checked
_CHECKS = {"A": _matrix, "b": _numbers, "table": _matrix, "factor": _number,
           "s": _number, "b_const": _number, "envelope": _envelope}
# the solver settings a config file may set, and how each value is checked;
# a setting the file leaves out takes SolverConfig's default
_SETTINGS = {"norm_p": _number, "tol_step": _number, "tol_inner": _number,
             "max_outer": _integer, "max_inner": _integer}


def _section(data: dict, name: str) -> dict:
    """The required section ``name`` of ``data``, checked against ``_SECTIONS``."""
    section = _require("config", data, name)
    if not isinstance(section, dict):
        raise ConfigError(f"{name!r} must be an object", key=name)
    variant_key, variants = _SECTIONS[name]
    variant = _require(name, section, variant_key)
    if not isinstance(variant, str) or variant not in variants:
        raise ConfigError(f"unknown {name} {variant_key} {variant!r}", key=variant_key)
    keys = variants[variant][0]
    _check_keys(name, section, {variant_key, *keys})
    for key, required in keys.items():
        if required or key in section:
            _CHECKS[key](key, _require(name, section, key))
    return dict(section)


def _as_config_error(build):
    """A builder that reports every package error as a ConfigError."""
    @functools.wraps(build)
    def checked(self, *args, **kwargs):
        try:
            return build(self, *args, **kwargs)
        except ConfigError:
            raise
        except MidpointError as exc:
            raise ConfigError(str(exc)) from exc
    return checked


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative experiment description. ``to_dict``/``to_json`` write
    back the keys the file set, with ``scheme`` as a list, and parse to an
    equal config."""

    mapping: dict
    schedule: dict
    scheme: tuple  # one or more scheme names, upper-case
    x1: tuple
    contraction: dict | None = None
    settings: dict = field(default_factory=dict)  # the _SETTINGS keys the file sets

    def to_dict(self) -> dict:
        d = asdict(self)  # a deep copy
        d.update(d.pop("settings"), scheme=list(self.scheme), x1=list(self.x1))
        return {key: value for key, value in d.items() if value is not None}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @_as_config_error
    def _build(self, section: str):
        """The section's object, made by its variant's builder in _SECTIONS."""
        spec = getattr(self, section)
        key, variants = _SECTIONS[section]
        return None if spec is None else variants[spec[key]][1](spec)

    def build_mapping(self) -> Mapping:
        return self._build("mapping")

    def build_contraction(self) -> Contraction | None:
        return self._build("contraction")

    def build_schedule(self) -> Schedule:
        return self._build("schedule")

    @_as_config_error
    def build_solver_configs(self) -> list[SolverConfig]:
        """Each scheme's configuration, in the file's order, made in name order: a
        scheme the file cannot serve is the same ConfigError in any order."""
        settings = dict(self.settings)
        if "norm_p" in settings:
            settings["norm"] = NormSpec(settings.pop("norm_p"))
        schemes = [scheme_by_name(name) for name in self.scheme]
        first, *others = sorted(schemes, key=lambda s: s.name)
        cfg = SolverConfig(
            scheme=first,
            mapping=self.build_mapping(),
            schedule=self.build_schedule(),
            x1=self.x1,
            contraction=self.build_contraction(),
            **settings,
        )
        cfgs = {first: cfg, **{scheme: replace(cfg, scheme=scheme) for scheme in others}}
        return [cfgs[scheme] for scheme in schemes]

    def build_solver_config(self) -> SolverConfig:
        """The first scheme's configuration, made with the others' (:meth:`build_solver_configs`)."""
        return self.build_solver_configs()[0]


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a decoded JSON object and freeze it as an ExperimentConfig."""
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a JSON object")
    _check_keys("config", data, {*_SECTIONS, *_SETTINGS, "scheme", "x1"})
    # every section is required, but the contraction may be left out or null
    sections = {name: _section(data, name) for name in _SECTIONS
                if name != "contraction" or data.get(name) is not None}

    names = _require("config", data, "scheme")
    if isinstance(names, str):
        names = [names]
    if not isinstance(names, list) or not names or not all(isinstance(n, str) for n in names):
        raise ConfigError("'scheme' must name at least one scheme", key="scheme")
    try:
        schemes = tuple(scheme_by_name(n).name for n in names)
    except InvalidInputError as exc:
        raise ConfigError(str(exc), key="scheme") from exc
    repeated = sorted({name for name in schemes if schemes.count(name) > 1})
    if repeated:
        raise ConfigError(f"'scheme' names {', '.join(repeated)} more than once", key="scheme")

    return ExperimentConfig(
        **sections,
        scheme=schemes,
        x1=tuple(_numbers("x1", _require("config", data, "x1"))),
        settings={key: check(key, data[key]) for key, check in _SETTINGS.items() if key in data},
    )


def load_config(path) -> ExperimentConfig:
    """Read and parse a JSON config file."""
    p = Path(path)
    try:
        raw = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {p}: {exc}") from exc
    return parse_config(data)
