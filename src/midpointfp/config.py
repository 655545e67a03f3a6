"""JSON experiment configuration: strict parsing, lossless round-trip,
and builders for the solver objects.

Schema (unknown keys are rejected at every level)::

    {
      "mapping":     {"kind": "flip"}
                   | {"kind": "affine", "A": [[...]], "b": [...]}
                   | {"kind": "contraction_half"},
      "contraction": {"kind": "half"}
                   | {"kind": "scale", "factor": 0.3}
                   | {"kind": "affine", "A": [[...]], "b": [...]},
      "schedule":    {"family": "paper"}
                   | {"family": "power", "s": 1.0, "b_const": 0.0}
                   | {"family": "custom", "table": [[a, b, c, k], ...]},
      "scheme":      "AGVIM" or ["VIM", "GVIM", ...],
      "x1":          [..],
      "norm_p":      2.0,          # optional
      "tol_step":    1e-8,         # optional
      "tol_inner":   1e-12,        # optional
      "max_outer":   10000,        # optional
      "max_inner":   10000,        # optional
      "power_cap":   1000,         # optional
      "seed":        1,            # required by randomized commands
      "out":         "results"     # optional output directory
    }
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidInputError, MidpointError
from .mappings import (
    Contraction,
    Mapping,
    make_affine,
    make_contraction_half,
    make_flip_map,
    make_scaling,
    make_scaling_contraction,
    operator_norm_est,
)
from .schedules import Schedule, custom_schedule, paper_schedule, power_schedule
from .solver import Scheme, SolverConfig, scheme_by_name
from .space import NormSpec

__all__ = ["ExperimentConfig", "load_config", "parse_config"]

_TOP_KEYS = {
    "mapping", "contraction", "schedule", "scheme", "x1", "norm_p",
    "tol_step", "tol_inner", "max_outer", "max_inner", "power_cap",
    "seed", "out",
}
_SECTIONS = {  # section: (the key naming its variant, {variant: {key: required}})
    "mapping": ("kind", {"flip": {"envelope": False}, "contraction_half": {"envelope": False},
                         "affine": {"A": True, "b": True, "envelope": False}}),
    "contraction": ("kind", {"half": {}, "scale": {"factor": True},
                             "affine": {"A": True, "b": True}}),
    "schedule": ("family", {"paper": {}, "power": {"s": False, "b_const": False},
                            "custom": {"table": True}}),
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
    if value not in (None, "auto", "unit"):
        raise ConfigError("mapping envelope must be 'auto' or 'unit'", key=key)


_matrix = functools.partial(_numbers, depth=2)
# how the value of each section key is checked
_CHECKS = {"A": _matrix, "b": _numbers, "table": _matrix, "factor": _number,
           "s": _number, "b_const": _number, "envelope": _envelope}


def _section(data: dict, name: str) -> dict:
    """The required section ``name`` of ``data``, checked against ``_SECTIONS``."""
    section = _require("config", data, name)
    if not isinstance(section, dict):
        raise ConfigError(f"{name!r} must be an object", key=name)
    variant_key, variants = _SECTIONS[name]
    variant = _require(name, section, variant_key)
    if not isinstance(variant, str) or variant not in variants:
        raise ConfigError(f"unknown {name} {variant_key} {variant!r}", key=variant_key)
    keys = variants[variant]
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
    """Declarative experiment description; round-trips losslessly via JSON."""

    mapping: dict
    schedule: dict
    scheme: tuple  # one or more scheme names, upper-case
    x1: tuple
    contraction: dict | None = None
    norm_p: float = 2.0
    tol_step: float = 1e-8
    tol_inner: float = 1e-12
    max_outer: int = 10_000
    max_inner: int = 10_000
    power_cap: int = 1_000
    seed: int | None = None
    out: str | None = None
    _single_scheme: bool = field(default=True, repr=False)

    # -- construction -------------------------------------------------

    def to_dict(self) -> dict:
        d = {
            "mapping": dict(self.mapping),
            "schedule": dict(self.schedule),
            "scheme": self.scheme[0] if self._single_scheme else list(self.scheme),
            "x1": list(self.x1),
            "norm_p": self.norm_p,
            "tol_step": self.tol_step,
            "tol_inner": self.tol_inner,
            "max_outer": self.max_outer,
            "max_inner": self.max_inner,
            "power_cap": self.power_cap,
        }
        if self.contraction is not None:
            d["contraction"] = dict(self.contraction)
        if self.seed is not None:
            d["seed"] = self.seed
        if self.out is not None:
            d["out"] = self.out
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    # -- builders ------------------------------------------------------

    @_as_config_error
    def build_mapping(self) -> Mapping:
        spec = self.mapping
        kind = spec["kind"]
        envelope = None
        if spec.get("envelope") == "unit":
            envelope = lambda n: 1.0
        if kind == "flip":
            return make_flip_map(envelope=envelope)
        if kind == "affine":
            return make_affine(np.asarray(spec["A"], dtype=float),
                               np.asarray(spec["b"], dtype=float),
                               envelope=envelope)
        if kind == "contraction_half":
            dim = len(self.x1)
            return make_scaling(0.5, dim, envelope=envelope or (lambda n: 1.0))
        raise ConfigError(f"unknown mapping kind {kind!r}", key="kind")

    def build_contraction(self) -> Contraction | None:
        spec = self.contraction
        if spec is None:
            return None
        kind = spec["kind"]
        if kind == "half":
            return make_contraction_half()
        if kind == "scale":
            return make_scaling_contraction(float(spec["factor"]))
        if kind == "affine":
            A = np.asarray(spec["A"], dtype=float)
            b = np.asarray(spec["b"], dtype=float)
            alpha = operator_norm_est(A)
            if not alpha < 1.0:
                raise ConfigError(
                    f"affine contraction needs ||A||_2 < 1, got {alpha:.6f}", key="A"
                )
            return Contraction(apply=lambda u: A @ u + b, alpha=alpha, name="affine")
        raise ConfigError(f"unknown contraction kind {kind!r}", key="kind")

    def build_schedule(self) -> Schedule:
        spec = self.schedule
        family = spec["family"]
        if family == "paper":
            return paper_schedule()
        if family == "power":
            return power_schedule(float(spec.get("s", 1.0)), float(spec.get("b_const", 0.0)))
        if family == "custom":
            return custom_schedule(spec["table"])
        raise ConfigError(f"unknown schedule family {family!r}", key="family")

    def schemes(self) -> list[Scheme]:
        return [scheme_by_name(name) for name in self.scheme]

    @_as_config_error
    def build_solver_config(self, scheme: Scheme | None = None) -> SolverConfig:
        return SolverConfig(
            scheme=scheme if scheme is not None else self.schemes()[0],
            mapping=self.build_mapping(),
            schedule=self.build_schedule(),
            x1=np.asarray(self.x1, dtype=float),
            contraction=self.build_contraction(),
            max_outer=self.max_outer,
            tol_step=self.tol_step,
            tol_inner=self.tol_inner,
            max_inner=self.max_inner,
            norm=NormSpec(self.norm_p),
            power_cap=self.power_cap,
        )


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a decoded JSON object and freeze it as an ExperimentConfig."""
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a JSON object")
    _check_keys("config", data, _TOP_KEYS)
    mapping = _section(data, "mapping")
    contraction = None if data.get("contraction") is None else _section(data, "contraction")
    schedule = _section(data, "schedule")

    scheme_raw = _require("config", data, "scheme")
    single = isinstance(scheme_raw, str)
    names = [scheme_raw] if single else scheme_raw
    if not isinstance(names, list) or not names or not all(isinstance(n, str) for n in names):
        raise ConfigError("'scheme' must name at least one scheme", key="scheme")
    try:
        schemes = tuple(scheme_by_name(n).name for n in names)
    except InvalidInputError as exc:
        raise ConfigError(str(exc), key="scheme") from exc

    cfg = ExperimentConfig(
        mapping=mapping,
        contraction=contraction,
        schedule=schedule,
        scheme=schemes,
        x1=tuple(_numbers("x1", _require("config", data, "x1"))),
        norm_p=_number("norm_p", data.get("norm_p", 2.0)),
        tol_step=_number("tol_step", data.get("tol_step", 1e-8)),
        tol_inner=_number("tol_inner", data.get("tol_inner", 1e-12)),
        max_outer=_integer("max_outer", data.get("max_outer", 10_000)),
        max_inner=_integer("max_inner", data.get("max_inner", 10_000)),
        power_cap=_integer("power_cap", data.get("power_cap", 1_000)),
        seed=None if data.get("seed") is None else _integer("seed", data["seed"]),
        out=None if data.get("out") is None else str(data["out"]),
        _single_scheme=single,
    )
    if cfg.seed is not None and cfg.seed < 0:
        raise _bad("seed", cfg.seed, "a non-negative integer")
    return cfg


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
