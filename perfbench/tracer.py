"""Outside tracing of midpointfp, installed by the benchmark for the
per-layer numbers.

The program has no tracing of its own. A :class:`Tracer` replaces the
public functions of each module, wherever a midpointfp module holds a
reference to them, with wrappers that time each call, and wraps the
callables inside the mappings, contractions and schedules the program
builds so that their evaluations are counted too. Leaving the context
restores every replaced reference.

Every wrapped call keeps a frame on a stack, which gives self time (a
call's duration minus that of its wrapped children) and parent links.
Calls that are not on the per-evaluation hot path are kept as spans
``[id, parent_id, name, start_s, end_s]``; hot calls, which a single op
makes hundreds of thousands of, are aggregated per (parent, name) edge.
A name that a later version of the program no longer has is reported as
absent and its metrics read 0.
"""

from __future__ import annotations

import dataclasses
import sys
import time
import tracemalloc
from collections import Counter

# (module, public function) pairs; each becomes the span "<module>.<name>"
FUNCTIONS = [
    ("space", "as_vector"), ("space", "norm"), ("space", "inner"), ("space", "duality_map"),
    ("mappings", "apply_power"), ("mappings", "affine_power_pair"),
    ("mappings", "operator_norm_est"), ("mappings", "verify_envelope"),
    ("schedules", "validate"), ("schedules", "inner_contraction_factor"),
    ("solver", "implicit_step"), ("solver", "run"),
    ("diagnostics", "check_vi"), ("diagnostics", "compare_schemes"),
    ("diagnostics", "estimate_rate"), ("diagnostics", "sample_fixed_set_flip"),
    ("config", "load_config"), ("config", "parse_config"),
    ("cli", "main"), ("cli", "cmd_run"), ("cli", "cmd_validate_schedule"),
    ("cli", "cmd_compare"), ("cli", "cmd_reproduce_table1"), ("cli", "cmd_verify_mapping"),
]
# factories whose results get their callables wrapped
MAPPING_FACTORIES = [("mappings", n) for n in (
    "make_flip_map", "make_affine", "make_scaling", "make_contraction_half",
    "make_scaling_contraction")]
SCHEDULE_FACTORIES = [("schedules", n) for n in ("paper_schedule", "power_schedule", "custom_schedule")]
BUILDERS = ["build_mapping", "build_contraction", "build_schedule", "build_solver_config"]

# aggregated per edge rather than kept one span per call
HOT = {"space.as_vector", "space.norm", "space.inner", "space.duality_map",
       "mappings.map", "mappings.power", "mappings.contraction", "mappings.apply_power",
       "schedules.seq"}
RESIDUAL_CHILDREN = ("mappings.map", "mappings.power", "mappings.apply_power",
                     "space.norm", "space.as_vector")


def _program_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "midpointfp" or name.startswith("midpointfp.")]


class _Patches:
    """Replaces objects by identity in every loaded midpointfp module."""

    def __init__(self):
        self._undo = []

    def replace(self, original, replacement):
        for module in _program_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def set(self, owner, attr, replacement):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def undo(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _lookup(module: str, name: str):
    mod = sys.modules.get(f"midpointfp.{module}")
    return getattr(mod, name, None) if mod is not None else None


class Tracer:
    """Context manager that traces the calls of one op."""

    def __init__(self):
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.edges = {}  # (parent name, name) -> [calls, total_s]
        self.spans = []
        self.errors = Counter()
        self.absent = []
        self.inner_iters = []  # inner_iters of each implicit_step result
        self._raised = {}
        self._stack = []
        self._patches = _Patches()
        self._t0 = 0.0

    # -- installation ---------------------------------------------------

    def __enter__(self):
        from midpointfp import config

        self._t0 = time.perf_counter()
        posts = {("solver", "implicit_step"): self._step_result}
        posts.update(dict.fromkeys(MAPPING_FACTORIES, self._instrument_operator))
        posts.update(dict.fromkeys(SCHEDULE_FACTORIES, self._instrument_schedule))
        for module, name in FUNCTIONS + MAPPING_FACTORIES + SCHEDULE_FACTORIES:
            fn = _lookup(module, name)
            if fn is None:
                self.absent.append(f"{module}.{name}")
                continue
            self._patches.replace(fn, self.wrap(f"{module}.{name}", fn, posts.get((module, name))))
        cls = getattr(config, "ExperimentConfig", None)
        for name in BUILDERS:
            method = getattr(cls, name, None)
            if method is None:
                self.absent.append(f"config.ExperimentConfig.{name}")
                continue
            post = {"build_mapping": self._instrument_operator,
                    "build_contraction": self._instrument_operator,
                    "build_schedule": self._instrument_schedule}.get(name)
            self._patches.set(cls, name, self.wrap(f"config.{name}", method, post))
        return self

    def __exit__(self, *exc):
        self._patches.undo()
        return False

    # -- wrapping -------------------------------------------------------

    def wrap(self, name, fn, post=None):
        stack = self._stack
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        edges = self.edges
        keep = name not in HOT
        spans = self.spans
        clock = time.perf_counter
        t0 = self._t0

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_span = parent[2] if parent is not None else None
            if keep:
                span = [len(spans), parent_span, name, 0.0, 0.0]
                spans.append(span)
                frame = [name, 0.0, span[0]]
            else:
                frame = [name, 0.0, parent_span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    result = post(result)
                return result
            except BaseException as exc:
                self._note_raised(exc)
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                if keep:
                    span[3], span[4] = start - t0, end - t0
                if parent is not None:
                    parent[1] += dur
                    edge = edges.get((parent[0], name))
                    if edge is None:
                        edge = edges[(parent[0], name)] = [0, 0.0]
                    edge[0] += 1
                    edge[1] += dur

        traced._perfbench = True
        return traced

    def _note_raised(self, exc):
        if id(exc) not in self._raised:
            self._raised[id(exc)] = exc  # held so the id stays unique
            self.errors[type(exc).__name__] += 1

    def _step_result(self, result):
        self.inner_iters.append(result.inner_iters)
        return result

    def _instrument_operator(self, op):
        """Wrap apply (and power) of a Mapping or Contraction, once."""
        if op is None or getattr(op.apply, "_perfbench", False):
            return op
        if hasattr(op, "power"):
            changes = {"apply": self.wrap("mappings.map", op.apply)}
            if op.power is not None:
                changes["power"] = self.wrap("mappings.power", op.power)
        else:
            changes = {"apply": self.wrap("mappings.contraction", op.apply)}
        return dataclasses.replace(op, **changes)

    def _instrument_schedule(self, sched):
        if getattr(sched.a, "_perfbench", False):
            return sched
        return dataclasses.replace(
            sched, **{seq: self.wrap("schedules.seq", getattr(sched, seq)) for seq in "abck"})

    # -- results --------------------------------------------------------

    def calls(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def total(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def counts(self) -> dict:
        """Per-layer counts of the op; they repeat exactly for the same inputs."""
        steps = self.calls("solver.implicit_step")
        evals = (self.calls("mappings.map") + self.calls("mappings.power")
                 + self.calls("mappings.contraction"))
        inner = sum(self.inner_iters)
        return {
            "space.as_vector_calls": self.calls("space.as_vector"),
            "space.norm_calls": self.calls("space.norm"),
            "solver.inner_iters": inner,
            "solver.inner_iters_max": max(self.inner_iters, default=0),
            "solver.inner_per_step": inner / steps if steps else 0.0,
            "solver.step_calls": steps,
            "mappings.map_evals": self.calls("mappings.map"),
            "mappings.power_evals": self.calls("mappings.power"),
            "mappings.contraction_evals": self.calls("mappings.contraction"),
            "mappings.evals_per_step": evals / steps if steps else 0.0,
            "mappings.apply_power_calls": self.calls("mappings.apply_power"),
            "schedules.calls": self.calls("schedules.seq"),
            "diagnostics.check_vi_calls": self.calls("diagnostics.check_vi"),
            "errors.raised": sum(self.errors.values()),
        }

    def times(self) -> dict:
        """Per-layer seconds of the op: inclusive unless named self."""
        residual = sum(self.edges.get(("solver.run", child), [0, 0.0])[1]
                       for child in RESIDUAL_CHILDREN)
        return {
            "space.as_vector_s": self.total("space.as_vector"),
            "space.norm_s": self.total("space.norm"),
            "solver.step_s": self.self_time("solver.implicit_step"),
            "solver.residual_s": residual,
            "solver.self_s": self.self_time("solver.run"),
            "mappings.apply_power_s": self.total("mappings.apply_power"),
            "mappings.power_s": self.total("mappings.power"),
            "mappings.verify_envelope_s": self.total("mappings.verify_envelope"),
            "schedules.s": self.total("schedules.seq"),
            "schedules.validate_s": self.total("schedules.validate"),
            "diagnostics.compare_s": self.total("diagnostics.compare_schemes"),
            "diagnostics.check_vi_s": self.total("diagnostics.check_vi"),
            "config.load_s": self.total("config.load_config"),
            "cli.self_s": sum(s[2] for name, s in self.stats.items() if name.startswith("cli.")),
        }

    def dump(self) -> dict:
        return {
            "absent": self.absent,
            "errors": dict(self.errors),
            "stats": {name: {"calls": c, "total_s": t, "self_s": s}
                      for name, (c, t, s) in sorted(self.stats.items()) if c},
            "edges": [{"parent": p, "name": n, "calls": c, "total_s": t}
                      for (p, n), (c, t) in sorted(self.edges.items())],
            "spans": self.spans,
        }


class AllocPeak:
    """tracemalloc peak, in bytes, of the allocations made inside solver.run."""

    def __init__(self):
        self.peak = 0
        self._patches = _Patches()

    def __enter__(self):
        fn = _lookup("solver", "run")
        if fn is not None:
            def measured(*args, **kwargs):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.peak = max(self.peak, tracemalloc.get_traced_memory()[1] - base)

            self._patches.replace(fn, measured)
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        tracemalloc.stop()
        self._patches.undo()
        return False
