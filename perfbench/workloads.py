"""The benchmark's workloads: seeded inputs, the CLI commands of one op, and
the checks of that op's outputs.

An op is a list of ``midpointfp`` command lines run in-process through
``midpointfp.cli.main``, each with the exit code it must return, followed by
a check of everything the commands wrote. The program sees only the JSON
configs written here.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

TOL_INNER = 1e-12  # the program's default, used by every workload
REFERENCE = Path(__file__).resolve().parent / "reference"
# Each forced 20-step table-1 run holds 20 steps, each within tol_inner of
# exact, in a map that does not expand differences, so two correct programs
# can differ by 2 * 20 * tol_inner per iterate and twice that per norm.
TABLE1_TOL = 80 * TOL_INNER
COMPARE_STEPS = {"AGVIM": 18, "AVIM63": 22, "GVIM": 10, "IMR": 383, "VIM": 3}
ALL_SCHEMES = ["IMR", "VIM", "GVIM", "AGVIM", "AVIM63"]
AFFINE_DIM = 60
AFFINE_STEPS = 2000


@dataclass
class Outcome:
    """What the check of one op found."""

    steps: int = 0
    inner_iters_written: int = 0
    step_err_max: float = 0.0
    problems: list = field(default_factory=list)

    def add_steps(self, check: oracles.StepCheck, label: str):
        self.steps += check.rows
        self.inner_iters_written += check.inner_iters
        self.step_err_max = max(self.step_err_max, check.err_max)
        self.problems.extend(f"{label}: {p}" for p in check.problems)


@dataclass
class Workload:
    name: str
    commands: list  # [(argv with "{out}" placeholders, expected exit code)]
    check: object  # (out_dir, stdouts) -> Outcome
    config: Path  # the config whose set-up time setup_s measures

    def argv(self, out: Path):
        return [([a.replace("{out}", str(out)) for a in argv], code) for argv, code in self.commands]


def _flip_config(x1, **extra) -> dict:
    return {"mapping": {"kind": "flip"}, "contraction": {"kind": "half"},
            "schedule": {"family": "paper"}, "scheme": "AGVIM", "x1": list(x1), **extra}


def _write(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg))
    return path


def flip_harmonic(seed: int, work: Path) -> Workload:
    """``run`` from (-2, 1), inside the flip map's fixed region: the whole
    10 000-step budget at d = 2, where per-call overhead in solver and space
    dominates and the closed-form flip power leaves mappings nearly idle."""
    cfg = _write(work / "flip_harmonic.json", _flip_config([-2.0, 1.0]))

    def check(out: Path, stdouts) -> Outcome:
        outcome = Outcome()
        outcome.add_steps(oracles.check_flip_trace(out / "trace.csv", TOL_INNER), "trace.csv")
        return outcome

    return Workload(
        "flip_harmonic",
        [(["run", "--config", str(cfg), "--out", "{out}"], 2)], check, cfg,
    )


def affine_inputs(seed: int, dim: int = AFFINE_DIM):
    """Orthogonal Q from a seeded QR, b = (I - Q) x* so x* is fixed, and x1.

    A random b would do no good: I - Q is singular, so the map would have no
    fixed point and the iterates would grow until the inner solver gives up.
    """
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    x_star = rng.standard_normal(dim)
    b = x_star - q @ x_star
    x1 = rng.standard_normal(dim)
    return q, b, x1


def affine_agvim_d60(seed: int, work: Path) -> Workload:
    """``run`` of a d = 60 affine map for a fixed 2 000 steps: the only
    workload on the affine binary-power path and its cache, and on memory.
    The mapping is rebuilt from the config in every op, as ``run`` does."""
    A, b, x1 = affine_inputs(seed)
    cfg = _write(work / "affine_agvim_d60.json", {
        "mapping": {"kind": "affine", "A": A.tolist(), "b": b.tolist()},
        "contraction": {"kind": "half"}, "schedule": {"family": "paper"},
        "scheme": "AGVIM", "x1": x1.tolist(), "tol_step": 0.0, "max_outer": AFFINE_STEPS,
    })

    def check(out: Path, stdouts) -> Outcome:
        outcome = Outcome()
        outcome.add_steps(oracles.check_affine_trace(out / "trace.csv", A, b, TOL_INNER),
                          "trace.csv")
        if outcome.steps != AFFINE_STEPS:
            outcome.problems.append(f"expected {AFFINE_STEPS} steps, got {outcome.steps}")
        return outcome

    return Workload(
        "affine_agvim_d60",
        [(["run", "--config", str(cfg), "--out", "{out}"], 2)], check, cfg,
    )


def _read_columns(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _check_table1(out: Path, outcome: Outcome):
    for name in ("table1_step_norm.csv", "table1_dist_to_final.csv"):
        header, rows = _read_columns(out / name)
        ref_header, ref_rows = _read_columns(REFERENCE / name)
        if header != ref_header or len(rows) != len(ref_rows):
            outcome.problems.append(f"{name}: layout differs from the reference")
            continue
        got = np.array(rows, dtype=float)
        ref = np.array(ref_rows, dtype=float)
        worst = float(np.max(np.abs(got - ref)))
        if not worst <= TABLE1_TOL:
            outcome.problems.append(f"{name}: off the reference by {worst:.3e} > {TABLE1_TOL:.1e}")
    for i in (1, 2, 3):
        outcome.add_steps(oracles.check_flip_trace(out / f"table1_trace_run{i}.csv", TOL_INNER),
                          f"table1_trace_run{i}.csv")


def _check_compare(out: Path, outcome: Outcome):
    header, rows = _read_columns(out / "compare.csv")
    counts = {}
    for j, name in enumerate(header[1:], start=1):
        counts[name.removeprefix("step_norm_")] = sum(1 for r in rows if r[j] != "")
    if counts != COMPARE_STEPS:
        outcome.problems.append(f"compare step counts {counts} != {COMPARE_STEPS}")
    outcome.steps += sum(counts.values())


def reports(seed: int, work: Path) -> Workload:
    """One pass of every report command on the flip problem: short, converging
    solves, so time goes to CLI output, config parsing, diagnostics, envelope
    sampling and schedule validation, which the long runs barely touch."""
    compare_cfg = _write(work / "reports_compare.json", _flip_config([0.5, 1.0], scheme=ALL_SCHEMES))
    flip_cfg = _write(work / "reports_flip.json", _flip_config([0.5, 1.0]))
    run_a = _write(work / "reports_run_a.json", _flip_config([0.0, 1.0 / 3.0]))
    verify_seed = int(np.random.default_rng(seed).integers(0, 2**31 - 1))

    def check(out: Path, stdouts) -> Outcome:
        outcome = Outcome()
        _check_table1(out / "table1", outcome)
        _check_compare(out / "compare", outcome)
        if "envelope check: pass" not in stdouts[2]:
            outcome.problems.append("verify-mapping did not report a pass")
        if "overall: PASS" not in stdouts[3]:
            outcome.problems.append("validate-schedule did not report PASS")
        for sub in ("run_a", "run_b"):
            outcome.add_steps(oracles.check_flip_trace(out / sub / "trace.csv", TOL_INNER),
                              f"{sub}/trace.csv")
        return outcome

    return Workload(
        "reports",
        [
            (["reproduce-table1", "--out", "{out}/table1"], 0),
            (["compare", "--config", str(compare_cfg), "--out", "{out}/compare"], 0),
            (["verify-mapping", "--config", str(flip_cfg), "--samples", "200",
              "--horizon", "20", "--seed", str(verify_seed)], 0),
            (["validate-schedule", "--config", str(flip_cfg), "--horizon", "1000"], 0),
            (["run", "--config", str(run_a), "--out", "{out}/run_a"], 0),
            (["run", "--config", str(flip_cfg), "--out", "{out}/run_b"], 0),
        ],
        check, compare_cfg,
    )


WORKLOADS = {w.__name__: w for w in (flip_harmonic, affine_agvim_d60, reports)}
