"""Byte-for-byte regression of the CLI's report files.

The files under ``tests/golden/`` were written by the commands below and
are compared byte for byte, so a refactor that changes any digit of a
full-precision CSV, a rounded table, the certificate JSON or a
``validate-schedule`` report fails here.
To regenerate them after an intended change of numbers, run

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

from midpointfp.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
FLIP = {
    "mapping": {"kind": "flip"},
    "contraction": {"kind": "half"},
    "schedule": {"family": "paper"},
    "x1": [0.5, 1.0],
}
# (output directory, config or None, CLI arguments, expected exit code, files)
CASES = [
    ("table1", None, ["reproduce-table1"], 0,
     ["table1_step_norm.csv", "table1_dist_to_final.csv", "table1_trace_run1.csv",
      "table1_trace_run2.csv", "table1_trace_run3.csv", "table1_rounded.md",
      "table1_vi.json"]),
    ("run_flip", {**FLIP, "scheme": "AGVIM"}, ["run"], 0, ["trace.csv"]),
    ("compare_flip", {**FLIP, "scheme": ["IMR", "VIM", "GVIM", "AGVIM", "AVIM63"]},
     ["compare"], 0, ["compare.csv", "compare.md"]),
]


# validate-schedule configs, each checked at horizons 60 and 1000; the
# stdout of each is tests/golden/validate/<name>_h<horizon>.txt, and the exit
# codes are in exit_codes.json there
ALL_SCHEMES = ["IMR", "VIM", "GVIM", "AGVIM", "AVIM63"]
HORIZONS = (60, 1000)


def table(row):
    """A custom schedule of 1 000 rows [a_n, b_n, c_n, k_n] = row(n)."""
    return {"family": "custom", "table": [row(n) for n in range(1, 1001)]}


def harmonic(n, k=1.0):
    return [1.0 / n, 0.0, 1.0 - 1.0 / n, k]


VALIDATE = {
    "flip_agvim": {**FLIP, "scheme": "AGVIM"},
    **{f"flip_all_p{p:g}": {**FLIP, "scheme": ALL_SCHEMES, "norm_p": p}
       for p in (2.0, 3.0, math.inf)},
    "flip_unit": {**FLIP, "mapping": {"kind": "flip", "envelope": "unit"}, "scheme": "AGVIM"},
    "power_s2": {**FLIP, "schedule": {"family": "power", "s": 2.0}, "scheme": "AGVIM"},
    "power_s0.5_b0.3": {**FLIP, "schedule": {"family": "power", "s": 0.5, "b_const": 0.3},
                        "scheme": ALL_SCHEMES},
    # the default envelope 1.9^p makes the power schemes ill-posed from n = 3
    "affine_diag": {**FLIP, "mapping": {"kind": "affine", "A": [[1.9, 0.0], [0.0, 0.1]],
                                        "b": [0.0, 0.0]}, "scheme": ALL_SCHEMES},
    "affine_nonnormal_pinf": {**FLIP, "mapping": {"kind": "affine", "A": [[0.5, 2.0], [0.0, 0.5]],
                                                  "b": [0.0, 0.0]},
                              "scheme": ALL_SCHEMES, "norm_p": math.inf},
    "custom_simplex_n30": {**FLIP, "scheme": "AGVIM", "schedule": table(
        lambda n: [0.5, 0.3, 0.25, 1.0] if n == 30 else harmonic(n))},
    "custom_a40_zero_k1.5": {**FLIP, "scheme": ALL_SCHEMES, "schedule": table(
        lambda n: [0.0, 0.0, 1.0, 1.0] if n == 40 else harmonic(n, 1.5 if n > 45 else 1.0))},
}
VALIDATE_CASES = [(name, h) for name in VALIDATE for h in HORIZONS]


def validate_schedule(name: str, horizon: int, tmp: Path) -> tuple[str, int]:
    """stdout and exit code of validate-schedule on config ``name``."""
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(VALIDATE[name]))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["validate-schedule", "--config", str(path), "--horizon", str(horizon)])
    return out.getvalue(), code


def produce(case, out: Path):
    """Run one case's command, writing its files into ``out``."""
    name, config, argv, code, _ = case
    out.mkdir(parents=True, exist_ok=True)
    args = list(argv)
    if config is not None:
        path = out.parent / f"{name}.json"
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    assert main(args + ["--out", str(out)]) == code


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_outputs_match_golden(case, tmp_path, capsys):
    out = tmp_path / case[0]
    produce(case, out)
    for fname in case[4]:
        got = (out / fname).read_bytes()
        want = (GOLDEN / case[0] / fname).read_bytes()
        assert got == want, f"{case[0]}/{fname} differs from the golden file"


@pytest.mark.parametrize("name, horizon", VALIDATE_CASES,
                         ids=[f"{name}_h{h}" for name, h in VALIDATE_CASES])
def test_validate_schedule_matches_golden(name, horizon, tmp_path):
    stdout, code = validate_schedule(name, horizon, tmp_path)
    stem = f"{name}_h{horizon}"
    want = (GOLDEN / "validate" / f"{stem}.txt").read_text()
    assert stdout == want, f"validate/{stem}.txt differs from the golden file"
    codes = json.loads((GOLDEN / "validate" / "exit_codes.json").read_text())
    assert code == codes[stem]


def test_huge_outer_budget_runs_like_the_default(tmp_path, capsys):
    # the trace buffers grow with the run, so an outer budget far beyond
    # memory still converges in 18 steps with the same bytes
    case = ("run_flip", {**FLIP, "scheme": "AGVIM", "max_outer": 10**18}, ["run"], 0,
            ["trace.csv"])
    produce(case, tmp_path / "run_flip")
    assert "converged after 18 iterations" in capsys.readouterr().out
    got = (tmp_path / "run_flip" / "trace.csv").read_bytes()
    assert got == (GOLDEN / "run_flip" / "trace.csv").read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            produce(case, Path(tmp) / case[0])
            (GOLDEN / case[0]).mkdir(parents=True, exist_ok=True)
            for fname in case[4]:
                (GOLDEN / case[0] / fname).write_bytes((Path(tmp) / case[0] / fname).read_bytes())
        codes = {}
        (GOLDEN / "validate").mkdir(exist_ok=True)
        for name, horizon in VALIDATE_CASES:
            stdout, codes[f"{name}_h{horizon}"] = validate_schedule(name, horizon, Path(tmp))
            (GOLDEN / "validate" / f"{name}_h{horizon}.txt").write_text(stdout)
        (GOLDEN / "validate" / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")
