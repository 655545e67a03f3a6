"""Byte-for-byte regression of the CLI's report files.

The files under ``tests/golden/`` were written by the commands below and
are compared byte for byte, so a refactor that changes any digit of a
full-precision CSV, a rounded table or the certificate JSON fails here.
To regenerate them after an intended change of numbers, run

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import json
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
