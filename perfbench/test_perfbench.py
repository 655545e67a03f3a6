"""Self-tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

They check that the tracer's counts agree with what the program writes and
repeat exactly, that the output checks catch a small error, and that the
benchmark refuses to run without the program's source.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench  # pins BLAS threads and adds nothing else at import
import oracles
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import midpointfp.cli  # noqa: E402
import midpointfp.diagnostics  # noqa: E402


def test_traced_inner_iters_equal_trace_csv(tmp_path):
    w = workloads.flip_harmonic(0, tmp_path)
    out = tmp_path / "out"
    with tracer.Tracer() as t:
        code = midpointfp.cli.main(["run", "--config", str(w.config), "--out", str(out)])
    assert code == 2
    written = int(oracles.read_trace(out / "trace.csv").inner_iters.sum())
    assert sum(t.inner_iters) == written == 181_496
    assert t.counts()["solver.step_calls"] == 10_000


def _perturb_row(path: Path, n: int, delta: float):
    lines = path.read_text().splitlines()
    cells = lines[n].split(",")  # line n holds step n; column 1 is x0
    cells[1] = format(float(cells[1]) + delta, ".17g")
    lines[n] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("make, trace_file", [
    (workloads.reports, "run_a/trace.csv"),
    (workloads.affine_agvim_d60, "trace.csv"),
])
def test_perturbed_trace_row_fails_the_op(tmp_path, make, trace_file):
    w = make(5, tmp_path)
    check = w.check

    def perturbed_check(out, stdouts):
        _perturb_row(out / trace_file, 5, 1e-9)
        return check(out, stdouts)

    w.check = perturbed_check
    ops, _ = bench.measure(w, 0.0, tmp_path, trace=False)
    assert len(ops) == 1
    assert any("off the oracle" in p for p in ops[0].problems), ops[0].problems


def test_traced_counts_repeat_exactly(tmp_path):
    w = workloads.reports(7, tmp_path)
    first = bench.run_op(w, tmp_path / "a", tracer.Tracer())
    second = bench.run_op(w, tmp_path / "b", tracer.Tracer())
    assert not first.problems and not second.problems
    assert first.counts == second.counts
    for name in ("space.as_vector_calls", "solver.inner_iters", "mappings.power_evals",
                 "schedules.calls", "diagnostics.check_vi_calls", "cli.bytes_written"):
        assert first.counts[name] > 0, name


def test_missing_name_is_reported_absent(tmp_path, monkeypatch):
    monkeypatch.delattr(midpointfp.diagnostics, "check_vi")
    w = workloads.reports(7, tmp_path)
    op = bench.run_op(w, tmp_path / "op", tracer.Tracer())
    assert not op.problems
    assert "diagnostics.check_vi" in op.trace["absent"]
    assert op.counts["diagnostics.check_vi_calls"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reports", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
