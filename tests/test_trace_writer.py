"""`run` writes a long run's trace.csv in a helper process: the same bytes
as the serial writer, chosen only when it can pay off, and never left
running."""

import json
import logging
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from midpointfp import cli, solver
from midpointfp.cli import _trace_csv, main
from midpointfp.config import load_config
from midpointfp.solver import run


def affine_config(dim: int = 60, seed: int = 3, **extra) -> dict:
    """An orthogonal map with a fixed point, as the benchmark's affine run."""
    rng = np.random.default_rng(seed)
    Q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    Q = Q * np.sign(np.diag(r))
    x_star = rng.standard_normal(dim)
    return {"mapping": {"kind": "affine", "A": Q.tolist(), "b": (x_star - Q @ x_star).tolist()},
            "contraction": {"kind": "half"}, "schedule": {"family": "paper"},
            "scheme": "AGVIM", "x1": rng.standard_normal(dim).tolist(), **extra}


def flip_config(x1, **extra) -> dict:
    return {"mapping": {"kind": "flip"}, "contraction": {"kind": "half"},
            "schedule": {"family": "paper"}, "scheme": "AGVIM", "x1": x1, **extra}


# (config, rows, exit code, helper started): d = 60 rows have 70 cells, so
# the helper starts after the first 64-row block; d = 2 rows have 12, so
# after the sixth (384 rows); it is never started at a run's last block
CASES = {
    "d60 1 row": (affine_config(max_outer=1, tol_step=0.0), 1, 2, False),
    "d60 63 rows": (affine_config(max_outer=63, tol_step=0.0), 63, 2, False),
    "d60 64 rows": (affine_config(max_outer=64, tol_step=0.0), 64, 2, False),
    "d60 65 rows": (affine_config(max_outer=65, tol_step=0.0), 65, 2, True),
    "d60 2000 rows": (affine_config(max_outer=2000, tol_step=0.0), 2000, 2, True),
    "d60 converged": (affine_config(tol_step=0.05), 131, 0, True),
    "d2 383 rows": (flip_config([0.5, 1.0], max_outer=383, tol_step=0.0), 383, 2, False),
    "d2 384 rows": (flip_config([0.5, 1.0], max_outer=384, tol_step=0.0), 384, 2, False),
    "d2 385 rows": (flip_config([0.5, 1.0], max_outer=385, tol_step=0.0), 385, 2, True),
    "d2 10000 rows": (flip_config([0.5, 1.0], max_outer=10_000, tol_step=0.0), 10_000, 2, True),
    "d2 converged": (flip_config([-2.0, 1.0], tol_step=1e-5), 539, 0, True),
}


def write_config(tmp_path, data) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def helpers(monkeypatch):
    """The argv of every helper started, with 2 usable CPUs on any host."""
    started = []
    popen = subprocess.Popen

    def counted(argv, *args, **kwargs):
        started.append(argv)
        return popen(argv, *args, **kwargs)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(subprocess, "Popen", counted)
    return started


def no_popen(*args, **kwargs):
    raise AssertionError("a trace writer was started")


def assert_serial_bytes(tmp_path, config, out):
    """trace.csv in ``out`` is what the serial writer writes for ``config``."""
    _trace_csv(tmp_path / "want.csv", run(load_config(config).build_solver_config()))
    assert (out / "trace.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("case", CASES, ids=list(CASES))
def test_same_bytes_as_the_serial_writer(tmp_path, helpers, case):
    data, rows, code, parallel = CASES[case]
    config = write_config(tmp_path, data)
    assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == code
    assert_no_children()
    assert len(helpers) == parallel
    assert len(run(load_config(config).build_solver_config())) == rows
    assert_serial_bytes(tmp_path, config, tmp_path / "out")
    assert os.listdir(tmp_path / "out") == ["trace.csv"]


def test_short_runs_start_no_writer(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(subprocess, "Popen", no_popen)
    for case in ("d60 64 rows", "d2 384 rows"):
        data, rows, code, _ = CASES[case]
        assert main(["run", "--config", write_config(tmp_path, data),
                     "--out", str(tmp_path / case)]) == code
        assert (tmp_path / case / "trace.csv").read_text().count("\n") == rows + 1


@pytest.mark.parametrize("fallback", ["one CPU by affinity", "one CPU by count", "no spawn"])
def test_a_long_run_falls_back_to_the_serial_writer(tmp_path, monkeypatch, fallback):
    if fallback == "one CPU by affinity":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(subprocess, "Popen", no_popen)
    elif fallback == "one CPU by count":  # a platform without sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(subprocess, "Popen", no_popen)
    else:  # Popen raises OSError
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(sys, "executable", str(tmp_path / "no-python"))
    config = write_config(tmp_path, CASES["d60 65 rows"][0])
    assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert_serial_bytes(tmp_path, config, tmp_path / "out")


@pytest.mark.parametrize("tail, code", [(b"", 0), (b"\0" * 12, 1)])
def test_the_writer_script_stands_alone(tmp_path, tail, code):
    # the script without the package: whole rows in, and a partial row is an error
    rows = np.array([[1.0, 0.1, -0.0], [2.0, 1e300, np.nan]])
    done = subprocess.run(
        [sys.executable, "-I", "-S", str(cli._WRITER), str(tmp_path / "t.csv"), "3",
         "n,a,b\n", cli._row_format(3)],
        input=rows.tobytes() + tail, capture_output=True)
    assert done.returncode == code
    if code == 0:
        assert (tmp_path / "t.csv").read_text() == "n,a,b\n1,0.10000000000000001,-0\n2,1.0000000000000001e+300,nan\n"
    else:
        assert b"multiple of 24 bytes" in done.stderr


class TestFailures:
    """Every failure reaps the helper and leaves no partial file."""

    def test_a_run_that_raises_leaves_the_old_trace(self, tmp_path, helpers, capsys):
        # the custom table runs out at n = 300, after the helper started at 64
        table = [[0.5, 0.25, 0.25, 1.0]] * 299
        config = write_config(tmp_path, affine_config(
            schedule={"family": "custom", "table": table}, tol_step=0.0))
        out = tmp_path / "out"
        out.mkdir()
        (out / "trace.csv").write_text("old\n")
        assert main(["run", "--config", config, "--out", str(out)]) == 1
        assert "requested n=300" in capsys.readouterr().err
        assert len(helpers) == 1
        assert_no_children()
        assert os.listdir(out) == ["trace.csv"]
        assert (out / "trace.csv").read_text() == "old\n"

    def test_a_serial_write_that_fails_leaves_the_old_trace(self, tmp_path, monkeypatch, capsys):
        # one CPU: trace.csv is written after the run, and the third row fails
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(subprocess, "Popen", no_popen)
        row_format = cli._row_format

        class FailingRow(str):
            rows = 0

            def __mod__(self, cells):
                FailingRow.rows += 1
                if FailingRow.rows == 3:
                    raise OSError("No space left on device")
                return str.__mod__(self, cells)

        monkeypatch.setattr(cli, "_row_format", lambda width: FailingRow(row_format(width)))
        out = tmp_path / "out"
        out.mkdir()
        (out / "trace.csv").write_text("old\n")
        config = write_config(tmp_path, flip_config([0.5, 1.0]))
        assert main(["run", "--config", config, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: No space left on device\n"
        assert FailingRow.rows == 3
        assert os.listdir(out) == ["trace.csv"]
        assert (out / "trace.csv").read_text() == "old\n"

    def test_keyboard_interrupt_reaps_the_helper(self, tmp_path, helpers, monkeypatch):
        step = solver.implicit_step

        def interrupted(cfg, n, *args, **kwargs):
            if n == 300:
                raise KeyboardInterrupt
            return step(cfg, n, *args, **kwargs)

        monkeypatch.setattr(solver, "implicit_step", interrupted)
        config = write_config(tmp_path, CASES["d60 2000 rows"][0])
        with pytest.raises(KeyboardInterrupt):
            main(["run", "--config", config, "--out", str(tmp_path / "out")])
        assert len(helpers) == 1
        assert_no_children()
        assert os.listdir(tmp_path / "out") == []

    @pytest.mark.parametrize("directory, message", [
        # the helper cannot open its own file
        ("trace.csv.part", "trace writer for {out}/trace.csv exited with status 1: "
                           "[Errno 21] Is a directory: '{out}/trace.csv.part'"),
        # the helper's file cannot be renamed
        ("trace.csv", "[Errno 21] Is a directory: '{out}/trace.csv.part' -> '{out}/trace.csv'"),
    ])
    def test_an_unwritable_trace_is_an_error(self, tmp_path, helpers, capsys, directory, message):
        out = tmp_path / "out"
        (out / directory).mkdir(parents=True)
        config = write_config(tmp_path, CASES["d60 2000 rows"][0])
        assert main(["run", "--config", config, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: " + message.format(out=out) + "\n"
        assert len(helpers) == 1
        assert_no_children()
        assert os.listdir(out) == [directory]


def test_debug_log_shows_the_helper(tmp_path, helpers, monkeypatch, caplog):
    monkeypatch.setenv("MIDPOINT_LOG", "debug")
    config = write_config(tmp_path, CASES["d60 2000 rows"][0])
    with caplog.at_level(logging.DEBUG, logger="midpointfp"):
        assert main(["run", "--config", config, "--out", str(tmp_path)]) == 2
    lines = [m for m in caplog.messages if m.startswith("trace writer")]
    assert len(lines) == 2
    assert lines[0] == "trace writer started at n=64 (4480 cells)"
    assert re.fullmatch(r"trace writer reaped: 2000 rows, exit status 0, parent waited "
                        r"\d+\.\d ms, longest block write \d+\.\d ms", lines[1])


def test_setup_imports_neither_the_cli_nor_the_writer(tmp_path):
    code = ("import sys; import midpointfp; from midpointfp.config import load_config; "
            f"load_config({write_config(tmp_path, CASES['d60 1 row'][0])!r}).build_solver_config(); "
            "print(sorted(m for m in sys.modules if m.startswith('midpointfp.')))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    modules = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert "midpointfp.config" in modules
    assert "midpointfp.cli" not in modules and "_csv_writer" not in modules
