"""The README's examples run, so a key or a name they still use after it
is removed from the program fails here."""

import contextlib
import io
import json
import re
from pathlib import Path

from midpointfp.cli import main
from midpointfp.config import parse_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
GOLDEN = Path(__file__).resolve().parent / "golden"


def block(language: str, after: str) -> str:
    """The first ```language code block of README that follows the line ``after``."""
    start = README.index(after)
    match = re.compile(rf"^```{language}\n(.*?)^```$", re.M | re.S).search(README, start)
    assert match, f"no {language} block after {after!r}"
    return match.group(1)


def test_schema_example_parses():
    data = json.loads(block("json", "Config schema"))
    cfg = parse_config(data)
    assert cfg.to_dict() == {**data, "scheme": [data["scheme"]]}


def test_library_quick_start_runs():
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(block("python", "## Library quick start"), {})
    lines = stdout.getvalue().splitlines()
    assert len(lines) == 3 and lines[0].startswith("True ")  # converged
    assert lines[-1].split()[0] == "holds"  # the final iterate's certificate


def test_table1_config_writes_the_table1_traces(tmp_path):
    # the documented config, run from each start, is the run reproduce-table1 makes
    data = json.loads(block("json", "## The benchmark experiment"))
    for i, x1 in enumerate([[0.0, 1.0 / 3.0], [0.5, 1.0], [-2.0, 1.0]], start=1):
        path = tmp_path / f"run{i}.json"
        path.write_text(json.dumps({**data, "x1": x1}))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", "--config", str(path), "--out", str(tmp_path / f"run{i}")]) == 2
        got = (tmp_path / f"run{i}" / "trace.csv").read_bytes()
        assert got == (GOLDEN / "table1" / f"table1_trace_run{i}.csv").read_bytes()


def test_compare_example_writes_its_table(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(block("json", "A `compare` example"))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["compare", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert (tmp_path / "compare.md").read_text() == block("markdown", "A `compare` example")
