"""The README's examples run, so a key or a name they still use after it
is removed from the program fails here."""

import contextlib
import io
import json
import re
from pathlib import Path

from midpointfp.config import parse_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


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
