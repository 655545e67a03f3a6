"""Command-line interface.

Commands: run, validate-schedule, compare, reproduce-table1,
verify-mapping. Exit codes: 0 success, 1 error/schema violation,
2 no convergence (run), partial failure (compare) or a usage error
caught by the argument parser, 3 failed validation/verification.
``main`` is the one error boundary: a config problem prints
``config error: ...`` on stderr, any other error ``error: ...``, and
both exit 1. MIDPOINT_LOG=off|info|debug controls verbosity.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from . import _csv_writer
from .config import load_config
from .diagnostics import check_vi, compare_schemes, sample_fixed_set_flip
from .errors import ConfigError, MidpointError
from .mappings import make_flip_map, make_scaling_contraction, verify_envelope
from .schedules import paper_schedule, validate
from .solver import SCHEMES, STEP_COLUMNS, SolverConfig, Trace, run
from .space import NormSpec, norm

log = logging.getLogger("midpointfp")

_TABLE1_STARTS = [
    ("x1=(0 1/3)", np.array([0.0, 1.0 / 3.0]), np.array([1.0, -1.0])),
    ("x1=(1/2 1)", np.array([0.5, 1.0]), np.array([0.0, 0.0])),
    ("x1=(-2 1)", np.array([-2.0, 1.0]), np.array([-1.0, 1.0])),
]
_TABLE1_ROWS = 20
_TABLE1_VI_SEED = 2020


def _header_line(names) -> str:
    return ",".join(["n", *names]) + "\n"


def _row_format(width: int) -> str:
    """The format of a CSV row of ``width`` cells: every cell is a "%.17g"
    float, which writes integer columns (n, inner_iters) as int() would."""
    return ",".join(["%.17g"] * width) + "\n"


def _table(columns) -> np.ndarray:
    """``columns`` (1-d, or 2-d for several) after n = 1, 2, ..., as one float64 table."""
    return np.column_stack((np.arange(1, len(columns[0]) + 1), *columns))


def _write_table(path: Path, header, table: np.ndarray):
    """Write the rows of the C-ordered float64 ``table`` under ``n`` and
    ``header``, by the trace writer helper's own loop."""
    with open(path, "w", newline="") as fh:
        fh.write(_header_line(header))
        _csv_writer.write_rows(fh, _row_format(table.shape[1]), table.shape[1], table)


def _write_csv(path: Path, header, columns):
    """Write ``columns`` under ``n`` and ``header``, one row per n."""
    _write_table(path, header, _table(columns))


def _trace_header(dim: int) -> list:
    return [f"x{i}" for i in range(dim)] + list(STEP_COLUMNS)


def _trace_csv(path: Path, trace: Trace):
    _write_table(path, _trace_header(trace.final.size), trace.rows[:-1])


# a run's trace.csv is written by a helper process once the run has made
# this many cells and goes on, if the process may use 2 CPUs
WRITER_CELLS = 4096
_WRITER = Path(__file__).with_name("_csv_writer.py")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


class _TraceWriter:
    """Writes a run's trace.csv, as ``run``'s block consumer.

    Once the run has made WRITER_CELLS cells and goes on, and if the
    process may use 2 CPUs, it starts the stdlib-only writer script and
    sends it every finished row as raw float64 values, so that the rows
    are formatted on the other CPU while the run goes on; ``finish`` then
    waits for it. A shorter run, or one on a single CPU, is written by
    ``_trace_csv`` in ``finish``. Either way the rows go to a ``.part``
    file, which ``finish`` renames to ``path``, and the bytes are the
    same. ``abort`` kills and reaps a helper that is still running and
    removes the partial file.
    """

    def __init__(self, path: Path, cfg: SolverConfig):
        self.path = path
        self.part = path.with_name(path.name + ".part")
        self.max_outer = cfg.max_outer
        self.parallel = _usable_cpus() >= 2
        self.proc = None
        self.rows, self.longest = 0, 0.0  # the longest block write, in s

    def __call__(self, trace: Trace, start: int):
        if self.proc is None:
            if not self._start(trace):
                return
            start = 0
        rows = trace.rows[start:len(trace)]  # C-ordered: sent without a copy
        began = time.perf_counter()
        try:
            self.proc.stdin.write(rows)
            self.proc.stdin.flush()
        except BrokenPipeError:
            self._reap()  # raises the helper's own error, if it gave one
            raise
        self.longest = max(self.longest, time.perf_counter() - began)
        self.rows += len(rows)

    def _start(self, trace: Trace) -> bool:
        """Start the helper if the run is long enough and goes on."""
        n, width = len(trace), trace.rows.shape[1]
        if not (self.parallel and n * width >= WRITER_CELLS
                and n < self.max_outer and not trace.converged):
            return False
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-I", "-S", str(_WRITER), str(self.part), str(width),
                 _header_line(_trace_header(trace.final.size)), _row_format(width)],
                stdin=subprocess.PIPE, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        except OSError as exc:  # no helper: write after the run instead
            log.debug("trace writer not started: %s", exc)
            self.parallel = False
            return False
        with contextlib.suppress(ImportError, AttributeError, OSError):
            import fcntl  # a 1 MiB pipe (Linux): no block write waits for the helper's start
            fcntl.fcntl(self.proc.stdin.fileno(), fcntl.F_SETPIPE_SZ, 1 << 20)
        log.debug("trace writer started at n=%d (%d cells)", n, n * width)
        return True

    def _reap(self):
        """Close the pipe, wait for the helper, and raise OSError if it failed."""
        began = time.perf_counter()
        with contextlib.suppress(BrokenPipeError):
            self.proc.stdin.close()
        # stderr stays open until the helper is reaped, so that abort can
        # reap it after an interrupt anywhere in here
        err = self.proc.stderr.read().decode(errors="replace").strip()
        status = self.proc.wait()
        self.proc.stderr.close()
        log.debug("trace writer reaped: %d rows, exit status %d, parent waited %.1f ms, "
                  "longest block write %.1f ms", self.rows, status,
                  1e3 * (time.perf_counter() - began), 1e3 * self.longest)
        if status != 0:
            raise OSError(f"trace writer for {self.path} exited with status {status}: {err}")

    def finish(self, trace: Trace):
        if self.proc is None:
            _trace_csv(self.part, trace)
        else:
            self._reap()
            self.proc = None
        os.replace(self.part, self.path)

    def abort(self):
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            with contextlib.suppress(OSError):
                self._reap()
        # cleanup on the way out of an error, which it must not replace
        with contextlib.suppress(OSError):
            self.part.unlink(missing_ok=True)


def _out_dir(flag_out) -> Path:
    out = Path(flag_out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    solver_cfg = cfg.build_solver_config()
    out = _out_dir(args.out)
    path = out / "trace.csv"
    writer = _TraceWriter(path, solver_cfg)
    try:
        trace = run(solver_cfg, writer)
        writer.finish(trace)
    finally:
        writer.abort()  # a helper still running when the run failed
    status = "converged" if trace.converged else "max_outer reached"
    count = len(trace)
    print(
        f"{solver_cfg.scheme.name}: {status} after {count} "
        f"iteration{'s' if count != 1 else ''}; "
        f"final step_norm {trace.step_norm[-1]:.3e}; trace written to {path}"
    )
    return 0 if trace.converged else 2


def cmd_validate_schedule(args) -> int:
    cfg = load_config(args.config)
    solver_cfgs = [cfg.build_solver_config(scheme) for scheme in cfg.schemes()]
    reports = [validate(c, horizon=args.horizon) for c in solver_cfgs]
    width = max(len(label) for label, *_ in reports[0].rows())
    for c, report in zip(solver_cfgs, reports):
        print(f"scheme {c.scheme.name}, mapping {c.mapping.name!r}, schedule family "
              f"{c.schedule.family!r}, norm_p {c.norm.p:g}, horizon {report.horizon}")
        for label, status, value, at_n, detail in report.rows():
            val = "" if value is None else f" value={value:.6g}"
            at = "" if at_n is None else f" n={at_n}"
            print(f"  {label:<{width}}  {status.upper():<7}{val}{at}  {detail}")
    passed = all(report.passed for report in reports)
    print(f"overall: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 3


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    report = compare_schemes(cfg.build_solver_config(), cfg.schemes())
    out = _out_dir(args.out)
    (out / "compare.csv").write_text(report.to_csv())
    md = report.to_markdown()
    (out / "compare.md").write_text(md)
    print(md, end="")
    failures = [r for r in report.runs if r.failed]
    for r in failures:
        print(f"warning: scheme {r.scheme} failed: {r.error}", file=sys.stderr)
    print(f"reports written to {out / 'compare.csv'} and {out / 'compare.md'}")
    return 2 if failures else 0


def cmd_reproduce_table1(args) -> int:
    out = _out_dir(args.out)
    schedule = paper_schedule()
    contraction = make_scaling_contraction(0.5)
    traces = []
    for _, x1, _ in _TABLE1_STARTS:
        cfg = SolverConfig(
            scheme=SCHEMES["AGVIM"],
            mapping=make_flip_map(),
            schedule=schedule,
            x1=x1,
            contraction=contraction,
            max_outer=_TABLE1_ROWS,
            tol_step=0.0,  # run exactly 20 steps
        )
        traces.append(run(cfg))

    labels = [label for label, _, _ in _TABLE1_STARTS]
    norm2 = NormSpec(2.0)
    step_cols = [t.step_norm for t in traces]
    dist_cols = [[norm(x - t.final, norm2) for x in t.x[1:]] for t in traces]

    _write_csv(out / "table1_step_norm.csv", labels, step_cols)
    _write_csv(out / "table1_dist_to_final.csv", labels, dist_cols)
    for idx, t in enumerate(traces, start=1):
        _trace_csv(out / f"table1_trace_run{idx}.csv", t)

    def table(title, cols):
        lines = [title, "| n | " + " | ".join(labels) + " |", "|---|" + "---|" * len(labels)]
        for i in range(_TABLE1_ROWS):
            lines.append(f"| {i + 1} | " + " | ".join(f"{c[i]:.4f}" for c in cols) + " |")
        return "\n".join(lines)

    md_parts = [
        table("residual interpretation A: step norm ||x_(n+1) - x_n||, 4 decimals", step_cols),
        "",
        table("residual interpretation B: distance to final iterate ||x_(n+1) - x_21||, 4 decimals",
              dist_cols),
        "",
    ]

    # certificate of each run's final iterate, plus the tabulated
    # reference limits, against shared fixed-point samples; tolerance
    # 1e-6 absorbs the truncation of the fixed-length 20-step runs
    samples = sample_fixed_set_flip(10, seed=_TABLE1_VI_SEED)
    flip = make_flip_map()
    vi_summary = {}
    vi_lines = ["variational-inequality certificates (samples: origin + 9 fixed points):"]
    unconverged = []
    for (label, _, claimed), t in zip(_TABLE1_STARTS, traces):
        cert = check_vi(t.final, contraction, samples, norm2, tol=1e-6, mapping=flip)
        vi_lines.append(
            f"  {label}: final iterate ({t.final[0]:.6g}, {t.final[1]:.6g}) "
            f"-> {cert.verdict} (min value {cert.min_value:.6g})"
        )
        if not cert.holds and t.step_norm[-1] > 1e-6:
            unconverged.append((label, t.step_norm[-1]))
        claimed_cert = check_vi(claimed, contraction, samples, norm2, mapping=flip)
        at_origin = claimed_cert.values[0]  # samples[0] is the origin
        vi_lines.append(
            f"  {label}: reference limit ({claimed[0]:g}, {claimed[1]:g}) "
            f"-> {claimed_cert.verdict} (min value {claimed_cert.min_value:.6g}, "
            f"value at origin {at_origin:.6g})"
        )
        vi_summary[label] = {
            "final_iterate": [float(v) for v in t.final],
            "final_verdict": cert.verdict,
            "final_min_value": cert.min_value,
            "reference_limit": [float(v) for v in claimed],
            "reference_verdict": claimed_cert.verdict,
            "reference_min_value": claimed_cert.min_value,
            "reference_value_at_origin": at_origin,
        }
    discrepant = [lab for lab, d in vi_summary.items() if d["reference_verdict"] == "violated"]
    if discrepant:
        worst = min(vi_summary[lab]["reference_value_at_origin"] for lab in discrepant)
        vi_lines += [
            f"  note: the reference limits for {', '.join(discrepant)} violate the certificate"
            f" with f(x) = x/2 (value {worst:g} at sample (0,0));",
            "  the certificate selects the origin instead. The tabulated quantity and limits",
            "  of the reference experiment are therefore reported under both interpretations",
            "  above rather than matched cell by cell.",
        ]
    for label, step in unconverged:
        vi_lines.append(
            f"  note: the run from {label} is not yet converged after {_TABLE1_ROWS} steps "
            f"(last step norm {step:.2e}; its start lies inside the fixed region, where the "
            "anchor pull decays harmonically), so its certificate reflects truncation."
        )

    md_parts.extend(vi_lines)
    md = "\n".join(md_parts) + "\n"
    (out / "table1_rounded.md").write_text(md)
    (out / "table1_vi.json").write_text(json.dumps(vi_summary, indent=2, sort_keys=True) + "\n")
    print(md, end="")
    print(f"files written to {out}")
    return 0


def cmd_verify_mapping(args) -> int:
    cfg = load_config(args.config)
    mapping = cfg.build_mapping()
    report = verify_envelope(mapping, n_max=args.horizon, samples=args.samples, seed=args.seed)
    print(f"mapping {mapping.name!r}: {report}")
    return 0 if report.passed else 3


def _setup_logging():
    # the package logger's level, set on every call: a process that calls
    # main more than once honours each call's MIDPOINT_LOG
    level = {"debug": logging.DEBUG, "info": logging.INFO}.get(
        os.environ.get("MIDPOINT_LOG", "off").lower(), logging.CRITICAL + 1)
    log.setLevel(level)
    if level <= logging.INFO:
        logging.basicConfig()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and reused after it.
    Each command ``c`` runs the module's ``cmd_c`` (dashes as
    underscores), looked up by name when it is called."""
    parser = argparse.ArgumentParser(
        prog="midpointfp",
        description="Implicit-midpoint fixed-point iteration experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one configured experiment, write the trace CSV")
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("validate-schedule", help="check schedule conditions over a horizon")
    p.add_argument("--config", required=True)
    p.add_argument("--horizon", type=int, default=1000)

    p = sub.add_parser("compare", help="run several schemes on one problem")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=".")

    p = sub.add_parser("reproduce-table1",
                       help="rerun the built-in benchmark experiment (3 starts, 20 rows)")
    p.add_argument("--out", default=".")

    p = sub.add_parser("verify-mapping", help="sampling check of a mapping's envelope")
    p.add_argument("--config", required=True)
    p.add_argument("--horizon", type=int, default=20, help="largest power checked")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, required=True)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    log.info("command: %s", args.command)
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
    except (MidpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
