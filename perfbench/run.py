"""Benchmark of midpointfp, driven through its CLI in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it imports the program from ``src/`` next to this
directory and reads and writes only inside that checkout (scratch files go
to ``.perfbench_out/``). Each op runs the workload's ``midpointfp``
commands through ``midpointfp.cli.main`` into a fresh output directory, then
checks every output against the benchmark's own oracles and reference
values. Ops repeat, one at a time in a closed loop, until ``--seconds`` have
passed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics of the traced
ones (see tracer.py). The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

# one BLAS thread and no logging, set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["MIDPOINT_LOG"] = "off"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 15
P90_MIN_OPS = 100  # the 90th percentile needs ten ops beyond it
UNITS = {"solver.inner_per_step": "ratio", "mappings.evals_per_step": "ratio",
         "solver.step_err_max": "tol_inner", "cli.bytes_written": "B"}
# Times of layers that only the reports workload calls. They read exactly 0
# on the other workloads, so they are printed but kept out of the JSON line.
PRINTED_ONLY = {"diagnostics.compare_s", "diagnostics.check_vi_s",
                "mappings.verify_envelope_s", "schedules.validate_s"}

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import midpointfp
from midpointfp.config import load_config
load_config(sys.argv[2]).build_solver_config()
print(time.perf_counter() - t0)
"""


@dataclass
class Op:
    seconds: float
    traced: bool = False
    steps: int = 0
    problems: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    times: dict = field(default_factory=dict)
    trace: dict | None = None  # Tracer.dump() of a traced op


def run_op(workload, out: Path, tracer=None) -> Op:
    """One op: the workload's commands, timed, then the output check."""
    import midpointfp.cli

    out.mkdir(parents=True)
    stdouts, problems = [], []
    start = time.perf_counter()
    with tracer or contextlib.nullcontext():
        try:
            for argv, expected in workload.argv(out):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    code = midpointfp.cli.main(argv)
                stdouts.append(buf.getvalue())
                if code != expected:
                    problems.append(f"{argv[0]} exited {code}, expected {expected}")
        except Exception as exc:  # any exception fails the op, not the benchmark
            problems.append(f"{type(exc).__name__}: {exc}")
    op = Op(seconds=time.perf_counter() - start, traced=tracer is not None, problems=problems)
    step_err_max = 0.0
    if not problems:
        try:
            outcome = workload.check(out, stdouts)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            op.problems.append(f"output check could not read the outputs: {exc}")
        else:
            op.steps, step_err_max = outcome.steps, outcome.step_err_max
            op.problems.extend(outcome.problems)
            single_run = len(workload.commands) == 1 and workload.commands[0][0][0] == "run"
            if tracer is not None and single_run and sum(tracer.inner_iters) != outcome.inner_iters_written:
                op.problems.append(
                    f"traced inner iterations {sum(tracer.inner_iters)} != "
                    f"{outcome.inner_iters_written} in trace.csv")
    if tracer is not None:
        written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        op.counts = {**tracer.counts(), "cli.bytes_written": written,
                     "solver.step_err_max": step_err_max}
        op.times = tracer.times()
        op.trace = tracer.dump()
    shutil.rmtree(out)
    gc.collect()
    return op


def measure(workload, seconds: float, work: Path, trace: bool):
    """Ops until ``seconds`` have passed; with ``trace``, untraced and traced
    alternate. Untraced runs also take SETUP_REPEATS set-up times, spread
    evenly over the window so that they see the same host as the ops."""
    from tracer import Tracer

    ops, setup = [], []
    begin = time.perf_counter()
    deadline = begin + seconds
    while True:
        tracer = Tracer() if trace and len(ops) % 2 == 1 else None
        start = time.perf_counter()
        ops.append(run_op(workload, work / f"op{len(ops)}", tracer))
        now = time.perf_counter()
        if not trace and now >= begin + len(setup) * seconds / SETUP_REPEATS:
            setup.append(setup_seconds(workload.config))
        # stop before an op that would likely end past the deadline
        if now + (now - start) > deadline and (not trace or len(ops) >= 2):
            break
    while not trace and len(setup) < SETUP_REPEATS:
        setup.append(setup_seconds(workload.config))
    return ops, setup


def alloc_peak_mb(workload, work: Path) -> tuple[float, Op]:
    from tracer import AllocPeak

    with AllocPeak() as peak:
        op = run_op(workload, work / "alloc")
    return peak.peak / 2**20, op


def setup_seconds(config: Path) -> float:
    """Import of midpointfp plus load_config and build_solver_config in a
    fresh interpreter: what every CLI command pays before it works."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(config.resolve())],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def e2e_metrics(ops, setup):
    """Op time and step rate of the run's fastest op, the median set-up time
    and the process's peak RSS.

    The fastest op, not the median, carries the op time: on the shared
    host the benchmark was defined on, speed switches between states about
    1.6x apart for seconds to minutes, so a run's median depends on how much
    of it the slow state covered and varied by up to 27 % between runs,
    while its fastest op varied by 5-10 %. The median and 90th percentile
    are printed with the other quantiles.
    """
    metrics = {
        "op_s_min": (min(op.seconds for op in ops), "s"),
        "steps_per_s": (max(op.steps / op.seconds for op in ops), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def layer_metrics(ops, alloc_mb):
    """Counts of the first traced op, and medians of the traced ops' times."""
    traced = [op for op in ops if op.traced]
    untraced = [op for op in ops if not op.traced]
    metrics = {name: (value, UNITS.get(name, "count")) for name, value in traced[0].counts.items()}
    for name in traced[0].times:
        metrics[name] = (statistics.median(op.times[name] for op in traced), "s")
    metrics["mappings.alloc_peak_mb"] = (alloc_mb, "MB")
    metrics["tracing.overhead"] = (
        statistics.median(op.seconds for op in traced)
        / statistics.median(op.seconds for op in untraced), "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "midpointfp" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'midpointfp'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import midpointfp

    if Path(midpointfp.__file__).resolve().parent != SRC / "midpointfp":
        print(f"perfbench: imported midpointfp from {midpointfp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        ops, setup = measure(workload, args.seconds, work, trace=bool(args.trace))
        ops_all = ops
        if args.trace:
            alloc_mb, alloc_op = alloc_peak_mb(workload, work)
            ops_all = ops + [alloc_op]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [op for op in ops_all if op.problems]
    correct = not failed
    print(f"{args.workload}: seed {args.seed}, {len(ops_all)} ops")
    for op in failed[:5]:
        print(f"  FAILED op: {'; '.join(op.problems)[:500]}")
    print(f"  error_rate = {len(failed) / len(ops_all):.6g} ({len(failed)}/{len(ops_all)} ops failed)")
    if args.trace:
        traced = [op for op in ops if op.traced]
        differing = sorted({name for op in traced for name, v in op.counts.items()
                            if v != traced[0].counts[name]})
        if differing:
            correct = False
            print(f"  per-layer counts differ between traced ops: {differing}")
        metrics = layer_metrics(ops, alloc_mb)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps([op.trace for op in traced]))
        print(f"  {len(traced)} traced ops, {len(ops) - len(traced)} untraced, 1 under tracemalloc; "
              f"spans in {spans.relative_to(ROOT)}")
        if traced[0].trace["absent"]:
            print(f"  absent layers (reported as 0): {', '.join(traced[0].trace['absent'])}")
        print(f"  errors.raised by class: {traced[0].trace['errors']}")
    else:
        metrics = e2e_metrics(ops, setup)
        times = [op.seconds for op in ops]
        q = statistics.quantiles(times, n=20, method="inclusive")
        print(f"  op_s quantiles over {len(ops)} ops: min {min(times):.6g} p10 {q[1]:.6g} "
              f"p25 {q[4]:.6g} p75 {q[14]:.6g} max {max(times):.6g}")
        print(f"  op_s_p50 = {q[9]:.6g} s over {len(ops)} ops")
        if len(ops) >= P90_MIN_OPS:
            print(f"  op_s_p90 = {statistics.quantiles(times, n=10)[-1]:.6g} s over {len(ops)} ops")
        else:
            print(f"  op_s_p90 not reported: {len(ops)} ops < {P90_MIN_OPS}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    metrics = {k: v for k, v in metrics.items() if k not in PRINTED_ONLY}
    print(json.dumps({"correct": correct, "attempted": len(ops_all), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
