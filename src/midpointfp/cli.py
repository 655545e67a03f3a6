"""Command-line interface.

Commands: run, validate-schedule, compare, reproduce-table1,
verify-mapping. Exit codes: 0 success, 1 error/schema violation,
2 no convergence (run) or partial failure (compare), 3 failed
validation/verification. ``main`` is the one error boundary: a config
problem prints ``config error: ...`` on stderr, any other error
``error: ...``, and both exit 1. MIDPOINT_LOG=off|info|debug controls
verbosity.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .config import load_config
from .diagnostics import check_vi, compare_schemes, sample_fixed_set_flip
from .errors import ConfigError, MidpointError
from .mappings import make_contraction_half, make_flip_map, verify_envelope
from .schedules import paper_schedule, validate
from .solver import SCHEMES, SolverConfig, Trace, run, scheme_by_name
from .space import NormSpec, norm

log = logging.getLogger("midpointfp")

_TABLE1_STARTS = [
    ("x1=(0 1/3)", np.array([0.0, 1.0 / 3.0]), np.array([1.0, -1.0])),
    ("x1=(1/2 1)", np.array([0.5, 1.0]), np.array([0.0, 0.0])),
    ("x1=(-2 1)", np.array([-2.0, 1.0]), np.array([-1.0, 1.0])),
]
_TABLE1_ROWS = 20
_TABLE1_VI_SEED = 2020


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _trace_csv(path: Path, trace: Trace):
    header = (
        ["n"] + [f"x{i}" for i in range(trace.final.size)]
        + ["step_norm", "res_T", "res_Tn", "inner_iters", "q_n", "a_n", "b_n", "c_n", "k_n"]
    )
    count = len(trace)
    # every cell as a float: "%.17g" writes the integer columns n and
    # inner_iters without a decimal point, as int() would
    table = np.column_stack((
        np.arange(1, count + 1), trace.x[:count], trace.step_norm, trace.res_map,
        trace.res_power, trace.inner_iters, trace.q, trace.a, trace.b, trace.c, trace.k,
    ))
    row = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        # one row's Python floats at a time, so the table is not held twice
        fh.writelines(row % tuple(cells.tolist()) for cells in table)


def _out_dir(cfg_out, flag_out) -> Path:
    out = Path(flag_out) if flag_out else Path(cfg_out) if cfg_out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    solver_cfg = cfg.build_solver_config()
    out = _out_dir(cfg.out, args.out)
    trace = run(solver_cfg)
    path = out / "trace.csv"
    _trace_csv(path, trace)
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
    names = [s.strip() for s in args.schemes.split(",")] if args.schemes else list(cfg.scheme)
    schemes = [scheme_by_name(n) for n in names]
    deduped = []
    for s in schemes:
        if s in deduped:
            print(f"warning: duplicate scheme {s.name} ignored", file=sys.stderr)
        else:
            deduped.append(s)
    report = compare_schemes(cfg.build_solver_config(scheme=deduped[0]), deduped)
    out = _out_dir(cfg.out, args.out)
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
    out = _out_dir(None, args.out)
    schedule = paper_schedule()
    contraction = make_contraction_half()
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
            tol_inner=1e-12,
        )
        traces.append(run(cfg))

    labels = [label for label, _, _ in _TABLE1_STARTS]
    norm2 = NormSpec(2.0)
    step_cols = [t.step_norm for t in traces]
    dist_cols = [[norm(x - t.final, norm2) for x in t.x[1:]] for t in traces]

    header = ["n"] + labels
    _write_csv(out / "table1_step_norm.csv", header,
               [[i + 1] + [_fmt(c[i]) for c in step_cols] for i in range(_TABLE1_ROWS)])
    _write_csv(out / "table1_dist_to_final.csv", header,
               [[i + 1] + [_fmt(c[i]) for c in dist_cols] for i in range(_TABLE1_ROWS)])
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
    seed = args.seed if args.seed is not None else cfg.seed
    if seed is None:
        raise ConfigError("randomized verification requires an explicit seed "
                          "(--seed or config key 'seed')", key="seed")
    report = verify_envelope(mapping, n_max=args.horizon, samples=args.samples, seed=seed)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="midpointfp",
        description="Implicit-midpoint fixed-point iteration experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one configured experiment, write the trace CSV")
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("validate-schedule", help="check schedule conditions over a horizon")
    p.add_argument("--config", required=True)
    p.add_argument("--horizon", type=int, default=1000)
    p.set_defaults(func=cmd_validate_schedule)

    p = sub.add_parser("compare", help="run several schemes on one problem")
    p.add_argument("--config", required=True)
    p.add_argument("--schemes", default=None, help="comma-separated scheme names")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("reproduce-table1",
                       help="rerun the built-in benchmark experiment (3 starts, 20 rows)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reproduce_table1)

    p = sub.add_parser("verify-mapping", help="sampling check of a mapping's envelope")
    p.add_argument("--config", required=True)
    p.add_argument("--horizon", type=int, default=20, help="largest power checked")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify_mapping)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    log.info("command: %s", args.command)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
    except (MidpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
