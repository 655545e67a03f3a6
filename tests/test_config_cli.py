import csv
import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from midpointfp import cli, config
from midpointfp.cli import _trace_csv, main
from midpointfp.config import load_config, parse_config
from midpointfp.errors import ConfigError
from midpointfp.solver import SolverConfig, Trace
from midpointfp.space import NormSpec

BENCHMARK = {
    "mapping": {"kind": "flip"},
    "contraction": {"kind": "half"},
    "schedule": {"family": "paper"},
    "scheme": "AGVIM",
    "x1": [0.0, 1.0 / 3.0],
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestConfigParsing:
    def test_round_trip_identity(self):
        cfg = parse_config(dict(BENCHMARK))
        again = parse_config(json.loads(cfg.to_json()))
        assert cfg == again
        # only the keys the file set, and the scheme always as a list
        assert cfg.to_dict() == {**BENCHMARK, "scheme": ["AGVIM"]}

    def test_settings_left_out_take_solver_defaults(self):
        # BENCHMARK sets none of the five solver settings
        built = parse_config(dict(BENCHMARK)).build_solver_config()
        defaults = {f.name: f.default for f in dataclasses.fields(SolverConfig)}
        for name in ("tol_step", "tol_inner", "max_outer", "max_inner"):
            assert getattr(built, name) == defaults[name], name
        assert built.norm == NormSpec()

    def test_round_trip_with_all_fields(self):
        data = {
            "mapping": {"kind": "affine", "A": [[0.5, 0.0], [0.0, 0.25]], "b": [0.1, -0.2]},
            "contraction": {"kind": "scale", "factor": 0.3},
            "schedule": {"family": "custom", "table": [[0.5, 0.25, 0.25, 1.0]] * 4},
            "scheme": ["VIM", "GVIM"],
            "x1": [1.0, 2.0],
            "norm_p": 3.0,
            "tol_step": 1e-7,
            "tol_inner": 1e-11,
            "max_outer": 4,
            "max_inner": 500,
        }
        cfg = parse_config(data)
        assert parse_config(cfg.to_dict()) == cfg

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config({**BENCHMARK, "mystery": 1})
        assert "mystery" in str(err.value)

    def test_unknown_nested_key_named(self):
        bad = dict(BENCHMARK)
        bad["schedule"] = {"family": "paper", "gamma": 2}
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert "gamma" in str(err.value)

    def test_missing_required_key(self):
        bad = {k: v for k, v in BENCHMARK.items() if k != "x1"}
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert "x1" in str(err.value)

    def test_unknown_scheme_and_family(self):
        with pytest.raises(ConfigError):
            parse_config({**BENCHMARK, "scheme": "WARP"})
        bad = dict(BENCHMARK)
        bad["schedule"] = {"family": "fancy"}
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_builders(self):
        cfg = parse_config(dict(BENCHMARK))
        solver_cfg = cfg.build_solver_config()
        assert solver_cfg.scheme.name == "AGVIM"
        assert solver_cfg.mapping.name == "flip"
        assert solver_cfg.schedule.family == "paper"
        np.testing.assert_allclose(solver_cfg.x1, [0.0, 1.0 / 3.0])

    def test_bad_norm_exponent_is_config_error(self):
        cfg = parse_config({**BENCHMARK, "norm_p": 0.5})
        with pytest.raises(ConfigError):
            cfg.build_solver_config()

    def test_contraction_kinds(self):
        cfg = parse_config({**BENCHMARK, "contraction": {"kind": "scale", "factor": 0.4}})
        assert cfg.build_contraction().alpha == 0.4
        cfg = parse_config({
            **BENCHMARK,
            "contraction": {"kind": "affine", "A": [[0.2, 0.0], [0.0, 0.2]], "b": [1.0, 1.0]},
        })
        assert cfg.build_contraction().alpha == pytest.approx(0.2, rel=1e-6)
        with pytest.raises(ConfigError):
            parse_config({
                **BENCHMARK,
                "contraction": {"kind": "affine", "A": [[2.0, 0.0], [0.0, 2.0]], "b": [0.0, 0.0]},
            }).build_contraction()


class TestRunCommand:
    def test_benchmark_run_converges(self, tmp_path, capsys):
        path = write_config(tmp_path, BENCHMARK)
        code = main(["run", "--config", path, "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "converged" in out
        header, rows = read_csv(tmp_path / "trace.csv")
        assert header == ["n", "x0", "x1", "step_norm", "res_T", "res_Tn",
                          "inner_iters", "q_n", "a_n", "b_n", "c_n", "k_n"]
        assert len(rows) >= 10
        assert float(rows[-1][3]) <= 1e-8
        # full precision: the 17-significant-digit text round-trips exactly
        for cell in (rows[2][3], rows[4][2], rows[5][9]):
            assert cell == format(float(cell), ".17g")

    def test_trace_csv_matches_per_cell_formatting(self, tmp_path):
        # the writer formats whole rows at once; the reference is the
        # per-cell csv writer it replaced, on cells rounding could upset
        special = [0.1, -0.0, 1e300, 5e-324, 2.0 / 3.0, math.nan, math.inf, -7.0]
        count = len(special)
        x = np.array([special + [0.0], special[::-1] + [0.0], [1.0] * (count + 1)]).T
        steps = np.column_stack((special, special[::-1], np.full(count, math.nan),
                                 [1, 35, 10_000] + [2] * 5, special, special, np.zeros(count),
                                 special[::-1], np.ones(count)))
        steps = np.vstack((steps, np.full(steps.shape[1], math.nan)))  # the row of x_{N+1}
        trace = Trace(rows=np.column_stack((np.arange(1, count + 2), x, steps)),
                      stop="max_outer")
        _trace_csv(tmp_path / "trace.csv", trace)
        with open(tmp_path / "want.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["n", "x0", "x1", "x2", "step_norm", "res_T", "res_Tn",
                             "inner_iters", "q_n", "a_n", "b_n", "c_n", "k_n"])
            cols = (trace.step_norm, trace.res_map, trace.res_power, trace.inner_iters,
                    trace.q, trace.a, trace.b, trace.c, trace.k)
            for n, x, sn, rm, rp, it, *rest in zip(range(1, count + 1), trace.x, *cols):
                writer.writerow([n] + [format(float(v), ".17g") for v in (*x, sn, rm, rp)]
                                + [int(it)] + [format(float(v), ".17g") for v in rest])
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_contraction_half_mapping_kind_is_rejected(self, tmp_path, capsys):
        # 1/2 I is spelled as an affine map (next test); the old kind is unknown
        path = write_config(tmp_path, {**BENCHMARK, "mapping": {"kind": "contraction_half"}})
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "kind" in err
        assert not (tmp_path / "trace.csv").exists()

    def test_affine_half_identity_runs_vim_to_zero(self, tmp_path, capsys):
        # the README's spelling of 1/2 I: its auto envelope max(1, 1/2)^n is 1
        data = {**BENCHMARK, "scheme": "VIM", "x1": [1.0, -2.0], "schedule": {"family": "power"},
                "mapping": {"kind": "affine", "A": [[0.5, 0], [0, 0.5]], "b": [0, 0]}}
        path = write_config(tmp_path, data)
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 0
        assert "converged" in capsys.readouterr().out
        header, rows = read_csv(tmp_path / "trace.csv")
        table = np.array(rows, dtype=float)
        assert np.all(table[:, header.index("k_n")] == 1.0)
        assert np.linalg.norm(table[-1, 1:3]) <= 1e-7

    def test_a_negative_operator_coefficient_writes_the_solved_step(self, tmp_path, capsys):
        # c_n = -0.4: q_n = |cT| k_p / 2 = 0.2, and x_2 is the dense solve of
        # (I - (cT/2) A) x = (cf/2 + cx) x_1 + (cT/2) A x_1
        A = np.array([[0.0, -0.99], [0.99, 0.0]])
        data = {**BENCHMARK, "scheme": "GVIM", "x1": [1.0, 2.0], "max_outer": 2, "tol_step": 0.0,
                "mapping": {"kind": "affine", "A": A.tolist(), "b": [0.0, 0.0]},
                "schedule": {"family": "custom", "table": [[0.5, 0.9, -0.4, 1.0]] * 2}}
        path = write_config(tmp_path, data)
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 2
        header, rows = read_csv(tmp_path / "trace.csv")
        row = rows[1]
        assert row[0] == "2" and float(row[header.index("q_n")]) == 0.2
        x1 = np.array([1.0, 2.0])
        x2 = np.linalg.solve(np.eye(2) + 0.2 * A, (0.25 + 0.9) * x1 - 0.2 * A @ x1)
        assert np.linalg.norm(np.array(row[1:3], dtype=float) - x2) <= 1e-12

    def test_illposed_config_exits_one_citing_n(self, tmp_path, capsys):
        data = dict(BENCHMARK)
        data["schedule"] = {"family": "custom", "table": [[0.1, 0.0, 0.9, 4.0]] * 5}
        data["max_outer"] = 5
        path = write_config(tmp_path, data)
        code = main(["run", "--config", path, "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "n=1" in err

    def test_fixed_start_single_iteration(self, tmp_path, capsys):
        data = {**BENCHMARK, "x1": [0.0, 0.0]}
        path = write_config(tmp_path, data)
        code = main(["run", "--config", path, "--out", str(tmp_path)])
        assert code == 0
        assert "after 1 iteration" in capsys.readouterr().out

    def test_max_outer_exit_code(self, tmp_path):
        data = {**BENCHMARK, "x1": [-2.0, 1.0], "max_outer": 50}
        path = write_config(tmp_path, data)
        code = main(["run", "--config", path, "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("x1, settings, words, code", [
        ([0.0, 1.0 / 3.0], {}, "converged after 16 iterations", 0),
        ([0.0, 0.0], {"tol_step": 0.0}, "converged after 1 iteration", 0),
        ([-2.0, 1.0], {"max_outer": 5, "tol_step": 0.0}, "max_outer reached after 5 iterations", 2),
    ], ids=["tol_step", "stationary", "max_outer"])
    def test_each_stop_keeps_its_words_and_exit_code(self, tmp_path, capsys, x1, settings,
                                                     words, code):
        path = write_config(tmp_path, {**BENCHMARK, "x1": x1, **settings})
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == code
        assert capsys.readouterr().out.startswith(f"AGVIM: {words}; final step_norm ")

    def test_debug_log_names_the_stop_on_stderr(self, tmp_path, capsys):
        argv = ["run", "--config", write_config(tmp_path, BENCHMARK), "--out", str(tmp_path)]
        assert main(argv) == 0
        src = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run([sys.executable, "-m", "midpointfp.cli", *argv],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src, "MIDPOINT_LOG": "debug"})
        assert (done.returncode, done.stdout) == (0, capsys.readouterr().out)
        assert "DEBUG:midpointfp:run stopped: tol_step after 16 steps" in done.stderr.splitlines()

    def test_schema_violation_exits_one(self, tmp_path, capsys):
        path = write_config(tmp_path, {**BENCHMARK, "typo_key": True})
        assert main(["run", "--config", path]) == 1
        assert "typo_key" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 1
        assert "invalid JSON" in capsys.readouterr().err


class TestValidateScheduleCommand:
    def test_benchmark_schedule_passes_with_warning(self, tmp_path, capsys):
        path = write_config(tmp_path, BENCHMARK)
        code = main(["validate-schedule", "--config", path, "--horizon", "1000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "WARN" in out
        assert "overall: PASS" in out

    def test_convergent_series_fails(self, tmp_path, capsys):
        data = dict(BENCHMARK)
        data["schedule"] = {"family": "power", "s": 2.0, "b_const": 0.0}
        path = write_config(tmp_path, data)
        code = main(["validate-schedule", "--config", path, "--horizon", "500"])
        assert code == 3
        assert "FAIL" in capsys.readouterr().out

    def test_simplex_violation_names_n(self, tmp_path, capsys):
        rows = [[0.5, 0.25, 0.25, 1.0]] * 30
        rows[6] = [0.5, 0.26, 0.25, 1.0]  # n = 7
        data = dict(BENCHMARK)
        data["schedule"] = {"family": "custom", "table": rows}
        path = write_config(tmp_path, data)
        code = main(["validate-schedule", "--config", path, "--horizon", "30"])
        assert code == 3
        assert "n=7" in capsys.readouterr().out

    def test_zero_a_n_fails_condition_iii_naming_n(self, tmp_path, capsys):
        # (k_n^2 - 1)/a_n is infinite at a zero a_n, not a ZeroDivisionError
        rows = [[1.0 / n, 0.0, 1.0 - 1.0 / n, 1.0] for n in range(1, 21)]
        rows[15] = [0.0, 0.0, 1.0, 1.0]  # n = 16
        path = write_config(tmp_path, {**BENCHMARK, "x1": [0.5, 1.0],
                                       "schedule": {"family": "custom", "table": rows}})
        code = main(["validate-schedule", "--config", path, "--horizon", "20"])
        out = capsys.readouterr().out
        assert code == 3
        assert "ratio increases at n=16" in out
        assert out.endswith("overall: FAIL\n")

    def test_mapping_envelope_fails_what_run_refuses(self, tmp_path, capsys):
        # the paper schedule alone is well posed, but A's envelope 1.9^n
        # gives q_3 = 1.714750, where run stops; from n = 1107 on, 1.9^n
        # overflows a float and reads inf
        data = {**BENCHMARK, "mapping": {"kind": "affine", "A": [[1.9, 0.0], [0.0, 0.1]],
                                         "b": [0.0, 0.0]}, "x1": [1.0, 1.0]}
        path = write_config(tmp_path, data)
        code = main(["validate-schedule", "--config", path, "--horizon", "2000"])
        out = capsys.readouterr().out
        assert code == 3
        assert "q_n >= 1 first at n=3" in out
        assert "overall: FAIL" in out
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 1
        assert "q_n = 1.714750 >= 1" in capsys.readouterr().err

    def test_flip_passes_in_the_max_norm(self, tmp_path, capsys):
        # the flip map's envelope is a 2-norm declaration: conditions (iii)
        # and the normal-structure bound read it unscaled, q_n in norm_p
        path = write_config(tmp_path, {**BENCHMARK, "norm_p": math.inf})
        assert main(["validate-schedule", "--config", path, "--horizon", "1000"]) == 0
        out = capsys.readouterr().out
        assert "norm_p inf, horizon 1000" in out
        assert "overall: PASS" in out

    def test_every_configured_scheme_is_checked(self, tmp_path, capsys):
        path = write_config(tmp_path, {**BENCHMARK, "scheme": ["GVIM", "AGVIM"]})
        assert main(["validate-schedule", "--config", path, "--horizon", "100"]) == 0
        out = capsys.readouterr().out
        assert out.count("mapping 'flip', schedule family 'paper', norm_p 2, horizon 100") == 2
        assert out.index("scheme GVIM,") < out.index("scheme AGVIM,")


    @pytest.mark.parametrize("norm_p", [2.0, math.inf])
    def test_the_mapping_is_built_once_for_every_scheme(self, tmp_path, capsys, monkeypatch,
                                                        norm_p):
        # each scheme's config is derived from one SolverConfig, and its
        # report is the one a config naming that scheme alone gives
        built = []
        make_affine = config.make_affine
        monkeypatch.setattr(config, "make_affine",
                            lambda *args, **kw: built.append(args) or make_affine(*args, **kw))
        schemes = ["IMR", "VIM", "GVIM", "AGVIM", "AVIM63"]
        data = {**BENCHMARK, "x1": [1.0, 1.0], "norm_p": norm_p,
                "mapping": {"kind": "affine", "A": [[0.6, -0.8], [0.8, 0.6]], "b": [0.5, 0.0]}}
        argv = ["validate-schedule", "--horizon", "300", "--config"]
        code = main(argv + [write_config(tmp_path, {**data, "scheme": schemes})])
        out = capsys.readouterr().out
        assert len(built) == 1
        alone = []
        for scheme in schemes:
            assert main(argv + [write_config(tmp_path, {**data, "scheme": scheme})]) in (0, 3)
            alone.append(capsys.readouterr().out.rsplit("overall: ", 1))
        assert len(built) == 1 + len(schemes)
        passed = all(verdict == "PASS\n" for _, verdict in alone)
        assert out == "".join(report for report, _ in alone) + (
            f"overall: {'PASS' if passed else 'FAIL'}\n")
        assert code == (0 if passed else 3)


class TestCompareCommand:
    def test_three_scheme_csv(self, tmp_path):
        data = {**BENCHMARK, "scheme": ["VIM", "GVIM", "AGVIM"], "max_outer": 30,
                "tol_step": 1e-14, "tol_inner": 1e-15}
        path = write_config(tmp_path, data)
        code = main(["compare", "--config", path, "--out", str(tmp_path)])
        assert code == 0
        header, rows = read_csv(tmp_path / "compare.csv")
        assert header == ["n", "step_norm_AGVIM", "step_norm_GVIM", "step_norm_VIM"]
        assert len(rows) == 30
        assert (tmp_path / "compare.md").exists()

    def test_partial_failure_exits_two(self, tmp_path, capsys):
        data = {
            "mapping": {"kind": "affine", "A": [[1.3, 0.0], [0.0, 1.3]], "b": [0.0, 0.0]},
            "contraction": {"kind": "scale", "factor": 0.4},
            "schedule": {"family": "custom",
                         "table": [[1.0 / n, 0.0, 1.0 - 1.0 / n, 1.3 ** n] for n in range(1, 31)]},
            "scheme": ["AGVIM", "VIM"],
            "x1": [0.5, 0.5],
            "max_outer": 30,
            "tol_step": 1e-14,
            "tol_inner": 1e-15,
        }
        path = write_config(tmp_path, data)
        code = main(["compare", "--config", path, "--out", str(tmp_path)])
        assert code == 2
        assert "failed" in capsys.readouterr().err

    def test_single_scheme_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, {**BENCHMARK, "scheme": ["VIM"], "max_outer": 10})
        assert main(["compare", "--config", path]) == 1
        assert capsys.readouterr().err == "error: need at least two schemes to compare\n"


class TestReproduceCommand:
    def test_emits_tables_and_certificates(self, tmp_path, capsys):
        code = main(["reproduce-table1", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        header, rows = read_csv(tmp_path / "table1_step_norm.csv")
        assert len(rows) == 20
        assert header[0] == "n"
        assert len(header) == 4
        _, dist_rows = read_csv(tmp_path / "table1_dist_to_final.csv")
        assert len(dist_rows) == 20
        assert float(dist_rows[-1][1]) == 0.0  # distance to final at the last row
        for i in (1, 2, 3):
            assert (tmp_path / f"table1_trace_run{i}.csv").exists()
        assert "0.0000" in out
        # the certificate exposes the inconsistent reference limits
        assert "violated" in out
        assert "reference limit" in out
        vi = json.loads((tmp_path / "table1_vi.json").read_text())
        assert vi["x1=(0 1/3)"]["reference_value_at_origin"] == -1.0
        assert vi["x1=(0 1/3)"]["reference_verdict"] == "violated"
        assert vi["x1=(0 1/3)"]["final_verdict"] == "holds"
        assert vi["x1=(1/2 1)"]["reference_verdict"] == "holds"
        # the third run is still far from its limit after 20 steps
        assert vi["x1=(-2 1)"]["final_verdict"] == "violated"
        assert "truncation" in out

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["reproduce-table1", "--out", str(out1)]) == 0
        assert main(["reproduce-table1", "--out", str(out2)]) == 0
        for name in ["table1_step_norm.csv", "table1_dist_to_final.csv",
                     "table1_rounded.md", "table1_vi.json", "table1_trace_run1.csv"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestVerifyMappingCommand:
    def test_flip_passes(self, tmp_path, capsys):
        path = write_config(tmp_path, BENCHMARK)
        code = main(["verify-mapping", "--config", path, "--seed", "3"])
        assert code == 0
        assert "pass" in capsys.readouterr().out

    def test_check_is_stated_in_the_two_norm(self, tmp_path, capsys):
        # envelope 1 holds for a rotation in the 2-norm, not in norm_p = inf;
        # the run scales it, and the report says which norm it checked
        c = 0.5 ** 0.5
        data = {**BENCHMARK, "norm_p": math.inf, "x1": [1.0, 0.3],
                "mapping": {"kind": "affine", "A": [[c, -c], [c, c]], "b": [0.0, 0.0],
                            "envelope": "unit"}}
        path = write_config(tmp_path, data)
        assert main(["verify-mapping", "--config", path, "--seed", "3"]) == 0
        assert "envelope check: pass in the 2-norm (" in capsys.readouterr().out

    def test_doubling_with_unit_envelope_fails(self, tmp_path, capsys):
        data = dict(BENCHMARK)
        data["mapping"] = {"kind": "affine", "A": [[2.0, 0.0], [0.0, 2.0]],
                           "b": [0.0, 0.0], "envelope": "unit"}
        path = write_config(tmp_path, data)
        code = main(["verify-mapping", "--config", path, "--seed", "3", "--horizon", "3"])
        assert code == 3
        assert "FAIL" in capsys.readouterr().out

    def test_doubling_with_auto_envelope_passes(self, tmp_path):
        data = dict(BENCHMARK)
        data["mapping"] = {"kind": "affine", "A": [[2.0, 0.0], [0.0, 2.0]], "b": [0.0, 0.0]}
        path = write_config(tmp_path, data)
        assert main(["verify-mapping", "--config", path, "--seed", "3", "--horizon", "3"]) == 0

    def test_overflowing_auto_envelope_reads_as_inf(self, tmp_path, capsys):
        # ||A||_2 = 10, so the auto envelope 10.0 ** n overflows from n = 309 on
        data = {**BENCHMARK, "mapping": {"kind": "affine", "A": [[0.0, 10.0], [0.0, 0.0]],
                                         "b": [0.0, 0.0]}}
        path = write_config(tmp_path, data)
        code = main(["verify-mapping", "--config", path, "--horizon", "400",
                     "--samples", "5", "--seed", "1"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert "envelope check: pass" in out

    def test_overflowing_distance_fails_without_a_warning(self, tmp_path, capsys):
        # the squared distances overflow, which numpy warns about on stderr
        data = {**BENCHMARK, "mapping": {"kind": "affine", "A": [[1e200, 0.0], [0.0, 1e200]],
                                         "b": [0.0, 0.0]}}
        path = write_config(tmp_path, data)
        code = main(["verify-mapping", "--config", path, "--horizon", "1",
                     "--samples", "20", "--seed", "1"])
        out, err = capsys.readouterr()
        assert (code, err) == (3, "")
        assert "envelope check: FAIL" in out

    @pytest.mark.xfail(raises=AssertionError, strict=True,
                       reason="sampling misses the expanding direction of a non-normal A "
                              "(ROADMAP item 12): a declared envelope below ||A_n|| passes")
    def test_a_non_normal_map_with_a_unit_envelope_fails(self, tmp_path, capsys):
        # ||A||_2 = 2.118 > k_1 = 1, yet the worst of 200 sampled pairs has excess -0.197
        A = 0.5 * np.eye(60)
        A[0, 1] = 2.0
        data = {**BENCHMARK, "x1": [1.0] * 60,
                "mapping": {"kind": "affine", "A": A.tolist(), "b": [0.0] * 60,
                            "envelope": "unit"}}
        path = write_config(tmp_path, data)
        code = main(["verify-mapping", "--config", path, "--horizon", "20", "--samples", "200",
                     "--seed", "7"])
        assert code == 3
        assert "envelope check: FAIL" in capsys.readouterr().out

    def test_seed_required(self, tmp_path, capsys):
        # a usage error of the argument parser, as a missing --config is
        path = write_config(tmp_path, BENCHMARK)
        with pytest.raises(SystemExit) as err:
            main(["verify-mapping", "--config", path])
        assert err.value.code == 2
        assert "the following arguments are required: --seed" in capsys.readouterr().err


# a valid value for each key a mapping kind requires
MAPPING_VALUES = {"A": [[0.5, 0.0], [0.0, 0.5]], "b": [0.0, 0.0]}


@pytest.mark.parametrize("kind", sorted(config._SECTIONS["mapping"][1]))
def test_every_config_mapping_has_a_closed_form_power(kind):
    # why a config has no power_cap key: SolverConfig.power_cap only bounds
    # the n-fold powers of a mapping without a closed form
    keys = config._SECTIONS["mapping"][1][kind][0]
    section = {"kind": kind, **{k: MAPPING_VALUES[k] for k, required in keys.items() if required}}
    mapping = parse_config({**BENCHMARK, "mapping": section}).build_mapping()
    assert mapping.power is not None, (
        f"mapping kind {kind!r} has no closed-form power: give the config a power_cap "
        "setting again, so that a file can bound its n-fold powers")


def test_config_file_loader(tmp_path):
    path = write_config(tmp_path, BENCHMARK)
    cfg = load_config(path)
    assert cfg.scheme == ("AGVIM",)


AFFINE = {"kind": "affine", "A": [[0.5, 0.0], [0.0, 0.5]], "b": [0.0, 0.0]}
MALFORMED = {
    "x1 string": ({"x1": ["a", 1]}, "x1"),
    "x1 nested": ({"x1": [[1, 2]]}, "x1"),
    "x1 huge integer": ({"x1": [10**400, 1]}, "x1"),
    "ragged A": ({"mapping": {**AFFINE, "A": [[0.5, 0.0], [0.5]]}}, "A"),
    "factor": ({"contraction": {"kind": "scale", "factor": "abc"}}, "factor"),
    "power s": ({"schedule": {"family": "power", "s": "z"}}, "s"),
    "table cell": ({"schedule": {"family": "custom", "table": [["x", 0.0, 0.5, 1.0]]}}, "table"),
    "max_outer fraction": ({"max_outer": 2.7}, "max_outer"),
    "max_inner bool": ({"max_inner": True}, "max_inner"),
    # keys a config no longer takes are rejected by name, whatever their value
    "power_cap fraction": ({"power_cap": 1.5}, "power_cap"),
    "seed bool": ({"seed": False}, "seed"),
    "seed negative": ({"seed": -3}, "seed"),
    "out object": ({"out": {"a": 1}}, "out"),
    "out number": ({"out": 5}, "out"),
    "b not finite": ({"mapping": {**AFFINE, "b": [float("nan"), 0.0]}}, "b"),
    "scheme number": ({"scheme": 5}, "scheme"),
}


@pytest.mark.parametrize("command", [["run"], ["verify-mapping", "--seed", "1"],
                                     ["validate-schedule"]], ids=lambda c: c[0])
@pytest.mark.parametrize("case", MALFORMED, ids=list(MALFORMED))
def test_malformed_value_is_config_error(tmp_path, capsys, monkeypatch, command, case):
    monkeypatch.chdir(tmp_path)  # a run that wrongly succeeds writes here
    override, key = MALFORMED[case]
    path = write_config(tmp_path, {**BENCHMARK, **override})
    assert main([command[0], "--config", path] + command[1:]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert repr(key) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [["run"], ["compare"], ["validate-schedule"]],
                         ids=lambda c: c[0])
def test_repeated_scheme_is_a_config_error(tmp_path, capsys, monkeypatch, command):
    # the config's scheme list is the one way to name schemes, and names each once
    monkeypatch.chdir(tmp_path)  # a run that wrongly succeeds writes here
    path = write_config(tmp_path, {**BENCHMARK, "scheme": ["VIM", "VIM", "GVIM"]})
    assert main(command + ["--config", path]) == 1
    out, err = capsys.readouterr()
    assert out == "" and os.listdir(tmp_path) == ["config.json"]
    assert err == "config error: 'scheme' names VIM more than once\n"


@pytest.mark.parametrize("command", ["run", "compare"])
def test_output_directory_is_only_the_flag(tmp_path, capsys, monkeypatch, command):
    # --out, default ".", is the one place the output directory is set
    monkeypatch.chdir(tmp_path)
    data = {**BENCHMARK, "scheme": ["VIM", "AGVIM"]}
    path = write_config(tmp_path, {**data, "out": "results"}, name="with_out.json")
    assert main([command, "--config", path]) == 1
    assert capsys.readouterr().err == "config error: unknown key 'out' in config\n"
    assert sorted(os.listdir(tmp_path)) == ["with_out.json"]
    assert main([command, "--config", write_config(tmp_path, data)]) == 0
    written = {"run": ["trace.csv"], "compare": ["compare.csv", "compare.md"]}[command]
    assert sorted(os.listdir(tmp_path)) == sorted(["config.json", "with_out.json", *written])


def test_builder_error_is_config_error(tmp_path, capsys):
    # shape errors surface when the mapping is built, in every command
    path = write_config(tmp_path, {**BENCHMARK, "mapping": {**AFFINE, "A": [[0.5, 0.0, 0.0]]},
                                   "scheme": ["VIM", "AGVIM"]})
    for argv in (["verify-mapping", "--seed", "1"], ["run", "--out", str(tmp_path)],
                 ["compare", "--out", str(tmp_path)]):
        assert main(argv + ["--config", path]) == 1
        assert capsys.readouterr().err.startswith("config error: A must be square"), argv[0]


# affine anchors that do not fit the flip map's R^2; the first two ended
# `run` in a traceback, the last ran with f(u) = (u0/2, u0/2) broadcast,
# and validate-schedule passed the first and the last
MISFIT_ANCHORS = {
    "3x3": ({"A": [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]], "b": [0.0, 0.0, 0.0]},
            "contraction must map x1 to a vector in R^2"),
    "2x2, b of 3": ({"A": [[0.5, 0.0], [0.0, 0.5]], "b": [0.0, 0.0, 0.0]},
                    "dimension mismatch: A is (2, 2), b has 3"),
    "1x2": ({"A": [[0.5, 0.0]], "b": [0.0]}, "A must be square, got shape (1, 2)"),
}


@pytest.mark.parametrize("command", [["run"], ["validate-schedule"], ["compare"]],
                         ids=lambda c: c[0])
@pytest.mark.parametrize("anchor", MISFIT_ANCHORS, ids=list(MISFIT_ANCHORS))
def test_an_anchor_that_does_not_fit_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                       command, anchor):
    monkeypatch.chdir(tmp_path)  # a run that wrongly goes on writes here
    spec, message = MISFIT_ANCHORS[anchor]
    path = write_config(tmp_path, {**BENCHMARK, "x1": [0.5, 1.0], "scheme": ["VIM", "AGVIM"],
                                   "contraction": {"kind": "affine", **spec}})
    assert main([command[0], "--config", path] + command[1:]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n"
    assert captured.out == "" and os.listdir(tmp_path) == ["config.json"]


def test_every_builder_reports_a_config_error():
    # as build_solver_config does, for a caller that builds the parts alone
    cfg = parse_config({**BENCHMARK, "contraction": {"kind": "scale", "factor": 1.5}})
    with pytest.raises(ConfigError, match="factor"):
        cfg.build_contraction()
    cfg = parse_config({**BENCHMARK, "schedule": {"family": "power", "s": -1.0}})
    with pytest.raises(ConfigError, match="exponent must be positive"):
        cfg.build_schedule()


def test_integral_counts_accept_whole_floats():
    cfg = parse_config({**BENCHMARK, "max_outer": 20.0})
    max_outer = cfg.build_solver_config().max_outer
    assert max_outer == 20 and isinstance(max_outer, int)


@pytest.mark.parametrize("tols", [{"tol_step": float("nan")},
                                  {"tol_step": 0.0, "tol_inner": float("nan")}])
def test_nan_tolerance_is_config_error(tmp_path, capsys, tols):
    # json parses NaN; it used to switch the stop rule off (18 steps became
    # the whole budget) or end in an InnerBudgetError with bound 0
    path = write_config(tmp_path, {**BENCHMARK, "x1": [0.5, 1.0], **tols})
    assert main(["run", "--config", path, "--out", str(tmp_path)]) == 1
    assert "config error: tolerances" in capsys.readouterr().err


ILL_POSED = {**BENCHMARK, "schedule": {"family": "custom", "table": [[0.1, 0.0, 0.9, 4.0]] * 5}}
SHORT_TABLE = {**BENCHMARK, "scheme": "VIM", "x1": [-2.0, 1.0],
               "schedule": {"family": "custom", "table": [[0.5, 0.25, 0.25, 1.0]] * 2}}
# (config or None, argv with "{tmp}" for the test directory, stderr prefix);
# "{tmp}/file" is a regular file, so "{tmp}/file/sub" cannot be created
ERRORS = {
    "horizon below 10": (BENCHMARK, ["validate-schedule", "--horizon", "5"],
                         "error: validation horizon must be >= 10, got 5"),
    "no samples": (BENCHMARK, ["verify-mapping", "--seed", "1", "--samples", "0"],
                   "error: n_max and samples must be >= 1"),
    "negative seed flag": (BENCHMARK, ["verify-mapping", "--seed", "-1"], "error: seed must be >= 0"),
    "kind not a name": ({**BENCHMARK, "mapping": {"kind": ["flip"]}}, ["run", "--out", "{tmp}"],
                        "config error: unknown mapping kind ['flip']"),
    # the seed is set by --seed alone
    "negative config seed": ({**BENCHMARK, "seed": -3}, ["verify-mapping", "--seed", "1"],
                             "config error: unknown key 'seed' in config"),
    "unknown scheme": ({**BENCHMARK, "scheme": ["VIM", "BOGUS"]}, ["compare"],
                       "config error: unknown scheme 'BOGUS'"),
    "one distinct scheme": ({**BENCHMARK, "scheme": ["VIM", "vim"]}, ["compare"],
                            "config error: 'scheme' names VIM more than once"),
    "ill-posed table": (ILL_POSED, ["run", "--out", "{tmp}"],
                        "error: implicit step not a contraction at n=1"),
    "past the table": (SHORT_TABLE, ["run", "--out", "{tmp}"],
                       "error: custom schedule defined for n in [1, 2], requested n=3"),
    # a scheme after the first that needs the missing contraction
    "scheme without its contraction": (
        {**{k: v for k, v in BENCHMARK.items() if k != "contraction"}, "scheme": ["IMR", "VIM"]},
        ["validate-schedule"], "config error: scheme VIM needs a contraction"),
    "run out is a file": (BENCHMARK, ["run", "--out", "{tmp}/file/sub"], "error: "),
    "compare out is a file": ({**BENCHMARK, "scheme": ["VIM", "AGVIM"]},
                              ["compare", "--out", "{tmp}/file/sub"], "error: "),
    "reproduce out is a file": (None, ["reproduce-table1", "--out", "{tmp}/file/sub"], "error: "),
}


@pytest.mark.parametrize("case", ERRORS, ids=list(ERRORS))
def test_error_exits_one_with_its_prefix(tmp_path, capsys, case):
    data, argv, prefix = ERRORS[case]
    (tmp_path / "file").write_text("")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    if data is not None:
        argv += ["--config", write_config(tmp_path, {**data, "max_outer": 10})]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert "Traceback" not in err


def test_each_call_sets_its_own_log_level(tmp_path, monkeypatch, caplog):
    argv = ["verify-mapping", "--config", write_config(tmp_path, BENCHMARK),
            "--seed", "1", "--horizon", "1", "--samples", "1"]
    for level, logged in (("off", False), ("info", True), ("debug", True), ("off", False)):
        monkeypatch.setenv("MIDPOINT_LOG", level)
        caplog.clear()
        assert main(argv) == 0
        assert ("command: verify-mapping" in caplog.messages) is logged, level


class TestParserReuse:
    """One parser serves every main call of a process."""

    def test_flags_do_not_carry_over(self, tmp_path, capsys):
        argv = ["validate-schedule", "--config", write_config(tmp_path, BENCHMARK)]
        assert main(argv + ["--horizon", "50"]) == 0
        assert main(argv) == 0
        headers = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("scheme ")]
        assert [line.rsplit(", ", 1)[1] for line in headers] == ["horizon 50", "horizon 1000"]

    def test_commands_are_looked_up_at_call_time(self, tmp_path, monkeypatch):
        argv = ["validate-schedule", "--config", write_config(tmp_path, BENCHMARK),
                "--horizon", "100"]
        assert main(argv) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_validate_schedule", lambda args: seen.append(args) or 7)
        assert main(argv) == 7
        assert seen[0].horizon == 100
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("argv, code", [(["no-such-command"], 2), (["--help"], 0),
                                            (["run", "--help"], 0), (["run"], 2)])
    def test_a_parser_exit_leaves_the_next_call_working(self, tmp_path, capsys, argv, code):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == code
        capsys.readouterr()
        argv = ["verify-mapping", "--config", write_config(tmp_path, BENCHMARK),
                "--seed", "1", "--horizon", "2", "--samples", "2"]
        assert main(argv) == 0
        assert "envelope check: pass" in capsys.readouterr().out
