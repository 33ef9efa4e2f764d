"""Command-line surface: exit codes, determinism, file handling."""

import contextlib
import io
import json
import logging
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from bpiree import model, solver
from bpiree.cli import main
from bpiree.experiments import ALGORITHMS, build_problem, desk_spec
from bpiree.io import load_problem, save_problem
from bpiree.lp import solve_lp
from bpiree.prox import NumericalFailure
from bpiree.solver import SolverConfig


# Spec fields a desk config must not take: a wrong type (a bool sparsity
# too), a penalty parameter out of range, an eps_bar whose largest weight
# overflows, m beyond the coordinates, the ill-conditioned shape with n > q,
# a negative seed, a t other than 1 for log_ls, a negative or zero sparsity
# (an int 0 would plant no signal), an eps0 below the smoothing floor, a
# noise scale that overflows the data of any example, or only the loss at 0
# of each; and --set items without "=" or that descend into a non-object.
BAD_SPEC_SETS = [
    ("log_ls", ["seed"]),
    ("log_ls", ["seed=1", "seed.x=1"]),
    ("log_ls", ["eps_bar=-1"]),
    ("log_ls", ['lam="abc"']),
    ("log_ls", ['noise_scale="a"']),
    ("log_ls", ["m=2.5"]),
    ("log_ls", ["m=1000"]),
    ("log_ls", ["n=400", 'conditioning="ill"']),
    ("log_ls", ["sparsity=true"]),
    ("log_ls", ["sparsity=-3"]),
    ("log_ls", ["seed=-1"]),
    ("log_ls", ["t=3"]),
    ("matrix_lp", ["p=1.5"]),
    ("log_ls", ["eps_bar=1e-320"]),
    ("matrix_lp", ["solver.eps0=1e-200"]),
    ("log_ls", ["noise_scale=1e308"]),
    ("log_ls", ["noise_scale=1e308", 'conditioning="ill"']),
    ("matrix_lp", ["noise_scale=1e308"]),
    ("log_ls", ["noise_scale=1e200"]),
    ("log_ls", ["noise_scale=1e200", 'conditioning="ill"']),
    ("matrix_lp", ["noise_scale=1e200"]),
    ("log_ls", ["sparsity=0"]),
    ("log_ls", ["sparsity=0.0"]),
    ("matrix_lp", ["sparsity=0"]),
    ("matrix_lp", ["sparsity=0.0"]),
]


def assert_config_error(captured, out):
    """Exit 2 came with one ``config error:`` line, no output and no file."""
    assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def run_bad_spec(command, tmp_path, example, sets):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"example": example}))
    out = tmp_path / "out.json"
    argv = [command, "--config", str(cfg), "--scale", "desk", "--out", str(out)]
    for item in sets:
        argv += ["--set", item]
    return main(argv), out


def write_config(tmp_path, name="cfg.json", **fields):
    base = dict(example="log_ls", n=20, q=40, sparsity=3, seed=1)
    base.update(fields)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return str(path)


class TestGenerate:
    def test_writes_instance(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "inst.json")
        assert main(["generate", "--config", cfg, "--out", out]) == 0
        doc = json.loads(open(out).read())
        assert {"A", "b", "blocks", "penalty"} <= set(doc)

    def test_bad_dimension_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n=0)
        code = main(["generate", "--config", cfg, "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "'n'" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bogus=1)
        code = main(["generate", "--config", cfg, "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["generate", "--config", cfg, "--out", out1]) == 0
        assert main(["generate", "--config", cfg, "--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_scale_preset(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"example": "log_ls", "seed": 0}))
        out = str(tmp_path / "inst.json")
        assert main(["generate", "--config", str(cfg), "--scale", "desk", "--out", out]) == 0
        doc = json.loads(open(out).read())
        assert len(doc["b"]) == 100  # desk preset n

    def test_regenerating_a_blob_instance_replaces_the_pair(self, tmp_path):
        # the second write sets the old blob aside and deletes it once the
        # new pair is in place: no temporary file is left beside them
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        inst = str(out / "inst.json")
        for seed in ("0", "1"):
            argv = ["generate", "--config", cfg, "--set", "blob=true", "--seed", seed,
                    "--out", inst]
            assert main(argv) == 0
        assert sorted(os.listdir(out)) == ["inst.json", "inst.json.A.bin"]
        assert main(["generate", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "seed1.json")]) == 0
        expected, _ = load_problem(str(tmp_path / "seed1.json"))
        np.testing.assert_array_equal(load_problem(inst)[0].loss.A, expected.loss.A)

    @pytest.mark.parametrize("example", ["log_ls", "matrix_lp"])
    @pytest.mark.parametrize("seed", [0, 13])
    def test_scale_desk_builds_the_desk_spec_instance(self, tmp_path, example, seed):
        # one desk preset: the CLI fills what desk_spec fills, lam included
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"example": example}))
        out = tmp_path / "cli.json"
        argv = ["generate", "--config", str(cfg), "--scale", "desk", "--seed", str(seed),
                "--out", str(out)]
        assert main(argv) == 0
        problem, x_true = build_problem(desk_spec(example, seed=seed))
        save_problem(str(tmp_path / "lib.json"), problem, x_true=x_true)
        assert out.read_bytes() == (tmp_path / "lib.json").read_bytes()

    def test_set_override(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "inst.json")
        assert main(["generate", "--config", cfg, "--set", "n=25", "--out", out]) == 0
        doc = json.loads(open(out).read())
        assert len(doc["b"]) == 25

    @pytest.mark.parametrize("example,sets", BAD_SPEC_SETS)
    def test_bad_spec_field_exits_two_without_instance(self, tmp_path, capsys, example, sets):
        code, out = run_bad_spec("generate", tmp_path, example, sets)
        assert code == 2
        assert_config_error(capsys.readouterr(), out)

    @pytest.mark.parametrize("text,sets,message", [
        (None, [], "cannot read config: "),
        ("{", [], "config is not valid JSON: "),
        ("[1]", [], "config must be a JSON object"),
        ('{"seed": 1}', [],
         "field 'example' must be one of ['log_ls', 'matrix_lp'] to use --scale"),
        ('{"example": "log_ls", "blob": "no"}', [], "blob must be true or false, got 'no'"),
        ('{"example": "log_ls"}', ["blob=3"], "blob must be true or false, got 3"),
    ], ids=["missing", "invalid-json", "list", "scale-without-example", "blob-string",
            "blob-number"])
    def test_bad_config_exits_two_without_instance(self, tmp_path, capsys, text, sets,
                                                   message):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        out = tmp_path / "inst.json"
        argv = ["generate", "--config", str(cfg), "--scale", "desk", "--out", str(out)]
        for item in sets:
            argv += ["--set", item]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert_config_error(captured, out)
        assert captured.err.startswith(f"config error: {message}")
        assert not (tmp_path / "inst.json.A.bin").exists()

    def test_config_from_set_and_scale_alone(self, tmp_path):
        # a config can be assembled entirely from --set plus a scale preset
        out = str(tmp_path / "inst.json")
        code = main(
            ["generate", "--set", "example=log_ls", "--set", "seed=3",
             "--scale", "desk", "--out", out]
        )
        assert code == 0
        assert len(json.loads(open(out).read())["b"]) == 100


class TestSolve:
    @pytest.fixture()
    def instance(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "inst.json")
        assert main(["generate", "--config", cfg, "--out", out]) == 0
        return out

    def test_converged_exit_zero(self, tmp_path, instance, capsys):
        code = main(["solve", instance, "--algo", "bpiree"])
        out = capsys.readouterr().out.strip()
        assert code == 0
        fields = out.split()
        assert fields[0] == "bpiree"
        assert fields[-1] == "Converged"
        assert int(fields[1]) > 0

    def test_max_iter_exit_four(self, tmp_path, instance):
        cfg = write_config(tmp_path, name="cap.json", solver={"max_iter": 1})
        assert main(["solve", "--config", cfg, instance, "--algo", "bpiree"]) == 4

    def test_unknown_algo_exit_two(self, instance):
        assert main(["solve", instance, "--algo", "foo"]) == 2

    def test_unknown_solver_field_exit_two(self, instance, capsys):
        # T (an unused window bound) is no longer a SolverConfig field
        assert main(["solve", instance, "--algo", "bpiree", "--set", "solver.T=3"]) == 2
        assert "unknown solver config field 'T'" in capsys.readouterr().err

    def test_wrong_type_names_the_field(self, instance, capsys):
        code = main(["solve", instance, "--algo", "bpiree", "--set", 'solver.max_iter="abc"'])
        assert code == 2
        assert "max_iter" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["3", "[1]", '"x"'])
    def test_non_object_solver_section_exits_two(self, tmp_path, instance, capsys, section):
        capsys.readouterr()
        trace = tmp_path / "trace.csv"
        code = main(["solve", instance, "--algo", "bpiree", "--set", f"solver={section}",
                     "--trace", str(trace)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"config error: solver config must be an object, got {json.loads(section)!r}\n")
        assert_config_error(captured, trace)

    def test_record_trace_off_exits_two_without_trace(self, tmp_path, instance, capsys):
        capsys.readouterr()
        trace = tmp_path / "trace.csv"
        code = main(["solve", instance, "--algo", "bpiree", "--set",
                     "solver.record_trace=false", "--trace", str(trace)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: record_trace must be true")
        assert_config_error(captured, trace)

    def test_trace_written(self, tmp_path, instance):
        trace = str(tmp_path / "trace.csv")
        assert main(["solve", instance, "--algo", "irl1", "--trace", trace]) == 0
        lines = open(trace).read().splitlines()
        assert lines[0].endswith(",algo")
        assert len(lines) > 1

    @pytest.mark.parametrize("algo", ["bpiree", "irl1e1", "pire-au"])
    def test_rel_step_is_the_last_traced_step_rel(self, tmp_path, instance, capsys, algo):
        trace = tmp_path / "trace.csv"
        capsys.readouterr()
        assert main(["solve", instance, "--algo", algo, "--trace", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        last = dict(zip(lines[0].split(","), lines[-1].split(",")))
        assert capsys.readouterr().out.split()[3] == repr(float(last["step_rel"]))

    @pytest.mark.parametrize("field,value", [("n", "abc"), ("lam", "true"),
                                             ("conditioning", "3")])
    def test_spec_field_of_wrong_type_exits_two_without_trace(self, tmp_path, instance,
                                                               capsys, field, value):
        capsys.readouterr()
        trace = tmp_path / "trace.csv"
        assert main(["solve", instance, "--algo", "pire", "--set", f"{field}={value}",
                     "--trace", str(trace)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {field} must be ")
        assert_config_error(captured, trace)

    def test_spec_field_ranges_are_not_checked(self, instance):
        # only generate and compare check ranges and fields against each other
        assert main(["solve", instance, "--algo", "pire", "--set", "n=-3",
                     "--set", "example=matrix_lp", "--set", "t=5"]) == 0

    def test_blob_not_a_bool_exits_two_without_trace(self, tmp_path, instance, capsys):
        capsys.readouterr()
        trace = tmp_path / "trace.csv"
        assert main(["solve", instance, "--algo", "pire", "--set", "blob=yes",
                     "--trace", str(trace)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: blob must be true or false, got 'yes'\n"
        assert_config_error(captured, trace)

    def test_all_algorithms_run(self, tmp_path, instance):
        for algo in ("bpiree", "pire", "pire-ps", "pire-au", "irl1", "irl1e1"):
            assert main(["solve", instance, "--algo", algo]) == 0

    def test_desk_scale_instance_converges(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"example": "log_ls", "seed": 0,
                                   "solver": {"momentum": "fista"}}))
        inst = str(tmp_path / "inst.json")
        assert main(["generate", "--config", str(cfg), "--scale", "desk",
                     "--out", inst]) == 0
        code = main(["solve", inst, "--config", str(cfg), "--algo", "bpiree"])
        assert code == 0
        assert capsys.readouterr().out.strip().endswith("Converged")

    def test_lp_instance_solves(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                dict(example="matrix_lp", n=10, q=20, t=2, m=2, seed=0,
                     lam=0.015, p=0.1, mu=0.1)
            )
        )
        inst = str(tmp_path / "inst.json")
        assert main(["generate", "--config", str(cfg), "--out", inst]) == 0
        assert main(["solve", str(cfg), "--algo", "bpiree-lp"]) == 2  # wrong positional
        assert main(["solve", inst, "--config", str(cfg), "--algo", "bpiree-lp"]) == 0

    def test_eps0_below_floor_exits_two(self, tmp_path, capsys):
        # eps0 under the smoothing floor once ended Converged at x = 0
        inst = str(tmp_path / "inst.json")
        assert main(["generate", "--set", 'example="matrix_lp"', "--scale", "desk",
                     "--out", inst]) == 0
        capsys.readouterr()
        trace = tmp_path / "trace.csv"
        assert main(["solve", inst, "--algo", "bpiree-lp", "--set", "solver.eps0=1e-200",
                     "--trace", str(trace)]) == 2
        captured = capsys.readouterr()
        assert_config_error(captured, trace)
        assert "eps0 must be at least" in captured.err


class TestBlasThreadCount:
    def test_solve_is_byte_identical_at_one_and_two_threads(self, tmp_path):
        # a log_ls solve on fixed data uses only matrix-vector products, whose
        # bits do not depend on the BLAS thread count; the instance is written once
        inst = str(tmp_path / "inst.json")
        assert main(["generate", "--set", 'example="log_ls"', "--scale", "desk",
                     "--out", inst]) == 0
        outputs = []
        for threads in ("1", "2"):
            trace = tmp_path / f"trace-{threads}.csv"
            res = subprocess.run(
                [sys.executable, "-m", "bpiree", "solve", inst, "--algo", "bpiree",
                 "--trace", str(trace)], capture_output=True, text=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "BPIREE_LOG": "error"},
            )
            assert res.returncode == 0, res.stderr
            rows = [line.split(",") for line in trace.read_text().splitlines()]
            wall = rows[0].index("wall_ns")
            outputs.append((res.stdout, [row[:wall] + row[wall + 1:] for row in rows]))
        assert outputs[0] == outputs[1]


class TestIoFailure:
    """A path that cannot be read or written exits 3 and leaves no file."""

    @pytest.mark.parametrize("argv", [
        lambda cfg, inst, missing: ["generate", "--config", cfg, "--out", missing],
        lambda cfg, inst, missing: ["compare", "--config", cfg, "--out", missing],
        lambda cfg, inst, missing: ["solve", inst, "--algo", "pire", "--trace", missing],
        lambda cfg, inst, missing: ["solve", missing, "--algo", "pire"],
    ], ids=["generate-out", "compare-out", "solve-trace", "solve-instance"])
    def test_exits_three_without_file(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path)
        inst = str(tmp_path / "inst.json")
        assert main(["generate", "--config", cfg, "--out", inst]) == 0
        before = sorted(os.listdir(tmp_path))
        missing = str(tmp_path / "missing" / "out.json")
        capsys.readouterr()
        assert main(argv(cfg, inst, missing)) == 3
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert sorted(os.listdir(tmp_path)) == before

    def test_blob_generate_onto_a_directory_exits_three_without_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, blob=True)
        out = tmp_path / "out"
        out.mkdir()
        before = sorted(os.listdir(tmp_path))
        assert main(["generate", "--config", cfg, "--out", str(out)]) == 3
        assert "Traceback" not in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before
        assert not any(out.iterdir())


class TestFailureLine:
    """Every failure prints one ``<kind>: <message>`` stderr line, with no
    traceback and no file left behind; an I/O line names the path given."""

    @pytest.mark.parametrize("argv, target, code, kind", [
        (lambda cfg, inst, path: ["generate", "--config", cfg, "--out", path],
         "missing", 3, "i/o error"),
        (lambda cfg, inst, path: ["generate", "--config", cfg, "--out", path],
         "directory", 3, "i/o error"),
        (lambda cfg, inst, path: ["compare", "--config", cfg, "--out", path],
         "missing", 3, "i/o error"),
        (lambda cfg, inst, path: ["solve", inst, "--algo", "pire", "--trace", path],
         "missing", 3, "i/o error"),
        (lambda cfg, inst, path: ["solve", path, "--algo", "pire"],
         "missing", 3, "i/o error"),
        (lambda cfg, inst, path: ["solve", inst, "--algo", "nope", "--trace", path],
         "new", 2, "config error"),
        (lambda cfg, inst, path: ["solve", inst, "--algo", "bpiree-lp", "--trace", path],
         "new", 2, "config error"),
    ], ids=["generate-out", "generate-onto-directory", "compare-out", "solve-trace",
            "solve-instance", "unknown-algo", "lp-algo-on-log-instance"])
    def test_one_stderr_line(self, tmp_path, capsys, argv, target, code, kind):
        cfg = write_config(tmp_path)
        inst = str(tmp_path / "inst.json")
        assert main(["generate", "--config", cfg, "--out", inst]) == 0
        path = {"missing": tmp_path / "missing" / "out.json",
                "directory": tmp_path / "out", "new": tmp_path / "trace.csv"}[target]
        if target == "directory":
            path.mkdir()
        before = sorted(os.listdir(tmp_path))
        capsys.readouterr()
        assert main(argv(cfg, inst, str(path))) == code
        captured = capsys.readouterr()
        err = captured.err
        assert captured.out == ""
        assert err.startswith(f"{kind}: ") and err.count("\n") == 1 and err.endswith("\n")
        assert "Traceback" not in err
        if kind == "i/o error":
            assert str(path) in err and ".tmp-" not in err
        assert sorted(os.listdir(tmp_path)) == before
        if target == "directory":
            assert not any(path.iterdir())


class TestLogging:
    def test_each_call_logs_to_its_own_stderr(self, tmp_path, monkeypatch):
        # BPIREE_LOG is read on every call, each call's lines go to the stderr
        # of that call, and the root logger is left as it was
        monkeypatch.setenv("BPIREE_LOG", "info")
        cfg = write_config(tmp_path)
        root = logging.getLogger()
        before = (list(root.handlers), root.level)
        for name in ("g0.json", "g1.json"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                assert main(["generate", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            assert err.getvalue() == f"INFO bpiree: wrote {tmp_path / name}\n"
            assert out.getvalue() == ""
        assert (list(root.handlers), root.level) == before
        assert not logging.getLogger("bpiree").handlers


class TestLpOnlyAlgorithmOnLogInstance:
    """bpiree-lp needs the smoothed lp penalty: on a log_ls instance both
    commands stop with a config error before any solve."""

    def test_solve_exits_two(self, tmp_path, capsys):
        inst = str(tmp_path / "inst.json")
        assert main(["generate", "--config", write_config(tmp_path), "--out", inst]) == 0
        capsys.readouterr()
        trace = tmp_path / "trace.csv"
        code = main(["solve", inst, "--algo", "bpiree-lp", "--trace", str(trace)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert "bpiree-lp" in captured.err
        assert not trace.exists()

    def test_compare_exits_two(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        solvers = '[{"algo":"bpiree-lp"},{"algo":"irl1"}]'
        code = main(["compare", "--config", write_config(tmp_path),
                     "--set", f"solvers={solvers}", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.err.startswith("config error:") and "bpiree-lp" in captured.err
        assert not out.exists()


class TestNumericalFailure:
    def test_diverging_baseline_exits_five(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n=100, q=300, sparsity=5, m=4, seed=0)
        inst = str(tmp_path / "inst.json")
        assert main(["generate", "--config", cfg, "--out", inst]) == 0
        trace = tmp_path / "trace.csv"
        with np.errstate(over="ignore"):
            code = main(["solve", inst, "--algo", "pire-ps", "--trace", str(trace)])
        assert code == 5
        fields = capsys.readouterr().out.split()
        assert len(fields) == 6
        assert fields[0] == "pire-ps" and fields[-1] == "NumericalFailure"
        assert int(fields[1]) > 0
        # the failed run's trace is written too, one row per iteration
        assert len(trace.read_text().splitlines()) == 1 + int(fields[1])

    def test_failed_solve_prints_nan_residual_and_one_stderr_line(self, tmp_path, capsys):
        # no errstate: a numpy warning anywhere in the solve fails the test
        cfg = write_config(tmp_path, n=100, q=300, sparsity=5, m=4, seed=0)
        inst = str(tmp_path / "inst.json")
        assert main(["generate", "--config", cfg, "--out", inst]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["solve", inst, "--algo", "pire-ps"])
        assert code == 5
        captured = capsys.readouterr()
        fields = captured.out.split()
        assert len(fields) == 6
        assert fields[0] == "pire-ps" and int(fields[1]) > 0
        assert fields[4] == "nan" and fields[5] == "NumericalFailure"
        assert captured.err == (
            f"numerical failure: pire-ps stopped after {fields[1]} iterations\n"
        )

    def test_failed_first_step_prints_nan_rel_step(self, tmp_path, capsys, monkeypatch):
        # a trace without rows has no last step
        def fails(state, problem, config):
            raise NumericalFailure("first step fails")

        inst = str(tmp_path / "inst.json")
        assert main(["generate", "--config", write_config(tmp_path), "--out", inst]) == 0
        monkeypatch.setattr(solver, "bpiree_step", fails)
        capsys.readouterr()
        assert main(["solve", inst, "--algo", "bpiree"]) == 5
        fields = capsys.readouterr().out.split()
        assert fields[:2] == ["bpiree", "0"]
        assert fields[3] == "nan" and fields[5] == "NumericalFailure"

    def test_overflowing_lipschitz_estimate_exits_five(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({
            "A": [[1e155, 0.0], [0.0, 1.0]], "b": [1.0, 1.0], "blocks": [[0, 1]],
            "penalty": {"type": "log", "lam": 0.1, "eps_bar": 0.1},
        }))
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["solve", str(inst), "--algo", "bpiree"])
        assert code == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "numerical failure" in captured.err and "Lipschitz" in captured.err


class TestNonFiniteInstance:
    @pytest.fixture()
    def doc_path(self, tmp_path):
        out = str(tmp_path / "inst.json")
        assert main(["generate", "--config", write_config(tmp_path), "--out", out]) == 0
        return out

    @pytest.mark.parametrize(
        "operand,message", [("A", "A has non-finite"), ("b", "b has non-finite"),
                            ("lam", "lam must be a finite number, got nan")]
    )
    def test_json_nan_exits_two(self, doc_path, operand, message, capsys):
        doc = json.loads(open(doc_path).read())
        if operand == "A":
            doc["A"][0][1] = float("nan")
        elif operand == "b":
            doc["b"][2] = float("nan")
        else:
            doc["penalty"]["lam"] = float("nan")
        with open(doc_path, "w") as f:
            f.write(json.dumps(doc))  # Python's json writes the NaN literal
        assert "NaN" in open(doc_path).read()
        assert main(["solve", doc_path, "--algo", "bpiree"]) == 2
        err = capsys.readouterr().err
        assert "malformed instance" in err and message in err

    @pytest.mark.parametrize("field,value,message", [
        ("blocks", 0.5, "blocks must be lists of integer indices"),
        ("blocks", True, "blocks must be lists of integer indices"),
        ("t", True, "t must be a positive integer, got True"),
        ("t", 1.9, "t must be a positive integer, got 1.9"),
        ("t", 0, "t must be a positive integer, got 0"),
    ])
    def test_non_integer_index_exits_two(self, doc_path, field, value, message, capsys):
        # none of these may be rounded into a valid instance
        doc = json.loads(open(doc_path).read())
        if field == "blocks":
            doc["blocks"][0][0] = value
        else:
            doc["t"] = value
        with open(doc_path, "w") as f:
            f.write(json.dumps(doc))
        capsys.readouterr()
        assert main(["solve", doc_path, "--algo", "bpiree"]) == 2
        assert capsys.readouterr().err == f"malformed instance: {message}\n"

    @pytest.mark.parametrize("penalty,message", [
        ({"type": "log", "lam": True, "eps_bar": 0.1}, "lam must be a finite number, got True"),
        ({"type": "log", "lam": "0.5", "eps_bar": 0.1},
         "lam must be a finite number, got '0.5'"),
        ({"type": "log", "lam": 0.5, "eps_bar": False},
         "eps_bar must be a finite number, got False"),
        ({"type": "log", "lam": 0.5, "eps_bar": "0.1"},
         "eps_bar must be a finite number, got '0.1'"),
        ({"type": "lp", "lam": 0.5, "p": True}, "p must be a finite number, got True"),
        ({"type": "lp", "lam": 0.5, "p": "0.1"}, "p must be a finite number, got '0.1'"),
    ])
    def test_non_number_penalty_parameter_exits_two(self, doc_path, tmp_path, penalty,
                                                     message, capsys):
        # neither may be coerced into a number that then solves
        doc = json.loads(open(doc_path).read())
        doc["penalty"] = penalty
        with open(doc_path, "w") as f:
            f.write(json.dumps(doc))
        capsys.readouterr()
        trace = tmp_path / "trace.csv"
        assert main(["solve", doc_path, "--algo", "bpiree", "--trace", str(trace)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"malformed instance: {message}\n"
        assert captured.out == ""
        assert not trace.exists()

    def test_inf_in_blob_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, blob=True)
        inst = str(tmp_path / "inst.json")
        assert main(["generate", "--config", cfg, "--out", inst]) == 0
        with open(inst + ".A.bin", "r+b") as f:
            f.seek(8 * 5)
            f.write(np.array([np.inf], dtype="<f8").tobytes())
        assert main(["solve", inst, "--algo", "pire"]) == 2
        assert "A has non-finite" in capsys.readouterr().err


class TestMalformedInstance:
    """A malformed instance file gets one ``malformed instance`` line and
    exit 2, never a traceback or a silent solve."""

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: {**doc, "penalty": 3}, "penalty must be an object, got 3"),
        (lambda doc: [doc], "an instance must be a JSON object, got list"),
        (lambda doc: {**doc, "A": {"x": 1}}, "A must be an array of numbers"),
        # JSON booleans are not numbers, though numpy reads them as 1.0 and 0.0
        (lambda doc: {**doc, "A": [[True, *doc["A"][0][1:]], *doc["A"][1:]]},
         "A must be an array of numbers"),
        (lambda doc: {**doc, "b": [True, *doc["b"][1:]]}, "b must be an array of numbers"),
        (lambda doc: {**doc, "x_true": [False, *doc["x_true"][1:]]},
         "x_true must be an array of numbers"),
        (lambda doc: {**doc, "b": [10**400, *doc["b"][1:]]}, "b must be an array of numbers"),
        # finite data whose loss at 0 overflows
        (lambda doc: {**doc, "b": [1e200, *doc["b"][1:]]},
         "b is too large: 0.5*||b||^2 overflows"),
        (lambda doc: {**doc, "A": "foo.bin", "A_shape": 5},
         "A_shape must be two nonnegative integers, got 5"),
        # a log penalty has no p
        (lambda doc: {**doc, "penalty": {**doc["penalty"], "p": 0.5}},
         "unknown penalty field 'p'"),
        # lam / eps_bar, the weight at 0, overflows
        (lambda doc: {**doc, "penalty": {**doc["penalty"], "eps_bar": 1e-320}},
         "lam / eps_bar overflows: eps_bar is too small"),
        # a misspelled x_true must not drop the planted signal silently
        (lambda doc: {("x_ture" if key == "x_true" else key): value
                      for key, value in doc.items()}, "unknown field 'x_ture'"),
        # fields that do not fit together; one x_true entry would broadcast
        (lambda doc: {**doc, "x_true": doc["x_true"][:5]},
         "x_true must have length 40, got shape (5,)"),
        (lambda doc: {**doc, "x_true": doc["x_true"][:1]},
         "x_true must have length 40, got shape (1,)"),
        (lambda doc: {**doc, "t": 3}, "b has 20 entries, which do not split into t=3 columns"),
        # a missing required field is named
        *((lambda doc, key=key: {k: v for k, v in doc.items() if k != key},
           f"field {key!r} is required") for key in ("A", "b", "blocks", "penalty")),
        (lambda doc: {**doc, "A": "foo.bin"}, "field 'A_shape' is required"),
        # blocks that do not partition the 40 coordinates
        (lambda doc: {**doc, "blocks": [[0], *doc["blocks"]]},
         "invalid partition: index 0 duplicated"),
        (lambda doc: {**doc, "blocks": [[], *doc["blocks"]]},
         "invalid partition: block 0 is empty"),
        (lambda doc: {**doc, "blocks": [*doc["blocks"][:-1], doc["blocks"][-1][:-1]]},
         "invalid partition: index 39 uncovered"),
    ], ids=["penalty-not-object", "document-list", "A-object", "A-bool", "b-bool",
            "x_true-bool", "b-int-overflow", "b-loss-overflow", "A_shape-not-list",
            "extra-penalty-key", "eps_bar-overflows", "misspelled-x_true", "x_true-short",
            "x_true-one-entry", "b-not-t-columns", "missing-A", "missing-b", "missing-blocks",
            "missing-penalty", "missing-A_shape", "duplicated-index", "empty-block",
            "uncovered-index"])
    def test_exits_two_without_trace(self, tmp_path, capsys, edit, message):
        inst = tmp_path / "inst.json"
        assert main(["generate", "--config", write_config(tmp_path), "--out", str(inst)]) == 0
        inst.write_text(json.dumps(edit(json.loads(inst.read_text()))))
        capsys.readouterr()
        trace = tmp_path / "trace.csv"
        assert main(["solve", str(inst), "--algo", "bpiree", "--trace", str(trace)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"malformed instance: {message}\n"
        assert captured.out == ""
        assert not trace.exists()

    def test_blob_must_match_A_shape(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        cfg = write_config(tmp_path, blob=True)
        assert main(["generate", "--config", cfg, "--out", str(inst)]) == 0
        inst.write_text(json.dumps({**json.loads(inst.read_text()), "A_shape": [20, 39]}))
        capsys.readouterr()
        assert main(["solve", str(inst), "--algo", "bpiree"]) == 2
        assert capsys.readouterr().err == ("malformed instance: A_shape [20, 39] needs 780 "
                                           "numbers, but inst.json.A.bin holds 800\n")


class TestFinalEps:
    """``solve`` evaluates F_final and the residual at ``trace.eps``, the
    smoothing factors the run ended with."""

    def test_bpiree_on_lp_instance_is_bpiree_lp(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"example": "matrix_lp", "lam": 0.015, "p": 0.1, "mu": 0.1}))
        common = ["--config", str(cfg), "--scale", "desk"]
        inst = str(tmp_path / "inst.json")
        assert main(["generate", *common, "--out", inst]) == 0
        outs, csvs = [], []
        for algo in ("bpiree", "bpiree-lp"):
            capsys.readouterr()
            trace = tmp_path / f"{algo}.csv"
            assert main(["solve", *common, inst, "--algo", algo, "--trace", str(trace)]) == 0
            fields = capsys.readouterr().out.split()
            assert fields[0] == algo
            outs.append(fields[1:])
            rows = [line.split(",") for line in trace.read_text().splitlines()]
            skip = {rows[0].index("wall_ns"), rows[0].index("algo")}
            csvs.append([[c for i, c in enumerate(row) if i not in skip] for row in rows])
        assert outs[0] == outs[1]
        assert csvs[0] == csvs[1]

        problem, _ = load_problem(inst)
        config = SolverConfig(mu=0.1, record_trace=True)
        x0 = np.zeros(problem.loss.dim)
        _x, eps, _trace, _status = solve_lp(problem, config, x0)
        _x, trace, _status = ALGORITHMS["bpiree"](problem, config, x0)
        assert np.array_equal(trace.eps, eps)
        config.max_iter = 3  # the baselines never shrink eps
        for algo in ("pire", "pire-ps", "pire-au", "irl1", "irl1e1"):
            _x, trace, _status = ALGORITHMS[algo](problem, config, x0)
            assert np.array_equal(trace.eps, np.full(problem.loss.dim, config.eps0)), algo

    def test_none_on_log_instance(self, tmp_path):
        inst = str(tmp_path / "inst.json")
        assert main(["generate", "--config", write_config(tmp_path), "--out", inst]) == 0
        problem, _ = load_problem(inst)
        config = SolverConfig(max_iter=3)
        for algo in ALGORITHMS.keys() - {"bpiree-lp"}:
            _x, trace, _status = ALGORITHMS[algo](problem, config, np.zeros(problem.loss.dim))
            assert trace.eps is None, algo


class TestCompare:
    def test_report_and_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "report.json")
        assert main(["compare", "--config", cfg, "--out", out]) == 0
        table = capsys.readouterr().out
        assert table.splitlines()[0].startswith("solver")
        doc = json.loads(open(out).read())
        assert len(doc["results"]) == 3
        for row in doc["results"]:
            assert row["iterations"] > 0

    def test_byte_identical_reports(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(["compare", "--config", cfg, "--seed", "7", "--out", out1]) == 0
        assert main(["compare", "--config", cfg, "--seed", "7", "--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_solver_section_sets_every_row(self, tmp_path):
        # the default rows take it too; a row's own config still wins
        out = str(tmp_path / "r.json")
        cfg = write_config(tmp_path)
        assert main(["compare", "--config", cfg, "--set", "solver.max_iter=1",
                     "--out", out]) == 0
        rows = json.loads(open(out).read())["results"]
        assert [(r["iterations"], r["status"]) for r in rows] == [(1, "MaxIter")] * 3
        cfg = write_config(tmp_path, solvers=[
            {"algo": "bpiree"}, {"algo": "irl1", "config": {"max_iter": 2}},
        ])
        assert main(["compare", "--config", cfg, "--set", "solver.max_iter=1",
                     "--out", out]) == 0
        rows = json.loads(open(out).read())["results"]
        assert [r["iterations"] for r in rows] == [1, 2]

    @pytest.mark.parametrize("rows,message", [
        ([{"algo": "bpiree", "config": {"bogus": 1}}],
         "solver 'bpiree': unknown solver config field 'bogus'"),
        ([{"algo": "bpiree"}, {"algo": "irl1", "config": {"momentum": "xyz"}}],
         "solver 'irl1': unknown momentum mode 'xyz'"),
        ([{"algo": "bpiree", "config": {"momentum": "xyz"}}, {"algo": "irl1"}],
         "solver 'bpiree': unknown momentum mode 'xyz'"),
        # a malformed row itself is named by its index and field
        ([{"algo": [1]}], "solver row 0: algo must be a string, got [1]"),
        ([{"algo": "bpiree"}, 3], "solver row 1: must be an object, got 3"),
        ([{"algo": "bpiree"}, {"algo": "irl1", "bogus": 1}],
         "solver row 1: unknown field 'bogus'"),
        ([{"algo": "bpiree", "label": ["a"]}], "solver row 0: label must be a string, got ['a']"),
        ([{"algo": "bpiree"}, {"label": "a"}], "solver row 1: field 'algo' is required"),
    ], ids=["unknown-key", "bad-value-other-row", "bad-value-reference",
            "row-list-algo", "row-not-object", "row-unknown-key", "row-list-label",
            "row-missing-algo"])
    def test_bad_row_config_exits_two_without_report(self, tmp_path, capsys, rows, message):
        cfg = write_config(tmp_path, solvers=rows)
        out = tmp_path / "r.json"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("example,sets", BAD_SPEC_SETS)
    def test_bad_spec_field_exits_two_without_report(self, tmp_path, capsys, example, sets):
        code, out = run_bad_spec("compare", tmp_path, example, sets)
        assert code == 2
        assert_config_error(capsys.readouterr(), out)

    def test_non_finite_values_are_null(self, tmp_path):
        # lam=1e3 leaves every iterate at 0, whose relative errors are inf
        out = tmp_path / "r.json"
        assert main(["compare", "--set", "example=log_ls", "--scale", "desk", "--seed", "0",
                     "--set", "lam=1e3", "--out", str(out)]) == 0

        def reject(name):
            raise ValueError(f"report holds {name}, which is not JSON")

        doc = json.loads(out.read_text(), parse_constant=reject)
        for row in doc["results"]:
            assert math.isfinite(row["F_final"])
            assert row["rel_err_true"] is row["rel_err_ref"] is None
        for curve in doc["curves"].values():
            assert curve["x_rel"] == [None]

    def test_non_finite_reference_lipschitz_exits_five(self, tmp_path, capsys, monkeypatch):
        # the reference's failure ends the compare as it ends a solve
        monkeypatch.setattr(model, "spectral_norm_sq", lambda M: math.inf)
        out = tmp_path / "r.json"
        assert main(["compare", "--config", write_config(tmp_path), "--out", str(out)]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numerical failure: block Lipschitz estimate is not finite (inf)\n")
        assert not out.exists()

    def test_later_value_error_is_not_a_config_error(self, tmp_path, monkeypatch):
        # only data the loss rejects while the instance is built exit 2
        def fail(spec):
            raise ValueError("not a build failure")

        monkeypatch.setattr("bpiree.cli.run_comparison", fail)
        with pytest.raises(ValueError, match="not a build failure"):
            main(["compare", "--config", write_config(tmp_path),
                  "--out", str(tmp_path / "r.json")])

    @pytest.mark.parametrize("section", ["3", "[1]", '"x"'])
    def test_non_object_solver_section_exits_two(self, tmp_path, capsys, section):
        out = tmp_path / "r.json"
        code = main(["compare", "--config", write_config(tmp_path),
                     "--set", f"solver={section}", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert "solver config must be an object" in captured.err
        assert_config_error(captured, out)

    def test_record_trace_off_exits_two_without_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "r.json"
        code = main(["compare", "--config", cfg, "--set", "solver.record_trace=false",
                     "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: solver 'bpiree': record_trace")
        assert captured.out == ""
        assert not out.exists()

    def test_wrong_type_names_the_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "r.json"
        code = main(["compare", "--config", cfg, "--set", 'solver.max_iter="abc"',
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: solver 'bpiree': max_iter")
        assert not out.exists()

    def test_blob_not_a_bool_exits_two_without_report(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["compare", "--set", "example=log_ls", "--scale", "desk",
                     "--set", "blob=yes", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: blob must be true or false, got 'yes'\n"
        assert_config_error(captured, out)

    def test_subprocess_entry_point(self, tmp_path):
        # the cli module and the package both run as a process; exercised
        # once each to keep the suite honest about packaging
        cfg = write_config(tmp_path, n=15, q=25, sparsity=2)
        out = str(tmp_path / "report.json")

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", *argv], capture_output=True, text=True,
                env={**os.environ, "BPIREE_LOG": "error"},
            )

        res = run("bpiree.cli", "compare", "--config", cfg, "--out", out)
        assert res.returncode == 0, res.stderr
        assert os.path.exists(out)
        inst, trace = str(tmp_path / "inst.json"), tmp_path / "trace.csv"
        assert main(["generate", "--config", cfg, "--out", inst]) == 0
        res = run("bpiree", "solve", inst, "--algo", "bpiree", "--trace", str(trace))
        assert res.returncode == 0, res.stderr
        assert trace.read_text().splitlines()[0] == (
            "k,F,step_rel,residual,beta,block,retried,wall_ns,algo")
