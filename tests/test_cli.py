"""Command-line surface: exit codes, determinism, file handling."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from bpiree.cli import main


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

    def test_set_override(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "inst.json")
        assert main(["generate", "--config", cfg, "--set", "n=25", "--out", out]) == 0
        doc = json.loads(open(out).read())
        assert len(doc["b"]) == 25

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

    def test_trace_written(self, tmp_path, instance):
        trace = str(tmp_path / "trace.csv")
        assert main(["solve", instance, "--algo", "irl1", "--trace", trace]) == 0
        lines = open(trace).read().splitlines()
        assert lines[0].endswith(",algo")
        assert len(lines) > 1

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
        with np.errstate(over="ignore"):
            code = main(["solve", inst, "--algo", "pire-ps"])
        assert code == 5
        fields = capsys.readouterr().out.split()
        assert len(fields) == 6
        assert fields[0] == "pire-ps" and fields[-1] == "NumericalFailure"
        assert int(fields[1]) > 0

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
                            ("lam", "lam must be finite")]
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

    def test_inf_in_blob_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, blob=True)
        inst = str(tmp_path / "inst.json")
        assert main(["generate", "--config", cfg, "--out", inst]) == 0
        with open(inst + ".A.bin", "r+b") as f:
            f.seek(8 * 5)
            f.write(np.array([np.inf], dtype="<f8").tobytes())
        assert main(["solve", inst, "--algo", "pire"]) == 2
        assert "A has non-finite" in capsys.readouterr().err


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
        ([{"algo": "bpiree", "config": {"bogus": 1}}], "solver 'bpiree': unknown config field 'bogus'"),
        ([{"algo": "bpiree"}, {"algo": "irl1", "config": {"momentum": "xyz"}}],
         "solver 'irl1': unknown momentum mode 'xyz'"),
        ([{"algo": "bpiree", "config": {"momentum": "xyz"}}, {"algo": "irl1"}],
         "solver 'bpiree': unknown momentum mode 'xyz'"),
    ], ids=["unknown-key", "bad-value-other-row", "bad-value-reference"])
    def test_bad_row_config_exits_two_without_report(self, tmp_path, capsys, rows, message):
        cfg = write_config(tmp_path, solvers=rows)
        out = tmp_path / "r.json"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_subprocess_entry_point(self, tmp_path):
        # the module is runnable as a process; exercised once to keep the
        # suite honest about packaging
        cfg = write_config(tmp_path, n=15, q=25, sparsity=2)
        out = str(tmp_path / "report.json")
        res = subprocess.run(
            [sys.executable, "-m", "bpiree.cli", "compare", "--config", cfg,
             "--out", out],
            capture_output=True,
            text=True,
            env={**os.environ, "BPIREE_LOG": "error"},
        )
        assert res.returncode == 0, res.stderr
        assert os.path.exists(out)
