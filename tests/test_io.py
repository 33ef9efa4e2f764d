"""Problem-instance JSON, trace CSV, atomic writes."""

import errno
import json
import math
import os

import numpy as np
import pytest

from bpiree.experiments import build_problem, desk_spec, run_algorithm
from bpiree.io import (
    atomic_write_text,
    load_problem,
    save_problem,
    trace_csv_text,
    write_trace_csv,
)
from bpiree.lp import solve_lp
from bpiree.model import LeastSquares, MatrixLeastSquares
from bpiree.solver import SolverConfig, Trace, solve


class TestProblemRoundTrip:
    def test_vector_instance(self, tmp_path):
        prob, x_true = build_problem(desk_spec("log_ls", seed=0, n=15, q=30, sparsity=2))
        path = str(tmp_path / "inst.json")
        save_problem(path, prob, x_true=x_true)
        loaded, x_loaded = load_problem(path)
        assert isinstance(loaded.loss, LeastSquares)
        np.testing.assert_array_equal(loaded.loss.A, prob.loss.A)
        np.testing.assert_array_equal(loaded.loss.b, prob.loss.b)
        np.testing.assert_array_equal(x_loaded, x_true)
        assert loaded.penalty == prob.penalty
        assert loaded.partition.m == prob.partition.m

    def test_matrix_instance(self, tmp_path):
        prob, x_true = build_problem(
            desk_spec("matrix_lp", seed=0, n=8, q=12, t=3, m=3)
        )
        path = str(tmp_path / "inst.json")
        save_problem(path, prob, x_true=x_true)
        loaded, _ = load_problem(path)
        assert isinstance(loaded.loss, MatrixLeastSquares)
        np.testing.assert_array_equal(loaded.loss.B, prob.loss.B)
        assert loaded.penalty == prob.penalty

    def test_binary_blob(self, tmp_path):
        prob, _ = build_problem(desk_spec("log_ls", seed=1, n=10, q=20, sparsity=2))
        path = str(tmp_path / "inst.json")
        save_problem(path, prob, blob=True)
        with open(path) as f:
            doc = json.load(f)
        assert isinstance(doc["A"], str)
        assert doc["A_shape"] == [10, 20]
        assert os.path.exists(tmp_path / doc["A"])
        loaded, _ = load_problem(path)
        np.testing.assert_array_equal(loaded.loss.A, prob.loss.A)

    def test_schema_field_names(self, tmp_path):
        prob, x_true = build_problem(desk_spec("log_ls", seed=2, n=10, q=20, sparsity=2))
        path = str(tmp_path / "inst.json")
        save_problem(path, prob, x_true=x_true)
        with open(path) as f:
            doc = json.load(f)
        assert {"A", "b", "blocks", "penalty"} <= set(doc)
        assert doc["penalty"]["type"] == "log"
        assert doc["penalty"]["lam"] == prob.penalty.lam


class TestTraceCsv:
    def test_header_and_shortest_floats(self, tmp_path):
        prob, _ = build_problem(desk_spec("log_ls", seed=0, n=10, q=20, sparsity=2))
        config = SolverConfig(record_trace=True, max_iter=5)
        _, trace, _ = solve(prob, config, np.zeros(20))
        path = str(tmp_path / "trace.csv")
        write_trace_csv(path, trace)
        lines = open(path).read().splitlines()
        assert lines[0] == "k,F,step_rel,residual,beta,block,retried,wall_ns"
        assert len(lines) == 1 + trace.iterations
        first = lines[1].split(",")
        assert first[0] == "1"
        # shortest round-trip decimal: parsing back reproduces the float
        assert float(first[1]) == trace.columns["F"][0]

    def test_lp_columns(self):
        prob, _ = build_problem(desk_spec("matrix_lp", seed=0, n=8, q=10, t=2, m=2))
        config = SolverConfig(record_trace=True, max_iter=5)
        _, _, trace, _ = solve_lp(prob, config, np.zeros(20))
        text = trace_csv_text(trace)
        header = text.splitlines()[0]
        assert header.endswith("wall_ns,eps_min,eps_max,support_size,sign_fixed")

    def test_algo_column(self):
        prob, _ = build_problem(desk_spec("log_ls", seed=0, n=10, q=20, sparsity=2))
        config = SolverConfig(record_trace=True, max_iter=3)
        _, trace, _ = solve(prob, config, np.zeros(20))
        text = trace_csv_text(trace, algo="bpiree")
        lines = text.splitlines()
        assert lines[0].endswith(",algo")
        assert all(line.endswith(",bpiree") for line in lines[1:])

    def test_booleans_as_ints(self):
        prob, _ = build_problem(desk_spec("log_ls", seed=0, n=10, q=20, sparsity=2))
        config = SolverConfig(record_trace=True, max_iter=3)
        _, trace, _ = solve(prob, config, np.zeros(20))
        row = trace_csv_text(trace).splitlines()[1].split(",")
        assert row[6] in ("0", "1")


BASE_HEADER = ["k", "F", "step_rel", "residual", "beta", "block", "retried", "wall_ns"]
LP_HEADER = BASE_HEADER + ["eps_min", "eps_max", "support_size", "sign_fixed"]
INT_COLUMNS = {"k", "block", "wall_ns", "support_size"}
BOOL_COLUMNS = {"retried", "sign_fixed"}


def csv_by_rules(trace, header, algo):
    """The trace CSV the documented rules give, rendered row by row: floats
    in shortest round-trip form, booleans as 0/1, integers as decimals and
    ``algo`` as the last column."""

    def cell(name, value):
        if name in BOOL_COLUMNS:
            assert isinstance(value, (bool, np.bool_)), name
            return "1" if value else "0"
        if name in INT_COLUMNS:
            assert isinstance(value, int) and not isinstance(value, bool), name
            return "%d" % value
        assert isinstance(value, float), name
        text = float.__repr__(value)
        assert float(text) == value or (math.isnan(value) and text == "nan")
        return text

    lines = [",".join(header + ["algo"])]
    for i in range(trace.iterations):
        lines.append(",".join([cell(name, trace.columns[name][i]) for name in header] + [algo]))
    return "".join(line + "\n" for line in lines)


class TestTraceCsvRules:
    @pytest.mark.parametrize("example,algo,header", [
        ("log_ls", "bpiree", BASE_HEADER),
        ("matrix_lp", "bpiree-lp", LP_HEADER),
        ("log_ls", "irl1", BASE_HEADER),
    ])
    def test_writer_matches_rules_byte_for_byte(self, example, algo, header):
        prob, _ = build_problem(desk_spec(example, seed=0, m=3))
        # the residual column is filled, so it is not all NaN
        config = SolverConfig(record_trace=True, record_residual=True, max_iter=60,
                              momentum="fista")
        _, trace, _ = run_algorithm(algo, prob, config, np.zeros(prob.loss.dim))
        assert trace.iterations > 0
        assert list(trace.columns) == header
        text = trace_csv_text(trace, algo=algo)
        assert text == csv_by_rules(trace, header, algo)
        assert trace_csv_text(trace) == "".join(
            line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())

    @pytest.mark.parametrize("source", ["empty", "lp-untraced"])
    def test_no_rows_writes_base_header(self, source):
        trace = Trace()
        if source == "lp-untraced":
            # a smoothed-lp block run without rows has no lp columns either
            prob, _ = build_problem(desk_spec("matrix_lp", seed=0))
            _, _, trace, _ = solve_lp(prob, SolverConfig(max_iter=5), np.zeros(prob.loss.dim))
        assert trace_csv_text(trace) == ",".join(BASE_HEADER) + "\n"
        assert trace_csv_text(trace, algo="x") == ",".join(BASE_HEADER) + ",algo\n"


class TestAtomicWrite:
    def test_writes_and_leaves_no_temp(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "hello")
        assert open(path).read() == "hello"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_overwrite_is_atomic(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        assert open(path).read() == "two"

    @staticmethod
    def _failing_replace(monkeypatch):
        def replace(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", replace)

    def test_failed_text_write_keeps_old_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "old")
        self._failing_replace(monkeypatch)
        with pytest.raises(OSError, match="rename refused"):
            atomic_write_text(path, "new")
        assert open(path).read() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_file_mode_follows_umask(self, tmp_path, umask, mode):
        # the mode a plain open() gives, not mkstemp's 0o600
        old = os.umask(umask)
        try:
            path = str(tmp_path / "out.txt")
            atomic_write_text(path, "hello")
            prob, _ = build_problem(desk_spec("log_ls", seed=0, n=6, q=12, sparsity=2))
            save_problem(str(tmp_path / "inst.json"), prob, blob=True)
        finally:
            os.umask(old)
        for name in ("out.txt", "inst.json", "inst.json.A.bin"):
            assert os.stat(tmp_path / name).st_mode & 0o777 == mode

    def test_no_write_changes_the_umask(self, tmp_path, monkeypatch):
        set_umask = os.umask
        old = set_umask(0o027)
        try:
            def umask(mask):
                raise AssertionError("a write set the process umask")

            monkeypatch.setattr(os, "umask", umask)
            atomic_write_text(str(tmp_path / "out.txt"), "hello")
            prob, _ = build_problem(desk_spec("log_ls", seed=0, n=6, q=12, sparsity=2))
            save_problem(str(tmp_path / "inst.json"), prob, blob=True)
        finally:
            set_umask(old)
        for name in ("out.txt", "inst.json", "inst.json.A.bin"):
            assert os.stat(tmp_path / name).st_mode & 0o777 == 0o640

    def test_failed_blob_write_keeps_old_files(self, tmp_path, monkeypatch):
        prob, _ = build_problem(desk_spec("log_ls", seed=0, n=6, q=12, sparsity=2))
        path = str(tmp_path / "inst.json")
        save_problem(path, prob, blob=True)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(before) == ["inst.json", "inst.json.A.bin"]
        other, _ = build_problem(desk_spec("log_ls", seed=1, n=6, q=12, sparsity=2))
        self._failing_replace(monkeypatch)
        with pytest.raises(OSError, match="rename refused"):
            save_problem(path, other, blob=True)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_failed_blob_set_aside_names_the_path_given(self, tmp_path, monkeypatch):
        # the old blob's move to a temporary name fails: the error names the
        # instance path, as every other failed write does, and both files stay
        prob, _ = build_problem(desk_spec("log_ls", seed=0, n=6, q=12, sparsity=2))
        path = str(tmp_path / "inst.json")
        save_problem(path, prob, blob=True)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        other, _ = build_problem(desk_spec("log_ls", seed=1, n=6, q=12, sparsity=2))
        real = os.replace

        def replace(src, dst):
            if os.path.basename(dst).startswith(".tmp-"):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), src, dst)
            real(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(PermissionError) as info:
            save_problem(path, other, blob=True)
        assert (info.value.errno, info.value.filename, info.value.filename2) == (
            errno.EACCES, path, None)
        assert ".tmp-" not in str(info.value)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("earlier", [False, True], ids=["no-pair", "earlier-pair"])
    def test_failed_blob_json_write_keeps_the_pair(self, tmp_path, monkeypatch, earlier):
        # the blob is written first; a JSON that then cannot be renamed into
        # place must not leave a new blob beside the old JSON, or alone
        path = str(tmp_path / "inst.json")
        if earlier:
            prob, _ = build_problem(desk_spec("log_ls", seed=0, n=6, q=12, sparsity=2))
            save_problem(path, prob, blob=True)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        other, _ = build_problem(desk_spec("log_ls", seed=1, n=6, q=12, sparsity=2))
        real = os.replace

        def replace(src, dst):
            if dst == path:
                raise OSError("rename refused")
            real(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="rename refused"):
            save_problem(path, other, blob=True)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
