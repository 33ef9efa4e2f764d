"""Data generators, metrics and the comparison harness."""

import dataclasses
import json
import math

import numpy as np
import pytest

from bpiree import baselines, experiments, solver
from bpiree.experiments import (
    ExperimentSpec,
    SolverEntry,
    desk_spec,
    gen_gaussian_sensing,
    gen_illconditioned,
    gen_matrix_problem,
    make_solver_config,
    rel_err,
    run_algorithm,
    run_comparison,
)
from bpiree.model import validate_partition


class TestGaussianSensing:
    def test_unit_columns(self):
        spec = desk_spec("log_ls", seed=0)
        A, b, x_true = gen_gaussian_sensing(spec)
        np.testing.assert_allclose(np.linalg.norm(A, axis=0), 1.0, atol=1e-12)

    def test_exact_sparsity(self):
        spec = desk_spec("log_ls", seed=1)
        _, _, x_true = gen_gaussian_sensing(spec)
        assert np.count_nonzero(x_true) == spec.nnz() == 5

    def test_zero_noise_is_exact(self):
        spec = desk_spec("log_ls", seed=2, noise_scale=0.0)
        A, b, x_true = gen_gaussian_sensing(spec)
        np.testing.assert_array_equal(b, A @ x_true)

    def test_bit_exact_regeneration(self):
        spec = desk_spec("log_ls", seed=3)
        A1, b1, x1 = gen_gaussian_sensing(spec)
        A2, b2, x2 = gen_gaussian_sensing(desk_spec("log_ls", seed=3))
        assert np.array_equal(A1, A2) and np.array_equal(b1, b2) and np.array_equal(x1, x2)


class TestIllConditioned:
    def test_prescribed_singular_values(self):
        spec = ExperimentSpec(example="log_ls", n=3, q=6, seed=0, conditioning="ill")
        A = gen_illconditioned(spec)
        sv = np.linalg.svd(A, compute_uv=False)
        np.testing.assert_allclose(sorted(sv), [1e-4, 0.1001, 0.2001], atol=1e-8)

    def test_condition_number(self):
        spec = ExperimentSpec(example="log_ls", n=3, q=6, seed=1, conditioning="ill")
        sv = np.linalg.svd(gen_illconditioned(spec), compute_uv=False)
        assert max(sv) / min(sv) == pytest.approx(2001.0, rel=1e-6)

    def test_rejects_n_greater_than_q(self):
        # the generator needs n <= q; no spec, not even a replaced one, has n > q
        spec = ExperimentSpec(example="log_ls", n=3, q=6, seed=0, conditioning="ill")
        with pytest.raises(ValueError, match="n <= q"):
            dataclasses.replace(spec, n=7)


class TestMatrixProblem:
    def test_per_column_sparsity(self):
        spec = ExperimentSpec(
            example="matrix_lp", n=20, q=500, t=5, m=5, sparsity=0.02, seed=0
        )
        _, _, X_true, _ = gen_matrix_problem(spec)
        assert all(np.count_nonzero(X_true[:, j]) == 10 for j in range(5))

    def test_even_block_split(self):
        spec = ExperimentSpec(example="matrix_lp", n=10, q=50, t=10, m=10, seed=0)
        _, _, _, partition = gen_matrix_problem(spec)
        assert partition.m == 10
        assert all(b.size == 50 for b in partition.blocks)
        assert validate_partition(partition).ok

    def test_uneven_split_validates(self):
        spec = ExperimentSpec(example="matrix_lp", n=10, q=7, t=3, m=4, seed=0)
        _, _, _, partition = gen_matrix_problem(spec)
        sizes = [b.size for b in partition.blocks]
        assert sum(sizes) == 21
        assert max(sizes) - min(sizes) <= 1
        assert validate_partition(partition).ok


class TestRelErr:
    def test_zero_for_equal(self):
        x = np.array([1.0, 2.0])
        assert rel_err(x, x) == 0.0

    def test_iterate_norm_denominator(self):
        assert rel_err(np.array([2.0, 0.0]), np.array([1.0, 0.0])) == 0.5

    def test_zero_iterate_sentinel(self):
        assert rel_err(np.zeros(3), np.ones(3)) == math.inf

    def test_matrix_frobenius(self):
        x = np.array([[2.0, 0.0], [0.0, 0.0]])
        ref = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert rel_err(x, ref) == 0.5


class TestSpecValidation:
    def test_unknown_example(self):
        with pytest.raises(ValueError):
            ExperimentSpec(example="bogus", n=10, q=20)

    def test_unknown_algo(self):
        with pytest.raises(ValueError):
            SolverEntry(algo="bogus")

    def test_default_solvers_filled(self):
        spec = desk_spec("log_ls")
        assert [e.algo for e in spec.solvers] == ["bpiree", "irl1e1", "irl1"]
        spec = desk_spec("matrix_lp")
        assert [e.algo for e in spec.solvers] == ["bpiree-lp", "pire-au", "pire-ps"]

    def test_nnz_fraction_and_count(self):
        assert desk_spec("log_ls", sparsity=5).nnz() == 5
        assert desk_spec("matrix_lp", sparsity=0.02).nnz() == 2  # q = 100

    def test_sparsity_must_be_below_q(self):
        with pytest.raises(ValueError):
            ExperimentSpec(example="log_ls", n=10, q=20, sparsity=20)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(
                example="log_ls", n=10, q=20, sparsity=2,
                solvers=[{"algo": "bpiree"}, {"algo": "bpiree"}],
            )

    def test_lp_solver_needs_the_matrix_example(self):
        with pytest.raises(ValueError, match="bpiree-lp"):
            desk_spec("log_ls", solvers=[{"algo": "bpiree-lp"}, {"algo": "irl1"}])
        spec = desk_spec("matrix_lp", solvers=[{"algo": "bpiree-lp"}])
        assert [e.algo for e in spec.solvers] == ["bpiree-lp"]

    @pytest.mark.parametrize("example,fields,message", [
        ("log_ls", dict(eps_bar=-1), "eps_bar must be finite and positive"),
        ("log_ls", dict(lam="abc"), "lam must be a finite number, got 'abc'"),
        ("log_ls", dict(noise_scale="a"), "noise_scale must be a finite number, got 'a'"),
        ("log_ls", dict(m=2.5), "m must be an integer, got 2.5"),
        ("log_ls", dict(m=301), "m must not exceed the 300 coordinates, got 301"),
        ("matrix_lp", dict(m=1001), "m must not exceed the 1000 coordinates, got 1001"),
        ("log_ls", dict(sparsity=True), "sparsity must be a finite number, got True"),
        ("log_ls", dict(sparsity=-3),
         "sparsity must be a positive count or a fraction in (0, 1)"),
        ("log_ls", dict(sparsity=2.5),
         "sparsity must be a positive count or a fraction in (0, 1)"),
        ("log_ls", dict(seed=-1), "seed must be nonnegative"),
        ("log_ls", dict(t=3), "t must be 1 for example 'log_ls', got 3"),
        ("log_ls", dict(n=0), "field 'n' must be a positive integer"),
        ("matrix_lp", dict(p=1.5), "p must lie in (0, 1)"),
        ("matrix_lp", dict(lam=-1.0), "lam must be finite and nonnegative"),
        ("log_ls", dict(sparsity=0),
         "sparsity must be a positive count or a fraction in (0, 1)"),
        ("matrix_lp", dict(sparsity=0.0),
         "sparsity must be a positive count or a fraction in (0, 1)"),
    ])
    def test_build_preconditions_checked_up_front(self, example, fields, message):
        with pytest.raises(ValueError) as info:
            desk_spec(example, **fields)
        assert str(info.value) == message

    def test_penalty_of_the_other_example_not_checked(self):
        # build_problem never makes it, so its parameters do not matter
        desk_spec("log_ls", p=1.5)
        desk_spec("matrix_lp", eps_bar=-1.0)

    def test_ill_shape(self):
        with pytest.raises(ValueError, match="n <= q"):
            ExperimentSpec(example="log_ls", n=6, q=3, conditioning="ill")
        ExperimentSpec(example="log_ls", n=6, q=3)
        ExperimentSpec(example="matrix_lp", n=6, q=3, conditioning="ill")

    @pytest.mark.parametrize("field,value", [
        ("example", 3), ("n", "10"), ("q", 20.0), ("t", True), ("m", None),
        ("sparsity", "2"), ("noise_scale", math.nan), ("conditioning", 1),
        ("seed", 1.5), ("lam", None), ("eps_bar", math.inf), ("p", False),
        ("mu", "0.1"), ("lam", 10**400), ("solvers", None), ("solvers", {"algo": "bpiree"}),
    ])
    def test_wrong_type_names_the_field(self, field, value):
        fields = dict(example="log_ls", n=10, q=20, sparsity=2)
        fields[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be "):
            ExperimentSpec(**fields)

    @pytest.mark.parametrize("section", [3, [1], "x", 0])
    def test_non_object_solver_defaults_rejected(self, section):
        with pytest.raises(ValueError, match="solver config must be an object"):
            desk_spec("log_ls", solver_defaults=section)

    def test_same_algo_distinct_labels_allowed(self):
        spec = ExperimentSpec(
            example="log_ls", n=10, q=20, sparsity=2,
            solvers=[
                {"algo": "bpiree", "label": "capped", "config": {"momentum": "fista_capped"}},
                {"algo": "bpiree", "label": "raw", "config": {"momentum": "fista"}},
            ],
        )
        assert [e.label for e in spec.solvers] == ["capped", "raw"]


@pytest.fixture(scope="module")
def report():
    return run_comparison(desk_spec("log_ls", seed=0))


def reject_constant(name):
    raise ValueError(f"report holds {name}, which is not JSON")


class TestRunAlgorithm:
    @pytest.fixture(scope="class")
    def instance(self):
        spec = desk_spec("matrix_lp", seed=0)
        problem, _ = experiments.build_problem(spec)
        return spec, problem

    @pytest.mark.parametrize("algo", sorted(experiments.ALGORITHMS))
    def test_reads_every_algorithm_one_way(self, instance, algo):
        # every algorithm returns its iterate first and its trace and status
        # last; bpiree-lp returns its final smoothing factors between them
        spec, problem = instance
        config = dataclasses.replace(
            make_solver_config(spec, SolverEntry(algo)), max_iter=50)
        x0 = np.zeros(problem.loss.dim)
        direct = experiments.ALGORITHMS[algo](problem, config, x0)
        assert len(direct) == (4 if algo == "bpiree-lp" else 3)
        x, trace, status = run_algorithm(algo, problem, config, x0)

        def columns(t):
            return {k: repr(v) for k, v in t.columns.items() if k != "wall_ns"}

        assert x.tobytes() == direct[0].tobytes()
        assert columns(trace) == columns(direct[-2])
        assert status is direct[-1]


class TestRunComparison:
    def test_one_row_per_solver(self, report):
        assert [r.label for r in report.results] == ["bpiree", "irl1e1", "irl1"]
        for row in report.results:
            assert row.iterations > 0
            assert row.status == "Converged"
            assert math.isfinite(row.F_final)
            assert math.isfinite(row.rel_err_true)
            assert math.isfinite(row.rel_err_ref)
            assert row.wall_time_s >= 0.0

    def test_reference_is_block_solver(self, report):
        assert report.reference == "bpiree"
        assert report.results[0].rel_err_ref == 0.0

    def test_every_solver_recovers(self, report):
        for row in report.results:
            assert row.rel_err_true <= 5e-2

    def test_curves_lengths_match_iterations(self, report):
        for row in report.results:
            curves = report.curves[row.label]
            assert len(curves["f_gap"]) == row.iterations
            assert len(curves["x_rel"]) == row.iterations

    def test_reference_f_gap_monotone(self, report):
        # the safeguarded reference solver descends straight onto its output
        gap = report.curves[report.reference]["f_gap"]
        assert all(b <= a + 1e-12 * (1 + abs(a)) for a, b in zip(gap, gap[1:]))

    def test_json_roundtrip_and_determinism(self):
        spec = desk_spec("log_ls", seed=1, n=40, q=80, sparsity=3)
        r1 = run_comparison(spec).to_json()
        r2 = run_comparison(desk_spec("log_ls", seed=1, n=40, q=80, sparsity=3)).to_json()
        assert r1 == r2
        doc = json.loads(r1)
        assert set(doc) == {"spec", "reference", "results", "curves"}
        assert all("wall_time_s" not in row for row in doc["results"])

    def test_text_table_alignment(self, report):
        text = report.to_text()
        lines = text.splitlines()
        assert lines[0].startswith("solver")
        assert len(lines) == 2 + len(report.results)

    def test_matrix_example_report(self):
        spec = desk_spec("matrix_lp", seed=0, n=20, q=40, t=4, m=4)
        report = run_comparison(spec)
        assert [r.algo for r in report.results] == ["bpiree-lp", "pire-au", "pire-ps"]
        assert report.reference == "bpiree-lp"
        for row in report.results:
            assert row.status in ("Converged", "MaxIter")


class TestComparisonPasses:
    SPEC = dict(example="log_ls", seed=1, n=40, q=80, sparsity=3)

    @staticmethod
    def count_runs(monkeypatch, algos):
        """Count each algorithm's runs; also keep each one's last final iterate."""
        calls, finals = {}, {}
        for algo in algos:

            def counted(problem, config, x0, callback=None, _run=experiments.ALGORITHMS[algo],
                        _algo=algo):
                calls[_algo] = calls.get(_algo, 0) + 1
                out = _run(problem, config, x0, callback=callback)
                finals[_algo] = out[0].copy()
                return out

            monkeypatch.setitem(experiments.ALGORITHMS, algo, counted)
        return calls, finals

    @staticmethod
    def shared(report, a, b):
        """Rows and curves of labels ``a`` and ``b`` agree in every field but
        ``algo`` and ``label``."""
        rows = {r.label: dataclasses.asdict(r) for r in report.results}
        for label in (a, b):
            del rows[label]["algo"], rows[label]["label"]
        return rows[a] == rows[b] and report.curves[a] == report.curves[b]

    def test_reference_runs_twice_every_other_row_once(self, monkeypatch):
        calls, finals = self.count_runs(monkeypatch, ("bpiree", "irl1e1", "irl1"))
        report = run_comparison(desk_spec(**self.SPEC))
        assert calls == {"bpiree": 2, "irl1e1": 1, "irl1": 1}
        x_ref = finals["bpiree"]
        for row in report.results:
            expected = float(np.linalg.norm(finals[row.algo] - x_ref)) / float(
                np.linalg.norm(x_ref)
            )
            assert report.curves[row.label]["x_rel"][-1] == expected
            assert len(report.curves[row.label]["x_rel"]) == row.iterations

    def test_every_row_runs_traced_with_its_curve(self, monkeypatch):
        # the reference's first run only sets the target; its row, like
        # every other, is a traced run that tracks the curve
        passes = []

        def logged(algo, problem, config, x0, callback=None, _run=experiments.run_algorithm):
            passes.append((algo, callback is not None, config.record_trace))
            return _run(algo, problem, config, x0, callback=callback)

        monkeypatch.setattr(experiments, "run_algorithm", logged)
        report = run_comparison(desk_spec(**self.SPEC))
        assert passes == [("bpiree", False, True), ("bpiree", True, True),
                          ("irl1e1", True, True), ("irl1", True, True)]
        for row in report.results:
            assert len(report.curves[row.label]["f_gap"]) == row.iterations
        assert report.curves["bpiree"]["f_gap"][-1] == 0.0

    def test_failing_row_gets_empty_curves(self, monkeypatch):
        def fails_midway(problem, config, x0, callback=None):
            if callback is not None:
                callback(1, x0)
            raise RuntimeError("breaks after one iteration")

        monkeypatch.setitem(experiments.ALGORITHMS, "irl1", fails_midway)
        report = run_comparison(desk_spec(**self.SPEC))
        row = next(r for r in report.results if r.label == "irl1")
        assert row.status == "NumericalFailure"
        assert math.isnan(row.rel_err_ref)
        assert report.curves["irl1"] == {"f_gap": [], "x_rel": []}
        assert len(report.curves["irl1e1"]["x_rel"]) > 0

    def test_failing_reference_raises(self, monkeypatch):
        # the reference runs as a plain call: its own exception propagates
        error = RuntimeError("no iterate")

        def fails(problem, config, x0, callback=None):
            raise error

        monkeypatch.setitem(experiments.ALGORITHMS, "bpiree", fails)
        with pytest.raises(RuntimeError) as info:
            run_comparison(desk_spec(**self.SPEC))
        assert info.value is error

    def test_failing_row_writes_null(self, monkeypatch):
        def fails(problem, config, x0, callback=None):
            raise RuntimeError("no iterate")

        monkeypatch.setitem(experiments.ALGORITHMS, "irl1", fails)
        text = run_comparison(desk_spec(**self.SPEC)).to_json()
        doc = json.loads(text, parse_constant=reject_constant)
        row = next(r for r in doc["results"] if r["label"] == "irl1")
        assert row["F_final"] is row["rel_err_true"] is row["rel_err_ref"] is None
        assert row["status"] == "NumericalFailure"
        assert doc["curves"]["irl1"] == {"f_gap": [], "x_rel": []}

    def test_uncoupled_pire_au_and_pire_ps_share_one_run(self, monkeypatch):
        # desk matrix_lp's blocks are whole columns, so pire-au runs pire-ps
        spec = desk_spec("matrix_lp", seed=0)
        calls, finals = self.count_runs(monkeypatch, ("bpiree-lp", "pire-au", "pire-ps"))
        report = run_comparison(spec)
        assert calls["bpiree-lp"] == 2
        assert calls.get("pire-au", 0) + calls.get("pire-ps", 0) == 1
        assert self.shared(report, "pire-au", "pire-ps")
        assert len(report.curves["pire-ps"]["x_rel"]) > 0

        # ... and that run is the one pire-ps makes on its own
        problem, x_true = experiments.build_problem(spec)
        x_ref = finals["bpiree-lp"]
        x_rel = []

        def track(k, xk):
            x_rel.append(float(np.linalg.norm(xk - x_ref)) / float(np.linalg.norm(x_ref)))

        config = make_solver_config(spec, SolverEntry("pire-ps"))
        x, trace, status = run_algorithm("pire-ps", problem, config,
                                         np.zeros(problem.loss.dim), callback=track)
        row = next(r for r in report.results if r.label == "pire-ps")
        F_ref = next(r for r in report.results if r.label == "bpiree-lp").F_final
        assert (row.iterations, row.status, row.F_final) == (
            trace.iterations, status.value, trace.columns["F"][-1])
        assert row.rel_err_true == rel_err(x, x_true)
        assert row.rel_err_ref == rel_err(x, x_ref)
        assert report.curves["pire-ps"] == {
            "f_gap": [abs(F - F_ref) for F in trace.columns["F"]], "x_rel": x_rel}

    def test_coupled_pire_au_runs_its_own_sweep(self, monkeypatch):
        # m=3 splits columns between blocks: pire-au is Gauss-Seidel, not pire-ps
        calls, _ = self.count_runs(monkeypatch, ("bpiree-lp", "pire-au", "pire-ps"))
        sweeps = []

        def counted_sweep(*args, _step=baselines._sequential_step, **kwargs):
            sweeps.append(1)
            return _step(*args, **kwargs)

        monkeypatch.setattr(baselines, "_sequential_step", counted_sweep)
        report = run_comparison(desk_spec("matrix_lp", seed=0, m=3))
        assert calls == {"bpiree-lp": 2, "pire-au": 1, "pire-ps": 1}
        au = next(r for r in report.results if r.label == "pire-au")
        assert len(sweeps) == au.iterations > 0
        assert not self.shared(report, "pire-au", "pire-ps")

    def test_rows_with_one_algo_and_config_share_one_run(self, monkeypatch):
        calls, _ = self.count_runs(monkeypatch, ("bpiree", "irl1"))
        rows = [{"algo": "bpiree"}, {"algo": "irl1", "label": "a"},
                {"algo": "irl1", "label": "b"}]
        report = run_comparison(desk_spec(**self.SPEC, solvers=rows))
        assert calls == {"bpiree": 2, "irl1": 1}
        assert self.shared(report, "a", "b")

        calls.clear()
        rows[2]["config"] = {"tol": 1e-5}
        report = run_comparison(desk_spec(**self.SPEC, solvers=rows))
        assert calls == {"bpiree": 2, "irl1": 2}
        assert not self.shared(report, "a", "b")

    def test_a_copy_of_the_reference_shares_its_runs(self, monkeypatch):
        calls, _ = self.count_runs(monkeypatch, ("bpiree",))
        rows = [{"algo": "bpiree"}, {"algo": "bpiree", "label": "again"}]
        report = run_comparison(desk_spec(**self.SPEC, solvers=rows))
        assert calls == {"bpiree": 2}
        assert self.shared(report, "bpiree", "again")
        assert report.curves["again"]["f_gap"][-1] == 0.0

    def test_rows_of_a_failed_run_share_its_failure(self, monkeypatch):
        def fails(problem, config, x0, callback=None):
            raise RuntimeError("no iterate")

        monkeypatch.setitem(experiments.ALGORITHMS, "irl1", fails)
        rows = [{"algo": "bpiree"}, {"algo": "irl1", "label": "a"},
                {"algo": "irl1", "label": "b"}]
        report = run_comparison(desk_spec(**self.SPEC, solvers=rows))
        assert self.shared(report, "a", "b")
        assert report.curves["b"] == {"f_gap": [], "x_rel": []}
        assert next(r for r in report.results if r.label == "b").status == "NumericalFailure"


class TestProxCallPath:
    """Every algorithm calls the prox through the module-level names
    ``solver.block_prox_step`` and ``baselines.block_prox_step``, the names
    a span recorder rebinds; the counts pin how often."""

    @pytest.fixture(scope="class")
    def instance(self):
        spec = desk_spec("matrix_lp", seed=0)
        problem, _ = experiments.build_problem(spec)
        return spec, problem

    @pytest.mark.parametrize("algo", sorted(experiments.ALGORITHMS))
    def test_calls_per_iteration(self, monkeypatch, instance, algo):
        spec, problem = instance
        calls = []
        for module in (solver, baselines):
            def counted(*args, _prox=module.block_prox_step, **kwargs):
                calls.append(len(args[0]))
                return _prox(*args, **kwargs)

            monkeypatch.setattr(module, "block_prox_step", counted)
        config = dataclasses.replace(
            make_solver_config(spec, SolverEntry(algo)), max_iter=300
        )
        _x, trace, _status = run_algorithm(
            algo, problem, config, np.zeros(problem.loss.dim)
        )
        k, m, n = trace.iterations, problem.partition.m, problem.loss.dim
        if algo.startswith("bpiree"):
            # one call per attempt: a retried step tries twice
            retries = sum(trace.columns["retried"])
            assert retries > 0
            assert calls == [n // m] * (k + retries)
        else:
            # the full-vector methods, pire-ps, which batches its m blocks,
            # and pire-au, which is pire-ps on these whole-column blocks:
            # one call on all n coordinates per iteration
            assert max(problem.coupling) == 1
            assert calls == [n] * k
