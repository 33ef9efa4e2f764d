"""The benchmark's workloads, the checks on their outputs, and the timing loop.

Each workload is a closed loop: one caller in one process runs one try
after another, and a try starts only after the previous one returned.
A timed round runs one instance ``TRIES`` times.  Instances are drawn from
a pool of ``POOL`` instance seeds in an order fixed by the workload seed,
so the same seed always gives the same inputs and the recorded reference
values cover every instance.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time

import numpy as np

from metrics import breakdown, layer_metrics
from tracer import Tracer

POOL = 64
# Relative tolerance on F_final against the reference values.  Iteration
# counts must match exactly.
F_REL_TOL = 1e-9
MIN_ROUNDS = 3
# tries per timed round; the fastest counts (see run())
TRIES = 2

LOG_LS_DIMS = {"paper": dict(n=1000, q=3000, sparsity=50), "quick": dict(n=100, q=300, sparsity=5)}
MATRIX_LP_DIMS = {"paper": dict(n=100, q=500, t=50, m=10), "quick": dict(n=50, q=100, t=10, m=5)}
# lam=0.015 instead of the paper preset 5e-4, which runs ~15k iterations
# and ends far from the planted matrix.
MATRIX_LP_PENALTY = dict(lam=0.015, p=0.1, mu=0.1)
# (name, config, algorithm) of the three desk configs the CLI workload runs
CLI_CONFIGS = (
    ("well", {"example": "log_ls"}, "bpiree"),
    ("ill", {"example": "log_ls", "conditioning": "ill"}, "irl1e1"),
    ("lp", {"example": "matrix_lp", **MATRIX_LP_PENALTY}, "bpiree-lp"),
)
CLI_QUICK_DIMS = {
    "log_ls": dict(n=30, q=60, sparsity=3),
    "matrix_lp": dict(n=20, q=40, t=4, m=2),
}


# A run makes at least MIN_ROUNDS timed rounds; at the speed of the commit
# that added the benchmark, 30 s hold 3 to 9.  The order is balanced over
# every prefix up to 24 rounds, so a program three times faster is covered.
BALANCED_PREFIXES = range(MIN_ROUNDS, 25)
CANDIDATES = 4096
CANDIDATE_BATCH = 256
# Weights of the solve, total and setup deviations.  Balancing setup as
# tightly as the other two would unbalance them; at half weight all three
# stay within a few percent.
BALANCE_WEIGHTS = (1.0, 1.0, 0.5)


def _group(key: str) -> str:
    """Cost column of a checked operation: the compare rows of a config
    share one column."""
    head, sep, _ = key.partition(".compare.")
    return head + ".compare" if sep else key


def instance_costs(recorded: dict) -> np.ndarray:
    """Solve, total and setup cost of every pool instance, shape ``(3, POOL)``.

    One recorded timing of an instance is noisy: on a shared 2-core VM,
    two recordings of the pool differed per instance by 16% (coefficient of
    variation).  Its iteration counts are exact.  So the solve and total
    costs are predicted from the counts, by a least-squares fit of the
    recorded times over the pool, one column per cost group.  Setup has no
    count to predict it from; its recorded time is used as it is.
    """
    inst = [recorded["instances"][str(i)] for i in range(POOL)]
    groups = sorted({_group(k) for k in inst[0]})
    X = np.zeros((POOL, len(groups) + 1))
    X[:, -1] = 1.0
    for i, ops in enumerate(inst):
        for key, values in ops.items():
            X[i, groups.index(_group(key))] += values["iters"]
    costs = [recorded["cost_s"][str(i)] for i in range(POOL)]
    solve = np.array([c["solve"] for c in costs])
    total = np.array([sum(c.values()) for c in costs])
    fit = [X @ np.linalg.lstsq(X, y, rcond=None)[0] for y in (solve, total)]
    return np.array([*fit, [c["setup"] for c in costs]])


def instance_order(seed: int, recorded: dict = None) -> list:
    """Instance seeds in the order the run visits them.

    Without ``recorded`` reference values this is a seeded permutation of
    the pool.  With them, it is the most balanced of ``CANDIDATES`` seeded
    permutations: the one whose prefixes in ``BALANCED_PREFIXES`` have
    median costs (:func:`instance_costs`) closest to the pool's, each
    deviation weighted by ``BALANCE_WEIGHTS``.  Instance costs differ by up
    to 5x; in a plain permutation the choice of instances alone spreads a
    run's medians by 15-20% from seed to seed, and its setup median by 45%
    on ``matrix_lp_paper``.
    """
    rng = np.random.default_rng(seed)
    if not recorded:
        return [int(i) for i in rng.permutation(POOL)]
    cost = instance_costs(recorded)
    pool = np.median(cost, axis=1)[:, None]
    weights = np.array(BALANCE_WEIGHTS)[:, None]
    best, order = np.inf, None
    # candidates in small batches, so that this leaves no mark on the
    # process's peak memory, which the benchmark reports
    for _ in range(CANDIDATES // CANDIDATE_BATCH):
        perms = rng.permuted(np.tile(np.arange(POOL), (CANDIDATE_BATCH, 1)), axis=1)
        worst = np.zeros(CANDIDATE_BATCH)
        for r in BALANCED_PREFIXES:
            med = np.median(cost[:, perms[:, :r]], axis=2)
            worst = np.maximum(worst, (weights * np.abs(med / pool - 1)).max(axis=0))
        k = int(np.argmin(worst))
        if worst[k] < best:
            best, order = worst[k], perms[k]
    return [int(i) for i in order]


# ---------------------------------------------------------------------------
# timing and checking
# ---------------------------------------------------------------------------


class Round:
    """Wall time of one round's timed calls; traced rounds also open an
    ``op.<key>`` span around each call."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times = {"setup": 0.0, "solve": 0.0, "compare": 0.0}

    @contextlib.contextmanager
    def timed(self, key: str):
        tracer = self.tracer
        span = tracer.open(tracer.name_id("op." + key)) if tracer is not None else None
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.times[key] += time.perf_counter() - t0
            if tracer is not None:
                tracer.close(span)


class Checker:
    """Counts operations and failures; compares outputs with the reference.

    With ``record=True`` the reference is filled in instead of checked.
    """

    def __init__(self, reference: dict, record: bool = False):
        self.reference = reference
        self.record = record
        self.attempted = 0
        self.failed = 0
        self.messages: list = []
        self._seen: dict = {}
        self._exact: dict = {}

    def op(self, inst: int, key: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.append(f"instance {inst} {key}: " + "; ".join(problems))

    def expect(self, inst: int, key: str, values: dict) -> list:
        """Problems with ``values`` against the reference for ``(inst, key)``."""
        if self.record:
            self.reference.setdefault(str(inst), {})[key] = values
            return []
        want = self.reference.get(str(inst), {}).get(key)
        if want is None:
            return [f"no reference value for {key}"]
        problems = []
        for field, ref in want.items():
            got = values.get(field)
            if isinstance(ref, float):
                ok = got is not None and abs(got - ref) <= F_REL_TOL * max(abs(ref), 1e-300)
            else:
                ok = got == ref
            if not ok:
                problems.append(f"{field} {got!r} differs from reference {ref!r}")
        return problems

    def lipschitz(self, inst: int, key: str, problem, block_L) -> list:
        """Problems if a block Lipschitz estimate is below ``||A_b||^2``.

        The exact norms are computed on the first call for ``(inst, key)``
        and kept: a later try builds the same operator, or its output
        differs and :meth:`same_as_before` reports it.
        """
        exact = self._exact.get((inst, key))
        if exact is None:
            exact = self._exact[(inst, key)] = exact_block_norms_sq(problem.loss,
                                                                    problem.partition)
        low = np.flatnonzero(np.asarray(block_L) < exact)
        if low.size:
            return [f"block Lipschitz estimate below ||A_b||^2 on blocks {low.tolist()}"]
        return []

    def same_as_before(self, inst: int, key: str, digest: str) -> list:
        """Problems if an earlier call on the same instance gave other output."""
        first = self._seen.setdefault((inst, key), digest)
        return [] if first == digest else [f"{key} output differs from an earlier run"]


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def exact_block_norms_sq(loss, partition) -> np.ndarray:
    """``np.linalg.norm(A_b, 2)**2`` for the operator of every block."""
    if not hasattr(loss, "B"):
        return np.array([np.linalg.norm(loss.A[:, idx], 2) ** 2 for idx in partition.blocks])
    # flattened matrix variable: a block acts on each touched column through
    # A[:, rows], so its norm is the largest of those column-group norms
    cache: dict = {}
    out = []
    for idx in partition.blocks:
        cols, rows = idx // loss.q, idx % loss.q
        best = 0.0
        for col in np.unique(cols):
            r = np.sort(rows[cols == col])
            key = r.tobytes()
            if key not in cache:
                cache[key] = np.linalg.norm(loss.A[:, r], 2) ** 2
            best = max(best, cache[key])
        out.append(best)
    return np.array(out)




# ---------------------------------------------------------------------------
# the paper-scale solve workloads
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Solved:
    problem: object
    x_true: np.ndarray
    block_L: np.ndarray
    x: np.ndarray
    eps: object
    iters: int
    status: str


def _harness_config(spec, algo):
    """The comparison harness's config for ``algo``, with tracing off."""
    from bpiree import experiments

    config = experiments.make_solver_config(spec, experiments.SolverEntry(algo))
    return dataclasses.replace(config, record_trace=False)


class _SolveWorkload:
    def check(self, inst: int, outputs: dict, checker: Checker) -> dict:
        from bpiree import experiments, model

        F_sum, rel_errs = 0.0, []
        for key, out in outputs.items():
            problems = []
            F = model.eval_objective(out.problem.loss, out.problem.penalty, out.x, out.eps)
            if out.status != "Converged":
                problems.append(f"status {out.status}")
            if not (np.all(np.isfinite(out.x)) and math.isfinite(F)):
                problems.append("non-finite iterate or objective")
            problems += checker.expect(inst, key, {"iters": out.iters, "F_final": F})
            problems += checker.lipschitz(inst, key, out.problem, out.block_L)
            problems += checker.same_as_before(inst, key, _digest(out.iters, out.x.tobytes()))
            checker.op(inst, key, problems)
            F_sum += F
            rel_errs.append(experiments.rel_err(out.x, out.x_true))
        return {"F_final_sum": F_sum, "rel_errs": rel_errs}


class LogLsPaper(_SolveWorkload):
    """Paper-scale Gaussian log_ls, solved by bpiree at m=1 and at m=10."""

    name = "log_ls_paper"

    def __init__(self, scale: str = "paper"):
        self.dims = LOG_LS_DIMS[scale]

    def execute(self, inst: int, rnd: Round) -> dict:
        from bpiree import experiments, solver

        outputs = {}
        for m in (1, 10):
            spec = experiments.ExperimentSpec(
                example="log_ls", seed=inst, m=m, lam=5e-4, eps_bar=0.1, **self.dims
            )
            config = _harness_config(spec, "bpiree")
            x0 = np.zeros(spec.q)
            with rnd.timed("setup"):
                problem, x_true = experiments.build_problem(spec)
                state = solver.init_state(problem, config, x0)
            with rnd.timed("solve"):
                x, trace, status = solver.solve(problem, config, x0)
            outputs[f"m{m}"] = Solved(problem, x_true, state.last_block_L.copy(), x, None,
                                      trace.iterations, status.value)
        return outputs


class MatrixLpPaper(_SolveWorkload):
    """Paper-scale matrix_lp solved by bpiree-lp."""

    name = "matrix_lp_paper"

    def __init__(self, scale: str = "paper"):
        self.dims = MATRIX_LP_DIMS[scale]

    def execute(self, inst: int, rnd: Round) -> dict:
        from bpiree import experiments, lp, solver

        spec = experiments.ExperimentSpec(
            example="matrix_lp", seed=inst, **MATRIX_LP_PENALTY, **self.dims
        )
        config = _harness_config(spec, "bpiree-lp")
        x0 = np.zeros(spec.q * spec.t)
        with rnd.timed("setup"):
            problem, x_true = experiments.build_problem(spec)
            state = solver.init_state(problem, config, x0)
        with rnd.timed("solve"):
            x, eps, trace, status = lp.solve_lp(problem, config, x0)
        return {"lp": Solved(problem, x_true, state.last_block_L.copy(), x, eps,
                             trace.iterations, status.value)}


# ---------------------------------------------------------------------------
# the CLI workload
# ---------------------------------------------------------------------------


class CliDesk:
    """In-process ``bpiree.cli.main``: generate, solve --trace and compare
    --out on three desk configs per round."""

    name = "cli_desk"

    def __init__(self, workdir: str, scale: str = "paper"):
        self.workdir = workdir
        self.configs = []
        for name, config, algo in CLI_CONFIGS:
            config = dict(config)
            if scale == "quick":
                config.update(CLI_QUICK_DIMS[config["example"]])
            path = os.path.join(workdir, f"{name}.config.json")
            with open(path, "w") as f:
                json.dump(config, f)
            self.configs.append((name, path, algo))

    def _files(self, name):
        d = self.workdir
        return (os.path.join(d, f"{name}.instance.json"), os.path.join(d, f"{name}.trace.csv"),
                os.path.join(d, f"{name}.report.json"))

    def execute(self, inst: int, rnd: Round) -> dict:
        from bpiree import cli

        def run(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        outputs = {}
        for name, config_path, algo in self.configs:
            instance, trace_csv, report = self._files(name)
            common = ["--config", config_path, "--scale", "desk", "--seed", str(inst)]
            with rnd.timed("setup"):
                gen = run(["generate", *common, "--out", instance])
            with rnd.timed("solve"):
                sol = run(["solve", *common, "--algo", algo, instance, "--trace", trace_csv])
            with rnd.timed("compare"):
                cmp_ = run(["compare", *common, "--out", report])
            outputs[name] = (gen, sol, cmp_)
        return outputs

    def check(self, inst: int, outputs: dict, checker: Checker) -> dict:
        from bpiree import io as bio
        from bpiree import solver

        F_sum, rel_errs = 0.0, []
        for name, (gen, sol, cmp_) in outputs.items():
            instance, trace_csv, report = self._files(name)
            problems = [] if gen[0] == 0 else [f"exit code {gen[0]}"]
            checker.op(inst, f"{name}.generate", problems)

            problems = [] if sol[0] == 0 else [f"exit code {sol[0]}"]
            fields = sol[1].split()
            if len(fields) == 6:
                _algo, iters, F, _step, _res, status = fields
                iters, F = int(iters), float(F)
                if status != "Converged":
                    problems.append(f"status {status}")
                if not math.isfinite(F):
                    problems.append("non-finite objective")
                problems += checker.expect(inst, f"{name}.solve", {"iters": iters, "F_final": F})
                F_sum += F
            else:
                problems.append(f"unexpected solve output {sol[1]!r}")
            if not os.path.exists(trace_csv):
                problems.append("no trace CSV written")
            if os.path.exists(instance):
                problem, _ = bio.load_problem(instance)
                state = solver.init_state(problem, solver.SolverConfig(),
                                          np.zeros(problem.loss.dim))
                problems += checker.lipschitz(inst, name, problem, state.last_block_L)
            problems += checker.same_as_before(inst, f"{name}.solve", _digest(sol[1]))
            checker.op(inst, f"{name}.solve", problems)

            problems = [] if cmp_[0] == 0 else [f"exit code {cmp_[0]}"]
            data = b""
            if os.path.exists(report):
                with open(report, "rb") as f:
                    data = f.read()
            problems += checker.same_as_before(inst, f"{name}.compare", _digest(data))
            checker.op(inst, f"{name}.compare", problems)
            rows = json.loads(data)["results"] if data else []
            for row in rows:
                problems = []
                if row["status"] != "Converged":
                    problems.append(f"status {row['status']}")
                if not math.isfinite(row["F_final"]):
                    problems.append("non-finite objective")
                problems += checker.expect(
                    inst, f"{name}.compare.{row['label']}",
                    {"iters": row["iterations"], "F_final": row["F_final"],
                     "rel_err_true": row["rel_err_true"]},
                )
                checker.op(inst, f"{name}.compare.{row['label']}", problems)
                F_sum += row["F_final"]
                rel_errs.append(row["rel_err_true"])
        return {"F_final_sum": F_sum, "rel_errs": rel_errs}


def make_workload(name: str, workdir: str, scale: str = "paper"):
    if name == "log_ls_paper":
        return LogLsPaper(scale)
    if name == "matrix_lp_paper":
        return MatrixLpPaper(scale)
    if name == "cli_desk":
        return CliDesk(workdir, scale)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("log_ls_paper", "matrix_lp_paper", "cli_desk")


# ---------------------------------------------------------------------------
# the timing loop
# ---------------------------------------------------------------------------


def _release() -> None:
    """Drop what a try left behind before the next one starts."""
    from bpiree import solver

    # The solver keeps block plans of recent problems in a module-level
    # cache; emptying it after every try keeps peak memory independent of
    # how many tries fit into a run.
    plans = getattr(solver, "_block_plans", None)
    if hasattr(plans, "cache_clear"):
        plans.cache_clear()
    gc.collect()


@dataclasses.dataclass
class RunResult:
    rounds: list  # per untraced timed round: times plus quality
    layers: list  # per traced round: per-layer metrics
    overhead: list  # per traced round: (traced - untraced) solve and compare time
    breakdowns: list  # per traced round: {op: {span: self seconds}}
    attempted: int
    failed: int
    messages: list
    tracer: object
    peak_rss_mb: float


def run_round(workload, inst, checker, tracer=None):
    """Run and check one try of ``inst``; returns its call times, its
    quality figures and the range of spans it recorded."""
    rnd = Round(tracer)
    lo = len(tracer) if tracer is not None else 0
    if tracer is not None:
        tracer.install()
        root = tracer.open(tracer.name_id("round"))
    try:
        outputs = workload.execute(inst, rnd)
    finally:
        if tracer is not None:
            tracer.close(root)
            tracer.uninstall()
    quality = workload.check(inst, outputs, checker)
    del outputs
    _release()
    return rnd.times, quality, lo, (len(tracer) if tracer is not None else 0)


def run(workload, seed: int, seconds: float, traced: bool, checker: Checker,
        recorded: dict = None, min_rounds: int = MIN_ROUNDS, max_rounds: int = None) -> RunResult:
    """Warm up on the first instance, then run rounds for ``seconds``.

    The warm-up round is checked but not timed.  A timed round runs its
    instance ``TRIES`` times back to back and keeps, for each timed call
    group, the fastest try: on a shared machine, interference from other
    tenants only ever slows a try down.  The tries also compare two
    invocations on the same inputs.  A traced run adds one traced try.
    """
    order = instance_order(seed, recorded)
    tracer = Tracer() if traced else None
    run_round(workload, order[0], checker)
    rounds, layers, overhead, breakdowns = [], [], [], []
    t0 = time.perf_counter()
    j = 0
    while True:
        inst = order[j % POOL]
        tries = [run_round(workload, inst, checker)[:2] for _ in range(TRIES)]
        times = {k: min(t[k] for t, _ in tries) for k in tries[0][0]}
        rounds.append({**times, **tries[0][1]})
        if tracer is not None:
            ttimes, _, lo, hi = run_round(workload, inst, checker, tracer)
            counts, observed = tracer.take_counters()
            layers.append(layer_metrics(tracer, lo, hi, counts, observed))
            overhead.append({k: ttimes[k] - times[k] for k in ("solve", "compare")}
                            | {"base": times["solve"] + times["compare"]})
            breakdowns.append({op: breakdown(tracer, lo, hi, op)
                               for op in ("op.setup", "op.solve", "op.compare")})
        j += 1
        elapsed = time.perf_counter() - t0
        if max_rounds is not None and j >= max_rounds:
            break
        if j >= min_rounds and elapsed + elapsed / j > seconds:
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return RunResult(rounds, layers, overhead, breakdowns, checker.attempted, checker.failed,
                     checker.messages, tracer, peak)


def end_to_end(result: RunResult) -> dict:
    """Medians over the untraced timed rounds, plus the run-wide figures."""
    med = statistics.median
    rounds = result.rounds
    rel_errs = [e for r in rounds for e in r["rel_errs"]]
    return {
        "setup_s": med(r["setup"] for r in rounds),
        "solve_s": med(r["solve"] for r in rounds),
        "compare_s": med(r["compare"] for r in rounds),
        "total_s": med(r["setup"] + r["solve"] + r["compare"] for r in rounds),
        "peak_rss_mb": result.peak_rss_mb,
        "fail_rate": result.failed / result.attempted,
        "F_final_sum": med(r["F_final_sum"] for r in rounds),
        "rel_err_median": med(rel_errs) if rel_errs else math.nan,
    }


def per_layer(result: RunResult) -> dict:
    """Medians over the traced rounds, plus the tracing overhead."""
    med = statistics.median
    out = {k: med(layer[k] for layer in result.layers) for k in result.layers[0]}
    out["trace.solve_overhead_s"] = med(o["solve"] for o in result.overhead)
    out["trace.compare_overhead_s"] = med(o["compare"] for o in result.overhead)
    out["trace.overhead_share"] = med(
        (o["solve"] + o["compare"]) / o["base"] for o in result.overhead
    )
    return out


def median_breakdown(result: RunResult) -> dict:
    med = statistics.median
    out = {}
    for op in ("op.setup", "op.solve", "op.compare"):
        names = sorted({n for b in result.breakdowns for n in b[op]})
        out[op] = {n: med(b[op].get(n, 0.0) for b in result.breakdowns) for n in names}
    return out


def progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
