"""Span recording around bpiree's entry points, installed from outside the package.

A :class:`Tracer` rebinds public functions and methods at the names their
callers look up (module globals, class attributes, the ``ALGORITHMS``
table) with timing wrappers, and restores the originals on
:meth:`Tracer.uninstall`.  Spans are kept in memory as parallel arrays
(name, parent, start, end) and written out once, when the run ends.

A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import os
import time
from array import array

import numpy as np

_now = time.perf_counter_ns


class Tracer:
    """In-memory span and counter store plus the rebinding that feeds it."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("h")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: dict = {}
        self.observed: dict = {}
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(i)
        self.start.append(_now())
        return i

    def close(self, i: int) -> None:
        self.end[i] = _now()
        self._stack.pop()

    def count(self, name: str, value=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def observe(self, name: str, value) -> None:
        self.observed.setdefault(name, []).append(value)

    def take_counters(self):
        """Return and reset the counters and observations since the last call."""
        counts, observed = self.counts, self.observed
        self.counts, self.observed = {}, {}
        return counts, observed

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self, lo: int = 0, hi: int = None):
        """Spans ``lo..hi`` as numpy arrays; parents are re-based to ``lo``."""
        hi = len(self) if hi is None else hi
        name = np.frombuffer(self.name, dtype=np.int16)[lo:hi].copy()
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi].astype(np.int64) - lo
        start = np.frombuffer(self.start, dtype=np.int64)[lo:hi].copy()
        end = np.frombuffer(self.end, dtype=np.int64)[lo:hi].copy()
        return name, parent, start, end

    def save(self, path: str) -> None:
        name, parent, start, end = self.arrays()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start_ns=start, end_ns=end)

    # -- wrappers ----------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        """Timing wrapper; ``before(tracer, args)`` and ``after(tracer, args,
        out)`` update counters outside the span."""
        nid = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            i = tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if after is not None:
                after(tracer, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def counting(self, name: str, fn):
        """Wrapper that only counts calls (for calls too cheap to time)."""
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[name] = tracer.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _run_algorithm(self, fn):
        # the compare harness's second (curve) pass is the call with a callback
        first = self.wrap("experiments.run_algorithm", fn)
        curve = self.wrap("experiments.curve_pass", fn)

        def run_algorithm(algo, problem, config, x0, callback=None):
            if callback is None:
                return first(algo, problem, config, x0)
            return curve(algo, problem, config, x0, callback=callback)

        run_algorithm.__wrapped__ = fn
        return run_algorithm

    def _patch(self, owner, attr: str, wrapper_of) -> None:
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = wrapper_of(original)
        else:
            # read the raw attribute so a staticmethod stays static
            original = owner.__dict__[attr]
            if isinstance(original, staticmethod):
                setattr(owner, attr, staticmethod(wrapper_of(original.__func__)))
            else:
                setattr(owner, attr, wrapper_of(original))
        self._patches.append((owner, attr, original))

    def patch(self, owner, attr, name, before=None, after=None) -> None:
        self._patch(owner, attr, lambda fn: self.wrap(name, fn, before, after))

    def patch_count(self, owner, attr, name) -> None:
        self._patch(owner, attr, lambda fn: self.counting(name, fn))

    def install(self) -> None:
        """Rebind bpiree's entry points; see :func:`_targets` for the list."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for kind, *rest in _targets():
            if kind == "span":
                self.patch(*rest)
            elif kind == "count":
                self.patch_count(*rest)
            else:
                self._patch(*rest, self._run_algorithm)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# what gets rebound
# ---------------------------------------------------------------------------


def _plan_bytes(plan, delta_len: int, residual_rw: int) -> int:
    """Bytes a plan call touches, computed from array sizes: the block
    operator once, the block vector once and ``residual_rw`` passes over the
    residual entries the operator acts on."""
    if hasattr(plan, "A_sub"):
        A = plan.A_sub
        return A.nbytes + 8 * delta_len + residual_rw * 8 * A.shape[0]
    total = 8 * delta_len
    for _col, _pos, A in getattr(plan, "groups", ()):
        total += A.nbytes + residual_rw * 8 * A.shape[0]
    return total


def _grad_bytes(tracer, args):
    plan = args[0]
    tracer.count("model.plan_grad_bytes", _plan_bytes(plan, _block_len(plan), 1))


def _residual_bytes(tracer, args):
    plan, r, delta = args[0], args[1], args[2]
    # read r, write the new residual; the matrix plan also copies r whole
    extra = 2 * r.nbytes if getattr(r, "ndim", 1) == 2 else 0
    tracer.count("model.plan_residual_bytes", _plan_bytes(plan, len(delta), 2) + extra)


def _block_len(plan) -> int:
    if hasattr(plan, "A_sub"):
        return plan.A_sub.shape[1]
    return sum(pos.size for _col, pos, _A in getattr(plan, "groups", ()))


def _prox_coords(tracer, args):
    tracer.count("prox.coords", len(args[0]))


def _eps_shrinks(tracer, args, out):
    tracer.count("lp.eps_shrinks", int(np.count_nonzero(out < args[1])))


def _lp_outcome(tracer, args, out):
    x, _eps, trace, _status = out
    support = getattr(trace, "support", None)
    if support is not None and support.K_observed is not None:
        tracer.observe("lp.support_fixed_at", support.K_observed)
    tracer.observe("lp.final_nnz", int(np.count_nonzero(x)))


def _baseline_iters(tracer, args, out):
    tracer.count("baselines.iters", out[1].iterations)


def _io_written(tracer, args):
    tracer.count("io.bytes_written", len(args[1]))


def _io_read(tracer, args):
    tracer.count("io.bytes_read", os.path.getsize(args[0]))


def _plan_classes():
    """Plan classes as the losses build them (found through the public API)."""
    from bpiree.model import LeastSquares, MatrixLeastSquares

    vec = LeastSquares(np.eye(2), np.zeros(2)).block_plan([0])
    mat = MatrixLeastSquares(np.eye(2), np.zeros((2, 2))).block_plan([0])
    return type(vec), type(mat)


def _targets():
    from bpiree import baselines, cli, experiments, io, lp, model, solver

    out = [("span", model, "spectral_norm_sq", "model.spectral_norm_sq")]
    for plan_cls in dict.fromkeys(_plan_classes()):
        out.append(("span", plan_cls, "grad_from_residual", "model.plan_grad", _grad_bytes))
        out.append(("span", plan_cls, "residual_after_delta", "model.plan_residual",
                    _residual_bytes))
    for loss_cls in (model.LeastSquares, model.MatrixLeastSquares):
        out.append(("span", loss_cls, "residual", "model.loss_residual"))
    for pen_cls in (model.LogPenalty, model.SmoothedLp):
        out.append(("span", pen_cls, "weights", "model.penalty"))
        out.append(("span", pen_cls, "value", "model.penalty"))
    out.append(("span", model.SmoothedLp, "decay_epsilon", "lp.decay_epsilon", None,
                _eps_shrinks))
    for mod in (solver, baselines):
        out.append(("span", mod, "block_prox_step", "prox.block_prox_step", _prox_coords))
        out.append(("count", mod, "fista_momentum", "momentum.fista_momentum_calls"))
    out += [
        ("span", solver, "init_state", "solver.init_state"),
        ("span", solver, "bpiree_step", "solver.bpiree_step"),
        ("span", solver, "solve_state", "solver.solve_state"),
        ("span", lp, "solve_state", "solver.solve_state"),
        ("span", solver, "solve", "solver.solve"),
        ("span", lp, "solve_lp", "lp.solve_lp", None, _lp_outcome),
        ("span", cli, "solve_lp", "lp.solve_lp", None, _lp_outcome),
    ]
    for algo in list(experiments.ALGORITHMS):
        if algo == "bpiree":
            out.append(("span", experiments.ALGORITHMS, algo, "solver.solve"))
        elif algo == "bpiree-lp":
            out.append(("span", experiments.ALGORITHMS, algo, "lp.solve_lp", None,
                        _lp_outcome))
        else:
            out.append(("span", experiments.ALGORITHMS, algo, "baselines.solve", None,
                        _baseline_iters))
    out += [
        ("span", experiments, "build_problem", "experiments.build_problem"),
        ("span", cli, "build_problem", "experiments.build_problem"),
        ("run_algorithm", experiments, "run_algorithm"),
        ("span", cli, "main", "cli.main"),
        ("span", cli, "run_comparison", "experiments.run_comparison"),
        ("span", cli, "save_problem", "io.save_problem"),
        ("span", cli, "load_problem", "io.load_problem", _io_read),
        ("span", cli, "write_trace_csv", "io.write_trace_csv"),
        ("span", cli, "atomic_write_text", "io.atomic_write", _io_written),
        ("span", io, "atomic_write_text", "io.atomic_write", _io_written),
    ]
    return out
