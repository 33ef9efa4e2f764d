"""The benchmark's tracer still finds every name it rebinds.

``perfbench/tracer.py`` wraps bpiree's entry points by name (module
globals, class attributes, the ``ALGORITHMS`` table) and unpacks some
results, such as the 4-tuple of ``solve_lp``.  Renaming or reshaping one
of them breaks the benchmark; this test breaks with it.
"""

import importlib.util
import json
import os

import numpy as np

from bpiree import cli
from bpiree.model import LeastSquares

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bound(owner, attr):
    return owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]


def count_operator_bytes(tracer, plan_cls, calls):
    """Wrap the traced plan methods so that each call checks that its byte
    counter grew by the block operators' bytes on top of 8 per block
    coordinate; a plan whose operators the tracer cannot see (through
    ``plan.groups``) would add the block vector's bytes alone.
    ``Tracer.uninstall`` puts the untraced methods back over these."""
    for method, counter in (("grad_from_residual", "model.plan_grad_bytes"),
                            ("residual_after_delta", "model.plan_residual_bytes")):
        def checked(plan, *args, traced=getattr(plan_cls, method), counter=counter):
            before = tracer.counts.get(counter, 0)
            out = traced(plan, *args)
            coords = sum(pos.size for _col, pos, _A in plan.groups)
            operators = sum(A.nbytes for _col, _pos, A in plan.groups)
            assert operators > 0 and tracer.counts[counter] - before >= operators + 8 * coords
            calls[counter] = calls.get(counter, 0) + 1
            return out

        setattr(plan_cls, method, checked)


def test_traced_cli_runs_and_uninstall_restores(tmp_path, capsys):
    tracer_module = load_tracer_module()
    targets = [(owner, attr) for _kind, owner, attr, *_ in tracer_module._targets()]
    originals = [bound(owner, attr) for owner, attr in targets]
    configs = (
        ({"example": "log_ls", "n": 30, "q": 60, "sparsity": 3}, "bpiree"),
        ({"example": "matrix_lp", "n": 20, "q": 40, "t": 4, "m": 2,
          "lam": 0.015, "p": 0.1, "mu": 0.1}, "bpiree-lp"),
    )
    tracer = tracer_module.Tracer()
    plan_cls = type(LeastSquares(np.eye(2), np.zeros(2)).block_plan([0]))
    checked_calls = {}
    try:
        tracer.install()  # inside the try: a missing name raises half-way through
        count_operator_bytes(tracer, plan_cls, checked_calls)
        for i, (config, algo) in enumerate(configs):
            cfg = tmp_path / f"cfg{i}.json"
            cfg.write_text(json.dumps(config))
            inst, trace, report = (str(tmp_path / f"{i}.{ext}")
                                   for ext in ("instance.json", "trace.csv", "report.json"))
            common = ["--config", str(cfg), "--seed", "3"]
            assert cli.main(["generate", *common, "--out", inst]) == 0
            assert cli.main(["solve", *common, "--algo", algo, inst, "--trace", trace]) == 0
            assert cli.main(["compare", *common, "--out", report]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert len(tracer) > 0
    assert tracer.observed["lp.final_nnz"]  # the tracer unpacked bpiree-lp's 4-tuple
    assert sorted(checked_calls) == ["model.plan_grad_bytes", "model.plan_residual_bytes"]
    for (owner, attr), original in zip(targets, originals):
        assert bound(owner, attr) is original, attr
