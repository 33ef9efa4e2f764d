"""File formats: problem-instance JSON, trace CSV, atomic writes.

Problem instances serialize to a JSON document

    {"A": <rows or blob path>, "b": [...], "blocks": [[...], ...],
     "penalty": {"type": ..., "lam": ..., ...}}

with optional fields ``A_shape`` (required when ``A`` is a path to a raw
little-endian float64 blob, row-major), ``t`` (matrix column count, 1 for
vector problems) and ``x_true`` (the planted signal, when known); any other
key is rejected.  All index arrays are 0-based.

A trace CSV has one column per entry of ``Trace.columns``, in order:
``k,F,step_rel,residual,beta,block,retried,wall_ns`` (plus
``eps_min,eps_max,support_size,sign_fixed`` for smoothed-lp block runs and
a final ``algo`` column, which ``solve`` always writes); floats are written
in shortest round-trip decimal form, booleans as 0/1 and integers as
decimals.

Every file is written to a new ``.tmp-<random>`` file beside it, created
0o666 less the umask (which no write changes), then renamed into place; a
failed write names the path it was given and keeps the old file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import math
import os
from typing import Optional

import numpy as np

from .model import (
    BlockPartition,
    LeastSquares,
    LogPenalty,
    MatrixLeastSquares,
    Problem,
    SmoothedLp,
    from_json,
)
from .solver import Trace

__all__ = [
    "atomic_write_text",
    "save_problem",
    "load_problem",
    "penalty_to_dict",
    "penalty_from_dict",
    "write_trace_csv",
    "trace_csv_text",
]


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temporary file in the target directory, then rename.

    Guarantees no partial file is left behind on failure.  The file gets
    the mode a plain ``open`` would give it, 0o666 less the umask.
    """
    _atomic_write(path, text, "w")


def _unused_name(path: str) -> str:
    """A ``.tmp-<random>`` name beside ``path`` that no file has."""
    directory = os.path.dirname(os.path.abspath(path))
    while True:
        tmp = os.path.join(directory, f".tmp-{os.urandom(6).hex()}")
        if not os.path.lexists(tmp):
            return tmp


@contextlib.contextmanager
def _through(tmp: str, path: str):
    """A write of ``path`` by way of ``tmp``: on failure ``tmp`` is deleted, and an
    ``OSError`` with an errno is re-raised naming ``path``, the file asked for."""
    try:
        yield
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _atomic_write(path: str, data, mode: str) -> None:
    tmp = _unused_name(path)
    with _through(tmp, path):
        # O_EXCL never opens a file another writer made; the kernel applies the umask
        with os.fdopen(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), mode) as f:
            f.write(data)
        os.replace(tmp, path)


# the instance penalty's "type" -> its class; the other keys are the class's fields
PENALTY_TYPES = {"log": LogPenalty, "lp": SmoothedLp}


def penalty_to_dict(penalty) -> dict:
    for kind, cls in PENALTY_TYPES.items():
        if type(penalty) is cls:
            return {"type": kind, **dataclasses.asdict(penalty)}
    raise ValueError(f"penalty {type(penalty).__name__} has no JSON form")


def penalty_from_dict(d):
    """The penalty a JSON object describes: its ``type`` and exactly the
    fields of that penalty class, which checks their values."""
    if not isinstance(d, dict):
        raise ValueError(f"penalty must be an object, got {d!r}")
    params = dict(d)
    kind = params.pop("type", None)
    if not (isinstance(kind, str) and kind in PENALTY_TYPES):
        raise ValueError(f"unknown penalty type {kind!r}")
    return from_json(PENALTY_TYPES[kind], params, "penalty")


def save_problem(path: str, problem: Problem, x_true=None, blob: bool = False) -> None:
    """Write a problem instance; ``blob=True`` stores A as ``<path>.A.bin``.
    When the JSON cannot be written, both files stay as they were: the old
    ones, or none."""
    loss = problem.loss
    if isinstance(loss, LeastSquares):
        A, b, t = loss.A, loss.b, 1
    elif isinstance(loss, MatrixLeastSquares):
        A, b, t = loss.A, loss.B.ravel(order="F"), loss.t
    else:
        raise ValueError(f"loss {type(loss).__name__} has no JSON form")
    doc = {
        "b": b.tolist(),
        "t": t,
        "blocks": [blk.tolist() for blk in problem.partition.blocks],
        "penalty": penalty_to_dict(problem.penalty),
    }
    blob_path = path + ".A.bin"
    if blob:
        doc["A"] = os.path.basename(blob_path)
        doc["A_shape"] = list(A.shape)
    else:
        doc["A"] = A.tolist()
    if x_true is not None:
        doc["x_true"] = np.asarray(x_true).ravel().tolist()
    text = json.dumps(doc, sort_keys=True)
    if not blob:
        atomic_write_text(path, text)
        return
    # the JSON names the blob, so the blob is replaced first, with the old
    # one set aside to go back if the JSON then cannot be written
    old = _unused_name(blob_path) if os.path.isfile(blob_path) else None
    if old is not None:
        with _through(old, path):  # a failed set-aside names the path given, too
            os.replace(blob_path, old)
    try:
        _atomic_write(blob_path, np.ascontiguousarray(A, dtype="<f8").tobytes(), "wb")
        atomic_write_text(path, text)
    except BaseException:
        if old is not None:
            os.replace(old, blob_path)
        elif os.path.isfile(blob_path):
            os.unlink(blob_path)
        raise
    if old is not None:
        os.unlink(old)


def _floats(value, name: str) -> np.ndarray:
    """A JSON array of numbers, or of rows of numbers, as a float array.  One
    pass over the rows rejects every non-number, booleans included, which
    numpy would read as 1.0 and 0.0."""
    rows = value if isinstance(value, list) and value and isinstance(value[0], list) else [value]
    if all(isinstance(row, list) and {int, float}.issuperset(map(type, row)) for row in rows):
        try:
            return np.asarray(value, dtype=np.float64)
        except (ValueError, OverflowError):  # ragged rows, an int beyond float range
            pass
    raise ValueError(f"{name} must be an array of numbers")


def _required(doc: dict, key: str):
    if key not in doc:
        raise ValueError(f"field {key!r} is required")
    return doc[key]


def load_problem(path: str):
    """Read a problem instance; returns ``(Problem, x_true_or_None)``.  A
    malformed one (a missing, unknown or ill-typed field, an ``A`` blob of
    other than ``A_shape``'s size, a ``b`` that does not split into ``t``
    columns, an ``x_true`` of other than the variable's length, blocks that
    do not partition the coordinates) raises ``ValueError`` naming the field."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"an instance must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - {"A", "A_shape", "b", "t", "blocks", "penalty", "x_true"})
    if unknown:
        raise ValueError(f"unknown field {unknown[0]!r}")
    A = _required(doc, "A")
    if isinstance(A, str):
        shape = _required(doc, "A_shape")
        if not (isinstance(shape, list) and len(shape) == 2
                and all(type(d) is int and d >= 0 for d in shape)):
            raise ValueError(f"A_shape must be two nonnegative integers, got {shape!r}")
        blob = np.fromfile(os.path.join(os.path.dirname(os.path.abspath(path)), A), dtype="<f8")
        if blob.size != math.prod(shape):
            raise ValueError(f"A_shape {shape} needs {math.prod(shape)} numbers, "
                             f"but {A} holds {blob.size}")
        A = blob.reshape(shape)
    else:
        A = _floats(A, "A")
    b = _floats(_required(doc, "b"), "b")
    t, blocks = doc.get("t", 1), _required(doc, "blocks")
    if type(t) is not int or t < 1:  # a bool is no column count
        raise ValueError(f"t must be a positive integer, got {t!r}")
    if b.size % t:
        raise ValueError(f"b has {b.size} entries, which do not split into t={t} columns")
    if not isinstance(blocks, list) or not all(
            isinstance(blk, list) and all(type(i) is int for i in blk) for blk in blocks):
        raise ValueError("blocks must be lists of integer indices")
    penalty = penalty_from_dict(_required(doc, "penalty"))
    loss = MatrixLeastSquares(A, b.reshape(-1, t, order="F")) if t > 1 else LeastSquares(A, b)
    problem = Problem(loss, penalty, BlockPartition(blocks=tuple(blocks), n=loss.dim))
    x_true = doc.get("x_true")
    if x_true is not None:
        x_true = _floats(x_true, "x_true")
        if x_true.shape != (loss.dim,):  # one entry would broadcast against x
            raise ValueError(f"x_true must have length {loss.dim}, got shape {x_true.shape}")
    return problem, x_true


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip decimal
    return str(value)


def trace_csv_text(trace: Trace, algo: Optional[str] = None) -> str:
    """Render a trace's columns as CSV; ``algo`` appends a constant last column."""
    columns = dict(trace.columns)
    if algo is not None:
        columns["algo"] = itertools.repeat(algo)
    lines = [",".join(columns)]
    lines += (",".join(map(_fmt, row)) for row in zip(*columns.values()))
    return "\n".join(lines) + "\n"


def write_trace_csv(path: str, trace: Trace, algo: Optional[str] = None) -> None:
    atomic_write_text(path, trace_csv_text(trace, algo=algo))
