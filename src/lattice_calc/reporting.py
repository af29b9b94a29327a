"""Check records shared by the verification suites and the CLI."""

from __future__ import annotations

import hashlib
import math

import numpy as np


def inputs_digest(*parts) -> str:
    """Short stable digest of heterogeneous inputs (arrays, strings, numbers)."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(str(p.shape).encode())
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()[:12]


def finite_or_null(data):
    """``data`` (JSON data: dicts, lists, numbers, strings) with each NaN or
    infinite float written as None, JSON null, since NaN and Infinity are
    not JSON."""
    if isinstance(data, float):
        return data if math.isfinite(data) else None
    if isinstance(data, dict):
        return {key: finite_or_null(value) for key, value in data.items()}
    if isinstance(data, (list, tuple)):
        return [finite_or_null(value) for value in data]
    return data


def check_record(op: str, lhs: float, rhs: float, holds: bool,
                 digest: str = "", seed=None, **detail) -> dict:
    """One check; a NaN or infinite ``lhs`` or ``rhs`` is written as None
    (``finite_or_null``) and does not hold."""
    lhs, rhs = float(lhs), float(rhs)
    finite = math.isfinite(lhs) and math.isfinite(rhs)
    rec = {
        "op": op,
        "inputs_digest": digest,
        "lhs": finite_or_null(lhs),
        "rhs": finite_or_null(rhs),
        "holds": bool(holds) and finite,
        "seed": seed,
    }
    if detail:
        rec["detail"] = detail
    return rec
