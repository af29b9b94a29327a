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


def check_record(op: str, lhs: float, rhs: float, holds: bool,
                 digest: str = "", seed=None, **detail) -> dict:
    """One check; a NaN or infinite ``lhs`` or ``rhs`` is written as None
    (JSON null, since NaN and Infinity are not JSON) and does not hold."""
    lhs, rhs = float(lhs), float(rhs)
    finite = math.isfinite(lhs) and math.isfinite(rhs)
    rec = {
        "op": op,
        "inputs_digest": digest,
        "lhs": lhs if math.isfinite(lhs) else None,
        "rhs": rhs if math.isfinite(rhs) else None,
        "holds": bool(holds) and finite,
        "seed": seed,
    }
    if detail:
        rec["detail"] = detail
    return rec
