"""JSON serialization of matrices, cases, and reports.

Matrices are stored as {n, re, im} with row-major entry arrays; Python's
shortest-roundtrip float repr makes the encoding bit-faithful (signed zeros
included), so replayed certificates recompute margins exactly.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .errors import BadSpec


def mat_to_json(m) -> dict:
    a = np.asarray(m, dtype=complex)
    n = a.shape[0]
    return {
        "n": n,
        "re": a.real.ravel().tolist(),
        "im": a.imag.ravel().tolist(),
    }


def mat_from_json(d: dict) -> np.ndarray:
    try:
        n = int(d["n"])
        re = np.asarray(d["re"], dtype=float).reshape(n, n)
        im = np.asarray(d["im"], dtype=float).reshape(n, n)
    except (KeyError, TypeError, ValueError) as exc:
        raise BadSpec(f"malformed matrix object: {exc}") from exc
    m = np.empty((n, n), dtype=complex)
    m.real = re
    m.imag = im
    return m


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_dumps(obj) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return _CANONICAL.encode(obj)


def fingerprint(obj, matrices: dict) -> str:
    """Short stable hash of a JSON-serializable object and named matrices.

    The object is hashed as canonical JSON.  Each matrix, in name order,
    adds its name and shape as canonical JSON (``["a",[2,2]]``) and then its
    entries as raw little-endian complex128 bytes, so the hash costs one
    pass over memory rather than a decimal encoding of every entry.
    """
    h = hashlib.sha256(canonical_dumps(obj).encode())
    for name in sorted(matrices):
        m = np.ascontiguousarray(matrices[name], dtype="<c16")
        shape = ",".join(map(str, m.shape))
        h.update(f"[{canonical_dumps(name)},[{shape}]]".encode())
        h.update(m)
    return h.hexdigest()[:16]
