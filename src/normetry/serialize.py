"""JSON serialization of matrices, cases, and reports.

A matrix is stored as ``{"n": n, "c16": text}``, where ``text`` is the
base64 of its n·n entries as little-endian complex128, row-major: the
bytes ``fingerprint`` hashes.  The encoding is bit-exact (signed zeros,
subnormals, infinities and NaN payloads included) and stays standard
JSON for non-finite entries, so replayed certificates recompute margins
and fingerprints exactly.
"""

from __future__ import annotations

import base64
import hashlib
import json

import numpy as np

from .errors import BadSpec


def mat_to_json(m) -> dict:
    a = np.ascontiguousarray(m, dtype="<c16")
    return {"n": a.shape[0], "c16": base64.b64encode(a).decode("ascii")}


def mat_from_json(d: dict) -> np.ndarray:
    """The n×n complex matrix of ``d``, read-only.  Raises BadSpec unless
    ``n`` is an integer >= 0 and ``c16`` is base64 of exactly 16·n² bytes;
    the count is checked before anything is reshaped."""
    try:
        n = d["n"]
        raw = base64.b64decode(d["c16"], validate=True)
    except KeyError as exc:
        raise BadSpec(f"malformed matrix object: missing field {exc}") from exc
    except TypeError as exc:
        raise BadSpec(f"malformed matrix object: {exc}") from exc
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise BadSpec(f"malformed matrix object: 'c16' is not base64: {exc}") from exc
    if type(n) is not int or n < 0:
        raise BadSpec(f"malformed matrix object: 'n' must be an integer >= 0, got {n!r}")
    if len(raw) != 16 * n * n:
        raise BadSpec(f"malformed matrix object: 'c16' holds {len(raw)} bytes, "
                      f"an n={n} matrix takes {16 * n * n}")
    return np.frombuffer(raw, dtype="<c16").reshape(n, n)


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
