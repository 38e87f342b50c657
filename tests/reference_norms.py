"""One symmetric norm at a time, from a matrix's singular values: the
reference that the tests hold the package's joined norm grids to."""

import numpy as np

from normetry import norms
from normetry.errors import BadSpec


def norm_from_sv(s: np.ndarray, spec: norms.NormSpec) -> float:
    n = s.size
    if spec.kind == "operator":
        return float(s[0]) if n else 0.0
    if spec.kind == "trace":
        return float(np.sum(s))
    if spec.kind == "kyfan":
        k = int(spec.param)
        if k > n:
            raise BadSpec(f"Ky Fan k={k} exceeds dimension {n}")
        return float(np.sum(s[:k]))
    if spec.kind == "schatten":
        return norms._schatten(s, (spec.param,))[0][0]
    raise BadSpec(f"unknown norm kind {spec.kind!r}")


def norm(x, spec: norms.NormSpec) -> float:
    """A symmetric norm of a square matrix."""
    return norm_from_sv(norms.singular_values(x), spec)
