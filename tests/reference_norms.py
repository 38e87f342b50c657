"""One symmetric norm at a time, from a matrix's singular values: the
reference that the tests hold the package's joined norm grids to."""

import numpy as np

from normetry import norms
from normetry.errors import BadSpec


def norm_from_sv(s: np.ndarray, label: str) -> float:
    """The norm named ``label`` (one of ``norms.grid_labels``, or
    ``operator`` or ``trace``) of descending singular values ``s``."""
    n = s.size
    if label == "operator":
        return float(s[0]) if n else 0.0
    if label == "trace":
        return float(np.sum(s))
    kind, _, param = label.partition("-")
    if kind == "kyfan":
        k = int(param)
        if k > n:
            raise BadSpec(f"Ky Fan k={k} exceeds dimension {n}")
        return float(np.sum(s[:k]))
    if kind == "schatten":
        return norms._schatten(s, (float(param),))[0][0]
    raise BadSpec(f"unknown norm {label!r}")


def norm(x, label: str) -> float:
    """A symmetric norm of a square matrix."""
    return norm_from_sv(norms.singular_values(x), label)
