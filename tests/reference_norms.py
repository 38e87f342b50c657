"""One symmetric norm at a time, from a matrix's singular values: the
reference that the tests hold the package's Ky Fan records to, and the
Schatten norms that they cross-check its verdicts with."""

import math

import numpy as np

from normetry import norms
from normetry.errors import BadSpec


def norm_from_sv(s: np.ndarray, label: str) -> float:
    """The norm named ``label`` (one of ``norms.grid_labels``, ``schatten-p``,
    ``operator`` or ``trace``) of descending singular values ``s``.

    Schatten p is s[0] times the norm of s/s[0], so it neither overflows
    nor underflows where sum(s**p) would."""
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
        p, top = float(param), float(s[0]) if n else 0.0
        if math.isinf(p) or top == 0.0:
            return top
        return top * float(np.sum((s / top) ** p)) ** (1.0 / p)
    raise BadSpec(f"unknown norm {label!r}")


def norm(x, label: str) -> float:
    """A symmetric norm of a square matrix."""
    return norm_from_sv(norms.singular_values(x), label)
