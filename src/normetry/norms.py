"""Symmetric-norm evaluation and weak-majorization machinery.

A "for all symmetric norms" inequality is decided through Fan dominance:
singular values of the LHS must be weakly majorized by those of the RHS.
Ky Fan partial sums give the per-k margins; a grid of Schatten norms is
evaluated as a redundant cross-check.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BadSpec, ConvergenceFailure, DimensionMismatch
from .linalg import as_square, is_exactly_hermitian

SV_CLAMP_REL = 1e-12
DEFAULT_TOL = 1e-9
SCHATTEN_GRID = (1.0, 1.5, 2.0, 3.0, math.inf)


@dataclass(frozen=True)
class NormSpec:
    """A symmetric norm selector: Ky Fan k, Schatten p, operator, or trace."""

    kind: str  # "kyfan" | "schatten" | "operator" | "trace"
    param: float = 0.0

    def label(self) -> str:
        if self.kind == "kyfan":
            return f"kyfan-{int(self.param)}"
        if self.kind == "schatten":
            p = self.param
            return "schatten-inf" if math.isinf(p) else f"schatten-{p:g}"
        return self.kind


def ky_fan(k: int) -> NormSpec:
    if not isinstance(k, numbers.Integral) or k < 1:
        raise BadSpec(f"Ky Fan k must be an integer >= 1, got {k!r}")
    return NormSpec("kyfan", float(k))


def schatten(p: float) -> NormSpec:
    if not p >= 1:  # a NaN p fails this too
        raise BadSpec(f"Schatten p must be >= 1, got {p}")
    return NormSpec("schatten", float(p))


OPERATOR = NormSpec("operator")
TRACE = NormSpec("trace")


def singular_values(x) -> np.ndarray:
    """Singular values, descending, with tiny values clamped to 0.

    An exactly Hermitian input takes |eigvalsh|, sorted; any other the SVD.
    """
    m = as_square(x)
    try:
        if is_exactly_hermitian(m):
            s = np.sort(np.abs(np.linalg.eigvalsh(m)))[::-1]
        else:
            s = np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    if s.size and s[0] > 0:
        s = np.where(s < SV_CLAMP_REL * s[0], 0.0, s)
    return s


def norm_from_sv(s: np.ndarray, spec: NormSpec) -> float:
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
        p = spec.param
        if math.isinf(p):
            return float(s[0]) if n else 0.0
        return float(np.sum(s**p) ** (1.0 / p))
    raise BadSpec(f"unknown norm kind {spec.kind!r}")


def norm(x, spec: NormSpec) -> float:
    """Evaluate a symmetric norm of a square matrix."""
    return norm_from_sv(singular_values(x), spec)


def _pad(s: np.ndarray, n: int) -> np.ndarray:
    if s.size >= n:
        return s
    return np.concatenate([s, np.zeros(n - s.size)])


def weakly_majorized(x, y, tol: float = DEFAULT_TOL) -> bool:
    """x prec_w y: every leading partial sum of x is at most that of y.

    Shorter vectors are zero-padded; both are sorted descending first.
    """
    xs = np.sort(np.asarray(x, dtype=float))[::-1]
    ys = np.sort(np.asarray(y, dtype=float))[::-1]
    n = max(xs.size, ys.size)
    cx = np.cumsum(_pad(xs, n))
    cy = np.cumsum(_pad(ys, n))
    slack = tol * max(1.0, float(cy[-1]) if n else 0.0)
    return bool(np.all(cx <= cy + slack))


@dataclass(frozen=True)
class ComparisonRecord:
    """One evaluated comparison: LHS value, RHS value, scaled margin."""

    label: str
    lhs: float
    rhs: float
    margin: float


@dataclass
class Verdict:
    """Outcome of one checker call.

    The fingerprint identifies the inputs for replay.
    """

    check_id: str
    records: list[ComparisonRecord]
    tol: float
    fingerprint: str = ""

    @property
    def passed(self) -> bool:
        """Every record's scaled margin is >= -tol; a NaN margin fails."""
        return all(r.margin >= -self.tol for r in self.records)

    @property
    def min_margin(self) -> float:
        """The least record margin; NaN when any margin is NaN."""
        margins = [r.margin for r in self.records]
        if any(m != m for m in margins):
            return math.nan
        return min(margins, default=0.0)


def scaled_margin(lhs: float, rhs: float) -> float:
    """Global margin policy: (RHS - LHS) / max(1, RHS)."""
    return (rhs - lhs) / max(1.0, rhs)


def compare(check_id: str, labels, lhs, rhs, tol: float) -> Verdict:
    """Verdict on lhs[i] <= rhs[i] for each labels[i], one record each with
    its ``scaled_margin``."""
    lhs = np.asarray(lhs, dtype=float).tolist()
    rhs = np.asarray(rhs, dtype=float).tolist()
    records = [
        ComparisonRecord(label, vl, vr, scaled_margin(vl, vr))
        for label, vl, vr in zip(labels, lhs, rhs, strict=True)
    ]
    return Verdict(check_id=check_id, records=records, tol=tol)


def fan_grid(s: np.ndarray) -> np.ndarray:
    """The norm grid of descending singular values ``s``: the Ky Fan partial
    sums for k = 1..n, then the Schatten norms of SCHATTEN_GRID, in the
    order of ``grid_labels(n)``."""
    return np.concatenate(
        [np.cumsum(s), [norm_from_sv(s, schatten(p)) for p in SCHATTEN_GRID]]
    )


def dominance_verdict(
    lhs,
    rhs,
    tol: float = DEFAULT_TOL,
    check_id: str = "dominance",
    pad: bool = False,
) -> Verdict:
    """Fan-dominance verdict for ||lhs|| <= ||rhs|| over all symmetric norms.

    Records per-k Ky Fan margins plus a redundant Schatten grid.  With
    pad=False the operands must share a dimension; pad=True zero-pads
    singular values (used for block-vs-sum comparisons).
    """
    ml, mr = as_square(lhs), as_square(rhs)
    if not pad and ml.shape != mr.shape:
        raise DimensionMismatch(f"{ml.shape} vs {mr.shape}")
    sl = singular_values(ml)
    sr = singular_values(mr)
    n = max(sl.size, sr.size)
    return compare(
        check_id, grid_labels(n), fan_grid(_pad(sl, n)), fan_grid(_pad(sr, n)), tol
    )


def norm_grid(n: int) -> list[NormSpec]:
    """All Ky Fan k plus the standard Schatten grid for dimension n."""
    return [ky_fan(k) for k in range(1, n + 1)] + [schatten(p) for p in SCHATTEN_GRID]


@functools.lru_cache(maxsize=64)
def grid_labels(n: int) -> tuple[str, ...]:
    """The labels of ``norm_grid(n)``, which label ``fan_grid``'s entries."""
    return tuple(spec.label() for spec in norm_grid(n))
