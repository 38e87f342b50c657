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
from typing import NamedTuple

import numpy as np

from .errors import BadSpec, DimensionMismatch
from .linalg import _by_route, _lapack, _rows, as_square, joined

SV_CLAMP_REL = 1e-12
DEFAULT_TOL = 1e-9
SCHATTEN_GRID = (1.0, 1.5, 2.0, 3.0, math.inf)
_TINY = float(np.finfo(float).tiny)  # the least normal float


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


def _sorted_abs(w: np.ndarray) -> np.ndarray:
    return np.sort(np.abs(w))[..., ::-1]


def _hermitian_sv(m: np.ndarray) -> np.ndarray:
    return _sorted_abs(_lapack(np.linalg.eigvalsh, m))


def _svd_sv(m: np.ndarray) -> np.ndarray:
    return _lapack(np.linalg.svd, m, compute_uv=False)


def _clamped(s: np.ndarray) -> np.ndarray:
    """Descending singular values, those below ``SV_CLAMP_REL`` of the
    largest set to 0."""
    return np.where(s < SV_CLAMP_REL * s[..., :1], 0.0, s)


def singular_values(x, *more) -> np.ndarray:
    """Singular values, descending, with tiny values clamped to 0; one row
    per matrix of a stack, and of ``more`` same-shape stacks the rows of
    each in turn.

    An exactly Hermitian input takes |eigvalsh|, sorted; any other the SVD.
    They are taken through ``joined``, so a stack marked by ``linalg.share``
    keeps them.
    """
    return joined(_singular_values, as_square(x), *map(as_square, more))


def _singular_values(m: np.ndarray) -> np.ndarray:
    return _clamped(_by_route(m, _hermitian_sv, _svd_sv))


def spectrum_singular_values(w) -> np.ndarray:
    """The singular values of Hermitian matrices with eigenvalues ``w``, one
    row each, as ``singular_values`` gives them: |w| sorted descending
    (Bhatia, Matrix Analysis, GTM 169, ch. III), tiny values clamped to 0.
    A side whose spectrum is in hand needs no matrix built of it and
    decomposed again."""
    return _clamped(_sorted_abs(w))


def _schatten(s: np.ndarray, ps) -> list:
    """Schatten p-norms (sum s**p)**(1/p) of descending singular values ``s``
    (one vector, or one per row of a stack): for each p of ``ps``, the list
    of the norms of the rows.

    Where sum s**p leaves the normal float range (it overflows, or
    underflows while s[0] > 0), the norm is s[0] times that of s/s[0]
    instead; every other value is the direct one, bit for bit.  s**p is
    taken on s as laid out and each root as a float power, since numpy's
    array power can round either differently.
    """
    rows = s.reshape(-1, s.shape[-1])
    if not rows.shape[1]:
        return [[0.0] * len(rows) for _ in ps]
    tops = rows[:, 0].tolist()
    out = []
    for p in ps:
        if p == math.inf:
            out.append(tops)
            continue
        root = 1.0 / p
        values = np.add.reduce(s**p, axis=-1).ravel().tolist()
        for t, (total, top) in enumerate(zip(values, tops)):
            if _TINY <= total < math.inf or not 0.0 < top < math.inf:
                values[t] = total**root
            else:
                values[t] = top * float(np.add.reduce((rows[t] / top) ** p)) ** root
        out.append(values)
    return out


def _pad(s: np.ndarray, n: int) -> np.ndarray:
    """Zero-pad each row of ``s`` to length n."""
    if s.shape[-1] >= n:
        return s
    return np.concatenate([s, np.zeros(s.shape[:-1] + (n - s.shape[-1],))], axis=-1)


class ComparisonRecord(NamedTuple):
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


def compare(check_id: str, labels, lhs, rhs, tol: float):
    """Verdict on lhs[i] <= rhs[i] for each labels[i], one record each with
    its ``scaled_margin``.

    For 2-D ``lhs`` and ``rhs`` (one row per matrix of a stack) it gives
    one verdict per row; ``labels`` then labels every row, or is a list of
    one label sequence per row.
    """
    lhs = np.asarray(lhs, dtype=float).tolist()
    rhs = np.asarray(rhs, dtype=float).tolist()
    if not lhs or not isinstance(lhs[0], list):
        return _verdict(check_id, labels, lhs, rhs, tol)
    if isinstance(labels[0], str):
        labels = [labels] * len(lhs)
    return [
        _verdict(check_id, *row, tol) for row in zip(labels, lhs, rhs, strict=True)
    ]


def _verdict(check_id: str, labels, lhs: list, rhs: list, tol: float) -> Verdict:
    records = [
        ComparisonRecord(label, vl, vr, scaled_margin(vl, vr))
        for label, vl, vr in zip(labels, lhs, rhs, strict=True)
    ]
    return Verdict(check_id=check_id, records=records, tol=tol)


def fan_grid(s: np.ndarray) -> np.ndarray:
    """The norm grid of descending singular values ``s``: the Ky Fan partial
    sums for k = 1..n, then the Schatten norms of SCHATTEN_GRID, in the
    order of ``grid_labels(n)``; one grid per row of a stack."""
    n = s.shape[-1]
    grid = np.empty(s.shape[:-1] + (n + len(SCHATTEN_GRID),))
    np.add.accumulate(s, axis=-1, out=grid[..., :n])
    schatten = np.transpose(_schatten(s, SCHATTEN_GRID))
    grid[..., n:] = schatten.reshape(grid[..., n:].shape)
    return grid


def sqrt_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sqrt(x * y) entrywise for x, y >= 0.

    Where x * y leaves the normal float range (it overflows or underflows;
    an exact 0 too, which gives 0 either way), the entry is sqrt(x) *
    sqrt(y) instead; every other entry is the direct one, bit for bit.
    """
    prod = x * y
    out = np.sqrt(prod)
    bad = ~((prod >= _TINY) & (prod < math.inf))
    if bad.any():
        out[bad] = np.sqrt(x[bad]) * np.sqrt(y[bad])
    return out


def dominance_verdict(
    lhs,
    rhs,
    tol: float = DEFAULT_TOL,
    check_id: str = "dominance",
    pad: bool = False,
):
    """Fan-dominance verdict for ||lhs|| <= ||rhs|| over all symmetric norms;
    one verdict per matrix of a stack: ``fan_verdict`` of the two sides'
    singular values.  Each side is coerced once, by ``singular_values``,
    and sides of one shape take one call of it.
    """
    ml, mr = np.asarray(lhs), np.asarray(rhs)
    if ml.shape == mr.shape:
        sl, sr = singular_values(_rows(ml), _rows(mr)).reshape(2, *ml.shape[:-1])
    else:
        sl, sr = singular_values(ml), singular_values(mr)
    return fan_verdict(sl, sr, tol, check_id, pad)


def fan_verdict(sl, sr, tol: float = DEFAULT_TOL, check_id: str = "dominance",
                pad: bool = False):
    """Fan-dominance verdict on the two sides' descending singular values
    (one row per matrix of a stack, as ``singular_values`` gives them).

    Records per-k Ky Fan margins plus a redundant Schatten grid.  With
    pad=False the sides must have as many singular values, as square
    matrices of one dimension do; pad=True zero-pads them (used for
    block-vs-sum comparisons).  Both sides' grids come from one
    ``fan_grid`` call.
    """
    nl, nr = sl.shape[-1], sr.shape[-1]
    if not pad and nl != nr:
        raise DimensionMismatch(f"{(nl, nl)} vs {(nr, nr)}")
    n = max(nl, nr)
    gl, gr = fan_grid(np.stack((_pad(sl, n), _pad(sr, n))))
    return compare(check_id, grid_labels(n), gl, gr, tol)


def norm_grid(n: int) -> list[NormSpec]:
    """All Ky Fan k plus the standard Schatten grid for dimension n."""
    return [ky_fan(k) for k in range(1, n + 1)] + [schatten(p) for p in SCHATTEN_GRID]


@functools.lru_cache(maxsize=64)
def grid_labels(n: int) -> tuple[str, ...]:
    """The labels of ``norm_grid(n)``, which label ``fan_grid``'s entries."""
    return tuple(spec.label() for spec in norm_grid(n))
