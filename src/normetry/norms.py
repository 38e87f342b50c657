"""Symmetric-norm evaluation and weak-majorization machinery.

A "for all symmetric norms" inequality is decided through Fan dominance:
the singular values of the LHS must be weakly majorized by those of the
RHS.  The Ky Fan norms k = 1..n decide every symmetric norm (Bhatia,
Matrix Analysis, GTM 169, ch. IV), so a verdict holds one record per k:
the partial sums of the two sides' descending singular values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch
from .linalg import _by_route, _lapack, _rows, as_square, joined

SV_CLAMP_REL = 1e-12
DEFAULT_TOL = 1e-9
_TINY = float(np.finfo(float).tiny)  # the least normal float


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


class ComparisonRecord(NamedTuple):
    """One evaluated comparison: LHS value, RHS value, scaled margin."""

    label: str
    lhs: float
    rhs: float
    margin: float


@dataclass
class Verdict:
    """Outcome of one checker call.

    The builders here give only its records; the checker that returns it
    labels it with its check id and tol.  The fingerprint identifies the
    inputs for replay.
    """

    records: list[ComparisonRecord]
    check_id: str = ""
    tol: float = DEFAULT_TOL
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


def compare(labels, lhs, rhs) -> list[Verdict]:
    """Verdicts on lhs[t][i] <= rhs[t][i] for each labels[i], one per row t
    of 2-D ``lhs`` and ``rhs`` (one row per matrix of a stack), with one
    record per label and its ``scaled_margin``.  ``labels`` labels every
    row, or is a list of one label sequence per row.
    """
    lhs = np.asarray(lhs, dtype=float).tolist()
    rhs = np.asarray(rhs, dtype=float).tolist()
    if isinstance(labels[0], str):
        labels = [labels] * len(lhs)
    return [
        Verdict([ComparisonRecord(label, vl, vr, scaled_margin(vl, vr))
                 for label, vl, vr in zip(*row, strict=True)])
        for row in zip(labels, lhs, rhs, strict=True)
    ]


def sqrt_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sqrt(x * y) entrywise for x, y >= 0.

    Of descending s(Y), s(Z) it is Horn's bound on s(X) for X = R C S with
    R R* = Y, S* S = Z and ||C|| <= 1: it weakly log-majorizes s(X) (Bhatia,
    ch. III), so ``fan_verdict`` of s(X) against it decides ||X|| <=
    ||Y||^(1/2) ||Z||^(1/2) in every symmetric norm, by Hoelder's
    inequality for symmetric gauge functions (ch. IV).

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


def dominance_verdict(lhs, rhs, pad: bool = False):
    """Verdict on ||lhs|| <= ||rhs|| in every symmetric norm, one per matrix
    of a stack: ``fan_verdict`` of the two sides' singular values.  Each
    side is coerced once, by ``singular_values``, and sides of one shape
    take one call of it.
    """
    ml, mr = np.asarray(lhs), np.asarray(rhs)
    if ml.shape == mr.shape:
        sl, sr = singular_values(_rows(ml), _rows(mr)).reshape(2, *ml.shape[:-1])
    else:
        sl, sr = singular_values(ml), singular_values(mr)
    return fan_verdict(sl, sr, pad)


def fan_verdict(sl, sr, pad: bool = False):
    """Fan-dominance verdicts on the two sides' descending singular values,
    one per row (one row per matrix of a stack, as ``singular_values`` gives
    them), or one verdict for one row each.

    It holds one record per Ky Fan norm k = 1..n (``grid_labels(n)``): the
    two sides' partial sums.  Passing all is weak majorization, so the
    comparison holds in every symmetric norm.  With pad=False the sides
    must have as many singular values, as square matrices of one dimension
    do; pad=True zero-pads them (used for block-vs-sum comparisons).
    """
    nl, nr = sl.shape[-1], sr.shape[-1]
    if not pad and nl != nr:
        raise DimensionMismatch(f"{(nl, nl)} vs {(nr, nr)}")
    n = max(nl, nr)
    sides = np.zeros((2, *sl.shape[:-1], n))  # both zero-padded to n
    sides[0, ..., :nl], sides[1, ..., :nr] = sl, sr
    gl, gr = np.add.accumulate(sides, axis=-1).reshape(2, -1, n)
    verdicts = compare(grid_labels(n), gl, gr)
    return verdicts if sl.ndim > 1 else verdicts[0]


@functools.lru_cache(maxsize=64)
def grid_labels(n: int) -> tuple[str, ...]:
    """The labels of ``fan_verdict``'s records at dimension n: kyfan-1..kyfan-n."""
    return tuple(f"kyfan-{k}" for k in range(1, n + 1))
