"""Dense complex matrix core.

Hermitian eigendecomposition, spectral function calculus, polar
decomposition, matrix absolute value, and the structural predicates
(pd, normality, contraction/expansive) used by the checkers.

All functions are pure; matrices are plain complex ndarrays.  Every function
takes one n x n matrix or a (T, n, n) stack of them, and a 2-D input is the
T = 1 case of the same code: it gives a matrix where a stack gives a stack,
and a bool or float where a stack gives one per matrix.  Each guard decides
per matrix, exactly as for that matrix alone, and a stack raises the error
of its first failing matrix.  Batched LAPACK and matmul calls give each
matrix of a stack the bits a single call gives it, so a matrix's results do
not depend on the stack it came in.  ``matrix_abs`` of an exactly Hermitian
matrix is V|Lambda|V* from ``eigh``; the guards and ``opnorm`` always use
the SVD.  ``joined`` applies one of these functions to several stacks in
one call, and reuses its results on stacks marked by ``share`` (a campaign
shares the operand stacks that several checkers take); those stacks and
results are read-only, and their memos are this module's alone.  ``polar``
keeps only the SVD it reads its parts from.  ``derived`` makes a stack
derived from shared stacks, such as A + B, a shared stack too, made once.
"""

from __future__ import annotations

import math
import weakref
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, DomainError

HERMITIAN_DRIFT_TOL = 1e-12
EIG_RESIDUAL_TOL = 1e-10
NEG_EIG_CLAMP = 1e-8
# eigh's eigenvalues are exact for A + E, ||E|| <= c n eps ||A|| (Higham,
# Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002), so by Weyl
# each is off by at most that (Bhatia, Matrix Analysis, GTM 169, ch. III):
# one within c n eps max|lambda| of 0 is clamped to exactly 0.  c = 8 is a
# modest constant for the Householder reduction, not tuned to any case.
EIG_ZERO_C = 8
_EPS = float(np.finfo(float).eps)

# id(stack) -> memo of the results ``joined`` computed on it, for stacks passed
# to share.  Each memo is dropped when its stack dies, before the id can be
# reused.
_MEMOS: dict = {}


def share(m: np.ndarray) -> np.ndarray:
    """Mark ``m`` read-only and give it a memo that dies with it; returns m."""
    m.flags.writeable = False
    _MEMOS[id(m)] = {}
    weakref.finalize(m, _MEMOS.pop, id(m), None)
    return m


def shared(*stacks) -> bool:
    """Whether every one of ``stacks`` is marked by ``share``."""
    return all(id(m) in _MEMOS for m in stacks)


def derived(fn, *stacks) -> np.ndarray:
    """``fn(*stacks)``, a stack derived from stacks, such as A + B.  Where
    every input is marked by ``share``, so is the result, and it is
    computed once: the first input's memo keeps it under (fn, the other
    inputs' ids), with weak references to those inputs, so an id that a
    dead input leaves to another stack never finds it.  The results
    ``joined`` computes on it are kept in its own memo, for every checker
    that derives it."""
    if not shared(*stacks):
        return fn(*stacks)
    memo = _MEMOS[id(stacks[0])]
    key = (fn, *map(id, stacks[1:]))
    kept = memo.get(key)
    if kept is None or any(ref() is not m for ref, m in zip(kept[1], stacks[1:])):
        kept = memo[key] = share(fn(*stacks)), [weakref.ref(m) for m in stacks[1:]]
    return kept[0]


# Bytes of stacks that ``joined`` takes in one call: joining saves call
# overhead at small n, while at large n it would only multiply the
# transient memory of the call.
JOIN_BYTES = 1 << 18


def joined(fn, *stacks, **kwargs):
    """``fn(np.concatenate(stacks), **kwargs)`` for one of this module's
    per-matrix functions (``eigh``, ``matrix_abs``, ``polar``, the ``is_``
    predicates), or the singular values of ``norms``, and same-shape
    (T, n, n) stacks, taken in as few calls as ``JOIN_BYTES`` allows.

    A stack marked by ``share`` keeps its rows of the result, read-only,
    and they are not computed again.  ``polar`` keeps only its SVD.
    """
    if fn is polar:
        return _polar_parts(joined(_svd, *map(as_square, stacks)))
    memos = [_MEMOS.get(id(m)) for m in stacks] if _MEMOS else [None] * len(stacks)
    if memos.count(None) == len(memos) and sum(m.nbytes for m in stacks) <= JOIN_BYTES:
        return fn(np.concatenate(stacks) if len(stacks) > 1 else stacks[0], **kwargs)
    key = (fn, *sorted(kwargs.items()))
    parts = [None if memo is None else memo.get(key) for memo in memos]
    runs: list = []
    size = 0
    for i, part in enumerate(parts):
        if part is None:
            if not runs or size + stacks[i].nbytes > JOIN_BYTES:
                runs.append([])
                size = 0
            runs[-1].append(i)
            size += stacks[i].nbytes
    for run in runs:
        result = fn(np.concatenate([stacks[i] for i in run]) if len(run) > 1
                    else stacks[run[0]], **kwargs)
        # a kept part is copied out of a result that also holds rows nothing
        # keeps, so those can go
        copy = any(memos[i] is None for i in run) and len(run) > 1
        start = 0
        for i in run:
            rows = slice(start, start + len(stacks[i]))
            start = rows.stop
            if memos[i] is None:
                parts[i] = _take(result, rows, False)
            else:
                parts[i] = memos[i][key] = _read_only(_take(result, rows, copy))
    return parts[0] if len(parts) == 1 else _concatenate(parts)


def _fields(result):
    """The arrays of a per-matrix result: itself, or its named-tuple fields."""
    return (result,) if isinstance(result, np.ndarray) else result


def _rebuild(like, arrays: list):
    return arrays[0] if isinstance(like, np.ndarray) else type(like)(*arrays)


def _take(result, rows: slice, copy: bool):
    """The rows of a per-matrix result."""
    return _rebuild(result, [a[rows].copy() if copy else a[rows]
                             for a in _fields(result)])


def _concatenate(parts: list):
    """Per-matrix results joined, in order."""
    return _rebuild(parts[0], [np.concatenate(a) for a in zip(*map(_fields, parts))])


def _read_only(result):
    for a in _fields(result):
        a.flags.writeable = False
    return result


def as_square(x) -> np.ndarray:
    """Coerce to a square complex matrix, or a stack of them, with finite
    entries.  An n = 0 matrix or a stack of none is refused."""
    m = np.asarray(x, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or not m.size:
        raise DimensionMismatch(f"expected a non-empty square matrix, got shape {m.shape}")
    _require_finite(m)
    return m


def _require_finite(m: np.ndarray) -> None:
    if not np.isfinite(m).all():
        raise DomainError("matrix has non-finite entries")


def _adjoint(m: np.ndarray) -> np.ndarray:
    """M* of each matrix (a view)."""
    return m.conj().swapaxes(-1, -2)


def _rows(m: np.ndarray) -> np.ndarray:
    """The matrices of ``m`` as a (T, n, n) stack (a view for a 2-D m)."""
    return m if m.ndim == 3 else m[None]


def _per_matrix(ok: np.ndarray):
    """A per-matrix result: a bool for a 2-D input (0-d ``ok``)."""
    return ok if ok.ndim else bool(ok)


def _first_failure(ok) -> int:
    return int(np.flatnonzero(~np.asarray(ok))[0])


def _lapack(fn, *args, **kwargs):
    """Call a numpy.linalg routine; non-convergence is a ConvergenceFailure."""
    try:
        return fn(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


def opnorm(x):
    """Operator (spectral) norm, i.e. the largest singular value, by SVD.

    This is the reference the guards compare against; reported norms go
    through ``norms.singular_values``, which takes the cheaper Hermitian
    route.
    """
    s = _lapack(np.linalg.svd, np.asarray(x, dtype=complex), compute_uv=False)
    top = s[..., 0]
    return float(top) if top.ndim == 0 else top


def is_exactly_hermitian(m: np.ndarray):
    """M == M* entry for entry: a property of the input, with no tolerance.

    For such M the singular values are |lambda(M)| and |M| = V|Lambda|V*
    (Bhatia, Matrix Analysis, GTM 169), which eigvalsh/eigh give at about
    half the cost of the SVD.
    """
    if m.ndim == 2:
        return bool((m == _adjoint(m)).all())
    return (m == _adjoint(m)).all(axis=(-2, -1))


# Relative slack on the Frobenius stage of _opnorm_within.  It covers the
# rounding of the Frobenius sums and of the SVD, each within n^2 * eps
# relative, for n up to about 1e5, so the cheap stages never accept what the
# SVD comparison rejects, nor reject what it accepts.
_FROBENIUS_SLACK = 1.0 - 1e-6


def _frobenius(m: np.ndarray) -> float:
    flat = m.ravel()
    return math.sqrt(float(np.vdot(flat, flat).real))


def _opnorm_within(x: np.ndarray, s: np.ndarray, tol: float, power: int = 1) -> np.ndarray:
    """Decide ``||x||_op <= tol * max(1, ||s||_op ** power)`` per matrix of
    ``x``, a matrix (stack) shaped like ``s``, without an SVD wherever the
    Frobenius norm settles it: a bool array of one value per matrix.

    Since ||X||_F / sqrt(n) <= ||X||_op <= ||X||_F (Bhatia, Matrix
    Analysis, IV.2), the Frobenius tests accept only inputs the SVD test
    accepts and reject only inputs it rejects (a Frobenius sum that
    overflows settles nothing); the matrices they leave undecided go to
    that SVD test, unchanged, in one call.
    """
    xs, s3 = _rows(x), _rows(s)
    root_n = math.sqrt(max(s.shape[-1], 1))
    ok, undecided = [], []
    for t, st in enumerate(s3):
        fro_s = _frobenius(st)
        lhs = _frobenius(xs[t])  # >= ||x||_op
        lhs_low = lhs / root_n  # <= ||x||_op
        rms_sv = fro_s / root_n  # <= ||s||_op
        if lhs <= _FROBENIUS_SLACK * tol * max(1.0, rms_sv**power) < math.inf:
            ok.append(True)
        else:
            ok.append(False)
            if not (_FROBENIUS_SLACK * lhs_low > tol * max(1.0, fro_s**power)
                    and lhs < math.inf):
                undecided.append(t)
    if undecided:
        top = opnorm(xs[undecided]).tolist()
        for t, lhs, norm in zip(undecided, top, opnorm(s3[undecided]).tolist()):
            # the single-matrix test: ** rounds as a float's (C pow), not as
            # a stack's (x * x for a square), and past the float range is inf
            ok[t] = lhs <= tol * max(1.0, float(np.float64(norm) ** power))
    return np.array(ok, dtype=bool).reshape(s.shape[:-2])


def _symmetrize(m: np.ndarray) -> np.ndarray:
    """(M + M*)/2 of each matrix.  Where M + M* overflows, M/2 + M*/2, with
    the entries M == M* kept as they are, so a finite M gives a finite
    result; every other matrix gets the direct value, bit for bit."""
    mh = _adjoint(m)
    h = m + mh
    h /= 2
    if not np.isfinite(h).all():
        _require_finite(m)
        h3, m3, mh3 = _rows(h), _rows(m), _rows(mh)
        over = ~np.isfinite(h3).all(axis=(-2, -1))
        mo, mho = m3[over], mh3[over]
        h3[over] = np.where(mo == mho, mo, mo / 2 + mho / 2)
    return h


def hermitian_part(x) -> np.ndarray:
    """(M + M*)/2."""
    return _symmetrize(as_square(x))


def hermitize(x) -> np.ndarray:
    """Symmetrize to (M + M*)/2, rejecting large asymmetry drift.

    An input whose matrices are all exactly Hermitian (M - M* is zero entry
    for entry) is returned itself, uncopied; in a stack, such matrices keep
    their entries, so each matrix gets the bits it gets alone.
    """
    m = as_square(x)
    skew = m - _adjoint(m)
    if not skew.any():
        return m
    drifted = skew.any(axis=(-2, -1))
    ok = _opnorm_within(skew, m, HERMITIAN_DRIFT_TOL)
    if not ok.all():
        drift = opnorm(_rows(skew)[_first_failure(ok)])
        raise DomainError(f"matrix is not Hermitian (drift {drift:.3e})")
    if drifted.all():
        return _symmetrize(m)
    out = m.copy()
    out[drifted] = _symmetrize(m[drifted])
    return out


def synthesize(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The Hermitian matrix V diag(w) V* of each frame V and weights w,
    symmetrized against rounding.

    Like ``hermitian_part`` of the product, it rejects non-finite entries.
    """
    return _symmetrize((v * w[..., None, :]) @ _adjoint(v))


class Spectrum(NamedTuple):
    """Descending eigenvalues and the matching orthonormal eigenvector frame."""

    eigenvalues: np.ndarray  # real, descending
    frame: np.ndarray  # unitary, columns are eigenvectors


class PolarParts(NamedTuple):
    """X = u @ abs with abs = |X| and abs_star = |X*| = u abs u* (X invertible)."""

    u: np.ndarray
    abs: np.ndarray
    abs_star: np.ndarray


def eigh(h) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending."""
    m = hermitize(h)
    w, v = _lapack(np.linalg.eigh, m)
    w = w[..., ::-1]
    v = v[..., ::-1]
    residual = m - (v * w[..., None, :]) @ _adjoint(v)
    ok = _opnorm_within(residual, m, EIG_RESIDUAL_TOL)
    if not ok.all():
        size = opnorm(_rows(residual)[_first_failure(ok)])
        raise ConvergenceFailure(f"eigendecomposition residual {size:.3e}")
    return Spectrum(eigenvalues=np.ascontiguousarray(w), frame=np.ascontiguousarray(v))


def eigvalsh_desc(h) -> np.ndarray:
    """Descending eigenvalues of a Hermitian matrix (no frame)."""
    return _lapack(np.linalg.eigvalsh, hermitize(h))[..., ::-1]


def _clamp_spectrum(w: np.ndarray) -> np.ndarray:
    """Clamp roundoff-negative eigenvalues, and those within the rounding
    floor of 0 (``EIG_ZERO_C``), to 0; reject genuinely negative ones.

    Each row of ``w`` is descending, so its ends hold its least value and
    its largest magnitude, max(top, -low).
    """
    low = w[..., -1:]
    size = np.maximum(w[..., :1], -low)
    below = low < -NEG_EIG_CLAMP * np.maximum(size, 1.0)
    if below.any():
        raise DomainError(f"eigenvalue {low[below][0]:.3e} below the roundoff clamp window")
    out = np.maximum(w, 0.0)
    out[out <= size * (EIG_ZERO_C * w.shape[-1] * _EPS)] = 0.0
    return out


def _apply_rows(f, w: np.ndarray) -> np.ndarray:
    """f(w) as a float array.  ``f`` is one scalar function for every row of
    ``w``, or a sequence of one function per row (else DimensionMismatch).

    A ScalarFn checks its domain, [0, inf) or (0, inf) when it is singular
    at 0, on every call.  A sequence's domains are checked for the whole
    stack at once: when every entry lies in them, each row goes to its
    function's raw ``fn``, as the ScalarFn would pass it on; otherwise to
    the ScalarFn itself, so the first failing row raises its own
    DomainError.
    """
    if callable(f):
        return np.asarray(f(w), dtype=float)
    calls = list(f)
    if len(calls) != len(w):
        raise DimensionMismatch(f"{len(calls)} functions for {len(w)} rows")
    low = float(w.min()) if w.size else math.nan
    if low > 0 or low == 0 and not any(
            getattr(ft, "singular_at_zero", False) for ft in calls):
        calls = [getattr(ft, "fn", ft) for ft in calls]
    out = np.empty(w.shape)
    for t, ft in enumerate(calls):
        out[t] = ft(w[t])
    return out


def apply_spectrum(f, spec: Spectrum) -> np.ndarray:
    """f, a scalar function on [0, inf), applied to the PSD-ish Hermitian
    matrix (stack) whose ``eigh`` is spec (``f`` may give one function per
    matrix of a stack, see ``_apply_rows``).

    Eigenvalues in [-1e-8*scale, 0) are treated as roundoff and clamped to 0
    (``_clamp_spectrum``); more negative eigenvalues raise DomainError.
    """
    return synthesize(spec.frame, _apply_rows(f, _clamp_spectrum(spec.eigenvalues)))


class SVD(NamedTuple):
    """X = u diag(s) vh, singular values descending."""

    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray


def _svd(m: np.ndarray) -> SVD:
    """The SVD of a coerced matrix (stack)."""
    return SVD(*_lapack(np.linalg.svd, m))


def _abs_from(d: SVD) -> np.ndarray:
    """|X| = V diag(s) V* from the SVD of X."""
    return synthesize(_adjoint(d.vh), d.s)


def _abs_hermitian(m: np.ndarray) -> np.ndarray:
    w, v = _lapack(np.linalg.eigh, m)
    return synthesize(v, np.abs(w))


def _by_route(m: np.ndarray, hermitian_route, svd_route) -> np.ndarray:
    """``hermitian_route`` on the exactly Hermitian matrices of ``m``,
    ``svd_route`` on the others, each on the matrices it takes.

    A stack whose two routes each take one run of its matrices, as when a
    general stack is joined to a Hermitian one (the two sides of a
    verdict), takes one call per run, on views; any other mix is split by
    masks.
    """
    herm = is_exactly_hermitian(m)
    flags = [herm] if m.ndim == 2 else herm.tolist()
    if all(flags) or not any(flags):
        return hermitian_route(m) if flags[0] else svd_route(m)
    cut = flags.index(not flags[0])
    if flags[cut:].count(flags[cut]) == len(flags) - cut:
        head, tail = (hermitian_route, svd_route) if flags[0] else (svd_route, hermitian_route)
        return np.concatenate((head(m[:cut]), tail(m[cut:])))
    first = hermitian_route(m[herm])
    out = np.empty(m.shape[:1] + first.shape[1:], dtype=first.dtype)
    out[herm] = first
    out[~herm] = svd_route(m[~herm])
    return out


def matrix_abs(x) -> np.ndarray:
    """|X| = (X*X)^(1/2): from eigh when X is exactly Hermitian, else the SVD."""
    return _by_route(as_square(x), _abs_hermitian, lambda m: _abs_from(_svd(m)))


def polar(x) -> PolarParts:
    """Polar decomposition X = U|X|, with |X*| as well.

    For singular X the unitary factor is completed on the kernel from the
    (deterministic) SVD frames, so results are reproducible per input.
    """
    return _polar_parts(_svd(as_square(x)))


def _polar_parts(d: SVD) -> PolarParts:
    return PolarParts(u=d.u @ d.vh, abs=_abs_from(d), abs_star=synthesize(d.u, d.s))


def is_pd(x, tol: float):
    """The Hermitian part's least eigenvalue is > tol * max(1, its largest)."""
    w = eigvalsh_desc(hermitian_part(x))
    return _per_matrix(w[..., -1] > tol * np.maximum(1.0, w[..., 0]))


def is_normal(x, tol: float):
    """||XX* - X*X||_op <= tol * max(1, ||X||_op^2).

    A commutator that leaves the float range raises DomainError.
    """
    m = as_square(x)
    mh = _adjoint(m)
    comm = m @ mh - mh @ m
    if not np.isfinite(comm).all():
        raise DomainError("commutator XX* - X*X has non-finite entries")
    return _per_matrix(_opnorm_within(comm, m, tol, power=2))


def _gram_eigs(x) -> np.ndarray:
    m = as_square(x)
    return eigvalsh_desc(_adjoint(m) @ m)


def is_contraction(x, tol: float):
    return _per_matrix(_gram_eigs(x)[..., 0] <= 1.0 + tol)


def is_expansive(x, tol: float):
    return _per_matrix(_gram_eigs(x)[..., -1] >= 1.0 - tol)


def matrix_power(x, m) -> np.ndarray:
    """X^m; ``m`` may give one power per matrix of a stack, and the
    matrices sharing a power are raised together."""
    a = as_square(x)
    stack = _rows(a)
    powers = np.full(len(stack), m, dtype=int)
    out = np.empty_like(stack)
    for p in sorted(set(powers.tolist())):
        rows = powers == p
        out[rows] = np.linalg.matrix_power(stack[rows], p)
    return out.reshape(a.shape)
