"""Dense complex matrix core.

Hermitian eigendecomposition, spectral function calculus, polar
decomposition, matrix absolute value, and the structural predicates
(psd, normality, contraction/expansive) used by the checkers.

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
results are read-only.  ``polar`` and the SVD route of ``matrix_abs`` take
their SVD through ``joined`` too, so a shared stack is decomposed once for
both.  ``derived`` makes a stack derived from shared stacks, such as A + B,
a shared stack too, made once.
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
    """Whether every stack is marked by ``share``."""
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
    per-matrix functions (``eigh``, ``matrix_abs``, ``polar``,
    ``is_normal``), or the singular values of ``norms``, and same-shape
    (T, n, n) stacks, taken in as few calls as ``JOIN_BYTES`` allows.

    A stack marked by ``share`` keeps its rows of the result, read-only,
    and they are not computed again.  ``polar`` keeps only its SVD, which
    ``matrix_abs`` reads as well.
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
        result = _call(fn, [stacks[i] for i in run], kwargs)
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


def _call(fn, stacks: list, kwargs):
    """fn of the stacks joined.  ``matrix_abs`` of stacks with no exactly
    Hermitian matrix takes its SVD from ``joined``, where ``polar`` finds
    it."""
    if fn is matrix_abs:
        stacks = [as_square(m) for m in stacks]
        if not any(is_exactly_hermitian(m).any() for m in stacks):
            return _abs_from(joined(_svd, *stacks))
    return fn(np.concatenate(stacks) if len(stacks) > 1 else stacks[0], **kwargs)


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
    entries."""
    m = np.asarray(x, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
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


def _all(ok) -> bool:
    """A per-matrix bool, or a bool array, holds for every matrix."""
    return ok if isinstance(ok, bool) else bool(ok.all())


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


def _opnorm_within(x, s: np.ndarray, tol: float, power: int = 1):
    """Decide ``||x||_op <= tol * max(1, ||s||_op ** power)`` per matrix,
    without an SVD wherever the Frobenius norm settles it.

    ``x`` is a matrix (stack) shaped like ``s``, or one float per matrix
    standing for its norm.  Since ||X||_F / sqrt(n) <= ||X||_op <= ||X||_F
    (Bhatia, Matrix Analysis, IV.2), the Frobenius tests accept only inputs
    the SVD test accepts and reject only inputs it rejects (a Frobenius sum
    that overflows settles nothing); the matrices they leave undecided go
    to that SVD test, unchanged, in one call.
    """
    s3 = _rows(s)
    matrix = isinstance(x, np.ndarray) and x.ndim == s.ndim
    xs = _rows(x) if matrix else np.reshape(x, -1).tolist()
    root_n = math.sqrt(max(s.shape[-1], 1))
    ok, undecided = [], []
    for t, st in enumerate(s3):
        fro_s = _frobenius(st)
        lhs = _frobenius(xs[t]) if matrix else xs[t]  # >= ||x||_op
        lhs_low = lhs / root_n if matrix else lhs  # <= ||x||_op
        rms_sv = fro_s / root_n  # <= ||s||_op
        if lhs <= _FROBENIUS_SLACK * tol * max(1.0, rms_sv**power) < math.inf:
            ok.append(True)
        else:
            ok.append(False)
            if not (_FROBENIUS_SLACK * lhs_low > tol * max(1.0, fro_s**power)
                    and lhs < math.inf):
                undecided.append(t)
    if undecided:
        top = opnorm(xs[undecided]).tolist() if matrix else [xs[t] for t in undecided]
        for t, lhs, norm in zip(undecided, top, opnorm(s3[undecided]).tolist()):
            # the single-matrix test: ** rounds as a float's (C pow), not as
            # a stack's (x * x for a square), and past the float range is inf
            ok[t] = lhs <= tol * max(1.0, float(np.float64(norm) ** power))
    return ok[0] if s.ndim == 2 else np.array(ok)


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
    if not _all(ok):
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

    def reconstruct(self) -> np.ndarray:
        v = self.frame
        return (v * self.eigenvalues[..., None, :]) @ _adjoint(v)


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
    if not _all(ok):
        size = opnorm(_rows(residual)[_first_failure(ok)])
        raise ConvergenceFailure(f"eigendecomposition residual {size:.3e}")
    return Spectrum(eigenvalues=np.ascontiguousarray(w), frame=np.ascontiguousarray(v))


def eigvalsh_desc(h) -> np.ndarray:
    """Descending eigenvalues of a Hermitian matrix (no frame)."""
    return _lapack(np.linalg.eigvalsh, hermitize(h))[..., ::-1]


def _clamp_spectrum(w: np.ndarray) -> np.ndarray:
    """Clamp roundoff-negative eigenvalues to 0; reject genuinely negative ones.

    Each row of ``w`` is descending, so its ends hold its largest magnitude
    and its least value.
    """
    if w.shape[-1]:
        for top, low in zip(w[..., 0].ravel().tolist(), w[..., -1].ravel().tolist()):
            if low < -NEG_EIG_CLAMP * max(1.0, abs(top), abs(low)):
                raise DomainError(
                    f"eigenvalue {low:.3e} below the roundoff clamp window")
    return np.maximum(w, 0.0)


def _apply_rows(f, w: np.ndarray) -> np.ndarray:
    """f(w) as a float array.  ``f`` is one scalar function for every row of
    ``w``, or a sequence of one function per row.

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
    low = float(w.min()) if w.size else math.nan
    if low > 0 or low == 0 and not any(
            getattr(ft, "singular_at_zero", False) for ft in calls):
        calls = [getattr(ft, "fn", ft) for ft in calls]
    out = np.empty(w.shape)
    for t, ft in enumerate(calls):
        out[t] = ft(w[t])
    return out


def spectral_apply(f, a) -> np.ndarray:
    """Apply a scalar function on [0, inf) to a PSD-ish Hermitian matrix
    (``f`` may give one function per matrix of a stack, see ``_apply_rows``).

    Eigenvalues in [-1e-8*scale, 0) are treated as roundoff and clamped to 0;
    more negative eigenvalues raise DomainError.
    """
    return apply_spectrum(f, eigh(a))


def apply_spectrum(f, spec: Spectrum) -> np.ndarray:
    """``spectral_apply`` of f to the matrix (stack) whose ``eigh`` is spec."""
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


def _abs_svd(m: np.ndarray) -> np.ndarray:
    return _abs_from(_svd(m))


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
    return _by_route(as_square(x), _abs_hermitian, _abs_svd)


def polar(x) -> PolarParts:
    """Polar decomposition X = U|X|, with |X*| as well.

    For singular X the unitary factor is completed on the kernel from the
    (deterministic) SVD frames, so results are reproducible per input.
    """
    return _polar_parts(_svd(as_square(x)))


def _polar_parts(d: SVD) -> PolarParts:
    return PolarParts(u=d.u @ d.vh, abs=_abs_from(d), abs_star=synthesize(d.u, d.s))


def _least(w: np.ndarray) -> np.ndarray:
    """The last (least) entry of each descending row; 0 for empty rows."""
    return w[..., -1] if w.shape[-1] else np.zeros(w.shape[:-1])


def is_psd(x, tol: float = 1e-9):
    """Hermitian with eigenvalues >= -tol * max(1, ||X||_op)."""
    m = as_square(x)
    m3 = _rows(m)
    ok = _opnorm_within(m3 - _adjoint(m3), m3, tol)
    if ok.any():
        near = m3 if ok.all() else m3[ok]
        ok[ok] = _opnorm_within(-_least(eigvalsh_desc(hermitian_part(near))), near, tol)
    return _per_matrix(ok if m.ndim == 3 else ok[0])


def is_normal(x, tol: float = 1e-9):
    """||XX* - X*X||_op <= tol * max(1, ||X||_op^2).

    A commutator that leaves the float range raises DomainError.
    """
    m = as_square(x)
    mh = _adjoint(m)
    comm = m @ mh - mh @ m
    if not np.isfinite(comm).all():
        raise DomainError("commutator XX* - X*X has non-finite entries")
    return _opnorm_within(comm, m, tol, power=2)


def _gram_eigs(x) -> np.ndarray:
    m = as_square(x)
    return eigvalsh_desc(_adjoint(m) @ m)


def is_contraction(x, tol: float = 1e-9):
    w = _gram_eigs(x)
    top = w[..., 0] if w.shape[-1] else np.zeros(w.shape[:-1])
    return _per_matrix(top <= 1.0 + tol)


def is_expansive(x, tol: float = 1e-9):
    w = _gram_eigs(x)
    return _per_matrix(_least(w) >= 1.0 - tol)


def matrix_power(x, m) -> np.ndarray:
    """X^m; ``m`` may give one power per matrix of a stack, and the
    matrices sharing a power are raised together."""
    a = as_square(x)
    if isinstance(m, (int, np.integer)):
        return np.linalg.matrix_power(a, int(m))
    powers = [int(p) for p in np.ravel(m)]
    if len(set(powers)) == 1:
        return np.linalg.matrix_power(a, powers[0])
    out = np.empty_like(a)
    for p in sorted(set(powers)):
        rows = [t for t, q in enumerate(powers) if q == p]
        out[rows] = np.linalg.matrix_power(a[rows], p)
    return out
