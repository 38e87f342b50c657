"""Dense complex matrix core.

Hermitian eigendecomposition, spectral function calculus, polar
decomposition, matrix absolute value, and the structural predicates
(Loewner order, normality, contraction/expansive) used by the checkers.

All functions are pure; matrices are plain complex ndarrays.  ``matrix_abs``
of an exactly Hermitian matrix is V|Lambda|V* from one ``eigh`` call; the
guards and ``opnorm`` always use the SVD.  ``eigh``, ``matrix_abs``,
``is_normal`` and the SVD behind ``matrix_abs`` and ``polar`` memoize their
results on operands marked by ``share`` (a campaign shares the operands of a
trial among its checkers); those operands and results are read-only.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, DomainError

HERMITIAN_DRIFT_TOL = 1e-12
EIG_RESIDUAL_TOL = 1e-10
NEG_EIG_CLAMP = 1e-8


# id(operand) -> memo of its decompositions, for operands passed to share.
# Each memo is dropped when its operand dies, before the id can be reused.
_MEMOS: dict = {}


def share(m: np.ndarray) -> np.ndarray:
    """Mark ``m`` read-only and give it a memo that dies with it; returns m."""
    m.flags.writeable = False
    _MEMOS[id(m)] = {}
    weakref.finalize(m, _MEMOS.pop, id(m), None)
    return m


def as_square(x) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    _require_finite(m)
    return m


def _require_finite(m: np.ndarray) -> None:
    if not np.isfinite(m).all():
        raise DomainError("matrix has non-finite entries")


def opnorm(x) -> float:
    """Operator (spectral) norm, i.e. the largest singular value, by SVD.

    This is the reference the guards compare against; reported norms go
    through ``norms.norm``, which takes the cheaper Hermitian route.
    """
    return float(np.linalg.svd(np.asarray(x, dtype=complex), compute_uv=False)[0])


def is_exactly_hermitian(m: np.ndarray) -> bool:
    """M == M* entry for entry: a property of the input, with no tolerance.

    For such M the singular values are |lambda(M)| and |M| = V|Lambda|V*
    (Bhatia, Matrix Analysis, GTM 169), which eigvalsh/eigh give at about
    half the cost of the SVD.
    """
    return bool((m == m.conj().T).all())


# Relative slack on the Frobenius stage of _opnorm_within.  It covers the
# rounding of the Frobenius sums and of the SVD, each within n^2 * eps
# relative, for n up to about 1e5, so the cheap stages never accept what the
# SVD comparison rejects, nor reject what it accepts.
_FROBENIUS_SLACK = 1.0 - 1e-6


def _frobenius(m: np.ndarray) -> float:
    flat = m.ravel()
    return math.sqrt(float(np.vdot(flat, flat).real))


def _opnorm_within(x, s: np.ndarray, tol: float, power: int = 1) -> bool:
    """Decide ``||x||_op <= tol * max(1, ||s||_op ** power)`` without an SVD
    whenever the Frobenius norm settles it.

    ``x`` is a matrix, or a float standing for its own norm.  Since
    ||X||_F / sqrt(n) <= ||X||_op <= ||X||_F (Bhatia, Matrix Analysis,
    IV.2), the Frobenius tests accept only inputs the SVD test accepts and
    reject only inputs it rejects; everything else falls through to that
    SVD test, unchanged.
    """
    fro_s = _frobenius(s)
    if isinstance(x, np.ndarray):
        lhs = _frobenius(x)  # >= ||x||_op
        lhs_low = lhs / math.sqrt(max(x.shape[0], 1))  # <= ||x||_op
    else:
        lhs = lhs_low = x
    rms_sv = fro_s / math.sqrt(max(s.shape[0], 1))  # <= ||s||_op
    if lhs <= _FROBENIUS_SLACK * tol * max(1.0, rms_sv**power) < math.inf:
        return True
    if _FROBENIUS_SLACK * lhs_low > tol * max(1.0, fro_s**power):
        return False
    if isinstance(x, np.ndarray):
        lhs = opnorm(x)
    return lhs <= tol * max(1.0, opnorm(s) ** power)


def hermitian_part(x) -> np.ndarray:
    """(M + M*)/2."""
    m = as_square(x)
    return (m + m.conj().T) / 2


def hermitize(x) -> np.ndarray:
    """Symmetrize to (M + M*)/2, rejecting large asymmetry drift.

    An exactly Hermitian M (M - M* is zero entry for entry) is returned
    itself, uncopied, so a shared operand keeps its memo.
    """
    m = as_square(x)
    skew = m - m.conj().T
    if not skew.any():
        return m
    if not _opnorm_within(skew, m, HERMITIAN_DRIFT_TOL):
        raise DomainError(f"matrix is not Hermitian (drift {opnorm(skew):.3e})")
    return (m + m.conj().T) / 2


def synthesize(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The Hermitian matrix V diag(w) V*, symmetrized against rounding.

    Like ``hermitian_part`` of the product, it rejects non-finite entries.
    """
    m = (v * w) @ v.conj().T
    _require_finite(m)
    h = m + m.conj().T
    h /= 2
    return h


@dataclass(frozen=True)
class Spectrum:
    """Descending eigenvalues and the matching orthonormal eigenvector frame."""

    eigenvalues: np.ndarray  # real, descending
    frame: np.ndarray  # unitary, columns are eigenvectors

    def reconstruct(self) -> np.ndarray:
        v = self.frame
        return (v * self.eigenvalues) @ v.conj().T


@dataclass(frozen=True)
class PolarParts:
    """X = u @ abs with abs = |X| and abs_star = |X*| = u abs u* (X invertible)."""

    u: np.ndarray
    abs: np.ndarray
    abs_star: np.ndarray


def eigh(h) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending."""
    memo = _MEMOS.get(id(h))
    if memo is not None and "eigh" in memo:
        return memo["eigh"]
    m = hermitize(h)
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    w = w[::-1]
    v = v[:, ::-1]
    residual = m - (v * w) @ v.conj().T
    if not _opnorm_within(residual, m, EIG_RESIDUAL_TOL):
        raise ConvergenceFailure(
            f"eigendecomposition residual {opnorm(residual):.3e}"
        )
    spec = Spectrum(eigenvalues=np.ascontiguousarray(w), frame=np.ascontiguousarray(v))
    if memo is not None:
        spec.eigenvalues.flags.writeable = False
        spec.frame.flags.writeable = False
        memo["eigh"] = spec
    return spec


def eigvalsh_desc(h) -> np.ndarray:
    """Descending eigenvalues of a Hermitian matrix (no frame)."""
    m = hermitize(h)
    try:
        w = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return w[::-1]


def _clamp_spectrum(w: np.ndarray) -> np.ndarray:
    """Clamp roundoff-negative eigenvalues to 0; reject genuinely negative ones.

    ``w`` is descending, so its ends hold its largest magnitude and its least
    value.
    """
    if w.size:
        top, low = float(w[0]), float(w[-1])
        if low < -NEG_EIG_CLAMP * max(1.0, abs(top), abs(low)):
            raise DomainError(f"eigenvalue {low:.3e} below the roundoff clamp window")
    return np.maximum(w, 0.0)


def spectral_apply(f, a) -> np.ndarray:
    """Apply a scalar function on [0, inf) to a PSD-ish Hermitian matrix.

    Eigenvalues in [-1e-8*scale, 0) are treated as roundoff and clamped to 0;
    more negative eigenvalues raise DomainError.
    """
    spec = eigh(a)
    fw = np.asarray(f(_clamp_spectrum(spec.eigenvalues)), dtype=float)
    return synthesize(spec.frame, fw)


def _svd(x):
    """(u, s, vh) of X, memoized read-only on an operand marked by share."""
    memo = _MEMOS.get(id(x))
    if memo is not None and "svd" in memo:
        return memo["svd"]
    m = as_square(x)
    try:
        usv = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    if memo is not None:
        for part in usv:
            part.flags.writeable = False
        memo["svd"] = usv
    return usv


def matrix_abs(x) -> np.ndarray:
    """|X| = (X*X)^(1/2): from eigh when X is exactly Hermitian, else the SVD."""
    memo = _MEMOS.get(id(x))
    if memo is not None and "matrix_abs" in memo:
        return memo["matrix_abs"]
    m = as_square(x)
    if is_exactly_hermitian(m):
        try:
            w, v = np.linalg.eigh(m)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(str(exc)) from exc
        out = synthesize(v, np.abs(w))
    else:
        u, s, vh = _svd(x)
        out = synthesize(vh.conj().T, s)
    if memo is not None:
        out.flags.writeable = False
        memo["matrix_abs"] = out
    return out


def polar(x) -> PolarParts:
    """Polar decomposition X = U|X|, with |X*| as well.

    For singular X the unitary factor is completed on the kernel from the
    (deterministic) SVD frames, so results are reproducible per input.
    """
    u, s, vh = _svd(x)
    return PolarParts(
        u=u @ vh, abs=synthesize(vh.conj().T, s), abs_star=synthesize(u, s)
    )


def loewner_leq(x, y, tol: float = 1e-9) -> bool:
    """X <= Y in the Loewner order, up to a scaled tolerance."""
    mx, my = as_square(x), as_square(y)
    if mx.shape != my.shape:
        raise DimensionMismatch(f"{mx.shape} vs {my.shape}")
    d = hermitian_part(my - mx)
    w = eigvalsh_desc(d)
    lam_min = float(w[-1]) if w.size else 0.0
    return _opnorm_within(-lam_min, d, tol)


def is_psd(x, tol: float = 1e-9) -> bool:
    """Hermitian with eigenvalues >= -tol * max(1, ||X||_op)."""
    m = as_square(x)
    if not _opnorm_within(m - m.conj().T, m, tol):
        return False
    w = eigvalsh_desc(hermitian_part(m))
    lam_min = float(w[-1]) if w.size else 0.0
    return _opnorm_within(-lam_min, m, tol)


def is_normal(x, tol: float = 1e-9) -> bool:
    """||XX* - X*X||_op <= tol * max(1, ||X||_op^2)."""
    memo = _MEMOS.get(id(x))
    key = ("is_normal", tol)
    if memo is not None and key in memo:
        return memo[key]
    m = as_square(x)
    comm = m @ m.conj().T - m.conj().T @ m
    normal = _opnorm_within(comm, m, tol, power=2)
    if memo is not None:
        memo[key] = normal
    return normal


def is_contraction(x, tol: float = 1e-9) -> bool:
    m = as_square(x)
    w = eigvalsh_desc(m.conj().T @ m)
    lam_max = float(w[0]) if w.size else 0.0
    return lam_max <= 1.0 + tol


def is_expansive(x, tol: float = 1e-9) -> bool:
    m = as_square(x)
    w = eigvalsh_desc(m.conj().T @ m)
    lam_min = float(w[-1]) if w.size else 0.0
    return lam_min >= 1.0 - tol


def matrix_power(x, m: int) -> np.ndarray:
    return np.linalg.matrix_power(as_square(x), int(m))
