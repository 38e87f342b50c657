"""Executable checkers, one per inequality or identity.

Each checker builds the two sides of its statement and delegates to the
Fan-dominance verdict, a Loewner-order comparison, or a direct scalar
comparison on the norm grid.  Hypotheses are validated up front (shape
class of the scalar function, contraction/expansive/normal predicates);
the falsifier can switch validation off to probe broken hypotheses.

``SPECS`` at the end declares each checker once for the falsifier: its
operand kinds, scalar-function class, extra scalar draws and call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg, norms, scalarfn
from .errors import (
    BadSpec,
    DimensionMismatch,
    IndexOutOfRange,
    NotAContraction,
    NotExpansive,
    NotNormal,
    NotPositiveDefinite,
    ShapeValidationFailed,
)
from .norms import DEFAULT_TOL, ComparisonRecord, Verdict

PREDICATE_TOL = 1e-8  # slack for hypothesis predicates on generated inputs


def _stack(x) -> np.ndarray:
    """An operand as a (T, n, n) stack; a single matrix is a stack of one."""
    m = linalg.as_square(x)
    return m[None] if m.ndim == 2 else m


def _cases(*positions: int):
    """Checker decorator: the checker's body takes (T, n, n) stacks and
    returns one result per matrix.  The arguments at ``positions`` are its
    matrices (or a list of them), each coerced to a stack here; a call on
    single matrices gets a single result back."""
    def wrap(body):
        @functools.wraps(body)
        def checker(*args, **kwargs):
            args = list(args)
            first = args[positions[0]]
            if isinstance(first, (list, tuple)) and first:
                first = first[0]
            single = np.ndim(first) == 2
            for i in positions:
                x = args[i]
                args[i] = ([_stack(m) for m in x] if isinstance(x, (list, tuple))
                           else _stack(x))
            out = body(*args, **kwargs)
            return out[0] if single else out
        return checker
    return wrap


def _split(x: np.ndarray, k: int) -> list:
    """A joined result of k stacks, back as k stacks (views)."""
    t = len(x) // k
    return [x[i * t:(i + 1) * t] for i in range(k)]


def _spectrum_rows(spec: linalg.Spectrum, rows: slice) -> linalg.Spectrum:
    return linalg.Spectrum(spec.eigenvalues[rows], spec.frame[rows])


def _spectral_apply(f, *stacks) -> np.ndarray:
    """``spectral_apply`` of f to each Hermitian stack, in one call; a
    shared stack's eigh is taken once (``linalg.joined``)."""
    spec = linalg.joined(linalg.eigh, *stacks)
    return _split(linalg.apply_spectrum(_repeat_fns(f, len(stacks)), spec), len(stacks))


def _fns(f, t: int) -> list:
    """The scalar function of each of t matrices: ``f`` is one for all of
    them, or a sequence of one per matrix."""
    return [f] * t if callable(f) else list(f)


def _repeat_fns(f, k: int):
    """``f`` for k joined stacks."""
    return f if callable(f) else list(f) * k


def _per_row(x, t: int) -> np.ndarray:
    """A scalar argument (j, k, z, m) as one value per matrix."""
    x = np.reshape(x, -1)
    return x if len(x) == t else np.repeat(x, t)


def _require_tag(f, tag: str, enforce: bool) -> None:
    if enforce:
        for fn in _fns(f, 1):
            if tag not in fn.tags:
                raise ShapeValidationFailed(f"{fn.kind} lacks required class {tag}")


def _loewner_verdict(check_id: str, lhs, rhs, tol: float) -> list:
    """Verdict for lhs <= rhs in the Loewner order, one per matrix.

    Margin is lambda_min(rhs - lhs) scaled by max(1, ||rhs - lhs||_op),
    recorded as a single comparison row.
    """
    if lhs.shape != rhs.shape:
        raise DimensionMismatch(f"{lhs.shape[1:]} vs {rhs.shape[1:]}")
    w = linalg.eigvalsh_desc(linalg.hermitian_part(rhs - lhs))
    if not w.shape[-1]:
        w = np.zeros(w.shape[:-1] + (1,))
    return [
        Verdict(check_id=check_id, tol=tol, records=[ComparisonRecord(
            label="loewner", lhs=-low, rhs=0.0,
            margin=low / max(1.0, max(abs(low), abs(top))))])
        for low, top in zip(w[:, -1].tolist(), w[:, 0].tolist())
    ]


@_cases(1)
def check_thm_1_1(f, operands, tol=DEFAULT_TOL, enforce=True):
    """||f(sum A_i)|| <= ||sum f(A_i)|| for concave f >= 0 and PSD A_i."""
    if len(operands) < 2:
        raise BadSpec("need at least two operands")
    _require_tag(f, scalarfn.CONCAVE_NONNEG, enforce)
    total = operands[0]
    for m in operands[1:]:
        total = linalg.derived(np.add, total, m)
    parts = _spectral_apply(f, total, *operands)
    return norms.dominance_verdict(parts[0], sum(parts[1:]), tol=tol, check_id="thm1.1")


@_cases(1, 2)
def check_thm_1_2(g, a, b, tol=DEFAULT_TOL, enforce=True):
    """||g(A) + g(B)|| <= ||g(A+B)|| for convex g with g(0)=0, A,B PSD."""
    _require_tag(g, scalarfn.CONVEX_VANISHING, enforce)
    ga, gb, gs = _spectral_apply(g, a, b, linalg.derived(np.add, a, b))
    return norms.dominance_verdict(ga + gb, gs, tol=tol, check_id="thm1.2")


@_cases(1, 2)
def check_davis_hansen(f, a, z, tol=DEFAULT_TOL, enforce=True):
    """Z* f(A) Z <= f(Z* A Z) for operator concave f, f(0) >= 0, ||Z|| <= 1.

    The compression case (Z an orthogonal projection followed by a subspace
    embedding) is the classical inequality for compressions.
    """
    _require_tag(f, scalarfn.OPERATOR_CONCAVE, enforce)
    if enforce and not linalg.is_contraction(z, tol=PREDICATE_TOL).all():
        raise NotAContraction("Z*Z has an eigenvalue above 1")
    zh = z.conj().swapaxes(-1, -2)
    fa, fz = _spectral_apply(f, a, linalg.hermitian_part(zh @ a @ z))
    return _loewner_verdict("davis-hansen", zh @ fa @ z, fz, tol)


def _require_pd(**named) -> None:
    """Each named stack is positive definite, matrix by matrix."""
    stacks = np.concatenate(list(named.values()))
    w = _split(linalg.eigvalsh_desc(linalg.hermitian_part(stacks)), len(named))
    for name, wn in zip(named, w):
        if np.any(wn[:, -1] <= 1e-12 * np.maximum(1.0, wn[:, 0])):
            raise NotPositiveDefinite(f"{name} is not positive definite")


@_cases(1, 2)
def check_pinching_eq2(f, a, b, tol=DEFAULT_TOL, enforce=True):
    """A^(1/2) phi(A+B) A^(1/2) + B^(1/2) phi(A+B) B^(1/2) <= f(A) + f(B)

    with phi(t) = f(t)/t, for operator concave f and A, B > 0.
    """
    _require_tag(f, scalarfn.OPERATOR_CONCAVE, enforce)
    if enforce:
        _require_pd(A=a, B=b)
    t = len(a)
    spec = linalg.joined(linalg.eigh, linalg.derived(np.add, a, b), a, b)
    w = spec.eigenvalues[:t]
    if np.any(w <= 0):
        raise NotPositiveDefinite("A+B is not positive definite")
    # f takes each matrix's own eigenvalue row, laid out as eigh returns it:
    # numpy can round a transcendental function differently by layout
    phi = linalg.synthesize(spec.frame[:t], linalg._apply_rows(_fns(f, t), w) / w)
    parts = _spectrum_rows(spec, slice(t, None))
    ra, rb = _split(linalg.apply_spectrum(np.sqrt, parts), 2)
    fa, fb = _split(linalg.apply_spectrum(_repeat_fns(f, 2), parts), 2)
    lhs = ra @ phi @ ra + rb @ phi @ rb
    return _loewner_verdict("pinching-eq2", lhs, fa + fb, tol)


@_cases(1, 2)
def check_prop_2_1(g, a, b, tol=DEFAULT_TOL, enforce=True):
    """||(A+B) g(A+B)|| <= ||A^(1/2) g(A+B) A^(1/2) + B^(1/2) g(A+B) B^(1/2)||

    for g decreasing with t*g(t) increasing, A, B >= 0 (A+B > 0 when g is
    singular at 0).
    """
    _require_tag(g, scalarfn.DECREASING_TG_INCREASING, enforce)
    t = len(a)
    spec = linalg.joined(linalg.eigh, linalg.derived(np.add, a, b), a, b)
    w = np.maximum(spec.eigenvalues[:t], 0.0)
    singular = np.array([fn.singular_at_zero for fn in _fns(g, t)])
    if np.any(singular & np.any(w <= 0, axis=-1)):
        raise NotPositiveDefinite("A+B must be positive definite for singular g")
    gw = linalg._apply_rows(g, w)
    v = spec.frame[:t]
    g_sum, lhs = _split(
        linalg.synthesize(np.concatenate((v, v)), np.concatenate((gw, w * gw))), 2)
    roots = linalg.apply_spectrum(np.sqrt, _spectrum_rows(spec, slice(t, None)))
    ra, rb = _split(roots, 2)
    rhs = ra @ g_sum @ ra + rb @ g_sum @ rb
    return norms.dominance_verdict(lhs, rhs, tol=tol, check_id="prop2.1")


@_cases(1, 2)
def check_thm_2_4(f, a, z, tol=DEFAULT_TOL, enforce=True):
    """||f(Z* A Z)|| <= ||Z* f(A) Z|| for concave f >= 0, A >= 0, Z expansive."""
    _require_tag(f, scalarfn.CONCAVE_NONNEG, enforce)
    if enforce and not linalg.is_expansive(z, tol=PREDICATE_TOL).all():
        raise NotExpansive("Z*Z has an eigenvalue below 1")
    zh = z.conj().swapaxes(-1, -2)
    lhs, fa = _spectral_apply(f, linalg.hermitian_part(zh @ a @ z), a)
    return norms.dominance_verdict(lhs, zh @ fa @ z, tol=tol, check_id="thm2.4")


def _f_eigs_desc(f, m) -> np.ndarray:
    """Descending eigenvalues of f(M) for M PSD-ish and f on [0, inf)."""
    w = np.maximum(linalg.eigvalsh_desc(m), 0.0)
    return np.sort(linalg._apply_rows(f, w))[..., ::-1]


def _eigen_indices(j, k, t: int, n: int):
    """Per-matrix indices j, k with their labels; raises unless j, k >= 0
    and j + k + 1 <= n."""
    j, k = _per_row(j, t), _per_row(k, t)
    bad = (j < 0) | (k < 0) | (j + k + 1 > n)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise IndexOutOfRange(f"need j,k >= 0 and j+k+1 <= n, got {j[i]},{k[i]},{n}")
    labels = [[f"lambda-j{a}-k{b}"] for a, b in zip(j.tolist(), k.tolist())]
    return j, k, labels


@_cases(1, 2)
def check_eigen_sum(f, a, b, j, k, tol=DEFAULT_TOL, enforce=True):
    """lambda_{j+k+1}(f(S)) <= lambda_{j+1}(f(A')) + lambda_{k+1}(f(B')).

    For PSD A, B this uses S = A+B, A' = A, B' = B; otherwise the absolute
    values |A+B|, |A|, |B| are used (triangle-inequality form).
    """
    _require_tag(f, scalarfn.CONCAVE_NONNEG, enforce)
    t, n = a.shape[:2]
    j, k, labels = _eigen_indices(j, k, t, n)
    psd_a, psd_b = _split(linalg.is_psd(np.concatenate((a, b)), tol=PREDICATE_TOL), 2)
    psd = psd_a & psd_b
    trio = np.concatenate((a + b, a, b)).reshape(3, t, n, n)
    rest = ~psd
    if rest.any():
        parts = (trio[0], a, b) if rest.all() else (trio[0][rest], a[rest], b[rest])
        trio[:, rest] = _split(linalg.joined(linalg.matrix_abs, *parts), 3)
    vals = _split(_f_eigs_desc(_repeat_fns(f, 3), trio.reshape(-1, n, n)), 3)
    rows = np.arange(t)
    lhs = vals[0][rows, j + k]
    rhs = vals[1][rows, j] + vals[2][rows, k]
    return norms.compare("eigen-sum", labels, lhs[:, None], rhs[:, None], tol)


def _grid_rhs(s: np.ndarray):
    """Fan grids of a joined (lhs, x, y) stack of singular values, with the
    right-hand side sqrt(grid(x) * grid(y)) of cs-lemma and ineq4."""
    lhs, gx, gy = _split(norms.fan_grid(s), 3)
    return lhs, norms.sqrt_product(gx, gy)


@_cases(0, 1, 2, 3, 4, 5)
def check_cs_lemma(a1, a2, b1, b2, c1, c2, tol=DEFAULT_TOL, enforce=True):
    """||A1 C1 B1 + A2 C2 B2|| <= ||A1^2+A2^2||^(1/2) ||B1^2+B2^2||^(1/2)

    per symmetric norm, for PSD A_i, B_i and contractions C_i.
    """
    if enforce:
        c = np.concatenate((c1, c2))
        ok = _split(linalg.is_contraction(c, tol=PREDICATE_TOL), 2)
        for name, okc in zip(("C1", "C2"), ok):
            if not okc.all():
                raise NotAContraction(f"{name} is not a contraction")
    lhs, rhs = _grid_rhs(norms.singular_values(np.concatenate(
        (a1 @ c1 @ b1 + a2 @ c2 @ b2, a1 @ a1 + a2 @ a2, b1 @ b1 + b2 @ b2))))
    return norms.compare("cs-lemma", norms.grid_labels(a1.shape[-1]), lhs, rhs, tol)


@_cases(0, 1)
def check_ineq_4(a, b, tol=DEFAULT_TOL):
    """||A+B|| <= || |A|+|B| ||^(1/2) || |A*|+|B*| ||^(1/2) per symmetric norm."""
    if a.shape != b.shape:
        raise DimensionMismatch(f"{a.shape[1:]} vs {b.shape[1:]}")
    p = linalg.joined(linalg.polar, a, b)
    abs_a, abs_b = _split(p.abs, 2)
    star_a, star_b = _split(p.abs_star, 2)
    lhs, rhs = _grid_rhs(norms.singular_values(
        np.concatenate((a + b, abs_a + abs_b, star_a + star_b))))
    return norms.compare("ineq4", norms.grid_labels(a.shape[-1]), lhs, rhs, tol)


def _require_normal(enforce, **named) -> None:
    if not enforce:
        return
    ok = _split(linalg.joined(linalg.is_normal, *named.values(), tol=PREDICATE_TOL),
                len(named))
    for name, okm in zip(named, ok):
        if not okm.all():
            raise NotNormal(f"{name} is not normal")


def _block2(a, b, c, d) -> np.ndarray:
    shapes = {m.shape[1:] for m in (a, b, c, d)}
    if len(shapes) != 1:
        raise DimensionMismatch(f"blocks differ in size: {shapes}")
    return np.block([[a, b], [c, d]])


def _abs4(a, b, c, d):
    """|A|, |B|, |C|, |D| from one call."""
    return _split(linalg.joined(linalg.matrix_abs, a, b, c, d), 4)


@_cases(0, 1, 2, 3)
def check_thm_3_1(a, b, c, d, tol=DEFAULT_TOL, enforce=True):
    """|| [[A,B],[C,D]] || <= || |A|+|B|+|C|+|D| || for normal blocks."""
    _require_normal(enforce, A=a, B=b, C=c, D=d)
    block = linalg.derived(_block2, a, b, c, d)
    pa, pb, pc, pd_ = _abs4(a, b, c, d)
    return norms.dominance_verdict(
        block, pa + pb + pc + pd_, tol=tol, check_id="thm3.1", pad=True)


def _opnorm(m) -> np.ndarray:
    """Operator norm of each matrix, through ``norms.singular_values``."""
    return norms.singular_values(m)[..., 0]


def _max_opnorm(*stacks) -> np.ndarray:
    """The largest operator norm among same-shape stacks, per matrix; a
    shared stack's singular values are taken once (``linalg.joined``)."""
    s = norms.singular_values(*stacks)
    return np.maximum.reduce(_split(s[..., 0], len(stacks)))


def _abs_sum(a, b) -> np.ndarray:
    """|A| + |B|; ``linalg.derived`` keeps it, and its singular values, for
    every checker that sums the same shared stacks."""
    abs_a, abs_b = _split(linalg.joined(linalg.matrix_abs, a, b), 2)
    return abs_a + abs_b


@_cases(0, 1, 2, 3)
def check_thm_3_2(a, b, c, d, tol=DEFAULT_TOL, enforce=True):
    """Operator norm of [[A,B],[C,D]] bounded by the max of the four
    row/column absolute-value sums, for normal blocks."""
    _require_normal(enforce, A=a, B=b, C=c, D=d)
    lhs = _opnorm(linalg.derived(_block2, a, b, c, d))
    pa, pb, pc, pd_ = _abs4(a, b, c, d)
    # prop3.4 takes the same |A| + |B| of shared stacks
    ab = linalg.derived(_abs_sum, a, b) if linalg.shared(a, b) else pa + pb
    rhs = _max_opnorm(ab, pc + pd_, pa + pc, pb + pd_)
    return norms.compare("thm3.2", ["operator"], lhs[:, None], rhs[:, None], tol)


@_cases(0, 1, 2)
def check_cor_3_3(a, b, x, tol=DEFAULT_TOL):
    """|| [[A,X*],[X,B]] ||_op <= max(|| |A|+|X| ||_op, || |B|+|X*| ||_op)

    for Hermitian A, B.  The paper derives it from Thm 3.2 on a 4n
    embedding.  That embedding is a permutation of the direct sum of
    [[A,X*],[X,B]] and [[0,X],[X*,0]], and its row and column sums are
    diag(|X*|, |A|+|X|) and diag(|B|+|X*|, |X|) (Bhatia, Matrix Analysis,
    GTM 169, ch. I), so it decides this same comparison; the tests keep it
    as a reference.
    """
    a, b = linalg.hermitize(a), linalg.hermitize(b)
    if a.shape != b.shape or a.shape != x.shape:
        raise DimensionMismatch("A, B, X must share a dimension")
    block = np.block([[a, x.conj().swapaxes(-1, -2)], [x, b]])
    px = linalg.joined(linalg.polar, x)  # |X| and |X*| from one SVD
    abs_a, abs_b = _split(linalg.joined(linalg.matrix_abs, a, b), 2)
    lhs = _opnorm(block)
    rhs = _max_opnorm(abs_a + px.abs, abs_b + px.abs_star)
    return norms.compare("cor3.3", ["operator"], lhs[:, None], rhs[:, None], tol)


@_cases(0, 1)
def check_prop_3_4(a, b, tol=DEFAULT_TOL, enforce=True):
    """||A+B|| <= || |A|+|B| || for normal A, B (triangle inequality)."""
    _require_normal(enforce, A=a, B=b)
    return norms.dominance_verdict(
        a + b, linalg.derived(_abs_sum, a, b), tol=tol, check_id="prop3.4")


@_cases(0, 1)
def check_prop_3_5_eigen(s, t, j, k, tol=DEFAULT_TOL):
    """lambda_{j+k+1}(|S+T|) <= (lambda_{j+1}(M) + lambda_{k+1}(M))/2

    with M = |S|+|T|, for Hermitian S, T (eigenvalue consequence of the
    unitary-mixture triangle inequality).
    """
    s, t = linalg.hermitize(s), linalg.hermitize(t)
    rows, n = s.shape[:2]
    j, k, labels = _eigen_indices(j, k, rows, n)
    abs_sum, abs_s, abs_t = _split(linalg.joined(linalg.matrix_abs, s + t, s, t), 3)
    w_sum, w_m = _split(
        linalg.eigvalsh_desc(np.concatenate((abs_sum, abs_s + abs_t))), 2)
    r = np.arange(rows)
    lhs = w_sum[r, j + k]
    rhs = 0.5 * (w_m[r, j] + w_m[r, k])
    return norms.compare("prop3.5", labels, lhs[:, None], rhs[:, None], tol)


def _powers(m, t: int) -> list:
    """The power m of each of t matrices, as ints >= 1."""
    if isinstance(m, (int, np.integer)):
        powers = [int(m)] * t
    else:
        powers = [int(p) for p in _per_row(m, t)]
    if min(powers) < 1:
        raise BadSpec(f"power m must be >= 1, got {min(powers)}")
    return powers


@_cases(0, 1)
def check_ineq_5(a, b, z, m, tol=DEFAULT_TOL):
    """||(A + zB)^m|| <= ||(A + |z|B)^m|| for PSD A, B and complex z."""
    m = _powers(m, len(a))
    # |z| as Python's abs (a libm hypot); numpy's complex abs can round apart
    z = np.asarray(z, dtype=complex)
    if z.ndim:  # one z per matrix
        z = z.reshape(-1, 1, 1)
        size = np.reshape([abs(v) for v in z.ravel().tolist()], z.shape)
    else:
        size = abs(complex(z))
    lhs, rhs = _split(
        linalg.matrix_power(np.concatenate((a + z * b, a + size * b)), m + m), 2)
    return norms.dominance_verdict(lhs, rhs, tol=tol, check_id="ineq5")


@_cases(0, 1)
def identity_6_verdict(a, b, m, tol: float = 1e-10):
    """The relative residual of A^m + B^m = (1/m) sum_j (A + w^j B)^m,
    w = exp(2*pi*i/m), as a Verdict with one record: the residual as LHS
    and -residual as margin, so it passes iff residual <= tol.  (The
    root-of-unity average kills every mixed word in the expansion; only
    the pure A^m and B^m words survive.)"""
    m = _powers(m, len(a))
    residual = [0.0] * len(a)
    for p in sorted(set(m)):
        rows = [t for t, q in enumerate(m) if q == p]
        ar, br = (a, b) if len(rows) == len(a) else (a[rows], b[rows])
        w = np.exp(2j * np.pi / p)
        avg = sum(linalg.matrix_power(ar + (w**j) * br, p) for j in range(p)) / p
        target = linalg.matrix_power(ar, p) + linalg.matrix_power(br, p)
        errors = linalg.opnorm(target - avg).tolist()
        for t, error, top in zip(rows, errors, linalg.opnorm(target).tolist()):
            residual[t] = error / max(1.0, top)
    return [Verdict(check_id="identity6", tol=tol,
                    records=[ComparisonRecord("residual", r, 0.0, -r)])
            for r in residual]


def _ops(kind: str, names="ab") -> tuple:
    return tuple((name, kind) for name in names)


@dataclass(frozen=True)
class Pick:
    """An operand list that a case draws: ``choices[index(rng, fn_descriptor)]``,
    where each choice is a list of (name, generator kind) in slot order."""

    choices: tuple
    index: Callable[..., int]

    def __call__(self, rng, fn) -> tuple:
        return self.choices[int(self.index(rng, fn))]


def _coin(rng, fn) -> int:
    return rng.integers(2)


def _draw_jk(rng, n: int) -> dict:
    j = int(rng.integers(n))
    return {"j": j, "k": int(rng.integers(n - j))}


def _complex(re, im) -> np.ndarray:
    """re + i*im, built exactly (one value or one per matrix)."""
    z = np.array(re, dtype=complex)
    z.imag = im
    return z


def _draw_z_m(rng, n: int) -> dict:
    z = rng.standard_normal() + 1j * rng.standard_normal()
    m = int(rng.integers(1, 6))
    return {"z_re": float(z.real), "z_im": float(z.imag), "m": m}


@dataclass(frozen=True)
class CheckSpec:
    """How the falsifier samples and runs one checker.

    A case draws from its rng, in this order: a function of class
    ``fn_class`` (None: the checker takes none); the operand list, if
    ``operands`` is a ``Pick`` rather than a list of (name, generator kind)
    in slot order; then ``scalars(rng, n)``.  ``run(f, matrices, scalars,
    tol=, enforce=)`` calls the checker by its module-global name, so a
    wrapper set on that name sees the call.
    """

    check_id: str
    fn_class: str | None
    operands: tuple | Callable
    run: Callable[..., Verdict]
    scalars: Callable[..., dict] = lambda rng, n: {}

    @property
    def kinds(self) -> set:
        """Every generator kind the check's operands may be drawn from."""
        lists = self.operands.choices if isinstance(self.operands, Pick) else (self.operands,)
        return {kind for operands in lists for _, kind in operands}


SPECS = {spec.check_id: spec for spec in (
    CheckSpec("thm1.1", scalarfn.CONCAVE_NONNEG,
              Pick((_ops("psd", ("a0", "a1")), _ops("psd", ("a0", "a1", "a2"))), _coin),
              lambda f, m, s, **kw: check_thm_1_1(f, [m[k] for k in sorted(m)], **kw)),
    CheckSpec("thm1.2", scalarfn.CONVEX_VANISHING, _ops("psd"),
              lambda f, m, s, **kw: check_thm_1_2(f, m["a"], m["b"], **kw)),
    CheckSpec("davis-hansen", scalarfn.OPERATOR_CONCAVE,
              (("a", "psd"), ("z", "contraction")),
              lambda f, m, s, **kw: check_davis_hansen(f, m["a"], m["z"], **kw)),
    CheckSpec("pinching-eq2", scalarfn.OPERATOR_CONCAVE, _ops("pd"),
              lambda f, m, s, **kw: check_pinching_eq2(f, m["a"], m["b"], **kw)),
    CheckSpec("prop2.1", scalarfn.DECREASING_TG_INCREASING,
              Pick((_ops("psd"), _ops("pd")), lambda rng, fn: fn["kind"] == "inv-sqrt"),
              lambda f, m, s, **kw: check_prop_2_1(f, m["a"], m["b"], **kw)),
    CheckSpec("thm2.4", scalarfn.CONCAVE_NONNEG, (("a", "psd"), ("z", "expansive")),
              lambda f, m, s, **kw: check_thm_2_4(f, m["a"], m["z"], **kw)),
    CheckSpec("eigen-sum", scalarfn.CONCAVE_NONNEG,
              Pick((_ops("general"), _ops("psd")), _coin),
              lambda f, m, s, **kw: check_eigen_sum(
                  f, m["a"], m["b"], s["j"], s["k"], **kw),
              _draw_jk),
    CheckSpec("cs-lemma", None,
              _ops("psd", ("a1", "a2", "b1", "b2")) + _ops("contraction", ("c1", "c2")),
              lambda f, m, s, **kw: check_cs_lemma(
                  m["a1"], m["a2"], m["b1"], m["b2"], m["c1"], m["c2"], **kw)),
    CheckSpec("ineq4", None, _ops("general"),
              lambda f, m, s, tol, **_: check_ineq_4(m["a"], m["b"], tol=tol)),
    CheckSpec("thm3.1", None, _ops("normal", "abcd"),
              lambda f, m, s, **kw: check_thm_3_1(*(m[k] for k in "abcd"), **kw)),
    CheckSpec("thm3.2", None, _ops("normal", "abcd"),
              lambda f, m, s, **kw: check_thm_3_2(*(m[k] for k in "abcd"), **kw)),
    CheckSpec("cor3.3", None, _ops("hermitian") + (("x", "general"),),
              lambda f, m, s, tol, **_: check_cor_3_3(m["a"], m["b"], m["x"], tol=tol)),
    CheckSpec("prop3.4", None, _ops("normal"),
              lambda f, m, s, **kw: check_prop_3_4(m["a"], m["b"], **kw)),
    CheckSpec("prop3.5", None, _ops("hermitian", "st"),
              lambda f, m, s, tol, **_: check_prop_3_5_eigen(
                  m["s"], m["t"], s["j"], s["k"], tol=tol),
              _draw_jk),
    CheckSpec("ineq5", None, _ops("psd"),
              lambda f, m, s, tol, **_: check_ineq_5(
                  m["a"], m["b"], _complex(s["z_re"], s["z_im"]), s["m"], tol=tol),
              _draw_z_m),
    CheckSpec("identity6", None, _ops("psd"),
              lambda f, m, s, tol, **_: identity_6_verdict(
                  m["a"], m["b"], s["m"], tol=tol),
              lambda rng, n: {"m": int(rng.integers(1, 9))}),
)}

CHECK_IDS = tuple(SPECS)

# A check that may draw one of these kinds is in the positive family, with
# its contraction, expansive or general partner operands.
POSITIVE_KINDS = frozenset({"psd", "pd"})


def groups(check_ids) -> list[list[str]]:
    """``check_ids`` split by operand family: the checks of the positive
    family, then the rest (normal, hermitian and general operands), each
    in the order given, leaving out a family with no check.  Each shared
    (kind, slot) operand is drawn and decomposed within one group, except
    the general pair that eigen-sum draws in some trials and ineq4 in all."""
    positive = [cid for cid in check_ids if SPECS[cid].kinds & POSITIVE_KINDS]
    rest = [cid for cid in check_ids if cid not in positive]
    return [group for group in (positive, rest) if group]
