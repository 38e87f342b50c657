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


def _require_tag(f: scalarfn.ScalarFn, tag: str, enforce: bool) -> None:
    if enforce and tag not in f.tags:
        raise ShapeValidationFailed(f"{f.kind} lacks required class {tag}")


def _loewner_verdict(check_id: str, lhs, rhs, tol: float) -> Verdict:
    """Verdict for lhs <= rhs in the Loewner order.

    Margin is lambda_min(rhs - lhs) scaled by max(1, ||rhs - lhs||_op),
    recorded as a single comparison row.
    """
    ml, mr = linalg.as_square(lhs), linalg.as_square(rhs)
    if ml.shape != mr.shape:
        raise DimensionMismatch(f"{ml.shape} vs {mr.shape}")
    d = linalg.hermitian_part(mr - ml)
    w = linalg.eigvalsh_desc(d)
    lam_min = float(w[-1]) if w.size else 0.0
    lam_max = float(w[0]) if w.size else 0.0
    scale = max(1.0, max(abs(lam_min), abs(lam_max)))
    margin = lam_min / scale
    rec = ComparisonRecord(label="loewner", lhs=-lam_min, rhs=0.0, margin=margin)
    return Verdict(check_id=check_id, records=[rec], tol=tol)


def check_thm_1_1(f, operands, tol=DEFAULT_TOL, enforce=True) -> Verdict:
    """||f(sum A_i)|| <= ||sum f(A_i)|| for concave f >= 0 and PSD A_i."""
    if len(operands) < 2:
        raise BadSpec("need at least two operands")
    _require_tag(f, scalarfn.CONCAVE_NONNEG, enforce)
    mats = [linalg.as_square(a) for a in operands]
    total = sum(mats[1:], start=mats[0])
    lhs = linalg.spectral_apply(f, total)
    rhs = sum(linalg.spectral_apply(f, a) for a in mats)
    return norms.dominance_verdict(lhs, rhs, tol=tol, check_id="thm1.1")


def check_thm_1_2(g, a, b, tol=DEFAULT_TOL, enforce=True) -> Verdict:
    """||g(A) + g(B)|| <= ||g(A+B)|| for convex g with g(0)=0, A,B PSD."""
    _require_tag(g, scalarfn.CONVEX_VANISHING, enforce)
    a, b = linalg.as_square(a), linalg.as_square(b)
    lhs = linalg.spectral_apply(g, a) + linalg.spectral_apply(g, b)
    rhs = linalg.spectral_apply(g, a + b)
    return norms.dominance_verdict(lhs, rhs, tol=tol, check_id="thm1.2")


def check_davis_hansen(f, a, z, tol=DEFAULT_TOL, enforce=True) -> Verdict:
    """Z* f(A) Z <= f(Z* A Z) for operator concave f, f(0) >= 0, ||Z|| <= 1.

    The compression case (Z an orthogonal projection followed by a subspace
    embedding) is the classical inequality for compressions.
    """
    _require_tag(f, scalarfn.OPERATOR_CONCAVE, enforce)
    a, z = linalg.as_square(a), linalg.as_square(z)
    if enforce and not linalg.is_contraction(z, tol=PREDICATE_TOL):
        raise NotAContraction("Z*Z has an eigenvalue above 1")
    lhs = z.conj().T @ linalg.spectral_apply(f, a) @ z
    rhs = linalg.spectral_apply(f, linalg.hermitian_part(z.conj().T @ a @ z))
    return _loewner_verdict("davis-hansen", lhs, rhs, tol)


def _require_pd(m, name: str) -> None:
    w = linalg.eigvalsh_desc(linalg.hermitian_part(m))
    if w[-1] <= 1e-12 * max(1.0, float(w[0])):
        raise NotPositiveDefinite(f"{name} is not positive definite")


def check_pinching_eq2(f, a, b, tol=DEFAULT_TOL, enforce=True) -> Verdict:
    """A^(1/2) phi(A+B) A^(1/2) + B^(1/2) phi(A+B) B^(1/2) <= f(A) + f(B)

    with phi(t) = f(t)/t, for operator concave f and A, B > 0.
    """
    _require_tag(f, scalarfn.OPERATOR_CONCAVE, enforce)
    a, b = linalg.as_square(a), linalg.as_square(b)
    if enforce:
        _require_pd(a, "A")
        _require_pd(b, "B")
    spec = linalg.eigh(a + b)
    w = spec.eigenvalues
    if np.any(w <= 0):
        raise NotPositiveDefinite("A+B is not positive definite")
    phi = linalg.synthesize(spec.frame, f(w) / w)
    ra = linalg.spectral_apply(np.sqrt, a)
    rb = linalg.spectral_apply(np.sqrt, b)
    lhs = ra @ phi @ ra + rb @ phi @ rb
    rhs = linalg.spectral_apply(f, a) + linalg.spectral_apply(f, b)
    return _loewner_verdict("pinching-eq2", lhs, rhs, tol)


def check_prop_2_1(g, a, b, tol=DEFAULT_TOL, enforce=True) -> Verdict:
    """||(A+B) g(A+B)|| <= ||A^(1/2) g(A+B) A^(1/2) + B^(1/2) g(A+B) B^(1/2)||

    for g decreasing with t*g(t) increasing, A, B >= 0 (A+B > 0 when g is
    singular at 0).
    """
    _require_tag(g, scalarfn.DECREASING_TG_INCREASING, enforce)
    a, b = linalg.as_square(a), linalg.as_square(b)
    spec = linalg.eigh(a + b)
    w = np.maximum(spec.eigenvalues, 0.0)
    if g.singular_at_zero and np.any(w <= 0):
        raise NotPositiveDefinite("A+B must be positive definite for singular g")
    gw = np.asarray(g(w), dtype=float)
    g_sum = linalg.synthesize(spec.frame, gw)
    lhs = linalg.synthesize(spec.frame, w * gw)
    ra = linalg.spectral_apply(np.sqrt, a)
    rb = linalg.spectral_apply(np.sqrt, b)
    rhs = ra @ g_sum @ ra + rb @ g_sum @ rb
    return norms.dominance_verdict(lhs, rhs, tol=tol, check_id="prop2.1")


def check_thm_2_4(f, a, z, tol=DEFAULT_TOL, enforce=True) -> Verdict:
    """||f(Z* A Z)|| <= ||Z* f(A) Z|| for concave f >= 0, A >= 0, Z expansive."""
    _require_tag(f, scalarfn.CONCAVE_NONNEG, enforce)
    a, z = linalg.as_square(a), linalg.as_square(z)
    if enforce and not linalg.is_expansive(z, tol=PREDICATE_TOL):
        raise NotExpansive("Z*Z has an eigenvalue below 1")
    lhs = linalg.spectral_apply(f, linalg.hermitian_part(z.conj().T @ a @ z))
    rhs = z.conj().T @ linalg.spectral_apply(f, a) @ z
    return norms.dominance_verdict(lhs, rhs, tol=tol, check_id="thm2.4")


def _f_eigs_desc(f, m) -> np.ndarray:
    """Descending eigenvalues of f(M) for M PSD-ish and f on [0, inf)."""
    w = np.maximum(linalg.eigvalsh_desc(m), 0.0)
    return np.sort(np.asarray(f(w), dtype=float))[::-1]


def check_eigen_sum(f, a, b, j, k, tol=DEFAULT_TOL, enforce=True) -> Verdict:
    """lambda_{j+k+1}(f(S)) <= lambda_{j+1}(f(A')) + lambda_{k+1}(f(B')).

    For PSD A, B this uses S = A+B, A' = A, B' = B; otherwise the absolute
    values |A+B|, |A|, |B| are used (triangle-inequality form).
    """
    _require_tag(f, scalarfn.CONCAVE_NONNEG, enforce)
    a, b = linalg.as_square(a), linalg.as_square(b)
    n = a.shape[0]
    if j < 0 or k < 0 or j + k + 1 > n:
        raise IndexOutOfRange(f"need j,k >= 0 and j+k+1 <= n, got {j},{k},{n}")
    psd_mode = linalg.is_psd(a, tol=PREDICATE_TOL) and linalg.is_psd(
        b, tol=PREDICATE_TOL
    )
    if psd_mode:
        s_mat, a_mat, b_mat = a + b, a, b
    else:
        s_mat = linalg.matrix_abs(a + b)
        a_mat, b_mat = linalg.matrix_abs(a), linalg.matrix_abs(b)
    lhs = float(_f_eigs_desc(f, s_mat)[j + k])
    rhs = float(_f_eigs_desc(f, a_mat)[j]) + float(_f_eigs_desc(f, b_mat)[k])
    return norms.compare("eigen-sum", [f"lambda-j{j}-k{k}"], [lhs], [rhs], tol)


def check_cs_lemma(a1, a2, b1, b2, c1, c2, tol=DEFAULT_TOL, enforce=True) -> Verdict:
    """||A1 C1 B1 + A2 C2 B2|| <= ||A1^2+A2^2||^(1/2) ||B1^2+B2^2||^(1/2)

    per symmetric norm, for PSD A_i, B_i and contractions C_i.
    """
    a1, a2 = linalg.as_square(a1), linalg.as_square(a2)
    b1, b2 = linalg.as_square(b1), linalg.as_square(b2)
    c1, c2 = linalg.as_square(c1), linalg.as_square(c2)
    if enforce:
        for name, c in (("C1", c1), ("C2", c2)):
            if not linalg.is_contraction(c, tol=PREDICATE_TOL):
                raise NotAContraction(f"{name} is not a contraction")
    sl = norms.singular_values(a1 @ c1 @ b1 + a2 @ c2 @ b2)
    sa = norms.singular_values(a1 @ a1 + a2 @ a2)
    sb = norms.singular_values(b1 @ b1 + b2 @ b2)
    rhs = norms.sqrt_product(norms.fan_grid(sa), norms.fan_grid(sb))
    return norms.compare(
        "cs-lemma", norms.grid_labels(sl.size), norms.fan_grid(sl), rhs, tol
    )


def check_ineq_4(a, b, tol=DEFAULT_TOL) -> Verdict:
    """||A+B|| <= || |A|+|B| ||^(1/2) || |A*|+|B*| ||^(1/2) per symmetric norm."""
    a, b = linalg.as_square(a), linalg.as_square(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"{a.shape} vs {b.shape}")
    pa, pb = linalg.polar(a), linalg.polar(b)
    sl = norms.singular_values(a + b)
    s_abs = norms.singular_values(pa.abs + pb.abs)
    s_abs_star = norms.singular_values(pa.abs_star + pb.abs_star)
    rhs = norms.sqrt_product(norms.fan_grid(s_abs), norms.fan_grid(s_abs_star))
    return norms.compare(
        "ineq4", norms.grid_labels(sl.size), norms.fan_grid(sl), rhs, tol
    )


def _require_normal(enforce, **named) -> None:
    if not enforce:
        return
    for name, m in named.items():
        if not linalg.is_normal(m, tol=PREDICATE_TOL):
            raise NotNormal(f"{name} is not normal")


def _block2(a, b, c, d) -> np.ndarray:
    shapes = {m.shape for m in (a, b, c, d)}
    if len(shapes) != 1:
        raise DimensionMismatch(f"blocks differ in size: {shapes}")
    return np.block([[a, b], [c, d]])


def check_thm_3_1(a, b, c, d, tol=DEFAULT_TOL, enforce=True) -> Verdict:
    """|| [[A,B],[C,D]] || <= || |A|+|B|+|C|+|D| || for normal blocks."""
    a, b = linalg.as_square(a), linalg.as_square(b)
    c, d = linalg.as_square(c), linalg.as_square(d)
    _require_normal(enforce, A=a, B=b, C=c, D=d)
    block = _block2(a, b, c, d)
    rhs = (
        linalg.matrix_abs(a)
        + linalg.matrix_abs(b)
        + linalg.matrix_abs(c)
        + linalg.matrix_abs(d)
    )
    v = norms.dominance_verdict(block, rhs, tol=tol, check_id="thm3.1", pad=True)
    return v


def _opnorm(m) -> float:
    return norms.norm(m, norms.OPERATOR)


def _thm_3_2_bound(a, b, c, d) -> float:
    """Largest operator norm of the row sums |A|+|B|, |C|+|D| and the
    column sums |A|+|C|, |B|+|D|."""
    pa, pb = linalg.matrix_abs(a), linalg.matrix_abs(b)
    pc, pd_ = linalg.matrix_abs(c), linalg.matrix_abs(d)
    return max(
        _opnorm(pa + pb), _opnorm(pc + pd_), _opnorm(pa + pc), _opnorm(pb + pd_)
    )


def check_thm_3_2(a, b, c, d, tol=DEFAULT_TOL, enforce=True) -> Verdict:
    """Operator norm of [[A,B],[C,D]] bounded by the max of the four
    row/column absolute-value sums, for normal blocks."""
    a, b = linalg.as_square(a), linalg.as_square(b)
    c, d = linalg.as_square(c), linalg.as_square(d)
    _require_normal(enforce, A=a, B=b, C=c, D=d)
    lhs = _opnorm(_block2(a, b, c, d))
    rhs = _thm_3_2_bound(a, b, c, d)
    return norms.compare("thm3.2", ["operator"], [lhs], [rhs], tol)


def check_cor_3_3(a, b, x, tol=DEFAULT_TOL) -> Verdict:
    """|| [[A,X*],[X,B]] ||_op <= max(|| |A|+|X| ||_op, || |B|+|X*| ||_op)

    for Hermitian A, B.  The paper derives it from Thm 3.2 on a 4n
    embedding.  That embedding is a permutation of the direct sum of
    [[A,X*],[X,B]] and [[0,X],[X*,0]], and its row and column sums are
    diag(|X*|, |A|+|X|) and diag(|B|+|X*|, |X|) (Bhatia, Matrix Analysis,
    GTM 169, ch. I), so it decides this same comparison; the tests keep it
    as a reference.
    """
    a = linalg.hermitize(a)
    b = linalg.hermitize(b)
    x = linalg.as_square(x)
    if a.shape != b.shape or a.shape != x.shape:
        raise DimensionMismatch("A, B, X must share a dimension")
    block = np.block([[a, x.conj().T], [x, b]])
    px = linalg.polar(x)  # |X| and |X*| from one SVD
    lhs = _opnorm(block)
    rhs = max(_opnorm(linalg.matrix_abs(a) + px.abs),
              _opnorm(linalg.matrix_abs(b) + px.abs_star))
    return norms.compare("cor3.3", ["operator"], [lhs], [rhs], tol)


def check_prop_3_4(a, b, tol=DEFAULT_TOL, enforce=True) -> Verdict:
    """||A+B|| <= || |A|+|B| || for normal A, B (triangle inequality)."""
    a, b = linalg.as_square(a), linalg.as_square(b)
    _require_normal(enforce, A=a, B=b)
    rhs = linalg.matrix_abs(a) + linalg.matrix_abs(b)
    return norms.dominance_verdict(a + b, rhs, tol=tol, check_id="prop3.4")


def check_prop_3_5_eigen(s, t, j, k, tol=DEFAULT_TOL) -> Verdict:
    """lambda_{j+k+1}(|S+T|) <= (lambda_{j+1}(M) + lambda_{k+1}(M))/2

    with M = |S|+|T|, for Hermitian S, T (eigenvalue consequence of the
    unitary-mixture triangle inequality).
    """
    s = linalg.hermitize(s)
    t = linalg.hermitize(t)
    n = s.shape[0]
    if j < 0 or k < 0 or j + k + 1 > n:
        raise IndexOutOfRange(f"need j,k >= 0 and j+k+1 <= n, got {j},{k},{n}")
    w_sum = linalg.eigvalsh_desc(linalg.matrix_abs(s + t))
    m = linalg.matrix_abs(s) + linalg.matrix_abs(t)
    w_m = linalg.eigvalsh_desc(m)
    lhs = float(w_sum[j + k])
    rhs = 0.5 * (float(w_m[j]) + float(w_m[k]))
    return norms.compare("prop3.5", [f"lambda-j{j}-k{k}"], [lhs], [rhs], tol)


def check_ineq_5(a, b, z, m, tol=DEFAULT_TOL) -> Verdict:
    """||(A + zB)^m|| <= ||(A + |z|B)^m|| for PSD A, B and complex z."""
    a, b = linalg.as_square(a), linalg.as_square(b)
    m = int(m)
    if m < 1:
        raise BadSpec(f"power m must be >= 1, got {m}")
    z = complex(z)
    lhs = linalg.matrix_power(a + z * b, m)
    rhs = linalg.matrix_power(a + abs(z) * b, m)
    return norms.dominance_verdict(lhs, rhs, tol=tol, check_id="ineq5")


def check_identity_6(a, b, m) -> float:
    """Relative residual of A^m + B^m = (1/m) sum_j (A + w^j B)^m,

    w = exp(2*pi*i/m).  (The root-of-unity average kills every mixed word
    in the expansion; only the pure A^m and B^m words survive.)
    """
    a, b = linalg.as_square(a), linalg.as_square(b)
    m = int(m)
    if m < 1:
        raise BadSpec(f"power m must be >= 1, got {m}")
    w = np.exp(2j * np.pi / m)
    avg = sum(linalg.matrix_power(a + (w**j) * b, m) for j in range(m)) / m
    target = linalg.matrix_power(a, m) + linalg.matrix_power(b, m)
    return linalg.opnorm(target - avg) / max(1.0, linalg.opnorm(target))


def identity_6_verdict(a, b, m, tol: float = 1e-10) -> Verdict:
    """Identity residual wrapped as a Verdict; its margin is -residual, so
    it passes iff residual <= tol."""
    residual = check_identity_6(a, b, m)
    rec = ComparisonRecord("residual", residual, 0.0, -residual)
    return Verdict(check_id="identity6", records=[rec], tol=tol)


def _ops(kind: str, names="ab") -> tuple:
    return tuple((name, kind) for name in names)


def _psd_family(rng, fn) -> list:
    return [(f"a{i}", "psd") for i in range(2 + int(rng.integers(2)))]


def _draw_jk(rng, n: int) -> dict:
    j = int(rng.integers(n))
    return {"j": j, "k": int(rng.integers(n - j))}


def _draw_z_m(rng, n: int) -> dict:
    z = rng.standard_normal() + 1j * rng.standard_normal()
    m = int(rng.integers(1, 6))
    return {"z_re": float(z.real), "z_im": float(z.imag), "m": m}


@dataclass(frozen=True)
class CheckSpec:
    """How the falsifier samples and runs one checker.

    A case draws from its rng, in this order: a function of class
    ``fn_class`` (None: the checker takes none); the operand list, if
    ``operands`` is a draw ``(rng, fn_descriptor) -> list`` rather than a
    list of (name, generator kind) in slot order; then ``scalars(rng, n)``.
    ``run(f, matrices, scalars, tol=, enforce=)`` calls the checker by its
    module-global name, so a wrapper set on that name sees the call.
    """

    check_id: str
    fn_class: str | None
    operands: tuple | Callable
    run: Callable[..., Verdict]
    scalars: Callable[..., dict] = lambda rng, n: {}


SPECS = {spec.check_id: spec for spec in (
    CheckSpec("thm1.1", scalarfn.CONCAVE_NONNEG, _psd_family,
              lambda f, m, s, **kw: check_thm_1_1(f, [m[k] for k in sorted(m)], **kw)),
    CheckSpec("thm1.2", scalarfn.CONVEX_VANISHING, _ops("psd"),
              lambda f, m, s, **kw: check_thm_1_2(f, m["a"], m["b"], **kw)),
    CheckSpec("davis-hansen", scalarfn.OPERATOR_CONCAVE,
              (("a", "psd"), ("z", "contraction")),
              lambda f, m, s, **kw: check_davis_hansen(f, m["a"], m["z"], **kw)),
    CheckSpec("pinching-eq2", scalarfn.OPERATOR_CONCAVE, _ops("pd"),
              lambda f, m, s, **kw: check_pinching_eq2(f, m["a"], m["b"], **kw)),
    CheckSpec("prop2.1", scalarfn.DECREASING_TG_INCREASING,
              lambda rng, fn: _ops("pd" if fn["kind"] == "inv-sqrt" else "psd"),
              lambda f, m, s, **kw: check_prop_2_1(f, m["a"], m["b"], **kw)),
    CheckSpec("thm2.4", scalarfn.CONCAVE_NONNEG, (("a", "psd"), ("z", "expansive")),
              lambda f, m, s, **kw: check_thm_2_4(f, m["a"], m["z"], **kw)),
    CheckSpec("eigen-sum", scalarfn.CONCAVE_NONNEG,
              lambda rng, fn: _ops("psd" if int(rng.integers(2)) else "general"),
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
                  m["a"], m["b"], complex(s["z_re"], s["z_im"]), s["m"], tol=tol),
              _draw_z_m),
    CheckSpec("identity6", None, _ops("psd"),
              lambda f, m, s, tol, **_: identity_6_verdict(
                  m["a"], m["b"], s["m"], tol=tol),
              lambda rng, n: {"m": int(rng.integers(1, 9))}),
)}

CHECK_IDS = tuple(SPECS)
