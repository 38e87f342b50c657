"""Executable checkers, one per inequality or identity.

Each checker builds the two sides of its statement and delegates to the
Fan-dominance verdict, a Loewner-order comparison, or a direct scalar
comparison on the norm grid.  Its ``@_check`` decorator declares the check
once, as a ``CheckSpec`` in ``SPECS``: id, scalar-function class, operand
kinds, scalar draw, witnesses and the mutations that break its
hypotheses.  The decorator also brings every call to the checker bodies'
one form: (T, n, n) operand stacks of one shape (else DimensionMismatch),
one scalar function and one value of each scalar per matrix.  The checker
enforces the hypotheses that declaration states (the function's class
tag; pd, contraction, expansive and normal operands) unless the
falsifier, probing a broken hypothesis, switches them off.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field, replace
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

# The operand kinds that are hypotheses: the linalg predicate testing each
# matrix (by name, so a wrapper set on it sees the call), its tolerance, the
# error a failing operand raises, what that operand is not, and the mutation
# that drops the hypothesis with the kind it generates in its place.
_HYPOTHESES = {
    "pd": ("is_pd", 1e-12, NotPositiveDefinite, "positive definite", None),
    "contraction": ("is_contraction", PREDICATE_TOL, NotAContraction, "a contraction", None),
    "expansive": ("is_expansive", PREDICATE_TOL, NotExpansive, "expansive",
                  ("drop-expansive", "contraction")),
    "normal": ("is_normal", PREDICATE_TOL, NotNormal, "normal", ("drop-normality", "general")),
}


def _stack(x) -> np.ndarray:
    """An operand as a (T, n, n) stack; a single matrix is a stack of one."""
    m = linalg.as_square(x)
    return m[None] if m.ndim == 2 else m


def _split(x: np.ndarray, k: int) -> list:
    """A joined result of k stacks, back as k stacks (views)."""
    t = len(x) // k
    return [x[i * t:(i + 1) * t] for i in range(k)]


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


@dataclass(frozen=True)
class Witness:
    """A fixed instance of a check with a known outcome: an exact equality
    (its |min margin| must be within tolerance) or a strict pass, or a
    case that the mutation it is declared with violates.  Its operands are
    named as one operand list of the check, in slot order."""

    description: str
    equality: bool  # min margin must be ~0, not merely >= -tol
    operands: dict  # name -> matrix
    fn: dict | None = None  # scalar-function descriptor
    scalars: dict = field(default_factory=dict)
    tol: float = DEFAULT_TOL
    check_id: str = ""  # set by the @_check that declares it

    def run(self) -> Verdict:
        """The witness's verdict, from one checker call of its own."""
        fn = None if self.fn is None else scalarfn.from_descriptor(self.fn)
        return SPECS[self.check_id].run(
            fn, self.operands, self.scalars, tol=self.tol, enforce=True)


@dataclass(frozen=True)
class Mutation:
    """How a mutation breaks one hypothesis of a check: it draws the scalar
    function with ``fn(rng)``, from outside the check's class, or generates
    operand kind ``swap[0]`` as ``swap[1]``.  It must violate the check
    exactly where it has a ``witness`` it violates; else it is exploratory."""

    fn: Callable | None = None
    swap: tuple = (None, None)
    witness: Witness | None = None

    @property
    def expectation(self) -> str:
        return "exploratory" if self.witness is None else "must-violate"


@dataclass(frozen=True)
class CheckSpec:
    """How the falsifier samples and runs one checker.

    A case draws from its rng, in this order: a function of class
    ``fn_class`` (None: the checker takes none); the operand list, if
    ``operands`` is a ``Pick`` rather than a list of (name, generator kind)
    in slot order; then ``scalars(rng, n)``.  ``run(f, matrices, scalars,
    tol=, enforce=)`` calls the checker by its module-global name, so a
    wrapper set on that name sees the call.  ``witnesses`` are the check's
    rows of the verify report, and ``mutations`` ({name: Mutation}) the
    mutations that apply to it.
    """

    check_id: str
    fn_class: str | None
    operands: tuple | Callable
    run: Callable[..., Verdict]
    scalars: Callable[..., dict]
    witnesses: tuple
    mutations: dict

    def _lists(self) -> tuple:
        return self.operands.choices if isinstance(self.operands, Pick) else (self.operands,)

    @property
    def kinds(self) -> set:
        """Every generator kind the check's operands may be drawn from."""
        return {kind for operands in self._lists() for _, kind in operands}

    @property
    def hypotheses(self) -> dict:
        """{operand: kind} for each operand that every operand list of the
        check declares of one kind in ``_HYPOTHESES``; its checker
        enforces these."""
        first, *rest = self._lists()
        return {name: kind for name, kind in first
                if kind in _HYPOTHESES and all((name, kind) in ops for ops in rest)}


SPECS: dict[str, CheckSpec] = {}


def _enforce(fn_class: str | None, guards: list, args: list) -> None:
    """Raise unless the checker arguments ``args`` meet its hypotheses: the
    scalar function's class tag, then each (hypothesis, operand positions,
    operand names) of ``guards``, tested on all its operands in one call."""
    if fn_class is not None:
        for fn in args[0]:
            if fn_class not in fn.tags:
                raise ShapeValidationFailed(f"{fn.kind} lacks required class {fn_class}")
    for (test, tol, error, what, _), at, names in guards:
        ok = linalg.joined(getattr(linalg, test), *[args[i] for i in at], tol=tol)
        for name, ok_name in zip(names, _split(ok, len(at))):
            if not ok_name.all():
                raise error(f"{name.upper()} is not {what}")


def _check(check_id: str, fn_class: str | None, operands,
           scalars=lambda rng, n: {}, args_of=None, *, witnesses, mutations=None):
    """Declare the checker below as check ``check_id``, in ``SPECS``, with
    its ``witnesses`` and the ``mutations`` particular to it; each mutation
    that drops a hypothesis the check declares adds its operand swap.

    Every call reaches the checker's body in one form: its parameters named
    as operands (or ``operands``, a list of them) are (T, n, n) stacks of
    one shape, or it raises DimensionMismatch; its scalar function is a
    list of one per matrix, and each other parameter (a scalar: j, k, z,
    m) an array of one value per matrix.  The body returns one result per
    matrix, and a call on single matrices gets its single result back.
    Unless called with ``enforce=False``, it enforces the check's
    hypotheses first.  ``run`` passes the checker f, if it takes one, then
    its operands and scalars by parameter name, or else ``args_of(f,
    matrices, scalars)``."""
    def wrap(body):
        params = [p for p in inspect.signature(body).parameters if p != "tol"]
        takes_fn = fn_class is not None
        by_name = params[takes_fn:]

        def run(f, m, s, **kw):
            if args_of is None:
                named = {**m, **s}
                args = ([f] if takes_fn else []) + [named[p] for p in by_name]
            else:
                args = args_of(f, m, s)
            return globals()[body.__name__](*args, **kw)

        own = functools.partial(replace, check_id=check_id)
        spec = SPECS[check_id] = CheckSpec(check_id, fn_class, operands, run, scalars,
                                           tuple(map(own, witnesses)), {})
        operand_names = {name for ops in spec._lists() for name, _ in ops}
        positions = [i for i, p in enumerate(params)
                     if p in operand_names or p == "operands"]
        per_row = [i for i in range(takes_fn, len(params)) if i not in positions]
        by_kind: dict = {}
        for operand, kind in spec.hypotheses.items():
            by_kind.setdefault(kind, []).append(operand)
        guards = [(_HYPOTHESES[kind], [params.index(p) for p in named], named)
                  for kind, named in by_kind.items()]
        for kind in by_kind:
            if _HYPOTHESES[kind][4]:  # a mutation drops this hypothesis
                name, weaker = _HYPOTHESES[kind][4]
                spec.mutations[name] = Mutation(swap=(kind, weaker))
        for name, m in (mutations or {}).items():
            spec.mutations[name] = replace(spec.mutations.get(name, m), fn=m.fn,
                                           witness=m.witness and own(m.witness))

        @functools.wraps(body)
        def checker(*args, enforce=True, **kwargs):
            args = list(args) + [kwargs.pop(p) for p in params[len(args):] if p in kwargs]
            first = args[positions[0]]
            if isinstance(first, (list, tuple)) and first:
                first = first[0]
            single = np.ndim(first) == 2
            for i in positions:
                x = args[i]
                args[i] = ([_stack(m) for m in x] if isinstance(x, (list, tuple))
                           else _stack(x))
            shapes = {m.shape for i in positions
                      for m in (args[i] if isinstance(args[i], list) else [args[i]])}
            if len(shapes) > 1:
                raise DimensionMismatch(f"operands differ in shape: {sorted(shapes)}")
            t = shapes.pop()[0] if shapes else 0
            if takes_fn and callable(args[0]):
                args[0] = [args[0]] * t
            for i in per_row:
                x = np.ravel(args[i])
                args[i] = np.repeat(x, t) if len(x) == 1 else x
            for i in [0] * takes_fn + per_row:
                if len(args[i]) != t:
                    raise DimensionMismatch(f"{len(args[i])} of {params[i]} for {t} matrices")
            if enforce:
                _enforce(fn_class, guards, args)
            out = body(*args, **kwargs)
            return out[0] if single else out
        return checker
    return wrap


# Operands and scalar functions of the witnesses below
_I2 = np.eye(2, dtype=complex)
_Z2 = np.zeros((2, 2), dtype=complex)
_D10 = np.diag([1.0, 0.0]).astype(complex)
_D01 = np.diag([0.0, 1.0]).astype(complex)
_PSD_A = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
_PSD_B = np.array([[3.0, -1.0], [-1.0, 1.0]], dtype=complex)
_HERM = np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)
_GEN = np.array([[1.0, 2.0 + 1.0j], [0.5j, -1.0]], dtype=complex)
_UNITARY = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
_CONTRACTION = np.diag([0.6, 0.3]).astype(complex)
_ONES = {name: np.ones((1, 1), dtype=complex) for name in "abcd"}
_SQRT = {"kind": "sqrt"}
_IDENTITY = {"kind": "power", "s": 1.0}
_SQUARE = {"kind": "power-m", "m": 2}
_JK0 = {"j": 0, "k": 0}


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


def _spectrum_rows(spec: linalg.Spectrum, rows: slice) -> linalg.Spectrum:
    return linalg.Spectrum(spec.eigenvalues[rows], spec.frame[rows])


def _values_and_apply(f, first, *rest) -> tuple:
    """The singular values of f(first), read from its spectrum as the
    sorted |f(lambda)| (``norms.spectrum_singular_values``), and
    ``spectral_apply`` of f to each stack of ``rest``, all from one eigh
    call; a shared stack's eigh is taken once (``linalg.joined``).  No
    f(first) is built to be decomposed again."""
    spec = linalg.joined(linalg.eigh, first, *rest)
    fw = linalg._apply_rows(f * (1 + len(rest)), linalg._clamp_spectrum(spec.eigenvalues))
    t = len(first)
    return (norms.spectrum_singular_values(fw[:t]),
            _split(linalg.synthesize(spec.frame[t:], fw[t:]), len(rest)))


def _loewner_verdict(check_id: str, lhs, rhs, tol: float) -> list:
    """Verdict for lhs <= rhs in the Loewner order, one per matrix.

    Margin is lambda_min(rhs - lhs) scaled by max(1, ||rhs - lhs||_op),
    recorded as a single comparison row.
    """
    w = linalg.eigvalsh_desc(linalg.hermitian_part(rhs - lhs))
    if not w.shape[-1]:
        w = np.zeros(w.shape[:-1] + (1,))
    return [
        Verdict(check_id=check_id, tol=tol, records=[ComparisonRecord(
            label="loewner", lhs=-low, rhs=0.0,
            margin=low / max(1.0, max(abs(low), abs(top))))])
        for low, top in zip(w[:, -1].tolist(), w[:, 0].tolist())
    ]


@_check("thm1.1", scalarfn.CONCAVE_NONNEG,
        Pick((_ops("psd", ("a0", "a1")), _ops("psd", ("a0", "a1", "a2"))), _coin),
        args_of=lambda f, m, s: (f, [m[k] for k in sorted(m)]),
        witnesses=(Witness("sqrt on complementary projections (equality)", True,
                           {"a0": _D10, "a1": _D01}, _SQRT),
                   Witness("sqrt on A=B=I", False, {"a0": _I2, "a1": _I2}, _SQRT)),
        mutations={"swap-function-class": Mutation(
            fn=lambda rng: dict(_SQUARE),
            witness=Witness("||(2I)^2|| = 4 > ||I^2 + I^2|| = 2", False,
                            {"a0": _I2, "a1": _I2}, _SQUARE))})
def check_thm_1_1(f, operands, tol=DEFAULT_TOL):
    """||f(sum A_i)|| <= ||sum f(A_i)|| for concave f >= 0 and PSD A_i."""
    if len(operands) < 2:
        raise BadSpec("need at least two operands")
    total = operands[0]
    for m in operands[1:]:
        total = linalg.derived(np.add, total, m)
    lhs, parts = _values_and_apply(f, total, *operands)
    return norms.fan_verdict(lhs, norms.singular_values(sum(parts)), tol, "thm1.1")


@_check("thm1.2", scalarfn.CONVEX_VANISHING, _ops("psd"),
        witnesses=(Witness("t^2 on complementary projections (equality)", True,
                           {"a": _D10, "b": _D01}, _SQUARE),
                   Witness("t^2 on A=B=I", False, {"a": _I2, "b": _I2}, _SQUARE)),
        mutations={"drop-vanishing": Mutation(
            fn=lambda rng: {"kind": "power-m-plus", "m": 2,
                            "c": float(rng.uniform(0.5, 2.0))},
            witness=Witness("g = t^2 + 1 at A = B = 0: ||g(0) + g(0)|| = 2 > ||g(0)|| = 1",
                            False, {"a": _Z2, "b": _Z2},
                            {"kind": "power-m-plus", "m": 2, "c": 1.0}))})
def check_thm_1_2(g, a, b, tol=DEFAULT_TOL):
    """||g(A) + g(B)|| <= ||g(A+B)|| for convex g with g(0)=0, A,B PSD."""
    rhs, (ga, gb) = _values_and_apply(g, linalg.derived(np.add, a, b), a, b)
    return norms.fan_verdict(norms.singular_values(ga + gb), rhs, tol, "thm1.2")


@_check("davis-hansen", scalarfn.OPERATOR_CONCAVE, (("a", "psd"), ("z", "contraction")),
        witnesses=(Witness("Z=I (equality)", True, {"a": _PSD_A, "z": _I2}, _SQRT),
                   Witness("f=t with a strict contraction (equality)", True,
                           {"a": _PSD_A, "z": _CONTRACTION}, _IDENTITY)))
def check_davis_hansen(f, a, z, tol=DEFAULT_TOL):
    """Z* f(A) Z <= f(Z* A Z) for operator concave f, f(0) >= 0, ||Z|| <= 1.

    The compression case (Z an orthogonal projection followed by a subspace
    embedding) is the classical inequality for compressions.
    """
    zh = z.conj().swapaxes(-1, -2)
    spec = linalg.joined(linalg.eigh, a, linalg.hermitian_part(zh @ a @ z))
    fa, fz = _split(linalg.apply_spectrum(f * 2, spec), 2)
    return _loewner_verdict("davis-hansen", zh @ fa @ z, fz, tol)


@_check("pinching-eq2", scalarfn.OPERATOR_CONCAVE, _ops("pd"),
        witnesses=(Witness("sqrt on A=B=I", False, {"a": _I2, "b": _I2}, _SQRT),
                   Witness("f=t makes both sides A+B (equality)", True,
                           {"a": _PSD_A, "b": _PSD_B + 2 * _I2}, _IDENTITY)))
def check_pinching_eq2(f, a, b, tol=DEFAULT_TOL):
    """A^(1/2) phi(A+B) A^(1/2) + B^(1/2) phi(A+B) B^(1/2) <= f(A) + f(B)

    with phi(t) = f(t)/t, for operator concave f and A, B > 0.
    """
    t = len(a)
    spec = linalg.joined(linalg.eigh, linalg.derived(np.add, a, b), a, b)
    w = spec.eigenvalues[:t]
    if np.any(w <= 0):
        raise NotPositiveDefinite("A+B is not positive definite")
    # f takes each matrix's own eigenvalue row, laid out as eigh returns it:
    # numpy can round a transcendental function differently by layout
    phi = linalg.synthesize(spec.frame[:t], linalg._apply_rows(f, w) / w)
    parts = _spectrum_rows(spec, slice(t, None))
    ra, rb = _split(linalg.apply_spectrum(np.sqrt, parts), 2)
    fa, fb = _split(linalg.apply_spectrum(f * 2, parts), 2)
    lhs = ra @ phi @ ra + rb @ phi @ rb
    return _loewner_verdict("pinching-eq2", lhs, fa + fb, tol)


@_check("prop2.1", scalarfn.DECREASING_TG_INCREASING,
        Pick((_ops("psd"), _ops("pd")), lambda rng, fn: fn["kind"] == "inv-sqrt"),
        witnesses=(Witness("1/sqrt(t) with A+B=4I (equality)", True,
                           {"a": np.diag([3.0, 1.0]).astype(complex),
                            "b": np.diag([1.0, 3.0]).astype(complex)}, {"kind": "inv-sqrt"}),
                   Witness("constant g makes both sides A+B (equality)", True,
                           {"a": _PSD_A, "b": _PSD_B}, {"kind": "constant", "c": 1.0})))
def check_prop_2_1(g, a, b, tol=DEFAULT_TOL):
    """||(A+B) g(A+B)|| <= ||A^(1/2) g(A+B) A^(1/2) + B^(1/2) g(A+B) B^(1/2)||

    for g decreasing with t*g(t) increasing, A, B >= 0 (A+B > 0 when g is
    singular at 0).
    """
    t = len(a)
    spec = linalg.joined(linalg.eigh, linalg.derived(np.add, a, b), a, b)
    w = np.maximum(spec.eigenvalues[:t], 0.0)
    singular = np.array([fn.singular_at_zero for fn in g])
    if np.any(singular & np.any(w <= 0, axis=-1)):
        raise NotPositiveDefinite("A+B must be positive definite for singular g")
    gw = linalg._apply_rows(g, w)
    g_sum = linalg.synthesize(spec.frame[:t], gw)
    roots = linalg.apply_spectrum(np.sqrt, _spectrum_rows(spec, slice(t, None)))
    ra, rb = _split(roots, 2)
    rhs = ra @ g_sum @ ra + rb @ g_sum @ rb
    # the singular values of (A+B) g(A+B) are its eigenvalues w g(w)
    return norms.fan_verdict(norms.spectrum_singular_values(w * gw),
                             norms.singular_values(rhs), tol, "prop2.1")


@_check("thm2.4", scalarfn.CONCAVE_NONNEG, (("a", "psd"), ("z", "expansive")),
        witnesses=(Witness("Z=sqrt(2) I, A=I, f=sqrt", False,
                           {"a": _I2, "z": np.sqrt(2.0) * _I2}, _SQRT),
                   Witness("Z=I (equality)", True, {"a": _PSD_A, "z": _I2}, _SQRT)),
        mutations={"drop-expansive": Mutation(witness=Witness(
            "sqrt with A = I, Z = I/2: ||(Z*Z)^(1/2)|| = 1/2 > ||Z*Z|| = 1/4", False,
            {"a": _I2, "z": 0.5 * _I2}, _SQRT))})
def check_thm_2_4(f, a, z, tol=DEFAULT_TOL):
    """||f(Z* A Z)|| <= ||Z* f(A) Z|| for concave f >= 0, A >= 0, Z expansive."""
    zh = z.conj().swapaxes(-1, -2)
    lhs, (fa,) = _values_and_apply(f, linalg.hermitian_part(zh @ a @ z), a)
    return norms.fan_verdict(lhs, norms.singular_values(zh @ fa @ z), tol, "thm2.4")


def _eigen_indices(j, k, n: int) -> list:
    """The labels of per-matrix indices j, k; raises unless j, k >= 0 and
    j + k + 1 <= n."""
    bad = (j < 0) | (k < 0) | (j + k + 1 > n)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise IndexOutOfRange(f"need j,k >= 0 and j+k+1 <= n, got {j[i]},{k[i]},{n}")
    return [[f"lambda-j{a}-k{b}"] for a, b in zip(j.tolist(), k.tolist())]


@_check("eigen-sum", scalarfn.CONCAVE_NONNEG,
        Pick((_ops("general"), _ops("psd")), _coin), _draw_jk,
        witnesses=(Witness("f=t, j=k=0 is Weyl subadditivity", False,
                           {"a": _PSD_A, "b": _PSD_B}, _IDENTITY, _JK0),
                   Witness("sqrt on disjoint diagonals, j=k=0", False,
                           {"a": 4 * _D10, "b": 4 * _D01}, _SQRT, _JK0)))
def check_eigen_sum(f, a, b, j, k, tol=DEFAULT_TOL):
    """lambda_{j+k+1}(f(|A+B|)) <= lambda_{j+1}(f(|A|)) + lambda_{k+1}(f(|B|)).

    The eigenvalues of |X| are the singular values of X (Bhatia, Matrix
    Analysis, GTM 169, ch. III), and |X| = X for PSD X, so PSD and general
    operands take one formula: f of the singular values of A+B, A and B,
    from one ``singular_values`` call, sorted descending.
    """
    labels = _eigen_indices(j, k, a.shape[-1])
    s = norms.singular_values(linalg.derived(np.add, a, b), a, b)
    vals = _split(np.sort(linalg._apply_rows(f * 3, s))[..., ::-1], 3)
    rows = np.arange(len(a))
    lhs = vals[0][rows, j + k]
    rhs = vals[1][rows, j] + vals[2][rows, k]
    return norms.compare("eigen-sum", labels, lhs[:, None], rhs[:, None], tol)


def _grid_rhs(s: np.ndarray):
    """Fan grids of a joined (lhs, x, y) stack of singular values, with the
    right-hand side sqrt(grid(x) * grid(y)) of cs-lemma and ineq4."""
    lhs, gx, gy = _split(norms.fan_grid(s), 3)
    return lhs, norms.sqrt_product(gx, gy)


@_check("cs-lemma", None,
        _ops("psd", ("a1", "a2", "b1", "b2")) + _ops("contraction", ("c1", "c2")),
        witnesses=(Witness("single identity term (equality)", True,
                           {"a1": _I2, "a2": _Z2, "b1": _I2, "b2": _Z2, "c1": _I2, "c2": _I2}),
                   Witness("A_i=B_i with identity contractions (equality)", True,
                           {"a1": _PSD_A, "a2": _PSD_B, "b1": _PSD_A, "b2": _PSD_B,
                            "c1": _I2, "c2": _I2})))
def check_cs_lemma(a1, a2, b1, b2, c1, c2, tol=DEFAULT_TOL):
    """||A1 C1 B1 + A2 C2 B2|| <= ||A1^2+A2^2||^(1/2) ||B1^2+B2^2||^(1/2)

    per symmetric norm, for PSD A_i, B_i and contractions C_i.
    """
    lhs, rhs = _grid_rhs(norms.singular_values(np.concatenate(
        (a1 @ c1 @ b1 + a2 @ c2 @ b2, a1 @ a1 + a2 @ a2, b1 @ b1 + b2 @ b2))))
    return norms.compare("cs-lemma", norms.grid_labels(a1.shape[-1]), lhs, rhs, tol)


@_check("ineq4", None, _ops("general"),
        witnesses=(Witness("A=B=I (equality)", True, {"a": _I2, "b": _I2}),
                   Witness("B=-A gives zero LHS", False, {"a": _GEN, "b": -_GEN})))
def check_ineq_4(a, b, tol=DEFAULT_TOL):
    """||A+B|| <= || |A|+|B| ||^(1/2) || |A*|+|B*| ||^(1/2) per symmetric norm."""
    p = linalg.joined(linalg.polar, a, b)
    abs_a, abs_b = _split(p.abs, 2)
    star_a, star_b = _split(p.abs_star, 2)
    lhs, rhs = _grid_rhs(norms.singular_values(
        linalg.derived(np.add, a, b), abs_a + abs_b, star_a + star_b))
    return norms.compare("ineq4", norms.grid_labels(a.shape[-1]), lhs, rhs, tol)


def _block2(a, b, c, d) -> np.ndarray:
    return np.block([[a, b], [c, d]])


def _abs4(a, b, c, d):
    """|A|, |B|, |C|, |D| from one call."""
    return _split(linalg.joined(linalg.matrix_abs, a, b, c, d), 4)


@_check("thm3.1", None, _ops("normal", "abcd"),
        witnesses=(Witness("scalar all-ones blocks", False, _ONES),
                   Witness("B=C=0 reduces to the block-diagonal fact", False,
                           {"a": _PSD_A, "b": _Z2, "c": _Z2, "d": _PSD_B})))
def check_thm_3_1(a, b, c, d, tol=DEFAULT_TOL):
    """|| [[A,B],[C,D]] || <= || |A|+|B|+|C|+|D| || for normal blocks."""
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


@_check("thm3.2", None, _ops("normal", "abcd"),
        witnesses=(Witness("scalar all-ones blocks (equality)", True, _ONES),
                   Witness("B=C=D=0 (equality)", True,
                           {"a": _HERM, "b": _Z2, "c": _Z2, "d": _Z2})))
def check_thm_3_2(a, b, c, d, tol=DEFAULT_TOL):
    """Operator norm of [[A,B],[C,D]] bounded by the max of the four
    row/column absolute-value sums, for normal blocks."""
    lhs = _opnorm(linalg.derived(_block2, a, b, c, d))
    pa, pb, pc, pd_ = _abs4(a, b, c, d)
    # prop3.4 reuses |A| + |B| of shared stacks; on others it is summed here
    ab = linalg.derived(_abs_sum, a, b) if linalg.shared(a, b) else pa + pb
    rhs = _max_opnorm(ab, pc + pd_, pa + pc, pb + pd_)
    return norms.compare("thm3.2", ["operator"], lhs[:, None], rhs[:, None], tol)


@_check("cor3.3", None, _ops("hermitian") + (("x", "general"),),
        witnesses=(Witness("A=B=0 reaches the top singular value (equality)", True,
                           {"a": _Z2, "b": _Z2, "x": _GEN}),
                   Witness("X=0 (equality)", True,
                           {"a": _HERM, "b": _PSD_A - 2 * _I2, "x": _Z2})))
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
    block = np.block([[a, x.conj().swapaxes(-1, -2)], [x, b]])
    px = linalg.joined(linalg.polar, x)  # |X| and |X*| from one SVD
    abs_a, abs_b = _split(linalg.joined(linalg.matrix_abs, a, b), 2)
    lhs = _opnorm(block)
    rhs = _max_opnorm(abs_a + px.abs, abs_b + px.abs_star)
    return norms.compare("cor3.3", ["operator"], lhs[:, None], rhs[:, None], tol)


@_check("prop3.4", None, _ops("normal"),
        witnesses=(Witness("A=I, B=-I gives zero LHS", False, {"a": _I2, "b": -_I2}),
                   Witness("A=B unitary (equality at every Ky Fan k)", True,
                           {"a": _UNITARY, "b": _UNITARY})))
def check_prop_3_4(a, b, tol=DEFAULT_TOL):
    """||A+B|| <= || |A|+|B| || for normal A, B (triangle inequality)."""
    return norms.dominance_verdict(
        a + b, linalg.derived(_abs_sum, a, b), tol=tol, check_id="prop3.4")


@_check("prop3.5", None, _ops("hermitian", "st"), _draw_jk,
        witnesses=(Witness("S=T=diag(1,-1), j=k=0 (equality)", True,
                           {"s": np.diag([1.0, -1.0]).astype(complex),
                            "t": np.diag([1.0, -1.0]).astype(complex)}, scalars=_JK0),
                   Witness("T=0, j=k=0 (equality)", True,
                           {"s": _HERM, "t": _Z2}, scalars=_JK0)))
def check_prop_3_5_eigen(s, t, j, k, tol=DEFAULT_TOL):
    """lambda_{j+k+1}(|S+T|) <= (lambda_{j+1}(M) + lambda_{k+1}(M))/2

    with M = |S|+|T|, for Hermitian S, T (eigenvalue consequence of the
    unitary-mixture triangle inequality).
    """
    s, t = linalg.hermitize(s), linalg.hermitize(t)
    labels = _eigen_indices(j, k, s.shape[-1])
    abs_sum, abs_s, abs_t = _split(linalg.joined(linalg.matrix_abs, s + t, s, t), 3)
    w_sum, w_m = _split(
        linalg.eigvalsh_desc(np.concatenate((abs_sum, abs_s + abs_t))), 2)
    r = np.arange(len(s))
    lhs = w_sum[r, j + k]
    rhs = 0.5 * (w_m[r, j] + w_m[r, k])
    return norms.compare("prop3.5", labels, lhs[:, None], rhs[:, None], tol)


def _powers(m) -> list:
    """The power m of each matrix, as ints >= 1."""
    powers = [int(p) for p in m]
    if min(powers) < 1:
        raise BadSpec(f"power m must be >= 1, got {min(powers)}")
    return powers


@_check("ineq5", None, _ops("psd"), _draw_z_m,
        args_of=lambda f, m, s: (m["a"], m["b"], _complex(s["z_re"], s["z_im"]), s["m"]),
        witnesses=(Witness("real positive z (equality)", True, {"a": _PSD_A, "b": _PSD_B},
                           scalars={"z_re": 0.7, "z_im": 0.0, "m": 2}),
                   Witness("z=-1, m=1 on complementary projections (equality)", True,
                           {"a": _D10, "b": _D01},
                           scalars={"z_re": -1.0, "z_im": 0.0, "m": 1})))
def check_ineq_5(a, b, z, m, tol=DEFAULT_TOL):
    """||(A + zB)^m|| <= ||(A + |z|B)^m|| for PSD A, B and complex z."""
    m = _powers(m)
    # |z| as Python's abs (a libm hypot); numpy's complex abs can round apart
    z = np.asarray(z, dtype=complex).reshape(-1, 1, 1)
    size = np.reshape([abs(v) for v in z.ravel().tolist()], z.shape)
    lhs, rhs = _split(
        linalg.matrix_power(np.concatenate((a + z * b, a + size * b)), m + m), 2)
    return norms.dominance_verdict(lhs, rhs, tol=tol, check_id="ineq5")


@_check("identity6", None, _ops("psd"), lambda rng, n: {"m": int(rng.integers(1, 9))},
        witnesses=(Witness("m=1 is exact", True, {"a": _PSD_A, "b": _PSD_B},
                           scalars={"m": 1}, tol=1e-12),
                   Witness("m=2 expands algebraically", True, {"a": _PSD_A, "b": _PSD_B},
                           scalars={"m": 2}, tol=1e-12)))
def identity_6_verdict(a, b, m, tol: float = 1e-10):
    """The relative residual of A^m + B^m = (1/m) sum_j (A + w^j B)^m,
    w = exp(2*pi*i/m), as a Verdict with one record: the residual as LHS
    and -residual as margin, so it passes iff residual <= tol.  (The
    root-of-unity average kills every mixed word in the expansion; only
    the pure A^m and B^m words survive.)"""
    m = _powers(m)
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
