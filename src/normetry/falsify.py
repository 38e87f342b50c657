"""Random campaigns, hypothesis mutations, and tightness probes.

A campaign draws seeded random instances for one checker and records the
minimum scaled margin plus any violations (with self-contained replay
certificates).  Campaigns run trial-major: the cases of all checkers of
trial i are sampled from one per-trial dict of operands, then run, so an
operand the checkers share is generated once and carries a memo of its
decompositions (``linalg.share``) that dies with it.  Mutations
deliberately break one hypothesis: the must-violate mutations ship with an
analytic witness tried first, while drop-normality is exploratory and only
records what it sees.  A derivative-free hill descent probes how close the
true inequalities come to equality.
"""

from __future__ import annotations

import functools
import numbers
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__, checks, linalg, scalarfn, serialize
from .errors import BadSpec, MalformedCertificate, NormetryError, UnknownCheck
from .norms import DEFAULT_TOL, Verdict
from .rand import GenSpec, derive_stream, generate

TOOL_VERSION = __version__


@dataclass
class Case:
    """One fully materialized checker input, serializable for replay."""

    check_id: str
    n: int
    seed: int | None
    matrices: dict  # name -> ndarray, insertion order = checker argument order
    kinds: dict  # name -> generator kind (projection class for the descent)
    scalars: dict = field(default_factory=dict)  # j, k, m, z_re, z_im
    fn_descriptor: dict | None = None
    mutation: str | None = None

    def fn(self) -> scalarfn.ScalarFn | None:
        if self.fn_descriptor is None:
            return None
        return scalarfn.from_descriptor(self.fn_descriptor)


_EYE2 = np.eye(2, dtype=complex)

# Each mutation breaks one hypothesis of its targets: it draws the scalar
# function from outside its class ("fn"), or generates one operand kind in
# place of another ("swap": (kind, replacement)).  A must-violate mutation
# has an analytic witness: (name, kind, matrix) operands and a function.
MUTATIONS = {
    "swap-function-class": {
        "targets": ("thm1.1",), "expectation": "must-violate",
        "fn": lambda rng: {"kind": "power-m", "m": 2},
        # ||(2I)^2|| = 4 > ||I^2 + I^2|| = 2
        "witness": ((("a0", "psd", _EYE2), ("a1", "psd", _EYE2)),
                    {"kind": "power-m", "m": 2}),
    },
    "drop-vanishing": {
        "targets": ("thm1.2",), "expectation": "must-violate",
        "fn": lambda rng: {
            "kind": "power-m-plus", "m": 2, "c": float(rng.uniform(0.5, 2.0))
        },
        # g = t^2 + 1 at A = B = 0: ||g(0) + g(0)|| = 2 > ||g(0)|| = 1
        "witness": ((("a", "psd", 0 * _EYE2), ("b", "psd", 0 * _EYE2)),
                    {"kind": "power-m-plus", "m": 2, "c": 1.0}),
    },
    "drop-expansive": {
        "targets": ("thm2.4",), "expectation": "must-violate",
        "swap": ("expansive", "contraction"),
        # sqrt with A = I, Z = I/2: ||(Z*Z)^(1/2)|| = 1/2 > ||Z*Z|| = 1/4
        "witness": ((("a", "psd", _EYE2), ("z", "contraction", 0.5 * _EYE2)),
                    {"kind": "sqrt"}),
    },
    "drop-normality": {
        "targets": ("thm3.1", "thm3.2", "prop3.4"), "expectation": "exploratory",
        "swap": ("normal", "general"),
    },
}

# Scalar-function draws per class tag: one option is picked uniformly from
# the case's rng, then draws its own parameters.
FN_DRAWS = {
    scalarfn.CONCAVE_NONNEG: (
        lambda rng: {"kind": "sqrt"},
        lambda rng: {"kind": "power", "s": float(rng.uniform(0.2, 1.0))},
        lambda rng: {"kind": "log1p"},
        lambda rng: {
            "kind": "affine-plus",
            "lam": float(rng.uniform(0.0, 2.0)),
            "c": float(rng.uniform(0.0, 1.0)),
        },
    ),
    scalarfn.CONVEX_VANISHING: (
        lambda rng: {"kind": "power-m", "m": int(rng.integers(2, 5))},
        lambda rng: {"kind": "angle", "a": float(rng.uniform(0.2, 2.0))},
        lambda rng: {
            "kind": "smoothed",
            "a": float(rng.uniform(0.2, 2.0)),
            "r": float(10.0 ** rng.uniform(-6.0, 0.0)),
        },
    ),
    scalarfn.OPERATOR_CONCAVE: (
        lambda rng: {"kind": "sqrt"},
        lambda rng: {"kind": "power", "s": float(rng.uniform(0.2, 1.0))},
        lambda rng: {"kind": "log1p"},
        lambda rng: {"kind": "ratio-shift", "c": float(rng.uniform(0.1, 3.0))},
    ),
    scalarfn.DECREASING_TG_INCREASING: (
        lambda rng: {"kind": "inv-sqrt"},
        lambda rng: {"kind": "constant", "c": float(rng.uniform(0.1, 2.0))},
        lambda rng: {"kind": "log1p-over-t"},
    ),
}


def mutation_expectation(mutation: str | None) -> str:
    if mutation is None:
        return "none"
    try:
        return MUTATIONS[mutation]["expectation"]
    except KeyError as exc:
        raise BadSpec(f"unknown mutation {mutation!r}") from exc


def _gen(kind: str, n: int, seed: int, slot: int, shared: dict | None) -> np.ndarray:
    """Operand ``slot`` of ``kind`` for the trial seeded ``seed``.  With
    ``shared`` (that trial's operands, keyed by (kind, slot)) it is
    generated once per trial and shared read-only."""
    if shared is not None and (kind, slot) in shared:
        return shared[kind, slot]
    m = generate(GenSpec(kind=kind, n=n, seed=derive_stream(seed, slot)))
    if shared is not None:
        shared[kind, slot] = linalg.share(m)
    return m


def _spec(check_id: str, mutation: str | None = None) -> checks.CheckSpec:
    """The spec of ``check_id``; raises if the check or the mutation is
    unknown, or if the mutation does not apply to the check."""
    if check_id not in checks.SPECS:
        raise UnknownCheck(check_id)
    if mutation_expectation(mutation) != "none":
        if check_id not in MUTATIONS[mutation]["targets"]:
            raise BadSpec(f"mutation {mutation!r} does not apply to {check_id}")
    return checks.SPECS[check_id]


@functools.lru_cache(maxsize=1)
def _seed_sequence(seed: int) -> np.random.SeedSequence:
    """The trial seed's SeedSequence, built once for all of the trial's
    checkers.  ``Generator(PCG64(ss))`` draws the same stream as
    ``default_rng(seed)`` without rebuilding ``ss``."""
    return np.random.SeedSequence(seed & (2**64 - 1))


def sample_case(
    check_id: str, n: int, seed: int, mutation: str | None = None,
    shared: dict | None = None,
) -> Case:
    """Draw one seeded random instance for a checker, honoring a mutation.

    ``shared`` holds the operands already drawn for the same ``n`` and
    ``seed`` (see ``_gen``); without it every operand is fresh and writable.
    """
    spec = _spec(check_id, mutation)
    change = MUTATIONS.get(mutation, {})
    rng = np.random.Generator(np.random.PCG64(_seed_sequence(seed)))
    fn_desc = None
    if "fn" in change:
        fn_desc = change["fn"](rng)
    elif spec.fn_class is not None:
        draws = FN_DRAWS[spec.fn_class]
        fn_desc = draws[int(rng.integers(len(draws)))](rng)
    operands = spec.operands(rng, fn_desc) if callable(spec.operands) else spec.operands
    old, new = change.get("swap", (None, None))
    mats, kinds = {}, {}
    for slot, (name, kind) in enumerate(operands):
        kinds[name] = new if kind == old else kind
        mats[name] = _gen(kinds[name], n, seed, slot, shared)
    return Case(
        check_id=check_id,
        n=n,
        seed=seed,
        matrices=mats,
        kinds=kinds,
        scalars=spec.scalars(rng, n),
        fn_descriptor=fn_desc,
        mutation=mutation,
    )


def analytic_witness(check_id: str, mutation: str) -> Case:
    """Known closed-form violation for each must-violate mutation."""
    witness = MUTATIONS.get(mutation, {}).get("witness")
    if witness is None or check_id not in MUTATIONS[mutation]["targets"]:
        raise BadSpec(f"no analytic witness for {check_id} + {mutation}")
    operands, fn = witness
    return Case(
        check_id, 2, None,
        {name: m.copy() for name, _, m in operands},
        {name: kind for name, kind, _ in operands},
        fn_descriptor=dict(fn),
        mutation=mutation,
    )


def run_case(case: Case, tol: float = DEFAULT_TOL, fn=None) -> Verdict:
    """Run a checker on a materialized case and stamp its fingerprint.

    ``fn`` is the case's scalar function when the caller has already built
    it from ``case.fn_descriptor``.
    """
    if fn is None:
        fn = case.fn()
    v = _spec(case.check_id).run(
        fn, case.matrices, case.scalars, tol=tol, enforce=case.mutation is None
    )
    v.fingerprint = serialize.fingerprint(_case_fields(case), case.matrices)
    return v


def _case_fields(case: Case) -> dict:
    """Every field of a case except its matrices."""
    return {
        "check_id": case.check_id,
        "n": case.n,
        "seed": case.seed,
        "kinds": dict(case.kinds),
        "scalars": dict(case.scalars),
        "fn": case.fn_descriptor,
        "mutation": case.mutation,
    }


def case_to_dict(case: Case) -> dict:
    d = _case_fields(case)
    d["matrices"] = {k: serialize.mat_to_json(v) for k, v in case.matrices.items()}
    return d


def case_from_dict(d: dict) -> Case:
    return Case(
        check_id=d["check_id"],
        n=int(d["n"]),
        seed=d.get("seed"),
        matrices={k: serialize.mat_from_json(v) for k, v in d["matrices"].items()},
        kinds=dict(d.get("kinds", {})),
        scalars=dict(d.get("scalars", {})),
        fn_descriptor=d.get("fn"),
        mutation=d.get("mutation"),
    )


def make_certificate(case: Case, verdict: Verdict) -> dict:
    return {
        "tool_version": TOOL_VERSION,
        "case": case_to_dict(case),
        "margin": verdict.min_margin,
        "passed": verdict.passed,
        "tol": verdict.tol,
        "fingerprint": verdict.fingerprint,
    }


def _types(scalars: dict) -> dict:
    return {name: type(value).__name__ for name, value in scalars.items()}


def replay_certificate(cert: dict) -> Verdict:
    """Rerun a certificate's case.  A certificate that lacks a field, holds
    one of the wrong type or an unknown check, mutation or scalar function,
    holds a matrix whose size is not its case's n >= 1, lacks a matrix its
    checker needs, or holds scalars whose names and types differ from its
    checker's own draw, raises MalformedCertificate."""
    try:
        case = case_from_dict(cert["case"])
        tol = float(cert.get("tol", DEFAULT_TOL))
        spec = _spec(case.check_id, case.mutation)
        if not isinstance(case.fn_descriptor, (dict, type(None))):
            raise TypeError(f"'fn' must be an object, got {case.fn_descriptor!r}")
        fn = case.fn()
        if case.n < 1 or any(m.shape[0] != case.n for m in case.matrices.values()):
            sizes = {k: m.shape[0] for k, m in case.matrices.items()}
            raise ValueError(f"matrix sizes {sizes} do not match n={case.n}")
        drawn = spec.scalars(np.random.default_rng(0), case.n)
        if _types(case.scalars) != _types(drawn):
            raise TypeError(f"scalars {case.scalars} do not match {_types(drawn)}")
    except (KeyError, TypeError, ValueError, AttributeError, NormetryError) as exc:
        raise MalformedCertificate(f"{type(exc).__name__}: {exc}") from exc
    if fn is None and spec.fn_class is not None:
        raise MalformedCertificate(f"{case.check_id} case lacks its scalar 'fn'")
    try:
        return run_case(case, tol=tol, fn=fn)
    except KeyError as exc:
        raise MalformedCertificate(f"{case.check_id} case lacks {exc}") from exc


@dataclass
class CampaignReport:
    check_id: str
    mutation: str | None
    expectation: str
    trials: int
    violations: list  # certificates
    min_margin: float
    wall_time: float
    verdicts: list = field(default_factory=list)  # serialized verdict rows


def verdict_row(verdict: Verdict) -> dict:
    return {
        "check": verdict.check_id,
        "fingerprint": verdict.fingerprint,
        "pass": verdict.passed,
        "records": [
            {"spec": r.label, "lhs": r.lhs, "rhs": r.rhs, "margin": r.margin}
            for r in verdict.records
        ],
    }


def run_campaign(
    check_id: str,
    mutation: str | None = None,
    trials: int = 100,
    dims=(1, 2, 3, 4, 5, 6),
    root_seed: int = 0,
    tol: float = DEFAULT_TOL,
    keep_verdicts: bool = False,
) -> CampaignReport:
    """Run seeded trials for one checker; collect margins and violations."""
    return run_campaigns(
        [check_id], mutation, trials, dims, root_seed, tol, keep_verdicts
    )[0]


def _named(exc: NormetryError, cid: str, i: int, n: int, seed) -> NormetryError:
    """The same error, its message prefixed with the case that raised it."""
    return type(exc)(f"{cid} trial {i} (n={n}, seed={seed}): {exc}")


def run_campaigns(
    check_ids,
    mutation: str | None = None,
    trials: int = 100,
    dims=(1, 2, 3, 4, 5, 6),
    root_seed: int = 0,
    tol: float = DEFAULT_TOL,
    keep_verdicts: bool = False,
) -> list[CampaignReport]:
    """Run seeded trials for several checkers; one report per check id.

    Trial-major: trial i samples every checker's case from the same trial
    seed and one dict of shared operands, then runs them in CHECK_IDS order,
    so the operands they share are generated and decomposed once.  Reports and
    verdict rows are the same as one checker at a time would give.  A
    NormetryError raised by a trial is re-raised with the check id, trial
    index, n and trial seed at the start of its message.  Each distinct
    scalar-function descriptor is built once per call.
    """
    check_ids = list(check_ids)
    for cid in check_ids:
        _spec(cid, mutation)
    expectation = mutation_expectation(mutation)
    if not isinstance(trials, numbers.Integral) or trials < 1:
        raise BadSpec(f"trials must be an integer >= 1, got {trials!r}")
    dims = [int(d) for d in dims]
    if not dims:
        raise BadSpec("dims must not be empty")
    order = sorted(set(check_ids), key=checks.CHECK_IDS.index)
    wall = dict.fromkeys(order, 0.0)
    min_margin = dict.fromkeys(order, float("inf"))
    violations: dict = {cid: [] for cid in order}
    rows: dict = {cid: [] for cid in order}
    fns: dict = {}  # canonical descriptor JSON -> ScalarFn (or None), this call only
    clock = time.perf_counter
    for i in range(trials):
        n, seed = dims[i % len(dims)], derive_stream(root_seed, i)
        shared: dict = {}
        pending = []
        for cid in order:
            start = clock()
            try:
                if i == 0 and expectation == "must-violate":
                    case = analytic_witness(cid, mutation)
                else:
                    case = sample_case(cid, n, seed, mutation, shared)
            except NormetryError as exc:
                raise _named(exc, cid, i, n, seed) from exc
            pending.append(case)
            wall[cid] += clock() - start
        # from here on only the cases hold the operands; each case is popped,
        # so an operand and its memo go once the last case holding it has run
        del shared
        pending.reverse()
        while pending:
            case = pending.pop()
            cid = case.check_id
            start = clock()
            try:
                key = serialize.canonical_dumps(case.fn_descriptor)
                if key not in fns:
                    fns[key] = case.fn()
                verdict = run_case(case, tol=tol, fn=fns[key])
            except NormetryError as exc:
                raise _named(exc, cid, i, case.n, case.seed) from exc
            margin = verdict.min_margin
            if margin != margin or margin < min_margin[cid]:  # a NaN sticks
                min_margin[cid] = margin
            if not verdict.passed:
                violations[cid].append(make_certificate(case, verdict))
            if keep_verdicts:
                rows[cid].append(verdict_row(verdict))
            wall[cid] += clock() - start
        del case
    return [
        CampaignReport(
            check_id=cid,
            mutation=mutation,
            expectation=expectation,
            trials=trials,
            violations=violations[cid],
            min_margin=min_margin[cid],
            wall_time=wall[cid],
            verdicts=rows[cid],
        )
        for cid in check_ids
    ]


def _project(m: np.ndarray, kind: str) -> np.ndarray:
    """Project a perturbed matrix back onto its hypothesis class."""
    if kind == "general":
        return m
    if kind == "hermitian":
        return linalg.hermitian_part(m)
    if kind in ("psd", "pd"):
        spec = linalg.eigh(linalg.hermitian_part(m))
        floor = 0.05 if kind == "pd" else 0.0
        return linalg.synthesize(spec.frame, np.maximum(spec.eigenvalues, floor))
    if kind == "unitary":
        return linalg.polar(m).u
    if kind == "contraction":
        top = linalg.opnorm(m)
        return m / top if top > 1.0 else m
    if kind == "expansive":
        parts = linalg.polar(m)
        spec = linalg.eigh(parts.abs)
        w = np.maximum(spec.eigenvalues, 1.0)
        return parts.u @ linalg.synthesize(spec.frame, w)
    if kind == "normal":
        # polar unitary, eigen-aligned with |M|: keep |M|'s eigenframe and
        # attach the unitary's diagonal phases in that frame
        parts = linalg.polar(m)
        spec = linalg.eigh(parts.abs)
        v = spec.frame
        diag = np.diag(v.conj().T @ parts.u @ v)
        phases = diag / np.where(np.abs(diag) == 0, 1.0, np.abs(diag))
        phases = np.where(np.abs(diag) == 0, 1.0, phases)
        return (v * (phases * spec.eigenvalues)) @ v.conj().T
    raise BadSpec(f"no projection for kind {kind!r}")


def minimize_margin(
    case: Case,
    steps: int = 200,
    step_scale: float = 0.1,
    root_seed: int = 0,
    tol: float = DEFAULT_TOL,
):
    """Derivative-free hill descent on the scaled margin.

    Each step perturbs one operand and projects back onto its hypothesis
    class, so the search never leaves the theorem's domain.  Monotone by
    construction; the step anneals x0.9 after every 50 non-improving steps.
    Returns (best_case, best_margin).
    """
    rng = np.random.default_rng(np.uint64(root_seed & (2**64 - 1)))
    best = replace(case, matrices=dict(case.matrices))
    best_margin = run_case(best, tol=tol).min_margin
    names = list(best.matrices)
    scale = step_scale
    stale = 0
    for _ in range(int(steps)):
        name = names[int(rng.integers(len(names)))]
        m = best.matrices[name]
        amp = scale * max(1.0, linalg.opnorm(m))
        delta = amp * (
            rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
        )
        candidate = dict(best.matrices)
        candidate[name] = _project(m + delta, best.kinds[name])
        trial = replace(best, matrices=candidate)
        margin = run_case(trial, tol=tol).min_margin
        if margin < best_margin:
            best, best_margin = trial, margin
            stale = 0
        else:
            stale += 1
            if stale % 50 == 0:
                scale *= 0.9
    return best, best_margin

