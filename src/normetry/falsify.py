"""Random campaigns, hypothesis mutations, and tightness probes.

A campaign draws seeded random instances for one checker and records the
minimum scaled margin plus any violations (with self-contained replay
certificates).  Campaigns sample trial-major: the cases of all checkers
of trial i are drawn from one per-trial dict of operands, so an operand the
checkers share is generated once.  The sampled cases then run in stacks:
each checker's cases of one n and one operand list go through the checker
in one (T, n, n) call.  Mutations
deliberately break one hypothesis: the must-violate mutations ship with an
analytic witness tried first, while drop-normality is exploratory and only
records what it sees.  A derivative-free hill descent probes how close the
true inequalities come to equality.
"""

from __future__ import annotations

import functools
import numbers
import time
from collections import Counter
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
        m.flags.writeable = False
        shared[kind, slot] = m
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


def run_case(case: Case, tol: float = DEFAULT_TOL, fn=None,
             verdict: Verdict | None = None) -> Verdict:
    """Run a checker on a materialized case and stamp its fingerprint.

    ``fn`` is the case's scalar function when the caller has already built
    it from ``case.fn_descriptor``.  ``verdict`` is the case's verdict when
    a stacked checker call (``run_stack``) has already run it; it is then
    only stamped.
    """
    if verdict is None:
        if fn is None:
            fn = case.fn()
        verdict = _spec(case.check_id).run(
            fn, case.matrices, case.scalars, tol=tol, enforce=case.mutation is None
        )
    verdict.fingerprint = serialize.fingerprint(_case_fields(case), case.matrices)
    return verdict


def run_stack(cases: list, tol: float = DEFAULT_TOL, stacks: dict | None = None,
              ) -> list[Verdict]:
    """``run_case`` of each case, in one stacked checker call.

    The cases share a checker, a mutation, n and their operand names; each
    operand, scalar and scalar function becomes one row per case.  Each
    operand stack is marked by ``linalg.share`` (one case's operand is
    stacked as a view).  ``stacks`` keeps the stacks built for other cases,
    by ``_stack_key``, so checkers that take the same operands take one
    stack and decompose it once; the caller keeps those matrices alive
    while it keeps their stacks.
    """
    first = cases[0]
    stacks = {} if stacks is None else stacks
    mats = {}
    for name in first.matrices:
        key = _stack_key(cases, name)
        if key not in stacks:
            parts = [case.matrices[name] for case in cases]
            stacks[key] = linalg.share(parts[0][None] if len(parts) == 1
                                       else np.stack(parts))
        mats[name] = stacks[key]
    verdicts = _spec(first.check_id).run(
        None if first.fn_descriptor is None else [case.fn() for case in cases],
        mats,
        {key: np.array([c.scalars[key] for c in cases]) for key in first.scalars},
        tol=tol, enforce=first.mutation is None,
    )
    return [run_case(case, verdict=v) for case, v in zip(cases, verdicts)]


def _stack_key(cases: list, name: str) -> tuple:
    """Which matrices the stack of operand ``name`` of ``cases`` holds."""
    return tuple(id(case.matrices[name]) for case in cases)


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


# Operand bytes sampled before the pending cases run: this bounds a
# campaign's memory at any --trials, and holds many trials per stack at
# small n.
STACK_BYTES = 1 << 22


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

    Trial i samples every checker's case from the same trial seed and one
    dict of shared operands, so the operands checkers share are generated
    once.  Sampled cases wait until their operands reach ``STACK_BYTES``;
    then each checker's waiting cases of one n and one operand list run as
    one stack (``run_stack``).  Reports and verdict rows are the same as one
    checker and one case at a time would give.  A NormetryError raised by a
    trial is re-raised with the check id, trial index, n and trial seed at
    the start of its message: the campaign is rerun one case at a time, in
    trial order, so the error is the one the first failing case raises.
    """
    check_ids = list(check_ids)
    for cid in check_ids:
        _spec(cid, mutation)
    expectation = mutation_expectation(mutation)
    if not isinstance(trials, numbers.Integral) or trials < 1:
        raise BadSpec(f"trials must be an integer >= 1, got {trials!r}")
    dims = list(dims)
    if not dims or any(
        isinstance(d, bool) or not isinstance(d, numbers.Integral) or d < 1
        for d in dims
    ):
        raise BadSpec(f"dims must be a non-empty list of integers >= 1, got {dims!r}")
    dims = [int(d) for d in dims]
    order = sorted(set(check_ids), key=checks.CHECK_IDS.index)
    args = (order, mutation, trials, dims, root_seed, tol, keep_verdicts)
    try:
        reports = _campaigns(*args, STACK_BYTES)
    except NormetryError:
        reports = _campaigns(*args, 0)
    return [
        CampaignReport(check_id=cid, mutation=mutation, expectation=expectation,
                       trials=trials, **reports[cid])
        for cid in check_ids
    ]


def _campaigns(order, mutation, trials, dims, root_seed, tol, keep_verdicts,
               stack_bytes: int) -> dict:
    """The report fields of each checker in ``order``, running the pending
    cases whenever their operands reach ``stack_bytes``, or would with the
    next trial; at 0, every case runs alone, in trial order, and a failing
    case names itself."""
    fields = {cid: {"violations": [], "min_margin": float("inf"), "wall_time": 0.0,
                    "verdicts": []} for cid in order}
    witness = mutation_expectation(mutation) == "must-violate"
    clock = time.perf_counter
    pending: dict = {}  # (check id, n, operand kinds) -> [(trial, case)]
    held = 0
    per_entry = 0.0  # operand bytes of the last trial per entry of one matrix
    for i in range(trials):
        n, seed = dims[i % len(dims)], derive_stream(root_seed, i)
        if pending and held + per_entry * n * n > stack_bytes:
            _run_pending(pending, tol, keep_verdicts, fields)
            pending, held = {}, 0
        shared: dict = {}
        for cid in order:
            start = clock()
            try:
                if i == 0 and witness:
                    case = analytic_witness(cid, mutation)
                else:
                    case = sample_case(cid, n, seed, mutation, shared)
            except NormetryError as exc:
                raise _named(exc, cid, i, n, seed) from exc
            key = (cid, case.n, tuple(case.kinds.items()))
            pending.setdefault(key, []).append((i, case))
            fields[cid]["wall_time"] += clock() - start
        trial_bytes = sum(m.nbytes for m in shared.values())
        held += trial_bytes
        per_entry = trial_bytes / (n * n)
        del case, shared  # only the pending cases hold the operands now
        if held >= stack_bytes or i == trials - 1:
            _run_pending(pending, tol, keep_verdicts, fields)
            pending, held = {}, 0
    return fields


def _run_pending(pending: dict, tol: float, keep_verdicts: bool, fields: dict) -> None:
    """Run each stack of pending cases, then book their verdicts in trial
    order.  Each stack's cases, and each operand stack once no other
    pending stack takes it, are dropped as soon as they have run."""
    clock = time.perf_counter
    done: dict = {}  # check id -> [(trial, verdict, certificate or None)]
    stacks: dict = {}  # operand stacks, shared by the checkers that take them
    keys = {}  # the operand stacks of each group
    for group, stack in pending.items():
        cases = [case for _, case in stack]
        keys[group] = [_stack_key(cases, name) for name in cases[0].matrices]
    users = Counter(key for group in keys.values() for key in group)
    while pending:
        group = next(iter(pending))  # in the order of their first cases
        stack = pending.pop(group)
        cid = group[0]
        start = clock()
        try:
            verdicts = run_stack([case for _, case in stack], tol=tol, stacks=stacks)
        except NormetryError as exc:
            if len(stack) > 1:  # the campaign reruns one case at a time
                raise
            [(i, case)] = stack
            raise _named(exc, cid, i, case.n, case.seed) from exc
        for key in keys.pop(group):
            users[key] -= 1
            if not users[key]:
                del stacks[key]
        done.setdefault(cid, []).extend(
            (i, v, None if v.passed else make_certificate(case, v))
            for (i, case), v in zip(stack, verdicts))
        fields[cid]["wall_time"] += clock() - start
    for cid, results in done.items():
        out = fields[cid]
        results.sort(key=lambda r: r[0])
        for _, verdict, certificate in results:
            margin = verdict.min_margin
            if margin != margin or margin < out["min_margin"]:  # a NaN sticks
                out["min_margin"] = margin
            if certificate is not None:
                out["violations"].append(certificate)
            if keep_verdicts:
                out["verdicts"].append(verdict_row(verdict))


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

