"""Random campaigns, hypothesis mutations, and tightness probes.

A campaign draws seeded random instances for one checker and records the
minimum scaled margin plus any violations (with self-contained replay
certificates).  Campaigns sample trial-major: the cases of all checkers
of trial i are drawn from one per-trial dict of operands, so an operand the
checkers share is recorded once.  When the sampled cases run, their
operands are generated first, one (kind, n) stack at a time; then each
checker's cases of one n and one operand list go through the checker in
one (T, n, n) call.  Mutations
deliberately break one hypothesis: the must-violate mutations ship with an
analytic witness tried first, while drop-normality is exploratory and only
records what it sees.  A derivative-free hill descent probes how close the
true inequalities come to equality.
"""

from __future__ import annotations

import functools
import itertools
import numbers
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import __version__, checks, linalg, scalarfn, serialize
from .errors import BadSpec, MalformedCertificate, NormetryError, UnknownCheck
from .norms import DEFAULT_TOL, Verdict
from .rand import (
    GenSpec, _seed_words, default_rngs, derive_stream, generate, generate_stack,
    rng_from_words,
)

TOOL_VERSION = __version__


@dataclass
class Case:
    """One fully materialized checker input, serializable for replay."""

    check_id: str
    n: int
    seed: int | None
    matrices: dict  # name -> ndarray, insertion order = checker argument order
    # (a campaign's cases hold GenSpecs until _generate_recorded runs)
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


def _gen(kind: str, n: int, seed: int, slot: int, shared: dict | None):
    """Operand ``slot`` of ``kind`` for the trial seeded ``seed``.  With
    ``shared`` (that trial's operands, keyed by (kind, slot)) it is not
    generated but recorded, as its GenSpec, once per trial;
    ``_generate_recorded`` generates it later."""
    if shared is None:
        return generate(GenSpec(kind=kind, n=n, seed=derive_stream(seed, slot)))
    spec = shared.get((kind, slot))
    if spec is None:
        spec = shared[kind, slot] = GenSpec(kind=kind, n=n, seed=derive_stream(seed, slot))
    return spec


def _spec(check_id: str, mutation: str | None = None) -> checks.CheckSpec:
    """The spec of ``check_id``; raises if the check or the mutation is
    unknown, or if the mutation does not apply to the check."""
    if check_id not in checks.SPECS:
        raise UnknownCheck(check_id)
    if mutation_expectation(mutation) != "none":
        if check_id not in MUTATIONS[mutation]["targets"]:
            raise BadSpec(f"mutation {mutation!r} does not apply to {check_id}")
    return checks.SPECS[check_id]


def case_rng(seed: int, words: np.ndarray | None = None) -> np.random.Generator:
    """The generator a case of ``seed`` draws from, with the state of
    ``default_rng(np.uint64(seed))``; ``words`` is the seed's
    ``_seed_words`` row when the caller has taken it (a campaign takes
    them for a block of trials in one pass)."""
    if words is None:
        words = _seed_words([seed & (2**64 - 1)])[0]
    return rng_from_words(words)


def sample_case(
    check_id: str, n: int, seed: int, mutation: str | None = None,
    shared: dict | None = None, words: np.ndarray | None = None,
) -> Case:
    """Draw one seeded random instance for a checker, honoring a mutation.

    ``shared`` holds the operands already recorded for the same ``n`` and
    ``seed``: with it the case's matrices are GenSpecs until
    ``_generate_recorded`` puts the generated operands in their place (see
    ``_gen``); without it every operand is generated at once, fresh and
    writable.  ``words`` are the seed's words for ``case_rng``, if taken.
    """
    spec = _spec(check_id, mutation)
    change = MUTATIONS.get(mutation, {})
    rng = case_rng(seed, words)
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
             verdict: Verdict | None = None, stamp: bool = True) -> Verdict:
    """Run a checker on a materialized case and, with ``stamp``, stamp its
    fingerprint.

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
    if stamp:
        verdict.fingerprint = fingerprint(case)
    return verdict


def fingerprint(case: Case) -> str:
    """The fingerprint of a case's inputs, as a certificate stores it."""
    return serialize.fingerprint(_case_fields(case), case.matrices)


def run_stack(cases: list, tol: float = DEFAULT_TOL, stacks: dict | None = None,
              stamp: bool = True, extra=()) -> list[Verdict]:
    """``run_case`` of each case, in one stacked checker call.

    The cases share a checker, a mutation, n and their operand names; each
    operand, scalar and scalar function becomes one row per case.  Each
    operand stack is marked by ``linalg.share`` (one case's operand is
    stacked as a view).  ``stacks`` keeps the stacks built for other cases,
    by ``_stack_key``, so checkers that take the same operands take one
    stack and decompose it once; the caller keeps those matrices alive
    while it keeps their stacks.

    ``extra`` cases (a flush's fixed cases) share all of that too and join
    the call after ``cases``, which may then be empty.  Their verdicts
    follow those of ``cases``, unstamped, and make no ``run_case`` call, so
    the benchmark's tracer, which counts trials by those calls, counts
    only the trials.
    """
    rows = [*cases, *extra]
    first = rows[0]
    stacks = {} if stacks is None else stacks
    mats = {}
    for name in first.matrices:
        key = _stack_key(rows, name)
        if key not in stacks:
            parts = [case.matrices[name] for case in rows]
            stacks[key] = linalg.share(parts[0][None] if len(parts) == 1
                                       else np.stack(parts))
        mats[name] = stacks[key]
    verdicts = _spec(first.check_id).run(
        None if first.fn_descriptor is None else [case.fn() for case in rows],
        mats,
        {key: np.array([c.scalars[key] for c in rows]) for key in first.scalars},
        tol=tol, enforce=first.mutation is None,
    )
    return [run_case(case, verdict=v, stamp=stamp)
            for case, v in zip(cases, verdicts)] + verdicts[len(cases):]


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
    """The certificate of a case and its verdict; an unstamped verdict's
    fingerprint is taken from the case here."""
    return {
        "tool_version": TOOL_VERSION,
        "case": case_to_dict(case),
        "margin": verdict.min_margin,
        "passed": verdict.passed,
        "tol": verdict.tol,
        "fingerprint": verdict.fingerprint or fingerprint(case),
    }


def _types(scalars: dict) -> dict:
    return {name: type(value).__name__ for name, value in scalars.items()}


@functools.lru_cache(maxsize=None)
def _scalar_types(check_id: str) -> dict:
    """The names and types of the scalars ``check_id`` draws, at any n >= 1;
    drawn once per process (the 16 check ids bound the cache)."""
    return _types(checks.SPECS[check_id].scalars(np.random.default_rng(0), 1))


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
        expected = _scalar_types(case.check_id)
        if _types(case.scalars) != expected:
            raise TypeError(f"scalars {case.scalars} do not match {expected}")
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


def _trial_label(cid: str, i: int, n: int, seed) -> str:
    return f"{cid} trial {i} (n={n}, seed={seed})"


def _named(exc: NormetryError, label: str) -> NormetryError:
    """The same error, its message prefixed with the case that raised it."""
    return type(exc)(f"{label}: {exc}")


# Operand bytes sampled before the pending cases run: this bounds a
# campaign's memory at any --trials, and holds many trials per stack at
# small n.
STACK_BYTES = 1 << 22
_ITEMSIZE = np.dtype(complex).itemsize
# Trial seeds whose generator seed words a campaign takes in one pass.
WORDS_BLOCK = 1024
# Root seeds are the integers in [0, ROOT_SEEDS): ``derive_stream`` packs
# one as a signed 64-bit integer and keeps its low 63 bits.
ROOT_SEEDS = 2**63


class FixedCase(NamedTuple):
    """A case of fixed operands, such as a witness, that runs in a
    campaign's first flush: ``label`` names it in an error, and its verdict
    takes ``tol``."""

    label: str
    case: Case
    tol: float


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
    dict of shared operands, so the operands checkers share are recorded,
    and later generated, once.  Sampled cases wait until their operands
    would reach ``STACK_BYTES``; then their operands are generated, one
    stack per (kind, n), and each checker's waiting cases of one n and one
    list of operand names run as one stack (``run_stack``), whatever kinds
    the operands were drawn from.  Reports and verdict rows are the same as
    one checker and one case at a time would give.  A case's fingerprint is
    taken only where it is written: in a violation's certificate, and in
    its verdict row with ``keep_verdicts``.  A NormetryError raised by a
    trial, in generating or in running it, is re-raised with the check id,
    trial index, n and trial seed at the start of its message: the campaign
    is rerun one case at a time, in trial order, so the error is the one
    the first failing case raises.  ``root_seed`` must be in [0, 2**63):
    trial seeds keep only its low 63 bits.
    """
    return run_with_fixed((), check_ids, mutation, trials, dims, root_seed, tol,
                          keep_verdicts)[0]


def run_with_fixed(
    fixed,
    check_ids=(),
    mutation: str | None = None,
    trials: int = 100,
    dims=(1, 2, 3, 4, 5, 6),
    root_seed: int = 0,
    tol: float = DEFAULT_TOL,
    keep_verdicts: bool = False,
) -> tuple[list[CampaignReport], list[Verdict]]:
    """``run_campaigns`` of ``check_ids`` (none: no campaign), with the
    ``fixed`` cases (FixedCase) run in its first flush; returns the reports
    and each fixed case's verdict.

    A fixed case joins the stack of the campaign cases of its group
    (``_group``), or else a stack of its group's fixed cases alone.  A
    checker's ``tol`` only labels its verdicts, so a fixed case's verdict,
    given its own tol, has the bits of its own call.  It is booked to no
    campaign and makes no ``run_case`` call.  After a failing flush the
    fixed cases rerun one at a time before any trial, so the first failing
    one raises, with its label at the start of its message.
    """
    check_ids = list(check_ids)
    for cid in check_ids:
        _spec(cid, mutation)
    expectation = mutation_expectation(mutation)
    if check_ids and (not isinstance(trials, numbers.Integral) or trials < 1):
        raise BadSpec(f"trials must be an integer >= 1, got {trials!r}")
    dims = list(dims)
    if check_ids and (not dims or any(
        isinstance(d, bool) or not isinstance(d, numbers.Integral) or d < 1
        for d in dims
    )):
        raise BadSpec(f"dims must be a non-empty list of integers >= 1, got {dims!r}")
    if not isinstance(root_seed, numbers.Integral) or not 0 <= root_seed < ROOT_SEEDS:
        raise BadSpec(f"root seed must be an integer in [0, 2**63), got {root_seed!r}")
    dims = [int(d) for d in dims]
    order = sorted(set(check_ids), key=checks.CHECK_IDS.index)
    args = (order, mutation, trials if order else 0, dims, root_seed, tol, keep_verdicts,
            list(fixed))
    try:
        reports, verdicts = _campaigns(*args, STACK_BYTES)
    except NormetryError:
        reports, verdicts = _campaigns(*args, 0)
    return [
        CampaignReport(check_id=cid, mutation=mutation, expectation=expectation,
                       trials=trials, **reports[cid])
        for cid in check_ids
    ], verdicts


def _group(case: Case) -> tuple:
    """The key of the stack a case joins."""
    return case.check_id, case.n, tuple(case.matrices), case.mutation


def _campaigns(order, mutation, trials, dims, root_seed, tol, keep_verdicts, fixed,
               stack_bytes: int) -> tuple[dict, list]:
    """The report fields of each checker in ``order`` and the verdicts of
    the ``fixed`` cases, running the pending cases whenever their operands
    reach ``stack_bytes``, or would with the next trial; the fixed cases
    run in the first flush.  At 0, every case runs alone, the fixed ones
    before any trial is sampled, then the trials in order, and a failing
    case names itself."""
    fields = {cid: {"violations": [], "min_margin": float("inf"), "wall_time": 0.0,
                    "verdicts": []} for cid in order}
    fixed_verdicts = [None] * len(fixed)
    witness = mutation_expectation(mutation) == "must-violate"
    clock = time.perf_counter
    pending: dict = {}  # (check id, n, operand names, mutation) -> [(trial, case)]
    waiting: dict = {}  # the same keys -> [(index, fixed case)]
    for j, row in enumerate(fixed):
        waiting.setdefault(_group(row.case) if stack_bytes else j, []).append((j, row))
    held = 0
    per_entry = 0.0  # operand bytes of the last trial per entry of one matrix

    def flush():
        nonlocal pending, waiting, held
        _run_pending(pending, tol, keep_verdicts, fields, waiting, fixed_verdicts)
        pending, waiting, held = {}, {}, 0

    if waiting and not stack_bytes:
        flush()
    for i in range(trials):
        if i % WORDS_BLOCK == 0:  # the next block's trial seeds and their words
            block = range(i, min(i + WORDS_BLOCK, trials))
            seeds = [derive_stream(root_seed, j) for j in block]
            words = _seed_words(seeds)
        n, seed = dims[i % len(dims)], seeds[i % WORDS_BLOCK]
        if pending and held + per_entry * n * n > stack_bytes:
            flush()
        shared: dict = {}
        for cid in order:
            start = clock()
            try:
                if i == 0 and witness:
                    case = analytic_witness(cid, mutation)
                else:
                    case = sample_case(cid, n, seed, mutation, shared,
                                       words[i % WORDS_BLOCK])
            except NormetryError as exc:
                raise _named(exc, _trial_label(cid, i, n, seed)) from exc
            pending.setdefault(_group(case), []).append((i, case))
            fields[cid]["wall_time"] += clock() - start
        trial_bytes = len(shared) * n * n * _ITEMSIZE
        held += trial_bytes
        per_entry = trial_bytes / (n * n)
        del case, shared  # only the pending cases hold the recorded operands now
        if held >= stack_bytes:
            flush()
    if pending or waiting:
        flush()
    return fields, fixed_verdicts


def _generate(specs: list) -> dict:
    """Each GenSpec of ``specs`` (default scale and min_eig) generated,
    read-only: their generators seeded in one pass, then one
    ``generate_stack`` call per (kind, n) group of at most
    ``linalg.JOIN_BYTES`` of output, which bounds the transient memory."""
    groups: dict = {}
    for spec in specs:
        groups.setdefault((spec.kind, spec.n), []).append(spec)
    ordered = [spec for group in groups.values() for spec in group]
    rngs = default_rngs([spec.seed for spec in ordered])  # taken in this order
    out = {}
    for (kind, n), group in groups.items():
        step = max(1, linalg.JOIN_BYTES // (n * n * _ITEMSIZE))
        for start in range(0, len(group), step):
            part = group[start:start + step]
            stack = generate_stack(kind, n, list(itertools.islice(rngs, len(part))))
            stack.flags.writeable = False
            out.update(zip(part, stack))
    return out


def _generate_recorded(sampled: list) -> Counter:
    """Put the generated operands in place of the GenSpecs that the sampled
    cases, [(trial, case)], recorded (``_gen``), shared as they were
    recorded; returns how many operands each check id recorded first.

    A NormetryError names the first operand, in the order they were
    recorded, that fails when generated alone; for the cases of one trial
    that is the case whose eager generation would have failed.
    """
    recorded = {}  # GenSpec -> the (trial, case) that recorded it first
    for i, case in sampled:
        for m in case.matrices.values():
            if isinstance(m, GenSpec):
                recorded.setdefault(m, (i, case))
    try:
        made = _generate(list(recorded))
    except NormetryError:
        for spec, (i, case) in recorded.items():
            try:
                _generate([spec])
            except NormetryError as exc:
                raise _named(exc, _trial_label(case.check_id, i, case.n, case.seed)) from exc
        raise
    for _, case in sampled:
        for name, m in case.matrices.items():
            if isinstance(m, GenSpec):
                case.matrices[name] = made[m]
    return Counter(case.check_id for _, case in recorded.values())


def _run_pending(pending: dict, tol: float, keep_verdicts: bool, fields: dict,
                 waiting: dict, fixed_verdicts: list) -> None:
    """Generate the operands of the pending cases, run each stack of them
    with the fixed cases waiting in its group, then book the campaign
    verdicts in trial order, and each fixed case's verdict at its index of
    ``fixed_verdicts``.  A group of fixed cases alone runs first, before
    anything is generated.  Each stack's cases, and each operand stack once
    no other pending stack takes it, are dropped as soon as they have
    run."""
    clock = time.perf_counter
    stacks: dict = {}  # operand stacks, shared by the checkers that take them

    def run(group, stack: list) -> list:
        """The verdicts of the group's pending [(trial, case)]; its fixed
        cases' verdicts are booked here."""
        rows = waiting.get(group, ())
        try:
            verdicts = run_stack([case for _, case in stack], tol=tol, stacks=stacks,
                                 stamp=keep_verdicts, extra=[row.case for _, row in rows])
        except NormetryError as exc:
            if len(stack) + len(rows) > 1:  # the campaign reruns one case at a time
                raise
            if rows:
                raise _named(exc, rows[0][1].label) from exc
            [(i, case)] = stack
            raise _named(exc, _trial_label(case.check_id, i, case.n, case.seed)) from exc
        for (j, row), verdict in zip(rows, verdicts[len(stack):]):
            verdict.tol = row.tol
            fixed_verdicts[j] = verdict
        return verdicts[:len(stack)]

    for group in [g for g in waiting if g not in pending]:
        run(group, [])
    if not pending:
        return
    start = clock()
    recorders = _generate_recorded([pair for stack in pending.values() for pair in stack])
    spent = (clock() - start) / max(1, sum(recorders.values()))
    for cid, count in recorders.items():  # each check's share of generating
        fields[cid]["wall_time"] += spent * count
    done: dict = {}  # check id -> [(trial, verdict, certificate or None)]
    keys = {}  # the operand stacks of each group
    for group, stack in pending.items():
        rows = [case for _, case in stack] + [row.case for _, row in waiting.get(group, ())]
        keys[group] = [_stack_key(rows, name) for name in rows[0].matrices]
    users = Counter(key for group in keys.values() for key in group)
    while pending:
        group = next(iter(pending))  # in the order of their first cases
        stack = pending.pop(group)
        cid = group[0]
        start = clock()
        verdicts = run(group, stack)
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

