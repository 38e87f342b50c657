"""Random campaigns and hypothesis mutations.

A campaign draws seeded random instances for one checker and records the
minimum scaled margin plus any violations (with self-contained replay
certificates).  Campaigns sample trial-major: the cases of all checkers
of trial i are drawn from one per-trial dict of operands, so an operand the
checkers share is recorded once.  When the sampled cases run, their
operands are generated first, the kinds of one seed from one first draw;
then each checker's cases of one n and one operand list go through the
checker in one (T, n, n) call.  Mutations deliberately break one
hypothesis: the must-violate mutations ship with an analytic witness tried
first, while drop-normality is exploratory and only records what it sees.
"""

from __future__ import annotations

import functools
import itertools
import numbers
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import __version__, checks, linalg, scalarfn, serialize
from .errors import BadSpec, MalformedCertificate, NormetryError, UnknownCheck
from .norms import DEFAULT_TOL, Verdict
from .rand import (
    GenSpec, _seed_words, default_rngs, derive_stream, generate, generate_family,
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
    kinds: dict  # name -> generator kind
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
        raise UnknownCheck(f"unknown check {check_id!r}; "
                           f"choose from {', '.join(checks.CHECK_IDS)}")
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


def run_stack(cases: list, tol: float = DEFAULT_TOL,
              stacks: dict | None = None) -> list[Verdict]:
    """The verdicts of ``cases``, unstamped, from one stacked checker call.

    The cases share a checker, a mutation, n and their operand names; each
    operand, scalar and scalar function becomes one row per case.
    ``stacks`` holds each operand's stack by name, as a flush built and
    shared them (``_run_pending``); without it the cases are stacked here
    (``_stacked``) and nothing is shared.
    """
    first = cases[0]
    if stacks is None:
        stacks = {name: _stacked(cases, name) for name in first.matrices}
    return _spec(first.check_id).run(
        None if first.fn_descriptor is None else [case.fn() for case in cases],
        stacks,
        {key: np.array([c.scalars[key] for c in cases]) for key in first.scalars},
        tol=tol, enforce=first.mutation is None,
    )


def _stacked(cases: list, name: str) -> np.ndarray:
    """The (T, n, n) stack of operand ``name`` of ``cases``; one case's
    operand is stacked as a view."""
    parts = [case.matrices[name] for case in cases]
    return parts[0][None] if len(parts) == 1 else np.stack(parts)


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


# A campaign's trials and dims when none are given; the CLI reads them too.
DEFAULT_TRIALS = 100
DEFAULT_DIMS = (1, 2, 3, 4, 5, 6)


def run_campaign(
    check_id: str,
    mutation: str | None = None,
    trials: int = DEFAULT_TRIALS,
    dims=DEFAULT_DIMS,
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


# The stage of a case's failure: sampling comes before running.
SAMPLING, RUNNING = 0, 1


def _named(exc: NormetryError, label: str, index: int, stage: int,
           check_id: str) -> NormetryError:
    """The same error, its message prefixed with the case that raised it,
    and that case as the error's ``case``: (index, stage, check id), where
    a fixed case's index is negative, as it waits in the queue."""
    named = type(exc)(f"{label}: {exc}")
    named.case = index, stage, check_id
    return named


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
    trials: int = DEFAULT_TRIALS,
    dims=DEFAULT_DIMS,
    root_seed: int = 0,
    tol: float = DEFAULT_TOL,
    keep_verdicts: bool = False,
) -> list[CampaignReport]:
    """Run seeded trials for several checkers; one report per check id.

    Trial i samples every checker's case from the same trial seed and one
    dict of shared operands, so the operands checkers share are recorded,
    and later generated, once.  Sampled cases wait until the next trial's
    operands would take theirs past ``STACK_BYTES``; then they are generated
    (``_generate``), and each checker's waiting cases of one n and one
    list of operand names run as one stack (``run_stack``), whatever kinds
    the operands were drawn from.  Reports and verdict rows are the same as
    one checker and one case at a time would give.  A case's fingerprint is
    taken only where it is written: in a violation's certificate, and in
    its verdict row with ``keep_verdicts``.  A NormetryError raised by a
    trial, in sampling, generating or running it, is re-raised with the
    check id, trial index, n and trial seed of the campaign's first failing
    case at the start of its message; a flush that raises finds that case
    among the cases it has not yet passed (``_raise_first_failure``).
    ``root_seed`` must be in [0, 2**63): trial seeds keep only its low 63
    bits.
    """
    return run_with_fixed((), check_ids, mutation, trials, dims, root_seed, tol,
                          keep_verdicts)[0]


def run_with_fixed(
    fixed,
    check_ids=(),
    mutation: str | None = None,
    trials: int = DEFAULT_TRIALS,
    dims=DEFAULT_DIMS,
    root_seed: int = 0,
    tol: float = DEFAULT_TOL,
    keep_verdicts: bool = False,
) -> tuple[list[CampaignReport], list[Verdict]]:
    """``run_campaigns`` of ``check_ids`` (none: no campaign), with the
    ``fixed`` cases (FixedCase) run in its first flush; returns the reports
    and each fixed case's verdict.  Every report's ``wall_time`` is the
    elapsed time of the whole run.

    A fixed case waits in the first flush's queue like a trial's case,
    ahead of every trial, and joins the stack of its group (``_group``),
    with or without campaign cases.  A checker's ``tol`` only labels its
    verdicts, so a fixed case's verdict, given its own tol, has the bits of
    its own call.  It is booked to no campaign and makes no ``run_case``
    call.  A failing fixed case comes before any failing trial: the first
    one in ``fixed`` that fails raises, with its label at the start of its
    message.
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
    reports = {cid: CampaignReport(cid, mutation, expectation, trials, [], float("inf"), 0.0)
               for cid in sorted(set(check_ids), key=checks.CHECK_IDS.index)}
    start = time.perf_counter()
    verdicts = _campaigns(reports, mutation, trials if reports else 0, dims, root_seed,
                          tol, keep_verdicts, list(fixed))
    wall_time = time.perf_counter() - start
    for report in reports.values():
        report.wall_time = wall_time
    return [reports[cid] for cid in check_ids], verdicts


def _group(case: Case) -> tuple:
    """The key of the stack a case joins."""
    return case.check_id, case.n, tuple(case.matrices), case.mutation


def _campaigns(reports, mutation, trials, dims, root_seed, tol, keep_verdicts,
               fixed) -> list:
    """Run the trials of each checker of ``reports`` (check id -> its
    report, in check order) and book them there; return the verdicts of
    the ``fixed`` cases.  The pending cases run before a trial joins them
    whose recorded operands would take theirs past ``STACK_BYTES``, so a
    flush of more than one trial holds at most that.  Fixed case j
    waits as index j - len(fixed), so it sorts before every trial and runs
    in the first flush.  A case that fails to sample raises once the cases
    before it have run."""
    fixed_verdicts = [None] * len(fixed)
    witness = mutation_expectation(mutation) == "must-violate"
    pending: dict = {}  # (check id, n, operand names, mutation) -> [(index, case)]
    for j, row in enumerate(fixed):
        pending.setdefault(_group(row.case), []).append((j - len(fixed), row.case))
    held = 0  # operand bytes the pending trials recorded
    flush = functools.partial(  # it empties pending
        _run_pending, pending, tol, keep_verdicts, reports, fixed, fixed_verdicts)

    for i in range(trials):
        if i % WORDS_BLOCK == 0:  # the next block's trial seeds and their words
            block = range(i, min(i + WORDS_BLOCK, trials))
            seeds = [derive_stream(root_seed, j) for j in block]
            words = _seed_words(seeds)
        n, seed = dims[i % len(dims)], seeds[i % WORDS_BLOCK]
        shared, trial = {}, []
        for cid in reports:
            try:
                if i == 0 and witness:
                    trial.append(analytic_witness(cid, mutation))
                else:
                    trial.append(sample_case(cid, n, seed, mutation, shared,
                                             words[i % WORDS_BLOCK]))
            except NormetryError as exc:
                flush()  # a failing case of an earlier trial raises first
                raise _named(exc, _trial_label(cid, i, n, seed), i, SAMPLING, cid) from exc
        trial_bytes = len(shared) * n * n * _ITEMSIZE
        if held and held + trial_bytes > STACK_BYTES:
            flush()
            held = 0
        for case in trial:
            pending.setdefault(_group(case), []).append((i, case))
        held += trial_bytes
        del case, trial, shared  # only the pending cases hold the recorded operands now
    if pending:
        flush()
    return fixed_verdicts


def _generate(specs: list) -> dict:
    """Each GenSpec of ``specs`` generated, read-only.  The specs of one
    seed and n are a family, drawn from one generator: the generators are
    seeded in one pass, then each n's families are generated by
    ``generate_family`` calls of at most ``linalg.JOIN_BYTES`` of first
    draws (and at least one family), which bounds the transient memory."""
    families: dict = {}  # (n, seed) -> its specs
    for spec in specs:
        families.setdefault((spec.n, spec.seed), []).append(spec)
    by_n: dict = {}  # n -> the specs of each of its seeds
    for (n, _), family in families.items():
        by_n.setdefault(n, []).append(family)
    rngs = default_rngs([family[0].seed for rows in by_n.values() for family in rows])
    out = {}
    for n, rows in by_n.items():
        step = max(1, linalg.JOIN_BYTES // (n * n * _ITEMSIZE))
        for start in range(0, len(rows), step):
            part = rows[start:start + step]
            made = generate_family(n, list(itertools.islice(rngs, len(part))), part)
            for kind_specs, stack in made.values():
                stack.flags.writeable = False
                out.update(zip(kind_specs, stack))
    return out


def _generate_recorded(sampled: list) -> None:
    """Put the generated operands in place of the GenSpecs that the sampled
    cases recorded (``_gen``), shared as they were recorded."""
    made = _generate(list(dict.fromkeys(
        m for case in sampled for m in case.matrices.values() if isinstance(m, GenSpec))))
    for case in sampled:
        for name, m in case.matrices.items():
            if isinstance(m, GenSpec):
                case.matrices[name] = made[m]


def _run_pending(pending: dict, tol: float, keep_verdicts: bool, reports: dict,
                 fixed: list, fixed_verdicts: list) -> None:
    """Generate the operands of the pending cases and run each stack of
    them, in the order of their first cases, so the fixed cases' groups
    run first.  Each operand stack is built once and marked by
    ``linalg.share``, so the checkers that take it decompose it once; it is
    dropped once no pending stack of cases takes it.  A stack of cases
    leaves ``pending`` as soon as it has run.  Then its verdicts are booked: a fixed case's, with its own tol, at its
    index of ``fixed_verdicts``; a trial's, in trial order, to its
    checker's report.  A NormetryError names its case from the cases left
    (``_raise_first_failure``)."""
    stacks: dict = {}  # operand stacks, by the ids of the matrices they hold
    done = []  # (trial, report, verdict, certificate or None)
    try:
        _generate_recorded([case for stack in pending.values() for _, case in stack])
        keys = {  # each group's operand stacks, by operand name
            group: {name: tuple(id(case.matrices[name]) for _, case in stack)
                    for name in stack[0][1].matrices}
            for group, stack in pending.items()
        }
        users = Counter(key for names in keys.values() for key in names.values())
        while pending:
            group = next(iter(pending))  # in the order of their first cases
            stack = pending[group]
            report = reports.get(group[0])  # None: fixed cases of no campaign
            cases = [case for _, case in stack]
            names = keys.pop(group)
            for name, key in names.items():
                if key not in stacks:
                    stacks[key] = linalg.share(_stacked(cases, name))
            verdicts = run_stack(cases, tol=tol,
                                 stacks={name: stacks[key] for name, key in names.items()})
            del pending[group]
            for key in names.values():
                users[key] -= 1
                if not users[key]:
                    del stacks[key]
            for (i, case), verdict in zip(stack, verdicts):
                if i < 0:
                    verdict.tol = fixed[i].tol
                    fixed_verdicts[i] = verdict
                    continue
                # the benchmark's tracer counts trials by these calls
                run_case(case, verdict=verdict, stamp=keep_verdicts)
                done.append((i, report, verdict,
                             None if verdict.passed else make_certificate(case, verdict)))
    except NormetryError:
        _raise_first_failure(pending, fixed, tol)
        raise
    done.sort(key=lambda entry: entry[0])
    for _, report, verdict, certificate in done:
        margin = verdict.min_margin
        if margin != margin or margin < report.min_margin:  # a NaN sticks
            report.min_margin = margin
        if certificate is not None:
            report.violations.append(certificate)
        if keep_verdicts:
            report.verdicts.append(verdict_row(verdict))


def _raise_first_failure(pending: dict, fixed: list, tol: float) -> None:
    """Rerun one at a time the cases still ``pending`` in a flush that
    raised, and raise the error of the first that fails, with its label at
    the start of its message.  They rerun in (index, check) order: the
    fixed cases first, in their order, then each trial in order, which
    generates its recorded operands alone in record order and then runs
    its cases alone in check order.  Guards decide each matrix as alone,
    so that is the campaign's first failing case.  Returns if none fails
    alone."""
    entries = sorted((entry for stack in pending.values() for entry in stack),
                     key=lambda entry: (entry[0], checks.CHECK_IDS.index(entry[1].check_id)))
    try:
        for i, entry in itertools.groupby(entries, key=lambda entry: entry[0]):
            named = [(fixed[i].label if i < 0 else
                      _trial_label(case.check_id, i, case.n, case.seed), case)
                     for _, case in entry]
            made = {}  # GenSpec -> its operand, generated alone
            for label, case in named:
                for name, m in case.matrices.items():
                    if isinstance(m, GenSpec):
                        if m not in made:
                            made[m] = _generate([m])[m]
                        case.matrices[name] = made[m]
            for label, case in named:
                run_stack([case], tol=tol)
    except NormetryError as exc:
        raise _named(exc, label, i, RUNNING, case.check_id) from exc
