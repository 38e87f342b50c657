"""Random campaigns and hypothesis mutations.

A campaign draws seeded random instances for one checker and records the
minimum scaled margin plus any violations (with self-contained replay
certificates).  Campaigns sample trial-major: the cases of all checkers
of trial i are drawn from one per-trial dict of operands, so an operand the
checkers share is recorded once.  When the sampled cases run, their
operands are generated first, the kinds of one seed from one first draw;
then each checker's cases of one n and one operand list go through the
checker in one (T, n, n) call.  A mutation deliberately breaks one
hypothesis of the checks that declare it (``CheckSpec.mutations``): it
must violate a check that declares an analytic witness for it, tried as
trial 0, and elsewhere is exploratory and only records what it sees.
"""

from __future__ import annotations

import functools
import itertools
import numbers
import time
from collections import Counter
from dataclasses import dataclass, field

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


# Each scalar-function kind that campaigns draw, with the draw of its
# parameters.
_FN_DRAW = {
    "sqrt": lambda rng: {},
    "power": lambda rng: {"s": float(rng.uniform(0.2, 1.0))},
    "log1p": lambda rng: {},
    "affine-plus": lambda rng: {"lam": float(rng.uniform(0.0, 2.0)),
                                "c": float(rng.uniform(0.0, 1.0))},
    "ratio-shift": lambda rng: {"c": float(rng.uniform(0.1, 3.0))},
    "power-m": lambda rng: {"m": int(rng.integers(2, 5))},
    "angle": lambda rng: {"a": float(rng.uniform(0.2, 2.0))},
    "smoothed": lambda rng: {"a": float(rng.uniform(0.2, 2.0)),
                             "r": float(10.0 ** rng.uniform(-6.0, 0.0))},
    "inv-sqrt": lambda rng: {},
    "constant": lambda rng: {"c": float(rng.uniform(0.1, 2.0))},
    "log1p-over-t": lambda rng: {},
}
# The kinds drawn for each class tag: one is picked uniformly from the
# case's rng, then draws its own parameters (``draw_fn``).
FN_DRAWS = {
    scalarfn.CONCAVE_NONNEG: ("sqrt", "power", "log1p", "affine-plus"),
    scalarfn.CONVEX_VANISHING: ("power-m", "angle", "smoothed"),
    scalarfn.OPERATOR_CONCAVE: ("sqrt", "power", "log1p", "ratio-shift"),
    scalarfn.DECREASING_TG_INCREASING: ("inv-sqrt", "constant", "log1p-over-t"),
}


def draw_fn(fn_class: str, rng: np.random.Generator) -> dict:
    """The descriptor of a scalar function of class ``fn_class`` drawn
    from ``rng``."""
    kinds = FN_DRAWS[fn_class]
    kind = kinds[int(rng.integers(len(kinds)))]
    return {"kind": kind, **_FN_DRAW[kind](rng)}


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
    spec = checks.SPECS.get(check_id)
    if spec is None:
        raise UnknownCheck(f"unknown check {check_id!r}; "
                           f"choose from {', '.join(checks.CHECK_IDS)}")
    if mutation is not None and mutation not in spec.mutations:
        if all(mutation not in other.mutations for other in checks.SPECS.values()):
            raise BadSpec(f"unknown mutation {mutation!r}")
        raise BadSpec(f"mutation {mutation!r} does not apply to {check_id}")
    return spec


_UNMUTATED = checks.Mutation()


def _kinds(operands, mutation: checks.Mutation) -> dict:
    """{name: kind} of an operand list of (name, kind), as ``mutation``
    generates it."""
    old, new = mutation.swap
    return {name: new if kind == old else kind for name, kind in operands}


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
    change = spec.mutations.get(mutation, _UNMUTATED)
    rng = case_rng(seed, words)
    fn_desc = None
    if change.fn is not None:
        fn_desc = change.fn(rng)
    elif spec.fn_class is not None:
        fn_desc = draw_fn(spec.fn_class, rng)
    operands = spec.operands(rng, fn_desc) if callable(spec.operands) else spec.operands
    kinds = _kinds(operands, change)
    mats = {name: _gen(kind, n, seed, slot, shared)
            for slot, (name, kind) in enumerate(kinds.items())}
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


def witness_case(witness: checks.Witness, mutation: str | None = None) -> Case:
    """A witness as a case of no seed: verify's witness rows, and trial 0
    of a must-violate campaign.  Its operands are copies, of the kinds its
    check's operand list of their names holds, as ``mutation`` generates
    them."""
    spec = checks.SPECS[witness.check_id]
    names = list(witness.operands)
    operands = next(ops for ops in spec._lists() if [name for name, _ in ops] == names)
    return Case(
        witness.check_id, len(next(iter(witness.operands.values()))), None,
        {name: m.copy() for name, m in witness.operands.items()},
        _kinds(operands, spec.mutations.get(mutation, _UNMUTATED)),
        dict(witness.scalars), witness.fn and dict(witness.fn), mutation,
    )


def run_case(case: Case, tol: float = DEFAULT_TOL,
             verdict: Verdict | None = None, stamp: bool = True) -> Verdict:
    """The verdict of a materialized case, stamped with its fingerprint
    if ``stamp``: ``run_stack([case])[0]``, the case run as a stack of one
    on the path its campaign runs it, or ``verdict`` when a campaign's
    stacked call has already given it.
    """
    if verdict is None:
        verdict = run_stack([case], tol)[0]
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
    nests its scalar function too deep to rebuild, holds a matrix whose
    size is not its case's n >= 1, lacks a matrix its checker needs, or
    holds scalars whose names and types differ from its checker's own
    draw, raises MalformedCertificate."""
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
    except (KeyError, TypeError, ValueError, AttributeError, RecursionError,
            NormetryError) as exc:
        raise MalformedCertificate(f"{type(exc).__name__}: {exc}") from exc
    if fn is None and spec.fn_class is not None:
        raise MalformedCertificate(f"{case.check_id} case lacks its scalar 'fn'")
    try:
        return run_case(case, tol=tol)
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
    witnesses: list = field(default_factory=list)  # rows of its witness table
    errors: list = field(default_factory=list)  # rows of its cases that raised


def witness_row(witness: checks.Witness, verdict: Verdict, tol: float) -> dict:
    """A witness's row of the verify report: it passes when its verdict
    does and, for an equality, its |min margin| is within ``tol``."""
    return {
        "check": witness.check_id,
        "description": witness.description,
        "equality": witness.equality,
        "min_margin": verdict.min_margin,
        "pass": verdict.passed and (
            not witness.equality or abs(verdict.min_margin) <= tol),
    }


def error_row(case: Case, index: int, exc: NormetryError,
              witness: checks.Witness | None = None) -> dict:
    """The report row of a case that raised ``exc`` when it ran alone: its
    check, trial index, n and trial seed, or for one of verify's witnesses
    its description, with trial and seed null.  It holds no certificate:
    ``sample_case(check, n, seed, mutation)`` draws the case again."""
    row = {"check": case.check_id, "trial": index, "n": case.n, "seed": case.seed,
           "error": type(exc).__name__, "message": str(exc)}
    if witness is not None:
        row.update(trial=None, description=witness.description)
    return row


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


def run_campaigns(
    check_ids,
    mutation: str | None = None,
    trials: int = DEFAULT_TRIALS,
    dims=DEFAULT_DIMS,
    root_seed: int = 0,
    tol: float = DEFAULT_TOL,
    keep_verdicts: bool = False,
    witnesses: bool = False,
) -> list[CampaignReport]:
    """Run seeded trials for several checkers; one report per check id.
    Every report's ``wall_time`` is the elapsed time of the whole run.

    Trial i samples every checker's case from the same trial seed and one
    dict of shared operands, so the operands checkers share are recorded,
    and later generated, once.  Sampled cases wait until the next trial's
    operands would take theirs past ``STACK_BYTES``; then they are generated
    (``_generate``), and each checker's waiting cases of one n and one
    list of operand names run as one stack (``run_stack``), whatever kinds
    the operands were drawn from.  Reports and verdict rows are the same as
    one checker and one case at a time would give.  A case's fingerprint is
    taken only where it is written: in a violation's certificate, and in
    its verdict row with ``keep_verdicts``.

    With ``witnesses``, each check's declared witnesses (``checks.Witness``)
    wait in the first flush as their cases (``witness_case``), ahead of
    every trial, and join the stacks of their groups (``_group``).  A
    checker's ``tol`` only labels its verdicts, so a witness's verdict,
    given the witness's own tol, has the bits of its own call; its row
    (``witness_row``, at ``tol``) goes to its check's report, never to the
    report's margin or violations, and it makes no ``run_case`` call.

    A case that raises a NormetryError when it runs alone becomes a row of
    its check's ``errors`` (``error_row``), in index order, and every other
    case is booked as usual (``_run_pending``); a NormetryError that no
    case raises, such as a generator's BadSpec for a dimension too large
    to allocate, is raised unchanged.  ``root_seed`` must be in [0, 2**63):
    trial seeds keep only its low 63 bits.
    """
    check_ids = list(check_ids)
    for cid in check_ids:
        _spec(cid, mutation)
    if not isinstance(trials, numbers.Integral) or trials < 1:
        raise BadSpec(f"trials must be an integer >= 1, got {trials!r}")
    dims = list(dims)
    if not dims or any(
        isinstance(d, bool) or not isinstance(d, numbers.Integral) or d < 1
        for d in dims
    ):
        raise BadSpec(f"dims must be a non-empty list of integers >= 1, got {dims!r}")
    if not isinstance(root_seed, numbers.Integral) or not 0 <= root_seed < ROOT_SEEDS:
        raise BadSpec(f"root seed must be an integer in [0, 2**63), got {root_seed!r}")
    dims = [int(d) for d in dims]
    reports = {}
    for cid in sorted(set(check_ids), key=checks.CHECK_IDS.index):
        change = checks.SPECS[cid].mutations.get(mutation)
        expectation = "none" if change is None else change.expectation
        reports[cid] = CampaignReport(cid, mutation, expectation, trials, [],
                                      float("inf"), 0.0)
    start = time.perf_counter()
    _campaigns(reports, mutation, trials, dims, root_seed, tol, keep_verdicts, witnesses)
    wall_time = time.perf_counter() - start
    for report in reports.values():
        report.wall_time = wall_time
    return [reports[cid] for cid in check_ids]


def _group(case: Case) -> tuple:
    """The key of the stack a case joins."""
    return case.check_id, case.n, tuple(case.matrices), case.mutation


def _campaigns(reports, mutation, trials, dims, root_seed, tol, keep_verdicts,
               witnesses) -> None:
    """Run the trials of each checker of ``reports`` (check id -> its
    report, in check order), with its witnesses if ``witnesses``, and book
    them there.  The pending cases run before a trial joins them whose
    recorded operands would take theirs past ``STACK_BYTES``, so a flush
    of more than one trial holds at most that.  Witness j of the table of
    every check's witnesses waits as index j less the table's length, so
    it sorts before every trial, in any run of any checks, and runs in the
    first flush.  Trial 0 of a check that the mutation must violate is the
    witness the check declares for it."""
    table = [w for spec in checks.SPECS.values() for w in spec.witnesses]
    pending: dict = {}  # (check id, n, operand names, mutation) -> [(index, case)]
    for j, witness in enumerate(table):
        if witnesses and witness.check_id in reports:
            case = witness_case(witness)
            pending.setdefault(_group(case), []).append((j - len(table), case))
    violating = {cid: checks.SPECS[cid].mutations.get(mutation, _UNMUTATED).witness
                 for cid in reports}
    held = 0  # operand bytes the pending trials recorded
    flush = functools.partial(  # it empties pending
        _run_pending, pending, tol, keep_verdicts, reports, table)

    for i in range(trials):
        if i % WORDS_BLOCK == 0:  # the next block's trial seeds and their words
            block = range(i, min(i + WORDS_BLOCK, trials))
            seeds = [derive_stream(root_seed, j) for j in block]
            words = _seed_words(seeds)
        n, seed = dims[i % len(dims)], seeds[i % WORDS_BLOCK]
        shared, trial = {}, []
        for cid in reports:
            if i == 0 and violating[cid] is not None:
                trial.append(witness_case(violating[cid], mutation))
            else:
                trial.append(sample_case(cid, n, seed, mutation, shared,
                                         words[i % WORDS_BLOCK]))
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
                 witnesses: list) -> None:
    """Generate the operands of the pending cases and run each stack of
    them, in the order of their first cases, so the witnesses' groups
    run first.  Each operand stack is built once and marked by
    ``linalg.share``, so the checkers that take it decompose it once; it is
    dropped once no pending stack of cases takes it.  A stack of cases
    leaves ``pending`` as it runs.  A stack that raises a NormetryError
    reruns one case at a time (``_alone``); should no case raise alone,
    the stack's own error is raised unchanged.  Then the verdicts are
    booked to their checkers' reports in index order: a witness's, with
    its own tol, as its row (``witnesses`` is the table of them all); a
    trial's, in trial order; and a case that raised alone, as its error
    row."""
    _generate_recorded([case for stack in pending.values() for _, case in stack])
    keys = {  # each group's operand stacks, by operand name
        group: {name: tuple(id(case.matrices[name]) for _, case in stack)
                for name in stack[0][1].matrices}
        for group, stack in pending.items()
    }
    users = Counter(key for names in keys.values() for key in names.values())
    stacks: dict = {}  # operand stacks, by the ids of the matrices they hold
    done = []  # (index, report, verdict, certificate or None)
    raised = []  # (index, report, error row)
    while pending:
        group = next(iter(pending))  # in the order of their first cases
        stack = pending.pop(group)
        report = reports[group[0]]
        cases = [case for _, case in stack]
        names = keys.pop(group)
        for name, key in names.items():
            if key not in stacks:
                stacks[key] = linalg.share(_stacked(cases, name))
        try:
            verdicts = run_stack(cases, tol=tol,
                                 stacks={name: stacks[key] for name, key in names.items()})
        except NormetryError:
            verdicts = [_alone(case, tol) for case in cases]
            if not any(isinstance(verdict, NormetryError) for verdict in verdicts):
                raise
        for key in names.values():
            users[key] -= 1
            if not users[key]:
                del stacks[key]
        for (i, case), verdict in zip(stack, verdicts):
            if isinstance(verdict, NormetryError):
                raised.append((i, report, error_row(case, i, verdict,
                                                    witnesses[i] if i < 0 else None)))
            elif i < 0:
                verdict.tol = witnesses[i].tol
                done.append((i, report, verdict, None))
            else:
                # the benchmark's tracer counts trials by these calls
                run_case(case, verdict=verdict, stamp=keep_verdicts)
                done.append((i, report, verdict,
                             None if verdict.passed else make_certificate(case, verdict)))
    for i, report, row in sorted(raised, key=lambda entry: entry[0]):
        report.errors.append(row)
    done.sort(key=lambda entry: entry[0])
    for i, report, verdict, certificate in done:
        if i < 0:
            report.witnesses.append(witness_row(witnesses[i], verdict, tol))
            continue
        margin = verdict.min_margin
        if margin != margin or margin < report.min_margin:  # a NaN sticks
            report.min_margin = margin
        if certificate is not None:
            report.violations.append(certificate)
        if keep_verdicts:
            report.verdicts.append(verdict_row(verdict))


def _alone(case: Case, tol: float):
    """The verdict of ``case`` run alone, unstamped, or the NormetryError
    it raises.  Guards decide each matrix of a stack as alone, so a stack
    that raises holds a case that raises alone."""
    try:
        return run_stack([case], tol=tol)[0]
    except NormetryError as exc:
        return exc
