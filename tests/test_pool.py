"""Operand sharing and stacking in a campaign: each trial keeps one dict of
recorded operands, generated at flush time and shared read-only, and each
checker's pending cases of one n and one operand list run as one (T, n, n)
stack."""

import gc
import itertools
import sys
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from normetry import checks, falsify, linalg
from normetry.checks import CHECK_IDS
from normetry.errors import ConvergenceFailure
from normetry.rand import KINDS, GenSpec, derive_stream, generate


def reference_campaigns(trials, dims, seed):
    """Check-major campaigns from sample_case/run_case, sharing nothing."""
    out = {}
    for cid in CHECK_IDS:
        rows, violations, min_margin = [], [], float("inf")
        for i in range(trials):
            case = falsify.sample_case(cid, dims[i % len(dims)], derive_stream(seed, i))
            verdict = falsify.run_case(case)
            min_margin = min(min_margin, verdict.min_margin)
            if not verdict.passed:
                violations.append(falsify.make_certificate(case, verdict))
            rows.append(falsify.verdict_row(verdict))
        out[cid] = (rows, violations, min_margin)
    return out


def test_trial_major_campaigns_equal_check_major_reference():
    dims, trials, seed = [1, 2, 3, 4, 5, 6, 7, 8, 16], 18, 123
    reports = falsify.run_campaigns(
        CHECK_IDS, trials=trials, dims=dims, root_seed=seed, keep_verdicts=True
    )
    expected = reference_campaigns(trials, dims, seed)
    assert [r.check_id for r in reports] == list(CHECK_IDS)
    for report in reports:
        rows, violations, min_margin = expected[report.check_id]
        assert report.trials == trials
        assert report.verdicts == rows  # fingerprints, flags, labels, lhs/rhs/margin
        assert report.violations == violations
        assert report.min_margin == min_margin


def test_run_campaign_is_one_checker_of_run_campaigns():
    one = falsify.run_campaign("thm1.2", mutation="drop-vanishing", trials=6,
                               dims=(2, 3), root_seed=4, keep_verdicts=True)
    [many] = falsify.run_campaigns(["thm1.2"], "drop-vanishing", 6, (2, 3), 4,
                                   keep_verdicts=True)
    assert one.verdicts == many.verdicts
    assert one.violations == many.violations
    assert one.min_margin == many.min_margin


def spy_stacks(monkeypatch):
    """Record each run_stack call as [(check id, trial seed, n), ...]."""
    seen = []
    real = falsify.run_stack

    def spy(cases, **kwargs):
        seen.append([(c.check_id, c.seed, c.n) for c in cases])
        return real(cases, **kwargs)

    monkeypatch.setattr(falsify, "run_stack", spy)
    return seen


def test_cases_run_trial_major_in_registry_order(monkeypatch):
    """Cases are sampled trial-major in registry order; the stacks then run
    in the order of their first case, each holding its cases in trial
    order."""
    sampled = []
    real_sample = falsify.sample_case

    def sample_spy(check_id, n, seed, mutation=None, shared=None, words=None):
        sampled.append((seed, check_id))
        return real_sample(check_id, n, seed, mutation, shared, words)

    monkeypatch.setattr(falsify, "sample_case", sample_spy)
    stacks = spy_stacks(monkeypatch)
    ids = ["prop3.4", "thm1.2", "ineq4"]
    reports = falsify.run_campaigns(ids, trials=4, dims=(2, 3), root_seed=8)
    assert [r.check_id for r in reports] == ids
    order = ("thm1.2", "ineq4", "prop3.4")
    assert sampled == [(derive_stream(8, i), cid) for i in range(4) for cid in order]
    assert stacks == [
        [(cid, derive_stream(8, i), 2 + i % 2) for i in (first, first + 2)]
        for first in (0, 1) for cid in order
    ]


def test_pooled_operands_and_memos_are_read_only():
    """A trial's shared operands are read-only, and so are the operand
    stacks ``run_stack`` shares among checkers and the results ``joined``
    keeps on them."""
    shared = {}
    case = falsify.sample_case("thm3.1", 3, 17, shared=shared)
    assert all(isinstance(m, GenSpec) for m in case.matrices.values())
    falsify._generate_recorded([case])
    for name, m in case.matrices.items():
        assert m.tobytes() == falsify.sample_case("thm3.1", 3, 17).matrices[name].tobytes()
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 1.0
    stack = linalg.share(np.stack([case.matrices["a"], case.matrices["b"]]))
    assert not stack.flags.writeable and linalg._MEMOS[id(stack)] == {}
    absolute = linalg.joined(linalg.matrix_abs, stack)
    with pytest.raises(ValueError, match="read-only"):
        absolute[0, 0, 0] = 1.0
    psd = linalg.share(np.stack([generate(GenSpec("psd", 3, s)) for s in (1, 2)]))
    spec = linalg.joined(linalg.eigh, psd)
    assert linalg.joined(linalg.eigh, psd) is spec
    with pytest.raises(ValueError, match="read-only"):
        spec.frame[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        spec.eigenvalues[0, 0] = 1.0


def test_campaign_cases_hold_read_only_operands(monkeypatch):
    seen = []
    real = falsify.run_stack

    def spy(cases, **kwargs):
        seen.extend(m.flags.writeable for c in cases for m in c.matrices.values())
        return real(cases, **kwargs)

    monkeypatch.setattr(falsify, "run_stack", spy)
    falsify.run_campaigns(CHECK_IDS, trials=2, dims=(3,))
    assert seen and not any(seen)


def test_nothing_is_pooled_outside_a_campaign(monkeypatch):
    case = falsify.sample_case("thm3.1", 3, 17)
    witness = falsify.analytic_witness("thm2.4", "drop-expansive")
    handed = []  # the stacks a lone run_stack call hands its checker
    spec = checks.SPECS["thm3.1"]

    def spy(fn, mats, *args, **kwargs):
        handed.extend(mats.values())
        return spec.run(fn, mats, *args, **kwargs)

    monkeypatch.setitem(checks.SPECS, "thm3.1", replace(spec, run=spy))
    falsify.run_stack([case])
    assert handed
    for m in [*case.matrices.values(), *witness.matrices.values(), *handed]:
        assert m.flags.writeable
        assert id(m) not in linalg._MEMOS
    a = case.matrices["a"]
    a[0, 0] += 0.0  # writable in place
    assert linalg.matrix_abs(a).flags.writeable
    assert linalg.eigh(a @ a.conj().T).frame.flags.writeable
    stack = np.stack([a @ a.conj().T] * 2)
    first = linalg.joined(linalg.eigh, stack)
    assert first.frame.flags.writeable  # an unshared stack keeps nothing
    assert linalg.joined(linalg.eigh, stack) is not first


def test_pool_is_empty_after_every_trial(monkeypatch):
    """With no byte budget every trial's cases run at once, and once they
    have run, no operand of the trial is alive: the next trial starts from
    an empty pool."""
    monkeypatch.setattr(falsify, "STACK_BYTES", 0)
    gc.collect()
    alive = []  # weak references to every operand stack generated so far
    real_generate, real_sample = falsify.generate_family, falsify.sample_case
    live_at_trial_start = []

    def generate_spy(n, rngs, specs):
        made = real_generate(n, rngs, specs)
        # a stack is alive while any of its operands is
        alive.extend(weakref.ref(stack) for _, stack in made.values())
        return made

    def sample_spy(check_id, n, seed, mutation=None, shared=None, words=None):
        if not shared:  # the first case of a trial
            live_at_trial_start.append(
                (sum(r() is not None for r in alive), len(linalg._MEMOS)))
        return real_sample(check_id, n, seed, mutation, shared, words)

    monkeypatch.setattr(falsify, "generate_family", generate_spy)
    monkeypatch.setattr(falsify, "sample_case", sample_spy)
    falsify.run_campaigns(CHECK_IDS, trials=5, dims=(2, 3))
    assert live_at_trial_start == [(0, 0)] * 5
    assert alive and all(r() is None for r in alive)
    assert linalg._MEMOS == {}


def test_operand_is_released_after_its_last_holder():
    shared = {}
    first = falsify.sample_case("thm1.2", 3, 5, shared=shared)
    second = falsify.sample_case("thm1.2", 3, 5, shared=shared)
    falsify._generate_recorded([first, second])
    a = first.matrices["a"]
    assert second.matrices["a"] is a
    ref = weakref.ref(a)
    del shared, first, a
    assert ref() is not None  # the second case still holds it
    del second
    assert ref() is None
    stack = linalg.share(np.stack([generate(GenSpec("psd", 3, s)) for s in (1, 2)]))
    linalg.joined(linalg.eigh, stack)
    key = id(stack)
    assert (linalg.eigh,) in linalg._MEMOS[key]
    del stack  # its memo goes with it
    assert key not in linalg._MEMOS
    fresh = [np.zeros((2, 3, 3), dtype=complex) for _ in range(200)]
    assert not any(id(m) in linalg._MEMOS for m in fresh)


def test_failed_eigh_caches_nothing(monkeypatch):
    """A shared stack whose eigh fails the residual guard raises and keeps
    nothing; once LAPACK is sound again it decomposes, matrix by matrix as
    each alone, and keeps that."""
    real = np.linalg.eigh

    def broken(m):
        w, v = real(m)
        return w + 1.0, v  # fails the residual guard

    stack = linalg.share(np.stack([generate(GenSpec("psd", 4, s)) for s in (9, 10)]))
    monkeypatch.setattr(np.linalg, "eigh", broken)
    with pytest.raises(ConvergenceFailure, match="residual"):
        linalg.joined(linalg.eigh, stack)
    assert linalg._MEMOS[id(stack)] == {}
    monkeypatch.setattr(np.linalg, "eigh", real)
    spec = linalg.joined(linalg.eigh, stack)
    assert linalg._MEMOS[id(stack)][(linalg.eigh,)] is spec
    for t in range(2):
        alone = linalg.eigh(stack[t])
        assert spec.eigenvalues[t].tobytes() == alone.eigenvalues.tobytes()
        assert spec.frame[t].tobytes() == alone.frame.tobytes()


def test_is_normal_memo_keeps_each_tolerance_apart():
    a = generate(GenSpec("normal", 3, 21)).copy()
    a[0, 1] += 1e-6
    stack = linalg.share(np.stack([a, generate(GenSpec("normal", 3, 22))]))
    loose = linalg.joined(linalg.is_normal, stack, tol=1e-3)
    strict = linalg.joined(linalg.is_normal, stack, tol=1e-12)
    assert loose.tolist() == [True, True] and strict.tolist() == [False, True]
    assert set(linalg._MEMOS[id(stack)]) == {
        (linalg.is_normal, ("tol", 1e-3)), (linalg.is_normal, ("tol", 1e-12))
    }


def test_one_trial_generates_and_decomposes_each_operand_once(monkeypatch):
    """Each operand is generated once per trial; the checkers that take the
    same operands take one shared stack of them, each decomposition of a
    shared stack is computed once, and each operand goes through one SVD,
    though eigen-sum takes |A| of it and ineq4 its polar parts."""
    generated = Counter()  # (kind, n, generator state) -> operands made of it
    operands = set()  # bytes of every generated operand
    real_generate = falsify.generate_family

    def count_generate(n, rngs, specs):
        for rng, row in zip(rngs, specs):
            for spec in row:
                generated[spec.kind, n, str(rng.bit_generator.state)] += 1
        made = real_generate(n, rngs, specs)
        operands.update(m.tobytes() for _, stack in made.values() for m in stack)
        return made

    svd_inputs = Counter()  # operand bytes -> SVDs with vectors taken of it
    real_svd = np.linalg.svd

    def count_svd(a, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            for m in np.reshape(a, (-1, *np.shape(a)[-2:])):
                if m.tobytes() in operands:
                    svd_inputs[m.tobytes()] += 1
        return real_svd(a, *args, **kwargs)

    kept = []
    computed = Counter()  # (shared stack, key) -> times computed
    asked = Counter()  # (shared stack, key) -> times asked for
    real_joined = linalg.joined

    def count_joined(fn, *stacks, **kwargs):
        key = (fn, *sorted(kwargs.items()))
        before = [key in linalg._MEMOS.get(id(m), {}) for m in stacks]
        out = real_joined(fn, *stacks, **kwargs)
        for m, had in zip(stacks, before):
            memo = linalg._MEMOS.get(id(m))
            if memo is not None and key in memo:
                kept.append(m)  # alive to the end, so no other stack takes its id
                asked[id(m), key] += 1
                computed[id(m), key] += not had
        return out

    operand_slots = Counter()
    real_run_stack = falsify.run_stack

    def count_operands(cases, **kwargs):
        operand_slots["n"] += sum(len(c.matrices) for c in cases)
        return real_run_stack(cases, **kwargs)

    # root seed 0 draws general operands for eigen-sum, which ineq4 takes too
    sample = falsify.sample_case("eigen-sum", 4, derive_stream(0, 0))
    assert set(sample.kinds.values()) == {"general"}
    monkeypatch.setattr(falsify, "generate_family", count_generate)
    monkeypatch.setattr(falsify, "run_stack", count_operands)
    monkeypatch.setattr(linalg, "joined", count_joined)
    monkeypatch.setattr(np.linalg, "svd", count_svd)
    falsify.run_campaigns(CHECK_IDS, trials=1, dims=(4,), root_seed=0)
    assert set(generated.values()) == {1}
    assert len(generated) < operand_slots["n"]  # operands are shared
    assert set(computed.values()) == {1}
    assert max(asked.values()) > 1  # memo hits happen
    assert {key[0] for _, key in computed} == {
        linalg.eigh, linalg.matrix_abs, linalg._svd, linalg.is_normal
    }
    # the SVD that matrix_abs took of eigen-sum's operands serves ineq4's polar
    assert max(n for (_, key), n in asked.items() if key == (linalg._svd,)) > 1
    assert svd_inputs and max(svd_inputs.values()) == 1


def test_matrix_abs_and_polar_share_one_svd(monkeypatch):
    """On a shared stack, polar, matrix_abs and polar again cost one SVD
    in total; |X| from ``polar`` is ``matrix_abs`` of X, bit for bit, and
    the polar parts of each matrix are those it gets alone."""
    x = linalg.share(np.stack([generate(GenSpec("general", 4, seed)) for seed in (3, 4, 5)]))
    fresh = np.stack([generate(GenSpec("general", 4, seed)) for seed in (3, 4, 5)])
    calls = []
    real_svd = np.linalg.svd
    monkeypatch.setattr(
        np.linalg, "svd", lambda *a, **k: calls.append(1) or real_svd(*a, **k)
    )
    parts = linalg.joined(linalg.polar, x)
    assert linalg.joined(linalg.matrix_abs, x).tobytes() == parts.abs.tobytes()
    assert linalg.joined(linalg.polar, x).u.tobytes() == parts.u.tobytes()
    assert len(calls) == 1
    assert linalg.joined(linalg.polar, fresh).abs.tobytes() == parts.abs.tobytes()
    assert len(calls) == 2  # an unshared stack keeps nothing
    assert linalg.matrix_abs(fresh).tobytes() == parts.abs.tobytes()
    for t in range(3):
        alone = linalg.polar(x[t])
        assert alone.u.tobytes() == parts.u[t].tobytes()
        assert alone.abs.tobytes() == parts.abs[t].tobytes()
        assert alone.abs_star.tobytes() == parts.abs_star[t].tobytes()


# Every set of kinds one seed can be drawn as, each at one of these dims.
KIND_SETS = [kinds for size in range(1, len(KINDS) + 1)
             for kinds in itertools.combinations(KINDS, size)]
FAMILY_DIMS = (1, 2, 3, 4, 5, 6, 7, 8, 32, 128)


def test_each_family_of_a_flush_has_the_bits_of_generate():
    """A flush draws the first matrix of each (seed, n) once and shares
    what kinds derive from it; every operand still has the bits
    ``generate`` gives its spec alone.  The sets holding two or three of
    normal, contraction and expansive draw again from copies of one
    generator's state."""
    again = {"normal", "contraction", "expansive"}
    assert {len(again.intersection(kinds)) for kinds in KIND_SETS} == {0, 1, 2, 3}
    specs = [GenSpec(kind, FAMILY_DIMS[j % len(FAMILY_DIMS)], derive_stream(19, j))
             for j, kinds in enumerate(KIND_SETS) for kind in kinds]
    made = falsify._generate(specs)
    for spec in specs:
        assert made[spec].tobytes() == generate(spec).tobytes(), spec
        assert not made[spec].flags.writeable


def test_a_flush_generates_each_spec_at_its_own_scale_and_min_eig():
    """Kinds of one seed share their first draw, not its scaling."""
    specs = [GenSpec("psd", 3, 5, scale=1e-6), GenSpec("psd", 3, 5),
             GenSpec("pd", 3, 5, scale=2.0, min_eig=0.5), GenSpec("pd", 3, 5),
             GenSpec("general", 4, 6, scale=1e3), GenSpec("contraction", 4, 6),
             GenSpec("hermitian", 4, 6, scale=1e-3), GenSpec("normal", 2, 7, scale=1e6),
             GenSpec("normal", 2, 7), GenSpec("expansive", 2, 7, scale=3.0)]
    made = falsify._generate(specs)
    for spec in specs:
        assert made[spec].tobytes() == generate(spec).tobytes(), spec
    assert linalg.opnorm(made[specs[0]]) == pytest.approx(1e-6)
    assert linalg.eigvalsh_desc(made[specs[2]])[-1] >= 0.5
    assert linalg.opnorm(made[specs[4]]) == pytest.approx(1e3)


def calling_checker() -> str | None:
    frame = sys._getframe(2)
    while frame is not None and not frame.f_code.co_name.startswith("check_"):
        frame = frame.f_back
    return None if frame is None else frame.f_code.co_name


def test_a_campaign_decomposes_each_matrix_once(monkeypatch):
    """No LAPACK routine sees the same matrix twice in a campaign: kinds
    drawn from one seed share their first draw and what derives from it,
    and A + B, |A| + |B| and the block [[A, B], [C, D]] are shared stacks,
    decomposed once for every checker that derives them."""
    seen = Counter()
    repeats = []

    def spy(name, real):
        def call(a, *args, **kwargs):
            # an SVD with vectors and one without are two computations: eigen-sum
            # takes |A + B| from the first and ineq4 the norms of A + B from the
            # second, and neither has the bits of the other
            routine = name, kwargs.get("compute_uv", True)
            for m in np.reshape(a, (-1, *np.shape(a)[-2:])):
                # a matrix of zeros has the same bytes however it arose:
                # thm1.2's g(A) + g(B) and g(A + B) where g vanishes on the spectrum
                if m.any():
                    seen[routine, m.tobytes()] += 1
                    if seen[routine, m.tobytes()] == 2:
                        repeats.append((name, calling_checker()))
            return real(a, *args, **kwargs)
        return call

    for name in ("svd", "eigh", "eigvalsh", "qr"):
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    falsify.run_campaigns(CHECK_IDS, trials=2, dims=(3, 32), root_seed=1)
    assert len(seen) > 100
    assert set(repeats) <= set()
    assert linalg._MEMOS == {}


def test_a_derived_stack_serves_only_its_own_inputs():
    """A + B of shared stacks is a shared stack, taken once and kept in
    A's memo; once B dies, a stack that takes B's id gets its own sum."""
    a = linalg.share(np.stack([generate(GenSpec("psd", 3, s)) for s in (1, 2)]))
    b = linalg.share(np.stack([generate(GenSpec("psd", 3, s)) for s in (3, 4)]))
    total = linalg.derived(np.add, a, b)
    assert total.tobytes() == (a + b).tobytes()
    assert linalg.derived(np.add, a, b) is total
    assert id(total) in linalg._MEMOS and not total.flags.writeable
    spec = linalg.joined(linalg.eigh, total)
    assert linalg.joined(linalg.eigh, linalg.derived(np.add, a, b)) is spec
    fresh = b.copy()  # not shared, so nothing derived from it is kept
    assert linalg.derived(np.add, a, fresh) is not linalg.derived(np.add, a, fresh)
    ref, old = weakref.ref(total), id(b)
    del b, total, spec
    assert ref() is not None  # A's memo keeps it
    for shift in range(1, 21):  # CPython soon hands B's id to a new array
        other = linalg.share(a + shift)
        assert linalg.derived(np.add, a, other).tobytes() == (a + other).tobytes()
        reused = id(other) == old
        del other
        if reused:
            break
    assert reused
    key = id(a)
    del a
    assert ref() is None and key not in linalg._MEMOS
