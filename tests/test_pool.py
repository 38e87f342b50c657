"""Operand sharing in a campaign: each trial keeps one dict of operands,
shared read-only through ``linalg.share``, whose memos die with their
operand."""

import gc
from collections import Counter

import numpy as np
import pytest

from normetry import falsify, linalg
from normetry.checks import CHECK_IDS
from normetry.errors import ConvergenceFailure
from normetry.rand import GenSpec, derive_stream, generate


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


def test_cases_run_trial_major_in_registry_order(monkeypatch):
    ran = []
    real = falsify.run_case

    def spy(case, tol=falsify.DEFAULT_TOL, fn=None):
        ran.append((case.seed, case.check_id))
        return real(case, tol=tol, fn=fn)

    monkeypatch.setattr(falsify, "run_case", spy)
    ids = ["prop3.4", "thm1.2", "ineq4"]
    reports = falsify.run_campaigns(ids, trials=2, dims=(2,), root_seed=8)
    assert [r.check_id for r in reports] == ids
    assert ran == [
        (derive_stream(8, i), cid)
        for i in range(2)
        for cid in ("thm1.2", "ineq4", "prop3.4")
    ]


def test_pooled_operands_and_memos_are_read_only():
    m = generate(GenSpec("psd", 3, 5))
    assert linalg.share(m) is m and not m.flags.writeable
    assert linalg._MEMOS[id(m)] == {}
    shared = {}
    case = falsify.sample_case("thm3.1", 3, 17, shared=shared)
    for m in case.matrices.values():
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 1.0
    a = case.matrices["a"]
    with pytest.raises(ValueError, match="read-only"):
        linalg.matrix_abs(a)[0, 0] = 1.0
    psd = falsify.sample_case("thm1.2", 3, 17, shared=shared).matrices["a"]
    spec = linalg.eigh(psd)
    assert linalg.eigh(psd) is spec
    with pytest.raises(ValueError, match="read-only"):
        spec.frame[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        spec.eigenvalues[0] = 1.0


def test_campaign_cases_hold_read_only_operands(monkeypatch):
    seen = []
    real = falsify.run_case

    def spy(case, tol=falsify.DEFAULT_TOL, fn=None):
        seen.extend(m.flags.writeable for m in case.matrices.values())
        return real(case, tol=tol, fn=fn)

    monkeypatch.setattr(falsify, "run_case", spy)
    falsify.run_campaigns(CHECK_IDS, trials=2, dims=(3,))
    assert seen and not any(seen)


def test_nothing_is_pooled_outside_a_campaign():
    case = falsify.sample_case("thm3.1", 3, 17)
    witness = falsify.analytic_witness("thm2.4", "drop-expansive")
    for m in [*case.matrices.values(), *witness.matrices.values()]:
        assert m.flags.writeable
        assert id(m) not in linalg._MEMOS
    a = case.matrices["a"]
    a[0, 0] += 0.0  # writable in place
    assert linalg.matrix_abs(a).flags.writeable
    assert linalg.eigh(a @ a.conj().T).frame.flags.writeable


def test_pool_is_empty_after_every_trial(monkeypatch):
    gc.collect()  # operands of earlier tests that only a cycle still holds
    at_trial_start, last_case_holds_all = [], []
    real_sample, real_run = falsify.sample_case, falsify.run_case

    def sample_spy(check_id, n, seed, mutation=None, shared=None):
        if not shared:  # the first case of a trial
            at_trial_start.append(len(linalg._MEMOS))
        return real_sample(check_id, n, seed, mutation, shared)

    def run_spy(case, tol=falsify.DEFAULT_TOL, fn=None):
        if case.check_id == CHECK_IDS[-1]:  # only this case's operands are left
            held = {id(m) for m in case.matrices.values()}
            last_case_holds_all.append(set(linalg._MEMOS) <= held)
        return real_run(case, tol=tol, fn=fn)

    monkeypatch.setattr(falsify, "sample_case", sample_spy)
    monkeypatch.setattr(falsify, "run_case", run_spy)
    falsify.run_campaigns(CHECK_IDS, trials=5, dims=(2, 3))
    assert at_trial_start == [0] * 5
    assert last_case_holds_all == [True] * 5
    assert linalg._MEMOS == {}


def test_operand_is_released_after_its_last_holder():
    shared = {}
    first = falsify.sample_case("thm1.2", 3, 5, shared=shared)
    second = falsify.sample_case("thm1.2", 3, 5, shared=shared)
    a = first.matrices["a"]
    assert second.matrices["a"] is a
    key = id(a)
    linalg.eigh(a)
    del shared, first, a
    assert "eigh" in linalg._MEMOS[key]  # the second case still holds it
    del second
    assert key not in linalg._MEMOS
    fresh = [np.zeros((3, 3), dtype=complex) for _ in range(200)]
    assert not any(id(m) in linalg._MEMOS for m in fresh)
    assert all(linalg.eigh(m).frame.flags.writeable for m in fresh)


def test_failed_eigh_caches_nothing(monkeypatch):
    real = np.linalg.eigh

    def broken(m):
        w, v = real(m)
        return w + 1.0, v  # fails the residual guard

    a = linalg.share(generate(GenSpec("psd", 4, 9)))
    monkeypatch.setattr(np.linalg, "eigh", broken)
    with pytest.raises(ConvergenceFailure, match="residual"):
        linalg.eigh(a)
    assert "eigh" not in linalg._MEMOS[id(a)]
    monkeypatch.setattr(np.linalg, "eigh", real)
    spec = linalg.eigh(a)
    assert linalg._MEMOS[id(a)]["eigh"] is spec


def test_is_normal_memo_keeps_each_tolerance_apart():
    a = generate(GenSpec("normal", 3, 21)).copy()
    a[0, 1] += 1e-6
    linalg.share(a)
    assert linalg.is_normal(a, tol=1e-3)
    assert not linalg.is_normal(a, tol=1e-12)
    assert linalg._MEMOS[id(a)] == {
        ("is_normal", 1e-3): True, ("is_normal", 1e-12): False
    }


def test_one_trial_generates_and_decomposes_each_operand_once(monkeypatch):
    generated = Counter()
    real_generate = falsify.generate

    def count_generate(spec):
        generated[spec] += 1
        return real_generate(spec)

    kernel_calls = {"n": 0}
    svd_inputs = Counter()  # shared operand -> np.linalg.svd calls on it

    def count_kernel(fn):
        def counted(*args, **kwargs):
            kernel_calls["n"] += 1
            if kernel == "svd" and id(args[0]) in linalg._MEMOS:
                svd_inputs[id(args[0])] += 1
            return fn(*args, **kwargs)
        kernel = fn.__name__
        return counted

    calls = Counter()  # (function, shared operand) -> calls
    kernels = Counter()  # (function, shared operand) -> eigh/svd calls

    def per_operand(name, fn):
        def spied(x, *args, **kwargs):
            before = kernel_calls["n"]
            try:
                return fn(x, *args, **kwargs)
            finally:
                if id(x) in linalg._MEMOS:
                    calls[name, id(x)] += 1
                    kernels[name, id(x)] += kernel_calls["n"] - before
                    usv = linalg._MEMOS[id(x)].get("svd", ())
                    svd_writable.extend(part.flags.writeable for part in usv)
        return spied

    svd_writable = []  # flags of the memoised (u, s, vh) seen after each call

    operand_slots = Counter()
    real_run_case = falsify.run_case

    def count_operands(case, tol=falsify.DEFAULT_TOL, fn=None):
        operand_slots["n"] += len(case.matrices)
        return real_run_case(case, tol=tol, fn=fn)

    monkeypatch.setattr(falsify, "generate", count_generate)
    monkeypatch.setattr(falsify, "run_case", count_operands)
    monkeypatch.setattr(np.linalg, "eigh", count_kernel(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "svd", count_kernel(np.linalg.svd))
    monkeypatch.setattr(linalg, "eigh", per_operand("eigh", linalg.eigh))
    monkeypatch.setattr(
        linalg, "matrix_abs", per_operand("matrix_abs", linalg.matrix_abs)
    )
    monkeypatch.setattr(linalg, "polar", per_operand("polar", linalg.polar))
    falsify.run_campaigns(CHECK_IDS, trials=1, dims=(4,))

    assert set(generated.values()) == {1}
    assert len(generated) < operand_slots["n"]  # operands are shared
    assert max(calls.values()) > 1  # memo hits happen
    assert max(kernels.values()) == 1
    assert any(name == "polar" for name, _ in calls)
    assert svd_inputs and max(svd_inputs.values()) == 1
    assert svd_writable and not any(svd_writable)


def test_matrix_abs_and_polar_share_one_svd(monkeypatch):
    x = linalg.share(generate(GenSpec("general", 4, 3)))
    fresh = generate(GenSpec("general", 4, 3))
    calls = []
    real_svd = np.linalg.svd
    monkeypatch.setattr(
        np.linalg, "svd", lambda *a, **k: calls.append(1) or real_svd(*a, **k)
    )
    parts = linalg.polar(x)
    np.testing.assert_array_equal(linalg.matrix_abs(x), parts.abs)
    assert linalg.polar(x).u.tobytes() == parts.u.tobytes()
    assert len(calls) == 1
    np.testing.assert_array_equal(linalg.polar(fresh).abs, parts.abs)
    assert len(calls) == 2  # an unshared operand memoizes nothing
