"""The per-trial operand pool: shared operands, read-only memos, release."""

from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from normetry import falsify, linalg, pool
from normetry.checks import CHECK_IDS
from normetry.errors import ConvergenceFailure
from normetry.rand import GenSpec, derive_stream, generate


def reference_campaigns(trials, dims, seed):
    """Check-major campaigns from sample_case/run_case, outside any pool."""
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

    def spy(case, tol=falsify.DEFAULT_TOL):
        ran.append((case.seed, case.check_id))
        return real(case, tol=tol)

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
    with pool.trial():
        case = falsify.sample_case("thm3.1", 3, 17)
        for m in case.matrices.values():
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 1.0
        a = case.matrices["a"]
        with pytest.raises(ValueError, match="read-only"):
            linalg.matrix_abs(a)[0, 0] = 1.0
        psd = falsify.sample_case("thm1.2", 3, 17).matrices["a"]
        spec = linalg.eigh(psd)
        assert linalg.eigh(psd) is spec
        with pytest.raises(ValueError, match="read-only"):
            spec.frame[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            spec.eigenvalues[0] = 1.0


def test_campaign_cases_hold_read_only_operands(monkeypatch):
    seen = []
    real = falsify.run_case

    def spy(case, tol=falsify.DEFAULT_TOL):
        seen.extend(m.flags.writeable for m in case.matrices.values())
        return real(case, tol=tol)

    monkeypatch.setattr(falsify, "run_case", spy)
    falsify.run_campaigns(CHECK_IDS, trials=2, dims=(3,))
    assert seen and not any(seen)


def test_nothing_is_pooled_outside_a_campaign():
    case = falsify.sample_case("thm3.1", 3, 17)
    for m in case.matrices.values():
        assert m.flags.writeable
        assert pool.memo(m) is None
    a = case.matrices["a"]
    a[0, 0] += 0.0  # writable in place
    assert linalg.matrix_abs(a).flags.writeable
    assert linalg.eigh(a @ a.conj().T).frame.flags.writeable
    assert pool.size() == 0


def test_pool_is_empty_after_every_trial(monkeypatch):
    sizes = []
    real_trial = pool.trial

    @contextmanager
    def spy():
        with real_trial():
            yield
            sizes.append(pool.size())

    monkeypatch.setattr(pool, "trial", spy)
    falsify.run_campaigns(CHECK_IDS, trials=5, dims=(2, 3))
    assert sizes == [0] * 5
    assert pool.size() == 0


def make_psd(n, seed):
    return lambda: generate(GenSpec("psd", n, seed))


def test_operand_is_released_after_its_last_holder():
    with pool.trial():
        first = pool.take("k", make_psd(3, 5))
        assert pool.take("k", make_psd(3, 5)) is first
        pool.release([first])
        assert pool.memo(first) is not None
        pool.release([first])
        assert pool.memo(first) is None and pool.size() == 0
        assert pool.take("k", make_psd(3, 5)) is not first


def test_failed_eigh_caches_nothing(monkeypatch):
    real = np.linalg.eigh

    def broken(m):
        w, v = real(m)
        return w + 1.0, v  # fails the residual guard

    with pool.trial():
        a = pool.take("k", make_psd(4, 9))
        monkeypatch.setattr(np.linalg, "eigh", broken)
        with pytest.raises(ConvergenceFailure, match="residual"):
            linalg.eigh(a)
        assert "eigh" not in pool.memo(a)
        monkeypatch.setattr(np.linalg, "eigh", real)
        spec = linalg.eigh(a)
        assert pool.memo(a)["eigh"] is spec


def test_is_normal_memo_keeps_each_tolerance_apart():
    def nearly_normal():
        m = generate(GenSpec("normal", 3, 21)).copy()
        m[0, 1] += 1e-6
        return m

    with pool.trial():
        a = pool.take("k", nearly_normal)
        assert linalg.is_normal(a, tol=1e-3)
        assert not linalg.is_normal(a, tol=1e-12)
        assert pool.memo(a) == {("is_normal", 1e-3): True, ("is_normal", 1e-12): False}


def test_one_trial_generates_and_decomposes_each_operand_once(monkeypatch):
    generated = Counter()
    real_generate = falsify.generate

    def count_generate(spec):
        generated[spec] += 1
        return real_generate(spec)

    kernel_calls = {"n": 0}

    def count_kernel(fn):
        def counted(*args, **kwargs):
            kernel_calls["n"] += 1
            return fn(*args, **kwargs)
        return counted

    calls = Counter()  # (function, pooled operand) -> calls
    kernels = Counter()  # (function, pooled operand) -> eigh/svd calls

    def per_operand(name, fn):
        def spied(x, *args, **kwargs):
            before = kernel_calls["n"]
            try:
                return fn(x, *args, **kwargs)
            finally:
                if pool.memo(x) is not None:
                    calls[name, id(x)] += 1
                    kernels[name, id(x)] += kernel_calls["n"] - before
        return spied

    operand_slots = Counter()
    real_run_case = falsify.run_case

    def count_operands(case, tol=falsify.DEFAULT_TOL):
        operand_slots["n"] += len(case.matrices)
        return real_run_case(case, tol=tol)

    monkeypatch.setattr(falsify, "generate", count_generate)
    monkeypatch.setattr(falsify, "run_case", count_operands)
    monkeypatch.setattr(np.linalg, "eigh", count_kernel(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "svd", count_kernel(np.linalg.svd))
    monkeypatch.setattr(linalg, "eigh", per_operand("eigh", linalg.eigh))
    monkeypatch.setattr(
        linalg, "matrix_abs", per_operand("matrix_abs", linalg.matrix_abs)
    )
    falsify.run_campaigns(CHECK_IDS, trials=1, dims=(4,))

    assert set(generated.values()) == {1}
    assert len(generated) < operand_slots["n"]  # operands are shared
    assert max(calls.values()) > 1  # memo hits happen
    assert max(kernels.values()) == 1
