"""Stacks: every checker and guard on (T, n, n) operands.

A stacked call must give each matrix exactly what a call on that matrix
alone gives, so reports and certificates do not depend on how a campaign
grouped its cases.  That rests on numpy's batched LAPACK and matmul calls
giving each matrix of a stack the bits of a single call; LAPACK builds can
batch differently, so the kernels are checked here first.
"""

import json
import math
import os
from collections import Counter

import numpy as np
import pytest

from normetry import checks, cli, falsify, linalg, norms
from normetry.errors import (
    ConvergenceFailure,
    DomainError,
    NormetryError,
    NotAContraction,
    NotExpansive,
    NotNormal,
    NotPositiveDefinite,
)
from normetry.rand import GenSpec, derive_stream, generate

DIMS = (1, 2, 3, 4, 5, 6, 7, 8, 32)


def random_stack(n, t=6, seed=0, hermitian=False):
    rng = np.random.default_rng(seed + 1000 * n)
    m = rng.standard_normal((t, n, n)) + 1j * rng.standard_normal((t, n, n))
    return (m + m.conj().swapaxes(-1, -2)) / 2 if hermitian else m


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("n", DIMS)
def test_batched_kernels_are_bit_identical_to_single_calls(n):
    h, g = random_stack(n, hermitian=True), random_stack(n, seed=1)
    w, v = np.linalg.eigh(h)
    vals = np.linalg.eigvalsh(h)
    s = np.linalg.svd(g, compute_uv=False)
    u, s_uv, vh = np.linalg.svd(g)
    prod = g @ h
    for t in range(len(g)):
        w1, v1 = np.linalg.eigh(h[t])
        assert same_bits(w[t], w1) and same_bits(v[t], v1)
        assert same_bits(vals[t], np.linalg.eigvalsh(h[t]))
        assert same_bits(s[t], np.linalg.svd(g[t], compute_uv=False))
        for part, single in zip((u, s_uv, vh), np.linalg.svd(g[t])):
            assert same_bits(part[t], single)
        assert same_bits(prod[t], g[t] @ h[t])
    for p in range(1, 6):
        power = np.linalg.matrix_power(g, p)
        for t in range(len(g)):
            assert same_bits(power[t], np.linalg.matrix_power(g[t], p))


def stack_cases(cid, mutation=None, dims=(1, 2, 3, 5, 8), trials=10, seed=3):
    """Sampled cases of one checker, grouped as a campaign stacks them."""
    groups = {}
    for n in dims:
        for i in range(trials):
            case = falsify.sample_case(cid, n, derive_stream(seed, i), mutation)
            groups.setdefault((n, tuple(case.kinds.items())), []).append(case)
    return [cases for cases in groups.values() if len(cases) > 1]


CHECK_MUTATIONS = [(cid, None) for cid in checks.CHECK_IDS] + [
    (cid, mutation) for cid, spec in checks.SPECS.items() for mutation in spec.mutations
]


@pytest.mark.parametrize("cid, mutation", CHECK_MUTATIONS)
def test_each_row_of_a_stack_is_its_single_case(cid, mutation):
    stacks = stack_cases(cid, mutation)
    assert stacks
    for cases in stacks:
        stacked = falsify.run_stack(cases)
        assert len(stacked) == len(cases)
        for case, verdict in zip(cases, stacked):
            # the single-matrix call: run_case is itself a stack of one
            alone = checks.SPECS[cid].run(case.fn(), case.matrices, case.scalars,
                                          enforce=case.mutation is None)
            assert verdict.fingerprint == ""  # run_stack leaves stamping to its caller
            assert [tuple(map(repr, r)) for r in verdict.records] == [
                tuple(map(repr, r)) for r in alone.records
            ]


def test_a_stacked_checker_takes_one_matrix_as_a_stack_of_one():
    a, b = (generate(GenSpec("normal", 4, seed)) for seed in (1, 2))
    single = checks.check_prop_3_4(a, b)
    [row] = checks.check_prop_3_4(a[None], b[None])
    assert single.records == row.records
    assert checks.identity_6_verdict(a, b, 3).records[0].lhs == checks.identity_6_verdict(
        a[None], b[None], [3])[0].records[0].lhs


# --- guards decide per matrix ---------------------------------------------


def with_row(good, bad, at=1):
    """A stack of ``good`` matrices with ``bad`` in place of row ``at``."""
    stack = np.array(good)
    stack[at] = bad
    return stack


def raises_as_alone(fn, stack, at=1):
    """fn(stack) raises the type that fn(stack[at]) raises."""
    with pytest.raises(NormetryError) as alone:
        fn(stack[at])
    with pytest.raises(type(alone.value)):
        fn(stack)
    return alone.value


def psd_stack(n=3, t=3):
    return np.stack([generate(GenSpec("psd", n, seed)) for seed in range(t)])


def test_a_row_with_nan_fails_the_stack_as_alone():
    bad = np.eye(3, dtype=complex)
    bad[0, 1] = np.nan
    stack = with_row(psd_stack(), bad)
    for fn in (linalg.as_square, linalg.eigh, linalg.matrix_abs, norms.singular_values):
        assert isinstance(raises_as_alone(fn, stack), DomainError)


def test_a_row_with_hermitian_drift_fails_the_stack_as_alone():
    drifted = psd_stack()[1].copy()
    drifted[0, 1] += 1e-6
    stack = with_row(psd_stack(), drifted)
    err = raises_as_alone(linalg.hermitize, stack)
    with pytest.raises(DomainError) as stacked:
        linalg.hermitize(stack)
    assert str(stacked.value) == str(err)  # the same drift is reported
    ok = psd_stack()
    ok[1, 0, 1] += 1e-14  # inside the drift tolerance: symmetrized, not raised
    out = linalg.hermitize(ok)
    for t in range(3):
        assert same_bits(out[t], linalg.hermitize(ok[t]))


def test_an_exactly_hermitian_row_keeps_its_signed_zeros_beside_a_drifted_row():
    """-0.0 == +0.0, so M below is exactly Hermitian and comes back as it
    is; (M + M*)/2 would turn its -0.0 into +0.0."""
    m = np.eye(2, dtype=complex)
    m[0, 1] = complex(-0.0, 0.0)
    drifted = np.eye(2, dtype=complex)
    drifted[0, 1] = 1e-14
    out = linalg.hermitize(np.stack([m, drifted]))
    assert same_bits(out[0], m) and same_bits(linalg.hermitize(m), m)
    assert same_bits(out[1], linalg.hermitize(drifted))
    assert same_bits(linalg.eigh(np.stack([m, drifted])).frame[0], linalg.eigh(m).frame)


def test_a_row_with_a_bad_residual_fails_the_stack_as_alone(monkeypatch):
    real = np.linalg.eigh
    stack = psd_stack()

    def sloppy_on_row_1(m):
        w, v = real(m)
        v = v.copy()
        if m.ndim == 3:
            v[1] += 1e-6
        elif np.allclose(m, stack[1]):
            v += 1e-6
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", sloppy_on_row_1)
    err = raises_as_alone(linalg.eigh, stack)
    assert isinstance(err, ConvergenceFailure) and "residual" in str(err)
    assert linalg.eigh(stack[0]).frame.shape == (3, 3)  # the other rows pass


def test_a_row_below_the_clamp_window_fails_the_stack_as_alone():
    stack = with_row(psd_stack(), np.diag([1.0, 0.5, -0.5]).astype(complex))
    err = raises_as_alone(lambda m: linalg.spectral_apply(np.sqrt, m), stack)
    assert isinstance(err, DomainError)


@pytest.mark.parametrize("check, bad, error", [
    ("davis-hansen", ("z", 2.0 * np.eye(3)), NotAContraction),
    ("prop3.4", ("b", np.triu(np.ones((3, 3)))), NotNormal),
    ("pinching-eq2", ("b", np.diag([1.0, 1.0, 0.0])), NotPositiveDefinite),
    ("thm2.4", ("z", 0.5 * np.eye(3)), NotExpansive),
    ("cs-lemma", ("c2", 2.0 * np.eye(3)), NotAContraction),
])
def test_a_row_failing_a_hypothesis_fails_the_stack_as_alone(check, bad, error):
    name, matrix = bad
    cases = [falsify.sample_case(check, 3, derive_stream(2, i)) for i in range(3)]
    cases[1].matrices = dict(cases[1].matrices, **{name: matrix.astype(complex)})
    with pytest.raises(error):
        falsify.run_case(cases[1])
    with pytest.raises(error):
        falsify.run_stack(cases)


def test_only_undecided_rows_reach_the_svd_stage(monkeypatch):
    """The Frobenius stage decides clean rows; only the row it cannot
    settle goes to the SVD, and the decisions equal the rows' own."""
    calls = []
    real_opnorm = linalg.opnorm
    monkeypatch.setattr(
        linalg, "opnorm", lambda x: calls.append(np.shape(x)) or real_opnorm(x)
    )
    s = np.stack([np.eye(3, dtype=complex)] * 3)
    x = np.zeros((3, 3, 3), dtype=complex)
    x[1, 0, 0] = 1.01e-9  # undecided by the Frobenius bounds; rejected by SVD
    x[2] = 1.0  # rejected by the Frobenius bounds
    assert linalg._opnorm_within(x, s, 1e-9).tolist() == [True, False, False]
    assert calls == [(1, 3, 3), (1, 3, 3)]


# --- a failing case becomes an error row ------------------------------------


def plant_failure(monkeypatch, cid, failing):
    """Make checker ``cid`` raise DomainError on the cases whose first
    operand is one of ``failing`` (matched by its bytes)."""
    name = {"prop3.4": "check_prop_3_4", "thm1.2": "check_thm_1_2"}[cid]
    real = getattr(checks, name)
    marks = {m.tobytes() for m in failing}

    def planted(*args, **kw):
        a = args[1] if cid == "thm1.2" else args[0]
        rows = a.reshape(-1, *a.shape[-2:])
        if any(r.tobytes() in marks for r in rows):
            raise DomainError("planted failure")
        return real(*args, **kw)

    monkeypatch.setattr(checks, name, planted)


def planted_row(cid, i, dims=(2, 3, 4), seed=31):
    """The error row of trial ``i`` of ``cid`` that raised the planted
    failure: the fields of its label, the error's type and its message."""
    return {"check": cid, "trial": i, "n": dims[i % len(dims)],
            "seed": derive_stream(seed, i), "error": "DomainError",
            "message": "planted failure"}


@pytest.mark.parametrize("failing_trials", [(5,), (9, 6)])
def test_a_failing_campaign_names_its_first_failing_case(monkeypatch, failing_trials):
    """Each case that raises, in a stack and then alone, is one error row
    of its check, in trial order, and the campaign runs all its trials:
    the other cases are booked as an unplanted run books them."""
    dims, seed, ids = (2, 3, 4), 31, ["thm1.2", "prop3.4"]
    clean = falsify.run_campaigns(ids, trials=12, dims=dims, root_seed=seed,
                                  keep_verdicts=True)
    cases = {i: falsify.sample_case("prop3.4", dims[i % 3], derive_stream(seed, i))
             for i in failing_trials}
    plant_failure(monkeypatch, "prop3.4", [c.matrices["a"] for c in cases.values()])
    sizes = []
    real_stack = falsify.run_stack
    def spy(cases, **kwargs):
        sizes.append(len(cases))
        return real_stack(cases, **kwargs)

    monkeypatch.setattr(falsify, "run_stack", spy)
    thm12, prop34 = falsify.run_campaigns(ids, trials=12, dims=dims, root_seed=seed,
                                          keep_verdicts=True)
    assert prop34.errors == [planted_row("prop3.4", i) for i in sorted(failing_trials)]
    assert prop34.verdicts == [row for i, row in enumerate(clean[1].verdicts)
                               if i not in failing_trials]
    assert prop34.violations == clean[1].violations == []
    assert (thm12.verdicts, thm12.min_margin, thm12.errors) == (
        clean[0].verdicts, clean[0].min_margin, [])
    assert max(sizes) > 1  # the failure arose in a stack, then was rerun


def assert_reaped():
    """No worker process is left: every child has been waited for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def verify_error(capsys, ids, trials, dims, seed) -> tuple:
    """The report and the one error line of a ``verify`` of ``ids`` where a
    case raised."""
    argv = ["verify", "--checks", ",".join(ids), "--trials", str(trials),
            "--dims", ",".join(map(str, dims)), "--seed", str(seed)]
    assert cli.main(argv) == cli.EXIT_NUMERICAL
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return json.loads(out), err


def error_line(raised, cid, i, dims=(2, 3, 4), seed=31):
    return (f"error: {raised} case{'s' * (raised > 1)} raised; first: {cid} trial {i} "
            f"(n={dims[i % len(dims)]}, seed={derive_stream(seed, i)}): planted failure\n")


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("thm12_trial, prop34_trial, first", [
    (7, 5, "prop3.4"), (6, 9, "thm1.2"), (6, 6, "thm1.2"), (None, 8, "prop3.4"),
    (4, None, "thm1.2")])
def test_a_failing_verify_names_its_first_failing_case_across_groups(
        monkeypatch, capsys, split_groups, split, thm12_trial, prop34_trial, first):
    """Split, thm1.2 and prop3.4 run in groups of their own (in two
    processes where this one may fork): with a failure planted in each, or
    in one, each is an error row of its check's campaign, and the error
    line counts them and names the first in (trial, check) order."""
    dims, seed, ids = (2, 3, 4), 31, ["thm1.2", "prop3.4"]
    assert checks.groups(ids) == [["thm1.2"], ["prop3.4"]]
    split_groups(split)
    trials = {"thm1.2": thm12_trial, "prop3.4": prop34_trial}
    for cid, i in trials.items():
        if i is not None:
            case = falsify.sample_case(cid, dims[i % 3], derive_stream(seed, i))
            plant_failure(monkeypatch, cid, [case.matrices["a"]])
    report, err = verify_error(capsys, ids, 12, dims, seed)
    assert_reaped()
    planted = [i for i in trials.values() if i is not None]
    assert err == error_line(len(planted), first, trials[first])
    for campaign in report["campaigns"]:
        i = trials[campaign["check"]]
        if i is None:
            assert "errors" not in campaign
        else:
            assert campaign["errors"] == [planted_row(campaign["check"], i)]


def test_failures_in_both_groups_give_one_report_split_or_not(
        monkeypatch, capsys, split_groups):
    """thm1.2 fails at trial 4 and prop3.4 at trial 2, each in its own
    group: split or not, verify writes the same report outside the
    timestamp, with one error row each, prints the same error line, exits
    3 and leaves no child unreaped.  Each row's (check, n, seed) samples
    again the case that raised, which raises its row's error alone."""
    dims, seed, ids = (2, 3, 4), 31, ["thm1.2", "prop3.4"]
    for cid, i in (("thm1.2", 4), ("prop3.4", 2)):
        plant_failure(monkeypatch, cid, [trial_case(cid, i).matrices["a"]])
    runs = []
    for split in (False, True):
        split_groups(split)
        report, err = verify_error(capsys, ids, 12, dims, seed)
        assert_reaped()
        report["header"].pop("timestamp")
        runs.append((json.dumps(report, sort_keys=True), err))
    assert runs[0] == runs[1]
    assert runs[0][1] == error_line(2, "prop3.4", 2)
    rows = [row for campaign in report["campaigns"] for row in campaign["errors"]]
    assert rows == [planted_row("thm1.2", 4), planted_row("prop3.4", 2)]
    for row in rows:
        case = falsify.sample_case(row["check"], row["n"], row["seed"])
        with pytest.raises(DomainError, match=f"^{row['message']}$"):
            falsify.run_case(case)


def test_a_failing_witness_trial_is_named(monkeypatch):
    """Trial 0 of a must-violate campaign is its check's witness: when it
    raises it is the row of trial 0, of seed None, and the other trials
    run."""
    real = checks.check_thm_1_2

    def fails_on_zero(g, a, b, **kw):
        if not np.reshape(a, (-1, 4)).any(axis=1).all():  # the 2x2 zero witness
            raise ConvergenceFailure("planted failure")
        return real(g, a, b, **kw)

    monkeypatch.setattr(checks, "check_thm_1_2", fails_on_zero)
    [report] = falsify.run_campaigns(["thm1.2"], "drop-vanishing", trials=6, dims=(2,))
    assert report.errors == [{"check": "thm1.2", "trial": 0, "n": 2, "seed": None,
                              "error": "ConvergenceFailure", "message": "planted failure"}]
    assert report.violations and all(cert["case"]["seed"] is not None
                                     for cert in report.violations)


def spy_flushes(monkeypatch) -> list:
    """Record the trials of each flush."""
    flushes = []
    real = falsify._run_pending

    def spy(pending, *args):
        flushes.append({i for stack in pending.values() for i, _ in stack})
        return real(pending, *args)

    monkeypatch.setattr(falsify, "_run_pending", spy)
    return flushes


def spy_runs(monkeypatch) -> tuple:
    """Count the runs of each case, by (check id, trial seed), and record
    (check id, stack size) of each stacked call that raised."""
    runs, raised = Counter(), []
    real = falsify.run_stack

    def spy(cases, **kwargs):
        runs.update((c.check_id, c.seed) for c in cases)
        try:
            return real(cases, **kwargs)
        except NormetryError:
            raised.append((cases[0].check_id, len(cases)))
            raise

    monkeypatch.setattr(falsify, "run_stack", spy)
    return runs, raised


def trial_case(cid, i, dims=(2, 3, 4), seed=31):
    return falsify.sample_case(cid, dims[i % len(dims)], derive_stream(seed, i))


def test_a_failure_in_the_last_flush_reruns_no_earlier_flush(monkeypatch):
    """A failing case reruns only cases of the flush that raised: every
    case of an earlier flush has passed and runs once."""
    dims, seed, ids = (2, 3, 4), 31, ["thm1.2", "prop3.4"]
    plant_failure(monkeypatch, "prop3.4", [trial_case("prop3.4", 11).matrices["a"]])
    monkeypatch.setattr(falsify, "STACK_BYTES", 2000)  # three trials or so a flush
    flushes = spy_flushes(monkeypatch)
    runs, raised = spy_runs(monkeypatch)
    _, prop34 = falsify.run_campaigns(ids, trials=12, dims=dims, root_seed=seed)
    assert prop34.errors == [planted_row("prop3.4", 11)]
    last = next(k for k, trials in enumerate(flushes) if 11 in trials)
    earlier = set().union(*flushes[:last])
    assert last >= 2 and earlier
    assert all(runs[cid, derive_stream(seed, i)] == 1 for i in earlier for cid in ids)
    assert len(flushes[last]) > 1 and raised[0][0] == "prop3.4"


def test_a_failing_flush_books_each_case_that_passes_alone_once(monkeypatch):
    """prop3.4's n = 3 stack (trials 1, 4, 7, 10) raises after three stacks
    have passed; its four cases rerun alone, and only trial 7's raises.
    Every other case reaches ``run_case`` once: trials 1, 4 and 10 of
    prop3.4 after their rerun, then the two n = 4 stacks.  Trial 7's case
    is its error row."""
    plant_failure(monkeypatch, "prop3.4", [trial_case("prop3.4", 7).matrices["a"]])
    runs, raised = spy_runs(monkeypatch)
    booked = []  # (check id, trial seed) of each run_case call, and the raises before it
    real = falsify.run_case

    def spy(case, **kwargs):
        booked.append(((case.check_id, case.seed), len(raised)))
        return real(case, **kwargs)

    monkeypatch.setattr(falsify, "run_case", spy)
    _, prop34 = falsify.run_campaigns(["thm1.2", "prop3.4"], trials=12, dims=(2, 3, 4),
                                      root_seed=31)
    assert prop34.errors == [planted_row("prop3.4", 7)]
    assert raised == [("prop3.4", 4), ("prop3.4", 1)]
    assert len(booked) == len({case for case, _ in booked}) == 23
    assert [before for _, before in booked] == [0] * 12 + [2] * 11
    assert [case for case, _ in booked[12:15]] == [
        ("prop3.4", derive_stream(31, i)) for i in (1, 4, 10)]
    assert sum(runs.values()) == 6 * 4 + 4


def test_an_earlier_trial_of_a_later_stack_is_named_first(
        monkeypatch, capsys, split_groups):
    """In one group, thm1.2's n = 2 stack (four trials and its two
    witnesses) runs first and fails at trial 9; prop3.4's fails at trial 7,
    which the error line names first."""
    split_groups(False)
    plant_failure(monkeypatch, "thm1.2", [trial_case("thm1.2", 9).matrices["a"]])
    plant_failure(monkeypatch, "prop3.4", [trial_case("prop3.4", 7).matrices["a"]])
    flushes = spy_flushes(monkeypatch)
    _, raised = spy_runs(monkeypatch)
    _, err = verify_error(capsys, ["thm1.2", "prop3.4"], 12, (2, 3, 4), 31)
    assert len(flushes) == 1
    assert raised[0] == ("thm1.2", 6)
    assert err == error_line(2, "prop3.4", 7)


def test_a_failing_flush_reruns_alone_only_the_cases_of_the_stacks_that_raise(monkeypatch):
    """prop3.4 fails at trial 999 of a 16-check, 1,000-trial campaign: the
    flush that raised makes at most one stacked call per stack it holds
    and one call per case of the failing stack.  (Rerunning every case
    left in the flush one at a time took 5,912 calls.)"""
    dims, seed = range(1, 9), 7
    plant_failure(monkeypatch, "prop3.4",
                  [trial_case("prop3.4", 999, dims, seed).matrices["a"]])
    calls, flushes = [], []  # per flush: (its stacks, the failing stack's cases, calls before)
    real_stack, real_pending = falsify.run_stack, falsify._run_pending

    def spy_stack(cases, **kwargs):
        calls.append(len(cases))
        return real_stack(cases, **kwargs)

    def spy_pending(pending, *args):
        failing = [stack for stack in pending.values()
                   if any(i == 999 and case.check_id == "prop3.4" for i, case in stack)]
        flushes.append((len(pending), sum(map(len, failing)), len(calls)))
        return real_pending(pending, *args)

    monkeypatch.setattr(falsify, "run_stack", spy_stack)
    monkeypatch.setattr(falsify, "_run_pending", spy_pending)
    reports = falsify.run_campaigns(checks.CHECK_IDS, trials=1000, dims=dims, root_seed=seed)
    assert [row for report in reports for row in report.errors] == [
        planted_row("prop3.4", 999, dims, seed)]
    stacks, failing_cases, before = flushes[-1]
    assert failing_cases > 1
    assert len(calls) - before <= stacks + failing_cases


def test_a_stack_error_no_case_raises_alone_is_raised_unchanged(monkeypatch):
    """Guards decide each matrix as alone, so a stack that fails has a case
    that fails alone; where none does, the stack's own error is raised
    as it was, not swallowed, once its cases have rerun alone."""
    real = checks.check_prop_3_4

    def fails_in_stacks(a, b, **kw):
        if np.ndim(a) == 3 and len(a) > 1:
            raise ConvergenceFailure("stacked failure")
        return real(a, b, **kw)

    monkeypatch.setattr(checks, "check_prop_3_4", fails_in_stacks)
    runs, raised = spy_runs(monkeypatch)
    with pytest.raises(ConvergenceFailure, match="^stacked failure$"):
        falsify.run_campaigns(["prop3.4"], trials=6, dims=(2, 3), root_seed=31)
    assert raised == [("prop3.4", 3)]
    assert sum(runs.values()) == 3 + 3


def test_stacks_stay_under_the_byte_budget(monkeypatch):
    """Small budgets split a campaign's cases into more, smaller stacks and
    leave its report unchanged."""
    ids, dims = ["thm1.2", "cs-lemma"], (2, 3)
    reference = falsify.run_campaigns(ids, trials=12, dims=dims, keep_verdicts=True)
    sizes = []
    real_stack = falsify.run_stack
    def spy(cases, **kwargs):
        sizes.append(len(cases))
        return real_stack(cases, **kwargs)

    monkeypatch.setattr(falsify, "run_stack", spy)
    monkeypatch.setattr(falsify, "STACK_BYTES", 3000)  # about five trials at n <= 3
    budgeted = falsify.run_campaigns(ids, trials=12, dims=dims, keep_verdicts=True)
    assert 1 < max(sizes) < 6
    for r, b in zip(reference, budgeted):
        assert (r.verdicts, r.violations, r.min_margin) == (b.verdicts, b.violations,
                                                            b.min_margin)


@pytest.mark.parametrize("budget", [2000, 5000])
def test_a_flush_of_several_trials_holds_at_most_the_byte_budget(monkeypatch, budget):
    """A trial joins a flush by the operand bytes it recorded, so a flush of
    more than one trial holds at most ``STACK_BYTES`` of them, whatever the
    sizes of the trials before it (thm1.1 draws two or three operands)."""
    flushes = []  # (trials, recorded operand bytes) of each flush
    real = falsify._run_pending

    def spy(pending, *args):
        specs = {m for stack in pending.values() for _, case in stack
                 for m in case.matrices.values()}
        flushes.append((len({i for stack in pending.values() for i, _ in stack}),
                        sum(spec.n * spec.n * 16 for spec in specs)))
        return real(pending, *args)

    monkeypatch.setattr(falsify, "_run_pending", spy)
    monkeypatch.setattr(falsify, "STACK_BYTES", budget)
    for seed in range(4):
        falsify.run_campaigns(["thm1.1"], trials=60, dims=(2, 3, 4, 5, 6), root_seed=seed)
    several = [size for trials, size in flushes if trials > 1]
    assert several and max(several) <= budget


# --- values at the ends of the float range ---------------------------------


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_non_finite_commutator_is_a_domain_error():
    with pytest.raises(DomainError, match="commutator"):
        linalg.is_normal(np.diag([1e155, 1e155]))
    stack = np.stack([np.eye(2), np.diag([1e155, 1e155])]).astype(complex)
    with pytest.raises(DomainError, match="commutator"):
        linalg.is_normal(stack)
    assert linalg.is_normal(np.diag([1e150, 1e150]))  # squares still in range


def test_the_svd_stage_reports_non_convergence(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    x = np.zeros((3, 3), dtype=complex)
    x[0, 0] = 1.01e-9  # undecided by the Frobenius stage
    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(ConvergenceFailure, match="did not converge"):
        linalg._opnorm_within(x, np.eye(3, dtype=complex), 1e-9)
    with pytest.raises(ConvergenceFailure):
        linalg.opnorm(x)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_symmetrizing_near_the_float_maximum_stays_finite():
    top = 0.9e308
    out = linalg.matrix_abs(np.diag([top, 1.0]))
    assert np.isfinite(out).all()
    assert same_bits(out, np.diag([top, 1.0]).astype(complex))
    m = np.array([[top, top], [0.8 * top, 1.0]], dtype=complex)
    h = linalg.hermitian_part(m)
    assert np.isfinite(h).all()
    assert h[0, 1] == h[1, 0] == pytest.approx(0.9 * top, rel=1e-15) and h[0, 0] == top
    # one overflowing row leaves the other rows bit for bit as alone
    rows = np.stack([generate(GenSpec("general", 2, 1)), m,
                     generate(GenSpec("general", 2, 2))])
    stacked = linalg.hermitian_part(rows)
    for t in range(3):
        assert same_bits(stacked[t], linalg.hermitian_part(rows[t]))
    assert same_bits(stacked[0], (rows[0] + rows[0].conj().T) / 2)
    abs_rows = linalg.matrix_abs(np.stack([np.diag([top, 1.0]), np.eye(2)]))
    assert np.isfinite(abs_rows).all()
    assert same_bits(abs_rows[1], np.eye(2, dtype=complex))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_verdict_margins_of_a_stack_match_alone_near_the_top_of_the_range():
    a = np.stack([generate(GenSpec("normal", 3, s)) * 1e150 for s in (11, 12)])
    b = np.stack([generate(GenSpec("normal", 3, s)) * 1e150 for s in (13, 14)])
    for t, v in enumerate(checks.check_prop_3_4(a, b)):
        alone = checks.check_prop_3_4(a[t], b[t])
        assert v.records == alone.records
        assert all(math.isfinite(r.margin) for r in v.records)
