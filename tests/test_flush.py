"""The campaign flush: which cases share a stacked checker call, the
witness table run inside it, and the per-stack domain check of scalar
functions.  Grouping decides only how many calls a flush makes, never a
verdict's bits."""

import os
from dataclasses import replace

import numpy as np
import pytest

from normetry import checks, cli, falsify, linalg, scalarfn, witnesses
from normetry.errors import ConvergenceFailure, DomainError
from normetry.norms import DEFAULT_TOL


# first operands of witnesses: prop3.4's unitary pair, and the complementary
# projection of thm1.2's and ineq5's
_UNITARY_A = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
_COMPLEMENT_A = np.diag([1.0, 0.0]).astype(complex)


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def spy_stacks(monkeypatch):
    """Record the cases of each run_stack call."""
    seen = []
    real = falsify.run_stack

    def spy(cases, **kwargs):
        seen.append(list(cases))
        return real(cases, **kwargs)

    monkeypatch.setattr(falsify, "run_stack", spy)
    return seen


def count_checker_calls(monkeypatch) -> list:
    calls = []
    for cid, spec in checks.SPECS.items():
        def counted(*args, _run=spec.run, _cid=cid, **kwargs):
            calls.append(_cid)
            return _run(*args, **kwargs)
        monkeypatch.setitem(checks.SPECS, cid, replace(spec, run=counted))
    return calls


@pytest.mark.parametrize("cid, kinds", [("eigen-sum", {"psd", "general"}),
                                        ("prop2.1", {"pd", "psd"})])
def test_cases_of_both_kinds_share_a_stack(monkeypatch, cid, kinds):
    """eigen-sum (psd or general operands) and prop2.1 (pd or psd) decide
    per row, so the cases of one n and one list of operand names run in
    one stack whatever kinds they drew, and give the rows of the
    one-case-at-a-time path."""
    args = dict(trials=12, dims=(3,), root_seed=4, keep_verdicts=True)
    stacks = spy_stacks(monkeypatch)
    grouped = falsify.run_campaign(cid, **args)
    assert len(stacks) == 1
    assert {case.kinds["a"] for case in stacks[0]} == kinds
    monkeypatch.setattr(falsify, "STACK_BYTES", 0)  # one case per stack
    alone = falsify.run_campaign(cid, **args)
    assert len(stacks) == 1 + 12
    assert grouped.verdicts == alone.verdicts  # fingerprints, labels, margins
    assert bits(grouped.min_margin) == bits(alone.min_margin)


def single_call_rows(chosen, tol):
    return [witnesses.row(w, w.run(), tol) for w in chosen]


def record_bits(verdict) -> list:
    return [(r.label, *map(bits, r[1:])) for r in verdict.records]


def assert_same_rows(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        a, b = dict(a), dict(b)
        assert bits(a.pop("min_margin")) == bits(b.pop("min_margin")), a
        assert a == b


@pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-14])
@pytest.mark.parametrize("dims", [(1, 2), (3,)])
def test_witness_rows_from_the_flush_equal_single_call_rows(tol, dims):
    """With campaigns at the witnesses' n (they join them) and without (they
    form stacks of their own), each witness row has the bits of its own
    checker call, at its own tol, and the campaigns keep their reports."""
    rows, reports = witnesses.run(checks.CHECK_IDS, tol, trials=16, dims=dims,
                                  root_seed=7, keep_verdicts=True)
    assert_same_rows(rows, single_call_rows(witnesses.WITNESSES, tol))
    _, verdicts = falsify.run_with_fixed([w.fixed() for w in witnesses.WITNESSES],
                                         checks.CHECK_IDS, trials=2, dims=dims, tol=tol)
    for w, got in zip(witnesses.WITNESSES, verdicts):
        alone = w.run()
        assert (got.check_id, got.tol, got.fingerprint) == (alone.check_id, w.tol, "")
        assert record_bits(got) == record_bits(alone), w
    alone = falsify.run_campaigns(checks.CHECK_IDS, trials=16, dims=dims, root_seed=7,
                                  tol=tol, keep_verdicts=True)
    for got, expected in zip(reports, alone):
        assert (got.verdicts, got.violations) == (expected.verdicts, expected.violations)
        assert bits(got.min_margin) == bits(expected.min_margin)
    assert_same_rows(witnesses.run(checks.CHECK_IDS, tol)[0], rows)


def test_witnesses_join_the_campaign_stacks(monkeypatch, split_groups):
    """At verify-small's settings every witness joins a campaign stack: the
    witness table adds no stack and no checker call, and its rows (the
    cases without a seed) make no ``run_case`` call.  The counts are of one
    group of all the checks, whose calls these spies see in this process."""
    split_groups(False)
    stacks = spy_stacks(monkeypatch)
    calls = count_checker_calls(monkeypatch)
    run_cases = []
    real_run_case = falsify.run_case
    monkeypatch.setattr(falsify, "run_case",
                        lambda case, **kw: run_cases.append(case) or real_run_case(case, **kw))
    args = dict(trials=20, dims=(1, 2, 3, 4, 5, 6, 7, 8), root_seed=7)
    witnesses.run(checks.CHECK_IDS, DEFAULT_TOL, **args)
    assert len(run_cases) == 16 * 20
    assert all(case.seed is not None for case in run_cases)
    assert len(stacks) == len(calls) == 131
    assert all(any(case.seed is not None for case in cases) for cases in stacks)
    joined = [rows for rows in ([c for c in cases if c.seed is None] for cases in stacks)
              if rows]
    assert len(joined) == 18 and sum(map(len, joined)) == len(witnesses.WITNESSES)
    stacks.clear()
    calls.clear()
    falsify.run_campaigns(checks.CHECK_IDS, **args)
    assert len(stacks) == len(calls) == 131


def test_witness_scalars_match_their_checkers_draws():
    """A witness joins the stack of its checker's campaign cases, so its
    scalars have the names and types of that checker's draw."""
    for w in witnesses.WITNESSES:
        assert falsify._types(w.scalars) == falsify._scalar_types(w.check_id), w


@pytest.mark.parametrize("dims", ["2,3", "3"])
@pytest.mark.parametrize("error, code", [(ConvergenceFailure, cli.EXIT_NUMERICAL),
                                         (DomainError, cli.EXIT_USAGE)])
def test_a_failing_witness_names_itself(monkeypatch, capsys, dims, error, code):
    """A witness that raises gives the exit code of its error, as when the
    witness table ran before the campaigns, and its message names it; it
    takes precedence over a failing trial."""
    marked = np.diag([1.0, 0.0]).astype(complex).tobytes()
    real_thm_1_2, real_prop_3_4 = checks.check_thm_1_2, checks.check_prop_3_4

    def fails_on_the_witness(g, a, b, **kw):
        if any(m.tobytes() == marked for m in np.reshape(a, (-1,) + a.shape[-2:])):
            raise error("planted failure")
        return real_thm_1_2(g, a, b, **kw)

    def fails_at_n3(a, b, **kw):
        if a.shape[-1] == 3:
            raise DomainError("planted trial failure")
        return real_prop_3_4(a, b, **kw)

    monkeypatch.setattr(checks, "check_thm_1_2", fails_on_the_witness)
    monkeypatch.setattr(checks, "check_prop_3_4", fails_at_n3)
    argv = ["verify", "--checks", "thm1.2,prop3.4", "--trials", "4", "--dims", dims,
            "--seed", "11"]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert ("witness thm1.2 (t^2 on complementary projections (equality)): "
            "planted failure") in err
    assert "trial" not in err


def planted_witness_failure(monkeypatch, name, marked):
    """Make checker ``name`` raise DomainError on a stack that holds the
    matrix ``marked`` as its first operand."""
    real = getattr(checks, name)
    position = 1 if name == "check_thm_1_2" else 0

    def planted(*args, **kw):
        a = args[position]
        if any(m.tobytes() == marked.tobytes() for m in np.reshape(a, (-1,) + a.shape[-2:])):
            raise DomainError("planted failure")
        return real(*args, **kw)

    monkeypatch.setattr(checks, name, planted)


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("planted, first", [
    ({"prop3.4": _UNITARY_A, "ineq5": _COMPLEMENT_A}, "prop3.4 (A=B unitary"),
    ({"prop3.4": _UNITARY_A, "thm1.2": _COMPLEMENT_A}, "thm1.2 (t^2 on complementary"),
    ({"prop3.4": _UNITARY_A}, "prop3.4 (A=B unitary"),
])
def test_a_failing_witness_in_either_group_names_itself(
        monkeypatch, capsys, split_groups, split, planted, first):
    """Witnesses run in the group of their check; a failing witness in
    either group comes before every failing trial, and of two failing
    witnesses the one earlier in the table raises, as in one run."""
    names = {"prop3.4": "check_prop_3_4", "thm1.2": "check_thm_1_2",
             "ineq5": "check_ineq_5"}
    for cid, marked in planted.items():
        planted_witness_failure(monkeypatch, names[cid], marked)
    real_thm_1_2 = checks.check_thm_1_2

    def fails_at_n3(g, a, b, **kw):
        if a.shape[-1] == 3:
            raise DomainError("planted trial failure")
        return real_thm_1_2(g, a, b, **kw)

    monkeypatch.setattr(checks, "check_thm_1_2", fails_at_n3)
    argv = ["verify", "--checks", "thm1.2,prop3.4,ineq5", "--trials", "4",
            "--dims", "2,3", "--seed", "11"]
    split_groups(split)
    assert cli.main(argv) == cli.EXIT_USAGE
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    err = capsys.readouterr().err
    assert err.startswith(f"error: witness {first}") and err.endswith(": planted failure\n")
    assert err.count("\n") == 1


def row_fns():
    return [scalarfn.sqrt_fn(), scalarfn.log1p_fn(), scalarfn.inv_sqrt_fn()]


def test_rows_in_the_domain_keep_their_bits():
    """A stack inside every row's domain goes to the raw functions and
    gives each row the bits of the row's own ScalarFn call; a zero is in
    the domain of a function that is not singular at 0."""
    rng = np.random.default_rng(3)
    w = np.sort(rng.uniform(0.0, 5.0, (3, 4)))[:, ::-1].copy()
    w[0, -1] = w[1, -1] = 0.0
    fns = [scalarfn.sqrt_fn(), scalarfn.log1p_fn(), scalarfn.power_fn(0.3)]
    out = linalg._apply_rows(fns, w)
    for t, fn in enumerate(fns):
        assert out[t].tobytes() == fn(w[t]).tobytes()
    w[2, -1] = 1e-300
    out = linalg._apply_rows(row_fns(), w[[2, 2, 2]])
    for t, fn in enumerate(row_fns()):
        assert out[t].tobytes() == fn(w[2]).tobytes()


def test_the_first_failing_row_raises_its_own_domain_error():
    """In a stack of 3, a negative entry in the middle row raises that
    row's function's error, and so does a zero under the middle row's
    function that is singular at 0 (a zero elsewhere is in its row's
    domain), ahead of a later failing row; a negative eigenvalue past the
    clamp raises in the spectral calculus before any function is called."""
    sqrt, log1p, inv_sqrt = row_fns()
    w = np.array([[2.0, 1.0], [1.0, -0.5], [3.0, 1.0]])
    with pytest.raises(DomainError, match="^log1p evaluated at t < 0$"):
        linalg._apply_rows([sqrt, log1p, inv_sqrt], w)
    w = np.array([[2.0, 0.0], [1.0, 0.0], [3.0, 1.0]])
    with pytest.raises(DomainError, match="^inv-sqrt is singular at 0$"):
        linalg._apply_rows([sqrt, inv_sqrt, log1p], w)
    w[2, 1] = -1.0
    with pytest.raises(DomainError, match="^inv-sqrt is singular at 0$"):
        linalg._apply_rows([sqrt, inv_sqrt, log1p], w)
    stack = np.array([np.eye(2), np.diag([1.0, -1.0]), np.eye(2)], dtype=complex)
    with pytest.raises(DomainError, match="below the roundoff clamp window"):
        linalg.spectral_apply([sqrt, log1p, sqrt], stack)
