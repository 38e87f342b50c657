"""The campaign flush: which cases share a stacked checker call, the
witness table run inside it, and the per-stack domain check of scalar
functions.  Grouping decides only how many calls a flush makes, never a
verdict's bits."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from normetry import checks, cli, falsify, linalg, scalarfn
from normetry.errors import ConvergenceFailure, DimensionMismatch, DomainError
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
    [grouped] = falsify.run_campaigns([cid], **args)
    assert len(stacks) == 1
    assert {case.kinds["a"] for case in stacks[0]} == kinds
    monkeypatch.setattr(falsify, "STACK_BYTES", 0)  # one case per stack
    [alone] = falsify.run_campaigns([cid], **args)
    assert len(stacks) == 1 + 12
    assert grouped.verdicts == alone.verdicts  # fingerprints, labels, margins
    assert bits(grouped.min_margin) == bits(alone.min_margin)


# every check's witnesses, in check order
WITNESSES = [w for spec in checks.SPECS.values() for w in spec.witnesses]


def single_call_rows(chosen, tol):
    return [falsify.witness_row(w, w.run(), tol) for w in chosen]


def record_bits(verdict) -> list:
    return [(r.label, *map(bits, r[1:])) for r in verdict.records]


def assert_same_rows(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        a, b = dict(a), dict(b)
        assert bits(a.pop("min_margin")) == bits(b.pop("min_margin")), a
        assert a == b


def witness_rows(reports) -> list:
    return [row for report in reports for row in report.witnesses]


@pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-14])
@pytest.mark.parametrize("dims", [(1, 2), (3,)])
def test_witness_rows_from_the_flush_equal_single_call_rows(monkeypatch, tol, dims):
    """With campaigns at the witnesses' n (they join them) and without (they
    form stacks of their own), each witness row has the bits of its own
    checker call, at its own tol, and the campaigns keep their reports."""
    reports = falsify.run_campaigns(checks.CHECK_IDS, trials=16, dims=dims, root_seed=7,
                                    tol=tol, keep_verdicts=True, witnesses=True)
    rows = witness_rows(reports)
    assert_same_rows(rows, single_call_rows(WITNESSES, tol))
    verdicts = []  # each witness row's verdict, as the flush books it
    real_row = falsify.witness_row
    monkeypatch.setattr(falsify, "witness_row",
                        lambda w, v, t: verdicts.append(v) or real_row(w, v, t))
    falsify.run_campaigns(checks.CHECK_IDS, trials=2, dims=dims, tol=tol, witnesses=True)
    assert len(verdicts) == len(WITNESSES)
    for w, got in zip(WITNESSES, verdicts):
        alone = w.run()
        assert (got.check_id, got.tol, got.fingerprint) == (alone.check_id, w.tol, "")
        assert record_bits(got) == record_bits(alone), w
    alone = falsify.run_campaigns(checks.CHECK_IDS, trials=16, dims=dims, root_seed=7,
                                  tol=tol, keep_verdicts=True)
    for got, expected in zip(reports, alone):
        assert (got.verdicts, got.violations) == (expected.verdicts, expected.violations)
        assert bits(got.min_margin) == bits(expected.min_margin)
        assert not expected.witnesses
    assert_same_rows(witness_rows(falsify.run_campaigns(
        checks.CHECK_IDS, trials=1, dims=(3,), tol=tol, witnesses=True)), rows)


def test_witnesses_join_the_campaign_stacks(monkeypatch):
    """At verify-small's settings every witness joins a campaign stack: the
    witness table adds no stack and no checker call, and its rows (the
    cases without a seed) make no ``run_case`` call.  The counts are of one
    run of all the checks, whose calls these spies see in this process."""
    stacks = spy_stacks(monkeypatch)
    calls = count_checker_calls(monkeypatch)
    run_cases = []
    real_run_case = falsify.run_case
    monkeypatch.setattr(falsify, "run_case",
                        lambda case, **kw: run_cases.append(case) or real_run_case(case, **kw))
    args = dict(trials=20, dims=(1, 2, 3, 4, 5, 6, 7, 8), root_seed=7)
    falsify.run_campaigns(checks.CHECK_IDS, witnesses=True, **args)
    assert len(run_cases) == 16 * 20
    assert all(case.seed is not None for case in run_cases)
    assert len(stacks) == len(calls) == 131
    assert all(any(case.seed is not None for case in cases) for cases in stacks)
    joined = [rows for rows in ([c for c in cases if c.seed is None] for cases in stacks)
              if rows]
    assert len(joined) == 18 and sum(map(len, joined)) == len(WITNESSES)
    stacks.clear()
    calls.clear()
    falsify.run_campaigns(checks.CHECK_IDS, **args)
    assert len(stacks) == len(calls) == 131


def test_witness_scalars_match_their_checkers_draws():
    """A witness joins the stack of its checker's campaign cases, so its
    scalars have the names and types of that checker's draw."""
    for w in WITNESSES:
        assert falsify._types(w.scalars) == falsify._scalar_types(w.check_id), w


@pytest.mark.parametrize("dims", ["2,3", "3"])
@pytest.mark.parametrize("error, code", [(ConvergenceFailure, cli.EXIT_NUMERICAL),
                                         (DomainError, cli.EXIT_USAGE)])
def test_a_failing_witness_names_itself(monkeypatch, capsys, tmp_path, dims, error, code):
    """A witness that raises alone is an error row of its check, with its
    description and no trial or seed; the error line names it before every
    failing trial, and the run exits 3 whatever its error.  Where the
    witness's stack raises but the witness passes alone, that error is
    raised unchanged, with its own exit code."""
    marked = np.diag([1.0, 0.0]).astype(complex).tobytes()
    real_thm_1_2, real_prop_3_4 = checks.check_thm_1_2, checks.check_prop_3_4
    alone = [True]  # whether the witness raises when it runs alone

    def fails_on_the_witness(g, a, b, **kw):
        rows = np.reshape(a, (-1,) + a.shape[-2:])
        if (alone[0] or len(rows) > 1) and any(m.tobytes() == marked for m in rows):
            raise error("planted failure")
        return real_thm_1_2(g, a, b, **kw)

    def fails_at_n3(a, b, **kw):
        if a.shape[-1] == 3:
            raise DomainError("planted trial failure")
        return real_prop_3_4(a, b, **kw)

    monkeypatch.setattr(checks, "check_thm_1_2", fails_on_the_witness)
    monkeypatch.setattr(checks, "check_prop_3_4", fails_at_n3)
    out = tmp_path / "report.json"
    argv = ["verify", "--checks", "thm1.2,prop3.4", "--trials", "4", "--dims", dims,
            "--seed", "11", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_NUMERICAL
    description = "t^2 on complementary projections (equality)"
    sizes = [int(d) for d in dims.split(",")]
    trials = [i for i in range(4) if sizes[i % len(sizes)] == 3]  # prop3.4 raises
    assert capsys.readouterr().err == (
        f"error: {1 + len(trials)} cases raised; first: witness thm1.2 ({description}): "
        "planted failure\n")
    thm12, prop34 = json.loads(out.read_text())["campaigns"]
    assert thm12["errors"] == [{"check": "thm1.2", "trial": None, "n": 2, "seed": None,
                                "error": error.__name__, "message": "planted failure",
                                "description": description}]
    assert [row["trial"] for row in prop34["errors"]] == trials
    alone[0] = False
    assert cli.main(argv) == code
    assert capsys.readouterr().err.endswith(": planted failure\n")


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
    either group is an error row, named before every failing trial, and
    of two failing witnesses the error line names the one earlier in the
    table, as in one run."""
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
    assert cli.main(argv) == cli.EXIT_NUMERICAL
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    out, err = capsys.readouterr()
    rows = [row for c in json.loads(out)["campaigns"] for row in c.get("errors", [])]
    assert {row["check"] for row in rows if row["trial"] is None} == set(planted)
    assert [(row["check"], row["trial"]) for row in rows if row["trial"] is not None] == [
        ("thm1.2", 1), ("thm1.2", 3)]
    assert err.startswith(f"error: {len(rows)} cases raised; first: witness {first}")
    assert err.endswith(": planted failure\n") and err.count("\n") == 1


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


def test_a_function_per_row_must_match_the_rows():
    """A sequence of functions shorter than the stack leaves no row
    uncomputed: it raises."""
    stack = np.stack([np.eye(2, dtype=complex)] * 3)
    with pytest.raises(DimensionMismatch, match="^1 functions for 3 rows$"):
        linalg.spectral_apply([scalarfn.sqrt_fn()], stack)


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
