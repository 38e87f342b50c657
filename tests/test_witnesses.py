import json
from dataclasses import replace

import numpy as np
import pytest

from normetry import checks, cli, falsify
from normetry.norms import DEFAULT_TOL


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def witness_rows(check_ids, tol=DEFAULT_TOL) -> list:
    """The witness rows of ``check_ids``' reports, from one trial at n = 3,
    which no witness has, so the witnesses stack alone."""
    reports = falsify.run_campaigns(check_ids, trials=1, dims=(3,), tol=tol,
                                    witnesses=True)
    return [row for report in reports for row in report.witnesses]


@pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-14])
def test_stacked_table_rows_equal_single_call_rows(tol):
    """Each row of the stacked witness table is the row of the witness's
    own checker call: check, description, equality, pass and the bits of
    its min margin."""
    declared = [w for spec in checks.SPECS.values() for w in spec.witnesses]
    rows = witness_rows(checks.CHECK_IDS, tol)
    assert len(rows) == len(declared) == 32
    for w, got in zip(declared, rows):
        alone = falsify.witness_row(w, w.run(), tol)
        assert bits(got.pop("min_margin")) == bits(alone.pop("min_margin")), w
        assert got == alone, w


def test_table_makes_one_checker_call_per_group(monkeypatch):
    """The table calls each checker once per (check id, n) of its witnesses."""
    calls = []
    for cid, spec in checks.SPECS.items():
        def counted(*args, _run=spec.run, _cid=cid, **kwargs):
            calls.append(_cid)
            return _run(*args, **kwargs)
        monkeypatch.setitem(checks.SPECS, cid, replace(spec, run=counted))
    rows = witness_rows(["thm3.1", "ineq5", "identity6"])
    assert len(rows) == 6 and all(row["pass"] for row in rows)
    # thm3.1 has a 1 x 1 and a 2 x 2 witness; ineq5's and identity6's share
    # n; each check's one trial at n = 3 makes one call of its own
    assert sorted(calls) == ["identity6"] * 2 + ["ineq5"] * 2 + ["thm3.1"] * 3



# Every witness row of the verify report, in report order: two per check,
# declared at the check's checker.
ROWS = [
    ("thm1.1", "sqrt on complementary projections (equality)"),
    ("thm1.1", "sqrt on A=B=I"),
    ("thm1.2", "t^2 on complementary projections (equality)"),
    ("thm1.2", "t^2 on A=B=I"),
    ("davis-hansen", "Z=I (equality)"),
    ("davis-hansen", "f=t with a strict contraction (equality)"),
    ("pinching-eq2", "sqrt on A=B=I"),
    ("pinching-eq2", "f=t makes both sides A+B (equality)"),
    ("prop2.1", "1/sqrt(t) with A+B=4I (equality)"),
    ("prop2.1", "constant g makes both sides A+B (equality)"),
    ("thm2.4", "Z=sqrt(2) I, A=I, f=sqrt"),
    ("thm2.4", "Z=I (equality)"),
    ("eigen-sum", "f=t, j=k=0 is Weyl subadditivity"),
    ("eigen-sum", "sqrt on disjoint diagonals, j=k=0"),
    ("cs-lemma", "single identity term (equality)"),
    ("cs-lemma", "A_i=B_i with identity contractions (equality)"),
    ("ineq4", "A=B=I (equality)"),
    ("ineq4", "B=-A gives zero LHS"),
    ("thm3.1", "scalar all-ones blocks"),
    ("thm3.1", "B=C=0 reduces to the block-diagonal fact"),
    ("thm3.2", "scalar all-ones blocks (equality)"),
    ("thm3.2", "B=C=D=0 (equality)"),
    ("cor3.3", "A=B=0 reaches the top singular value (equality)"),
    ("cor3.3", "X=0 (equality)"),
    ("prop3.4", "A=I, B=-I gives zero LHS"),
    ("prop3.4", "A=B unitary (equality at every Ky Fan k)"),
    ("prop3.5", "S=T=diag(1,-1), j=k=0 (equality)"),
    ("prop3.5", "T=0, j=k=0 (equality)"),
    ("ineq5", "real positive z (equality)"),
    ("ineq5", "z=-1, m=1 on complementary projections (equality)"),
    ("identity6", "m=1 is exact"),
    ("identity6", "m=2 expands algebraically"),
]


def test_witness_rows_come_two_per_check_in_check_order(tmp_path):
    """The rows are the witnesses each checker declares, in check order,
    whatever order the checks are chosen in."""
    rows = witness_rows(checks.CHECK_IDS)
    assert [(row["check"], row["description"]) for row in rows] == ROWS
    assert all(row["pass"] for row in rows)
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--checks", "prop3.4,ineq5,thm1.2", "--trials", "1",
                     "--dims", "3", "--out", str(out)]) == cli.EXIT_OK
    some = json.loads(out.read_text())["witnesses"]
    assert [(row["check"], row["description"]) for row in some] == [
        row for row in ROWS if row[0] in ("thm1.2", "prop3.4", "ineq5")]
