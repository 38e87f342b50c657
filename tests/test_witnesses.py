from dataclasses import replace

import numpy as np
import pytest

from normetry import checks, witnesses
from normetry.norms import DEFAULT_TOL


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


@pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-14])
def test_stacked_table_rows_equal_single_call_rows(tol):
    """Each row of the stacked witness table is the row of the witness's
    own checker call: check, description, equality, pass and the bits of
    its min margin."""
    declared = [w for spec in checks.SPECS.values() for w in spec.witnesses]
    rows = witnesses.run(checks.CHECK_IDS, tol)[0]
    assert len(rows) == len(declared) == 32
    for w, got in zip(declared, rows):
        alone = witnesses.row(w, w.run(), tol)
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
    rows = witnesses.run(["thm3.1", "ineq5", "identity6"], DEFAULT_TOL)[0]
    assert len(rows) == 6 and all(row["pass"] for row in rows)
    # thm3.1 has a 1 x 1 and a 2 x 2 witness; ineq5's and identity6's share n
    assert sorted(calls) == ["identity6", "ineq5", "thm3.1", "thm3.1"]



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


def test_witness_rows_come_two_per_check_in_check_order():
    """The rows are the witnesses each checker declares, in check order,
    whatever order the checks are chosen in."""
    rows = witnesses.run(checks.CHECK_IDS, DEFAULT_TOL)[0]
    assert [(row["check"], row["description"]) for row in rows] == ROWS
    assert all(row["pass"] for row in rows)
    some = witnesses.run(["prop3.4", "ineq5", "thm1.2"], DEFAULT_TOL)[0]
    assert [(row["check"], row["description"]) for row in some] == [
        row for row in ROWS if row[0] in ("thm1.2", "prop3.4", "ineq5")]
