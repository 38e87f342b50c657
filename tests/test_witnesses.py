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
    assert len(witnesses.WITNESSES) == 32
    rows = witnesses.run(checks.CHECK_IDS, tol)[0]
    assert len(rows) == 32
    for w, got in zip(witnesses.WITNESSES, rows):
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

