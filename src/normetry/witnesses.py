"""Hand-computed witness table for every checker.

Each entry is a small fixed instance with a known outcome: either an exact
equality (|min margin| must be within tolerance) or a strict pass.  The
verify command runs this table alongside the random campaigns, and the
equality entries double as a guard against checkers reporting spurious
slack.  An entry is data: its operands, scalar-function descriptor and
scalars go to its checker through ``checks.SPECS``.  ``run`` hands the
entries to the campaign flush as fixed cases (``falsify.run_with_fixed``):
each joins the stacked checker call of the campaign cases of its check id,
n and operand names, or, where it finds none, the call of its group's
entries alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import checks, falsify, scalarfn, workers
from .errors import NormetryError
from .norms import DEFAULT_TOL, Verdict

_I2 = np.eye(2, dtype=complex)
_Z2 = np.zeros((2, 2), dtype=complex)
_D10 = np.diag([1.0, 0.0]).astype(complex)
_D01 = np.diag([0.0, 1.0]).astype(complex)
_PSD_A = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
_PSD_B = np.array([[3.0, -1.0], [-1.0, 1.0]], dtype=complex)
_HERM = np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)
_GEN = np.array([[1.0, 2.0 + 1.0j], [0.5j, -1.0]], dtype=complex)
_UNITARY = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
_CONTRACTION = np.diag([0.6, 0.3]).astype(complex)


@dataclass(frozen=True)
class Witness:
    check_id: str
    description: str
    equality: bool  # min margin must be ~0, not merely >= -tol
    operands: dict  # name -> matrix, as checks.SPECS names them
    fn: dict | None = None  # scalar-function descriptor
    scalars: dict = field(default_factory=dict)
    tol: float = DEFAULT_TOL

    def run(self) -> Verdict:
        """The witness's verdict, from one checker call of its own."""
        fn = None if self.fn is None else scalarfn.from_descriptor(self.fn)
        return checks.SPECS[self.check_id].run(
            fn, self.operands, self.scalars, tol=self.tol, enforce=True)

    def fixed(self) -> falsify.FixedCase:
        """The witness as a fixed case of a campaign flush."""
        n = next(iter(self.operands.values())).shape[0]
        case = falsify.Case(self.check_id, n, None, dict(self.operands), {},
                            dict(self.scalars), self.fn)
        return falsify.FixedCase(
            f"witness {self.check_id} ({self.description})", case, self.tol)


def _one_by_one(v: float) -> np.ndarray:
    return np.array([[v]], dtype=complex)


_SQRT = {"kind": "sqrt"}
_IDENTITY = {"kind": "power", "s": 1.0}
_JK0 = {"j": 0, "k": 0}
_ONES = {name: _one_by_one(1) for name in "abcd"}

WITNESSES: tuple[Witness, ...] = (
    Witness("thm1.1", "sqrt on complementary projections (equality)", True,
            {"a0": _D10, "a1": _D01}, _SQRT),
    Witness("thm1.1", "sqrt on A=B=I", False, {"a0": _I2, "a1": _I2}, _SQRT),
    Witness("thm1.2", "t^2 on complementary projections (equality)", True,
            {"a": _D10, "b": _D01}, {"kind": "power-m", "m": 2}),
    Witness("thm1.2", "t^2 on A=B=I", False,
            {"a": _I2, "b": _I2}, {"kind": "power-m", "m": 2}),
    Witness("davis-hansen", "Z=I (equality)", True, {"a": _PSD_A, "z": _I2}, _SQRT),
    Witness("davis-hansen", "f=t with a strict contraction (equality)", True,
            {"a": _PSD_A, "z": _CONTRACTION}, _IDENTITY),
    Witness("pinching-eq2", "sqrt on A=B=I", False, {"a": _I2, "b": _I2}, _SQRT),
    Witness("pinching-eq2", "f=t makes both sides A+B (equality)", True,
            {"a": _PSD_A, "b": _PSD_B + 2 * _I2}, _IDENTITY),
    Witness("prop2.1", "1/sqrt(t) with A+B=4I (equality)", True,
            {"a": np.diag([3.0, 1.0]).astype(complex),
             "b": np.diag([1.0, 3.0]).astype(complex)}, {"kind": "inv-sqrt"}),
    Witness("prop2.1", "constant g makes both sides A+B (equality)", True,
            {"a": _PSD_A, "b": _PSD_B}, {"kind": "constant", "c": 1.0}),
    Witness("thm2.4", "Z=sqrt(2) I, A=I, f=sqrt", False,
            {"a": _I2, "z": np.sqrt(2.0) * _I2}, _SQRT),
    Witness("thm2.4", "Z=I (equality)", True, {"a": _PSD_A, "z": _I2}, _SQRT),
    Witness("eigen-sum", "f=t, j=k=0 is Weyl subadditivity", False,
            {"a": _PSD_A, "b": _PSD_B}, _IDENTITY, _JK0),
    Witness("eigen-sum", "sqrt on disjoint diagonals, j=k=0", False,
            {"a": 4 * _D10, "b": 4 * _D01}, _SQRT, _JK0),
    Witness("cs-lemma", "single identity term (equality)", True,
            {"a1": _I2, "a2": _Z2, "b1": _I2, "b2": _Z2, "c1": _I2, "c2": _I2}),
    Witness("cs-lemma", "A_i=B_i with identity contractions (equality)", True,
            {"a1": _PSD_A, "a2": _PSD_B, "b1": _PSD_A, "b2": _PSD_B,
             "c1": _I2, "c2": _I2}),
    Witness("ineq4", "A=B=I (equality)", True, {"a": _I2, "b": _I2}),
    Witness("ineq4", "B=-A gives zero LHS", False, {"a": _GEN, "b": -_GEN}),
    Witness("thm3.1", "scalar all-ones blocks", False, _ONES),
    Witness("thm3.1", "B=C=0 reduces to the block-diagonal fact", False,
            {"a": _PSD_A, "b": _Z2, "c": _Z2, "d": _PSD_B}),
    Witness("thm3.2", "scalar all-ones blocks (equality)", True, _ONES),
    Witness("thm3.2", "B=C=D=0 (equality)", True,
            {"a": _HERM, "b": _Z2, "c": _Z2, "d": _Z2}),
    Witness("cor3.3", "A=B=0 reaches the top singular value (equality)", True,
            {"a": _Z2, "b": _Z2, "x": _GEN}),
    Witness("cor3.3", "X=0 (equality)", True,
            {"a": _HERM, "b": _PSD_A - 2 * _I2, "x": _Z2}),
    Witness("prop3.4", "A=I, B=-I gives zero LHS", False, {"a": _I2, "b": -_I2}),
    Witness("prop3.4", "A=B unitary (equality at every Ky Fan k)", True,
            {"a": _UNITARY, "b": _UNITARY}),
    Witness("prop3.5", "S=T=diag(1,-1), j=k=0 (equality)", True,
            {"s": np.diag([1.0, -1.0]).astype(complex),
             "t": np.diag([1.0, -1.0]).astype(complex)}, scalars=_JK0),
    Witness("prop3.5", "T=0, j=k=0 (equality)", True,
            {"s": _HERM, "t": _Z2}, scalars=_JK0),
    Witness("ineq5", "real positive z (equality)", True, {"a": _PSD_A, "b": _PSD_B},
            scalars={"z_re": 0.7, "z_im": 0.0, "m": 2}),
    Witness("ineq5", "z=-1, m=1 on complementary projections (equality)", True,
            {"a": _D10, "b": _D01}, scalars={"z_re": -1.0, "z_im": 0.0, "m": 1}),
    Witness("identity6", "m=1 is exact", True, {"a": _PSD_A, "b": _PSD_B},
            scalars={"m": 1}, tol=1e-12),
    Witness("identity6", "m=2 expands algebraically", True, {"a": _PSD_A, "b": _PSD_B},
            scalars={"m": 2}, tol=1e-12),
)


def witnesses_for(check_ids) -> list[Witness]:
    wanted = set(check_ids)
    return [w for w in WITNESSES if w.check_id in wanted]


def row(witness: Witness, verdict: Verdict, tol: float) -> dict:
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


def run(check_ids, tol: float, **campaigns) -> tuple[list[dict], list]:
    """The witness rows of the verify report for ``check_ids``, and, given
    ``campaigns``, the other keyword arguments of ``falsify.run_campaigns``
    (``trials``, ``dims``, ...), the campaign reports of ``check_ids`` at
    ``tol``, from the same flushes.

    Where ``workers.parallel()``, the campaigns run in ``checks.groups``,
    one process each (``workers.run_groups``), each group with its own
    witnesses; else in one group of them all, on the same path.  The rows
    and reports come back in the order of one run of them all, with the
    same bits.  A failing case raises as in one run: a failing witness
    first, in table order, then the first failing trial in (trial, stage,
    check) order, where a case that fails to sample comes before every
    case of its trial that runs.
    """
    check_ids = list(check_ids)
    chosen = witnesses_for(check_ids)

    def run_group(ids):
        mine = [p for p, w in enumerate(chosen) if w.check_id in ids]
        try:
            reports, verdicts = falsify.run_with_fixed(
                [chosen[p].fixed() for p in mine], ids if campaigns else (), tol=tol,
                **campaigns)
        except NormetryError as exc:
            if not hasattr(exc, "case"):
                return workers.FIRST, exc
            i, stage, cid = exc.case
            # a witness waits at its index in ``mine`` less len(mine)
            key = ((mine[i] - len(chosen),) if i < 0
                   else (i, stage, checks.CHECK_IDS.index(cid)))
            return key, exc
        return None, ({p: row(chosen[p], v, tol) for p, v in zip(mine, verdicts)}, reports)

    rows, reports = {}, {}
    groups = checks.groups(check_ids) if campaigns and workers.parallel() else [check_ids]
    for group_rows, group_reports in workers.run_groups(run_group, groups):
        rows.update(group_rows)
        reports.update((report.check_id, report) for report in group_reports)
    return ([rows[p] for p in range(len(chosen))],
            [reports[cid] for cid in check_ids] if campaigns else [])
