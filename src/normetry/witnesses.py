"""The witness rows of the verify report.

Every check declares its witnesses at its checker (``checks.Witness``, in
``CheckSpec.witnesses``): small fixed instances with a known outcome,
either an exact equality (|min margin| must be within tolerance) or a
strict pass.  The equality entries double as a guard against checkers
reporting spurious slack.  ``run`` hands the witnesses of the chosen checks
to the campaign flush (``falsify.run_with_witnesses``): each joins the
stacked checker call of the campaign cases of its check id, n and operand
names, or, where it finds none, the call of its group's witnesses alone.
"""

from __future__ import annotations

from . import checks, falsify, workers
from .errors import NormetryError
from .norms import Verdict


def row(witness: checks.Witness, verdict: Verdict, tol: float) -> dict:
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
    first, in check order, then the first failing trial in (trial, stage,
    check) order, where a case that fails to sample comes before every
    case of its trial that runs.
    """
    check_ids = list(check_ids)
    chosen = [w for cid in checks.CHECK_IDS if cid in check_ids
              for w in checks.SPECS[cid].witnesses]

    def run_group(ids):
        mine = [p for p, w in enumerate(chosen) if w.check_id in ids]
        try:
            reports, verdicts = falsify.run_with_witnesses(
                [chosen[p] for p in mine], ids if campaigns else (), tol=tol, **campaigns)
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
