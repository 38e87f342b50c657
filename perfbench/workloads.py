"""The benchmark's workloads: CLI calls, their timing, and the correctness gate.

Every call goes through ``normetry.cli.main`` in this process, exactly as
the ``normetry`` console script would make it, with files written where a
user would ask for them.  A repetition ("rep") is one unit of user work:
one ``verify`` call, or four ``falsify --cert-dir`` campaigns followed by a
``replay`` of every certificate they wrote.  Each rep of a run uses the
same seed, so the same inputs and the same output bytes.

The gate checks verdict content, never report bytes: the report format,
its fingerprints and its optional rows may change without failing a run.
"""

from __future__ import annotations

import io
import json
import math
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from normetry import cli

TOL = 1e-9  # the CLI's default tolerance, which every call uses
SMALL_DIMS = "1,2,3,4,5,6,7,8"
LARGE_DIMS = "32,128"
# the three must-violate mutations and the exploratory one, on a target each
FALSIFY_CAMPAIGNS = (
    ("thm1.1", "swap-function-class", "must-violate"),
    ("thm1.2", "drop-vanishing", "must-violate"),
    ("thm2.4", "drop-expansive", "must-violate"),
    ("thm3.1", "drop-normality", "exploratory"),
)
# the paper's statements; a verify of "all" must cover at least these
CHECK_IDS = (
    "thm1.1", "thm1.2", "davis-hansen", "pinching-eq2", "prop2.1", "thm2.4",
    "eigen-sum", "cs-lemma", "ineq4", "thm3.1", "thm3.2", "cor3.3",
    "prop3.4", "prop3.5", "ineq5", "identity6",
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "verify" or "falsify-replay"
    dims: str
    trials: int  # per checker (verify) or per campaign (falsify)
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-small", "verify", SMALL_DIMS, 20,
            "verify all checkers at dims 1-8: per-trial overhead (guards, "
            "fingerprints, generator set-up, report rows) dominates, LAPACK is small",
        ),
        Workload(
            "verify-large", "verify", LARGE_DIMS, 2,
            "verify all checkers at dims 32 and 128: O(n^3) LAPACK and O(n^2) "
            "serialization dominate, Python overhead per trial is negligible",
        ),
        Workload(
            "falsify-replay", "falsify-replay", SMALL_DIMS, 50,
            "mutation campaigns write certificates, then every one is replayed: "
            "serialize and scalarfn in both directions, no generation on replay",
        ),
    )
}


@dataclass
class Call:
    argv: list[str]
    rc: int | None  # None when cli.main raised
    stdout: str
    seconds: float


@dataclass
class Rep:
    """What one repetition did, before any output is parsed."""

    workload: Workload
    root: Path
    trials: int
    calls: list[Call] = field(default_factory=list)
    campaign_s: float = 0.0
    replay_s: float = 0.0
    replays: int = 0

    @property
    def campaign_trials(self) -> int:
        per = len(CHECK_IDS) if self.workload.command == "verify" else len(FALSIFY_CAMPAIGNS)
        return per * self.trials

    @property
    def wall_s(self) -> float:
        return self.campaign_s + self.replay_s

    @property
    def evaluations(self) -> int:
        return self.campaign_trials + self.replays

    def output_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.root.rglob("*") if p.is_file())

    def report_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.root.glob("report*.json"))


def call_cli(argv: list[str]) -> Call:
    """One ``normetry`` invocation, in process, with stdout captured."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:  # a crash is a failed call, reported and counted
        traceback.print_exc(file=sys.stderr)
        rc = None
    return Call(argv, rc, buf.getvalue(), time.perf_counter() - start)


def run_rep(workload: Workload, seed: int, root: Path, trials: int | None = None,
            between=None) -> Rep:
    """Run one repetition into ``root``; ``between`` runs before replays."""
    root.mkdir(parents=True, exist_ok=False)
    rep = Rep(workload, root, workload.trials if trials is None else trials)
    if workload.command == "verify":
        call = call_cli([
            "verify", "--checks", "all", "--dims", workload.dims,
            "--trials", str(rep.trials), "--seed", str(seed),
            "--out", str(root / "report.json"),
        ])
        rep.calls.append(call)
        rep.campaign_s = call.seconds
        return rep

    start = time.perf_counter()
    for check, mutation, _ in FALSIFY_CAMPAIGNS:
        rep.calls.append(call_cli([
            "falsify", "--check", check, "--mutate", mutation,
            "--dims", workload.dims, "--trials", str(rep.trials),
            "--seed", str(seed), "--out", str(root / f"report-{mutation}.json"),
            "--cert-dir", str(root / f"certs-{mutation}"),
        ]))
    rep.campaign_s = time.perf_counter() - start
    if between is not None:
        between(rep)
    start = time.perf_counter()
    for path in sorted(root.glob("certs-*/*.json")):
        rep.calls.append(call_cli(["replay", str(path)]))
        rep.replays += 1
    rep.replay_s = time.perf_counter() - start
    return rep


@dataclass
class Gate:
    """Outcome of checking one rep: counts plus the verdict content seen."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.problems.append(why)


def _load(path: Path, gate: Gate):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        gate.problems.append(f"{path.name}: unreadable ({exc})")
        return None


def _margin_ok(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def check_rep(rep: Rep) -> Gate:
    if rep.workload.command == "verify":
        return _check_verify(rep)
    return _check_falsify_replay(rep)


def _check_verify(rep: Rep) -> Gate:
    gate = Gate(attempted=rep.campaign_trials)
    call = rep.calls[0]
    if call.rc not in (0, 1):
        gate.fail(rep.campaign_trials, f"verify exited {call.rc}")
        return gate
    report = _load(rep.root / "report.json", gate)
    if report is None:
        gate.fail(rep.campaign_trials, "verify wrote no readable report")
        return gate

    witnesses = report.get("witnesses", [])
    gate.attempted += len(witnesses)
    covered = set()
    for row in witnesses:
        covered.add(row.get("check"))
        if row.get("pass") is not True:
            gate.fail(1, f"witness failed: {row.get('check')} {row.get('description')}")
    for cid in sorted(set(CHECK_IDS) - covered):
        gate.attempted += 1
        gate.fail(1, f"no witness row for {cid}")

    campaigns = {c.get("check"): c for c in report.get("campaigns", [])}
    for cid in CHECK_IDS:
        c = campaigns.get(cid)
        if c is None or c.get("trials") != rep.trials:
            gate.fail(rep.trials, f"campaign {cid} missing or short")
            continue
        violations = c.get("violations") or []
        if violations:
            gate.fail(len(violations), f"{cid}: {len(violations)} violations, unmutated")
        margin = c.get("min_margin")
        if not _margin_ok(margin) or margin < -TOL:
            gate.fail(1, f"{cid}: min_margin {margin!r} without a violation")
        gate.summary[cid] = {"min_margin": margin, "violations": len(violations)}
    if (call.rc == 1) != (gate.failed > 0):
        gate.fail(1, f"verify exited {call.rc} but the gate found {gate.failed} failures")

    rows = report.get("verdicts")
    if rows is not None:  # per-trial rows are optional output
        if len(rows) != len(CHECK_IDS) * rep.trials:
            gate.fail(1, f"{len(rows)} verdict rows for {rep.campaign_trials} trials")
        for row in rows:
            margins = [r.get("margin") for r in row.get("records", [])]
            if not margins or not all(_margin_ok(x) for x in margins):
                gate.fail(1, f"{row.get('check')}: verdict row without finite margins")
            elif row.get("pass") is not True or min(margins) < -TOL:
                gate.fail(1, f"{row.get('check')}: failing verdict row")
    return gate


def _check_falsify_replay(rep: Rep) -> Gate:
    gate = Gate(attempted=rep.campaign_trials + rep.replays)
    for (check, mutation, expectation), call in zip(FALSIFY_CAMPAIGNS, rep.calls):
        key = f"{check}/{mutation}"
        if call.rc != 0:
            gate.fail(rep.trials, f"falsify {key} exited {call.rc}")
            continue
        report = _load(rep.root / f"report-{mutation}.json", gate)
        campaign = (report or {}).get("campaign")
        if not campaign or campaign.get("trials") != rep.trials:
            gate.fail(rep.trials, f"falsify {key}: no campaign of {rep.trials} trials")
            continue
        if campaign.get("expectation") != expectation:
            gate.fail(1, f"{key}: expectation {campaign.get('expectation')!r}")
        certs = sorted((rep.root / f"certs-{mutation}").glob("*.json"))
        reported = len(campaign.get("violations") or [])
        if len(certs) != reported:
            gate.fail(1, f"{key}: {reported} violations but {len(certs)} certificates")
        if expectation == "must-violate" and not certs:
            gate.fail(1, f"{key}: must-violate campaign wrote no certificate")
        margins = []
        for path in certs:
            cert = _load(path, gate)
            margin = (cert or {}).get("margin")
            if not _margin_ok(margin) or margin >= -TOL or cert.get("passed") is not False:
                gate.fail(1, f"{path.name}: certificate is not a violation")
            margins.append(margin)
        gate.summary[key] = {
            "min_margin": campaign.get("min_margin"),
            "violations": reported,
            "cert_margins": margins,
        }

    replays = [c for c in rep.calls if c.argv[0] == "replay"]
    matched = 0
    for call in replays:
        words = call.stdout.split()
        if call.rc == 0 and words and words[-1] == "match":
            matched += 1
        else:
            gate.fail(1, f"replay {Path(call.argv[1]).name}: rc={call.rc} {call.stdout.strip()!r}")
    gate.summary["replays_matched"] = matched
    return gate
