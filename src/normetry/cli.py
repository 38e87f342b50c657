"""Command-line orchestration.

Subcommands:
  verify   run checkers over seeded random trials plus the witness table
  falsify  run a (possibly mutated) campaign and emit violation certificates
  replay   recompute a certificate's margin and compare
  gen      emit one sample matrix from a generator spec

Exit codes: 0 success, 1 violation/mismatch, 2 usage or config error, or
a NormetryError that no case raised alone (an ``error:`` line), 3 a case
that raised (after the report, one ``error:`` line counts the report's
error rows and names the first), a numerical failure or a lost worker
process.
"""

from __future__ import annotations

import argparse
import csv
import functools
import glob
import io
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import checks, falsify, serialize, workers
from .errors import (
    BadSpec,
    ConvergenceFailure,
    MalformedCertificate,
    NormetryError,
    UnknownCheck,
    WorkerLost,
)
from .norms import DEFAULT_TOL
from .rand import GenSpec, KINDS, generate

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

VERIFY_TRIALS = 500


def _default_seed() -> int:
    text = os.environ.get("NORMETRY_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise BadSpec(f"NORMETRY_SEED must be an integer, got {text!r}") from None


def _parse_dims(text: str) -> list[int]:
    try:
        dims = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise BadSpec(f"invalid dims {text!r}") from None
    if not dims or any(d < 1 for d in dims):
        raise BadSpec(f"invalid dims {text!r}")
    return dims


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise BadSpec(f"tol must be finite and > 0, got {tol!r}")


def _check_seed(seed: int, bound: int) -> None:
    """A seed outside [0, bound) would alias one inside it."""
    if not 0 <= seed < bound:
        raise BadSpec(f"--seed (or NORMETRY_SEED) must be in "
                      f"[0, 2**{bound.bit_length() - 1}), got {seed}")


def _parse_checks(text: str) -> list[str]:
    if text == "all":
        return list(checks.SPECS)
    ids = [part.strip() for part in text.split(",") if part.strip()]
    if not ids or len(set(ids)) < len(ids):
        raise BadSpec(f"--checks needs distinct check ids or 'all', got {text!r}")
    for cid in ids:
        falsify._spec(cid)
    return ids


def _header(config: dict) -> dict:
    return {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "tool_version": falsify.TOOL_VERSION,
        "config": config,
    }


def _write(text: str, path: str | None) -> None:
    """Write ``text`` to the file ``path``, or to stdout without one."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise BadSpec(f"cannot write {path}: {exc.strerror}") from None


def _check_writable(path: str | None) -> None:
    """Fail before any trial runs when the file ``path`` could not be
    written: it must not be a directory, and it must be a writable file or,
    where it does not exist, its parent a writable directory."""
    if not path:
        return
    if os.path.isdir(path):  # the message the write would give
        raise BadSpec(f"cannot write {path}: Is a directory")
    if os.path.exists(path):
        if not os.access(path, os.W_OK):
            raise BadSpec(f"cannot write {path}: Permission denied")
        return
    parent = os.path.dirname(os.path.abspath(path))
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise BadSpec(f"cannot write {path}: {parent} is not a writable directory")


def _write_json(obj: dict, path: str | None) -> None:
    """Write ``obj`` as one line of JSON with sorted keys.  Without an
    ``indent``, ``json.dumps`` takes the stdlib's C encoder."""
    _write(json.dumps(obj, sort_keys=True) + "\n", path)


def _csv_summary(campaigns: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["check", "mutation", "trials", "violations", "min_margin", "errors"])
    for c in campaigns:
        writer.writerow(
            [c["check"], c.get("mutation") or "", c["trials"],
             len(c["violations"]), repr(c["min_margin"]), len(c.get("errors", ()))]
        )
    return buf.getvalue()


def _campaign(report, **more) -> dict:
    """A report's row of its command's JSON report, with the keys ``more``
    adds or replaces; it has an ``errors`` key only when a case raised."""
    row = {"check": report.check_id, "mutation": report.mutation, "trials": report.trials,
           "min_margin": report.min_margin, "violations": report.violations, **more}
    if report.errors:
        row["errors"] = report.errors
    return row


def _raised(reports) -> bool:
    """Whether a case of ``reports`` raised; if so, print one line that
    counts them and names the first, in (trial, check) order, with a
    witness of verify before every trial."""
    rows = [row for report in reports for row in report.errors]
    if not rows:
        return False
    first = min(rows, key=lambda row: (-1 if row["trial"] is None else row["trial"],
                                       checks.CHECK_IDS.index(row["check"])))
    label = (f"witness {first['check']} ({first['description']})" if first["trial"] is None
             else f"{first['check']} trial {first['trial']} "
                  f"(n={first['n']}, seed={first['seed']})")
    print(f"error: {len(rows)} case{'s' * (len(rows) > 1)} raised; "
          f"first: {label}: {first['message']}", file=sys.stderr)
    return True


def cmd_verify(args) -> int:
    check_ids = _parse_checks(args.checks)
    dims = _parse_dims(args.dims)
    _check_tol(args.tol)
    _check_seed(args.seed, falsify.ROOT_SEEDS)
    _check_writable(args.out)
    config = {
        "command": "verify",
        "checks": check_ids,
        "dims": dims,
        "trials": args.trials,
        "seed": args.seed,
        "tol": args.tol,
    }
    # only a JSON report holds verdict rows
    keep_verdicts = args.verdicts and args.format == "json"
    # the groups run in processes of their own where they may; the reports
    # and a failure are those of one run of them all
    run = functools.partial(
        falsify.run_campaigns, trials=args.trials, dims=dims, root_seed=args.seed,
        tol=args.tol, keep_verdicts=keep_verdicts, witnesses=True)
    groups = checks.groups(check_ids) if workers.parallel() else [check_ids]
    by_check = {report.check_id: report
                for reports in workers.run_groups(run, groups) for report in reports}
    reports = [by_check[cid] for cid in check_ids]
    witness_rows = [row for cid in checks.CHECK_IDS if cid in by_check
                    for row in by_check[cid].witnesses]
    all_pass = (all(row["pass"] for row in witness_rows)
                and not any(report.violations for report in reports))
    campaigns = [_campaign(report) for report in reports]
    out = {
        "header": _header(config),
        "witnesses": witness_rows,
        "campaigns": campaigns,
    }
    if args.format == "csv-summary":
        _write(_csv_summary(campaigns), args.out)
    else:
        if keep_verdicts:
            out["verdicts"] = [row for report in reports for row in report.verdicts]
        _write_json(out, args.out)
    if _raised(reports):
        return EXIT_NUMERICAL
    return EXIT_OK if all_pass else EXIT_VIOLATION


def cmd_falsify(args) -> int:
    dims = _parse_dims(args.dims)
    _check_tol(args.tol)
    mutation = args.mutate
    falsify._spec(args.check, mutation)  # a bad check or mutation creates no file
    _check_seed(args.seed, falsify.ROOT_SEEDS)
    if args.cert_dir:  # before --out is checked, which may name a file in it
        try:
            os.makedirs(args.cert_dir, exist_ok=True)
        except OSError as exc:
            raise BadSpec(f"cannot write {args.cert_dir}: {exc.strerror}") from None
        # a second campaign of the check would mix its files with the first one's
        held = glob.glob(f"cert-{args.check}-*.json", root_dir=args.cert_dir)
        if held:
            raise BadSpec(f"--cert-dir {args.cert_dir} already holds certificates of "
                          f"{args.check} ({min(held)})")
    _check_writable(args.out)
    config = {
        "command": "falsify",
        "check": args.check,
        "mutation": mutation,
        "dims": dims,
        "trials": args.trials,
        "seed": args.seed,
        "tol": args.tol,
    }
    [report] = falsify.run_campaigns(
        [args.check], mutation=mutation, trials=args.trials, dims=dims,
        root_seed=args.seed, tol=args.tol,
    )
    violations = report.violations  # without --cert-dir, the only copy
    if args.cert_dir:  # each certificate is encoded, written and dropped
        violations = []
        for i, cert in enumerate(report.violations):
            name = f"cert-{args.check}-{i}.json"
            _write_json(cert, os.path.join(args.cert_dir, name))
            violations.append({"certificate": name, "fingerprint": cert["fingerprint"],
                               "margin": cert["margin"]})
    out = {
        "header": _header(config),
        "campaign": _campaign(report, expectation=report.expectation,
                              violations=violations, wall_time=report.wall_time),
    }
    _write_json(out, args.out)
    if _raised([report]):
        return EXIT_NUMERICAL
    if report.expectation == "must-violate":
        return EXIT_OK if report.violations else EXIT_VIOLATION
    if report.expectation == "exploratory":
        return EXIT_OK
    return EXIT_OK if not report.violations else EXIT_VIOLATION


def _cannot_parse(exc: Exception) -> int:
    print(f"error: cannot parse certificate: {exc}", file=sys.stderr)
    return EXIT_USAGE


def cmd_replay(args) -> int:
    try:
        with open(args.certificate) as fh:
            cert = json.load(fh)
        stored = float(cert["margin"])
        stored_fingerprint = cert["fingerprint"]
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError,
            RecursionError) as exc:  # JSON nested too deep to decode
        return _cannot_parse(exc)
    try:
        verdict = falsify.replay_certificate(cert)
    except MalformedCertificate as exc:
        return _cannot_parse(exc)
    recomputed = verdict.min_margin
    ok = (math.isnan(stored) and math.isnan(recomputed)) or (
        abs(recomputed - stored) <= 1e-12 * max(1.0, abs(stored)))
    # a case whose inputs moved replays another case, whatever its margin
    note = ""
    if verdict.fingerprint != stored_fingerprint:
        ok = False
        note = (f" fingerprint: stored={stored_fingerprint!r} "
                f"recomputed={verdict.fingerprint!r}")
    print(
        f"replay {cert['case']['check_id']}: stored={stored!r} "
        f"recomputed={recomputed!r}{note} {'match' if ok else 'MISMATCH'}"
    )
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_gen(args) -> int:
    if args.kind not in KINDS:
        raise BadSpec(f"unknown kind {args.kind!r}; choose from {KINDS}")
    _check_seed(args.seed, 2**64)  # generate's seeds are 64-bit
    m = generate(GenSpec(kind=args.kind, n=args.dim, seed=args.seed, scale=args.scale))
    _write_json(serialize.mat_to_json(m), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normetry",
        description="Verify and falsify symmetric-norm matrix inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run checkers over seeded random trials")
    p.add_argument("--checks", default="all")
    p.add_argument("--dims", default=",".join(map(str, falsify.DEFAULT_DIMS)))
    p.add_argument("--trials", type=int, default=VERIFY_TRIALS)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv-summary"), default="json")
    p.add_argument("--verdicts", action="store_true",
                   help="also write one verdict row per trial")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("falsify", help="run a mutation campaign")
    p.add_argument("--check", required=True)
    p.add_argument("--mutate", default=None)
    p.add_argument("--dims", default=",".join(map(str, falsify.DEFAULT_DIMS)))
    p.add_argument("--trials", type=int, default=falsify.DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--out", default=None)
    p.add_argument("--cert-dir", default=None)
    p.set_defaults(func=cmd_falsify)

    p = sub.add_parser("replay", help="recompute a certificate's margin")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("gen", help="emit a sample matrix")
    p.add_argument("--kind", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)
    return parser


@functools.lru_cache(maxsize=1)
def _parser_for(seed_text: str | None) -> argparse.ArgumentParser:
    """``build_parser()``'s tree, built once per NORMETRY_SEED text, so
    repeated in-process calls of ``main`` parse with one tree.  A malformed
    text raises BadSpec, which the cache does not store."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser_for(os.environ.get("NORMETRY_SEED")).parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except BadSpec as exc:  # a malformed NORMETRY_SEED
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        # overflow to inf or NaN is handled where it matters (as_square's
        # finiteness guard, NaN margins), so numpy need not warn of it
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ConvergenceFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except WorkerLost as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (UnknownCheck, BadSpec) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NormetryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    # numpy has loaded, so the BLAS thread count can no longer be pinned
    print("usage error: run the command as 'normetry' or 'python -m normetry'",
          file=sys.stderr)
    sys.exit(EXIT_USAGE)
