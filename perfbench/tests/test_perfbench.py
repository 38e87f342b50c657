"""Tests of the benchmark itself: tracing changes no result, the gate fires.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from tracing import Tracer, span_stats

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def _rep(tmp_path, name, trials, tracer=None, between=None, tag="rep"):
    workload = workloads.WORKLOADS[name]
    if tracer is None:
        return workloads.run_rep(workload, 7, tmp_path / tag, trials, between)
    with tracer:
        return workloads.run_rep(workload, 7, tmp_path / tag, trials, between)


@pytest.mark.parametrize(
    "name, trials", [("verify-small", 3), ("verify-large", 1), ("falsify-replay", 4)]
)
def test_tracing_changes_no_verdict(tmp_path, name, trials):
    plain = workloads.check_rep(_rep(tmp_path, name, trials, tag="plain"))
    tracer = Tracer()
    rep = _rep(tmp_path, name, trials, tracer=tracer, tag="traced")
    traced = workloads.check_rep(rep)
    assert plain.failed == traced.failed == 0, plain.problems + traced.problems
    # campaign min_margins, violation counts and certificate margins
    assert traced.summary == plain.summary
    assert span_stats(tracer)["trials"] == rep.evaluations
    # the wrappers are gone again
    assert workloads.cli.main.__module__ == "normetry.cli"
    assert not hasattr(workloads.cli.main, "__wrapped__")


def test_altered_certificate_margin_trips_gate(tmp_path):
    def alter(rep):
        path = sorted(rep.root.glob("certs-swap-function-class/*.json"))[0]
        cert = json.loads(path.read_text())
        cert["margin"] = cert["margin"] * (1 + 1e-6)
        path.write_text(json.dumps(cert))

    gate = workloads.check_rep(_rep(tmp_path, "falsify-replay", 2, between=alter))
    assert gate.failed == 1
    assert "MISMATCH" in gate.problems[0]


def test_missing_certificate_trips_gate(tmp_path):
    def drop(rep):
        for path in rep.root.glob("certs-drop-vanishing/*.json"):
            path.unlink()

    gate = workloads.check_rep(_rep(tmp_path, "falsify-replay", 2, between=drop))
    assert gate.failed >= 1
    assert any("drop-vanishing" in p for p in gate.problems)


def test_violation_or_failed_witness_trips_gate(tmp_path):
    rep = _rep(tmp_path, "verify-small", 2)
    assert workloads.check_rep(rep).failed == 0
    path = rep.root / "report.json"
    report = json.loads(path.read_text())
    report["campaigns"][0]["violations"] = [{"margin": -1.0}]
    report["witnesses"][0]["pass"] = False
    path.write_text(json.dumps(report))
    gate = workloads.check_rep(rep)
    assert gate.failed >= 2
    assert any("violations" in p for p in gate.problems)
    assert any("witness" in p for p in gate.problems)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "verify-small", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_every_metric(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _run(ROOT, "--workload", "falsify-replay", "--seed", "3",
                "--seconds", "0", "--trace", trace)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] > 0
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[section]
    }
