"""Acceptance gate: one test per criterion, one printed pass/fail line each.

The lines print outside pytest's capture, so they appear in plain
`pytest -v` output as each criterion lands.
"""

import re
import time

import numpy as np
import pytest

from normetry import checks, cli, falsify, linalg, scalarfn
from normetry.rand import GenSpec, derive_stream, generate

from test_checks import brute_force_root_average


def report(capsys, name: str, ok: bool, detail: str = "") -> None:
    line = "[acceptance] " + name + ": " + ("PASS" if ok else "FAIL")
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line)


def test_criterion_1_theorem_suite(capsys):
    """1000 seeded trials per checker at dims 1-8, zero violations, <120 s."""
    dims = (1, 2, 3, 4, 5, 6, 7, 8)
    start = time.perf_counter()
    bad = []
    reports = {}
    for cid in checks.CHECK_IDS:
        [rep] = falsify.run_campaigns(
            [cid], trials=1000, dims=dims, root_seed=20260823, keep_verdicts=True
        )
        reports[cid] = rep
        if rep.violations:
            bad.append((cid, len(rep.violations)))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 120.0
    report(
        capsys,
        "criterion-1 theorem suite",
        ok,
        f"{len(checks.CHECK_IDS)} checkers x 1000 trials in {elapsed:.1f}s",
    )
    # stash verdict rows for criterion 4's consistency audit
    test_criterion_1_theorem_suite.reports = reports
    assert not bad, bad
    assert elapsed < 120.0, elapsed


def test_criterion_2_equality_witnesses(capsys):
    """Every equality-tagged trivial witness reproduces |margin| <= 1e-9."""
    failures = []
    witnesses = [w for spec in checks.SPECS.values() for w in spec.witnesses]
    for w in witnesses:
        verdict = w.run()
        if not verdict.passed:
            failures.append((w.check_id, w.description, "failed"))
        elif w.equality and abs(verdict.min_margin) > 1e-9:
            failures.append((w.check_id, w.description, verdict.min_margin))
    # identity (6) at m=2 must be tighter: residual <= 1e-12
    a = generate(GenSpec("psd", 3, 2026))
    b = generate(GenSpec("psd", 3, 2027))
    if checks.identity_6_verdict(a, b, 2).records[0].lhs > 1e-12:
        failures.append(("identity6", "m=2 residual", "too large"))
    report(
        capsys,
        "criterion-2 equality witnesses",
        not failures,
        f"{len(witnesses)} witnesses",
    )
    assert not failures, failures


def test_criterion_3_corrected_identity(capsys):
    """Identity (6) residual <= 1e-10 for m in 1..8, 100 PSD pairs per m."""
    # anti-typo guard first: brute-force word expansion for m <= 4
    for m in (1, 2, 3, 4):
        a = generate(GenSpec("psd", 3, derive_stream(3000 + m, 0)))
        b = generate(GenSpec("psd", 3, derive_stream(3000 + m, 1)))
        expanded = brute_force_root_average(a, b, m)
        direct = np.linalg.matrix_power(a, m) + np.linalg.matrix_power(b, m)
        assert linalg.opnorm(expanded - direct) <= 1e-12 * max(
            1, linalg.opnorm(direct)
        ), m
    worst = 0.0
    for m in range(1, 9):
        for i in range(100):
            n = 2 + i % 5
            a = generate(GenSpec("psd", n, derive_stream(4000 + m, 2 * i)))
            b = generate(GenSpec("psd", n, derive_stream(4000 + m, 2 * i + 1)))
            worst = max(worst, checks.identity_6_verdict(a, b, m).records[0].lhs)
    ok = worst <= 1e-10
    report(capsys, "criterion-3 corrected identity", ok, f"worst residual {worst:.2e}")
    assert ok, worst


def test_criterion_4_fan_dominance_consistency(capsys):
    """On passing dominance verdicts, every Schatten comparison also passes."""
    reports = getattr(test_criterion_1_theorem_suite, "reports", None)
    if reports is None:
        # criterion 1 did not run first (e.g. -k selection): rebuild a sample
        reports = {
            cid: falsify.run_campaigns(
                [cid], trials=200, dims=(1, 2, 3, 4, 5, 6, 7, 8),
                root_seed=20260823, keep_verdicts=True,
            )[0]
            for cid in checks.CHECK_IDS
        }
    inconsistencies = 0
    audited = 0
    for rep in reports.values():
        for row in rep.verdicts:
            if not row["pass"]:
                continue
            schatten = [r for r in row["records"] if r["spec"].startswith("schatten")]
            audited += len(schatten)
            inconsistencies += sum(1 for r in schatten if r["margin"] < -1e-9)
    ok = inconsistencies == 0 and audited > 0
    report(
        capsys,
        "criterion-4 Fan dominance consistency",
        ok,
        f"{audited} Schatten comparisons audited",
    )
    assert ok, (inconsistencies, audited)


def test_criterion_5_mutation_sensitivity(tmp_path, capsys):
    """Each must-violate mutation certifies within 100 trials; replay is exact."""
    pairs = [
        ("thm1.1", "swap-function-class"),
        ("thm1.2", "drop-vanishing"),
        ("thm2.4", "drop-expansive"),
    ]
    ok = True
    for cid, mutation in pairs:
        rep = falsify.run_campaigns([cid], mutation=mutation, trials=100)[0]
        if not rep.violations:
            ok = False
            continue
        cert_path = tmp_path / f"{cid}.json"
        import json

        cert_path.write_text(json.dumps(rep.violations[0]))
        code = cli.main(["replay", str(cert_path)])
        out = capsys.readouterr().out
        if code != cli.EXIT_OK or "match" not in out:
            ok = False
    report(capsys, "criterion-5 mutation sensitivity", ok, f"{len(pairs)} mutations")
    assert ok


def test_criterion_6_approximation_devices(capsys):
    """Smoothed hinge meets the half-sqrt(r) bound; inverse round-trips."""
    ok = True
    for a in (0.5, 1.0, 2.0):
        for r in (1e-2, 1e-4, 1e-6, 1e-8):
            if scalarfn.smoothed_converges(a, [r * 100, r]) > 0.5 * np.sqrt(r):
                ok = False
    t = scalarfn.canonical_grid()
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        for r in (1e-2, 1e-4, 1e-6, 1e-8):
            h = scalarfn.smoothed_fn(a, r)
            hinv = scalarfn.smoothed_inverse_fn(a, r)
            worst = max(worst, float(np.max(np.abs(hinv.fn(h.fn(t)) - t))))
    ok = ok and worst <= 1e-9
    report(
        capsys,
        "criterion-6 approximation devices", ok, f"round-trip worst {worst:.2e}"
    )
    assert ok, worst


def test_criterion_7_linear_algebra_floor(capsys):
    """1000 eigh reconstructions <= 1e-10 and polar mixed forms <= 1e-9."""
    worst_eigh = 0.0
    for i in range(1000):
        n = 1 + i % 16
        h = generate(GenSpec("hermitian", n, derive_stream(7000, i)))
        spec = linalg.eigh(h)
        rel = linalg.opnorm(h - spec.reconstruct()) / max(1.0, linalg.opnorm(h))
        worst_eigh = max(worst_eigh, rel)
    worst_polar = 0.0
    for i in range(1000):
        n = 1 + i % 16
        x = generate(GenSpec("general", n, derive_stream(7500, i)))
        parts = linalg.polar(x)
        ra = linalg.spectral_apply(np.sqrt, parts.abs)
        rb = linalg.spectral_apply(np.sqrt, parts.abs_star)
        rel = linalg.opnorm(rb @ parts.u @ ra - x) / max(1.0, linalg.opnorm(x))
        worst_polar = max(worst_polar, rel)
    ok = worst_eigh <= 1e-10 and worst_polar <= 1e-9
    report(
        capsys,
        "criterion-7 linear-algebra floor",
        ok,
        f"eigh {worst_eigh:.2e}, polar {worst_polar:.2e}",
    )
    assert ok, (worst_eigh, worst_polar)


def test_criterion_8_determinism(tmp_path, capsys):
    """Two verify runs with the same seed are byte-identical off-timestamp,
    with their verdict rows (and so every fingerprint) and without."""
    texts = []
    for flags in ([], ["--verdicts"]):
        for _ in range(2):
            out = tmp_path / f"r{len(texts)}.json"
            code = cli.main(
                ["verify", "--checks", "all", "--seed", "123", "--trials", "5",
                 "--dims", "1,2,3,4", *flags, "--out", str(out)]
            )
            assert code == cli.EXIT_OK
            texts.append(
                re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', out.read_text())
            )
    ok = texts[0] == texts[1] and texts[2] == texts[3]
    report(
        capsys,
        "criterion-8 determinism", ok,
        f"{len(texts[2])} bytes with rows, {len(texts[0])} without, compared")
    assert ok
