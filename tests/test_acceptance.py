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

from reference_norms import norm_from_sv
from test_checks import brute_force_root_average
from test_linalg import reconstruct
from test_scalarfn import smoothed_converges


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
    for cid in checks.CHECK_IDS:
        [rep] = falsify.run_campaigns([cid], trials=1000, dims=dims, root_seed=20260823)
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


SCHATTEN = ("1", "1.5", "2", "3", "inf")


def _sv(m):
    return np.linalg.svd(m, compute_uv=False)


def _f_of(f, h):
    """f(H) of a PSD matrix from numpy's eigh, eigenvalues clamped at 0."""
    w, u = np.linalg.eigh((h + h.conj().T) / 2)
    return (u * f(np.maximum(w, 0.0))) @ u.conj().T


def _abs(m):
    """|M| and |M*| from numpy's SVD."""
    u, s, vh = np.linalg.svd(m)
    return (vh.conj().T * s) @ vh, (u * s) @ u.conj().T


def _sides(case):
    """The singular values of a case's two sides, computed apart from the
    package: (s(LHS), s(RHS)), or (s(X), s(Y), s(Z)) for a bound
    ||X|| <= ||Y||^(1/2) ||Z||^(1/2)."""
    m, f = case.matrices, case.fn()
    if case.check_id == "thm1.1":
        ops = list(m.values())
        return _sv(_f_of(f, sum(ops))), _sv(sum(_f_of(f, a) for a in ops))
    if case.check_id == "thm1.2":
        return _sv(_f_of(f, m["a"]) + _f_of(f, m["b"])), _sv(_f_of(f, m["a"] + m["b"]))
    if case.check_id == "prop2.1":
        total = m["a"] + m["b"]
        g, ra, rb = _f_of(f, total), _f_of(np.sqrt, m["a"]), _f_of(np.sqrt, m["b"])
        return _sv(total @ g), _sv(ra @ g @ ra + rb @ g @ rb)
    if case.check_id == "thm2.4":
        zh = m["z"].conj().T
        return _sv(_f_of(f, zh @ m["a"] @ m["z"])), _sv(zh @ _f_of(f, m["a"]) @ m["z"])
    if case.check_id == "prop3.4":
        return _sv(m["a"] + m["b"]), _sv(_abs(m["a"])[0] + _abs(m["b"])[0])
    if case.check_id == "thm3.1":
        block = np.block([[m["a"], m["b"]], [m["c"], m["d"]]])
        return _sv(block), _sv(sum(_abs(x)[0] for x in m.values()))
    if case.check_id == "ineq5":
        z, k = complex(case.scalars["z_re"], case.scalars["z_im"]), case.scalars["m"]
        power = np.linalg.matrix_power
        return _sv(power(m["a"] + z * m["b"], k)), _sv(power(m["a"] + abs(z) * m["b"], k))
    if case.check_id == "cs-lemma":
        a1, a2, b1, b2, c1, c2 = m.values()
        return _sv(a1 @ c1 @ b1 + a2 @ c2 @ b2), _sv(a1 @ a1 + a2 @ a2), _sv(b1 @ b1 + b2 @ b2)
    (abs_a, star_a), (abs_b, star_b) = _abs(m["a"]), _abs(m["b"])  # ineq4
    return _sv(m["a"] + m["b"]), _sv(abs_a + abs_b), _sv(star_a + star_b)


def test_criterion_4_fan_dominance_consistency(capsys):
    """Where a verdict passes, each Schatten norm p in {1, 1.5, 2, 3, inf}
    of its sides, computed apart from the package, passes too: the Ky Fan
    sums decide every symmetric norm, and for cs-lemma and ineq4 Horn's
    bound with Hoelder's inequality gives ||X||_p <= ||Y||_p^(1/2) ||Z||_p^(1/2)."""
    inconsistencies = audited = 0
    for cid in ("thm1.1", "thm1.2", "prop2.1", "thm2.4", "thm3.1", "prop3.4", "ineq5",
                "cs-lemma", "ineq4"):
        for t in range(200):
            case = falsify.sample_case(cid, 1 + t % 8, derive_stream(20260823, t))
            if not falsify.run_case(case, stamp=False).passed:
                continue
            sides = _sides(case)
            for p in SCHATTEN:
                lhs, *rhs = (norm_from_sv(s, f"schatten-{p}") for s in sides)
                bound = float(np.sqrt(rhs[0] * rhs[1])) if len(rhs) == 2 else rhs[0]
                audited += 1
                inconsistencies += (bound - lhs) / max(1.0, bound) < -1e-9
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
            if smoothed_converges(a, [r * 100, r]) > 0.5 * np.sqrt(r):
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
        rel = linalg.opnorm(h - reconstruct(spec)) / max(1.0, linalg.opnorm(h))
        worst_eigh = max(worst_eigh, rel)
    worst_polar = 0.0
    for i in range(1000):
        n = 1 + i % 16
        x = generate(GenSpec("general", n, derive_stream(7500, i)))
        parts = linalg.polar(x)
        ra = linalg.apply_spectrum(np.sqrt, linalg.eigh(parts.abs))
        rb = linalg.apply_spectrum(np.sqrt, linalg.eigh(parts.abs_star))
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
