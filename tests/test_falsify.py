import numpy as np
import pytest

from normetry import falsify
from normetry.errors import BadSpec, MalformedCertificate, UnknownCheck
from normetry.rand import GenSpec, generate


def test_must_violate_mutations_within_100_trials():
    for mutation, info in falsify.MUTATIONS.items():
        if info["expectation"] != "must-violate":
            continue
        for cid in info["targets"]:
            report = falsify.run_campaign(cid, mutation=mutation, trials=100)
            assert report.violations, (cid, mutation)


def test_analytic_witnesses_violate():
    for mutation, cid in (
        ("swap-function-class", "thm1.1"),
        ("drop-vanishing", "thm1.2"),
        ("drop-expansive", "thm2.4"),
    ):
        case = falsify.analytic_witness(cid, mutation)
        verdict = falsify.run_case(case)
        assert not verdict.passed


def test_unmutated_campaigns_stay_green():
    for cid in ("thm1.1", "thm1.2", "davis-hansen", "prop3.4", "identity6"):
        report = falsify.run_campaign(cid, trials=40, root_seed=99)
        assert not report.violations, cid
        assert report.min_margin >= -1e-9


def test_drop_normality_is_exploratory():
    report = falsify.run_campaign("thm3.1", mutation="drop-normality", trials=30)
    assert report.expectation == "exploratory"
    # records whatever it sees; no violation is a legitimate outcome
    assert report.trials == 30


def test_certificate_replay_bit_exact():
    report = falsify.run_campaign("thm1.1", mutation="swap-function-class", trials=5)
    cert = report.violations[0]
    verdict = falsify.replay_certificate(cert)
    assert verdict.min_margin == cert["margin"]  # bit-exact, not approx
    assert verdict.fingerprint == cert["fingerprint"]


def test_case_dict_roundtrip():
    case = falsify.sample_case("cs-lemma", 3, 4242)
    rebuilt = falsify.case_from_dict(falsify.case_to_dict(case))
    assert rebuilt.check_id == case.check_id
    for name, mat in case.matrices.items():
        np.testing.assert_array_equal(rebuilt.matrices[name], mat)
    assert falsify.run_case(rebuilt).min_margin == falsify.run_case(case).min_margin


def test_sample_case_determinism():
    a = falsify.sample_case("ineq5", 4, 7)
    b = falsify.sample_case("ineq5", 4, 7)
    assert a.scalars == b.scalars
    np.testing.assert_array_equal(a.matrices["a"], b.matrices["a"])


def test_sample_case_rejects_unknown():
    with pytest.raises(UnknownCheck):
        falsify.sample_case("nosuch", 3, 0)
    with pytest.raises(BadSpec):
        falsify.sample_case("thm1.1", 3, 0, mutation="drop-vanishing")
    with pytest.raises(BadSpec):
        falsify.mutation_expectation("nosuch")


def test_minimize_margin_monotone_and_in_domain():
    case = falsify.sample_case("thm1.2", 3, 55)
    start = falsify.run_case(case).min_margin
    best_case, best_margin = falsify.minimize_margin(case, steps=60, root_seed=1)
    assert best_margin <= start
    # the descent must not leave the hypothesis class: still a pass
    assert best_margin >= -1e-9
    assert falsify.run_case(best_case).min_margin == best_margin


def test_minimize_margin_respects_equality_floor():
    # start at an equality witness (A = B diagonal, f = identity-like power)
    case = falsify.sample_case("thm1.1", 2, 12)
    _, margin = falsify.minimize_margin(case, steps=80, root_seed=2)
    assert margin >= -1e-9


def test_search_unitary_certificate_commuting():
    # commuting operands: the eigenframe-aligned candidate works immediately
    d1 = np.diag([2.0, 1.0]).astype(complex)
    d2 = np.diag([1.0, 3.0]).astype(complex)
    got = falsify.search_unitary_certificate(
        "thm2.5", {"f": np.sqrt, "a": d1, "b": d2}
    )
    assert got is not None


def test_search_unitary_certificate_equal_operands():
    a = generate(GenSpec("psd", 3, 31))
    got = falsify.search_unitary_certificate("thm2.5", {"f": np.sqrt, "a": a, "b": a})
    assert got is not None


def test_search_unitary_certificate_prop35():
    s = generate(GenSpec("hermitian", 3, 61))
    t = generate(GenSpec("hermitian", 3, 62))
    got = falsify.search_unitary_certificate(
        "prop3.5", {"s": s, "t": t}, budget=2000
    )
    if got is not None:
        u, v = got
        np.testing.assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(v @ v.conj().T, np.eye(3), atol=1e-9)


def test_search_unitary_certificate_bad_statement():
    with pytest.raises(BadSpec):
        falsify.search_unitary_certificate("nosuch", {})


def test_campaign_requires_trials():
    with pytest.raises(BadSpec):
        falsify.run_campaign("thm1.1", trials=0)


def test_campaign_rejects_mutation_for_other_check():
    with pytest.raises(BadSpec, match="does not apply to ineq4"):
        falsify.run_campaign("ineq4", mutation="drop-vanishing", trials=1)
    # a must-violate campaign checks before reaching its analytic witness
    with pytest.raises(BadSpec, match="does not apply to thm1.2"):
        falsify.run_campaign("thm1.2", mutation="swap-function-class", trials=1)


def test_replay_rejects_malformed_certificates():
    case = falsify.sample_case("thm1.2", 2, 3)
    cert = falsify.make_certificate(case, falsify.run_case(case))
    assert falsify.replay_certificate(cert).min_margin == cert["margin"]
    for broken in (
        {"margin": 0.1},
        {**cert, "case": {**cert["case"], "matrices": {"a": cert["case"]["matrices"]["a"]}}},
        {**cert, "case": "thm1.2"},
        {**cert, "tol": "tight"},
    ):
        with pytest.raises(MalformedCertificate):
            falsify.replay_certificate(broken)
