import math

import numpy as np
import pytest

from normetry import checks, falsify, norms, rand
from normetry.errors import BadSpec, MalformedCertificate, UnknownCheck


def mutations() -> dict:
    """{(check id, mutation): Mutation}, from every check's declaration."""
    return {(cid, name): m for cid, spec in checks.SPECS.items()
            for name, m in spec.mutations.items()}


def test_the_mutations_are_derived_from_the_declarations():
    """The checks a mutation applies to, and where it must violate: an fn
    draw declared at thm1.1 and thm1.2, an operand swap from each check
    that declares the hypothesis the mutation drops, must-violate exactly
    where the check declares a witness for it."""
    table = {key: (m.expectation, m.fn is not None, m.swap)
             for key, m in mutations().items()}
    assert table == {
        ("thm1.1", "swap-function-class"): ("must-violate", True, (None, None)),
        ("thm1.2", "drop-vanishing"): ("must-violate", True, (None, None)),
        ("thm2.4", "drop-expansive"): ("must-violate", False, ("expansive", "contraction")),
        ("thm3.1", "drop-normality"): ("exploratory", False, ("normal", "general")),
        ("thm3.2", "drop-normality"): ("exploratory", False, ("normal", "general")),
        ("prop3.4", "drop-normality"): ("exploratory", False, ("normal", "general")),
    }
    for (cid, name), m in mutations().items():
        [report] = falsify.run_campaigns([cid], mutation=name, trials=1, dims=[2])
        expectation = report.expectation
        assert expectation == m.expectation, (cid, name)


def test_must_violate_mutations_within_100_trials():
    for (cid, mutation), m in mutations().items():
        if m.expectation == "must-violate":
            report = falsify.run_campaigns([cid], mutation=mutation, trials=100)[0]
            assert report.violations, (cid, mutation)


def test_analytic_witnesses_violate():
    for mutation, cid in (
        ("swap-function-class", "thm1.1"),
        ("drop-vanishing", "thm1.2"),
        ("drop-expansive", "thm2.4"),
    ):
        witness = checks.SPECS[cid].mutations[mutation].witness
        verdict = falsify.run_case(falsify.witness_case(witness, mutation))
        assert not verdict.passed


def test_unmutated_campaigns_stay_green():
    for cid in ("thm1.1", "thm1.2", "davis-hansen", "prop3.4", "identity6"):
        report = falsify.run_campaigns([cid], trials=40, root_seed=99)[0]
        assert not report.violations, cid
        assert report.min_margin >= -1e-9


def test_every_report_of_a_run_carries_the_run_elapsed_time():
    reports = falsify.run_campaigns(["thm1.2", "prop3.4", "ineq4"], trials=4, dims=(2, 3))
    assert len({report.wall_time for report in reports}) == 1
    assert reports[0].wall_time > 0


def test_drop_normality_is_exploratory():
    report = falsify.run_campaigns(["thm3.1"], mutation="drop-normality", trials=30)[0]
    assert report.expectation == "exploratory"
    # records whatever it sees; no violation is a legitimate outcome
    assert report.trials == 30


def test_certificate_replay_bit_exact():
    [report] = falsify.run_campaigns(["thm1.1"], mutation="swap-function-class", trials=5)
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
    with pytest.raises(BadSpec, match="^unknown mutation 'nosuch'$"):
        falsify.sample_case("thm1.1", 3, 0, mutation="nosuch")


def test_campaign_requires_trials():
    with pytest.raises(BadSpec):
        falsify.run_campaigns(["thm1.1"], trials=0)


@pytest.mark.parametrize("bad", [{"dims": []}, {"trials": 2.5}, {"trials": "3"}])
def test_campaigns_reject_empty_dims_and_non_integer_trials(bad):
    with pytest.raises(BadSpec):
        falsify.run_campaigns(["thm1.1"], **bad)


@pytest.mark.parametrize("dims", [[2.7], [2.0], [True], [2, False], [0], [-3], ["2"], [None]])
def test_campaigns_reject_dims_that_are_not_integers_from_1(dims):
    with pytest.raises(BadSpec, match="dims"):
        falsify.run_campaigns(["thm1.1"], trials=1, dims=dims)


def test_campaigns_accept_numpy_integer_dims():
    report = falsify.run_campaigns(["thm1.1"], trials=2, dims=np.array([2, 3]),
                                   keep_verdicts=True)[0]
    assert [len(row["records"]) for row in report.verdicts] == [2, 3]


def test_campaign_rejects_mutation_for_other_check():
    with pytest.raises(BadSpec, match="does not apply to ineq4"):
        falsify.run_campaigns(["ineq4"], mutation="drop-vanishing", trials=1)
    # a must-violate campaign checks before reaching its analytic witness
    with pytest.raises(BadSpec, match="does not apply to thm1.2"):
        falsify.run_campaigns(["thm1.2"], mutation="swap-function-class", trials=1)


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


def test_identity6_honours_campaign_tol():
    for seed in range(20):
        case = falsify.sample_case("identity6", 4, seed)
        residual = -falsify.run_case(case).min_margin
        if residual > 0:
            break
    assert residual > 0
    assert falsify.run_case(case).passed
    tight = falsify.run_case(case, tol=residual / 2)
    assert not tight.passed
    assert tight.tol == residual / 2


def test_each_class_draws_functions_of_that_class():
    """Every kind a class tag lists is built with that tag (operator
    concavity included, which only the constructors declare)."""
    rng = np.random.default_rng(3)
    for tag, kinds in falsify.FN_DRAWS.items():
        for kind in kinds:
            assert tag in falsify.scalarfn.from_descriptor(
                {"kind": kind, **falsify._FN_DRAW[kind](rng)}).tags, (tag, kind)


def test_check_registry_is_consistent():
    for cid, spec in checks.SPECS.items():
        assert spec.check_id == cid
        assert spec.witnesses, cid
        assert all(w.check_id == cid for w in spec.witnesses), cid
        assert spec.fn_class is None or spec.fn_class in falsify.FN_DRAWS, cid
        for seed in (11, 13):  # both branches of every drawn operand list
            kinds = falsify.sample_case(cid, 3, seed).kinds
            assert set(kinds.values()) <= set(rand.KINDS), cid
    for (cid, mutation), m in mutations().items():
        plain = falsify.sample_case(cid, 3, 11)
        mutated = falsify.sample_case(cid, 3, 11, mutation)
        if m.fn is not None:
            # the drawn function falls outside the checker's class
            fn_class = checks.SPECS[cid].fn_class
            assert fn_class is not None, (mutation, cid)
            assert fn_class not in mutated.fn().tags, (mutation, cid)
        else:
            old, new = m.swap
            assert old in plain.kinds.values(), (mutation, cid)
            assert old not in mutated.kinds.values(), (mutation, cid)
            assert new in mutated.kinds.values(), (mutation, cid)
        if m.witness is not None:
            assert m.witness.check_id == cid, (mutation, cid)
            case = falsify.witness_case(m.witness, mutation)
            assert not falsify.run_case(case).passed, (mutation, cid)


# What sample_case(check id, 5, seed, mutation) draws: the operand kinds in
# slot order, the extra scalars and the function descriptor.  Pinned as
# literals so that any change to the order of the case's rng draws shows;
# they depend on numpy's PCG64 stream only, not on LAPACK.
DRAWS = (
    ("thm1.1", None, 11, {"a0": "psd", "a1": "psd"}, {}, {"kind": "sqrt"}),
    ("thm1.1", None, 13, {"a0": "psd", "a1": "psd", "a2": "psd"}, {},
     {"kind": "affine-plus", "lam": 1.710605029864118, "c": 0.8110233987843422}),
    ("thm1.1", "swap-function-class", 11, {"a0": "psd", "a1": "psd"}, {},
     {"kind": "power-m", "m": 2}),
    ("thm1.1", "swap-function-class", 13, {"a0": "psd", "a1": "psd", "a2": "psd"}, {},
     {"kind": "power-m", "m": 2}),
    ("thm1.2", None, 11, {"a": "psd", "b": "psd"}, {}, {"kind": "power-m", "m": 2}),
    ("thm1.2", None, 13, {"a": "psd", "b": "psd"}, {},
     {"kind": "smoothed", "a": 1.739544526877706, "r": 0.07347513500118097}),
    ("thm1.2", "drop-vanishing", 11, {"a": "psd", "b": "psd"}, {},
     {"kind": "power-m-plus", "m": 2, "c": 0.6928553041537995}),
    ("thm1.2", "drop-vanishing", 13, {"a": "psd", "b": "psd"}, {},
     {"kind": "power-m-plus", "m": 2, "c": 1.7971963805248796}),
    ("davis-hansen", None, 11, {"a": "psd", "z": "contraction"}, {}, {"kind": "sqrt"}),
    ("davis-hansen", None, 13, {"a": "psd", "z": "contraction"}, {},
     {"kind": "ratio-shift", "c": 2.580377293302971}),
    ("pinching-eq2", None, 11, {"a": "pd", "b": "pd"}, {}, {"kind": "sqrt"}),
    ("pinching-eq2", None, 13, {"a": "pd", "b": "pd"}, {},
     {"kind": "ratio-shift", "c": 2.580377293302971}),
    ("prop2.1", None, 11, {"a": "pd", "b": "pd"}, {}, {"kind": "inv-sqrt"}),
    ("prop2.1", None, 13, {"a": "psd", "b": "psd"}, {}, {"kind": "log1p-over-t"}),
    ("thm2.4", None, 11, {"a": "psd", "z": "expansive"}, {}, {"kind": "sqrt"}),
    ("thm2.4", None, 13, {"a": "psd", "z": "expansive"}, {},
     {"kind": "affine-plus", "lam": 1.710605029864118, "c": 0.8110233987843422}),
    ("thm2.4", "drop-expansive", 11, {"a": "psd", "z": "contraction"}, {},
     {"kind": "sqrt"}),
    ("thm2.4", "drop-expansive", 13, {"a": "psd", "z": "contraction"}, {},
     {"kind": "affine-plus", "lam": 1.710605029864118, "c": 0.8110233987843422}),
    ("eigen-sum", None, 11, {"a": "general", "b": "general"}, {"j": 3, "k": 0},
     {"kind": "sqrt"}),
    ("eigen-sum", None, 13, {"a": "psd", "b": "psd"}, {"j": 4, "k": 0},
     {"kind": "affine-plus", "lam": 1.710605029864118, "c": 0.8110233987843422}),
    ("cs-lemma", None, 11,
     {"a1": "psd", "a2": "psd", "b1": "psd", "b2": "psd",
      "c1": "contraction", "c2": "contraction"},
     {}, None),
    ("cs-lemma", None, 13,
     {"a1": "psd", "a2": "psd", "b1": "psd", "b2": "psd",
      "c1": "contraction", "c2": "contraction"},
     {}, None),
    ("ineq4", None, 11, {"a": "general", "b": "general"}, {}, None),
    ("ineq4", None, 13, {"a": "general", "b": "general"}, {}, None),
    ("thm3.1", None, 11, {"a": "normal", "b": "normal", "c": "normal", "d": "normal"},
     {}, None),
    ("thm3.1", None, 13, {"a": "normal", "b": "normal", "c": "normal", "d": "normal"},
     {}, None),
    ("thm3.1", "drop-normality", 11,
     {"a": "general", "b": "general", "c": "general", "d": "general"}, {}, None),
    ("thm3.1", "drop-normality", 13,
     {"a": "general", "b": "general", "c": "general", "d": "general"}, {}, None),
    ("thm3.2", None, 11, {"a": "normal", "b": "normal", "c": "normal", "d": "normal"},
     {}, None),
    ("thm3.2", None, 13, {"a": "normal", "b": "normal", "c": "normal", "d": "normal"},
     {}, None),
    ("thm3.2", "drop-normality", 11,
     {"a": "general", "b": "general", "c": "general", "d": "general"}, {}, None),
    ("thm3.2", "drop-normality", 13,
     {"a": "general", "b": "general", "c": "general", "d": "general"}, {}, None),
    ("cor3.3", None, 11, {"a": "hermitian", "b": "hermitian", "x": "general"}, {},
     None),
    ("cor3.3", None, 13, {"a": "hermitian", "b": "hermitian", "x": "general"}, {},
     None),
    ("prop3.4", None, 11, {"a": "normal", "b": "normal"}, {}, None),
    ("prop3.4", None, 13, {"a": "normal", "b": "normal"}, {}, None),
    ("prop3.4", "drop-normality", 11, {"a": "general", "b": "general"}, {}, None),
    ("prop3.4", "drop-normality", 13, {"a": "general", "b": "general"}, {}, None),
    ("prop3.5", None, 11, {"s": "hermitian", "t": "hermitian"}, {"j": 0, "k": 0}, None),
    ("prop3.5", None, 13, {"s": "hermitian", "t": "hermitian"}, {"j": 4, "k": 0}, None),
    ("ineq5", None, 11, {"a": "psd", "b": "psd"},
     {"z_re": 0.03419276725318417, "z_im": 1.3597475403099617, "m": 3}, None),
    ("ineq5", None, 13, {"a": "psd", "b": "psd"},
     {"z_re": 1.8267565599574231, "z_im": -3.0783319101980338, "m": 1}, None),
    ("identity6", None, 11, {"a": "psd", "b": "psd"}, {"m": 2}, None),
    ("identity6", None, 13, {"a": "psd", "b": "psd"}, {"m": 8}, None),
)


@pytest.mark.parametrize("cid, mutation, seed, kinds, scalars, fn", DRAWS)
def test_sample_case_draws_are_pinned(cid, mutation, seed, kinds, scalars, fn):
    case = falsify.sample_case(cid, 5, seed, mutation)
    assert list(case.kinds.items()) == list(kinds.items())
    assert list(case.matrices) == list(kinds)
    assert list(case.scalars.items()) == list(scalars.items())
    assert case.fn_descriptor == fn


@pytest.mark.parametrize("seed", [0, 11, 2**63, 2**64 - 1])
def test_sample_case_draws_the_default_rng_stream_of_its_seed(seed):
    """Every case of a seed draws the stream of ``default_rng(seed)``, also
    when cases of another seed come in between."""
    reference = checks.SPECS["ineq5"].scalars(np.random.default_rng(np.uint64(seed)), 1)
    for other in (seed, seed ^ 1, seed):
        falsify.sample_case("identity6", 1, other)
        assert falsify.sample_case("ineq5", 1, seed).scalars == reference


def test_campaign_min_margin_keeps_a_nan(monkeypatch):
    """Python's min(x, nan) is x: a NaN margin must not be lost to the
    campaign minimum, neither to the trials before it nor to those after."""
    real = checks.check_prop_3_4

    def nan_at_n3(a, b, **kw):  # a is one matrix or a stack of them
        v = real(a, b, **kw)
        if a.shape[-1] == 3:
            for verdict in v if isinstance(v, list) else [v]:
                verdict.records.append(norms.ComparisonRecord("planted", 0.0, 0.0, math.nan))
        return v

    monkeypatch.setattr(checks, "check_prop_3_4", nan_at_n3)
    [report] = falsify.run_campaigns(["prop3.4"], trials=4, dims=(2, 3, 2, 2), root_seed=5)
    assert math.isnan(report.min_margin)
    assert [math.isnan(c["margin"]) for c in report.violations] == [True]


def test_case_generator_has_the_default_rng_state_of_its_seed():
    """A case's generator, built from the seed's words (taken alone or in a
    campaign's block), has the state of ``default_rng(np.uint64(seed))``."""
    drawn = np.random.default_rng(77).integers(0, 2**64, size=100, dtype=np.uint64)
    seeds = [0, 2**32 - 1, 2**32, 2**64 - 1, *drawn.tolist()]
    for seed, words in zip(seeds, rand._seed_words(seeds)):
        state = np.random.default_rng(np.uint64(seed)).bit_generator.state
        assert falsify.case_rng(seed).bit_generator.state == state
        assert falsify.case_rng(seed, words).bit_generator.state == state


@pytest.mark.parametrize("seed", [2**63, 2**63 + 1, -1, 1.0])
def test_root_seeds_outside_their_range_are_bad_specs(seed):
    """Trial seeds keep 63 bits of the root seed: a root seed outside
    [0, 2**63) would run the campaigns of another seed."""
    with pytest.raises(BadSpec, match=r"\[0, 2\*\*63\)"):
        falsify.run_campaigns(["thm1.1"], trials=1, dims=[1], root_seed=seed)
