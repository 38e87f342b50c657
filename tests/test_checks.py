import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normetry import checks, cli, falsify, linalg, norms
from normetry import scalarfn as sf
from normetry.errors import (
    BadSpec,
    DimensionMismatch,
    IndexOutOfRange,
    NotAContraction,
    NotExpansive,
    NotNormal,
    NotPositiveDefinite,
    ShapeValidationFailed,
)
from normetry.rand import GenSpec, derive_stream, generate
from reference_norms import norm


def psd(n, seed, **kw):
    return generate(GenSpec("psd", n, seed, **kw))


def pd(n, seed):
    return generate(GenSpec("pd", n, seed))


def fn_eigs(f, h):
    """Independent oracle: eigenvalues of f(H) for nondecreasing f on [0,inf)."""
    w = np.maximum(np.linalg.eigvalsh(h), 0.0)
    return np.sort(f(w))[::-1]


def partial_sums_dominated(lhs_eigs, rhs_eigs, tol=1e-9):
    cl, cr = np.cumsum(lhs_eigs), np.cumsum(rhs_eigs)
    return np.all(cl <= cr + tol * max(1.0, cr[-1]))


# ---------------------------------------------------------------- thm 1.1


def test_thm_1_1_concave_subadditivity_oracle_seed42():
    f = sf.log1p_fn()
    ops = [psd(4, derive_stream(42, i)) for i in range(3)]
    total = ops[0] + ops[1] + ops[2]
    # independent route: compare eigenvalue partial sums directly
    lhs_eigs = fn_eigs(np.log1p, total)
    rhs = sum(
        (v * np.log1p(np.maximum(w, 0.0))) @ v.conj().T
        for w, v in (np.linalg.eigh(a) for a in ops)
    )
    rhs_eigs = np.sort(np.linalg.eigvalsh(rhs))[::-1]
    assert partial_sums_dominated(lhs_eigs, rhs_eigs)
    v = checks.check_thm_1_1(f, ops)
    assert v.passed
    for r in v.records:
        assert r.margin >= -1e-9


def test_thm_1_1_rejects_convex_function():
    with pytest.raises(ShapeValidationFailed):
        checks.check_thm_1_1(sf.power_m_fn(2), [np.eye(2), np.eye(2)])


def test_thm_1_1_needs_two_operands():
    with pytest.raises(BadSpec):
        checks.check_thm_1_1(sf.sqrt_fn(), [np.eye(2)])


def test_thm_1_1_multi_operand_family():
    f = sf.power_fn(0.4)
    ops = [psd(3, derive_stream(7, i)) for i in range(4)]
    assert checks.check_thm_1_1(f, ops).passed


# ---------------------------------------------------------------- thm 1.2


def test_thm_1_2_angle_seed9():
    g = sf.angle_fn(1.0)
    a, b = psd(4, derive_stream(9, 0)), psd(4, derive_stream(9, 1))
    v = checks.check_thm_1_2(g, a, b)
    assert v.passed
    # independent partial-sum oracle
    hinge = lambda t: np.maximum(t - 1.0, 0.0)
    lhs = sum(
        (vec * hinge(np.maximum(w, 0.0))) @ vec.conj().T
        for w, vec in (np.linalg.eigh(m) for m in (a, b))
    )
    assert partial_sums_dominated(
        np.sort(np.linalg.eigvalsh(lhs))[::-1], fn_eigs(hinge, a + b)
    )


def test_thm_1_2_power_m_matches_direct_powers():
    # spectral t^m must agree with direct matrix powers in every norm
    a, b = psd(4, 100), psd(4, 101)
    for m in (2, 3):
        v = checks.check_thm_1_2(sf.power_m_fn(m), a, b)
        direct_lhs = np.linalg.matrix_power(a, m) + np.linalg.matrix_power(b, m)
        direct_rhs = np.linalg.matrix_power(a + b, m)
        for spec in norms.norm_grid(4):
            nl, nr = norm(direct_lhs, spec), norm(direct_rhs, spec)
            assert nl <= nr + 1e-10 * max(1.0, nr)
        assert v.passed


def test_thm_1_2_smoothed_inverse_forward_map():
    # one-to-one convex map whose inverse is operator concave
    g = sf.smoothed_fn(0.7, 0.05)
    assert checks.check_thm_1_2(g, psd(5, 200), psd(5, 201)).passed


def test_thm_1_2_cone_of_angles():
    g = sf.cone_combine([0.3, 1.7], [sf.angle_fn(0.5), sf.angle_fn(1.5)])
    assert checks.check_thm_1_2(g, psd(4, 300), psd(4, 301)).passed


# ------------------------------------------------------ Davis/Hansen, (2)


def test_davis_hansen_seed13_lambda_min_oracle():
    f = sf.sqrt_fn()
    a = psd(4, derive_stream(13, 0))
    z = generate(GenSpec("contraction", 4, derive_stream(13, 1)))
    v = checks.check_davis_hansen(f, a, z)
    assert v.passed
    # independent oracle on the difference
    fa = linalg.spectral_apply(np.sqrt, a)
    diff = linalg.spectral_apply(
        np.sqrt, linalg.hermitian_part(z.conj().T @ a @ z)
    ) - z.conj().T @ fa @ z
    assert np.linalg.eigvalsh(linalg.hermitian_part(diff)).min() >= -1e-9


def test_davis_hansen_projection_compression():
    # Davis special case: Z = orthogonal projection
    a = psd(4, 500)
    p = np.zeros((4, 4), dtype=complex)
    p[0, 0] = p[2, 2] = 1.0
    assert checks.check_davis_hansen(sf.power_fn(0.5), a, p).passed


def test_davis_hansen_rejects_expansion():
    with pytest.raises(NotAContraction):
        checks.check_davis_hansen(sf.sqrt_fn(), np.eye(2), 2.0 * np.eye(2))


def test_davis_hansen_has_no_false_violation_on_rank_deficient_operands():
    """A's exact zero eigenvalues come out of eigh as +-1e-17.  Unless
    they are clamped to 0, sqrt and t^s lift the positive ones far above
    rounding in f(A), f(Z* A Z) rounds apart, and the theorem seems to
    fail by up to 2e-4."""
    rng = np.random.default_rng(11)
    draws = falsify.FN_DRAWS[sf.OPERATOR_CONCAVE]
    failed = []
    for _ in range(400):
        n = int(rng.integers(2, 9))
        rank = max(1, n // 3)
        g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
        a = linalg.hermitian_part(g @ g.conj().T)  # a complex Wishart
        a = a / linalg.opnorm(a)
        z = generate(GenSpec("contraction", n, int(rng.integers(2**63))))
        fn = draws[int(rng.integers(len(draws)))](rng)
        verdict = checks.check_davis_hansen(sf.from_descriptor(fn), a, z)
        if not verdict.passed:
            failed.append((fn, verdict.min_margin))
    assert failed == []


def test_pinching_eq2_seed21():
    f = sf.sqrt_fn()
    a, b = pd(4, derive_stream(21, 0)), pd(4, derive_stream(21, 1))
    assert checks.check_pinching_eq2(f, a, b).passed


def test_pinching_eq2_rejects_singular():
    with pytest.raises(NotPositiveDefinite):
        checks.check_pinching_eq2(sf.sqrt_fn(), np.diag([1.0, 0.0]), np.zeros((2, 2)))


# ---------------------------------------------------------------- prop 2.1


def test_prop_2_1_seed2_partial_sum_oracle():
    g = sf.inv_sqrt_fn()
    a, b = pd(4, derive_stream(2, 0)), pd(4, derive_stream(2, 1))
    v = checks.check_prop_2_1(g, a, b)
    assert v.passed
    # oracle: (A+B)g(A+B) = (A+B)^{1/2} spectrally, compare partial sums
    w, vec = np.linalg.eigh(a + b)
    lhs_eigs = np.sort(np.sqrt(w))[::-1]
    ra = linalg.spectral_apply(np.sqrt, a)
    rb = linalg.spectral_apply(np.sqrt, b)
    gsum = (vec * (1.0 / np.sqrt(w))) @ vec.conj().T
    rhs = ra @ gsum @ ra + rb @ gsum @ rb
    assert partial_sums_dominated(
        lhs_eigs, np.sort(np.linalg.eigvalsh(linalg.hermitian_part(rhs)))[::-1]
    )


def test_prop_2_1_log_ratio():
    g = sf.log1p_over_t_fn()
    assert checks.check_prop_2_1(g, psd(5, 600), psd(5, 601)).passed


# ---------------------------------------------------------------- thm 2.4


def test_thm_2_4_seed17():
    f = sf.log1p_fn()
    a = psd(4, derive_stream(17, 0))
    z = np.eye(4) + psd(4, derive_stream(17, 1))  # I + W is expansive
    v = checks.check_thm_2_4(f, a, z)
    assert v.passed


def test_thm_2_4_rejects_contraction():
    with pytest.raises(NotExpansive):
        checks.check_thm_2_4(sf.sqrt_fn(), np.eye(2), 0.5 * np.eye(2))


# -------------------------------------------------------------- eigen-sum


def test_eigen_sum_weyl_case():
    a, b = psd(4, 700), psd(4, 701)
    v = checks.check_eigen_sum(sf.power_fn(1.0), a, b, 0, 0)
    assert v.passed
    # Weyl: lambda_1(A+B) <= lambda_1(A) + lambda_1(B)
    assert np.linalg.eigvalsh(a + b).max() <= (
        np.linalg.eigvalsh(a).max() + np.linalg.eigvalsh(b).max() + 1e-12
    )


def test_eigen_sum_sweep_general_seed31():
    # triangle-inequality mode on general complex operands, all valid (j,k)
    a = generate(GenSpec("general", 5, derive_stream(31, 0)))
    b = generate(GenSpec("general", 5, derive_stream(31, 1)))
    for j in range(5):
        for k in range(5 - j):
            v = checks.check_eigen_sum(sf.sqrt_fn(), a, b, j, k)
            assert v.passed, (j, k, v.min_margin)


def test_eigen_sum_psd_sweep():
    a, b = psd(6, 800), psd(6, 801)
    for j in range(6):
        for k in range(6 - j):
            assert checks.check_eigen_sum(sf.power_fn(0.3), a, b, j, k).passed


@pytest.mark.parametrize("kind", ["psd", "general"])
def test_eigen_sum_reads_the_values_only_svd(kind):
    """The eigenvalues of f(|X|) are f(sigma(X)) and |X| = X for PSD X, so
    both sides are f of the values-only SVD of A + B, A and B, for PSD and
    general operands alike: bit for bit where the SVD is eigen-sum's own
    route (general operands), to rounding where exactly Hermitian operands
    take eigvalsh."""
    n, f = 5, sf.sqrt_fn()
    a = generate(GenSpec(kind, n, derive_stream(41, 0)))
    b = generate(GenSpec(kind, n, derive_stream(41, 1)))
    s_sum, s_a, s_b = (np.linalg.svd(x, compute_uv=False) for x in (a + b, a, b))
    for j in range(n):
        for k in range(n - j):
            [record] = checks.check_eigen_sum(f, a, b, j, k).records
            lhs, rhs = np.sqrt(s_sum[j + k]), np.sqrt(s_a[j]) + np.sqrt(s_b[k])
            if kind == "general":
                assert (record.lhs, record.rhs) == (lhs, rhs)
            else:
                assert record.lhs == pytest.approx(lhs, rel=1e-13, abs=1e-15)
                assert record.rhs == pytest.approx(rhs, rel=1e-13, abs=1e-15)


def test_eigen_sum_index_bounds():
    with pytest.raises(IndexOutOfRange):
        checks.check_eigen_sum(sf.sqrt_fn(), np.eye(2), np.eye(2), 1, 1)


# ------------------------------------------------------------- section 3


def test_cs_lemma_seed8_direct_oracle():
    s = lambda i: derive_stream(8, i)
    a1, a2, b1, b2 = psd(3, s(0)), psd(3, s(1)), psd(3, s(2)), psd(3, s(3))
    c1 = generate(GenSpec("contraction", 3, s(4)))
    c2 = generate(GenSpec("contraction", 3, s(5)))
    v = checks.check_cs_lemma(a1, a2, b1, b2, c1, c2)
    assert v.passed
    # direct evaluation for the operator and trace norms
    lhs = a1 @ c1 @ b1 + a2 @ c2 @ b2
    for ord_, spec in ((2, norms.OPERATOR), ("nuc", norms.TRACE)):
        nl = np.linalg.norm(lhs, ord_)
        nr = np.sqrt(
            np.linalg.norm(a1 @ a1 + a2 @ a2, ord_)
            * np.linalg.norm(b1 @ b1 + b2 @ b2, ord_)
        )
        assert nl <= nr + 1e-9 * max(1, nr)


def test_ineq_4_seed14():
    a = generate(GenSpec("general", 4, derive_stream(14, 0)))
    b = generate(GenSpec("general", 4, derive_stream(14, 1)))
    v = checks.check_ineq_4(a, b)
    assert v.passed
    # direct oracle for the operator norm
    nl = np.linalg.norm(a + b, 2)
    nr = np.sqrt(
        np.linalg.norm(linalg.matrix_abs(a) + linalg.matrix_abs(b), 2)
        * np.linalg.norm(
            linalg.matrix_abs(a.conj().T) + linalg.matrix_abs(b.conj().T), 2
        )
    )
    assert nl <= nr + 1e-9 * max(1, nr)


def test_thm_3_1_seed6():
    blocks = [generate(GenSpec("normal", 3, derive_stream(6, i))) for i in range(4)]
    v = checks.check_thm_3_1(*blocks)
    assert v.passed
    # partial-sum oracle: block singular values vs zero-padded RHS eigenvalues
    big = np.block([[blocks[0], blocks[1]], [blocks[2], blocks[3]]])
    rhs = sum(linalg.matrix_abs(x) for x in blocks)
    sl = np.linalg.svd(big, compute_uv=False)
    sr = np.concatenate([np.sort(np.linalg.eigvalsh(rhs))[::-1], np.zeros(3)])
    assert partial_sums_dominated(sl, sr)


def test_thm_3_1_rejects_non_normal():
    nil = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    with pytest.raises(NotNormal):
        checks.check_thm_3_1(nil, eye, eye, eye)


def test_thm_3_2_seed23():
    blocks = [generate(GenSpec("normal", 3, derive_stream(23, i))) for i in range(4)]
    v = checks.check_thm_3_2(*blocks)
    assert v.passed
    lhs = np.linalg.norm(np.block([[blocks[0], blocks[1]], [blocks[2], blocks[3]]]), 2)
    absb = [linalg.matrix_abs(x) for x in blocks]
    bound = max(
        np.linalg.norm(absb[0] + absb[1], 2),
        np.linalg.norm(absb[2] + absb[3], 2),
        np.linalg.norm(absb[0] + absb[2], 2),
        np.linalg.norm(absb[1] + absb[3], 2),
    )
    assert lhs <= bound + 1e-9 * max(1, bound)


def test_cor_3_3_seed27():
    a = generate(GenSpec("hermitian", 3, derive_stream(27, 0)))
    b = generate(GenSpec("hermitian", 3, derive_stream(27, 1)))
    x = generate(GenSpec("general", 3, derive_stream(27, 2)))
    v = checks.check_cor_3_3(a, b, x)
    assert v.passed
    lhs = np.linalg.norm(np.block([[a, x.conj().T], [x, b]]), 2)
    bound = max(
        np.linalg.norm(linalg.matrix_abs(a) + linalg.matrix_abs(x), 2),
        np.linalg.norm(linalg.matrix_abs(b) + linalg.matrix_abs(x.conj().T), 2),
    )
    assert lhs <= bound + 1e-9 * max(1, bound)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_cor_3_3_record_labels(n):
    a = generate(GenSpec("hermitian", n, derive_stream(28, 0)))
    b = generate(GenSpec("hermitian", n, derive_stream(28, 1)))
    x = generate(GenSpec("general", n, derive_stream(28, 2)))
    v = checks.check_cor_3_3(a, b, x)
    assert [r.label for r in v.records] == ["operator"]
    assert v.passed


def cor_3_3_embedding(a, b, x):
    """The paper's route to Cor 3.3: Thm 3.2 on the 4n embedding with
    blocks diag(0, A), [[0, X], [X*, 0]] (as both B and C) and diag(B, 0)."""
    z = np.zeros_like(x)
    big_a = np.block([[z, z], [z, a]])
    big_d = np.block([[b, z], [z, z]])
    big_x = np.block([[z, x], [x.conj().T, z]])
    return checks.check_thm_3_2(big_a, big_x, big_x, big_d)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_cor_3_3_agrees_with_its_embedding(tmp_path_factory, n, seed):
    case = falsify.sample_case("cor3.3", n, seed)
    m = case.matrices
    direct = falsify.run_case(case)
    embedded = cor_3_3_embedding(m["a"], m["b"], m["x"])
    assert embedded.passed == direct.passed
    (d,), (e,) = direct.records, embedded.records
    bound = 64 * n * np.finfo(float).eps * max(1.0, d.rhs)
    for field in ("lhs", "rhs", "margin"):
        assert abs(getattr(e, field) - getattr(d, field)) <= bound, field
    # a certificate written when the embedding row was part of the verdict
    # stored the smaller of the two margins; it must still replay
    cert = falsify.make_certificate(case, direct)
    cert["margin"] = min(d.margin, e.margin)
    path = tmp_path_factory.getbasetemp() / "cor3.3-cert.json"
    path.write_text(json.dumps(cert))
    assert cli.main(["replay", str(path)]) == cli.EXIT_OK


def test_thm_3_2_repeated_operand_matches_distinct_copies():
    """One array passed as both B and C, as the cor3.3 embedding reference
    does, gives the record that two equal copies give."""
    a = generate(GenSpec("hermitian", 4, 61))
    x = generate(GenSpec("hermitian", 4, 62))
    d = generate(GenSpec("hermitian", 4, 63))
    same = checks.check_thm_3_2(a, x, x, d)
    copies = checks.check_thm_3_2(a, x, x.copy(), d)
    assert same.records == copies.records


def test_thm_3_2_repeated_operand_still_checked_for_normality():
    a = np.eye(2, dtype=complex)
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NotNormal, match="B is not normal"):
        checks.check_thm_3_2(a, nilpotent, nilpotent, a)


def test_prop_3_4_seed35():
    a = generate(GenSpec("normal", 4, derive_stream(35, 0)))
    b = generate(GenSpec("normal", 4, derive_stream(35, 1)))
    v = checks.check_prop_3_4(a, b)
    assert v.passed
    sl = np.linalg.svd(a + b, compute_uv=False)
    sr = np.sort(np.linalg.eigvalsh(linalg.matrix_abs(a) + linalg.matrix_abs(b)))[::-1]
    assert partial_sums_dominated(sl, sr)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("check", ["prop3.4", "cs-lemma"])
def test_nan_margin_fails_the_verdict(check):
    """Singular values near the top of the float range: a Ky Fan partial
    sum overflows on both sides (or its square root product does), so its
    margin is NaN while the first stays finite; a NaN in any record must
    fail the verdict."""
    eye = np.eye(3, dtype=complex)
    if check == "prop3.4":
        a = np.diag([0.7e308] * 3).astype(complex)
        v = checks.check_prop_3_4(a, 0 * eye, enforce=False)
    else:
        a1 = np.diag([1e154, 0.9e154, 1.0]).astype(complex)
        v = checks.check_cs_lemma(a1, 0 * eye, eye, eye, eye, eye)
    margins = [r.margin for r in v.records]
    assert np.isnan(margins).any() and not np.isnan(margins[0])
    assert not v.passed
    assert np.isnan(v.min_margin)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("check, scale", [("prop3.4", 1e110), ("prop3.4", 1e150),
                                          ("cs-lemma", 1e60), ("cs-lemma", 1e80)])
def test_grid_margins_stay_finite_far_up_the_scale(check, scale):
    """Scaled far up, sum(s**p) and the product of two grids overflow; the
    scale-safe Schatten norms and square-root products keep every margin
    finite, equal to the margins of the same operands scaled by 1e10."""

    def verdict(c):
        if check == "prop3.4":
            a, b = (generate(GenSpec("normal", 3, seed)) * c for seed in (11, 12))
            return checks.check_prop_3_4(a, b)
        psds = [generate(GenSpec("psd", 3, seed)) * c for seed in range(11, 15)]
        cons = [generate(GenSpec("contraction", 3, seed)) for seed in (15, 16)]
        return checks.check_cs_lemma(*psds, *cons)

    v, ref = verdict(scale), verdict(1e10)
    assert v.passed
    margins = [r.margin for r in v.records]
    assert np.isfinite(margins).all()
    np.testing.assert_allclose(margins, [r.margin for r in ref.records], rtol=1e-9)


def test_prop_3_5_sweep_seed4():
    s = generate(GenSpec("hermitian", 5, derive_stream(4, 0)))
    t = generate(GenSpec("hermitian", 5, derive_stream(4, 1)))
    for j in range(5):
        for k in range(5 - j):
            assert checks.check_prop_3_5_eigen(s, t, j, k).passed


def test_ineq_5_seed44():
    a, b = psd(4, derive_stream(44, 0)), psd(4, derive_stream(44, 1))
    v = checks.check_ineq_5(a, b, 1j, 3)
    assert v.passed
    sl = np.linalg.svd(np.linalg.matrix_power(a + 1j * b, 3), compute_uv=False)
    sr = np.linalg.svd(np.linalg.matrix_power(a + b, 3), compute_uv=False)
    assert partial_sums_dominated(sl, sr)


# ------------------------------------------------------------ identity (6)


def brute_force_root_average(a, b, m):
    """Word-expansion oracle: expand (1/m) sum_j (A + w^j B)^m term by term."""
    w = np.exp(2j * np.pi / m)
    n = a.shape[0]
    total = np.zeros((n, n), dtype=complex)
    for word in itertools.product((0, 1), repeat=m):
        prod = np.eye(n, dtype=complex)
        for letter in word:
            prod = prod @ (b if letter else a)
        nb = sum(word)
        coeff = sum(w ** (j * nb) for j in range(m)) / m
        total = total + coeff * prod
    return total


def residual(a, b, m):
    """The identity (6) residual, as its verdict's one record holds it."""
    return checks.identity_6_verdict(a, b, m).records[0].lhs


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_identity_6_brute_force_oracle(m):
    # anti-typo guard: the corrected exponent form matches word counting
    a, b = psd(3, 900 + m), psd(3, 950 + m)
    expanded = brute_force_root_average(a, b, m)
    direct = np.linalg.matrix_power(a, m) + np.linalg.matrix_power(b, m)
    assert np.linalg.norm(expanded - direct, 2) <= 1e-12 * max(
        1, np.linalg.norm(direct, 2)
    )
    assert residual(a, b, m) <= 1e-12


def test_identity_6_m1_exact():
    assert residual(psd(3, 1000), psd(3, 1001), 1) == 0.0


def test_identity_6_m2_algebraic():
    # (1/2)[(A+B)^2 + (A-B)^2] = A^2 + B^2 for arbitrary A, B
    a = generate(GenSpec("general", 4, 1100))
    b = generate(GenSpec("general", 4, 1101))
    lhs = (np.linalg.matrix_power(a + b, 2) + np.linalg.matrix_power(a - b, 2)) / 2
    np.testing.assert_allclose(lhs, a @ a + b @ b, atol=1e-12)
    assert residual(psd(4, 1102), psd(4, 1103), 2) <= 1e-12


def test_identity_6_m5_seed50():
    a, b = psd(4, derive_stream(50, 0)), psd(4, derive_stream(50, 1))
    assert residual(a, b, 5) <= 1e-10


def test_cor_2_3_smoothed_inverse_crosscheck():
    # h_r is one-to-one with operator concave inverse; its forward map
    # must satisfy the superadditive dominance
    g = sf.smoothed_fn(1.0, 0.01)
    for seed in range(10):
        a = psd(4, derive_stream(1200, 2 * seed))
        b = psd(4, derive_stream(1200, 2 * seed + 1))
        assert checks.check_thm_1_2(g, a, b).passed


# ------------------------------------------------------- every check at once


HYPOTHESES = {
    "davis-hansen": {"z": "contraction"},
    "pinching-eq2": {"a": "pd", "b": "pd"},
    "thm2.4": {"z": "expansive"},
    "cs-lemma": {"c1": "contraction", "c2": "contraction"},
    "thm3.1": dict.fromkeys("abcd", "normal"),
    "thm3.2": dict.fromkeys("abcd", "normal"),
    "prop3.4": {"a": "normal", "b": "normal"},
}

VIOLATORS = {  # kind -> a 3 x 3 matrix outside it, the error and its text
    "pd": (np.diag([1.0, 1.0, 0.0]), NotPositiveDefinite, "positive definite"),
    "contraction": (2.0 * np.eye(3), NotAContraction, "a contraction"),
    "expansive": (0.5 * np.eye(3), NotExpansive, "expansive"),
    "normal": (np.triu(np.ones((3, 3))), NotNormal, "normal"),
}


def test_each_check_enforces_the_operand_hypotheses_it_declares():
    """The hypotheses derived from each declaration are the guards pinned
    here, so editing a declaration cannot drop one unnoticed, and each
    fires on an operand outside its kind."""
    derived = {cid: spec.hypotheses for cid, spec in checks.SPECS.items()}
    assert {cid: h for cid, h in derived.items() if h} == HYPOTHESES
    for cid, hypotheses in HYPOTHESES.items():
        for name, kind in hypotheses.items():
            matrix, error, what = VIOLATORS[kind]
            case = falsify.sample_case(cid, 3, derive_stream(4, 0))
            case.matrices[name] = matrix.astype(complex)
            with pytest.raises(error, match=f"^{name.upper()} is not {what}$"):
                falsify.run_case(case)


@pytest.mark.parametrize("enforce", [True, False])
@pytest.mark.parametrize("cid", checks.CHECK_IDS)
def test_operands_of_two_shapes_are_a_dimension_mismatch(cid, enforce):
    """Every checker, with its hypotheses enforced or not, raises
    DimensionMismatch when one operand is of another size, or a stack of
    another length than the rest."""
    case = falsify.sample_case(cid, 3, derive_stream(4, 0))
    last = list(case.matrices)[-1]
    m = case.matrices[last]
    for other in (m[:2, :2], np.stack([m, m])):
        with pytest.raises(DimensionMismatch, match="^operands differ in shape"):
            checks.SPECS[cid].run(case.fn(), {**case.matrices, last: other},
                                  case.scalars, enforce=enforce)


def test_a_function_or_scalar_per_matrix_must_match_the_stack():
    a, b = (np.stack([psd(3, seed), psd(3, seed + 1)]) for seed in (1, 3))
    sqrt = sf.from_descriptor({"kind": "sqrt"})
    assert len(checks.check_eigen_sum(sqrt, a, b, 0, k=[0, 1])) == 2
    with pytest.raises(DimensionMismatch, match="^3 of j for 2 matrices$"):
        checks.check_eigen_sum(sqrt, a, b, [0, 0, 0], 0)
    with pytest.raises(DimensionMismatch, match="^1 of f for 2 matrices$"):
        checks.check_eigen_sum([sqrt], a, b, 0, 0)


@pytest.mark.parametrize("cid", checks.CHECK_IDS)
def test_margins_are_invariant_under_unitary_conjugation(cid):
    """Every statement is unitarily invariant: conjugating all of a case's
    operands by one unitary U moves its min margin by rounding only."""
    for i in range(120):
        case = falsify.sample_case(cid, 1 + i % 8, derive_stream(9, i))
        u = generate(GenSpec("unitary", case.n, derive_stream(10, i)))
        moved = dataclasses.replace(
            case, matrices={k: u @ m @ u.conj().T for k, m in case.matrices.items()})
        shift = falsify.run_case(moved).min_margin - falsify.run_case(case).min_margin
        assert abs(shift) <= 1e-12, (i, shift)
