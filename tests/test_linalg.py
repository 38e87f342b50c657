import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normetry import linalg
from normetry.errors import ConvergenceFailure, DimensionMismatch, DomainError
from normetry.rand import GenSpec, derive_stream, generate


def rand_hermitian(n, seed):
    return generate(GenSpec("hermitian", n, seed))


def test_eigh_diagonal():
    spec = linalg.eigh(np.diag([2.0, 1.0]).astype(complex))
    np.testing.assert_allclose(spec.eigenvalues, [2.0, 1.0])


def test_eigh_symmetry():
    spec = linalg.eigh(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    np.testing.assert_allclose(spec.eigenvalues, [1.0, -1.0])


def test_eigh_reconstruction_seed7():
    h = rand_hermitian(8, 7)
    spec = linalg.eigh(h)
    residual = linalg.opnorm(h - spec.reconstruct())
    assert residual <= 1e-10 * max(1.0, linalg.opnorm(h))
    frame_err = linalg.opnorm(spec.frame @ spec.frame.conj().T - np.eye(8))
    assert frame_err <= 1e-10


@pytest.mark.parametrize("seed", range(50))
def test_eigh_reconstruction_many(seed):
    n = 2 + seed % 15
    h = rand_hermitian(n, derive_stream(1234, seed))
    spec = linalg.eigh(h)
    assert np.all(np.diff(spec.eigenvalues) <= 1e-14)
    assert linalg.opnorm(h - spec.reconstruct()) <= 1e-10 * max(1, linalg.opnorm(h))


def test_spectral_apply_sqrt_diagonal():
    out = linalg.spectral_apply(np.sqrt, np.diag([4.0, 9.0]).astype(complex))
    np.testing.assert_allclose(out, np.diag([2.0, 3.0]), atol=1e-12)


def test_spectral_apply_identity_function():
    h = rand_hermitian(5, 99)
    h = h @ h.conj().T  # PSD so the identity map is in-domain
    out = linalg.spectral_apply(lambda t: t, h)
    assert linalg.opnorm(out - h) <= 1e-10 * max(1, linalg.opnorm(h))


def test_spectral_apply_sqrt_2x2_hand_oracle():
    # [[2,1],[1,2]] has eigenvalues 3 and 1 (eigenvectors (1,1), (1,-1))
    a = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    out = linalg.spectral_apply(np.sqrt, a)
    w = np.linalg.eigvalsh(out)
    np.testing.assert_allclose(sorted(w), [1.0, np.sqrt(3.0)], atol=1e-12)


def test_spectral_apply_sqrt_then_square_roundtrip():
    p = generate(GenSpec("psd", 6, 42))
    root = linalg.spectral_apply(np.sqrt, p)
    assert linalg.opnorm(root @ root - p) <= 1e-8 * max(1, linalg.opnorm(p))


def test_spectral_apply_rejects_genuinely_negative():
    with pytest.raises(DomainError):
        linalg.spectral_apply(np.sqrt, np.diag([-1.0, 1.0]).astype(complex))


def test_spectral_apply_clamps_roundoff_negative():
    out = linalg.spectral_apply(np.sqrt, np.diag([-1e-12, 1.0]).astype(complex))
    assert np.all(np.isfinite(out))


def test_clamp_still_rejects_a_genuinely_negative_eigenvalue():
    clamp = linalg.NEG_EIG_CLAMP
    with pytest.raises(DomainError):
        linalg._clamp_spectrum(np.array([[1.0, 0.5, -2 * clamp]]))
    assert linalg._clamp_spectrum(np.array([[1.0, 0.5, -clamp / 2]])).tolist() == [
        [1.0, 0.5, 0.0]]


def test_clamp_zeroes_only_eigenvalues_inside_the_rounding_floor():
    """Eigenvalues within c n eps max|lambda| of 0 become exactly 0; those
    far above that floor, at any scale, keep their bits."""
    floor = linalg.EIG_ZERO_C * 4 * np.finfo(float).eps
    for scale in (1e-6, 1.0, 1e6):
        w = scale * np.array([[1.0, 1e3 * floor, 1e-3, -floor / 2],
                              [1.0, 1e-10, floor / 2, floor]])
        out = linalg._clamp_spectrum(w)
        assert out.tobytes() == np.array([w[0, :3].tolist() + [0.0],
                                          w[1, :2].tolist() + [0.0, 0.0]]).tobytes()


def test_matrix_abs_rotation_is_identity():
    x = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
    np.testing.assert_allclose(linalg.matrix_abs(x), np.eye(2), atol=1e-12)


def test_matrix_abs_diagonal():
    np.testing.assert_allclose(
        linalg.matrix_abs(np.diag([-2.0, 3.0]).astype(complex)),
        np.diag([2.0, 3.0]),
        atol=1e-12,
    )


def test_matrix_abs_matches_eigh_of_gram_oracle_seed3():
    x = generate(GenSpec("general", 5, 3))
    got = np.sort(np.linalg.eigvalsh(linalg.matrix_abs(x)))
    # independent route: sqrt of eigenvalues of X*X
    expected = np.sort(np.sqrt(np.maximum(np.linalg.eigvalsh(x.conj().T @ x), 0)))
    np.testing.assert_allclose(got, expected, atol=1e-9)


def test_matrix_abs_normal_shares_spectrum_with_adjoint():
    for seed in range(20):
        x = generate(GenSpec("normal", 4, derive_stream(77, seed)))
        wa = np.linalg.eigvalsh(linalg.matrix_abs(x))
        wb = np.linalg.eigvalsh(linalg.matrix_abs(x.conj().T))
        np.testing.assert_allclose(wa, wb, atol=1e-9)


def test_polar_of_unitary():
    u = generate(GenSpec("unitary", 4, 8))
    parts = linalg.polar(u)
    np.testing.assert_allclose(parts.abs, np.eye(4), atol=1e-10)
    np.testing.assert_allclose(parts.u, u, atol=1e-10)


def test_polar_of_positive_definite():
    p = generate(GenSpec("pd", 4, 9))
    parts = linalg.polar(p)
    np.testing.assert_allclose(parts.u, np.eye(4), atol=1e-9)
    np.testing.assert_allclose(parts.abs, p, atol=1e-10)


def test_polar_mixed_form_seed11():
    x = generate(GenSpec("expansive", 4, 11))  # invertible by construction
    parts = linalg.polar(x)
    root_abs = linalg.spectral_apply(np.sqrt, parts.abs)
    root_abs_star = linalg.spectral_apply(np.sqrt, parts.abs_star)
    residual = linalg.opnorm(root_abs_star @ parts.u @ root_abs - x)
    assert residual <= 1e-9 * max(1, linalg.opnorm(x))


def test_polar_reconstructs():
    for seed in range(10):
        x = generate(GenSpec("general", 5, derive_stream(5, seed)))
        parts = linalg.polar(x)
        assert linalg.opnorm(parts.u @ parts.abs - x) <= 1e-10 * max(
            1, linalg.opnorm(x)
        )
        assert linalg.opnorm(
            parts.u @ parts.abs @ parts.u.conj().T - parts.abs_star
        ) <= 1e-9 * max(1, linalg.opnorm(x))


def test_predicates_unitary():
    u = generate(GenSpec("unitary", 3, 2))
    assert linalg.is_normal(u)
    assert linalg.is_contraction(u)
    assert linalg.is_expansive(u)


def test_predicates_scaled_identity():
    d = np.diag([2.0, 2.0]).astype(complex)
    assert linalg.is_normal(d)
    assert linalg.is_expansive(d)
    assert not linalg.is_contraction(d)


def test_predicates_nilpotent_not_normal():
    assert not linalg.is_normal(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


# --- guards: each still fires just past its threshold --------------------


def test_hermitize_rejects_drift():
    m = np.eye(3, dtype=complex)
    m[0, 1] = 1e-9
    with pytest.raises(DomainError, match="not Hermitian"):
        linalg.hermitize(m)
    m[0, 1] = 0.5e-12  # drift 0.5e-12 is inside 1e-12 * max(1, ||M||)
    linalg.hermitize(m)


def test_eigh_rejects_poor_reconstruction(monkeypatch):
    real_eigh = np.linalg.eigh

    def sloppy_eigh(a):
        w, v = real_eigh(a)
        return w, v + 1e-6

    monkeypatch.setattr(np.linalg, "eigh", sloppy_eigh)
    with pytest.raises(ConvergenceFailure, match="residual"):
        linalg.eigh(rand_hermitian(4, 3))


def test_is_psd_rejects_just_past_eigenvalue_threshold():
    tol = 1e-9
    assert linalg.is_psd(np.diag([1.0, -0.99 * tol]).astype(complex), tol=tol)
    assert not linalg.is_psd(np.diag([1.0, -1.01 * tol]).astype(complex), tol=tol)


def test_is_psd_rejects_just_past_drift_threshold():
    tol = 1e-9
    m = np.eye(2, dtype=complex)
    m[0, 1] = 0.99 * tol  # drift ||M - M*||_op = |m01|, ||M||_op ~ 1
    assert linalg.is_psd(m, tol=tol)
    m[0, 1] = 1.01 * tol
    assert not linalg.is_psd(m, tol=tol)


def test_is_normal_rejects_just_past_threshold():
    # [[1, e], [0, 1]] has commutator diag(e^2, -e^2) and ||M||_op^2 = 1 + O(e)
    tol = 1e-9
    m = np.eye(2, dtype=complex)
    m[0, 1] = np.sqrt(0.99 * tol)
    assert linalg.is_normal(m, tol=tol)
    m[0, 1] = np.sqrt(1.02 * tol)
    assert not linalg.is_normal(m, tol=tol)


def test_guards_skip_the_svd_on_clean_inputs(monkeypatch):
    calls = []
    real_opnorm = linalg.opnorm
    monkeypatch.setattr(
        linalg, "opnorm", lambda x: calls.append(1) or real_opnorm(x)
    )
    h = rand_hermitian(6, 5)
    linalg.eigh(h)
    linalg.is_psd(h @ h)
    linalg.is_normal(h)
    assert calls == []


# --- the two-stage decision equals the plain SVD decision ----------------


def svd_within(x, s, tol, power=1):
    """The single-stage reference: ||x||_op <= tol * max(1, ||s||_op**power)."""
    lhs = linalg.opnorm(x) if isinstance(x, np.ndarray) else x
    return lhs <= tol * max(1.0, linalg.opnorm(s) ** power)


def random_complex(rng, n, rank=None):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if rank == 1:
        m = np.outer(m[:, 0], m[0].conj())
    return m


# where the scaled input sits relative to the threshold, as a factor
PLACEMENTS = st.sampled_from(
    [1e-6, 0.5, 1 - 1e-9, 1 - 1e-15, 1.0, 1 + 1e-15, 1 + 1e-9, 2.0, 1e6]
)


@settings(max_examples=300, deadline=None)
# a threshold hit exactly, where ||s||**2 by x * x is one ulp below C pow's
@example(seed=2598420, n=1, power=2, tol=1e-12, s_scale=1.0, shape="general",
         s_unitary=False, placement=1.0)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    power=st.sampled_from([1, 2]),
    tol=st.sampled_from([1e-12, 1e-10, 1e-9, 1e-8, 0.3]),
    s_scale=st.sampled_from([1e-3, 1.0, 1e3]),
    shape=st.sampled_from(["general", "rank1", "scalar"]),
    s_unitary=st.booleans(),
    placement=PLACEMENTS,
)
def test_two_stage_matches_svd_decision(
    seed, n, power, tol, s_scale, shape, s_unitary, placement
):
    rng = np.random.default_rng(seed)
    s = s_scale * (
        generate(GenSpec("unitary", n, seed)) if s_unitary else random_complex(rng, n)
    )
    threshold = tol * max(1.0, linalg.opnorm(s) ** power)
    if shape == "scalar":
        x = float(placement * threshold * rng.choice([-1.0, 1.0]))
    else:
        x0 = random_complex(rng, n, rank=1 if shape == "rank1" else None)
        x = x0 * (placement * threshold / linalg.opnorm(x0))
    assert linalg._opnorm_within(x, s, tol, power) == svd_within(x, s, tol, power)


def test_outside_inputs_reach_the_exact_stage(monkeypatch):
    calls = []
    real_opnorm = linalg.opnorm
    monkeypatch.setattr(
        linalg, "opnorm", lambda x: calls.append(1) or real_opnorm(x)
    )
    s = np.eye(3, dtype=complex)
    x = np.zeros((3, 3), dtype=complex)
    x[0, 0] = 1.01e-9
    assert not linalg._opnorm_within(x, s, 1e-9)
    assert len(calls) == 2  # both sides of the SVD comparison


def test_far_outside_inputs_skip_the_svd(monkeypatch):
    calls = []
    real_opnorm = linalg.opnorm
    monkeypatch.setattr(
        linalg, "opnorm", lambda x: calls.append(1) or real_opnorm(x)
    )
    g = generate(GenSpec("general", 5, 4))
    assert not linalg.is_psd(g)
    assert not linalg.is_normal(g)
    assert not linalg._opnorm_within(2e-9 * np.eye(3, dtype=complex), np.eye(3), 1e-9)
    assert calls == []


# single-stage references: each predicate with its thresholds taken by SVD


def svd_is_psd(m, tol):
    if linalg.opnorm(m - m.conj().T) > tol * max(1.0, linalg.opnorm(m)):
        return False
    w = np.linalg.eigvalsh((m + m.conj().T) / 2)
    return float(w[0]) >= -tol * max(1.0, linalg.opnorm(m))


def svd_is_normal(m, tol):
    comm = m @ m.conj().T - m.conj().T @ m
    return linalg.opnorm(comm) <= tol * max(1.0, linalg.opnorm(m) ** 2)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    placement=PLACEMENTS,
)
def test_predicates_match_single_stage_reference(seed, n, placement):
    tol = 1e-9
    rng = np.random.default_rng(seed)
    h = generate(GenSpec("hermitian", n, seed))
    skew = random_complex(rng, n)
    skew = skew - skew.conj().T
    # a Hermitian matrix plus a skew part sized around the drift threshold
    drift = placement * tol * max(1.0, linalg.opnorm(h))
    m = h + skew * (drift / max(linalg.opnorm(skew), 1e-300))
    assert linalg.is_psd(m, tol) == svd_is_psd(m, tol)
    assert linalg.is_normal(m, tol) == svd_is_normal(m, tol)
    # I + t E_01 has a commutator of norm about t^2, near tol for this t
    jordan = np.eye(n, dtype=complex)
    if n > 1:
        jordan[0, 1] = np.sqrt(placement * tol)
    assert linalg.is_normal(jordan, tol) == svd_is_normal(jordan, tol)
    # shift h so that lambda_min sits around the eigenvalue threshold
    w = np.linalg.eigvalsh(h)
    spread = max(1.0, float(w[-1] - w[0]))
    y = h - (w[0] + placement * tol * spread) * np.eye(n)
    assert linalg.is_psd(y, tol) == svd_is_psd(y, tol)


def test_hermitize_returns_exactly_hermitian_input_itself():
    h = rand_hermitian(5, 2)
    assert linalg.hermitize(h) is h
    assert linalg.hermitian_part(h) is not h
    drifted = h.copy()
    drifted[0, 1] += 1e-13  # inside the drift tolerance
    out = linalg.hermitize(drifted)
    assert out is not drifted and linalg.is_exactly_hermitian(out)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    log_scale=st.sampled_from([-6.0, 0.0, 6.0]),
    tol=st.sampled_from([1e-12, 1e-9]),
)
def test_is_normal_of_exactly_hermitian_matches_reference(seed, n, log_scale, tol):
    h = rand_hermitian(n, seed) * 10.0**log_scale
    assert linalg.is_exactly_hermitian(h)
    assert linalg.is_normal(h, tol) == svd_is_normal(h, tol)


def bad_inputs():
    """Non-finite entries (NaN, +inf, -inf, complex NaN) and shapes that are
    neither a square matrix nor a stack of them."""
    out = []
    for value in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
        m = np.eye(3, dtype=complex)
        m[1, 2] = m[2, 1] = value
        out.append(pytest.param(m, DomainError, id=f"entry-{value}"))
    for shape in ((2, 3), (4,), (2, 2, 3), (2, 2, 2, 2)):
        out.append(pytest.param(np.ones(shape), DimensionMismatch, id=f"shape-{shape}"))
    return out


@pytest.mark.parametrize("func", [
    linalg.as_square, linalg.hermitize, linalg.eigh, linalg.hermitian_part,
    linalg.matrix_abs, linalg.eigvalsh_desc,
])
@pytest.mark.parametrize("bad, error", bad_inputs())
def test_guards_still_fire_on_bad_input(func, bad, error):
    with pytest.raises(error):
        func(bad)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_synthesize_rejects_a_non_finite_product():
    """f(w) = 1/w is inf on the zero eigenvalue; the product V diag(f(w)) V*
    is rejected, as ``hermitian_part`` of it would be."""
    with pytest.raises(DomainError):
        linalg.spectral_apply(lambda w: 1.0 / w, np.diag([0.0, 1.0]).astype(complex))
    v = np.eye(2, dtype=complex)
    with pytest.raises(DomainError):
        linalg.synthesize(v, np.array([np.nan, 1.0]))
    big = np.full(2, 1.5e308)
    with pytest.raises(DomainError):  # finite weights, overflowing product
        linalg.synthesize(np.full((2, 2), 1.0, dtype=complex), big)


def test_synthesize_equals_hermitian_part_of_the_product():
    for seed in range(20):
        spec = linalg.eigh(rand_hermitian(5, seed))
        w = np.abs(spec.eigenvalues)
        out = linalg.synthesize(spec.frame, w)
        ref = linalg.hermitian_part((spec.frame * w) @ spec.frame.conj().T)
        assert out.tobytes() == ref.tobytes()


def clamp_reference(w):
    """The clamp window decided over every eigenvalue, not just the ends."""
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    return not np.any(w < -linalg.NEG_EIG_CLAMP * scale)


@pytest.mark.parametrize("top", [0.5, 1.0, 3.0, 1e6])
@pytest.mark.parametrize("placement", [0.5, 1.0, 2.0])
def test_clamp_window_decides_as_the_full_scan(top, placement):
    """Descending spectra whose least eigenvalue sits inside, on or past the
    window, with the largest magnitude at either end."""
    clamp = linalg.NEG_EIG_CLAMP
    for w in (
        [top, top / 2, 0.0, -placement * clamp * max(1.0, top)],
        [clamp / 10, -placement * clamp],
        [1e-3, -0.5, -top],
    ):
        w = np.array(w)
        if clamp_reference(w):
            assert linalg._clamp_spectrum(w).tolist() == np.maximum(w, 0.0).tolist()
        else:
            with pytest.raises(DomainError):
                linalg._clamp_spectrum(w)


def signed_zero_matrix(re, im):
    m = np.empty(re.shape, dtype=complex)
    m.real, m.imag = re, im
    return m


finite_or_not = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-310, np.nan, np.inf, -np.inf])


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 5),
    data=st.data(),
    mode=st.sampled_from(["random", "hermitian", "hermitian-signed-zero"]),
)
def test_is_exactly_hermitian_agrees_with_array_equal(n, data, mode):
    entries = st.lists(finite_or_not, min_size=n * n, max_size=n * n)
    re = np.array(data.draw(entries)).reshape(n, n)
    im = np.array(data.draw(entries)).reshape(n, n)
    if mode != "random":
        re = np.triu(re) + np.triu(re, 1).T
        im = np.triu(im, 1) - np.triu(im, 1).T
    if mode == "hermitian-signed-zero":
        im = np.where(im == 0, -0.0, im)
    m = signed_zero_matrix(re, im)
    expected = np.array_equal(m, m.conj().T)
    assert linalg.is_exactly_hermitian(m) is expected
