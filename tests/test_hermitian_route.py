"""Exactly-Hermitian operands take eigvalsh/eigh instead of the SVD.

For Hermitian H the singular values are |lambda(H)| and |H| = V|Lambda|V*.
The route is chosen by the test H == H* entry for entry, so these tests
check that both routes agree and that anything else still takes the SVD.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normetry import linalg, norms
from normetry.rand import GenSpec, generate

EPS = np.finfo(float).eps
C = 32  # slack factor on n * eps * max(1, ||H||) between the two routes

SHAPES = ("general", "repeated", "psd-rank-deficient", "negative-definite")


def hermitian_case(seed, n, shape, log_scale):
    """An exactly Hermitian matrix with the requested spectrum shape."""
    rng = np.random.default_rng(seed)
    q = generate(GenSpec("unitary", n, seed))
    if shape == "general":
        w = rng.standard_normal(n)
    elif shape == "repeated":
        w = rng.choice([-2.0, 1.0, 3.0], n)
    elif shape == "psd-rank-deficient":
        w = np.where(np.arange(n) < n // 2, 0.0, rng.uniform(0.5, 5.0, n))
    else:
        w = -rng.uniform(0.1, 4.0, n)
    m = (q * w) @ q.conj().T * 10.0**log_scale
    h = (m + m.conj().T) / 2
    assert linalg.is_exactly_hermitian(h)
    return h


def svd_singular_values(h):
    s = np.linalg.svd(h, compute_uv=False)
    return np.where(s < norms.SV_CLAMP_REL * s[0], 0.0, s) if s[0] > 0 else s


def svd_matrix_abs(h):
    _, s, vh = np.linalg.svd(h)
    v = vh.conj().T
    return (v * s) @ v.conj().T


CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    shape=st.sampled_from(SHAPES),
    log_scale=st.sampled_from([-3.0, 0.0, 3.0]),
)


@settings(max_examples=300, deadline=None)
@given(**CASES)
def test_singular_values_agree_with_svd(seed, n, shape, log_scale):
    h = hermitian_case(seed, n, shape, log_scale)
    bound = C * n * EPS * max(1.0, linalg.opnorm(h))
    s = norms.singular_values(h)
    assert np.all(np.diff(s) <= 0)
    np.testing.assert_allclose(s, svd_singular_values(h), rtol=0, atol=bound)


@settings(max_examples=300, deadline=None)
@given(**CASES)
def test_matrix_abs_agrees_with_svd(seed, n, shape, log_scale):
    h = hermitian_case(seed, n, shape, log_scale)
    bound = C * n * EPS * max(1.0, linalg.opnorm(h))
    a = linalg.matrix_abs(h)
    assert linalg.is_exactly_hermitian(a)
    assert linalg.opnorm(a - svd_matrix_abs(h)) <= bound


def test_n1_negative_entry():
    h = np.array([[-2.5 + 0j]])
    np.testing.assert_array_equal(norms.singular_values(h), [2.5])
    np.testing.assert_array_equal(linalg.matrix_abs(h), [[2.5]])


def count_svd_calls(monkeypatch):
    calls = []
    real_svd = np.linalg.svd
    monkeypatch.setattr(
        np.linalg, "svd", lambda *a, **k: calls.append(1) or real_svd(*a, **k)
    )
    return calls


def test_exactly_hermitian_skips_the_svd(monkeypatch):
    h = generate(GenSpec("hermitian", 5, 3))
    calls = count_svd_calls(monkeypatch)
    norms.singular_values(h)
    linalg.matrix_abs(h)
    norms.norm(h, norms.OPERATOR)
    assert calls == []


def test_one_ulp_off_hermitian_takes_the_svd(monkeypatch):
    h = generate(GenSpec("hermitian", 5, 3))
    off = h.copy()
    off[0, 1] = complex(np.nextafter(off[0, 1].real, np.inf), off[0, 1].imag)
    assert not linalg.is_exactly_hermitian(off)
    calls = count_svd_calls(monkeypatch)
    norms.singular_values(off)
    assert len(calls) == 1
    linalg.matrix_abs(off)
    assert len(calls) == 2


@pytest.mark.parametrize("kind", ["general", "normal", "unitary"])
def test_non_hermitian_inputs_take_the_svd(monkeypatch, kind):
    x = generate(GenSpec(kind, 4, 8))
    calls = count_svd_calls(monkeypatch)
    norms.singular_values(x)
    linalg.matrix_abs(x)
    assert len(calls) == 2


# --- direct sums: one LAPACK call per summand at and above SUMMAND_MIN_N ---


def direct_sum(seed, sizes, zero_rows):
    """Sparse, connected Hermitian summands of the given sizes plus zero
    rows, with the indices randomly permuted."""
    rng = np.random.default_rng(seed)
    n = sum(sizes) + zero_rows
    m = np.zeros((n, n), dtype=complex)
    start = 0
    for i, k in enumerate(sizes):
        block = generate(GenSpec("hermitian", k, seed + i)) * 10.0 ** rng.uniform(-2, 2)
        band = np.abs(np.subtract.outer(np.arange(k), np.arange(k))) <= 1  # a path
        keep = np.triu(rng.random((k, k)) < 0.1)
        m[start:start + k, start:start + k] = block * (band | keep | keep.T)
        start += k
    perm = rng.permutation(n)
    return m[np.ix_(perm, perm)]


def count_lapack_calls(monkeypatch):
    sizes = []
    for name in ("eigh", "eigvalsh", "svd"):
        real = getattr(np.linalg, name)

        def spy(m, *a, _real=real, **k):
            sizes.append(m.shape[0])
            return _real(m, *a, **k)

        monkeypatch.setattr(np.linalg, name, spy)
    return sizes


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    sizes=st.lists(st.integers(1, 40), min_size=2, max_size=3),
    zero_rows=st.integers(0, 6),
    pad=st.integers(0, 16),
)
def test_direct_sums_agree_with_one_lapack_call(seed, sizes, zero_rows, pad):
    short = linalg.SUMMAND_MIN_N - sum(sizes) - zero_rows
    zero_rows += max(short, 0) + pad  # at or above the gate
    m = direct_sum(seed, sizes, zero_rows)
    n = m.shape[0]
    assert n >= linalg.SUMMAND_MIN_N and linalg.is_exactly_hermitian(m)
    bound = 1e-13 * max(1.0, linalg.opnorm(m))
    w, v = np.linalg.eigh(m)
    s = norms.singular_values(m)
    np.testing.assert_allclose(s, np.sort(np.abs(w))[::-1], rtol=0, atol=bound)
    assert np.count_nonzero(s) <= n - zero_rows
    a = linalg.matrix_abs(m)
    assert linalg.is_exactly_hermitian(a)
    assert linalg.opnorm(a - (v * np.abs(w)) @ v.conj().T) <= bound


def test_direct_sum_takes_one_call_per_summand(monkeypatch):
    n = linalg.SUMMAND_MIN_N
    m = direct_sum(5, [n // 2, n // 4], n - n // 2 - n // 4)
    calls = count_lapack_calls(monkeypatch)
    norms.singular_values(m)
    assert sorted(calls) == [n // 4, n // 2]
    calls.clear()
    linalg.matrix_abs(m)
    assert sorted(calls) == [n // 4, n // 2]
    calls.clear()
    diagonal = np.diag(np.arange(n) % 3 - 1.0).astype(complex)  # 1x1 summands
    np.testing.assert_array_equal(
        norms.singular_values(diagonal), np.sort(np.abs(np.diag(diagonal).real))[::-1]
    )
    np.testing.assert_array_equal(linalg.matrix_abs(diagonal), np.abs(diagonal))
    assert calls == []


@pytest.mark.parametrize("case", ["below-gate", "one-summand", "row0-dense"])
def test_below_the_gate_or_connected_takes_one_call(monkeypatch, case):
    n = linalg.SUMMAND_MIN_N
    if case == "below-gate":
        m = direct_sum(3, [n // 2 - 4, n // 4], 2)
    elif case == "one-summand":  # [[0, X], [X*, 0]]: zeros in row 0, connected
        x = generate(GenSpec("general", n // 2, 3))
        z = np.zeros_like(x)
        m = np.block([[z, x], [x.conj().T, z]])
    else:
        m = generate(GenSpec("hermitian", n, 3))
    assert m.shape[0] >= n or case == "below-gate"
    assert linalg.direct_summands(m) is None
    calls = count_lapack_calls(monkeypatch)
    norms.singular_values(m)
    linalg.matrix_abs(m)
    assert calls == [m.shape[0]] * 2
