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
from reference_norms import norm

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


def test_zero_matrix_has_exact_zero_spectrum():
    """thm1.2 meets an all-zero matrix at n = 128 when g(A) = 0."""
    z = np.zeros((128, 128), dtype=complex)
    np.testing.assert_array_equal(norms.singular_values(z), np.zeros(128))
    np.testing.assert_array_equal(linalg.matrix_abs(z), z)


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
    norm(h, norms.OPERATOR)
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


@pytest.mark.parametrize("order, one_run_per_route", [
    ("GGHH", True), ("HG", True), ("GHG", False), ("HGGH", False),
])
def test_a_mixed_stack_gives_each_matrix_its_own_routes_bits(monkeypatch, order,
                                                             one_run_per_route):
    """A stack of general (G) and exactly Hermitian (H) matrices gives each
    matrix the bits it gets alone.  When each route takes one run of the
    stack, as the two sides of a verdict do, the SVD takes a view of its
    run rather than a masked copy."""
    mats = {kind[0].upper(): [generate(GenSpec(kind, 4, seed)) for seed in range(4)]
            for kind in ("general", "hermitian")}
    stack = np.stack([mats[c][t] for t, c in enumerate(order)])
    seen = []
    real_svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: seen.append(
        np.shares_memory(a, stack)) or real_svd(a, *args, **kw))
    sv, absolute = norms.singular_values(stack), linalg.matrix_abs(stack)
    assert seen == [one_run_per_route] * 2  # singular_values, then matrix_abs
    for t in range(len(order)):
        assert sv[t].tobytes() == norms.singular_values(stack[t]).tobytes()
        assert absolute[t].tobytes() == linalg.matrix_abs(stack[t]).tobytes()
