import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normetry import linalg, norms
from normetry.errors import BadSpec, DimensionMismatch
from normetry.norms import OPERATOR, TRACE, ky_fan, schatten
from normetry.rand import GenSpec, derive_stream, generate


def test_singular_values_diagonal():
    s = norms.singular_values(np.diag([3.0, -1.0]).astype(complex))
    np.testing.assert_allclose(s, [3.0, 1.0])


def test_singular_values_unitary():
    u = generate(GenSpec("unitary", 4, 1))
    np.testing.assert_allclose(norms.singular_values(u), np.ones(4), atol=1e-12)


def test_singular_values_match_matrix_abs_seed5():
    x = generate(GenSpec("general", 6, 5))
    sv = norms.singular_values(x)
    abs_eigs = linalg.eigvalsh_desc(linalg.matrix_abs(x))
    np.testing.assert_allclose(sv, abs_eigs, atol=1e-10)


def test_ky_fan_values():
    d = np.diag([3.0, 1.0]).astype(complex)
    assert norms.norm(d, ky_fan(1)) == pytest.approx(3.0)
    assert norms.norm(d, ky_fan(2)) == pytest.approx(4.0)


def test_schatten_two():
    d = np.diag([3.0, 4.0]).astype(complex)
    assert norms.norm(d, schatten(2)) == pytest.approx(5.0)


def test_operator_schatten_inf_alias():
    x = generate(GenSpec("general", 5, 11))
    assert abs(norms.norm(x, OPERATOR) - norms.norm(x, schatten(math.inf))) <= 1e-12


def test_alias_grid():
    x = generate(GenSpec("general", 4, 13))
    n = 4
    assert abs(norms.norm(x, OPERATOR) - norms.norm(x, ky_fan(1))) <= 1e-10
    assert abs(norms.norm(x, TRACE) - norms.norm(x, ky_fan(n))) <= 1e-10
    assert abs(norms.norm(x, TRACE) - norms.norm(x, schatten(1))) <= 1e-10


def test_bad_spec():
    with pytest.raises(BadSpec):
        norms.norm(np.eye(2), ky_fan(3))
    with pytest.raises(BadSpec):
        schatten(0.5)
    with pytest.raises(BadSpec):
        ky_fan(0)


def test_schatten_rejects_nan_p():
    with pytest.raises(BadSpec):
        schatten(math.nan)


@pytest.mark.parametrize("k", [2.5, 2.0, math.nan, "2"])
def test_ky_fan_rejects_non_integer_k(k):
    with pytest.raises(BadSpec):
        ky_fan(k)


def test_ky_fan_accepts_numpy_integers():
    assert ky_fan(np.int64(3)).label() == "kyfan-3"


def test_unitary_invariance():
    x = generate(GenSpec("general", 5, 31))
    u = generate(GenSpec("unitary", 5, 32))
    v = generate(GenSpec("unitary", 5, 33))
    for spec in norms.norm_grid(5):
        assert abs(norms.norm(u @ x @ v, spec) - norms.norm(x, spec)) <= 1e-10 * max(
            1, norms.norm(x, spec)
        )


def test_triangle_and_homogeneity():
    a = generate(GenSpec("general", 4, 41))
    b = generate(GenSpec("general", 4, 42))
    for spec in norms.norm_grid(4):
        na, nb, nab = norms.norm(a, spec), norms.norm(b, spec), norms.norm(a + b, spec)
        assert nab <= na + nb + 1e-10 * max(1, na + nb)
        assert abs(norms.norm(-2.5 * a, spec) - 2.5 * na) <= 1e-10 * max(1, na)


def test_ky_fan_monotone_schatten_antitone():
    x = generate(GenSpec("general", 6, 51))
    kf = [norms.norm(x, ky_fan(k)) for k in range(1, 7)]
    assert all(kf[i + 1] >= kf[i] - 1e-12 for i in range(5))
    ps = [1.0, 1.5, 2.0, 3.0, math.inf]
    sp = [norms.norm(x, schatten(p)) for p in ps]
    assert all(sp[i + 1] <= sp[i] + 1e-12 for i in range(4))


def test_weak_majorization_examples():
    assert norms.weakly_majorized([1, 1], [2, 0])
    assert not norms.weakly_majorized([2, 0], [1, 1])
    x = norms.singular_values(generate(GenSpec("general", 4, 61)))
    assert norms.weakly_majorized(x, x)


def test_weak_majorization_zero_pads():
    assert norms.weakly_majorized([1.0], [1.0, 0.5])
    assert norms.weakly_majorized([0.7, 0.3], [1.0])
    assert not norms.weakly_majorized([1.0, 0.5], [1.2])


def test_dominance_equal_operands():
    x = generate(GenSpec("general", 4, 71))
    v = norms.dominance_verdict(x, x)
    assert v.passed
    assert all(abs(r.margin) <= 1e-12 for r in v.records)


def test_dominance_identity_vs_double():
    v = norms.dominance_verdict(np.eye(3), 2 * np.eye(3))
    assert v.passed
    for r in v.records:
        if r.label.startswith("kyfan"):
            assert r.margin == pytest.approx(0.5)


def verdict(*margins):
    records = [norms.ComparisonRecord("r", 0.0, 0.0, m) for m in margins]
    return norms.Verdict(check_id="t", records=records, tol=1e-9)


def test_verdict_passes_iff_every_margin_clears_tol():
    assert verdict(0.5, -1e-9).passed
    assert not verdict(0.5, -2e-9).passed
    assert not verdict(0.5, math.nan).passed
    assert not verdict(math.nan, 0.5).passed


def test_min_margin_is_nan_when_any_margin_is_nan():
    assert math.isnan(verdict(0.5, math.nan, -0.25).min_margin)
    assert math.isnan(verdict(math.nan, 0.5).min_margin)
    assert verdict(0.5, -0.25).min_margin == -0.25
    assert verdict().min_margin == 0.0


def test_dominance_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        norms.dominance_verdict(np.eye(2), np.eye(3))


def test_fan_dominance_consistency():
    # whenever the Ky Fan margins all pass, every Schatten margin passes too
    for seed in range(100):
        a = generate(GenSpec("psd", 5, derive_stream(800, 2 * seed)))
        b = generate(GenSpec("psd", 5, derive_stream(800, 2 * seed + 1)))
        lhs = linalg.spectral_apply(np.sqrt, a + b)
        rhs = linalg.spectral_apply(np.sqrt, a) + linalg.spectral_apply(np.sqrt, b)
        v = norms.dominance_verdict(lhs, rhs)
        assert v.passed
        for r in v.records:
            assert r.margin >= -1e-9


descending = st.lists(
    st.floats(min_value=0.0, max_value=1e150), min_size=1, max_size=300
).map(lambda xs: np.sort(np.array(xs))[::-1])


@settings(max_examples=300, deadline=None)
@given(s=descending)
def test_fan_grid_matches_norm_from_sv(s):
    """fan_grid against the one-norm-at-a-time reference: Schatten entries
    bit for bit; Ky Fan k by a running sum against numpy's pairwise sum,
    which agree bit for bit below 8 terms."""
    n = s.size
    specs = norms.norm_grid(n)
    with np.errstate(over="ignore"):  # s**3 overflows in both alike
        grid = norms.fan_grid(s)
        refs = [norms.norm_from_sv(s, spec) for spec in specs]
    assert len(grid) == len(specs) == n + len(norms.SCHATTEN_GRID)
    assert list(norms.grid_labels(n)) == [spec.label() for spec in specs]
    for value, spec, ref in zip(grid.tolist(), specs, refs):
        if spec.kind == "kyfan" and n >= 8:
            k = int(spec.param)
            assert abs(value - ref) <= k * np.finfo(float).eps * float(np.sum(s))
        else:
            assert value.hex() == ref.hex(), spec.label()
