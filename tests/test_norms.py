import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normetry import linalg, norms
from normetry.errors import BadSpec, DimensionMismatch, DomainError
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


def direct_schatten(s, p):
    """Schatten-p as computed before any scaling: sum(s**p)**(1/p)."""
    return float(np.sum(s**p) ** (1.0 / p))


in_range = st.lists(
    st.floats(min_value=1e-60, max_value=1e60), min_size=1, max_size=40
).map(lambda xs: np.sort(np.array(xs))[::-1])


@settings(max_examples=200, deadline=None)
@given(s=in_range)
def test_fan_grid_in_range_is_the_direct_formula_bit_for_bit(s):
    grid = norms.fan_grid(s)
    n = s.size
    assert grid[:n].tobytes() == np.cumsum(s).tobytes()
    for value, p in zip(grid[n:].tolist(), norms.SCHATTEN_GRID):
        ref = float(s[0]) if math.isinf(p) else direct_schatten(s, p)
        assert value.hex() == ref.hex(), p


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("scale", [1e-120, 1e-105, 1e110, 1e200, 1e300])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_schatten_is_scale_safe(scale, p):
    """Where sum(s**p) over- or underflows, the norm is still homogeneous."""
    x = generate(GenSpec("general", 5, 61))
    s = norms.singular_values(x)
    ref = scale * direct_schatten(s, p)
    got = norms.norm(x * scale, schatten(p))
    assert math.isfinite(got) and got > 0
    assert got == pytest.approx(ref, rel=1e-13, abs=0.0)
    grid = norms.fan_grid(norms.singular_values(x * scale))
    assert grid[s.size + norms.SCHATTEN_GRID.index(p)] == got


def test_schatten_of_zero_is_zero():
    assert norms.norm(np.zeros((3, 3)), schatten(3.0)) == 0.0
    assert norms.fan_grid(np.zeros(2)).tolist() == [0.0] * 7


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_sqrt_product_is_scale_safe_and_exact_in_range():
    x = np.array([4.0, 1e200, 1e-200, 0.0, 2.0, 1e300, 3e-160])
    y = np.array([9.0, 1e200, 1e-200, 5.0, 0.0, np.inf, 3e-160])
    out = norms.sqrt_product(x, y)
    assert out.tolist() == [6.0, 1e200, 1e-200, 0.0, 0.0, np.inf, 3e-160]
    rng = np.random.default_rng(4)
    a, b = rng.random(50) * 1e3, rng.random(50) * 1e3
    assert norms.sqrt_product(a, b).tobytes() == np.sqrt(a * b).tobytes()


@pytest.mark.parametrize("lengths", [(2, 3, 3), (3, 2, 3), (3, 3, 2), (3, 1, 3), (3, 3, 1)])
def test_compare_rejects_mismatched_lengths(lengths):
    nl, nx, ny = lengths
    with pytest.raises(ValueError):
        norms.compare("t", ["l"] * nl, np.ones(nx), np.ones(ny), 1e-9)


def test_compare_margins_are_scaled_margin_record_for_record():
    lhs = [0.5, 2.0, 3.0, math.nan, 1.0, -0.0, math.inf, 1.0]
    rhs = [1.0, 1.5, 4.0, 1.0, math.nan, 0.0, math.inf, math.inf]
    labels = [f"r{i}" for i in range(len(lhs))]
    v = norms.compare("t", labels, lhs, rhs, 1e-9)
    assert [r.label for r in v.records] == labels
    for r, vl, vr in zip(v.records, lhs, rhs):
        assert (r.lhs.hex(), r.rhs.hex()) == (vl.hex(), vr.hex())
        assert r.margin.hex() == norms.scaled_margin(vl, vr).hex()
        assert type(r.margin) is float


def test_comparison_record_is_immutable():
    r = norms.ComparisonRecord("k", 1.0, 2.0, 0.5)
    with pytest.raises(AttributeError):
        r.margin = 0.0
    assert (r.label, r.lhs, r.rhs, r.margin) == ("k", 1.0, 2.0, 0.5)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_dominance_verdict_rejects_non_finite_sides(value, side):
    bad = np.eye(3, dtype=complex)
    bad[0, 1] = value
    args = (bad, np.eye(3)) if side == "lhs" else (np.eye(3), bad)
    with pytest.raises(DomainError):
        norms.dominance_verdict(*args)
    with pytest.raises(DomainError):
        norms.singular_values(bad)


@pytest.mark.parametrize("pad", [False, True])
def test_dominance_verdict_rejects_non_square_sides(pad):
    for args in ((np.ones((2, 3)), np.eye(2)), (np.eye(2), np.ones(4))):
        with pytest.raises(DimensionMismatch):
            norms.dominance_verdict(*args, pad=pad)
    with pytest.raises(DimensionMismatch):
        norms.singular_values(np.ones((2, 3)))


def test_dominance_verdict_pads_only_when_asked():
    v = norms.dominance_verdict(np.eye(2), 2 * np.eye(3), pad=True)
    assert v.passed and len(v.records) == 3 + len(norms.SCHATTEN_GRID)
    with pytest.raises(DimensionMismatch, match=r"\(2, 2\) vs \(3, 3\)"):
        norms.dominance_verdict(np.eye(2), 2 * np.eye(3))
