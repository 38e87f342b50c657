import numpy as np
import pytest

from normetry import scalarfn as sf
from normetry.errors import DomainError, MixedClass, ShapeValidationFailed


def test_angle_values():
    g = sf.angle_fn(2.0)
    assert g(3.0) == pytest.approx(1.0)
    assert g(2.0) == 0.0
    assert g(0.0) == 0.0


def test_smoothed_vanishes_at_zero():
    for a, r in ((0.5, 0.01), (1.0, 1e-4), (3.0, 0.3)):
        assert sf.smoothed_fn(a, r)(0.0) == pytest.approx(0.0, abs=1e-15)


def test_smoothed_r_zero_is_angle():
    h0 = sf.smoothed_fn(1.5, 0.0)
    g = sf.angle_fn(1.5)
    t = sf.canonical_grid()
    np.testing.assert_array_equal(h0.fn(t), g.fn(t))


def test_smoothed_inverse_roundtrip_points():
    h = sf.smoothed_fn(1.0, 0.01)
    hinv = sf.smoothed_inverse_fn(1.0, 0.01)
    for t in (0.1, 1.0, 5.0):
        assert hinv(h(t)) == pytest.approx(t, abs=1e-10)


def test_smoothed_inverse_roundtrip_grid():
    t = sf.canonical_grid()
    for a in (0.5, 1.0, 2.0):
        for r in (1e-6, 1e-4, 1e-2, 1.0):
            h = sf.smoothed_fn(a, r)
            hinv = sf.smoothed_inverse_fn(a, r)
            assert np.max(np.abs(hinv.fn(h.fn(t)) - t)) <= 1e-9


def test_eval_rejects_negative():
    with pytest.raises(DomainError):
        sf.sqrt_fn()(-1.0)
    with pytest.raises(DomainError):
        sf.inv_sqrt_fn()(0.0)


def test_validate_shape_examples():
    assert sf.validate_shape(sf.sqrt_fn(), sf.CONCAVE_NONNEG)
    assert not sf.validate_shape(sf.power_m_fn(2), sf.CONCAVE_NONNEG)
    assert sf.validate_shape(
        sf.inv_sqrt_fn(), sf.DECREASING_TG_INCREASING
    )  # t*g = sqrt(t) increases


def test_validate_shape_convex_vanishing():
    assert sf.validate_shape(sf.power_m_fn(3), sf.CONVEX_VANISHING)
    assert sf.validate_shape(sf.angle_fn(0.7), sf.CONVEX_VANISHING)
    assert not sf.validate_shape(lambda t: t**2 + 1.0, sf.CONVEX_VANISHING)
    assert not sf.validate_shape(np.sqrt, sf.CONVEX_VANISHING)


def test_operator_concave_is_a_whitelist():
    assert sf.validate_shape(sf.sqrt_fn(), sf.OPERATOR_CONCAVE)
    assert sf.validate_shape(sf.ratio_shift_fn(1.0), sf.OPERATOR_CONCAVE)
    assert not sf.validate_shape(sf.affine_plus_fn(1.0, 0.0), sf.OPERATOR_CONCAVE)
    assert not sf.validate_shape(np.sqrt, sf.OPERATOR_CONCAVE)


def test_catalog_members_pass_their_tags():
    members = [
        sf.sqrt_fn(),
        sf.power_fn(0.37),
        sf.log1p_fn(),
        sf.ratio_shift_fn(0.8),
        sf.affine_plus_fn(1.3, 0.2),
        sf.angle_fn(1.1),
        sf.smoothed_fn(0.9, 0.05),
        sf.smoothed_inverse_fn(0.9, 0.05),
        sf.power_m_fn(4),
        sf.inv_sqrt_fn(),
        sf.constant_fn(0.5),
        sf.log1p_over_t_fn(),
    ]
    for m in members:
        for tag in m.tags:
            assert sf.validate_shape(m, tag), (m.kind, tag)


def test_convex_vanishing_members_nondecreasing():
    t = sf.canonical_grid()
    for g in (sf.power_m_fn(2), sf.angle_fn(0.5), sf.smoothed_fn(1.0, 0.1)):
        v = g.fn(t)
        assert np.all(np.diff(v) >= -1e-12)


def test_smoothed_converges_bound():
    for a in (0.5, 1.0, 2.0):
        assert sf.smoothed_converges(a, [1e-2, 1e-4]) <= 0.5 * np.sqrt(1e-4)
        assert sf.smoothed_converges(a, [1e-4, 1e-8]) <= 0.5 * np.sqrt(1e-8)
    with pytest.raises(DomainError):
        sf.smoothed_converges(1.0, [1e-4, 1e-2])


def test_cone_combine_angles():
    g = sf.cone_combine([1.0, 0.0], [sf.angle_fn(1.0), sf.angle_fn(2.0)])
    t = sf.canonical_grid()
    np.testing.assert_allclose(g.fn(t), sf.angle_fn(1.0).fn(t))
    h = sf.cone_combine([0.5, 0.5], [sf.angle_fn(1.0), sf.angle_fn(1.0)])
    np.testing.assert_allclose(h.fn(t), sf.angle_fn(1.0).fn(t))
    assert sf.CONVEX_VANISHING in g.tags


def test_cone_combine_mixed_class_rejected():
    with pytest.raises(MixedClass):
        sf.cone_combine([1.0, 1.0], [sf.sqrt_fn(), sf.angle_fn(1.0)])
    with pytest.raises(MixedClass):
        sf.cone_combine([-1.0], [sf.angle_fn(1.0)])


def test_pwl_concave_approximates_sqrt():
    # knots equally spaced in sqrt(t) track the curvature of sqrt
    knots = [(10.0 * (i / 31.0) ** 2, np.sqrt(10.0) * i / 31.0) for i in range(32)]
    f = sf.pwl_concave_fn(knots)
    t = np.linspace(0.0, 10.0, 2000)
    assert np.max(np.abs(f.fn(t) - np.sqrt(t))) <= 0.05
    assert sf.CONCAVE_NONNEG in f.tags


def test_pwl_concave_rejects_nonconcave():
    with pytest.raises(ShapeValidationFailed):
        sf.pwl_concave_fn([(0.0, 0.0), (1.0, 1.0), (2.0, 4.0)])
    with pytest.raises(ShapeValidationFailed):
        sf.pwl_concave_fn([(1.0, 0.0), (2.0, 1.0)])  # must start at t=0


def test_pwl_from_json_roundtrip():
    import json

    payload = json.loads('{"breakpoints": [[0.0, 0.0], [1.0, 1.0], [4.0, 2.0]]}')
    f = sf.pwl_concave_fn(payload["breakpoints"])
    assert f(1.0) == pytest.approx(1.0)
    rebuilt = sf.from_descriptor(f.descriptor())
    assert rebuilt(2.5) == pytest.approx(f(2.5))


def test_descriptor_roundtrip():
    for f in (
        sf.sqrt_fn(),
        sf.power_fn(0.6),
        sf.angle_fn(1.2),
        sf.smoothed_fn(0.8, 0.03),
        sf.smoothed_inverse_fn(0.8, 0.03),
        sf.power_m_fn(3),
        sf.power_m_plus_fn(2, 1.0),
        sf.cone_combine([2.0], [sf.angle_fn(0.4)]),
    ):
        g = sf.from_descriptor(f.descriptor())
        t = np.linspace(0.0, 10.0, 97)
        np.testing.assert_array_equal(g.fn(t), f.fn(t))
        assert g.tags == f.tags


def test_repeated_descriptor_returns_the_same_validated_function():
    d = {"kind": "power", "s": 0.375}
    f = sf.from_descriptor(d)
    assert sf.from_descriptor(dict(d)) is f
    assert sf.from_descriptor({"s": 0.375, "kind": "power"}) is f  # key order
    assert sf.from_descriptor({"kind": "power", "s": 0.5}) is not f
    cone = {"kind": "cone", "weights": [1.0, 2.0],
            "members": [{"kind": "sqrt"}, {"kind": "log1p"}]}
    assert sf.from_descriptor(cone) is sf.from_descriptor(cone)


def test_validation_runs_once_per_descriptor(monkeypatch):
    calls = []
    real = sf.validate_shape
    monkeypatch.setattr(sf, "validate_shape", lambda *a, **k: calls.append(a) or real(*a, **k))
    d = {"kind": "ratio-shift", "c": 0.123456789}
    sf.from_descriptor(d)
    first = len(calls)
    sf.from_descriptor(d)
    assert first >= 1 and len(calls) == first


@pytest.mark.parametrize("bad, error", [
    ({"kind": "power", "s": 1.5}, ShapeValidationFailed),
    ({"kind": "angle", "a": -1.0}, ShapeValidationFailed),
    ({"kind": "no-such-kind"}, DomainError),
    ({"kind": "power"}, KeyError),
    ({"kind": "cone", "weights": [1.0, 1.0],
      "members": [{"kind": "sqrt"}, {"kind": "angle", "a": 1.0}]}, MixedClass),
])
def test_bad_descriptor_raises_every_time(bad, error):
    for _ in range(3):
        with pytest.raises(error):
            sf.from_descriptor(bad)


def test_cached_function_params_cannot_be_mutated():
    d = {"kind": "pwl-concave", "breakpoints": [[0.0, 0.0], [1.0, 1.0], [4.0, 2.0]]}
    f = sf.from_descriptor(d)
    f.params["breakpoints"][1][1] = 99.0
    f.descriptor()["breakpoints"].append([9.0, 9.0])
    d["breakpoints"][2][1] = 7.0  # the caller's own dict is not kept either
    with pytest.raises(AttributeError):
        f.params = {}
    g = sf.from_descriptor({"kind": "pwl-concave",
                            "breakpoints": [[0.0, 0.0], [1.0, 1.0], [4.0, 2.0]]})
    assert g is f
    assert f.descriptor() == {"kind": "pwl-concave",
                              "breakpoints": [[0.0, 0.0], [1.0, 1.0], [4.0, 2.0]]}
