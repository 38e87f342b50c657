import numpy as np
import pytest

from normetry import linalg
from normetry.errors import BadSpec
from normetry.rand import KINDS, GenSpec, derive_stream, generate


def test_determinism():
    a = generate(GenSpec("unitary", 3, 12345))
    b = generate(GenSpec("unitary", 3, 12345))
    np.testing.assert_array_equal(a, b)
    c = generate(GenSpec("unitary", 3, 12346))
    assert not np.array_equal(a, c)


def test_psd_by_construction():
    for seed in range(50):
        p = generate(GenSpec("psd", 5, derive_stream(3, seed)))
        w = np.linalg.eigvalsh(p)
        assert w.min() >= -1e-9


def test_normal_seed77():
    x = generate(GenSpec("normal", 4, 77))
    comm = x @ x.conj().T - x.conj().T @ x
    assert linalg.opnorm(comm) <= 1e-9 * linalg.opnorm(x) ** 2


PREDICATES = {
    "psd": lambda m: linalg.is_psd(m),
    "pd": lambda m: np.linalg.eigvalsh(m).min() > 0.05,
    "hermitian": lambda m: linalg.opnorm(m - m.conj().T) <= 1e-12,
    "normal": lambda m: linalg.is_normal(m),
    "unitary": lambda m: linalg.opnorm(m @ m.conj().T - np.eye(m.shape[0])) <= 1e-9,
    "contraction": lambda m: linalg.is_contraction(m),
    "expansive": lambda m: linalg.is_expansive(m),
    "general": lambda m: np.all(np.isfinite(m)),
}


@pytest.mark.parametrize("kind", KINDS)
def test_kind_predicates(kind):
    for i in range(300):
        n = 1 + i % 6
        m = generate(GenSpec(kind, n, derive_stream(hash(kind) & 0xFFFF, i)))
        assert PREDICATES[kind](m), (kind, n, i)


def test_scale_normalization():
    for kind in ("psd", "hermitian", "normal", "general"):
        m = generate(GenSpec(kind, 5, 9, scale=3.0))
        assert linalg.opnorm(m) <= 3.0 + 1e-9


def test_bad_specs():
    with pytest.raises(BadSpec):
        generate(GenSpec("wishart", 3, 0))
    with pytest.raises(BadSpec):
        generate(GenSpec("psd", 0, 0))
    with pytest.raises(BadSpec):
        generate(GenSpec("psd", 3, 0, scale=-1.0))


@pytest.mark.parametrize("field", ["scale", "min_eig"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_specs(field, value):
    for kind in ("psd", "pd"):
        with pytest.raises(BadSpec, match=field):
            generate(GenSpec(kind, 2, 0, **{field: value}))


def test_derive_stream_contract():
    assert derive_stream(5, 0) != derive_stream(5, 1)
    assert derive_stream(5, 3) == derive_stream(5, 3)
    assert derive_stream(5, 0) != derive_stream(6, 0)


def test_derive_stream_no_collisions():
    seeds = {derive_stream(0xDEADBEEF, i) for i in range(10_000)}
    assert len(seeds) == 10_000
