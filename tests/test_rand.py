import functools
import hashlib

import numpy as np
import pytest

from normetry import cli, linalg, rand
from normetry.errors import BadSpec, ConvergenceFailure
from normetry.rand import (
    KINDS, GenSpec, default_rngs, derive_stream, generate, generate_family,
)


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
    "psd": lambda m: (linalg.opnorm(m - m.conj().T) <= 1e-9 * max(1.0, linalg.opnorm(m))
                      and np.linalg.eigvalsh(m).min() >= -1e-9 * max(1.0, linalg.opnorm(m))),
    "pd": lambda m: np.linalg.eigvalsh(m).min() > 0.05,
    "hermitian": lambda m: linalg.opnorm(m - m.conj().T) <= 1e-12,
    "normal": lambda m: linalg.is_normal(m, 1e-9),
    "unitary": lambda m: linalg.opnorm(m @ m.conj().T - np.eye(m.shape[0])) <= 1e-9,
    "contraction": lambda m: linalg.is_contraction(m, 1e-9),
    "expansive": lambda m: linalg.is_expansive(m, 1e-9),
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


@pytest.mark.parametrize("field", ["scale"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_specs(field, value):
    for kind in ("psd", "pd"):
        with pytest.raises(BadSpec, match=field):
            generate(GenSpec(kind, 2, 0, **{field: value}))


def test_a_pd_scale_at_most_its_least_eigenvalue_is_a_bad_spec():
    with pytest.raises(BadSpec, match="PD_MIN_EIG"):
        generate(GenSpec("pd", 3, 0, scale=rand.PD_MIN_EIG))
    assert np.linalg.eigvalsh(generate(GenSpec("pd", 3, 0, scale=0.2))).min() > 0.09


def test_derive_stream_contract():
    assert derive_stream(5, 0) != derive_stream(5, 1)
    assert derive_stream(5, 3) == derive_stream(5, 3)
    assert derive_stream(5, 0) != derive_stream(6, 0)


@pytest.mark.parametrize("kind", ["psd", "general", "hermitian"])
def test_an_svd_that_fails_in_generation_is_a_convergence_failure(monkeypatch, capsys, kind):
    """A kind scaled by its operator norm takes it from ``linalg.opnorm``,
    so LAPACK's non-convergence is a ConvergenceFailure (exit 3), not a
    LinAlgError traceback."""
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(ConvergenceFailure, match="^SVD did not converge$"):
        generate(GenSpec(kind, 3, 1))
    assert cli.main(["gen", "--kind", kind, "--dim", "3"]) == cli.EXIT_NUMERICAL
    assert "SVD did not converge" in capsys.readouterr().err


def test_derive_stream_no_collisions():
    seeds = {derive_stream(0xDEADBEEF, i) for i in range(10_000)}
    assert len(seeds) == 10_000


def test_complex_gaussian_draw_keeps_its_bits():
    """One (2, n, n) draw per generator filled into a complex stack gives
    each matrix the bits of the two-draw expression (G + 1j * H) / sqrt(2)."""
    from normetry.rand import _ggauss

    for n in (1, 2, 3, 5, 8, 17, 39):
        refs = []
        for seed in range(8):
            rng = np.random.default_rng(seed)
            g, h = rng.standard_normal((n, n)), rng.standard_normal((n, n))
            refs.append((g + 1j * h) / np.sqrt(2))
        alone = [_ggauss([np.random.default_rng(seed)], n)[0] for seed in range(8)]
        stacked = _ggauss([np.random.default_rng(seed) for seed in range(8)], n)
        for ref, one, row in zip(refs, alone, stacked):
            assert one.view(np.uint64).tobytes() == ref.view(np.uint64).tobytes()
            assert row.view(np.uint64).tobytes() == ref.view(np.uint64).tobytes()


# --- seeding many generators at once ----------------------------------------

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)


def test_seeding_pass_gives_numpys_generator_states():
    drawn = np.random.default_rng(2024).integers(0, 2**64, size=10_000, dtype=np.uint64)
    seeds = [*EDGE_SEEDS, *drawn.tolist(), *(derive_stream(5, i) for i in range(100))]
    for seed, rng in zip(seeds, default_rngs(seeds)):
        assert rng.bit_generator.state == np.random.default_rng(np.uint64(seed)).bit_generator.state
    for seed, words in zip(EDGE_SEEDS, rand._seed_words(EDGE_SEEDS)):
        assert words.tolist() == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()
    rng, = default_rngs([2**63])
    assert rng.standard_normal(5).tolist() == np.random.default_rng(np.uint64(2**63)).standard_normal(5).tolist()


# --- generating stacks -------------------------------------------------------


def reference_generate(kind, n, seed):
    """The single-matrix generator that ``generate_family`` replaced, kept as
    the reference its rows must equal bit for bit."""
    rng = np.random.default_rng(np.uint64(seed))

    def ggauss():
        g = rng.standard_normal((2, n, n))
        m = np.empty((n, n), dtype=complex)
        m.real, m.imag = g
        m /= np.sqrt(2)
        return m

    def rescale(m, target):
        top = np.linalg.svd(m, compute_uv=False)[0]
        return m if top == 0 else m * (target / top)

    def unitary():
        q, r = np.linalg.qr(ggauss())
        d = np.diag(r)
        return q * (d / np.where(np.abs(d) == 0, 1.0, np.abs(d)))

    if kind == "psd":
        g = ggauss()
        return rescale(g.conj().T @ g, 1.0)
    if kind == "pd":
        g = ggauss()
        return rescale(g.conj().T @ g, 0.9) + 0.1 * np.eye(n)
    if kind == "hermitian":
        g = ggauss()
        return rescale((g + g.conj().T) / 2, 1.0)
    if kind == "normal":
        u = unitary()
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        top = np.max(np.abs(d))
        if top > 0:
            d = d * (1.0 / top)
        return (u * d) @ u.conj().T
    if kind == "unitary":
        return unitary()
    if kind == "contraction":
        x = ggauss()
        top = np.linalg.svd(x, compute_uv=False)[0]
        return x / (max(top, np.finfo(float).tiny) * (1.0 + rng.uniform(0.0, 1.0)))
    if kind == "expansive":
        u = unitary()
        g = ggauss()
        return u @ (np.eye(n) + rescale(g.conj().T @ g, 1.0))
    return rescale(ggauss(), 1.0)


STACK_SEEDS = (*EDGE_SEEDS, 0x5DEECE66D9E3779B)
STACK_DIMS = (1, 2, 3, 4, 5, 6, 7, 8, 32, 128)


@functools.lru_cache(maxsize=None)
def reference_rows(kind, n):
    return tuple(reference_generate(kind, n, seed).tobytes() for seed in STACK_SEEDS)


def stacked_rows(kind, n, t):
    """The rows of STACK_SEEDS from ``generate_family`` calls of t generators
    each, one matrix of ``kind`` per generator, seeded by the seeding pass
    as a campaign seeds them."""
    rows = []
    for start in range(0, len(STACK_SEEDS), t):
        rngs = list(default_rngs(STACK_SEEDS[start:start + t]))
        rows.extend(generate_family(n, rngs, [[GenSpec(kind, n, 0)]] * len(rngs))[kind][1])
    return [m.tobytes() for m in rows]


def digest(rows):
    return hashlib.sha256(b"".join(rows)).hexdigest()[:16]


@pytest.mark.parametrize("n", STACK_DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_stacked_rows_equal_the_single_matrix_reference(kind, n):
    """Each row of a stack has the bits the old one-matrix generator gives
    its seed, whatever the stack's size; at n = 1 this covers the normal
    kind's (u d) u*, which a stacked product rounds differently."""
    for t in (1, 2, 7):
        assert stacked_rows(kind, n, t) == list(reference_rows(kind, n)), t
    assert [generate(GenSpec(kind, n, seed)).tobytes() for seed in STACK_SEEDS] == list(
        reference_rows(kind, n))


# SHA-256 (first 16 hex digits) of the 7 matrices of STACK_SEEDS for each
# kind and n of STACK_DIMS, from the one-matrix ``generate`` that
# ``generate_family`` replaced (x86-64, numpy 2.4 with its OpenBLAS 0.3.31,
# one BLAS thread).  LAPACK builds and thread counts round differently.
PARENT_DIGESTS = {
    "psd": ('d55ec3892d029a96', 'ba6f36e744462cee', '7e6c9d5e277d9fdb', 'd4837abc5bbb0a37', '068c14b3ed80c7fc', 'f5528dedc0028ecc', '1a1df8b5059c6c1c', 'def51e5fb5a6ccdb', 'ce0481f578b977f9', 'fdce81ca2e5125ea'),
    "pd": ('520529e0faf006b0', '84d2f75cd2841518', 'c0815dad74c8758b', 'a1f3470a679dabb0', '8007f4b4e60c4bb8', '44cc8fd296b0719f', '9b609d40a540795e', 'caa5e0073fcc1719', '4d42913d2c4635b2', '7ac4f1013453cdfa'),
    "hermitian": ('e7e6a0c772a50596', '0d9e3a2c42baa525', 'eb8ddb650f316773', '3153f6f3739a06f2', '63998274edfa5451', '888da150b1e01e83', '7f3d2570291b7663', '041e0158131def3d', '0e302b6ae7f95340', '9ccb692949bebbfd'),
    "normal": ('af761d3f98358084', '792e6d44099cb541', '6e7ca9eb5b3e8db3', '057993402ade1588', '2eafd66e56122a1f', '0b79612553a2d7a2', '40fd63c025a6f9ae', '3228e39641716242', '8cc57841aeec4063', '16160a6a93ba70ea'),
    "unitary": ('63bbe731fe5bf646', '7a8160b42b81a4bc', 'e8e056528585c85c', '93fb0f1155fee8f0', '9721d121a43b6044', '7492a0344f119cbf', 'e447c81b54b68ecd', '170c09392e008ee4', '4f7881fce9c0f4f1', 'd0acf82eff1d1062'),
    "contraction": ('5c792b24f1efbdb0', '37849b30f33efb0a', '7a10b1de258ac377', '67e72f1d2ec609fa', '5d3a09da86a36268', '4f0980c7a32879c6', 'b6bba5bc11331ba4', 'f48b7195acc5147e', '3a8a5cf5419e1731', '53844902aed0ea90'),
    "expansive": ('ade3cdeb00094497', '750a36d25f53e139', 'a98100056dd7cae3', 'e39ca5f2adfac5b4', 'a257c9dcbaaadb4c', 'f53a0120483684e0', '4ae222baf734af33', '951aea5c6d4063cc', '4d3228bcd29a81fd', '59754cdfeb5edab5'),
    "general": ('c629848a50edb653', 'ef41f834c2b8776f', 'a200deba48da35d6', '2bb00b928ca122b1', '4a60b31ab0826eed', 'eb08d5c9647d6571', '2a6277f52be83a85', 'bf8c98a507a00e40', '6b6451f2d4e7bf72', '6c56ef00acaedb30'),
}


@pytest.mark.parametrize("n", STACK_DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_stacked_rows_match_the_parent_digest_table(kind, n):
    expected = PARENT_DIGESTS[kind][STACK_DIMS.index(n)]
    if digest(reference_rows(kind, n)) != expected:
        pytest.skip("this LAPACK build or BLAS thread count rounds otherwise than "
                    "the one the table was taken on")
    for t in (1, 2, 7):
        assert digest(stacked_rows(kind, n, t)) == expected, t
