"""Seeded structured random matrix generators.

Every hypothesis class of the checkers (PSD, positive definite, Hermitian,
normal, unitary, contraction, expansive, general complex) has a generator;
identical (kind, n, seed, scale) always yields bit-identical output, and
per-trial seeds are derived from a root seed by a collision-resistant hash
so campaign trials are order-independent.

``generate_stack`` makes a (T, n, n) stack of one kind, one matrix per
generator, with one matmul, SVD and QR call for the whole stack; each
matrix draws from its own generator, in the order a single matrix does, and
gets the bits it gets alone.  ``generate`` is its T = 1 call.
``default_rngs`` seeds many generators in one vectorized pass.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
from typing import NamedTuple

import numpy as np

from .errors import BadSpec
from .linalg import _adjoint

KINDS = (
    "psd",
    "pd",
    "hermitian",
    "normal",
    "unitary",
    "contraction",
    "expansive",
    "general",
)


class GenSpec(NamedTuple):
    kind: str
    n: int
    seed: int
    scale: float = 1.0
    min_eig: float = 0.1  # only used by kind="pd"


def derive_stream(root_seed: int, trial_index: int) -> int:
    """Deterministic, collision-resistant 64-bit seed for one trial."""
    raw = struct.pack("<qq", int(root_seed) & (2**63 - 1), int(trial_index))
    digest = hashlib.sha256(raw).digest()
    return int.from_bytes(digest[:8], "little")


# numpy's SeedSequence hash (its bit_generator module, after O'Neill's
# seed_seq_fe): a pool of 4 uint32 words, mixed by these constants.
_POOL = 4
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_steps(init: int, mult: int, count: int) -> tuple:
    """The (xor, multiplier) columns of ``count`` successive hash steps:
    each step multiplies the running constant by ``mult``, then multiplies
    the value by the new constant."""
    steps = [init]
    for _ in range(count):
        steps.append((steps[-1] * mult) & 0xFFFFFFFF)
    column = np.array(steps, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


# the entropy steps: one per pool word, then three per pool word as it is
# mixed into the other three
_ENTROPY_STEPS = _hash_steps(0x43B0D7E5, 0x931E8875, _POOL * _POOL)
_STATE_STEPS = _hash_steps(0x8B51F9DD, 0x58F38DED, 2 * _POOL)


def _hash(value: np.ndarray, steps: tuple, at: slice) -> np.ndarray:
    value = (value ^ steps[0][at]) * steps[1][at]
    return value ^ (value >> np.uint32(16))


def _seed_words(seeds) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of each 64-bit
    seed, one row per seed, for all seeds at once.

    A seed below 2**32 is one entropy word, and the pool pads it with a
    hashed 0; taking every seed as two words, its high word 0, gives the
    same pool.
    """
    s = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    pool = np.zeros((_POOL, len(s)), dtype=np.uint32)
    pool[0] = s & np.uint64(0xFFFFFFFF)
    pool[1] = s >> np.uint64(32)
    pool = _hash(pool, _ENTROPY_STEPS, slice(0, _POOL))
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        at = slice(_POOL + 3 * src, _POOL + 3 * src + 3)
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * _hash(pool[src], _ENTROPY_STEPS, at)
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    words = _hash(np.tile(pool, (2, 1)), _STATE_STEPS, slice(None)).astype(np.uint64)
    return np.ascontiguousarray((words[0::2] | (words[1::2] << np.uint64(32))).T)


@functools.lru_cache(maxsize=1)
def _seed_words_type() -> type:
    """A numpy seed sequence that hands PCG64 the words given it.  Built on
    first use, so importing this module does not import numpy.random."""

    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"PCG64 takes 4 uint64 words, got {n_words} {dtype}")
            return self.words

    return SeedWords


def rng_from_words(words: np.ndarray) -> np.random.Generator:
    """The generator of a seed whose ``_seed_words`` row is ``words``: its
    state equals ``np.random.default_rng(np.uint64(seed))``'s."""
    return np.random.Generator(np.random.PCG64(_seed_words_type()(words)))


def default_rngs(seeds):
    """An iterator of ``np.random.default_rng(np.uint64(seed))`` for each
    64-bit seed, in order, with equal states.  The SeedSequence hashes of
    all seeds are taken at once, in one vectorized pass; each generator is
    built when it is taken, so a caller holds only those it uses."""
    return (rng_from_words(w) for w in _seed_words(seeds))


def _ggauss(rngs, n: int) -> np.ndarray:
    """(G + iH)/sqrt(2) for two standard normal n x n draws G then H of
    each rng, with the bits of ``(G + 1j * H) / np.sqrt(2)`` from one draw
    per rng and no temporaries; one matrix per rng.  Every kind allocates
    here first, so a dimension too large to allocate is a BadSpec here."""
    try:
        g = np.empty((len(rngs), 2, n, n))
    except (MemoryError, ValueError) as exc:  # ValueError: "array is too big"
        raise BadSpec(f"dimension {n} is too large to allocate: {exc}") from None
    for rng, out in zip(rngs, g):
        rng.standard_normal(out=out)
    m = np.empty((len(rngs), n, n), dtype=complex)
    m.real, m.imag = g[:, 0], g[:, 1]
    m /= np.sqrt(2)
    return m


def _rescale(m: np.ndarray, target: float) -> np.ndarray:
    """Each matrix scaled to operator norm ``target``; a zero matrix is
    kept as it is."""
    top = np.linalg.svd(m, compute_uv=False)[:, 0]
    nonzero = top != 0
    if nonzero.all():
        return m * (target / top)[:, None, None]
    out = m.copy()
    out[nonzero] = m[nonzero] * (target / top[nonzero])[:, None, None]
    return out


def _unitary(rngs, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_ggauss(rngs, n))
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    # fix the phase ambiguity of QR so the output is deterministic and Haar
    phases = d / np.where(np.abs(d) == 0, 1.0, np.abs(d))
    return q * phases[:, None, :]


def generate(spec: GenSpec) -> np.ndarray:
    """Generate one matrix of the requested kind; deterministic per spec."""
    rng = np.random.default_rng(np.uint64(spec.seed & (2**64 - 1)))
    return generate_stack(spec.kind, spec.n, [rng], spec.scale, spec.min_eig)[0]


def generate_stack(kind: str, n: int, rngs, scale: float = 1.0,
                   min_eig: float = 0.1) -> np.ndarray:
    """One matrix of ``kind`` per generator of ``rngs``, as a (T, n, n)
    stack: each matrix draws from its own generator, in the order
    ``generate`` draws, and has the bits ``generate`` gives it.  A
    dimension too large to allocate raises BadSpec."""
    if kind not in KINDS:
        raise BadSpec(f"unknown generator kind {kind!r}")
    if n < 1:
        raise BadSpec(f"dimension must be >= 1, got {n}")
    if not (math.isfinite(scale) and scale > 0):
        raise BadSpec(f"scale must be finite and > 0, got {scale}")
    if not math.isfinite(min_eig):
        raise BadSpec(f"min_eig must be finite, got {min_eig}")

    if kind == "psd":
        g = _ggauss(rngs, n)
        return _rescale(_adjoint(g) @ g, scale)
    if kind == "pd":
        if not 0 < min_eig < scale:
            raise BadSpec("pd needs 0 < min_eig < scale")
        g = _ggauss(rngs, n)
        h = _rescale(_adjoint(g) @ g, scale - min_eig)
        return h + min_eig * np.eye(n)
    if kind == "hermitian":
        g = _ggauss(rngs, n)
        return _rescale((g + _adjoint(g)) / 2, scale)
    if kind == "normal":
        u = _unitary(rngs, n)
        x = np.empty((len(rngs), 2, n))
        for rng, out in zip(rngs, x):
            rng.standard_normal(out=out)
        d = x[:, 0] + 1j * x[:, 1]
        top = np.max(np.abs(d), axis=-1)
        d[top > 0] *= (scale / top[top > 0])[:, None]
        # (u d) u* one matrix at a time: at n = 1 the stacked product of
        # complex entries takes another numpy loop, which rounds otherwise
        return np.stack([(ut * dt) @ ut.conj().T for ut, dt in zip(u, d)])
    if kind == "unitary":
        return _unitary(rngs, n)
    if kind == "contraction":
        x = _ggauss(rngs, n)
        top = np.linalg.svd(x, compute_uv=False)[:, 0]
        u = np.array([rng.uniform(0.0, 1.0) for rng in rngs])
        return x / (np.maximum(top, np.finfo(float).tiny) * (1.0 + u))[:, None, None]
    if kind == "expansive":
        u = _unitary(rngs, n)
        g = _ggauss(rngs, n)
        w = _rescale(_adjoint(g) @ g, scale)
        return u @ (np.eye(n) + w)
    # general complex
    return _rescale(_ggauss(rngs, n), scale)
