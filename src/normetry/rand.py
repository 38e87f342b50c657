"""Seeded structured random matrix generators.

Every hypothesis class of the checkers (PSD, positive definite, Hermitian,
normal, unitary, contraction, expansive, general complex) has a generator;
identical (kind, n, seed, scale) always yields bit-identical output, and
per-trial seeds are derived from a root seed by a collision-resistant hash
so campaign trials are order-independent.

``generate_family`` makes the matrices of several kinds drawn from each of
several generators: every kind's first draw is the same matrix, so it is
drawn once per generator, and what kinds derive from it is computed once,
in one stacked call; each matrix draws from its own generator, in the
order a single matrix does, and gets the bits it gets alone.
``generate`` is its one matrix of one generator.  ``default_rngs`` seeds
many generators in one vectorized pass.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
from typing import NamedTuple

import numpy as np

from .errors import BadSpec
from .linalg import _adjoint, opnorm

# A pd matrix has its least eigenvalue at least this, and its operator norm
# its scale.
PD_MIN_EIG = 0.1


class GenSpec(NamedTuple):
    kind: str
    n: int
    seed: int
    scale: float = 1.0


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


def _scaled(m: np.ndarray, top: np.ndarray, target) -> np.ndarray:
    """Each matrix, of operator norm ``top``, scaled to operator norm
    ``target`` (one value, or one per matrix); a zero matrix is kept as it
    is."""
    return m * (target / np.where(top == 0, 1.0, top))[:, None, None]


def _gram(g: np.ndarray) -> tuple:
    """G*G of each matrix, with its operator norm."""
    gram = _adjoint(g) @ g
    return gram, opnorm(gram)


def _itself(g: np.ndarray) -> tuple:
    return (g,)


def _with_top(g: np.ndarray) -> tuple:
    return g, opnorm(g)


def _unitary(g: np.ndarray) -> tuple:
    """The phase-fixed Q of each matrix's QR, as a one-tuple."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    # fix the phase ambiguity of QR so the output is deterministic and Haar
    phases = d / np.where(np.abs(d) == 0, 1.0, np.abs(d))
    return (q * phases[:, None, :],)


# Each generator kind (``KINDS``, in this order), with what it takes of its
# first draw G, computed once for the generators whose kinds take it.
_FIRST_DRAW = {
    "psd": _gram, "pd": _gram, "hermitian": _itself, "normal": _unitary,
    "unitary": _unitary, "contraction": _with_top, "expansive": _unitary,
    "general": _with_top,
}
KINDS = tuple(_FIRST_DRAW)
# Kinds that draw again after G.
_DRAW_AGAIN = ("normal", "contraction", "expansive")
_ANY_WORDS = np.zeros(4, dtype=np.uint64)


def _copy(rng: np.random.Generator) -> np.random.Generator:
    """A generator in ``rng``'s state that draws apart from it."""
    twin = rng_from_words(_ANY_WORDS)
    twin.bit_generator.state = rng.bit_generator.state
    return twin


def _check(kind: str, n: int, scale: float) -> None:
    if kind not in KINDS:
        raise BadSpec(f"unknown generator kind {kind!r}")
    if n < 1:
        raise BadSpec(f"dimension must be >= 1, got {n}")
    if not (math.isfinite(scale) and scale > 0):
        raise BadSpec(f"scale must be finite and > 0, got {scale}")
    if kind == "pd" and scale <= PD_MIN_EIG:
        raise BadSpec(f"pd needs scale > PD_MIN_EIG = {PD_MIN_EIG}, got {scale}")


def generate(spec: GenSpec) -> np.ndarray:
    """Generate one matrix of the requested kind; deterministic per spec.
    A dimension too large to allocate raises BadSpec."""
    rng = np.random.default_rng(np.uint64(spec.seed & (2**64 - 1)))
    return generate_family(spec.n, [rng], [[spec]])[spec.kind][1][0]


def generate_family(n: int, rngs, specs) -> dict:
    """The matrices of ``specs``: kind -> (its specs, their (T, n, n)
    stack), for each kind drawn.

    ``specs[t]`` lists GenSpecs of dimension n drawn from generator
    ``rngs[t]``, which stands for their seed: their n and seed are not
    read.  A kind's specs are in generator order, then as listed, and each
    matrix has the bits ``generate`` gives its spec.

    Every kind's first draw from a generator is the same matrix G
    (``_ggauss``), so G is drawn once per generator.  What several kinds
    take of G (``_FIRST_DRAW``) is computed once per generator, in one
    call for the generators whose kinds take it; each kind then completes
    its matrices, each at its own scale, in one stacked pass.
    A kind that draws again after G continues from its own copy of the
    generator's state after G.  A dimension too large to allocate raises
    BadSpec.
    """
    drawn: dict = {}  # kind -> [(generator index, spec)]
    for t, row in enumerate(specs):
        for spec in row:
            drawn.setdefault(spec.kind, []).append((t, spec))
    columns = {kind: tuple(zip(*entries)) for kind, entries in drawn.items()}
    wanted: dict = {}  # what is taken of G -> kind -> the generators of its matrices
    for kind, (rows, kind_specs) in columns.items():
        for scale in {spec.scale for spec in kind_specs}:
            _check(kind, n, scale)
        wanted.setdefault(_FIRST_DRAW[kind], {})[kind] = rows
    g = _ggauss(rngs, n)
    later = _later_draws(rngs, columns)
    parts = {}
    for derive, rows in wanted.items():
        parts.update(_derived(derive, g, rows))
    return {kind: (kind_specs, _complete(kind, n, parts[kind], kind_specs, later.get(kind)))
            for kind, (_, kind_specs) in columns.items()}


def _later_draws(rngs, columns: dict) -> dict:
    """The generators that each kind drawing again after G draws from:
    the first such kind of a generator takes the generator, and every
    other one a copy of its state after G, taken before any draws again."""
    taken: set = set()
    later: dict = {}
    for kind in _DRAW_AGAIN:
        if kind not in columns:
            continue
        later[kind] = []
        for t in columns[kind][0]:
            later[kind].append(_copy(rngs[t]) if t in taken else rngs[t])
            taken.add(t)
    return later


def _derived(derive, g: np.ndarray, wanted: dict) -> dict:
    """``derive`` of the matrices of g at the rows each kind of ``wanted``
    (kind -> rows) takes, computed once per row: kind -> its rows of each
    result."""
    rows = tuple(sorted(set().union(*wanted.values())))
    results = derive(g if len(rows) == len(g) else g[list(rows)])
    at = {t: i for i, t in enumerate(rows)}
    return {kind: results if r == rows else tuple(a[[at[t] for t in r]] for a in results)
            for kind, r in wanted.items()}


def _complete(kind: str, n: int, part: tuple, specs: tuple, later) -> np.ndarray:
    """The matrices of ``kind`` from what they take of their first draws:
    ``part`` is what ``_FIRST_DRAW`` gives the kind, ``specs`` give each
    matrix's scale, and ``later`` the generators of its later draws."""
    m, *top = part
    if kind == "unitary":
        return m
    if kind == "contraction":  # it takes no scale
        u = np.array([rng.uniform(0.0, 1.0) for rng in later])
        return m / (np.maximum(top[0], np.finfo(float).tiny) * (1.0 + u))[:, None, None]
    scale = np.array([spec.scale for spec in specs])
    if kind in ("psd", "general"):
        return _scaled(m, top[0], scale)
    if kind == "pd":
        return _scaled(m, top[0], scale - PD_MIN_EIG) + PD_MIN_EIG * np.eye(n)
    if kind == "hermitian":
        h = (m + _adjoint(m)) / 2
        return _scaled(h, opnorm(h), scale)
    if kind == "normal":
        x = np.empty((len(later), 2, n))
        for rng, out in zip(later, x):
            rng.standard_normal(out=out)
        d = x[:, 0] + 1j * x[:, 1]
        size = np.max(np.abs(d), axis=-1)
        d[size > 0] *= (scale[size > 0] / size[size > 0])[:, None]
        # (u d) u* one matrix at a time: at n = 1 the stacked product of
        # complex entries takes another numpy loop, which rounds otherwise
        return np.stack([(ut * dt) @ ut.conj().T for ut, dt in zip(m, d)])
    gram, top = _gram(_ggauss(later, n))  # expansive
    return m @ (np.eye(n) + _scaled(gram, top, scale))
