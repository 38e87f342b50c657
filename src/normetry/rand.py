"""Seeded structured random matrix generators.

Every hypothesis class of the checkers (PSD, positive definite, Hermitian,
normal, unitary, contraction, expansive, general complex) has a generator;
identical (kind, n, seed, scale) always yields bit-identical output, and
per-trial seeds are derived from a root seed by a collision-resistant hash
so campaign trials are order-independent.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import BadSpec

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


@dataclass(frozen=True)
class GenSpec:
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


def _ggauss(rng: np.random.Generator, n: int) -> np.ndarray:
    """(G + iH)/sqrt(2) for two standard normal n x n draws G then H, with
    the bits of ``(G + 1j * H) / np.sqrt(2)`` from one draw and no
    temporaries."""
    g = rng.standard_normal((2, n, n))
    m = np.empty((n, n), dtype=complex)
    m.real, m.imag = g
    m /= np.sqrt(2)
    return m


def _rescale(m: np.ndarray, target: float) -> np.ndarray:
    top = np.linalg.svd(m, compute_uv=False)[0]
    if top == 0:
        return m
    return m * (target / top)


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_ggauss(rng, n))
    d = np.diag(r)
    # fix the phase ambiguity of QR so the output is deterministic and Haar
    phases = d / np.where(np.abs(d) == 0, 1.0, np.abs(d))
    return q * phases


def generate(spec: GenSpec) -> np.ndarray:
    """Generate one matrix of the requested kind; deterministic per spec."""
    if spec.kind not in KINDS:
        raise BadSpec(f"unknown generator kind {spec.kind!r}")
    if spec.n < 1:
        raise BadSpec(f"dimension must be >= 1, got {spec.n}")
    if not (math.isfinite(spec.scale) and spec.scale > 0):
        raise BadSpec(f"scale must be finite and > 0, got {spec.scale}")
    if not math.isfinite(spec.min_eig):
        raise BadSpec(f"min_eig must be finite, got {spec.min_eig}")
    rng = np.random.default_rng(np.uint64(spec.seed & (2**64 - 1)))
    n, scale = spec.n, spec.scale

    if spec.kind == "psd":
        g = _ggauss(rng, n)
        return _rescale(g.conj().T @ g, scale)
    if spec.kind == "pd":
        if not 0 < spec.min_eig < scale:
            raise BadSpec("pd needs 0 < min_eig < scale")
        g = _ggauss(rng, n)
        h = _rescale(g.conj().T @ g, scale - spec.min_eig)
        return h + spec.min_eig * np.eye(n)
    if spec.kind == "hermitian":
        g = _ggauss(rng, n)
        return _rescale((g + g.conj().T) / 2, scale)
    if spec.kind == "normal":
        u = _unitary(rng, n)
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        top = np.max(np.abs(d))
        if top > 0:
            d = d * (scale / top)
        return (u * d) @ u.conj().T
    if spec.kind == "unitary":
        return _unitary(rng, n)
    if spec.kind == "contraction":
        x = _ggauss(rng, n)
        top = np.linalg.svd(x, compute_uv=False)[0]
        u = rng.uniform(0.0, 1.0)
        return x / (max(top, np.finfo(float).tiny) * (1.0 + u))
    if spec.kind == "expansive":
        u = _unitary(rng, n)
        g = _ggauss(rng, n)
        w = _rescale(g.conj().T @ g, scale)
        return u @ (np.eye(n) + w)
    # general complex
    return _rescale(_ggauss(rng, n), scale)
