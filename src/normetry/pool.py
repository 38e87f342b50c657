"""Per-trial operand pool shared by the checkers of one campaign trial.

Every checker of trial i derives its operands from the same trial seed, so
slot s of a kind is the same matrix for all of them.  While a trial runs,
the pool keeps each generated operand once, keyed by what determines its
``GenSpec`` (kind, n, trial seed and slot), and the guarded decompositions
of ``linalg`` (``eigh``, ``matrix_abs``, ``is_normal``) memoize their
results on it, keyed by identity.  Pooled operands and memoized arrays are
read-only, so no checker can alter what another one sees.  An operand and
its memo are dropped after the last case of the trial that holds it.

Outside ``trial()`` nothing is pooled: every lookup misses and arrays stay
writable.  The active pool is module state, not an argument, because the
checkers reach ``linalg`` through many calls that carry no campaign context;
``trial()`` always clears it on exit.
"""

from __future__ import annotations

import numpy as np


class _Pool:
    def __init__(self) -> None:
        self.by_key: dict = {}  # generation key -> entry
        self.held: dict = {}  # id(operand) -> entry
        # entry: [operand, key, references, memo]


_active: _Pool | None = None


class trial:
    """``with trial():`` activates an empty pool; it is dropped on exit."""

    def __enter__(self) -> None:
        global _active
        _active = _Pool()

    def __exit__(self, *exc) -> None:
        global _active
        _active = None


def size() -> int:
    """Operands currently held (0 when no trial is active)."""
    return len(_active.held) if _active is not None else 0


def take(key, make) -> np.ndarray:
    """The operand ``make()`` generates, pooled under ``key`` while a trial is
    active (``key`` must determine the operand); outside a trial, ``make()``.

    Each take holds one reference, which ``release`` gives back.
    """
    p = _active
    if p is None:
        return make()
    entry = p.by_key.get(key)
    if entry is None:
        m = make()
        readonly(m)
        entry = p.by_key[key] = [m, key, 0, {}]
        p.held[id(m)] = entry
    entry[2] += 1
    return entry[0]


def release(operands) -> None:
    """Give back one reference per operand; drop operands nobody holds."""
    p = _active
    if p is None:
        return
    for m in operands:
        entry = p.held.get(id(m))
        if entry is None or entry[0] is not m:
            continue
        entry[2] -= 1
        if entry[2] == 0:
            del p.held[id(m)]
            del p.by_key[entry[1]]


def memo(x) -> dict | None:
    """The memo of a pooled operand, or None for any other input."""
    p = _active
    if p is None:
        return None
    entry = p.held.get(id(x))
    if entry is None or entry[0] is not x:
        return None
    return entry[3]


def readonly(*arrays: np.ndarray) -> None:
    """Forbid in-place writes to arrays the pool hands to several checkers."""
    for a in arrays:
        a.flags.writeable = False
