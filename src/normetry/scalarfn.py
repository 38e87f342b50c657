"""Validated scalar-function catalog.

Houses the hypothesis classes of the inequality checkers: non-negative
concave functions, convex functions vanishing at 0, functions g with g
decreasing and t*g(t) increasing, and operator concave functions, which
their constructors tag as such.  Also provides the angle ("hinge")
functions and their smooth approximants with an explicit operator-concave
inverse, plus cone combinations and piecewise-linear concave
approximations.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, MixedClass, ShapeValidationFailed
from .serialize import canonical_dumps

# class tags
CONCAVE_NONNEG = "concave-nonneg"
CONVEX_VANISHING = "convex-vanishing"
DECREASING_TG_INCREASING = "decreasing-tg-increasing"
OPERATOR_CONCAVE = "operator-concave-catalog"

GRID_MAX = 100.0
GRID_POINTS = 2048
GRID_EPS = 1e-8  # left endpoint for functions singular at 0
SHAPE_SLACK = 1e-9
VANISH_TOL = 1e-12


def canonical_grid(singular_at_zero: bool = False) -> np.ndarray:
    lo = GRID_EPS if singular_at_zero else 0.0
    return np.linspace(lo, GRID_MAX, GRID_POINTS)


@dataclass(frozen=True, eq=False)
class ScalarFn:
    """A scalar function on [0, inf) tagged with its validated shape class.

    It is immutable: its parameters are kept as canonical JSON, and
    ``params`` decodes a fresh copy on every access.
    """

    kind: str
    params_json: str
    fn: Callable[[np.ndarray], np.ndarray]
    tags: frozenset
    singular_at_zero: bool = False

    @property
    def params(self) -> dict:
        return json.loads(self.params_json)

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        if np.any(arr < 0):
            raise DomainError(f"{self.kind} evaluated at t < 0")
        if self.singular_at_zero and np.any(arr <= 0):
            raise DomainError(f"{self.kind} is singular at 0")
        out = self.fn(arr)
        return float(out) if np.isscalar(t) or arr.ndim == 0 else out

    def descriptor(self) -> dict:
        return {"kind": self.kind, **self.params}


def validate_shape(fn, tag: str) -> bool:
    """Finite-difference shape check on the canonical grid, with explicit
    slack.

    fn may be a ScalarFn or a plain vectorized callable, taken as defined
    at 0.  Operator concavity is no numeric check: it is the tag a
    constructor gives, so only a ScalarFn can have it.
    """
    if tag == OPERATOR_CONCAVE:
        return isinstance(fn, ScalarFn) and tag in fn.tags
    f, singular = (fn.fn, fn.singular_at_zero) if isinstance(fn, ScalarFn) else (fn, False)
    t = canonical_grid(singular)
    v = np.asarray(f(t), dtype=float)
    if not np.all(np.isfinite(v)):
        return False
    s = np.diff(v) / np.diff(t)
    slack = SHAPE_SLACK * np.maximum(1.0, np.abs(s[:-1]))
    if tag == CONCAVE_NONNEG:
        nonneg = np.all(v >= -SHAPE_SLACK * np.maximum(1.0, np.abs(v)))
        return bool(nonneg and np.all(s[1:] <= s[:-1] + slack))
    if tag == CONVEX_VANISHING:
        if t[0] == 0.0 and abs(v[0]) > VANISH_TOL:
            return False
        nonneg = np.all(v >= -SHAPE_SLACK * np.maximum(1.0, np.abs(v)))
        return bool(nonneg and np.all(s[1:] >= s[:-1] - slack))
    if tag == DECREASING_TG_INCREASING:
        vslack = SHAPE_SLACK * np.maximum(1.0, np.abs(v[:-1]))
        tv = t * v
        tvslack = SHAPE_SLACK * np.maximum(1.0, np.abs(tv[:-1]))
        return bool(
            np.all(v[1:] <= v[:-1] + vslack) and np.all(tv[1:] >= tv[:-1] - tvslack)
        )
    raise ValueError(f"unknown shape tag {tag!r}")


def _make(kind, params, fn, tags, singular_at_zero=False) -> ScalarFn:
    sf = ScalarFn(
        kind=kind,
        params_json=canonical_dumps(params),
        fn=fn,
        tags=frozenset(tags),
        singular_at_zero=singular_at_zero,
    )
    for tag in sf.tags:
        if not validate_shape(sf, tag):
            raise ShapeValidationFailed(f"{kind}{params} fails {tag}")
    return sf


def sqrt_fn() -> ScalarFn:
    return _make("sqrt", {}, np.sqrt, {CONCAVE_NONNEG, OPERATOR_CONCAVE})


def power_fn(s: float) -> ScalarFn:
    if not 0.0 < s <= 1.0:
        raise ShapeValidationFailed(f"power exponent must be in (0, 1], got {s}")
    return _make(
        "power", {"s": float(s)}, lambda t: t ** float(s),
        {CONCAVE_NONNEG, OPERATOR_CONCAVE},
    )


def log1p_fn() -> ScalarFn:
    return _make("log1p", {}, np.log1p, {CONCAVE_NONNEG, OPERATOR_CONCAVE})


def ratio_shift_fn(c: float) -> ScalarFn:
    """t / (t + c) for c > 0; operator concave."""
    if c <= 0:
        raise ShapeValidationFailed(f"ratio-shift needs c > 0, got {c}")
    return _make(
        "ratio-shift", {"c": float(c)}, lambda t: t / (t + float(c)),
        {CONCAVE_NONNEG, OPERATOR_CONCAVE},
    )


def affine_plus_fn(lam: float, c: float) -> ScalarFn:
    """lam*t + c with lam, c >= 0: concave and non-negative."""
    if lam < 0 or c < 0:
        raise ShapeValidationFailed("affine-plus needs lam >= 0 and c >= 0")
    return _make(
        "affine-plus", {"lam": float(lam), "c": float(c)},
        lambda t: float(lam) * t + float(c), {CONCAVE_NONNEG},
    )


def angle_fn(a: float) -> ScalarFn:
    """The hinge (1/2)(|t-a| + t - a) = max(t - a, 0)."""
    if a <= 0:
        raise ShapeValidationFailed(f"angle needs a > 0, got {a}")
    return _make(
        "angle", {"a": float(a)}, lambda t: np.maximum(t - float(a), 0.0),
        {CONVEX_VANISHING},
    )


def _smoothed_eval(t: np.ndarray, a: float, r: float) -> np.ndarray:
    # (1/2)(sqrt((t-a)^2 + r) + t - sqrt(a^2 + r)) rewritten without
    # cancellation so the inverse round-trips to ~1e-14 even for tiny r
    if r == 0.0:
        return np.maximum(t - a, 0.0)
    d = np.abs(t - a)
    return np.maximum(t - a, 0.0) + (r / 2) * (
        1.0 / (np.sqrt(d * d + r) + d) - 1.0 / (np.sqrt(a * a + r) + a)
    )


def smoothed_fn(a: float, r: float) -> ScalarFn:
    """Smooth convex approximant of angle(a); converges uniformly as r -> 0."""
    if a <= 0 or r < 0:
        raise ShapeValidationFailed("smoothed needs a > 0 and r >= 0")
    return _make(
        "smoothed", {"a": float(a), "r": float(r)},
        lambda t: _smoothed_eval(t, float(a), float(r)), {CONVEX_VANISHING},
    )


def smoothed_inverse_fn(a: float, r: float) -> ScalarFn:
    """Explicit inverse of the smoothed hinge; operator concave."""
    if a <= 0 or r <= 0:
        raise ShapeValidationFailed("smoothed-inverse needs a > 0 and r > 0")
    a, r = float(a), float(r)
    root = np.sqrt(a * a + r)
    c = r / (root + a)  # sqrt(a^2+r) - a, stable form

    def inv(t):
        return t - (r / 2) / (2 * t + c) + (root + a) / 2

    return _make(
        "smoothed-inverse", {"a": a, "r": r}, inv,
        {CONCAVE_NONNEG, OPERATOR_CONCAVE},
    )


def power_m_fn(m: int) -> ScalarFn:
    """t^m for integer m >= 1: convex, vanishing at 0."""
    m = int(m)
    if m < 1:
        raise ShapeValidationFailed(f"power-m needs m >= 1, got {m}")
    return _make("power-m", {"m": m}, lambda t: t**m, {CONVEX_VANISHING})


def power_m_plus_fn(m: int, c: float) -> ScalarFn:
    """t^m + c: a deliberately broken 'convex vanishing' candidate (c != 0).

    Ships untagged; used by the falsifier's drop-vanishing mutation.
    """
    m, c = int(m), float(c)
    return _make("power-m-plus", {"m": m, "c": c}, lambda t: t**m + c, set())


def inv_sqrt_fn() -> ScalarFn:
    """1/sqrt(t): decreasing with t*g(t) = sqrt(t) increasing."""
    return _make(
        "inv-sqrt", {}, lambda t: 1.0 / np.sqrt(t),
        {DECREASING_TG_INCREASING}, singular_at_zero=True,
    )


def constant_fn(c: float) -> ScalarFn:
    if c < 0:
        raise ShapeValidationFailed(f"constant needs c >= 0, got {c}")
    return _make(
        "constant", {"c": float(c)}, lambda t: np.full_like(t, float(c)),
        {CONCAVE_NONNEG, DECREASING_TG_INCREASING},
    )


def log1p_over_t_fn() -> ScalarFn:
    """log(1+t)/t, extended by its limit 1 at t=0."""

    def f(t):
        safe = np.maximum(t, np.finfo(float).tiny)
        return np.where(t > 0, np.log1p(safe) / safe, 1.0)

    return _make("log1p-over-t", {}, f, {DECREASING_TG_INCREASING})


def pwl_concave_fn(breakpoints) -> ScalarFn:
    """Piecewise-linear concave function from ascending (t, value) pairs.

    The first knot must sit at t=0; beyond the last knot the final slope
    is extended.  Accepts the JSON breakpoint format directly.
    """
    pts = [(float(t), float(v)) for t, v in breakpoints]
    if len(pts) < 2:
        raise ShapeValidationFailed("pwl-concave needs at least 2 breakpoints")
    ts = np.array([p[0] for p in pts])
    vs = np.array([p[1] for p in pts])
    if ts[0] != 0.0 or np.any(np.diff(ts) <= 0):
        raise ShapeValidationFailed("breakpoints must start at 0 and ascend")
    last_slope = (vs[-1] - vs[-2]) / (ts[-1] - ts[-2])

    def f(t):
        out = np.interp(t, ts, vs)
        beyond = t > ts[-1]
        if np.any(beyond):
            out = np.where(beyond, vs[-1] + last_slope * (t - ts[-1]), out)
        return out

    return _make(
        "pwl-concave", {"breakpoints": [[t, v] for t, v in pts]}, f,
        {CONCAVE_NONNEG},
    )


_CONE_CLASSES = (CONCAVE_NONNEG, CONVEX_VANISHING, DECREASING_TG_INCREASING)


def cone_combine(weights, members) -> ScalarFn:
    """Non-negative combination of scalar functions of one common class."""
    weights = [float(w) for w in weights]
    members = list(members)
    if len(weights) != len(members) or not members:
        raise MixedClass("weights and members must be non-empty and match")
    if any(w < 0 for w in weights):
        raise MixedClass("cone weights must be non-negative")
    common = frozenset(_CONE_CLASSES)
    for m in members:
        common &= m.tags
    if not common:
        raise MixedClass("members share no cone-closed class")

    def f(t):
        return sum(w * m.fn(t) for w, m in zip(weights, members))

    singular = any(m.singular_at_zero for m in members)
    return _make(
        "cone",
        {"weights": weights, "members": [m.descriptor() for m in members]},
        f, common, singular_at_zero=singular,
    )


_REGISTRY = {
    "sqrt": lambda d: sqrt_fn(),
    "power": lambda d: power_fn(d["s"]),
    "log1p": lambda d: log1p_fn(),
    "ratio-shift": lambda d: ratio_shift_fn(d["c"]),
    "affine-plus": lambda d: affine_plus_fn(d["lam"], d["c"]),
    "angle": lambda d: angle_fn(d["a"]),
    "smoothed": lambda d: smoothed_fn(d["a"], d["r"]),
    "smoothed-inverse": lambda d: smoothed_inverse_fn(d["a"], d["r"]),
    "power-m": lambda d: power_m_fn(d["m"]),
    "power-m-plus": lambda d: power_m_plus_fn(d["m"], d["c"]),
    "inv-sqrt": lambda d: inv_sqrt_fn(),
    "constant": lambda d: constant_fn(d["c"]),
    "log1p-over-t": lambda d: log1p_over_t_fn(),
    "pwl-concave": lambda d: pwl_concave_fn(d["breakpoints"]),
    "cone": lambda d: cone_combine(
        d["weights"], [from_descriptor(m) for m in d["members"]]
    ),
}


def from_descriptor(d: dict) -> ScalarFn:
    """Rebuild a ScalarFn from its JSON descriptor (for certificate replay).

    Functions are validated once per process: a descriptor with the same
    canonical JSON as one built before returns that same immutable object.
    A descriptor that fails is not kept, so it raises again on every call.
    """
    return _from_canonical(canonical_dumps(d))


@functools.lru_cache(maxsize=256)
def _from_canonical(key: str) -> ScalarFn:
    d = json.loads(key)
    try:
        ctor = _REGISTRY[d["kind"]]
    except KeyError as exc:
        raise DomainError(f"unknown scalar function kind {d.get('kind')!r}") from exc
    return ctor(d)
