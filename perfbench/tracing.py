"""Timing wrappers installed from outside the package, for the traced run.

The tracer replaces, for the duration of a traced repetition, every public
function of the normetry layer modules on each module attribute that
callers look it up by (``falsify.generate`` is ``rand.generate`` imported
by name, so both bindings are wrapped), plus the ``numpy.linalg`` entry
points the package calls.  Nothing under ``src/`` is edited.

``numpy.linalg.norm(x, 2)`` computes its SVD through numpy's internal
binding, not through the ``numpy.linalg.svd`` attribute, so ``norm`` is
counted on its own and never shows up as ``svd`` calls.

Spans are kept in memory as parallel arrays with parent links; self time
and the per-layer metrics are derived from them after the run.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

from workloads import CHECK_IDS

# the package's layers, in the order the benchmark names them
LAYERS = ("rand", "scalarfn", "linalg", "norms", "checks", "serialize", "falsify", "cli")
KERNELS = ("eigh", "svd", "norm", "eigvalsh", "qr")

# Real-flop counts of the dense LAPACK algorithms for an n x n operand
# (Golub & Van Loan, Matrix Computations, 4th ed., tables 5.5 and 8.6.1);
# complex arithmetic costs four real flops per real one.
COMPLEX_FACTOR = 4.0


def kernel_flops(name: str, args, kwargs) -> float:
    """Computed flop count of one numpy.linalg call, from operand shape."""
    a = args[0] if args else kwargs.get("a", kwargs.get("x"))
    shape = np.shape(a)
    if len(shape) < 2:
        return float(np.size(a)) * 2.0
    n = float(shape[-1])
    batch = float(np.prod(shape[:-2])) if len(shape) > 2 else 1.0
    factor = COMPLEX_FACTOR if np.iscomplexobj(a) else 1.0
    if name == "eigh":
        per = 9.0 * n**3
    elif name == "eigvalsh":
        per = 4.0 / 3.0 * n**3
    elif name == "svd":
        uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        per = 21.0 * n**3 if uv else 8.0 / 3.0 * n**3
    elif name == "qr":
        per = 8.0 / 3.0 * n**3
    else:  # norm
        order = kwargs.get("ord", args[1] if len(args) > 1 else None)
        per = 8.0 / 3.0 * n**3 if order in (2, -2) else 2.0 * n * n
    return batch * factor * per


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, tuple):
        return sum(_nbytes(x) for x in obj)
    return np.asarray(obj).nbytes


class Tracer:
    """In-memory span recorder with parent links and per-dimension counts."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.dim = array("i")
        self.stack: list[int] = []
        self.current_dim = 0  # n of the trial being evaluated, 0 outside trials
        self.case_check: dict[int, str] = {}  # run_case span -> check id
        self.flops: dict[int, float] = defaultdict(float)  # dim -> flops
        self.bytes: dict[int, float] = defaultdict(float)  # dim -> bytes
        self.errors: dict[str, int] = defaultdict(int)  # layer -> raised
        self._last_error: BaseException | None = None
        self._undo: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _open(self, name_idx: int) -> int:
        i = len(self.t0)
        self.name.append(name_idx)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.dim.append(self.current_dim)
        self.t0.append(0.0)
        self.t1.append(0.0)
        self.stack.append(i)
        return i

    def _raised(self, layer: str, exc: BaseException) -> None:
        # an exception crossing several wrapped frames is counted once
        if exc is not self._last_error:
            self._last_error = exc
            self.errors[layer] += 1

    def wrap(self, fn, span: str, dim_of=None):
        """Wrapper that records one span per call of ``fn``.

        ``dim_of(args, kwargs)`` marks a function that opens a trial: it
        returns the trial's dimension and, for run_case, its check id.
        """
        idx = self._intern(span)
        layer = span.rsplit(".", 1)[0]
        clock = time.perf_counter
        t0s, t1s, stack = self.t0, self.t1, self.stack

        def traced(*args, **kwargs):
            outer = self.current_dim
            check_id = ""
            if dim_of is not None:
                self.current_dim, check_id = dim_of(args, kwargs)
            i = self._open(idx)
            if check_id:
                self.case_check[i] = check_id
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self._raised(layer, exc)
                raise
            finally:
                t1s[i] = clock()
                t0s[i] = start
                stack.pop()
                self.current_dim = outer

        traced.__wrapped__ = fn
        return traced

    def wrap_kernel(self, fn, kernel: str):
        """Wrapper for a numpy.linalg entry point, with computed flops and bytes."""
        idx = self._intern(f"numpy.linalg.{kernel}")
        clock = time.perf_counter
        t0s, t1s, stack = self.t0, self.t1, self.stack

        def traced(*args, **kwargs):
            i = self._open(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self._raised("numpy.linalg", exc)
                raise
            finally:
                t1s[i] = clock()
                t0s[i] = start
                stack.pop()
            dim = self.current_dim
            self.flops[dim] += kernel_flops(kernel, args, kwargs)
            self.bytes[dim] += _nbytes(args[0]) + _nbytes(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every public layer function on every module that binds it."""
        import importlib

        modules = {
            layer: importlib.import_module(f"normetry.{layer}") for layer in LAYERS
        }
        layer_of = {m.__name__: layer for layer, m in modules.items()}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = layer_of.get(value.__module__)
                if home is None:
                    continue
                if home == "cli" and value.__name__ != "main":
                    # cli.main's self time is the command's own work:
                    # witness table, report encoding and writing
                    continue
                span = f"{home}.{value.__name__}"
                self._set(module, attr, self.wrap(value, span, TRIAL_OPENERS.get(span)))
        for kernel in KERNELS:
            self._set(np.linalg, kernel, self.wrap_kernel(getattr(np.linalg, kernel), kernel))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write_spans(self, path: Path) -> None:
        """Write all spans as .npz arrays; ``names[name[i]]`` is span i's function."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_s=np.frombuffer(self.t0, dtype=np.float64),
            end_s=np.frombuffer(self.t1, dtype=np.float64),
            dim=np.frombuffer(self.dim, dtype=np.int32),
        )


def _run_case_dim(args, kwargs):
    case = args[0] if args else kwargs["case"]
    return int(getattr(case, "n", 0)), str(getattr(case, "check_id", ""))


def _sample_case_dim(args, kwargs):
    n = args[1] if len(args) > 1 else kwargs.get("n", 0)
    return int(n), ""


TRIAL_OPENERS = {"falsify.run_case": _run_case_dim, "falsify.sample_case": _sample_case_dim}


def span_stats(tracer: Tracer) -> dict:
    """Per span name: calls, inclusive and self seconds; plus per-dim counts."""
    if not len(tracer.t0):
        return {"names": {}, "dims": {}, "trials": 0, "check_ms": {}}
    name = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    dur = np.frombuffer(tracer.t1, dtype=np.float64) - np.frombuffer(tracer.t0, dtype=np.float64)
    dim = np.frombuffer(tracer.dim, dtype=np.int32)
    has_parent = parent >= 0
    child = np.zeros_like(dur)
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    k = len(tracer.names)
    calls = np.bincount(name, minlength=k)
    incl = np.bincount(name, weights=dur, minlength=k)
    selft = np.bincount(name, weights=self_time, minlength=k)
    names = {
        tracer.names[j]: {
            "calls": int(calls[j]),
            "incl_s": float(incl[j]),
            "self_s": float(selft[j]),
        }
        for j in range(k)
    }

    run_case = tracer._index.get("falsify.run_case", -1)
    trials = int(calls[run_case]) if run_case >= 0 else 0
    # checker time per trial: checker spans called directly by run_case
    check_ms: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
    for cid in tracer.case_check.values():
        check_ms[cid][1] += 1
    checker = np.array([nm.startswith("checks.") for nm in tracer.names])
    direct = np.flatnonzero(has_parent & checker[name])
    direct = direct[name[parent[direct]] == run_case]
    for i in direct:
        check_ms[tracer.case_check[int(parent[i])]][0] += float(dur[i]) * 1e3

    dims = {}
    for d in np.unique(dim):
        d_calls = np.bincount(name[dim == d], minlength=k)
        d_trials = int(d_calls[run_case]) if run_case >= 0 else 0
        bucket = {
            "trials": d_trials,
            "calls": {tracer.names[j]: int(d_calls[j]) for j in range(k) if d_calls[j]},
            "flops_computed": tracer.flops.get(int(d), 0.0),
            "bytes_computed": tracer.bytes.get(int(d), 0.0),
        }
        if d_trials:
            bucket["calls_per_trial"] = {
                nm: c / d_trials for nm, c in bucket["calls"].items()
            }
            bucket["flops_per_trial_computed"] = bucket["flops_computed"] / d_trials
            bucket["bytes_per_trial_computed"] = bucket["bytes_computed"] / d_trials
        dims[int(d)] = bucket
    return {
        "names": names,
        "dims": dims,
        "trials": trials,
        "check_ms": dict(check_ms),
    }


def layer_metrics(stats: dict, tracer: Tracer, wall_s: float, campaign_trials: int,
                  report_bytes: float, overhead_frac: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from one traced run."""
    names = stats["names"]
    trials = max(stats["trials"], 1)

    def calls(span):
        return names.get(span, {}).get("calls", 0)

    def us(span):
        s = names.get(span)
        return s["incl_s"] / s["calls"] * 1e6 if s and s["calls"] else 0.0

    def self_us(span):
        s = names.get(span)
        return s["self_s"] / s["calls"] * 1e6 if s and s["calls"] else 0.0

    def share(prefix):
        return sum(s["self_s"] for nm, s in names.items()
                   if nm.rsplit(".", 1)[0] == prefix) / wall_s

    m: dict[str, float] = {}
    m["rand.generate.calls_per_trial"] = calls("rand.generate") / trials
    m["rand.generate.us"] = us("rand.generate")
    m["rand.derive_stream.us"] = us("rand.derive_stream")
    m["rand.self_share"] = share("rand")

    m["scalarfn.from_descriptor.calls_per_trial"] = calls("scalarfn.from_descriptor") / trials
    m["scalarfn.from_descriptor.us"] = us("scalarfn.from_descriptor")
    m["scalarfn.self_share"] = share("scalarfn")

    m["linalg.opnorm.calls_per_trial"] = calls("linalg.opnorm") / trials
    m["linalg.opnorm.us"] = us("linalg.opnorm")
    m["linalg.hermitize.self_us"] = self_us("linalg.hermitize")
    m["linalg.as_square.self_us"] = self_us("linalg.as_square")
    m["linalg.eigh.us"] = us("linalg.eigh")
    raw = us("numpy.linalg.eigh")
    m["linalg.eigh.guard_ratio"] = m["linalg.eigh.us"] / raw if raw else 0.0
    for fn in ("eigvalsh_desc", "spectral_apply", "matrix_abs", "polar",
               "is_normal", "is_contraction", "is_expansive", "is_psd"):
        m[f"linalg.{fn}.us"] = us(f"linalg.{fn}")
    m["linalg.errors"] = float(tracer.errors.get("linalg", 0))
    m["linalg.self_share"] = share("linalg")

    m["norms.singular_values.us"] = us("norms.singular_values")
    m["norms.dominance_verdict.calls_per_trial"] = calls("norms.dominance_verdict") / trials
    m["norms.dominance_verdict.self_us"] = self_us("norms.dominance_verdict")
    m["norms.self_share"] = share("norms")

    for cid in CHECK_IDS:
        ms, cnt = stats["check_ms"].get(cid, (0.0, 0))
        m[f"checks.{cid}.ms_per_trial"] = ms / cnt if cnt else 0.0
    m["checks.self_share"] = share("checks")

    m["serialize.mat_to_json.us"] = us("serialize.mat_to_json")
    m["serialize.mat_from_json.us"] = us("serialize.mat_from_json")
    m["serialize.fingerprint.us"] = us("serialize.fingerprint")
    m["serialize.self_share"] = share("serialize")

    m["falsify.sample_case.self_us"] = self_us("falsify.sample_case")
    m["falsify.run_case.self_us"] = self_us("falsify.run_case")
    m["falsify.make_certificate.us"] = us("falsify.make_certificate")
    m["falsify.replay_certificate.us"] = us("falsify.replay_certificate")
    m["falsify.certs_per_trial"] = calls("falsify.make_certificate") / max(campaign_trials, 1)
    m["falsify.self_share"] = share("falsify")

    main = names.get("cli.main")
    m["cli.main.self_s"] = main["self_s"] / main["calls"] if main and main["calls"] else 0.0
    m["cli.report_bytes_per_trial"] = report_bytes / max(campaign_trials, 1)

    for kernel in KERNELS:
        m[f"numpy.linalg.{kernel}.calls_per_trial"] = calls(f"numpy.linalg.{kernel}") / trials
    m["kernel.share"] = sum(
        names.get(f"numpy.linalg.{k}", {}).get("incl_s", 0.0) for k in KERNELS
    ) / wall_s
    m["kernel.flops_per_trial_computed"] = sum(tracer.flops.values()) / trials
    m["kernel.bytes_per_trial_computed"] = sum(tracer.bytes.values()) / trials
    m["trace.overhead_frac"] = overhead_frac
    return m
