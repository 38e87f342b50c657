"""Random campaigns, hypothesis mutations, and tightness probes.

A campaign draws seeded random instances for one checker and records the
minimum scaled margin plus any violations (with self-contained replay
certificates).  Campaigns run trial-major: every checker's case of trial i
is sampled, then run, inside one operand pool (see ``pool``), so operands
the checkers share are generated and decomposed once.  Mutations
deliberately break one hypothesis: the must-violate mutations ship with an
analytic witness tried first, while drop-normality is exploratory and only
records what it sees.  A derivative-free hill descent probes how close the
true inequalities come to equality.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__, checks, linalg, pool, scalarfn, serialize
from .errors import BadSpec, MalformedCertificate, NormetryError, UnknownCheck
from .norms import DEFAULT_TOL, Verdict
from .rand import GenSpec, derive_stream, generate

TOOL_VERSION = __version__


@dataclass
class Case:
    """One fully materialized checker input, serializable for replay."""

    check_id: str
    n: int
    seed: int | None
    matrices: dict  # name -> ndarray, insertion order = checker argument order
    kinds: dict  # name -> generator kind (projection class for the descent)
    scalars: dict = field(default_factory=dict)  # j, k, m, z_re, z_im
    fn_descriptor: dict | None = None
    mutation: str | None = None

    def fn(self) -> scalarfn.ScalarFn | None:
        if self.fn_descriptor is None:
            return None
        return scalarfn.from_descriptor(self.fn_descriptor)


MUTATIONS = {
    "swap-function-class": {"targets": ("thm1.1",), "expectation": "must-violate"},
    "drop-vanishing": {"targets": ("thm1.2",), "expectation": "must-violate"},
    "drop-expansive": {"targets": ("thm2.4",), "expectation": "must-violate"},
    "drop-normality": {
        "targets": ("thm3.1", "thm3.2", "prop3.4"),
        "expectation": "exploratory",
    },
}


def mutation_expectation(mutation: str | None) -> str:
    if mutation is None:
        return "none"
    try:
        return MUTATIONS[mutation]["expectation"]
    except KeyError as exc:
        raise BadSpec(f"unknown mutation {mutation!r}") from exc


def _concave_descriptor(rng) -> dict:
    pick = int(rng.integers(4))
    if pick == 0:
        return {"kind": "sqrt"}
    if pick == 1:
        return {"kind": "power", "s": float(rng.uniform(0.2, 1.0))}
    if pick == 2:
        return {"kind": "log1p"}
    return {
        "kind": "affine-plus",
        "lam": float(rng.uniform(0.0, 2.0)),
        "c": float(rng.uniform(0.0, 1.0)),
    }


def _convex0_descriptor(rng) -> dict:
    pick = int(rng.integers(3))
    if pick == 0:
        return {"kind": "power-m", "m": int(rng.integers(2, 5))}
    if pick == 1:
        return {"kind": "angle", "a": float(rng.uniform(0.2, 2.0))}
    return {
        "kind": "smoothed",
        "a": float(rng.uniform(0.2, 2.0)),
        "r": float(10.0 ** rng.uniform(-6.0, 0.0)),
    }


def _opconcave_descriptor(rng) -> dict:
    pick = int(rng.integers(4))
    if pick == 0:
        return {"kind": "sqrt"}
    if pick == 1:
        return {"kind": "power", "s": float(rng.uniform(0.2, 1.0))}
    if pick == 2:
        return {"kind": "log1p"}
    return {"kind": "ratio-shift", "c": float(rng.uniform(0.1, 3.0))}


def _dec_tg_descriptor(rng) -> dict:
    pick = int(rng.integers(3))
    if pick == 0:
        return {"kind": "inv-sqrt"}
    if pick == 1:
        return {"kind": "constant", "c": float(rng.uniform(0.1, 2.0))}
    return {"kind": "log1p-over-t"}


def _gen(kind: str, n: int, seed: int, slot: int) -> np.ndarray:
    def make():
        return generate(GenSpec(kind=kind, n=n, seed=derive_stream(seed, slot)))

    return pool.take((kind, n, seed, slot), make)


def sample_case(check_id: str, n: int, seed: int, mutation: str | None = None) -> Case:
    """Draw one seeded random instance for a checker, honoring a mutation."""
    if check_id not in checks.CHECK_IDS:
        raise UnknownCheck(check_id)
    if mutation is not None and check_id not in MUTATIONS[mutation]["targets"]:
        raise BadSpec(f"mutation {mutation!r} does not apply to {check_id}")
    rng = np.random.default_rng(np.uint64(seed & (2**64 - 1)))
    mats: dict = {}
    kinds: dict = {}
    scalars: dict = {}
    fn_desc: dict | None = None

    def add(name, kind, slot):
        mats[name] = _gen(kind, n, seed, slot)
        kinds[name] = kind

    if check_id == "thm1.1":
        fn_desc = (
            {"kind": "power-m", "m": 2}
            if mutation == "swap-function-class"
            else _concave_descriptor(rng)
        )
        n_ops = 2 + int(rng.integers(2))
        for i in range(n_ops):
            add(f"a{i}", "psd", slot=i)
    elif check_id == "thm1.2":
        if mutation == "drop-vanishing":
            fn_desc = {"kind": "power-m-plus", "m": 2, "c": float(rng.uniform(0.5, 2.0))}
        else:
            fn_desc = _convex0_descriptor(rng)
        add("a", "psd", 0)
        add("b", "psd", 1)
    elif check_id == "davis-hansen":
        fn_desc = _opconcave_descriptor(rng)
        add("a", "psd", 0)
        add("z", "contraction", 1)
    elif check_id == "pinching-eq2":
        fn_desc = _opconcave_descriptor(rng)
        add("a", "pd", 0)
        add("b", "pd", 1)
    elif check_id == "prop2.1":
        fn_desc = _dec_tg_descriptor(rng)
        kind = "pd" if fn_desc["kind"] == "inv-sqrt" else "psd"
        add("a", kind, 0)
        add("b", kind, 1)
    elif check_id == "thm2.4":
        fn_desc = _concave_descriptor(rng)
        add("a", "psd", 0)
        z_kind = "contraction" if mutation == "drop-expansive" else "expansive"
        add("z", z_kind, 1)
    elif check_id == "eigen-sum":
        fn_desc = _concave_descriptor(rng)
        kind = "psd" if int(rng.integers(2)) else "general"
        add("a", kind, 0)
        add("b", kind, 1)
        j = int(rng.integers(n))
        scalars["j"] = j
        scalars["k"] = int(rng.integers(n - j))
    elif check_id == "cs-lemma":
        for i, name in enumerate(("a1", "a2", "b1", "b2")):
            add(name, "psd", i)
        add("c1", "contraction", 4)
        add("c2", "contraction", 5)
    elif check_id == "ineq4":
        add("a", "general", 0)
        add("b", "general", 1)
    elif check_id in ("thm3.1", "thm3.2"):
        kind = "general" if mutation == "drop-normality" else "normal"
        for i, name in enumerate(("a", "b", "c", "d")):
            add(name, kind, i)
    elif check_id == "cor3.3":
        add("a", "hermitian", 0)
        add("b", "hermitian", 1)
        add("x", "general", 2)
    elif check_id == "prop3.4":
        kind = "general" if mutation == "drop-normality" else "normal"
        add("a", kind, 0)
        add("b", kind, 1)
    elif check_id == "prop3.5":
        add("s", "hermitian", 0)
        add("t", "hermitian", 1)
        j = int(rng.integers(n))
        scalars["j"] = j
        scalars["k"] = int(rng.integers(n - j))
    elif check_id == "ineq5":
        add("a", "psd", 0)
        add("b", "psd", 1)
        z = rng.standard_normal() + 1j * rng.standard_normal()
        scalars["z_re"], scalars["z_im"] = float(z.real), float(z.imag)
        scalars["m"] = int(rng.integers(1, 6))
    elif check_id == "identity6":
        add("a", "psd", 0)
        add("b", "psd", 1)
        scalars["m"] = int(rng.integers(1, 9))

    return Case(
        check_id=check_id,
        n=n,
        seed=seed,
        matrices=mats,
        kinds=kinds,
        scalars=scalars,
        fn_descriptor=fn_desc,
        mutation=mutation,
    )


def analytic_witness(check_id: str, mutation: str) -> Case:
    """Known closed-form violation for each must-violate mutation."""
    eye = np.eye(2, dtype=complex)
    zero = np.zeros((2, 2), dtype=complex)
    if mutation == "swap-function-class" and check_id == "thm1.1":
        return Case(
            "thm1.1", 2, None,
            {"a0": eye, "a1": eye}, {"a0": "psd", "a1": "psd"},
            fn_descriptor={"kind": "power-m", "m": 2},
            mutation=mutation,
        )
    if mutation == "drop-vanishing" and check_id == "thm1.2":
        return Case(
            "thm1.2", 2, None,
            {"a": zero, "b": zero}, {"a": "psd", "b": "psd"},
            fn_descriptor={"kind": "power-m-plus", "m": 2, "c": 1.0},
            mutation=mutation,
        )
    if mutation == "drop-expansive" and check_id == "thm2.4":
        return Case(
            "thm2.4", 2, None,
            {"a": eye, "z": 0.5 * eye}, {"a": "psd", "z": "contraction"},
            fn_descriptor={"kind": "sqrt"},
            mutation=mutation,
        )
    raise BadSpec(f"no analytic witness for {check_id} + {mutation}")


# checkers that take a scalar function
FN_CHECKS = frozenset((
    "thm1.1", "thm1.2", "davis-hansen", "pinching-eq2", "prop2.1", "thm2.4",
    "eigen-sum",
))


def run_case(case: Case, tol: float = DEFAULT_TOL) -> Verdict:
    """Run a checker on a materialized case and stamp its fingerprint."""
    enforce = case.mutation is None
    m = case.matrices
    s = case.scalars
    f = case.fn()
    cid = case.check_id
    if cid == "thm1.1":
        ops = [m[k] for k in sorted(m)]
        v = checks.check_thm_1_1(f, ops, tol=tol, enforce=enforce)
    elif cid == "thm1.2":
        v = checks.check_thm_1_2(f, m["a"], m["b"], tol=tol, enforce=enforce)
    elif cid == "davis-hansen":
        v = checks.check_davis_hansen(f, m["a"], m["z"], tol=tol, enforce=enforce)
    elif cid == "pinching-eq2":
        v = checks.check_pinching_eq2(f, m["a"], m["b"], tol=tol, enforce=enforce)
    elif cid == "prop2.1":
        v = checks.check_prop_2_1(f, m["a"], m["b"], tol=tol, enforce=enforce)
    elif cid == "thm2.4":
        v = checks.check_thm_2_4(f, m["a"], m["z"], tol=tol, enforce=enforce)
    elif cid == "eigen-sum":
        v = checks.check_eigen_sum(
            f, m["a"], m["b"], s["j"], s["k"], tol=tol, enforce=enforce
        )
    elif cid == "cs-lemma":
        v = checks.check_cs_lemma(
            m["a1"], m["a2"], m["b1"], m["b2"], m["c1"], m["c2"],
            tol=tol, enforce=enforce,
        )
    elif cid == "ineq4":
        v = checks.check_ineq_4(m["a"], m["b"], tol=tol)
    elif cid == "thm3.1":
        v = checks.check_thm_3_1(
            m["a"], m["b"], m["c"], m["d"], tol=tol, enforce=enforce
        )
    elif cid == "thm3.2":
        v = checks.check_thm_3_2(
            m["a"], m["b"], m["c"], m["d"], tol=tol, enforce=enforce
        )
    elif cid == "cor3.3":
        v = checks.check_cor_3_3(m["a"], m["b"], m["x"], tol=tol)
    elif cid == "prop3.4":
        v = checks.check_prop_3_4(m["a"], m["b"], tol=tol, enforce=enforce)
    elif cid == "prop3.5":
        v = checks.check_prop_3_5_eigen(m["s"], m["t"], s["j"], s["k"], tol=tol)
    elif cid == "ineq5":
        z = complex(s["z_re"], s["z_im"])
        v = checks.check_ineq_5(m["a"], m["b"], z, s["m"], tol=tol)
    elif cid == "identity6":
        v = checks.identity_6_verdict(m["a"], m["b"], s["m"])
    else:
        raise UnknownCheck(cid)
    v.fingerprint = serialize.fingerprint(_case_fields(case), case.matrices)
    return v


def _case_fields(case: Case) -> dict:
    """Every field of a case except its matrices."""
    return {
        "check_id": case.check_id,
        "n": case.n,
        "seed": case.seed,
        "kinds": dict(case.kinds),
        "scalars": dict(case.scalars),
        "fn": case.fn_descriptor,
        "mutation": case.mutation,
    }


def case_to_dict(case: Case) -> dict:
    d = _case_fields(case)
    d["matrices"] = {k: serialize.mat_to_json(v) for k, v in case.matrices.items()}
    return d


def case_from_dict(d: dict) -> Case:
    return Case(
        check_id=d["check_id"],
        n=int(d["n"]),
        seed=d.get("seed"),
        matrices={k: serialize.mat_from_json(v) for k, v in d["matrices"].items()},
        kinds=dict(d.get("kinds", {})),
        scalars=dict(d.get("scalars", {})),
        fn_descriptor=d.get("fn"),
        mutation=d.get("mutation"),
    )


def make_certificate(case: Case, verdict: Verdict) -> dict:
    return {
        "tool_version": TOOL_VERSION,
        "case": case_to_dict(case),
        "margin": verdict.min_margin,
        "passed": verdict.passed,
        "tol": verdict.tol,
        "fingerprint": verdict.fingerprint,
    }


def replay_certificate(cert: dict) -> Verdict:
    """Rerun a certificate's case.  A certificate that lacks a field, or a
    matrix or scalar its checker needs, raises MalformedCertificate."""
    try:
        case = case_from_dict(cert["case"])
        tol = float(cert.get("tol", DEFAULT_TOL))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise MalformedCertificate(f"{type(exc).__name__}: {exc}") from exc
    fn = case.fn_descriptor
    if fn is None and case.check_id in FN_CHECKS:
        raise MalformedCertificate(f"{case.check_id} case lacks its scalar 'fn'")
    if fn is not None and not isinstance(fn, dict):
        raise MalformedCertificate(f"'fn' must be an object, got {fn!r}")
    try:
        return run_case(case, tol=tol)
    except KeyError as exc:
        raise MalformedCertificate(f"{case.check_id} case lacks {exc}") from exc


@dataclass
class CampaignReport:
    check_id: str
    mutation: str | None
    expectation: str
    trials: int
    violations: list  # certificates
    min_margin: float
    wall_time: float
    verdicts: list = field(default_factory=list)  # serialized verdict rows


def verdict_row(verdict: Verdict) -> dict:
    return {
        "check": verdict.check_id,
        "fingerprint": verdict.fingerprint,
        "pass": verdict.passed,
        "records": [
            {"spec": r.label, "lhs": r.lhs, "rhs": r.rhs, "margin": r.margin}
            for r in verdict.records
        ],
    }


def run_campaign(
    check_id: str,
    mutation: str | None = None,
    trials: int = 100,
    dims=(1, 2, 3, 4, 5, 6),
    root_seed: int = 0,
    tol: float = DEFAULT_TOL,
    keep_verdicts: bool = False,
) -> CampaignReport:
    """Run seeded trials for one checker; collect margins and violations."""
    return run_campaigns(
        [check_id], mutation, trials, dims, root_seed, tol, keep_verdicts
    )[0]


def _named(exc: NormetryError, cid: str, i: int, n: int, seed) -> NormetryError:
    """The same error, its message prefixed with the case that raised it."""
    return type(exc)(f"{cid} trial {i} (n={n}, seed={seed}): {exc}")


def run_campaigns(
    check_ids,
    mutation: str | None = None,
    trials: int = 100,
    dims=(1, 2, 3, 4, 5, 6),
    root_seed: int = 0,
    tol: float = DEFAULT_TOL,
    keep_verdicts: bool = False,
) -> list[CampaignReport]:
    """Run seeded trials for several checkers; one report per check id.

    Trial-major: trial i samples every checker's case from the same trial
    seed, then runs them in CHECK_IDS order inside one operand pool, so the
    operands they share are generated and decomposed once.  Reports and
    verdict rows are the same as one checker at a time would give.  A
    NormetryError raised by a trial is re-raised with the check id, trial
    index, n and trial seed at the start of its message.
    """
    check_ids = list(check_ids)
    for cid in check_ids:
        if cid not in checks.CHECK_IDS:
            raise UnknownCheck(cid)
    expectation = mutation_expectation(mutation)
    for cid in check_ids:
        if mutation is not None and cid not in MUTATIONS[mutation]["targets"]:
            raise BadSpec(f"mutation {mutation!r} does not apply to {cid}")
    if trials < 1:
        raise BadSpec("trials must be >= 1")
    dims = [int(d) for d in dims]
    order = sorted(set(check_ids), key=checks.CHECK_IDS.index)
    wall = dict.fromkeys(order, 0.0)
    min_margin = dict.fromkeys(order, float("inf"))
    violations: dict = {cid: [] for cid in order}
    rows: dict = {cid: [] for cid in order}
    clock = time.perf_counter
    for i in range(trials):
        n, seed = dims[i % len(dims)], derive_stream(root_seed, i)
        with pool.trial():
            pending = []
            for cid in order:
                start = clock()
                try:
                    if i == 0 and expectation == "must-violate":
                        case = analytic_witness(cid, mutation)
                    else:
                        case = sample_case(cid, n, seed, mutation)
                except NormetryError as exc:
                    raise _named(exc, cid, i, n, seed) from exc
                pending.append(case)
                wall[cid] += clock() - start
            # popped, so a case and the operands only it holds go once it has run
            pending.reverse()
            while pending:
                case = pending.pop()
                cid = case.check_id
                start = clock()
                try:
                    verdict = run_case(case, tol=tol)
                except NormetryError as exc:
                    raise _named(exc, cid, i, case.n, case.seed) from exc
                pool.release(case.matrices.values())
                min_margin[cid] = min(min_margin[cid], verdict.min_margin)
                if not verdict.passed:
                    violations[cid].append(make_certificate(case, verdict))
                if keep_verdicts:
                    rows[cid].append(verdict_row(verdict))
                wall[cid] += clock() - start
    return [
        CampaignReport(
            check_id=cid,
            mutation=mutation,
            expectation=expectation,
            trials=trials,
            violations=violations[cid],
            min_margin=min_margin[cid],
            wall_time=wall[cid],
            verdicts=rows[cid],
        )
        for cid in check_ids
    ]


def _project(m: np.ndarray, kind: str) -> np.ndarray:
    """Project a perturbed matrix back onto its hypothesis class."""
    if kind == "general":
        return m
    if kind == "hermitian":
        return linalg.hermitian_part(m)
    if kind in ("psd", "pd"):
        spec = linalg.eigh(linalg.hermitian_part(m))
        floor = 0.05 if kind == "pd" else 0.0
        w = np.maximum(spec.eigenvalues, floor)
        v = spec.frame
        return linalg.hermitize((v * w) @ v.conj().T, check=False)
    if kind == "unitary":
        return linalg.polar(m).u
    if kind == "contraction":
        top = linalg.opnorm(m)
        return m / top if top > 1.0 else m
    if kind == "expansive":
        parts = linalg.polar(m)
        spec = linalg.eigh(parts.abs)
        w = np.maximum(spec.eigenvalues, 1.0)
        v = spec.frame
        return parts.u @ linalg.hermitize((v * w) @ v.conj().T, check=False)
    if kind == "normal":
        # polar unitary, eigen-aligned with |M|: keep |M|'s eigenframe and
        # attach the unitary's diagonal phases in that frame
        parts = linalg.polar(m)
        spec = linalg.eigh(parts.abs)
        v = spec.frame
        diag = np.diag(v.conj().T @ parts.u @ v)
        phases = diag / np.where(np.abs(diag) == 0, 1.0, np.abs(diag))
        phases = np.where(np.abs(diag) == 0, 1.0, phases)
        return (v * (phases * spec.eigenvalues)) @ v.conj().T
    raise BadSpec(f"no projection for kind {kind!r}")


def minimize_margin(
    case: Case,
    steps: int = 200,
    step_scale: float = 0.1,
    root_seed: int = 0,
    tol: float = DEFAULT_TOL,
):
    """Derivative-free hill descent on the scaled margin.

    Each step perturbs one operand and projects back onto its hypothesis
    class, so the search never leaves the theorem's domain.  Monotone by
    construction; the step anneals x0.9 after every 50 non-improving steps.
    Returns (best_case, best_margin).
    """
    rng = np.random.default_rng(np.uint64(root_seed & (2**64 - 1)))
    best = replace(case, matrices=dict(case.matrices))
    best_margin = run_case(best, tol=tol).min_margin
    names = list(best.matrices)
    scale = step_scale
    stale = 0
    for _ in range(int(steps)):
        name = names[int(rng.integers(len(names)))]
        m = best.matrices[name]
        amp = scale * max(1.0, linalg.opnorm(m))
        delta = amp * (
            rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
        )
        candidate = dict(best.matrices)
        candidate[name] = _project(m + delta, best.kinds[name])
        trial = replace(best, matrices=candidate)
        margin = run_case(trial, tol=tol).min_margin
        if margin < best_margin:
            best, best_margin = trial, margin
            stale = 0
        else:
            stale += 1
            if stale % 50 == 0:
                scale *= 0.9
    return best, best_margin


def search_unitary_certificate(
    statement: str, inputs: dict, budget: int = 1000, root_seed: int = 0,
    tol: float = 1e-8,
):
    """Exploratory search for the unitaries asserted by the congruence
    statements.  Returns (U, V) on success, None on budget exhaustion;
    absence is not a refutation.
    """
    if statement == "thm2.5":
        f = inputs["f"]
        a, b = linalg.as_square(inputs["a"]), linalg.as_square(inputs["b"])
        target = linalg.spectral_apply(f, a + b)
        fa, fb = linalg.spectral_apply(f, a), linalg.spectral_apply(f, b)
        w_s = linalg.eigh(a + b).frame
        w_a, w_b = linalg.eigh(a).frame, linalg.eigh(b).frame
        aligned = (w_s @ w_a.conj().T, w_s @ w_b.conj().T)
    elif statement == "prop3.5":
        s = linalg.hermitize(inputs["s"])
        t = linalg.hermitize(inputs["t"])
        target = linalg.matrix_abs(s + t)
        mix = linalg.matrix_abs(s) + linalg.matrix_abs(t)
        fa, fb = mix / 2, mix / 2
        w_s = linalg.eigh(target).frame
        w_m = linalg.eigh(mix).frame
        aligned = (w_s @ w_m.conj().T, w_s @ w_m.conj().T)
    else:
        raise BadSpec(f"unknown statement {statement!r}")

    n = target.shape[0]
    eye = np.eye(n, dtype=complex)

    def works(u, v):
        rhs = u @ fa @ u.conj().T + v @ fb @ v.conj().T
        return linalg.loewner_leq(target, rhs, tol=tol)

    candidates = [(eye, eye), aligned]
    for u, v in candidates:
        if works(u, v):
            return u, v
    for i in range(int(budget)):
        u = generate(GenSpec("unitary", n, derive_stream(root_seed, 2 * i)))
        v = generate(GenSpec("unitary", n, derive_stream(root_seed, 2 * i + 1)))
        if works(u, v):
            return u, v
    return None
