"""normetry benchmark runner.

    python3 perfbench/run.py --workload verify-small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run measures the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it alternates untraced and traced
repetitions of the same inputs and reports the per-layer metrics.  Either
way every repetition passes through the correctness gate, a result file
with host facts goes to ``perfbench/out/``, and the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The exit code is 0 only when the gate found no failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, pinned before numpy loads: the steadiest setting on a
# small shared machine, and the same for every commit measured.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
MIN_REPS = 5
TRACE_PAIRS = 2
SETUP_SAMPLES = 7
# one pass of the reference loop on a shared 2-core Intel Xeon with Python
# 3.11, numpy 2.4 and OpenBLAS 0.3.31 (see Reference)
REF_NOMINAL_S = 0.030
# share of the previous rep's time spent on the reference before the next
REF_SHARE = 0.05

# A fresh interpreter reaching its first trial: import the CLI, parse the
# workload's arguments, then report the system-wide monotonic clock.
SETUP_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from normetry import cli\n"
    "cli.build_parser().parse_args(sys.argv[2:])\n"
    "print(repr(time.monotonic()))\n"
)


def measure_setup(argv: list[str], ref) -> tuple[list[float], list[float]]:
    """Set-up seconds of SETUP_SAMPLES fresh interpreters, after one warm-up.

    Returns the raw seconds and the reference time around each start.
    """
    samples, refs = [], []
    for i in range(SETUP_SAMPLES + 1):
        before = ref()
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), *argv],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        if i:  # the first start also compiles bytecode, which users pay once
            samples.append(float(done.stdout.split()[-1]) - start)
            refs.append((before + ref()) / 2)
    return samples, refs


class Reference:
    """A fixed Python-and-LAPACK loop that touches no normetry code.

    On a shared host the machine's speed drifts by a quarter or more within
    minutes, and the drift slows this loop as much as it slows normetry.
    Timed around every rep and every set-up start, it rescales the
    measured rates and times to a machine on which one pass of the loop
    takes REF_NOMINAL_S.  The loop costs the same on every commit.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                     for n in (2, 4, 6, 8) * 30 + (64, 64)]

    def one_pass(self) -> float:
        import numpy as np

        start = time.perf_counter()
        acc = {}
        for i in range(100_000):
            acc[i % 97] = acc.get(i % 97, 0) + i * i
        for m in self.mats:
            np.linalg.svd(m)
            np.linalg.eigh(m + m.conj().T)
        return time.perf_counter() - start

    def __call__(self, budget_s: float = 0.0) -> float:
        """Mean seconds per pass over at least one pass and ``budget_s``."""
        passes = [self.one_pass()]
        while sum(passes) < budget_s:
            passes.append(self.one_pass())
        return statistics.fmean(passes)


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def host_facts() -> dict:
    """Machine and library facts recorded with every result."""
    import numpy as np

    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")), "unknown",
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(str(index / "level")).strip()
        kind = _read(str(index / "type")).strip()
        if level and kind != "Instruction":
            caches[f"L{level}"] = _read(str(index / "size")).strip()
    mem_kib = next(
        (int(line.split()[1]) for line in _read("/proc/meminfo").splitlines()
         if line.startswith("MemTotal:")), 0,
    )
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "ram_mib": mem_kib // 1024,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_pinned": BLAS_THREADS,
        "note": (
            f"Shared machine with {nproc} cores; other tenants' load is not "
            "controlled. Measured only in-process and on the benchmark's own "
            "files, with no kernel, cgroup or cache-dropping changes."
        ),
    }


def spread(values: list[float]) -> dict:
    values = sorted(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "n": len(values), "samples": values}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads
    from tracing import Tracer, layer_metrics, span_stats

    spec = load_spec()
    workload = workloads.WORKLOADS[workload_name]
    tag = f"{workload_name}-seed{seed}-trace{int(trace)}"
    run_dir = OUT / f"{tag}-work"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    facts = host_facts()

    # one short rep first, so lazy imports and BLAS set-up finish before timing
    reps = [workloads.run_rep(workload, seed, run_dir / "warmup", trials=1)]
    ref = Reference()
    setup, setup_ref = ([], []) if trace else measure_setup(reps[0].calls[0].argv, ref)
    timed, traced, ref_s = [], [], []
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        ref_s.append(ref(REF_SHARE * (timed[-1].wall_s if timed else 0.0)))
        timed.append(workloads.run_rep(workload, seed, run_dir / f"rep{len(timed)}"))
        reps.append(timed[-1])
        if trace:  # the same inputs again, traced, right after the untraced rep
            with tracer:
                traced.append(
                    workloads.run_rep(workload, seed, run_dir / f"traced{len(traced)}")
                )
            reps.append(traced[-1])
        if len(timed) >= (TRACE_PAIRS if trace else MIN_REPS) and (
            time.perf_counter() - start >= seconds
        ):
            break
    ref_s.append(ref(REF_SHARE * timed[-1].wall_s))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    gates = [workloads.check_rep(rep) for rep in reps]
    attempted = sum(g.attempted for g in gates)
    failed = sum(g.failed for g in gates)
    problems = [p for g in gates for p in g.problems]
    first = gates[1].summary  # the first timed rep, untraced
    for rep, gate in zip(reps[1:], gates[1:]):
        if gate.summary != first:
            failed += 1
            problems.append(f"{rep.root.name} gave other verdicts than {reps[1].root.name}")

    rates = [r.evaluations / r.wall_s for r in timed]
    # each rep's rate at nominal speed, from the reference times around it
    nominal = [rate * (a + b) / 2 / REF_NOMINAL_S
               for rate, a, b in zip(rates, ref_s, ref_s[1:])]
    result = {
        "workload": workload_name,
        "why": workload.why,
        "seed": seed,
        "trace": int(trace),
        "host": facts,
        "config": {"dims": workload.dims, "trials": workload.trials,
                   "seconds": seconds, "reps": len(timed), "traced_reps": len(traced)},
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / max(attempted, 1),
        "problems": problems[:50],
        "raw_trials_per_s": spread(rates),
        "trials_per_s": spread(nominal),
        "campaign_trials_per_s": spread([r.campaign_trials / r.campaign_s for r in timed]),
        "rep_s": spread([r.wall_s for r in timed]),
        "ref_s": spread(ref_s),
    }
    if workload.command == "falsify-replay":
        result["replays_per_s"] = spread([r.replays / r.replay_s for r in timed])
        result["replays_per_rep"] = timed[0].replays

    if trace:
        untraced_s = statistics.median(r.wall_s for r in timed)
        traced_s = statistics.median(r.wall_s for r in traced)
        stats = span_stats(tracer)
        values = layer_metrics(
            stats, tracer,
            wall_s=sum(r.wall_s for r in traced),
            campaign_trials=sum(r.campaign_trials for r in traced),
            report_bytes=sum(r.report_bytes() for r in traced),
            overhead_frac=traced_s / untraced_s - 1.0,
        )
        spans_path = OUT / f"{tag}-spans.npz"
        tracer.write_spans(spans_path)
        result["per_layer"] = values
        result["spans"] = {"path": str(spans_path.relative_to(ROOT)),
                           "count": len(tracer.t0), "by_name": stats["names"],
                           "by_dim": stats["dims"]}
        wanted = spec["per_layer"]
    else:
        setup_nominal = [t * REF_NOMINAL_S / r for t, r in zip(setup, setup_ref)]
        values = {
            "trials_per_s": statistics.median(nominal),
            "setup_s": statistics.median(setup_nominal),
            "peak_rss_mb": peak_rss_mb,
            "output_mb": statistics.median(r.output_bytes() for r in timed) / 2**20,
        }
        result["raw_setup_s"] = spread(setup)
        result["setup_s"] = spread(setup_nominal)
        result["output_bytes_per_rep"] = [r.output_bytes() for r in timed]
        wanted = spec["end_to_end"]
    shutil.rmtree(run_dir)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result["metrics"] = metrics
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    for line in problems[:20]:
        print(f"gate: {line}", file=sys.stderr)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "normetry" / "cli.py").is_file():
        print(f"error: no normetry sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
