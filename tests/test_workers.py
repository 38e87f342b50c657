"""Groups of checks in worker processes: how many processes start, what a
worker's failure or death gives the caller, and that no worker outlives
its run.

The tests of forked workers run in this process when it may fork, and
otherwise in a fresh interpreter with one BLAS thread, which may.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

import normetry
from normetry import checks, cli, falsify, workers
from normetry.errors import DomainError, WorkerLost

SMALL = ["--trials", "2", "--dims", "1,2", "--seed", "3"]


def assert_reaped():
    """No worker process is left: every child has been waited for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def single_threaded(code: str, *args) -> subprocess.CompletedProcess:
    """``python -c code *args`` in a fresh interpreter whose BLAS starts no
    thread, so it may fork; it imports normetry and these tests."""
    if sys.platform != "linux":
        pytest.skip("worker processes are forked only on Linux")
    src = os.path.dirname(os.path.dirname(normetry.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def in_a_forking_process(body):
    """Run ``body`` here when this process may fork, else in a fresh
    single-threaded interpreter."""
    if workers.can_fork():
        body()
        return
    done = single_threaded(f"import test_workers; test_workers.{body.__name__}()")
    assert done.returncode == 0, done.stdout + done.stderr


def test_groups_split_the_checks_by_operand_family():
    """The positive family (psd and pd operands, with their contraction,
    expansive and general partners) and the rest; a family alone never
    splits."""
    positive, rest = checks.groups(checks.CHECK_IDS)
    assert rest == ["ineq4", "thm3.1", "thm3.2", "cor3.3", "prop3.4", "prop3.5"]
    assert positive == [cid for cid in checks.CHECK_IDS if cid not in rest]
    assert checks.groups(["prop3.4", "ineq4"]) == [["prop3.4", "ineq4"]]
    assert checks.SPECS["eigen-sum"].kinds == {"psd", "general"}
    assert checks.SPECS["prop2.1"].kinds == {"psd", "pd"}


def test_parallel_needs_a_second_cpu_a_fork_and_no_outside_wrapper(monkeypatch):
    """Groups run in processes of their own only beside a second usable
    CPU, from a process that may fork, and while no wrapper from outside
    the package (one that names what it wraps, as a tracer's does) would
    miss a worker's calls.  The package's own decorators do not count."""
    monkeypatch.setattr(workers, "can_fork", lambda: True)
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    assert workers.parallel()
    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
    assert not workers.parallel()
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    monkeypatch.setattr(workers, "can_fork", lambda: False)
    assert not workers.parallel()
    monkeypatch.setattr(workers, "can_fork", lambda: True)
    real = falsify.run_case

    def traced(*args, **kwargs):
        return real(*args, **kwargs)

    traced.__wrapped__ = real
    monkeypatch.setattr(falsify, "run_case", traced)
    assert not workers.parallel()
    monkeypatch.setattr(falsify, "run_case", real)
    assert workers.parallel()


@pytest.mark.parametrize("split", [False, True])
def test_verify_starts_one_process_per_group_but_the_first(monkeypatch, tmp_path, split):
    """The process-start helper is replaced by one that records its group
    and runs it here, so no process starts."""
    groups = []

    def start(run, group):
        groups.append(group)
        return lambda kill=False: run(group)

    monkeypatch.setattr(workers, "parallel", lambda: split)
    monkeypatch.setattr(workers, "_start", start)
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--out", str(out)] + SMALL) == cli.EXIT_OK
    assert groups == checks.groups(checks.CHECK_IDS)[1:split + 1]
    assert_reaped()


def outcome_of(group):
    """A worker's function for these tests: each group's first word says
    what the group does."""
    what = group[0]
    if what == "exit" and os.getpid() != PARENT[0]:
        os._exit(7)
    if what == "kill" and os.getpid() != PARENT[0]:
        os.kill(os.getpid(), signal.SIGKILL)
    if what == "sleep":
        time.sleep(60)
    if what == "interrupt":
        raise KeyboardInterrupt
    if what == "unexpected":
        raise ValueError("not a NormetryError")
    if what == "fail":
        return (int(group[1]),), DomainError(f"failure {group[1]}")
    return None, [what, os.getpid()]


PARENT = [0]


def child_failures_reach_the_parent():
    PARENT[0] = os.getpid()
    results = workers.run_groups(outcome_of, [["ok"], ["ok"], ["ok"]])
    assert [what for what, _ in results] == ["ok"] * 3
    pids = [pid for _, pid in results]
    assert pids[0] == os.getpid() and len(set(pids)) == 3
    for groups, message in [([["ok"], ["fail", "5"], ["fail", "2"]], "failure 2"),
                            ([["fail", "1"], ["fail", "4"]], "failure 1"),
                            ([["fail", "9"], ["unexpected"]], "not a NormetryError")]:
        with pytest.raises((DomainError, ValueError), match=message):
            workers.run_groups(outcome_of, groups)
        assert_reaped()
    for what, how in [("exit", "exited with code 7"), ("kill", "was killed by signal 9")]:
        with pytest.raises(WorkerLost, match=f"for {what} {how} without sending a result"):
            workers.run_groups(outcome_of, [["ok"], [what]])
        assert_reaped()


def test_child_failures_reach_the_parent():
    """A failure comes back as data and the least key raises, whichever
    process met it; an unexpected exception comes back too; a worker that
    dies without a result is an error, never a hang or a lost group."""
    in_a_forking_process(child_failures_reach_the_parent)


def an_interrupted_parent_reaps_its_workers():
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        workers.run_groups(outcome_of, [["interrupt"], ["sleep"], ["sleep"]])
    assert time.monotonic() - start < 30
    assert_reaped()


def test_an_interrupted_parent_reaps_its_workers():
    """An interrupt in this process's own group kills and reaps the
    workers, however long they would still run."""
    in_a_forking_process(an_interrupted_parent_reaps_its_workers)


PLANTED_VERIFY = """
import os, sys
from normetry import checks, cli, workers
from normetry.errors import DomainError

MAIN = os.getpid()

def planted(a, b, **kw):
    raise DomainError("planted failure in " + ("this process" if os.getpid() == MAIN
                                               else "a worker"))

checks.check_prop_3_4 = planted
workers.usable_cpus = lambda: 2  # a worker starts on one CPU too
sys.exit(cli.main(sys.argv[1:]))
"""


def test_a_worker_writes_nothing_to_stdout_or_stderr():
    """The failure of a check run by a worker reaches the user once, as
    the parent's own message and exit code."""
    done = single_threaded(PLANTED_VERIFY, "verify", "--checks", "thm1.1,prop3.4",
                           "--trials", "2", "--dims", "2")
    assert done.returncode == cli.EXIT_USAGE
    assert done.stdout == ""
    assert done.stderr == ("error: witness prop3.4 (A=I, B=-I gives zero LHS): "
                           "planted failure in a worker\n")
