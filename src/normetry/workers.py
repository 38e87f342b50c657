"""Independent groups of work, each in its own process.

``parallel`` says whether groups may run in processes of their own: on
Linux, from a process of one OS thread, with more than one usable CPU and
no function of the package wrapped from outside it.  Only then does a
caller split its work into groups.  ``run_groups`` runs a function on each
group and returns the results in group order: the first group runs here
and each other group in a forked child, which pickles its outcome back
through a pipe.  A group's function returns its failure as data, so
whichever process met it, the failure the caller would have met first is
raised, and only once every group has ended.  Each child is reaped on
every path.
"""

from __future__ import annotations

import math
import os
import sys
import types

from .errors import WorkerLost

# The key of a failure that names no case: it is raised before any other.
FIRST = (-math.inf,)


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def can_fork() -> bool:
    """Whether this process may fork: on Linux, and with one OS thread,
    since a lock that another thread holds at the fork stays held in the
    child.  Linux lists a process's threads under /proc/self/task."""
    if sys.platform != "linux":
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:  # no /proc mounted: the threads cannot be counted
        return False


def _wrapped_from_outside() -> bool:
    """Whether a module of the package binds a wrapper from outside the
    package that names what it wraps in ``__wrapped__``, as a tracer's
    does.  Such a wrapper sees the calls of its own process only."""
    prefix = __package__ + "."
    return any(
        isinstance(value, types.FunctionType)
        and not value.__module__.startswith(prefix) and hasattr(value, "__wrapped__")
        for name, module in list(sys.modules.items()) if name.startswith(prefix)
        for value in vars(module).values())


def parallel() -> bool:
    """Whether groups of work may run in processes of their own: only
    where a second process can run beside this one, this one may fork,
    and every call stays in sight of the wrappers set on the package."""
    return usable_cpus() > 1 and can_fork() and not _wrapped_from_outside()


def run_groups(run, groups: list) -> list:
    """``run(group)`` of each group, in group order.  ``run`` returns
    ``(None, result)``, or ``(key, exception)`` for a failure; once every
    group has ended, the exception of the least key is raised.  The first
    group runs in this process and each other one in a forked child, so
    pass more than one group only where ``parallel()``."""
    finishers = []
    try:
        for group in groups[1:]:
            finishers.append(_start(run, group))
        outcomes = [run(groups[0])]
        while finishers:
            outcomes.append(finishers.pop(0)())
    finally:
        for finish in finishers:  # what an exception left running
            finish(kill=True)
    failures = [(key, exc) for key, exc in outcomes if key is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [result for _, result in outcomes]


def _start(run, group):
    """Fork a child that sends the pickled outcome of ``run(group)``
    through a pipe, an unexpected exception as a failure of key FIRST, and
    ends by ``os._exit`` whatever happens, writing nothing to stdout or
    stderr.  Returns ``finish(kill=False)``, which waits for the child's
    outcome; with ``kill``, or when the wait is interrupted, it kills the
    child instead.  Either way it reaps the child."""
    import pickle
    import signal

    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if not pid:
        code = 1
        try:
            os.close(read)
            try:
                outcome = run(group)
            except Exception as exc:  # the parent raises it
                outcome = FIRST, exc
            with open(write, "wb") as out:
                pickle.dump(outcome, out, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write)

    def finish(kill: bool = False):
        data = b""
        try:
            with open(read, "rb") as src:
                if kill:
                    os.kill(pid, signal.SIGKILL)
                else:
                    data = src.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
        if kill:
            return None
        if status == 0:
            return pickle.loads(data)  # bytes this program's child wrote
        code = os.waitstatus_to_exitcode(status)
        how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
        raise WorkerLost(f"the worker process for {', '.join(group)} {how} "
                         "without sending a result")

    return finish
