"""The ``normetry`` command's entry, run as ``python -m normetry`` and as
the console script: it holds the BLAS to one thread unless the caller set
a count, before numpy loads."""

import json
import os
import subprocess
import sys

import pytest

import normetry
from normetry.__main__ import BLAS_THREAD_VARS, pin_blas_threads

SRC = os.path.dirname(os.path.dirname(normetry.__file__))


def python(args, **env_vars):
    """Run a fresh interpreter on ``args`` with none of BLAS_THREAD_VARS
    set, but those of ``env_vars``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(PYTHONPATH=SRC, **env_vars)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_importing_the_package_loads_no_numpy():
    done = python(["-c", "import sys, normetry; assert 'numpy' not in sys.modules"])
    assert done.returncode == 0, done.stderr


def test_the_pin_sets_every_count_only_where_none_is_set():
    """A blank or zero value is no count: it is pinned over."""
    for unset in ({}, *({var: blank} for var in BLAS_THREAD_VARS for blank in ("", " ", "0"))):
        env = {"PATH": "/bin", **unset}
        pin_blas_threads(env)
        assert env == {"PATH": "/bin", **dict.fromkeys(BLAS_THREAD_VARS, "1")}
    for var in BLAS_THREAD_VARS:
        env = {var: "2"}
        pin_blas_threads(env)
        assert env == {var: "2"}
    env = {"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "2"}
    pin_blas_threads(env)
    assert env == {"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "2"}


def test_the_cli_module_run_as_main_is_a_usage_error():
    """``python -m normetry.cli`` loads numpy before any pin, so it refuses
    to run and names the entries that do."""
    done = python(["-m", "normetry.cli", "verify", "--checks", "nosuch"])
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == ("usage error: run the command as 'normetry' or "
                           "'python -m normetry'\n")


@pytest.mark.skipif(sys.platform != "linux", reason="workers forks only on Linux")
def test_numpy_loaded_through_the_entry_leaves_the_process_free_to_fork():
    done = python(["-c", "from normetry import __main__, workers; "
                         "__main__.main(['--help']); print(workers.can_fork())"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-1] == "True"


def test_the_command_writes_the_bytes_of_a_one_thread_run(tmp_path):
    """At n = 128 the BLAS thread count moves report bits; the command
    without a count set, or with an empty or zero one, writes what it
    writes with OPENBLAS_NUM_THREADS=1, outside the timestamp."""
    texts = []
    for env_vars in ({}, {"OPENBLAS_NUM_THREADS": ""}, {"OPENBLAS_NUM_THREADS": "0"},
                     {"OPENBLAS_NUM_THREADS": "1"}):
        out = tmp_path / f"report-{len(texts)}.json"
        done = python(["-m", "normetry", "verify", "--checks", "all", "--seed", "4",
                       "--dims", "128", "--trials", "2", "--verdicts", "--out", str(out)],
                      **env_vars)
        assert done.returncode == 0, done.stderr
        report = json.loads(out.read_text())
        report["header"].pop("timestamp")
        texts.append(json.dumps(report, sort_keys=True))
    assert texts[0] == texts[1] == texts[2] == texts[3]
