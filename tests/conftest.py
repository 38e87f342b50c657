"""Shared fixtures."""

import pytest

from normetry import workers


def _start_here(run, group):
    """A stand-in for ``workers._start`` that runs the group in this
    process when its outcome is asked for."""
    return lambda kill=False: None if kill else run(group)


@pytest.fixture
def split_groups(monkeypatch):
    """``split_groups(split)`` sets how verify runs its checks: with
    ``split``, in ``checks.groups``, each in a worker process where this
    process may fork and else each here, through the same merge; without
    it, in one group of them all."""
    def set_split(split: bool) -> None:
        monkeypatch.setattr(workers, "parallel", lambda: split)
        if split and not workers.can_fork():
            monkeypatch.setattr(workers, "_start", _start_here)
    return set_split
