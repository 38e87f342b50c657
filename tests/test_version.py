import re
from pathlib import Path

import pytest

import normetry
from normetry import falsify

ROOT = Path(__file__).resolve().parents[1]
tomllib = pytest.importorskip("tomllib")  # Python 3.11+


def test_version_is_defined_once():
    """pyproject reads the version from normetry.__version__, and the
    certificates' tool_version is that same value."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in project["project"]
    assert "version" in project["project"]["dynamic"]
    attr = project["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    assert attr == "normetry.__version__"
    assert falsify.TOOL_VERSION == normetry.__version__
    assert re.fullmatch(r"\d+\.\d+\.\d+", normetry.__version__)
