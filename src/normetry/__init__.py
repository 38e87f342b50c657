"""normetry: verification and falsification of symmetric-norm matrix
inequalities over dense complex matrices."""

# Set before the submodules load: falsify stamps it into certificates, and
# pyproject.toml reads it as the package version.
__version__ = "0.1.0"

from . import checks, falsify, linalg, norms, rand, scalarfn, serialize  # noqa: E402
from .norms import ComparisonRecord, NormSpec, Verdict, dominance_verdict  # noqa: E402

__all__ = [
    "checks",
    "falsify",
    "linalg",
    "norms",
    "rand",
    "scalarfn",
    "serialize",
    "ComparisonRecord",
    "NormSpec",
    "Verdict",
    "dominance_verdict",
    "__version__",
]
