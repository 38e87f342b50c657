"""normetry: verification and falsification of symmetric-norm matrix
inequalities over dense complex matrices.  Import the submodules by name;
importing the package loads none of them, nor numpy."""

__version__ = "0.1.0"  # falsify stamps it into certificates; pyproject reads it
