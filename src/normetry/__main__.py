"""The ``normetry`` command; ``python -m normetry`` runs the same entry.

Unless the caller set a BLAS thread count, the command holds the BLAS to
one thread, and must do so before numpy loads: numpy's OpenBLAS starts its
threads at import, and a process of more than one thread may not fork its
workers (``workers.can_fork``).  On one thread the reports also have the
bytes of a run with ``OPENBLAS_NUM_THREADS=1``.  ``cli.main`` called in
process keeps the caller's setting.
"""

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads(environ) -> None:
    """Set each of BLAS_THREAD_VARS in ``environ`` to "1" when none holds a
    count.  A count is a positive decimal integer: OpenBLAS reads a blank,
    0 or non-numeric value as no count, and starts its default threads."""
    counts = [environ.get(var, "").strip() for var in BLAS_THREAD_VARS]
    if not any(c.isascii() and c.isdecimal() and int(c) > 0 for c in counts):
        environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))


def main(argv=None) -> int:
    pin_blas_threads(os.environ)
    from . import cli  # loads numpy, so only once the count is pinned

    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
