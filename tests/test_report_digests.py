"""Reports and certificates stay byte-identical across refactors.

The digests below were taken from the code before campaign flushes
grouped cases by operand names and ran the witness table, on numpy 2.4.6
with its bundled OpenBLAS 0.3.31.188.0 (SkylakeX kernels), with one and
with two OpenBLAS threads alike.  LAPACK bits depend on the BLAS build and
on the kernels it picks for the CPU, so on any other build the test skips.
"""

import ctypes
import glob
import hashlib
import json
import os

import numpy as np
import pytest

from normetry import cli

PINNED_BUILD = ("2.4.6", "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY "
                "SkylakeX MAX_THREADS=64")
VERIFY_DIGEST = "859a15d51b32534619ae80fbf210686c3dc3f17c76456d3e1c7c0ac913b410c9"
FALSIFY_DIGEST = "8e50b056b81f8b5db39797f5b75eddf8a9a55c146c5465981253861ed547b53c"
SMALL_DIMS = "1,2,3,4,5,6,7,8"


def blas_build():
    """numpy's version and the run-time configuration of the OpenBLAS its
    wheel bundles: version and the kernels picked for this CPU."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_config64_", "openblas_get_config64_"):
            get = getattr(lib, name, None)
            if get is not None:
                get.restype = ctypes.c_char_p
                return np.__version__, get().decode()
    return np.__version__, None


pytestmark = pytest.mark.skipif(
    blas_build() != PINNED_BUILD,
    reason=f"digests pinned on {PINNED_BUILD}, this is {blas_build()}")


def digest(obj, *blobs) -> str:
    h = hashlib.sha256(json.dumps(obj, sort_keys=True).encode())
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


def test_verify_report_with_verdict_rows_keeps_its_bytes(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--verdicts", "--checks", "all", "--seed", "123",
                     "--dims", SMALL_DIMS, "--trials", "30", "--out", str(out)])
    assert code == cli.EXIT_OK
    report = json.loads(out.read_text())
    report["header"].pop("timestamp")
    assert digest(report) == VERIFY_DIGEST


def test_falsify_report_and_certificates_keep_their_bytes(tmp_path):
    out, certs = tmp_path / "report.json", tmp_path / "certs"
    code = cli.main(["falsify", "--check", "thm2.4", "--mutate", "drop-expansive",
                     "--seed", "5", "--trials", "50", "--dims", SMALL_DIMS,
                     "--out", str(out), "--cert-dir", str(certs)])
    assert code == cli.EXIT_OK
    report = json.loads(out.read_text())
    report["header"].pop("timestamp")
    report["campaign"].pop("wall_time")
    files = sorted(certs.iterdir(), key=lambda p: int(p.stem.rsplit("-", 1)[1]))
    assert len(files) == 50
    assert digest(report, *(p.read_bytes() for p in files)) == FALSIFY_DIGEST
