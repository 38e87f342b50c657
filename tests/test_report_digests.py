"""Reports and certificates stay byte-identical across refactors.

The digests below were taken when thm1.1, thm1.2, thm2.4 and prop2.1
began to read the singular values of a side from the spectrum they hold,
and eigen-sum from the values-only SVD, on numpy 2.4.6 with its bundled
OpenBLAS 0.3.31.188.0 (SkylakeX kernels), with one and with two OpenBLAS
threads alike.  LAPACK bits depend on the BLAS build and on the kernels it
picks for the CPU, so on any other build the test skips.  The falsify
digest hashes each stored matrix in the per-entry decimal form that
certificates once used (``as_decimal``).  It was taken again when the
falsify report began to name its certificate files instead of carrying a
copy of each; the files kept their bytes.
"""

import ctypes
import glob
import hashlib
import json
import os

import numpy as np
import pytest

from decimal_form import as_decimal
from normetry import cli

PINNED_BUILD = ("2.4.6", "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY "
                "SkylakeX MAX_THREADS=64")
VERIFY_DIGEST = "6ae797263d2f81767c4a71e2e9c9fcf4036b2f702244e92754cb53d6ffb446f7"
FALSIFY_DIGEST = "56bc0977993aa0a1ad7c1ab262d03fc571721d219f928ae34a8821dec05eae59"
# the digest FALSIFY_DIGEST had while the report carried a copy of each file
INLINE_DIGEST = "c1021586eeff100507d91cf794c8bcd1a0e12fc041d7892db24fcefa31072ba0"
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


def decimal_file_bytes(path) -> bytes:
    """A certificate file's bytes as the decimal form wrote them: one line
    of JSON with sorted keys."""
    return (json.dumps(as_decimal(json.loads(path.read_text())), sort_keys=True)
            + "\n").encode()


FALSIFY_ARGV = ["falsify", "--check", "thm2.4", "--mutate", "drop-expansive",
                "--seed", "5", "--trials", "50", "--dims", SMALL_DIMS]


def test_falsify_report_and_certificates_keep_their_bytes(tmp_path):
    out, certs = tmp_path / "report.json", tmp_path / "certs"
    code = cli.main(FALSIFY_ARGV + ["--out", str(out), "--cert-dir", str(certs)])
    assert code == cli.EXIT_OK
    report = json.loads(out.read_text())
    report["header"].pop("timestamp")
    report["campaign"].pop("wall_time")
    files = sorted(certs.iterdir(), key=lambda p: int(p.stem.rsplit("-", 1)[1]))
    assert len(files) == 50
    assert [row["certificate"] for row in report["campaign"]["violations"]] == [
        p.name for p in files]
    assert digest(report, *(decimal_file_bytes(p) for p in files)) == FALSIFY_DIGEST


def test_a_falsify_report_without_certificate_files_keeps_its_bytes(tmp_path):
    """Without --cert-dir the report carries each certificate whole: it
    has the bytes of the report that, before reports named their files,
    carried a copy of each, and the digest that pinned it and its files."""
    out = tmp_path / "report.json"
    assert cli.main(FALSIFY_ARGV + ["--out", str(out)]) == cli.EXIT_OK
    report = json.loads(out.read_text())
    report["header"].pop("timestamp")
    report["campaign"].pop("wall_time")
    certs = [as_decimal(cert) for cert in report["campaign"]["violations"]]
    assert len(certs) == 50
    blobs = ((json.dumps(cert, sort_keys=True) + "\n").encode() for cert in certs)
    assert digest(report, *blobs) == INLINE_DIGEST
