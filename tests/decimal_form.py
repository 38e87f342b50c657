"""The per-entry decimal form in which certificates stored their matrices
before they stored the fingerprinted bytes: ``{"n", "re", "im"}`` with
row-major lists of shortest-repr floats."""

from normetry import serialize


def as_decimal(cert: dict) -> dict:
    """``cert`` with each of its case's matrices in the decimal form."""
    cert["case"]["matrices"] = {
        name: {"n": d["n"], "re": m.real.ravel().tolist(), "im": m.imag.ravel().tolist()}
        for name, d in cert["case"]["matrices"].items()
        for m in [serialize.mat_from_json(d)]
    }
    return cert
