import base64
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normetry import serialize
from normetry.errors import BadSpec


def signed_zeros():
    m = np.empty((2, 2), dtype=complex)
    m.real = [[-0.0, 0.0], [-0.0, 1.5]]
    m.imag = [[0.0, -0.0], [-0.0, -2.0]]
    return m


def test_mat_roundtrip_keeps_signed_zeros():
    m = signed_zeros()
    back = serialize.mat_from_json(serialize.mat_to_json(m))
    assert back.tobytes() == m.tobytes()


def test_mat_roundtrip_bit_exact_on_random_entries():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    back = serialize.mat_from_json(serialize.mat_to_json(m))
    assert back.tobytes() == m.tobytes()


# signed zeros, the extreme subnormals, infinities, a quiet NaN and NaNs
# with payloads, as float64 bit patterns
SPECIAL_BITS = [0x0000000000000000, 0x8000000000000000, 0x0000000000000001,
                0x800FFFFFFFFFFFFF, 0x7FF0000000000000, 0xFFF0000000000000,
                0x7FF8000000000000, 0x7FF0000000000001, 0xFFFDEADBEEF00000]
float_bits = st.one_of(
    st.sampled_from(SPECIAL_BITS),
    st.integers(0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF),  # positive NaNs
    st.integers(0, 2**64 - 1),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4).flatmap(
    lambda n: st.lists(float_bits, min_size=2 * n * n, max_size=2 * n * n)))
def test_mat_roundtrip_through_json_text_keeps_every_bit_pattern(words):
    """Any complex128 entries survive standard JSON text bit for bit, and
    the stored bytes are the ones the fingerprint hashes."""
    n = math.isqrt(len(words) // 2)
    m = np.array(words, dtype="<u8").view("<c16").reshape(n, n)
    d = json.loads(json.dumps(serialize.mat_to_json(m), allow_nan=False))
    back = serialize.mat_from_json(d)
    assert back.shape == (n, n)
    assert back.tobytes() == m.tobytes()
    assert base64.b64decode(d["c16"]) == np.ascontiguousarray(m, dtype="<c16").tobytes()
    assert serialize.fingerprint({}, {"m": back}) == serialize.fingerprint({}, {"m": m})


@pytest.mark.parametrize("d, message", [
    ({"n": 2, "c16": base64.b64encode(bytes(48)).decode()}, "holds 48 bytes, an n=2"),
    ({"n": 1, "c16": "AAAA*AAAAAAAAAAAAAAAAAAA"}, "'c16' is not base64"),
    ({"n": 1, "c16": "é"}, "'c16' is not base64"),
    ({"n": 1, "c16": 5}, "bytes-like object or ASCII string"),
    ({"n": 1.0, "c16": base64.b64encode(bytes(16)).decode()}, "'n' must be an integer"),
    ({"n": True, "c16": base64.b64encode(bytes(16)).decode()}, "'n' must be an integer"),
    ({"n": -1, "c16": base64.b64encode(bytes(16)).decode()}, "'n' must be an integer"),
    ({"n": 1, "re": [0.0], "im": [0.0]}, "missing field 'c16'"),
    ({"c16": ""}, "missing field 'n'"),
    ([0.0], "malformed matrix object"),
    # refused by its byte count, before a 16 TB matrix is allocated
    ({"n": 10**6, "c16": base64.b64encode(bytes(16)).decode()}, "holds 16 bytes"),
])
def test_malformed_matrix_objects_are_bad_specs(d, message):
    with pytest.raises(BadSpec, match=re.escape(message)):
        serialize.mat_from_json(d)


def test_fingerprint_is_16_hex_and_ignores_matrix_order_and_dtype():
    a = np.arange(4.0).reshape(2, 2)
    b = np.eye(2)
    fp = serialize.fingerprint({"k": 1}, {"a": a, "b": b})
    assert len(fp) == 16 and int(fp, 16) >= 0
    assert serialize.fingerprint({"k": 1}, {"b": b, "a": a.astype(complex)}) == fp


def test_fingerprint_sees_every_part():
    a = signed_zeros()
    fp = serialize.fingerprint({"k": 1}, {"a": a})
    flipped = a.copy()
    flipped[0, 0] = 0.0  # -0.0 -> +0.0 changes only the sign bit
    one_ulp = a.copy()
    one_ulp[1, 1] = np.nextafter(1.5, 2.0) + a[1, 1].imag * 1j
    assert serialize.fingerprint({"k": 1}, {"a": flipped}) != fp
    assert serialize.fingerprint({"k": 1}, {"a": one_ulp}) != fp
    assert serialize.fingerprint({"k": 2}, {"a": a}) != fp
    assert serialize.fingerprint({"k": 1}, {"b": a}) != fp
    assert serialize.fingerprint({"k": 1}, {"a": a.reshape(1, 4)}) != fp


def reference_fingerprint(obj, matrices: dict) -> str:
    """The fingerprint with every header encoded by ``json.dumps``."""
    import hashlib
    import json

    def canonical(x):
        return json.dumps(x, sort_keys=True, separators=(",", ":"))

    h = hashlib.sha256(canonical(obj).encode())
    for name in sorted(matrices):
        m = np.ascontiguousarray(matrices[name], dtype="<c16")
        h.update(canonical([name, m.shape]).encode())
        h.update(m.tobytes())
    return h.hexdigest()[:16]


def test_fingerprint_equals_the_json_header_reference():
    rng = np.random.default_rng(8)
    obj = {"check_id": "thm1.1", "n": 3, "seed": 5, "kinds": {"a0": "psd"},
           "scalars": {"j": 1}, "fn": {"kind": "power", "s": 0.25}, "mutation": None}
    cases = [
        {},
        {"a0": signed_zeros()},
        {"z": rng.standard_normal((3, 3)), "a1": np.eye(3, dtype=complex)},
        {"é\"\\\n": np.ones((1, 1)), "b": rng.standard_normal((6, 6)).T},
        {"v": np.arange(4.0), "t": np.zeros((2, 2, 2))},
        {"big": rng.standard_normal((40, 40)) + 1j},
    ]
    for mats in cases:
        assert serialize.fingerprint(obj, mats) == reference_fingerprint(obj, mats)
