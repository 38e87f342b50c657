import numpy as np

from normetry import serialize


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


def test_mat_to_json_matches_per_entry_floats():
    """``tolist`` gives the same Python floats as converting entry by entry,
    signed zeros and subnormals included."""
    tiny = np.nextafter(0.0, 1.0)
    m = signed_zeros()
    m[1, 0] = complex(tiny, -5e-324)
    d = serialize.mat_to_json(m)
    a = np.asarray(m, dtype=complex)
    for key, part in (("re", a.real), ("im", a.imag)):
        reference = [float(v) for v in part.ravel()]
        assert all(type(v) is float for v in d[key])
        assert [v.hex() for v in d[key]] == [v.hex() for v in reference]


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
