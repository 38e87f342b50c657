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
