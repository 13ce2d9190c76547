"""Matrix carrier: products, inverses, canonical encoding, element orders."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from szq.field import Field, FieldMismatchError
from szq.group import make_w
from szq.mat4 import (
    Mat4,
    OrderNotFoundError,
    SingularMatrixError,
    _mul_fn_kernel,
    element_order,
)


@pytest.fixture(scope="module")
def f8():
    return Field(1)


def _random_mat(field, rng):
    return Mat4(field, tuple(rng.randrange(field.q) for _ in range(16)))


def test_identity_is_neutral(f8):
    ident = Mat4.identity(f8)
    rng = random.Random(7)
    for _ in range(20):
        a = _random_mat(f8, rng)
        assert ident * a == a
        assert a * ident == a


def test_associativity_spot_check(f8):
    rng = random.Random(20260808)
    for _ in range(1000):
        a, b, c = (_random_mat(f8, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_mul_rejects_other_field(f8):
    f32 = Field(2)
    with pytest.raises(FieldMismatchError):
        Mat4.identity(f8) * Mat4.identity(f32)


def test_constructor_validates_entries(f8):
    with pytest.raises(ValueError):
        Mat4(f8, (1, 0, 0))  # wrong count
    with pytest.raises(ValueError):
        Mat4(f8, (8,) + (0,) * 15)  # entry outside the field
    with pytest.raises(FieldMismatchError):
        Mat4(f8, (Field(2).one,) + (0,) * 15)


@pytest.mark.parametrize("bad", [1.0, True, False, "1", None, 1j])
def test_constructor_refuses_non_int_entries(f8, bad):
    # A float passed the range check, then broke repr and products; a bool
    # was stored as it came.
    with pytest.raises(TypeError):
        Mat4(f8, [bad] + [0] * 15)
    with pytest.raises(TypeError):
        Mat4.diagonal(f8, [bad, 1, 1, 1])
    assert Mat4.diagonal(f8, [f8.one, 1, 1, 1]) == Mat4.identity(f8)


def test_inverse_roundtrip(f8):
    ident = Mat4.identity(f8)
    assert ident.inv() == ident
    for a_bits in range(f8.q):
        for b_bits in range(f8.q):
            w = make_w(f8.element(a_bits), f8.element(b_bits))
            assert w * w.inv() == ident
            assert w.inv() * w == ident
            assert w.inv().inv() == w


def test_w_inverse_closed_form(f8):
    # w(a,b)^-1 = w(a, b + twist(a)*a), checked through the product
    for a in f8:
        for b in f8:
            w = make_w(a, b)
            assert w.inv() == make_w(a, b + a.twist() * a)


def test_singular_matrix_raises(f8):
    with pytest.raises(SingularMatrixError):
        Mat4(f8, (0,) * 16).inv()
    with pytest.raises(SingularMatrixError):
        # two equal rows
        Mat4(f8, (1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1)).inv()


def test_matrix_power(f8):
    w = make_w(f8.one, f8.zero)
    assert w ** 0 == Mat4.identity(f8)
    assert w ** 2 == w * w
    assert w ** 4 == Mat4.identity(f8)
    assert w ** -1 == w.inv()


# -- encoding ---------------------------------------------------------------

def test_encode_identity_snapshot(f8):
    assert Mat4.identity(f8).encode() == bytes(
        [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1])


def test_encode_roundtrip_and_injectivity(f8):
    seen = set()
    for a in f8:
        for b in f8:
            w = make_w(a, b)
            data = w.encode()
            assert Mat4.decode(f8, data) == w
            seen.add(data)
    assert len(seen) == f8.q * f8.q


def test_encode_width_scales_with_degree():
    f = Field(4)  # degree 9 -> 2 bytes per entry
    assert len(Mat4.identity(f).encode()) == 32


def test_decode_validates(f8):
    with pytest.raises(ValueError):
        Mat4.decode(f8, b"\x01" * 15)
    with pytest.raises(ValueError):
        Mat4.decode(f8, b"\x09" + b"\x00" * 15)  # 9 >= q


def test_encode_injective_on_full_group(sz8_matrices):
    f = sz8_matrices.field
    assert len({Mat4(f, k).encode() for k in sz8_matrices.keys}) == 29120


# -- element order ----------------------------------------------------------

def test_order_of_identity(f8):
    assert element_order(Mat4.identity(f8), (4, 7)) == 1
    assert element_order(Mat4.identity(f8), bound=5) == 1


def test_orders_within_w(f8):
    for a in f8:
        for b in f8:
            if not a and not b:
                continue
            w = make_w(a, b)
            want = 2 if not a else 4
            assert element_order(w, (4,)) == want
            assert element_order(w, bound=4) == want


def test_order_bound_exhausted_raises(f8):
    w = make_w(f8.one, f8.zero)  # order 4
    with pytest.raises(OrderNotFoundError):
        element_order(w, bound=3)
    with pytest.raises(OrderNotFoundError):
        element_order(w, (3,))  # hints that miss the true order


def test_order_dividing_no_hint_raises(f8):
    w = make_w(f8.one, f8.zero)  # order 4, reached before the largest hint
    with pytest.raises(OrderNotFoundError):
        element_order(w, (5, 6))


def test_order_requires_hints_or_bound(f8):
    with pytest.raises(ValueError):
        element_order(Mat4.identity(f8))


def test_values_are_immutable(f8):
    w = make_w(f8.one, f8.zero)
    with pytest.raises(AttributeError):
        w.entries = (0,) * 16
    with pytest.raises(AttributeError):
        f8.one.bits = 3
    # Every construction path gives a matrix equally read-only, and equal
    # matrices from different paths agree in == and hash.
    one = Mat4.identity(f8)
    built = {
        "Mat4(...)": Mat4(f8, w.entries),
        "product": w * one,
        "_as_right_factor": w._as_right_factor(),
        "identity": one,
        "inv": w.inv().inv(),
        "decode": Mat4.decode(f8, w.encode()),
    }
    for path, m in built.items():
        before = (m.entries, m.field)
        for name, value in (("entries", (0,) * 16), ("field", Field(2)), ("extra", 1)):
            with pytest.raises(AttributeError):
                setattr(m, name, value)
        with pytest.raises(AttributeError):
            del m.entries
        assert (m.entries, m.field) == before, path
        assert not hasattr(m, "extra"), path
    same = [m for path, m in built.items() if path != "identity"]
    assert all(m == w and hash(m) == hash(w) for m in same)
    assert [one, one * one, one.inv(), Mat4(f8, one.entries)] == [one] * 4
    assert len({hash(m) for m in (one, one * one, one.inv(), Mat4.decode(f8, one.encode()))}) == 1
    assert w * one != one and w._as_right_factor() != one


def test_entry_accessor(f8):
    w = make_w(f8.element(0b011), f8.element(0b101))
    assert w.entry(1, 0) == f8.element(0b011)
    assert w.entry(2, 0) == f8.element(0b101)
    assert w.entry(0, 0) == f8.one


def test_fallback_kernel_without_tables():
    # degree 21 is above the table threshold, so products route through the
    # functional kernel backed by the schoolbook multiply
    f = Field(10)
    assert f._mul_table is None
    from szq.group import make_w as mw

    rng = random.Random(99)
    for _ in range(5):
        a, b, c, d = (f.element(rng.randrange(f.q)) for _ in range(4))
        assert mw(a, b) * mw(c, d) == mw(a + c, b + d + a.twist() * c)
    ident = Mat4.identity(f)
    m = mw(f.one, f.zero)
    assert m * m.inv() == ident


def test_order_is_conjugation_invariant(sz8_matrices):
    f, keys = sz8_matrices.field, sorted(sz8_matrices.keys)
    rng = random.Random(1234)
    hints = (4, 7, 5, 13)
    for _ in range(1000):
        x = Mat4(f, rng.choice(keys))
        g = Mat4(f, rng.choice(keys))
        conj = (g * x) * g.inv()
        assert element_order(conj, hints) == element_order(x, hints)


# -- the kernel of a fixed right factor --------------------------------------

# GF(8), GF(32) and GF(128), each under two irreducible moduli.
KERNEL_FIELDS = [Field(m, modulus=mod) for m, mods in ((1, (0xB, 0xD)), (2, (0x25, 0x3D)),
                                                       (3, (0x83, 0x89))) for mod in mods]
SHAPES = {
    "dense": lambda e: e,
    "lower-triangular": lambda e: [v if i // 4 >= i % 4 else 0 for i, v in enumerate(e)],
    "diagonal": lambda e: [v if i % 5 == 0 else 0 for i, v in enumerate(e)],
    "0/1 only": lambda e: [v & 1 for v in e],
    "identity": lambda e: [int(i % 5 == 0) for i in range(16)],
    "zero": lambda e: [0] * 16,
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.sampled_from(sorted(SHAPES)),
       st.lists(st.integers(0, 127), min_size=16, max_size=16),
       st.lists(st.integers(0, 127), min_size=16, max_size=16))
def test_the_right_factor_kernel_is_the_product(field, shape, x_bits, y_bits):
    x = Mat4(field, [v % field.q for v in x_bits])
    y = Mat4(field, SHAPES[shape]([v % field.q for v in y_bits]))
    right = y._as_right_factor()
    assert right == y and hash(right) == hash(y) and right is not y
    assert right._right is not None and y._right is None
    product = (x * right).entries
    assert product == (x * y).entries == _mul_fn_kernel(x.entries, y.entries, field._mul)
    assert (x * right)._right is None


def test_a_field_past_the_table_limit_takes_the_generic_path():
    f = Field(5)  # q = 2048 > 512: no multiplication table
    rng = random.Random(5)
    x, y = (_random_mat(f, rng) for _ in range(2))
    right = y._as_right_factor()
    assert f._mul_table is None and right._right is None
    assert (x * right).entries == (x * y).entries == _mul_fn_kernel(x.entries, y.entries,
                                                                    f._mul)
