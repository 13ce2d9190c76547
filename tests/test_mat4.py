"""Matrix boundary type: construction, products, equality, and the kernel of a
right factor; orders and inverses from the matrix reference."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from szq.field import Field, FieldMismatchError
from szq.group import make_w
from szq.mat4 import Mat4, _mul_fn_kernel

from matrix_reference import elements, order_and_inverse, power, w_elements


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
    # The reference's inverse, the last power before the identity.
    ident = Mat4.identity(f8)
    assert order_and_inverse(ident) == (1, ident)
    for w in w_elements(f8):
        inverse = order_and_inverse(w)[1]
        assert w * inverse == inverse * w == ident
        assert order_and_inverse(inverse)[1] == w


def test_w_inverse_closed_form(f8):
    # w(a,b)^-1 = w(a, b + twist(a)*a), the last power before the identity
    for a in elements(f8):
        for b in elements(f8):
            w = make_w(a, b)
            assert order_and_inverse(w)[1] == make_w(a, b + a.twist() * a)


def test_singular_matrix_raises(f8):
    # No power of a singular matrix is the identity: the walk gives up.
    for singular in (Mat4(f8, (0,) * 16),
                     Mat4(f8, (1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1))):  # equal rows
        with pytest.raises(AssertionError, match="no identity"):
            order_and_inverse(singular)


def test_matrix_power(f8):
    w = make_w(f8.one, f8.zero)
    assert power(w, 0) == Mat4.identity(f8)
    assert power(w, 2) == w * w
    assert power(w, 4) == Mat4.identity(f8)
    assert power(w, 3) == order_and_inverse(w)[1]


# -- element order ----------------------------------------------------------

def test_order_of_identity(f8):
    assert order_and_inverse(Mat4.identity(f8), limit=1) == (1, Mat4.identity(f8))


def test_orders_within_w(f8):
    for a in elements(f8):
        for b in elements(f8):
            if not a and not b:
                continue
            want = 2 if not a else 4
            assert order_and_inverse(make_w(a, b))[0] == want


def test_order_bound_exhausted_raises(f8):
    w = make_w(f8.one, f8.zero)  # order 4
    assert order_and_inverse(w, limit=4)[0] == 4
    with pytest.raises(AssertionError, match="no identity among the first 3 powers"):
        order_and_inverse(w, limit=3)


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
    assert [one, one * one, Mat4(f8, one.entries)] == [one] * 3
    assert len({hash(m) for m in (one, one * one, Mat4(f8, one.entries))}) == 1
    assert w * one != one and w._as_right_factor() != one


def _twins(value):
    return copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))


def test_fields_matrices_and_chains_survive_copy_and_pickle(f8, sz8):
    # Copy and unpickle fill an element's slots directly; only assignment
    # through the public names is refused.
    w = make_w(f8.element(3), f8.element(5))
    for value in (f8.one, f8, w, w._as_right_factor()):
        for twin in _twins(value):
            assert twin == value and hash(twin) == hash(value)
    assert all(twin.field == f8 and twin.bits == 1 for twin in _twins(f8.one))
    for twin in _twins(sz8.table):
        assert twin.generator_ranks == sz8.table.generator_ranks
        assert twin.orders() == sz8.table.orders()
    with pytest.raises(AttributeError):
        f8.one.bits = 3


def test_entry_accessor(f8):
    # ``entries`` is row-major: entry (i, j) sits at 4 i + j.
    w = make_w(f8.element(0b011), f8.element(0b101))
    assert w.entries[4 * 1 + 0] == 0b011
    assert w.entries[4 * 2 + 0] == 0b101
    assert w.entries[0] == 1


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
    m = mw(f.one, f.zero)
    k, inverse = order_and_inverse(m)
    assert k == 4 and m * inverse == Mat4.identity(f)


def test_order_is_conjugation_invariant(sz8_matrices):
    f, keys = sz8_matrices.field, sorted(sz8_matrices.keys)
    rng = random.Random(1234)
    for _ in range(1000):
        x = Mat4(f, rng.choice(keys))
        g = Mat4(f, rng.choice(keys))
        conj = (g * x) * order_and_inverse(g)[1]
        assert order_and_inverse(conj)[0] == order_and_inverse(x)[0]


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
