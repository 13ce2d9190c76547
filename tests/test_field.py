"""Field arithmetic, exhaustively at GF(8) and GF(32), and by property on
random moduli of every odd degree from 3 to 21."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from szq.field import (
    Field,
    FieldMismatchError,
    _poly_gcd,
    _poly_mod,
    _poly_mul,
    _squarer,
    find_modulus,
    is_irreducible,
)
from szq.orderstats import factorize

from matrix_reference import elements


# -- independent oracles ----------------------------------------------------

def _trial_division_irreducible(poly: int) -> bool:
    """Irreducibility by dividing by every lower-degree polynomial."""
    d = poly.bit_length() - 1
    if d < 1:
        return False
    for cand in range(2, 1 << (d // 2 + 1)):
        if cand.bit_length() - 1 < 1:
            continue
        if _poly_mod(poly, cand) == 0:
            return False
    return True


def _bit_serial_rabin(poly: int) -> bool:
    """Rabin's test with schoolbook squarings, each reduced one bit at a
    time, and every x^(2^k) squared up afresh: the reference the folding
    squarer is compared with."""
    d = poly.bit_length() - 1
    if d < 1:
        return False
    if d == 1:
        return True
    if poly & 1 == 0:
        return False

    def frobenius(k: int) -> int:
        h = 0b10
        for _ in range(k):
            h = _poly_mod(_poly_mul(h, h), poly)
        return h

    return frobenius(d) == 0b10 and all(
        _poly_gcd(frobenius(d // p) ^ 0b10, poly) == 1 for p in factorize(d))


def _schoolbook_mul(a: int, b: int, modulus: int, degree: int) -> int:
    """Reference field multiply: shift-and-xor with reduction."""
    r = 0
    top = 1 << degree
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        if a & top:
            a ^= modulus
        b >>= 1
    return r


@pytest.fixture(scope="module")
def f8():
    return Field(1)


@pytest.fixture(scope="module")
def f32():
    return Field(2)


# -- addition ---------------------------------------------------------------

def test_add_identity_and_self_cancellation(f8):
    x = f8.element(0b010)
    assert f8.zero + x == x
    assert x + x == f8.zero
    assert f8.element(0b011) + f8.element(0b101) == f8.element(0b110)


def test_add_rejects_other_field(f8, f32):
    with pytest.raises(FieldMismatchError):
        f8.one + f32.one


def test_add_rejects_same_degree_other_modulus():
    a = Field(2, modulus=0b100101)
    b = Field(2, modulus=0b101001)
    with pytest.raises(FieldMismatchError):
        a.one + b.one


# -- multiplication ---------------------------------------------------------

def test_mul_identity(f8):
    for a in elements(f8):
        assert a * f8.one == a


def test_mul_known_values(f8):
    x = f8.element(0b010)
    assert x * x == f8.element(0b100)
    # (x^2+x)^2 = x^4 + x^2 = x under x^3 + x + 1
    y = f8.element(0b110)
    assert y * y == f8.element(0b010)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_mul_matches_schoolbook_everywhere(m):
    f = Field(m)
    for a in range(f.q):
        for b in range(f.q):
            want = _schoolbook_mul(a, b, f.modulus, f.degree)
            assert f._mul(a, b) == want


def test_mul_commutes_and_distributes_gf8(f8):
    els = elements(f8)
    for a in els:
        for b in els:
            assert a * b == b * a
    for a in els:
        for b in els:
            for c in els:
                assert a * (b + c) == a * b + a * c


def test_mul_rejects_other_field(f8, f32):
    with pytest.raises(FieldMismatchError):
        f8.one * f32.one


# -- inversion and powers ---------------------------------------------------

def test_inv_known_values(f8):
    assert f8.one.inv() == f8.one
    assert f8.element(0b010).inv() == f8.element(0b101)


@pytest.mark.parametrize("m", [1, 2])
def test_inv_exhaustive(m):
    f = Field(m)
    for a in elements(f):
        if not a:
            continue
        assert a * a.inv() == f.one
        assert a.inv().inv() == a
        assert a.inv() == a ** (f.q - 2)


def test_inv_of_zero_raises(f8):
    with pytest.raises(ZeroDivisionError):
        f8.zero.inv()


def test_pow_basics(f8):
    assert f8.zero ** 0 == f8.one
    assert f8.element(0b010) ** 7 == f8.one
    a = f8.element(0b110)
    assert a ** -1 == a.inv()


@pytest.mark.parametrize("m", [1, 2])
def test_pow_lagrange(m):
    f = Field(m)
    for a in elements(f):
        if a:
            assert a ** (f.q - 1) == f.one
        assert a ** f.q == a  # Frobenius fixed point of the full field


# -- twist ------------------------------------------------------------------

def test_twist_fixes_prime_field(f8):
    assert f8.zero.twist() == f8.zero
    assert f8.one.twist() == f8.one


def test_twist_known_value(f8):
    # x -> x^4 = x^2 + x under x^3 + x + 1
    assert f8.element(0b010).twist() == f8.element(0b110)


@pytest.mark.parametrize("m", [1, 2])
def test_twist_squares_to_frobenius(m):
    f = Field(m)
    for a in elements(f):
        assert a.twist().twist() == a * a
        # repeated-squaring oracle
        want = a
        for _ in range(m + 1):
            want = want * want
        assert a.twist() == want


def test_twist_is_additive_and_multiplicative(f8):
    for a in elements(f8):
        for b in elements(f8):
            assert (a + b).twist() == a.twist() + b.twist()
            assert (a * b).twist() == a.twist() * b.twist()


# -- modulus discovery ------------------------------------------------------

def test_find_modulus_known_polynomials():
    assert find_modulus(1) == 0b1011       # x^3 + x + 1
    assert find_modulus(2) == 0b100101     # x^5 + x^2 + 1
    assert find_modulus(3) == 0b10000011   # x^7 + x + 1


def test_find_modulus_searches_each_m_once(monkeypatch):
    # A field built without a modulus asks for it again; the search, with
    # its irreducibility tests, runs once per m.  An m of another type is
    # not answered from an int's entry: 2.0 fails as it would uncached.
    import szq.field

    assert find_modulus(2) == 0b100101
    monkeypatch.setattr(szq.field, "is_irreducible",
                        lambda poly: pytest.fail("a modulus search ran again"))
    assert Field(2).modulus == find_modulus(2) == 0b100101
    with pytest.raises(TypeError):
        find_modulus(2.0)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_find_modulus_is_smallest_irreducible(m):
    mod = find_modulus(m)
    d = 2 * m + 1
    assert mod.bit_length() - 1 == d
    assert _trial_division_irreducible(mod)
    for smaller in range(1 << d, mod):
        assert not _trial_division_irreducible(smaller)


@pytest.mark.parametrize("d", range(1, 13))
def test_is_irreducible_matches_trial_division(d):
    # Even degrees too: d = 12 has two prime divisors, so two gcd checks.
    for poly in range(1 << d, 1 << (d + 1)):
        assert is_irreducible(poly) == _trial_division_irreducible(poly)


def test_is_irreducible_matches_the_bit_serial_rabin_test():
    rng = random.Random(23)
    for _ in range(300):
        d = rng.randrange(2, 201)
        poly = rng.getrandbits(d) | (1 << d) | 1
        assert is_irreducible(poly) == _bit_serial_rabin(poly), hex(poly)
    # Irreducible ones of each degree class, where every check must pass.
    for m in range(1, 9):
        assert _bit_serial_rabin(find_modulus(m))


def test_squaring_matches_the_schoolbook_product():
    rng = random.Random(5)
    for d in [1, 2, 3, 7, 8, 9, 15, 16, 17, 64, 255, 256, 257, 300]:
        mod = rng.getrandbits(d) | (1 << d)
        square = _squarer(mod)
        for h in [0, 1, (1 << d) - 1] + [rng.getrandbits(d) for _ in range(20)]:
            assert square(h) == _poly_mod(_poly_mul(h, h), mod)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_modulus_root_structure(m):
    mod = find_modulus(m)
    d = 2 * m + 1
    square, frobenius = _squarer(mod), [0b10]  # x^(2^e) for e = 0, 1, ..., d
    for _ in range(d):
        frobenius.append(square(frobenius[-1]))
    # divides x^(2^d) + x: the Frobenius power collapses to x mod the modulus
    assert frobenius[d] == 0b10
    # no common root with x^(2^e) + x for proper divisors e of d
    for e in range(1, d):
        if d % e == 0:
            assert _poly_gcd(frobenius[e] ^ 0b10, mod) == 1


def test_field_rejects_bad_moduli():
    with pytest.raises(ValueError):
        Field(1, modulus=0b1111)    # (x+1)(x^2+x+1)
    with pytest.raises(ValueError):
        Field(2, modulus=0b1011)    # degree 3, not 5
    with pytest.raises(ValueError):
        Field(0)


@pytest.mark.parametrize("args", [
    (True,), (False,), (1.0,), ("1",), (None,),
    (1, 11.0), (1, True), (1, "0xb"),
], ids=["m=True", "m=False", "m=1.0", "m='1'", "m=None",
        "modulus=11.0", "modulus=True", "modulus='0xb'"])
def test_field_refuses_a_non_int_argument(args):
    # Refused by type before any arithmetic: a bool is not coerced to 0 or 1,
    # and a float or a string fails with this message, not inside << or
    # bit_length.
    with pytest.raises(TypeError, match="must be an int"):
        Field(*args)


def test_primitive_element_is_smallest_generator(f8, f32):
    for f in (f8, f32):
        g = f.primitive_element()
        seen = {g ** k for k in range(f.q - 1)}
        assert len(seen) == f.q - 1
        # nothing below g generates
        for bits in range(2, g.bits):
            o = 1
            cur = f.element(bits)
            acc = cur
            while acc != f.one:
                acc = acc * cur
                o += 1
            assert o < f.q - 1


def test_a_negative_modulus_is_refused_without_hanging():
    # In a child process with a timeout: a sign-blind degree check once let
    # both calls loop forever reducing a negative bit-polynomial.
    code = ("from szq.field import Field, is_irreducible\n"
            "assert is_irreducible(-11) is False\n"
            "try:\n"
            "    Field(1, modulus=-11)\n"
            "except ValueError:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('negative modulus accepted')\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=10,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_element_range_validation(f8):
    with pytest.raises(ValueError):
        f8.element(8)
    with pytest.raises(ValueError):
        f8.element(-1)


# -- properties on random moduli ----------------------------------------------

@st.composite
def _fields(draw):
    """A field of odd degree 3..21 (both sides of the 512-element table
    limit) under the first irreducible modulus at or after a random one."""
    m = draw(st.integers(1, 10))
    d = 2 * m + 1
    cand = (1 << d) | (draw(st.integers(0, (1 << (d - 1)) - 1)) << 1) | 1
    while not is_irreducible(cand):
        cand = cand + 2 if cand + 2 < 1 << (d + 1) else (1 << d) | 1
    return Field(m, modulus=cand)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_field_axioms_on_a_random_modulus(data):
    f = data.draw(_fields())
    a, b, c = (f.element(data.draw(st.integers(0, f.q - 1))) for _ in range(3))
    k = data.draw(st.integers(1, 3 * f.q))
    assert (a * b).bits == _schoolbook_mul(a.bits, b.bits, f.modulus, f.degree)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a.twist().twist() == a * a
    assert (a * b).twist() == a.twist() * b.twist()
    if a:
        assert a * a.inv() == f.one
        assert a ** (f.q - 1) == f.one
        assert a ** -1 == a.inv()
        assert a ** k * a ** -k == f.one
