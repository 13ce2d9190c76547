"""Arithmetic in the binary fields GF(2^(2m+1)) with the Suzuki twist.

Field elements are bit-polynomials packed into Python ints: bit i holds the
coefficient of x^i.  A :class:`Field` fixes the degree d = 2m+1 (always odd,
at least 3) and an irreducible reduction modulus, and hands out thin
:class:`FieldElement` wrappers that support ``+``, ``*``, ``**``, ``.inv()``
and ``.twist()``.

Because the degree is odd, the map x -> x**(2**(m+1)) is a field automorphism
whose square is the ordinary squaring map; it is the "twist" the whole 4x4
matrix construction hinges on.

Fields of order q <= 512 (the ones whose elements the matrix kernels and
the oracle actually walk) build one q*q multiplication table, row by row
by doubling; larger fields multiply with the schoolbook shift-and-xor
routine, which stays the reference the tests check the table against.
Powers, inverses (a**(q-2)) and the twist all go through one
square-and-multiply routine over that multiply.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter
from typing import Callable

from .orderstats import factorize

# The q*q multiplication table (the matrix kernels' fast path) is built only
# for small fields; larger ones multiply with the schoolbook routine.
_MUL_TABLE_ORDER_LIMIT = 512


class FieldMismatchError(ValueError):
    """Raised when an operation mixes elements of different fields."""


# ---------------------------------------------------------------------------
# GF(2)[x] helpers on raw bit-polynomials
# ---------------------------------------------------------------------------

def _poly_mul(a: int, b: int) -> int:
    """Carry-less product of two bit-polynomials."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _poly_mod(a: int, mod: int) -> int:
    """Remainder of a bit-polynomial modulo another."""
    dm = mod.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= mod << (a.bit_length() - 1 - dm)
    return a


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def _squarer(mod: int) -> Callable[[int], int]:
    """h -> h^2 modulo ``mod`` (degree d >= 1) for h of degree below d.

    Squaring over GF(2) spreads the bits apart (bit i to bit 2i), which
    reading h's binary digits in base 4 does in linear time.  The square's
    top bits are then folded back k at a time, from the table ``fold[v] =
    v x^d + (v x^d mod mod)``, a multiple of ``mod`` whose top chunk is v:
    each step clears k bits, where a bit-serial reduction clears one.  k is
    the bit length of d, at most 8, so the table has 4 entries at degree 3,
    8 at degree 7 and 256 from degree 128 on."""
    d = mod.bit_length() - 1
    k = min(8, d.bit_length())
    fold, t = [0], mod ^ (1 << d)  # t = x^(d+i) mod mod
    for i in range(k):  # by doubling: bit i of v adds x^(d+i) + t
        row = (1 << (d + i)) ^ t
        fold += [r ^ row for r in fold]
        t <<= 1
        if t >> d:
            t ^= mod
    shifts = [(s, s - d) for s in range(2 * d - 1 - k, d, -k)] + [(d, 0)]

    def square(h: int) -> int:
        h = int(format(h, "b"), 4)
        for s, lift in shifts:
            h ^= fold[h >> s] << lift
        return h

    return square


def is_irreducible(poly: int) -> bool:
    """Rabin's test over GF(2): x^(2^d) == x mod poly, plus the gcd
    condition gcd(x^(2^(d/p)) - x, poly) == 1 for every prime p dividing d.
    One chain of d squarings yields x^(2^d) and every x^(2^(d/p))."""
    d = poly.bit_length() - 1
    if poly < 0 or d < 1:
        return False
    if d == 1:
        return True
    if poly & 1 == 0:  # divisible by x
        return False
    square, steps = _squarer(poly), {d // p for p in factorize(d)}
    h, powers = 0b10, []
    for i in range(1, d + 1):
        h = square(h)
        if i in steps:
            powers.append(h)
    return h == 0b10 and all(_poly_gcd(g ^ 0b10, poly) == 1 for g in powers)


def check_modulus(degree: int, modulus: int) -> None:
    """ValueError unless ``modulus`` is an irreducible bit-polynomial of this
    degree; the degree is checked first, so a wrong one costs no
    irreducibility test."""
    if modulus < 0:
        raise ValueError(f"modulus {modulus} is negative")
    if modulus.bit_length() - 1 != degree:
        raise ValueError(f"modulus degree {modulus.bit_length() - 1} != {degree}")
    if not is_irreducible(modulus):
        raise ValueError(f"modulus 0x{modulus:x} is reducible over GF(2)")


@lru_cache(maxsize=None, typed=True)
def find_modulus(m: int) -> int:
    """Smallest irreducible bit-polynomial of degree 2m+1 (bit i = coeff of x^i).

    A pure function of m, so each m is searched once per process: ``Field(m)``
    without a modulus asks again for every field it builds.  ``typed``, so
    that an m of another type (1.0, True) answers as it would uncached."""
    if m < 1:
        raise ValueError("m must be >= 1")
    d = 2 * m + 1
    for cand in range((1 << d) | 1, 1 << (d + 1), 2):
        if is_irreducible(cand):
            return cand
    raise AssertionError("unreachable: irreducible polynomials exist in every degree")


# ---------------------------------------------------------------------------
# Field and elements
# ---------------------------------------------------------------------------

def _require_int(name: str, value: object) -> None:
    # bool is an int subclass, but Field(True) is a typo, not GF(8).
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")


class Field:
    """GF(2^(2m+1)) under a fixed irreducible modulus.

    Attributes
    ----------
    m : twist parameter, q = 2^(2m+1)
    degree : 2m+1
    q : field order
    modulus : reduction polynomial, bit i = coefficient of x^i
    twist_exponent : 2^(m+1), the exponent of the twist automorphism
    """

    def __init__(self, m: int, modulus: int | None = None) -> None:
        _require_int("m", m)
        if modulus is not None:
            _require_int("modulus", modulus)
        if m < 1:
            raise ValueError("m must be >= 1 (field order 2^(2m+1) >= 8)")
        self.m = m
        self.degree = 2 * m + 1
        self.q = 1 << self.degree
        self.twist_exponent = 1 << (m + 1)
        if modulus is None:
            modulus = find_modulus(m)
        else:
            check_modulus(self.degree, modulus)
        self.modulus = modulus

        self._mul_table: list[list[int]] | None = None
        self._generator: int | None = None
        if self.q <= _MUL_TABLE_ORDER_LIMIT:
            self._mul_table = [self._mul_row(a) for a in range(self.q)]

        self.zero = FieldElement(0, self)
        self.one = FieldElement(1, self)

    # -- arithmetic on raw ints --

    def _raw_mul(self, a: int, b: int) -> int:
        """Schoolbook multiply: the reference, and the path above the table."""
        return _poly_mod(_poly_mul(a, b), self.modulus)

    def _mul_row(self, a: int) -> list[int]:
        """a*b for every b, by doubling: the products with b < 2^i, each
        XORed with a*x^i, are those with bit i of b set."""
        row, t = [0], a
        for _ in range(self.degree):
            row += [r ^ t for r in row]
            t = self._raw_mul(t, 0b10)
        return row

    def _mul(self, a: int, b: int) -> int:
        if self._mul_table is None:
            return self._raw_mul(a, b)
        return self._mul_table[a][b]

    def _pow(self, a: int, k: int) -> int:
        """Square-and-multiply; a negative exponent goes through the inverse."""
        if k < 0:
            a, k = self._inv(a), -k
        r = 1
        while k:
            if k & 1:
                r = self._mul(r, a)
            a = self._mul(a, a)
            k >>= 1
        return r

    def _inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._pow(a, self.q - 2)

    def _twist(self, a: int) -> int:
        return self._pow(a, self.twist_exponent)

    def _find_generator(self) -> int:
        """Smallest element (as a bit pattern) of multiplicative order q-1."""
        cofactors = [(self.q - 1) // p for p in factorize(self.q - 1)]
        for g in range(2, self.q):
            if all(self._pow(g, c) != 1 for c in cofactors):
                return g
        raise AssertionError("unreachable: the multiplicative group is cyclic")

    # -- public surface --

    def element(self, bits: int) -> "FieldElement":
        """Wrap a bit-polynomial; bits must lie below the field degree."""
        if not 0 <= bits < self.q:
            raise ValueError(f"element 0x{bits:x} out of range for GF(2^{self.degree})")
        return FieldElement(bits, self)

    def primitive_element(self) -> "FieldElement":
        """Smallest generator of the multiplicative group, in bit order."""
        if self._generator is None:
            self._generator = self._find_generator()
        return FieldElement(self._generator, self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Field):
            return NotImplemented
        return self.degree == other.degree and self.modulus == other.modulus

    def __hash__(self) -> int:
        return hash((self.degree, self.modulus))

    def __repr__(self) -> str:
        return f"Field(m={self.m}, modulus=0x{self.modulus:x})"


class FieldElement:
    """An element of a :class:`Field`, immutable and hashable."""

    __slots__ = ("_bits", "_field")

    # Read-only views of the private slots, as on ``Mat4``: rebinding either
    # raises AttributeError, while copy and pickle fill the slots themselves.
    bits = property(attrgetter("_bits"), doc="The bit-polynomial, bit i = coefficient of x^i.")
    field = property(attrgetter("_field"), doc="The field of the element.")

    def __init__(self, bits: int, field: Field) -> None:
        self._bits, self._field = bits, field

    def _check(self, other: "FieldElement") -> None:
        if self._field is not other._field and self._field != other._field:
            raise FieldMismatchError(
                f"elements of {self._field!r} and {other._field!r} do not mix")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.bits ^ other.bits, self.field)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field._mul(self.bits, other.bits), self.field)

    def __pow__(self, k: int) -> "FieldElement":
        return FieldElement(self.field._pow(self.bits, k), self.field)

    def inv(self) -> "FieldElement":
        return FieldElement(self.field._inv(self.bits), self.field)

    def twist(self) -> "FieldElement":
        """The automorphism x -> x**(2**(m+1)); twist(twist(x)) == x*x."""
        return FieldElement(self.field._twist(self.bits), self.field)

    def __bool__(self) -> bool:
        return self.bits != 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.bits == other.bits and self.field == other.field

    def __hash__(self) -> int:
        return hash((self.bits, self.field.modulus))

    def __repr__(self) -> str:
        return f"FieldElement(0b{self.bits:0{self.field.degree}b})"
