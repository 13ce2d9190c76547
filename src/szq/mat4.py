"""4x4 matrices over a binary field: the boundary type of group elements.

A matrix is built, multiplied, compared and hashed, and nothing more: orders,
inverses and subgroups are taken on the ranks of ``oracle.StabilizerChain``.

Entries are stored row-major as a flat tuple of 16 raw bit-polynomials, which
makes matrices hashable and comparison cheap; wrapped ``FieldElement`` views
are produced on demand.  That tuple is also the key under which the oracle's
closure tables store an element: a table keeps the tuples alone, and
``Mat4._make(field, entries)`` puts a matrix back around one without copying
it.  A matrix is immutable in its public face only: ``entries`` and
``field`` are read-only properties over private slots, which every
constructor fills with plain attribute stores, so a new matrix costs three
slot stores and no guard.  The product is unrolled inside ``__mul__`` and
reads straight from the field's multiplication table when one exists,
because closure enumeration and order censuses push millions of products
through it.  Entries are ints (never ``bool``) or field elements; anything
else is a ``TypeError``.

A right factor y that many products share, such as a generator of a closure,
can carry its own kernel: ``y._as_right_factor()`` is a copy of y whose
``_right`` slot holds x -> x * y compiled once from y's entries
(``_right_kernel``).  Its terms are only those where y has a nonzero entry,
an entry 1 costs no lookup, and any other reads one table row bound once, so
a sparse or 0/1 factor costs a fraction of the 64 lookups of the generic
product.  ``__mul__`` runs the right operand's kernel when it has one and
the generic product otherwise; every other matrix, and every matrix over a
field too large for a table (q > 512), carries none.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Iterable, Sequence

from .field import Field, FieldElement, FieldMismatchError, _require_int


def _right_kernel(y: Sequence[int],
                  mul: list[list[int]]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The product x -> x * y for this one y, unrolled and compiled once.

    Entry (i, j) of x * y is the XOR over k of x_ik y_kj.  A term with
    y_kj = 0 is dropped, one with y_kj = 1 is x_ik itself, and any other
    reads x_ik from the bound table row ``mul[y_kj]``.  The source names
    only positions and row numbers, never an entry, so no value of y
    reaches ``exec``.
    """
    rows: dict[int, int] = {}  # an entry of y past 1 -> its row's number
    sums = []
    for i in (0, 4, 8, 12):
        for j in range(4):
            terms = []
            for k in range(4):
                v = y[4 * k + j]
                if v == 1:
                    terms.append(f"x{i + k}")
                elif v:
                    terms.append(f"r{rows.setdefault(v, len(rows))}[x{i + k}]")
            sums.append(" ^ ".join(terms) or "0")
    names = ", ".join(f"r{n}" for n in range(len(rows)))
    src = (f"def bind({names}):\n"
           f"    def kernel(x):\n"
           f"        {', '.join(f'x{n}' for n in range(16))} = x\n"
           f"        return ({', '.join(sums)})\n"
           f"    return kernel\n")
    namespace: dict = {}
    exec(src, namespace)
    return namespace["bind"](*(mul[v] for v in rows))


def _mul_fn_kernel(x: Sequence[int], y: Sequence[int], mul) -> tuple[int, ...]:
    # Fallback for fields too large for a full multiplication table.
    out = []
    for i in (0, 4, 8, 12):
        a0, a1, a2, a3 = x[i], x[i + 1], x[i + 2], x[i + 3]
        for j in range(4):
            out.append(mul(a0, y[j]) ^ mul(a1, y[4 + j]) ^ mul(a2, y[8 + j]) ^ mul(a3, y[12 + j]))
    return tuple(out)


class Mat4:
    """Immutable 4x4 matrix over a :class:`Field`."""

    __slots__ = ("_entries", "_field", "_right")

    # Read-only views of the private slots: rebinding either raises
    # AttributeError, and so does any new attribute, for want of a slot.
    entries = property(attrgetter("_entries"), doc="The 16 entries, row-major.")
    field = property(attrgetter("_field"), doc="The field of the entries.")

    def __init__(self, field: Field, entries: Iterable[int | FieldElement]) -> None:
        vals = []
        for e in entries:
            if isinstance(e, FieldElement):
                if e.field != field:
                    raise FieldMismatchError("entry from a different field")
                vals.append(e.bits)
            else:
                _require_int("entry", e)
                if not 0 <= e < field.q:
                    raise ValueError(f"entry 0x{e:x} out of range for GF(2^{field.degree})")
                vals.append(e)
        if len(vals) != 16:
            raise ValueError(f"need 16 entries, got {len(vals)}")
        self._entries, self._field, self._right = tuple(vals), field, None

    @classmethod
    def _make(cls, field: Field, entries: tuple[int, ...]) -> "Mat4":
        """A matrix on an entry tuple taken as it is: no copy, no range check."""
        m = _new(cls)
        m._entries, m._field, m._right = entries, field, None
        return m

    def _as_right_factor(self) -> "Mat4":
        """A copy of this matrix that carries its own product kernel, for a
        right factor that many products share: ``x * copy`` runs
        ``_right_kernel``.  Over a field with no multiplication table the
        copy carries none and products take the generic path."""
        m = Mat4._make(self._field, self._entries)
        mul = self._field._mul_table
        if mul is not None:
            m._right = _right_kernel(self._entries, mul)
        return m

    @classmethod
    def identity(cls, field: Field) -> "Mat4":
        return cls._make(field, (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1))

    @classmethod
    def diagonal(cls, field: Field, diag: Sequence[int | FieldElement]) -> "Mat4":
        if len(diag) != 4:
            raise ValueError("need 4 diagonal entries")
        e = [0] * 16
        for i, d in enumerate(diag):
            e[5 * i] = d.bits if isinstance(d, FieldElement) else d
        return cls(field, e)

    def __mul__(self, other: "Mat4") -> "Mat4":
        f = self._field
        if other._field is not f and other._field != f:
            raise FieldMismatchError("matrices over different fields")
        kernel = other._right
        if kernel is not None:
            entries = kernel(self._entries)
        elif (mul := f._mul_table) is None:
            entries = _mul_fn_kernel(self._entries, other._entries, f._mul)
        else:
            # Unrolled 4x4 product over the q x q multiplication table.
            x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15 = self._entries
            y0, y1, y2, y3, y4, y5, y6, y7, y8, y9, y10, y11, y12, y13, y14, y15 = other._entries
            r0, r1, r2, r3 = mul[x0], mul[x1], mul[x2], mul[x3]
            r4, r5, r6, r7 = mul[x4], mul[x5], mul[x6], mul[x7]
            r8, r9, r10, r11 = mul[x8], mul[x9], mul[x10], mul[x11]
            r12, r13, r14, r15 = mul[x12], mul[x13], mul[x14], mul[x15]
            entries = (
                r0[y0] ^ r1[y4] ^ r2[y8] ^ r3[y12],
                r0[y1] ^ r1[y5] ^ r2[y9] ^ r3[y13],
                r0[y2] ^ r1[y6] ^ r2[y10] ^ r3[y14],
                r0[y3] ^ r1[y7] ^ r2[y11] ^ r3[y15],
                r4[y0] ^ r5[y4] ^ r6[y8] ^ r7[y12],
                r4[y1] ^ r5[y5] ^ r6[y9] ^ r7[y13],
                r4[y2] ^ r5[y6] ^ r6[y10] ^ r7[y14],
                r4[y3] ^ r5[y7] ^ r6[y11] ^ r7[y15],
                r8[y0] ^ r9[y4] ^ r10[y8] ^ r11[y12],
                r8[y1] ^ r9[y5] ^ r10[y9] ^ r11[y13],
                r8[y2] ^ r9[y6] ^ r10[y10] ^ r11[y14],
                r8[y3] ^ r9[y7] ^ r10[y11] ^ r11[y15],
                r12[y0] ^ r13[y4] ^ r14[y8] ^ r15[y12],
                r12[y1] ^ r13[y5] ^ r14[y9] ^ r15[y13],
                r12[y2] ^ r13[y6] ^ r14[y10] ^ r15[y14],
                r12[y3] ^ r13[y7] ^ r14[y11] ^ r15[y15],
            )
        m = _new(Mat4)
        m._entries, m._field, m._right = entries, f, None
        return m

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mat4):
            return NotImplemented
        return self._entries == other._entries and self._field == other._field

    def __hash__(self) -> int:
        return hash(self._entries)

    def __reduce__(self) -> tuple:  # copies drop the kernel, a cache of the entries
        return Mat4._make, (self._field, self._entries)

    def __repr__(self) -> str:
        rows = [" ".join(f"{v:x}" for v in self._entries[4 * r:4 * r + 4]) for r in range(4)]
        return "Mat4[" + " | ".join(rows) + "]"


# Constructors skip ``__init__``'s checks: they fill the private slots of a
# bare instance with plain stores, and no other code writes them.
_new = object.__new__
