"""An independent matrix reference: orders, inverses and powers of ``Mat4``
matrices from repeated products alone, and the q^2 matrices w(a, b) of W.

``szq`` takes orders and inverses on the ranks of its stabilizer chain and
keeps matrices at the boundary; these walks take them from matrix products,
so the tests can hold the chain against them.  Only the tests import this
module.
"""

from __future__ import annotations

from szq.field import Field, FieldElement
from szq.group import make_w
from szq.mat4 import Mat4


def order_and_inverse(x: Mat4, limit: int = 256) -> tuple[int, Mat4]:
    """(k, x^(k-1)) for the least k >= 1 with x^k the identity: one walk of
    products x, x^2, ..., whose last power before the identity is x's
    inverse.  AssertionError past ``limit`` powers."""
    one = Mat4.identity(x.field)
    k, last, p = 1, one, x  # p = x^k, last = x^(k - 1)
    while p != one:
        assert k < limit, f"no identity among the first {limit} powers"
        k, last, p = k + 1, p, p * x
    return k, last


def power(x: Mat4, i: int) -> Mat4:
    """x^i for i >= 0, by i products."""
    p = Mat4.identity(x.field)
    for _ in range(i):
        p = p * x
    return p


def elements(field: Field) -> list[FieldElement]:
    """Every element of the field, in bit order."""
    return [field.element(bits) for bits in range(field.q)]


def w_elements(field: Field) -> list[Mat4]:
    """All q^2 matrices w(a, b), in (a, b) bit order."""
    els = elements(field)
    return [make_w(a, b) for a in els for b in els]
