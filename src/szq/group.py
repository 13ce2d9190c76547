"""Suzuki group construction over GF(q), q = 2^(2m+1) >= 8.

Provides the parameter block (q, s = sqrt(2q), the four partition-class
orders, |Sz(q)|), the q^2-element 2-subgroup of lower unitriangular matrices
w(a, b), a candidate generating set for the whole group, and the closed-form
conjugate counts of the partition classes.

The generating set {w(1,0), w(0,1), d(lambda), tau} is a literature-informed
candidate, not an axiom: ``oracle.StabilizerChain(params, field)`` certifies
it by a stabilizer chain on the ovoid whose orbit lengths must multiply to
|Sz(q)| = q^2 (q^2 + 1)(q - 1), and fails loudly on any mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import Field, FieldElement, FieldMismatchError, _require_int
from .mat4 import Mat4


class CertificationError(RuntimeError):
    """A candidate generating set failed its size certification, or a table
    built from it is not the group its products generate."""


@dataclass(frozen=True)
class SuzukiParams:
    """Derived integer parameters of Sz(q), all exact."""

    m: int
    q: int
    s: int          # sqrt(2q) = 2^(m+1)
    u1: int         # q + s + 1
    u2: int         # q - s + 1
    v: int          # q - 1
    w_order: int    # q^2
    group_order: int  # q^2 (q^2 + 1) (q - 1)


def make_params(m: int) -> SuzukiParams:
    """Parameters for Sz(2^(2m+1)); m must be an int (no bool) >= 1."""
    _require_int("m", m)
    if m < 1:
        raise ValueError("m must be >= 1 (q = 2 gives no simple group)")
    q = 1 << (2 * m + 1)
    s = 1 << (m + 1)
    assert s * s == 2 * q
    u1, u2, v = q + s + 1, q - s + 1, q - 1
    assert u1 * u2 == q * q + 1
    return SuzukiParams(
        m=m, q=q, s=s, u1=u1, u2=u2, v=v,
        w_order=q * q, group_order=q * q * (q * q + 1) * (q - 1),
    )


def params_for_q(q: int) -> SuzukiParams:
    """Parameters for a field order q, an int of the form 2^(2m+1) >= 8."""
    _require_int("q", q)
    if q >= 8 and q & (q - 1) == 0:
        d = q.bit_length() - 1
        if d % 2 == 1:
            return make_params((d - 1) // 2)
    raise ValueError(f"q={q} is not of the form 2^(2m+1) with m >= 1")


# ---------------------------------------------------------------------------
# The 2-subgroup W and the generator candidates
# ---------------------------------------------------------------------------

def make_w(a: FieldElement, b: FieldElement) -> Mat4:
    """Lower unitriangular matrix w(a, b).

    Rows: (1,0,0,0), (a,1,0,0), (b, a^t, 1, 0) and
    (a^2 a^t + a b + b^t, a a^t + b, a, 1) where x^t is the twist of x.
    These multiply by w(a,b) w(c,d) = w(a+c, b+d+(a^t) c), so each one squares
    to w(0, a a^t) and has order dividing 4.
    """
    f = a.field
    if b.field != f:
        raise FieldMismatchError("a and b must come from the same field")
    at = a.twist()
    r41 = a * a * at + a * b + b.twist()
    r42 = a * at + b
    return Mat4(f, (
        1, 0, 0, 0,
        a.bits, 1, 0, 0,
        b.bits, at.bits, 1, 0,
        r41.bits, r42.bits, a.bits, 1,
    ))


def w_generators(field: Field) -> list[Mat4]:
    """A generating set for the full subgroup W = {w(a, b)}: w(x^i, 0) for
    the 2m + 1 basis elements x^i of GF(q) over GF(2), then w(0, 1), so
    2m + 2 matrices.

    By Burnside's basis theorem, elements of a 2-group generate it exactly
    when their images generate it modulo its Frattini subgroup.  Here
    Phi(W) = Z = {w(0, b)}: W/Z is elementary abelian, since w(a, b) -> a is
    a homomorphism onto (GF(q), +) with kernel Z, and the squares
    w(a, b)^2 = w(0, a^(2^(m+1) + 1)) fill Z, because 2^(m+1) + 1 is prime
    to q - 1 = 2^(2m+1) - 1 (a common factor would divide 2^(2m+2) - 1 too,
    and gcd(2^(2m+2) - 1, 2^(2m+1) - 1) = 2^gcd(2m+2, 2m+1) - 1 = 1).  So
    W/Phi(W) is (GF(q), +), the w(x^i, 0) map to a basis of it and generate
    W on their own; w(0, 1), the chain's second candidate generator, lies
    in Z."""
    zero = field.zero
    gens = [make_w(field.element(1 << i), zero) for i in range(field.degree)]
    gens.append(make_w(zero, field.one))
    return gens


def torus_element(field: Field, lam: FieldElement) -> Mat4:
    """diag(lam^(2^m + 1), lam^(2^m), lam^(-2^m), lam^(-2^m - 1)).

    Negative exponents are realized as powers of the inverse.  For lam a
    generator of the multiplicative group this normalizes {w(a, b)} and has
    order q - 1.
    """
    half = 1 << field.m
    lam_inv = lam.inv()
    return Mat4.diagonal(field, (lam ** (half + 1), lam ** half,
                                 lam_inv ** half, lam_inv ** (half + 1)))


def weyl_element(field: Field) -> Mat4:
    """The antidiagonal involution with four unit entries."""
    return Mat4(field, (
        0, 0, 0, 1,
        0, 0, 1, 0,
        0, 1, 0, 0,
        1, 0, 0, 0,
    ))


def candidate_generators(params: SuzukiParams, field: Field) -> list[Mat4]:
    """The uncertified generating-set candidate {w(1,0), w(0,1), d(lam), tau}."""
    if field.m != params.m:
        raise ValueError(f"field degree 2*{field.m}+1 does not match m={params.m}")
    zero, one = field.zero, field.one
    lam = field.primitive_element()
    return [
        make_w(one, zero),
        make_w(zero, one),
        torus_element(field, lam),
        weyl_element(field),
    ]


# ---------------------------------------------------------------------------
# Closed-form conjugate counts of the partition classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionClassCounts:
    """Numbers of conjugates of the four partition classes."""

    n_w: int
    n_u1: int
    n_u2: int
    n_v: int


def closed_form_subgroup_counts(params: SuzukiParams) -> PartitionClassCounts:
    """Conjugate counts from the normalizer indices: the two cyclic classes
    of orders q+s+1 and q-s+1 have normalizer index 4 over the subgroup, the
    q-1 class index 2, and the 2-subgroup has q^2 + 1 conjugates."""
    go = params.group_order
    n_u1, r1 = divmod(go, 4 * params.u1)
    n_u2, r2 = divmod(go, 4 * params.u2)
    n_v, r3 = divmod(go, 2 * params.v)
    assert r1 == r2 == r3 == 0
    return PartitionClassCounts(
        n_w=params.q * params.q + 1, n_u1=n_u1, n_u2=n_u2, n_v=n_v)
