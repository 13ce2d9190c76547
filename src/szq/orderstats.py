"""Exact element-order statistics: totient and divisor machinery, the
closed-form spectrum and order counts of Sz(q), the type function, the three
classical divisibility checks, and the prime graph.

Everything runs in arbitrary-precision integers; the counts grow like q^5 and
leave 64-bit range around m = 6.  Factoring is trial division up to
FACTOR_BOUND = 2^26 on a 2*3*5*7 wheel, which tries 48 of every 210 integers,
so it answers within seconds or raises ScaleRefusal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count, repeat
from math import gcd, isqrt, prod
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # group imports field, which imports factorize from here
    from .group import SuzukiParams


class ScaleRefusal(RuntimeError):
    """The requested work is beyond the configured desk scale."""


# ---------------------------------------------------------------------------
# Elementary number theory
# ---------------------------------------------------------------------------

# Trial division tries no divisor above this: on the wheel, the candidates up
# to it are 2^26 * 48/210, about 1.5e7 steps, a second or two.
FACTOR_BOUND = 1 << 26

# After 2, 3, 5 and 7, trial division tries only the integers prime to
# 2*3*5*7 = 210: 11 + 210k + r for these 48 residues r.
_WHEEL = tuple(r for r in range(210) if gcd(11 + r, 210) == 1)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, {prime: exponent}, the primes
    ascending.

    No candidate above min(isqrt(n), FACTOR_BOUND) is tried, for the current
    cofactor n.  ScaleRefusal when a cofactor has no divisor up to
    FACTOR_BOUND and is at least (FACTOR_BOUND + 1)^2: proving it prime would
    take trial division past the bound.
    """
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    out: dict[int, int] = {}
    limit = min(isqrt(n), FACTOR_BOUND)  # recomputed only when n shrinks
    # Blocks of candidates base + r.  A block wholly below the limit is tried
    # in one tight loop; the last one, and one that holds a divisor, are
    # tried candidate by candidate up to the limit.
    blocks = chain([(0, (2, 3, 5, 7))], zip(count(11, 210), repeat(_WHEEL)))
    for base, residues in blocks:
        if base > limit:
            break
        if base + residues[-1] <= limit:
            for r in residues:
                if n % (base + r) == 0:
                    break
            else:
                continue
        for r in residues:
            d = base + r
            if d > limit:
                break
            while n % d == 0:
                out[d] = out.get(d, 0) + 1
                n //= d
                limit = min(isqrt(n), FACTOR_BOUND)
    if isqrt(n) > FACTOR_BOUND:
        raise ScaleRefusal(
            f"factoring needs trial division past its bound of {FACTOR_BOUND}: a "
            f"cofactor of {n.bit_length()} bits has no prime factor up to the bound")
    if n > 1:
        out[n] = 1
    return out


def euler_phi(n: int) -> int:
    """Count of integers in [1, n] coprime to n."""
    phi = 1
    for p, k in factorize(n).items():
        phi *= (p - 1) * p ** (k - 1)
    return phi


def _divisor_phis(fac: dict[int, int]) -> dict[int, int]:
    """Every divisor d of the number with prime factorization ``fac``,
    mapped to phi(d); phi is multiplicative, so no divisor is re-factored."""
    phis = {1: 1}
    for p, k in fac.items():
        phis = {d * p ** e: phi * ((p - 1) * p ** (e - 1) if e else 1)
                for d, phi in phis.items() for e in range(k + 1)}
    return phis


def divisors(n: int) -> list[int]:
    """All divisors of n, ascending."""
    return sorted(_divisor_phis(factorize(n)))


def coprime_part(n: int, t: int) -> int:
    """Greatest divisor of n coprime to t."""
    g = gcd(n, t)
    while g > 1:
        n //= g
        g = gcd(n, g)
    return n


def _order_dividing(a: int, n: int, d: int) -> int:
    """Least e >= 1 with a^e = 1 (mod n), given that a^d = 1 (mod n): the
    order divides d, so strip each prime r of d while a^(d/r) = 1 holds."""
    for r in factorize(d):
        while d % r == 0 and pow(a, d // r, n) == 1:
            d //= r
    return d


def multiplicative_order(a: int, n: int) -> int:
    """Least d >= 1 with a^d = 1 (mod n); requires gcd(a, n) = 1."""
    if n < 1:
        raise ValueError("modulus must be positive")
    if n == 1:
        return 1
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit modulo {n}")
    order = 1
    for p, k in factorize(n).items():
        d = _order_dividing(a, p ** k, (p - 1) * p ** (k - 1))  # phi(p^k)
        order = order * d // gcd(order, d)
    return order


# ---------------------------------------------------------------------------
# Order statistics containers
# ---------------------------------------------------------------------------

@dataclass
class OrderStats:
    """Map from element order to the exact number of elements of that order.

    Deliberately permissive: perturbed or inconsistent stats are legal inputs
    to the check functions below, which report violations instead of refusing
    to construct.
    """

    counts: dict[int, int]
    total: int

    def to_json_dict(self) -> dict:
        """JSON form with decimal strings, preserving arbitrary precision."""
        return {
            "total": str(self.total),
            "counts": {str(i): str(c) for i, c in sorted(self.counts.items())},
        }


@dataclass(frozen=True)
class Spectrum:
    """A divisor-closed set of element orders."""

    orders: frozenset[int]

    @classmethod
    def from_values(cls, values) -> "Spectrum":
        """The divisor closure of ``values``; a value below 1 is a ValueError."""
        return cls(frozenset(d for v in values for d in divisors(v)))

    def __contains__(self, n: int) -> bool:
        return n in self.orders

    def __iter__(self):
        return iter(sorted(self.orders))


def spectrum_closed_form(params: SuzukiParams) -> Spectrum:
    """Element orders of Sz(q): all divisors of 4, q-1, q+s+1 and q-s+1."""
    return Spectrum.from_values((4, params.v, params.u1, params.u2))


def nse_closed_form(params: SuzukiParams) -> OrderStats:
    """Exact order counts for Sz(q).

    Even orders: 1 identity, (q-1)(q^2+1) involutions, q(q-1)(q^2+1) of order
    four.  Odd orders i > 1 live in the cyclic partition classes: divisors of
    q+s+1 count phi(i) q^2 (q-s+1)(q-1)/4, divisors of q-s+1 count
    phi(i) q^2 (q+s+1)(q-1)/4 (note the crossed cofactor), and divisors of
    q-1 count phi(i) q^2 (q^2+1)/2.  Each of q+s+1, q-s+1 and q-1 is factored
    once; its divisors and their phi values all derive from that factorization.
    """
    q, s = params.q, params.s
    q2 = q * q
    counts: dict[int, int] = {
        1: 1,
        2: (q - 1) * (q2 + 1),
        4: q * (q - 1) * (q2 + 1),
    }
    for n, num, den in ((params.u1, q2 * (q - s + 1) * (q - 1), 4),
                        (params.u2, q2 * (q + s + 1) * (q - 1), 4),
                        (params.v, q2 * (q2 + 1), 2)):
        cofactor, rem = divmod(num, den)
        assert rem == 0
        for i, phi in _divisor_phis(factorize(n)).items():
            if i > 1:
                counts[i] = phi * cofactor
    total = sum(counts.values())
    if total != params.group_order:
        raise AssertionError(
            f"order-count transcription bug: sum {total} != |Sz({q})| {params.group_order}")
    return OrderStats(counts=counts, total=params.group_order)


def type_function(stats: OrderStats, n: int) -> int:
    """Number of elements x with x^n = 1: the sum of the counts at the
    orders that divide n, read off the census's own orders, so n is never
    factored (an order below 1 divides nothing).  ValueError for n < 1."""
    if n < 1:
        raise ValueError(f"the type function needs n >= 1, not {n}")
    return sum(c for o, c in stats.counts.items() if o > 0 and n % o == 0)


# ---------------------------------------------------------------------------
# Divisibility checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    """One named pass/fail certificate and the line that explains it: the
    record of every check ``verify`` and the gate report."""

    name: str
    passed: bool
    detail: str


def _violations_check(name: str, violations: list[str]) -> Check:
    """Passed when nothing is violated; the detail counts the violations
    and, when there are any, lists them."""
    detail = f"{len(violations)} violations" + "".join(f"; {v}" for v in violations)
    return Check(name, not violations, detail)


def frobenius_check(stats: OrderStats) -> Check:
    """Every divisor n of the group order must divide |{x : x^n = 1}|.  The
    group order is factored once, for its divisors; ``type_function``
    factors none of them."""
    violations = []
    for n in divisors(stats.total):
        g = type_function(stats, n)
        if g % n:
            violations.append(f"n={n}: {g} solutions of x^n=1, not divisible by n")
    return _violations_check("frobenius_divisibility", violations)


def totient_divisor_check(stats: OrderStats) -> Check:
    """phi(i) divides the count at i; i divides the divisor-sum at i; counts
    above order 2 are even."""
    violations = []
    for i, c in sorted(stats.counts.items()):
        if c % euler_phi(i):
            violations.append(f"i={i}: phi({i})={euler_phi(i)} does not divide {c}")
        partial = type_function(stats, i)
        if partial % i:
            violations.append(f"i={i}: divisor-sum {partial} not divisible by {i}")
        if i > 2 and c % 2:
            violations.append(f"i={i}: count {c} is odd")
    return _violations_check("totient_divisor", violations)


def weisner_count(stats: OrderStats, t: int) -> tuple[int, Check]:
    """Number f(t) of elements whose order is a multiple of t, with the check
    that f(t) is zero or a multiple of the greatest divisor of the group
    order coprime to t."""
    f_t = sum(c for i, c in stats.counts.items() if i % t == 0)
    cp = coprime_part(stats.total, t)
    ok = f_t == 0 or f_t % cp == 0
    detail = f"f({t}) = {f_t}" + ("" if ok else f", no multiple of coprime part {cp}")
    return f_t, Check(f"weisner_t{t}", ok, detail)


# ---------------------------------------------------------------------------
# Prime graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimeGraph:
    """Primes of the group order, adjacent when their product is an element
    order; components carry the matching chunk of the order's factorization."""

    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]
    components: tuple[frozenset[int], ...]
    order_components: tuple[int, ...]


def prime_graph(spectrum: Spectrum, order: int) -> PrimeGraph:
    """Build the prime graph of a group of the given order and spectrum."""
    fac = factorize(order)
    vertices = set(fac)
    for n in spectrum:
        for p in factorize(n):
            if p not in vertices:
                raise ValueError(f"spectrum order {n} has prime {p} outside the group order")
    edges = set()
    for p in vertices:
        for r in vertices:
            if p < r and p * r in spectrum:
                edges.add((p, r))
    adj: dict[int, set[int]] = {p: set() for p in vertices}
    for p, r in edges:
        adj[p].add(r)
        adj[r].add(p)
    components: list[frozenset[int]] = []
    seen: set[int] = set()
    for start in sorted(vertices):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in comp:
                    comp.add(nb)
                    stack.append(nb)
        seen |= comp
        components.append(frozenset(comp))
    order_comps = tuple(
        prod(p ** fac[p] for p in sorted(comp)) for comp in components)
    return PrimeGraph(
        vertices=frozenset(vertices),
        edges=frozenset(edges),
        components=tuple(components),
        order_components=order_comps,
    )
