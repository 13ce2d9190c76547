"""Brute-force ground truth for desk-scale Suzuki groups.

Enumerates a group from generators, takes empirical order censuses from one
pass over the cyclic subgroups, digs out cyclic subgroups, normalizers and
centralizers, and verifies that the conjugates of the four reference
subgroups cover every nontrivial element exactly once.

Every table addresses its elements by one number, their ``position``, and
lists their keys in that order in ``sorted_keys()``; ``by_key`` maps each key
to itself.  ``enumerate_group`` closes any set of matrices by breadth-first
search, keyed by entry tuples in ascending order; such a table closes and
counts, and ``element(key)`` rebuilds a matrix on demand.
``build_suzuki_table`` lets Sz(q) act on the q^2 + 1 points of its ovoid on
a stabilizer chain (``StabilizerChain``), certified when its orbit lengths
multiply to |Sz(q)|.  Each element is "U2[c], then U1[b], then U0[a]" in
exactly one way, and its position in the ``OvoidTable`` is its rank
(a N1 + b) N2 + c.  The chain is a table of ranks in its own right: a
product, a power walk or a conjugate steps three base images and sifts them
back to a rank, with no keys, so the census, ``subgroup`` and the partition
walk all run on Sz(32).  ``normalizer`` and ``centralizer`` still compare
``bytes`` permutations of the points (a product is one ``translate``), built
on demand up to MAX_POINTS = 256 points, so ``verify`` stops at Sz(8).

The scans start from generators.  A conjugation g is an automorphism, so
g H g^-1 is generated by the images of H's generators and has |H| elements:
``normalizer`` confirms g once g maps each generator of H into H, and the
partition walk (``_conjugates``) meets a known conjugate K again once a move
maps every generator into K.

Matrices stay at the boundary: ``table.key(mat)`` and ``OvoidTable.rank(mat)``
(from the matrix's point action) turn a matrix into a key or a rank, and
``table.element(key)`` rebuilds the matrix of a key.  Everything here is
deliberately dumb and exact: this module is the oracle the closed forms are
tested against, so it must not share their shortcuts.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field as dc_field
from math import gcd
from functools import partial
from operator import attrgetter, mul
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .field import Field
from .group import (
    CertificationError,
    PartitionClassCounts,
    SuzukiParams,
    candidate_generators,
    closed_form_subgroup_counts,
    w_generators,
)
from .mat4 import Mat4, OrderNotFoundError
from .orderstats import OrderStats, ScaleRefusal, Spectrum

Key = Hashable  # an entry tuple, or a bytes permutation in an OvoidTable
Point = tuple[int, int, int, int]
_entries = attrgetter("entries")

# A bytes permutation numbers its points with single bytes: byte keys, and
# so the scans, stop at 256 points.  The census needs no keys.
MAX_POINTS = 256
# The census keeps one order byte per element, |Sz(q)| bytes in all.
MEMORY_LIMIT = 1 << 30


class ClosureLimitError(RuntimeError):
    """Breadth-first closure outgrew the caller's limit."""


class SubgroupNotFoundError(LookupError):
    """No element of the requested order exists in the table."""


def _itself(x: Key) -> Key:
    return x


def _walk(seeds: Iterable[Hashable], moves: Sequence, act: Callable,
          key: Callable[..., Hashable] = _itself, limit: int | None = None,
          lift: Callable[[Hashable], object] | None = None) -> dict:
    """Breadth-first closure of the keys ``seeds``: {key: key} for every key
    reached.

    The one walker behind every closure in this module.  It stores keys only,
    in the result and in the frontier: each frontier key becomes an element
    once, ``lift(k)`` (the key itself without ``lift``), whose images
    ``act(x, move)`` are keyed by ``key``.  Raises ClosureLimitError as soon
    as the element count would exceed ``limit``.
    """
    # Keys, not elements, wait in the frontier: as Mat4s, a whole level would
    # stay alive, and the cyclic collector would traverse it at each of its
    # full passes.
    seen = {s: s for s in seeds}
    frontier = list(seen)
    while frontier:
        new = []
        for a in frontier if lift is None else map(lift, frontier):
            for g in moves:
                kb = key(act(a, g))
                if kb not in seen:
                    if limit is not None and len(seen) >= limit:
                        raise ClosureLimitError(f"closure exceeds limit {limit}")
                    seen[kb] = kb
                    new.append(kb)
        frontier = new
    return seen


@dataclass
class ElementTable:
    """A fully enumerated group: ``by_key`` holds each element's key, mapped
    to itself, and ``position(key)`` is the key's place in ``sorted_keys()``,
    so the order census and the inverses are arrays over positions.

    The keys are the matrices' entry tuples, and no matrix is kept:
    ``element(key)`` rebuilds one on demand.  The lazily filled caches take
    no part in ``==``.
    """

    field: Field
    by_key: dict[Key, Key]
    generators: list[Mat4]
    _sorted_keys: list[Key] | None = dc_field(
        default=None, init=False, repr=False, compare=False)
    _positions: dict[Key, int] | None = dc_field(
        default=None, init=False, repr=False, compare=False)
    _orders: array | None = dc_field(default=None, init=False, repr=False, compare=False)
    _inverses: array | None = dc_field(default=None, init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.by_key)

    def sorted_keys(self) -> list[Key]:
        """Canonical iteration order: keys ascending."""
        if self._sorted_keys is None:
            self._sorted_keys = sorted(self.by_key)
        return self._sorted_keys

    def key(self, mat: Mat4) -> Key:
        """The key of a matrix of the group."""
        return mat.entries

    def element(self, key: Key) -> Mat4:
        """The matrix keyed ``key``, rebuilt around its entry tuple;
        ValueError for a key outside the table."""
        if key not in self.by_key:
            raise ValueError("element is not in the table")
        return Mat4._make(self.field, key)

    def mul(self, a: Key, b: Key) -> Key:
        """The key of the product of the elements keyed a and b."""
        return (Mat4._make(self.field, a) * Mat4._make(self.field, b)).entries

    @property
    def identity(self) -> Key:
        return Mat4.identity(self.field).entries

    def _position_map(self) -> dict[Key, int]:
        if self._positions is None:
            self._positions = {k: i for i, k in enumerate(self.sorted_keys())}
        return self._positions

    def position(self, key: Key) -> int:
        """Place of a key in ``sorted_keys()``; ValueError for a key outside
        the table."""
        try:
            return self._position_map()[key]
        except KeyError:
            raise ValueError("element is not in the table") from None

    def orders(self) -> array:
        """orders()[i] is the order of the element at position i (computed once).

        The power pass: for each element x not yet met as a power, in sorted
        order, walk x, x^2, ..., x^k = 1 once and record ord(x^i) =
        k / gcd(i, k) for all k powers.  Only group multiplication is used, so
        the census stays independent of the closed forms.
        """
        if self._orders is None:
            self._power_pass()
        return self._orders

    def inverses(self) -> array:
        """inverses()[i] is the position of the inverse of the element at
        position i: the same power pass gives x^i and x^(k - i) together."""
        if self._inverses is None:
            self._power_pass()
        return self._inverses

    def _power_pass(self) -> None:
        keys, product, one, at = self.sorted_keys(), self.mul, self.identity, self._position_map()
        n = len(keys)
        orders = array("i", bytes(4 * n))  # 0: not yet met
        inverses = array("i", bytes(4 * n))
        for start, x in enumerate(keys):
            if orders[start]:
                continue
            powers, p = [start], x  # powers[i - 1] is the position of x^i
            while p != one:
                if len(powers) >= n:
                    raise OrderNotFoundError(f"no power of {x!r} within the table size")
                p = product(p, x)
                if p not in at:
                    raise CertificationError("table is not closed under products")
                powers.append(at[p])
            k = len(powers)
            for i, pi in enumerate(powers, 1):
                orders[pi] = k // gcd(i, k)
                inverses[pi] = powers[k - i - 1]  # x^(k - i); powers[-1] is the identity
        self._orders, self._inverses = orders, inverses


def _point_image(field: Field, point: Point, mat: Mat4) -> Point:
    """The projective point <point * mat> (a row vector times the matrix),
    scaled so that its first nonzero coordinate is 1; a zero image comes back
    as it is, and names no point.  Each coordinate's products are read from
    its row of the field's multiplication table (past the table limit, from
    a row of the 16 products the matrix needs)."""
    t, e = field._mul_table, mat.entries
    r0, r1, r2, r3 = ([t[x] for x in point] if t is not None else
                      [{c: field._mul(x, c) for c in e} for x in point])
    image = (r0[e[0]] ^ r1[e[4]] ^ r2[e[8]] ^ r3[e[12]],
             r0[e[1]] ^ r1[e[5]] ^ r2[e[9]] ^ r3[e[13]],
             r0[e[2]] ^ r1[e[6]] ^ r2[e[10]] ^ r3[e[14]],
             r0[e[3]] ^ r1[e[7]] ^ r2[e[11]] ^ r3[e[15]])
    lead = next((c for c in image if c), 1)
    if lead == 1:
        return image
    scale = field._inv(lead)
    return tuple(field._mul(scale, c) for c in image)


def _schreier(point: int, gens: list[list[int]], n: int) -> tuple[list[int], list[list[int]]]:
    """The orbit of ``point`` under the permutations ``gens`` of 0..n-1, in
    breadth-first order, and a transversal along the Schreier tree: the i-th
    element maps ``point`` to the i-th orbit point, the first is the identity."""
    orbit, reps, seen = [point], [list(range(n))], {point}
    for p, rep in zip(orbit, reps):  # both grow while they are read
        for g in gens:
            image = g[p]
            if image not in seen:
                seen.add(image)
                orbit.append(image)
                reps.append([g[x] for x in rep])  # first rep, then g
    return orbit, reps


@dataclass
class _Sifter:
    """The lookups a certified chain sifts with, derived from its orbits and
    transversals once they have passed ``StabilizerChain._check``."""

    inverses: list[list[list[int]]]  # inverses[j][i]: the inverse of U_j[i]
    inverse_at: list[list[int]]      # by point p: the inverse of U_0[a], a = index of p
    offset_at: list[int]             # by point p: a * N1 * N2, or a large negative
    level12: list[int]               # t1 * n + t2 -> b * N2 + c, or a large negative
    one: int                         # the rank of the identity


@dataclass
class StabilizerChain:
    """A base (b0, b1, b2) of a permutation group G on the points 0..n-1 and
    one transversal per level of G = H0 >= H1 >= H2.

    ``orbits[j]`` is the orbit of b_j under H_j, and ``transversals[j][i]``
    lists the point images (image of point k at index k) of an element U_j[i]
    of H_j that maps b_j to ``orbits[j][i]``; H1 fixes b0 and H2 fixes b0 and
    b1.  Once the chain is certified, that is once N0 N1 N2 (the orbit
    lengths) is the order of G, the pointwise stabilizer of the base is
    trivial, and every element of G is "U2[c], then U1[b], then U0[a]" for
    exactly one (a, b, c).  Its rank is (a N1 + b) N2 + c, and ``rank`` finds
    it back from the element's three base images alone.
    """

    base: tuple[int, int, int]
    orbits: list[list[int]]
    transversals: list[list[list[int]]]
    _lookups: _Sifter | None = dc_field(default=None, init=False, repr=False, compare=False)
    _orders: bytearray | None = dc_field(default=None, init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.orbits[0]) * len(self.orbits[1]) * len(self.orbits[2])

    def _sifter(self) -> _Sifter:
        if self._lookups is None:
            self._lookups = self._check()
        return self._lookups

    def _check(self) -> _Sifter:
        """Build the sift lookups, checking on the way that each U_j[i] is a
        permutation that maps b_j to orbits[j][i] and fixes the earlier base
        points, and that no two elements of H1 share their images of b1 and
        b2; CertificationError otherwise."""
        (o0, o1, o2), base = self.orbits, self.base
        n = len(self.transversals[0][0])
        points = list(range(n))
        inverses = []
        for j, (orbit, transversal) in enumerate(zip(self.orbits, self.transversals)):
            if len(orbit) != len(transversal) or len(set(orbit)) != len(orbit):
                raise CertificationError(f"level {j} of the chain lists its orbit wrongly")
            level = []
            for i, (u, image) in enumerate(zip(transversal, orbit)):
                back = dict(zip(u, points))
                # n distinct images from 0 to n - 1: a permutation
                if len(u) != n or len(back) != n or min(u) != 0 or max(u) != n - 1:
                    raise CertificationError(
                        f"transversal element {i} of level {j} is not a permutation")
                if u[base[j]] != image or any(u[b] != b for b in base[:j]):
                    raise CertificationError(
                        f"transversal element {i} of level {j} moves a base point wrongly")
                level.append([back[p] for p in points])
            inverses.append(level)
        n12, n2 = len(o1) * len(o2), len(o2)
        missing = -(len(o0) * n12 + 1)  # makes any rank it is added to negative
        level12 = [missing] * (n * n)
        for b, u1 in enumerate(self.transversals[1]):
            t1 = u1[base[1]] * n
            for c, p in enumerate(o2):
                if level12[t1 + u1[p]] != missing:
                    raise CertificationError("two elements of the chain share their base images")
                level12[t1 + u1[p]] = b * n2 + c
        inverse_at, offset_at = [points] * n, [missing] * n
        for a, p in enumerate(o0):
            inverse_at[p], offset_at[p] = inverses[0][a], a * n12
        inverse = inverse_at[base[0]]
        one = offset_at[base[0]] + level12[inverse[base[1]] * n + inverse[base[2]]]
        if one < 0:
            raise CertificationError("the identity is not in the chain")
        return _Sifter(inverses, inverse_at, offset_at, level12, one)

    def rank(self, p0: int, p1: int, p2: int) -> int:
        """The rank of the element with base images p0, p1 and p2, or -1 when
        no element of the chain has them."""
        s = self._sifter()
        n = len(s.inverse_at)
        if not (0 <= p0 < n and 0 <= p1 < n and 0 <= p2 < n):
            return -1
        inverse = s.inverse_at[p0]
        r = s.offset_at[p0] + s.level12[inverse[p1] * n + inverse[p2]]
        return r if r >= 0 else -1

    def element(self, r: int) -> tuple[list[int], list[int], list[int]]:
        """(U0[a], U1[b], U2[c]) for the element of rank r: it acts as
        p -> U0[a][U1[b][U2[c][p]]]."""
        (_, o1, o2), (t0, t1, t2) = self.orbits, self.transversals
        a, r12 = divmod(r, len(o1) * len(o2))
        b, c = divmod(r12, len(o2))
        return t0[a], t1[b], t2[c]

    # The chain is also a table whose keys are the ranks themselves, so
    # ``subgroup`` and ``find_cyclic_subgroup`` run on it without byte keys.

    @property
    def identity(self) -> int:
        return self._sifter().one

    def sorted_keys(self) -> range:
        return range(self.size)

    def mul(self, r: int, s: int) -> int:
        """The rank of "first the element of rank r, then that of rank s":
        s's images of r's base images, sifted."""
        u0, u1, u2 = self.element(r)
        v0, v1, v2 = self.element(s)
        product = self.rank(*(v0[v1[v2[u0[u1[u2[b]]]]]] for b in self.base))
        if product < 0:
            raise CertificationError("the chain is not closed under products")
        return product

    def cycle(self, r: int) -> list[int]:
        """The ranks of x, x^2, ..., x^(k-1) for the element x != 1 of rank r,
        k = ord(x): x's base images stepped by x, each power sifted back to its
        rank.  CertificationError past 255 powers or for a power that sifts
        to no element."""
        s = self._sifter()
        n, inverse_at, offset_at, level12, one = (
            len(s.inverse_at), s.inverse_at, s.offset_at, s.level12, s.one)
        u0, u1, u2 = self.element(r)
        b0, b1, b2 = self.base
        p0, p1, p2 = u0[u1[u2[b0]]], u0[u1[u2[b1]]], u0[u1[u2[b2]]]
        powers = [r]
        for _ in range(254):
            p0, p1, p2 = u0[u1[u2[p0]]], u0[u1[u2[p1]]], u0[u1[u2[p2]]]
            inverse = inverse_at[p0]
            r = offset_at[p0] + level12[inverse[p1] * n + inverse[p2]]
            if r == one:
                return powers
            if r < 0:
                raise CertificationError("the chain is not closed under products")
            powers.append(r)
        raise CertificationError("an element has order above 255, the census's limit")

    def power_pass(self) -> bytearray:
        """The order of every element, by rank: for each element x not yet
        met as a power, in rank order, ``cycle`` gives x, x^2, ..., x^(k-1),
        and ord(x^i) = k / gcd(i, k).  Orders are kept one byte each."""
        orders = bytearray(self.size)
        orders[self.identity] = 1
        ratios: dict[int, list[int]] = {}
        start = orders.find(0)
        while start >= 0:
            powers = self.cycle(start)
            k = len(powers) + 1
            if k not in ratios:
                ratios[k] = [k // gcd(i, k) for i in range(1, k)]
            for r, o in zip(powers, ratios[k]):
                orders[r] = o
            start = orders.find(0, start)
        return orders

    def orders(self) -> bytearray:
        """``power_pass``, computed once."""
        if self._orders is None:
            self._orders = self.power_pass()
        return self._orders

    def conjugator(self, s: int) -> Callable[[int], int]:
        """x -> s x s^-1 ("first s, then x, then s^-1") for the element s of
        rank s, as a map of ranks: the conjugate's base images
        s^-1(U0[a](U1[b] U2[c](s(b)))) are sifted on each call, from s^-1 and
        the N1 N2 precomputed triples U1[b] U2[c](s(b)).  CertificationError
        for a conjugate that sifts to no element."""
        sift = self._sifter()
        n, inverse_at, offset_at, level12 = (
            len(sift.inverse_at), sift.inverse_at, sift.offset_at, sift.level12)
        u0, u1, u2 = self.element(s)
        s_inv = [0] * n
        for p in range(n):
            s_inv[u0[u1[u2[p]]]] = p
        c0, c1, c2 = (u0[u1[u2[b]]] for b in self.base)
        tails = [(u1[u2[c0]], u1[u2[c1]], u1[u2[c2]])
                 for u1 in self.transversals[1] for u2 in self.transversals[2]]
        t0, n12 = self.transversals[0], len(tails)

        def image(r: int) -> int:
            a, r12 = divmod(r, n12)
            u, (p0, p1, p2) = t0[a], tails[r12]
            y0 = s_inv[u[p0]]
            inverse = inverse_at[y0]
            r = offset_at[y0] + level12[inverse[s_inv[u[p1]]] * n + inverse[s_inv[u[p2]]]]
            if r < 0:
                raise CertificationError("the chain is not closed under products")
            return r

        return image


class _ChainKeys(Mapping):
    """The keys of an OvoidTable as a read-only mapping of each key to itself:
    membership is a sift and one comparison, iteration is rank order."""

    def __init__(self, table: OvoidTable) -> None:
        self._table = table

    def __getitem__(self, key: bytes) -> bytes:
        if self._table._rank(key) < 0:
            raise KeyError(key)
        return key

    def __iter__(self) -> Iterator[bytes]:
        return iter(self._table.sorted_keys())

    def __len__(self) -> int:
        return self._table.size


@dataclass
class OvoidTable:
    """Sz(q) as permutations of the points of its ovoid, on a certified
    stabilizer chain.

    ``points`` lists the ovoid ascending, and the chain's permutations number
    the points by their place there.  The element of rank r is the one the
    chain gives it, so ``position`` is the rank and ``sorted_keys()`` lists the
    keys in rank order.  The key of an element g is the ``bytes`` whose byte k
    is the number of the image of point k under the row-vector action
    p -> p g, so the key of g h is ``key(g).translate(key(h) + pad)``: first g,
    then h.  Keys are built only when asked for, at most MAX_POINTS points;
    the census (``orders``) steps base images and needs none.
    """

    field: Field
    generators: list[Mat4]
    points: list[Point] = dc_field(repr=False)
    chain: StabilizerChain = dc_field(repr=False)
    _pad: bytes = dc_field(init=False, repr=False, compare=False)
    _number: dict[Point, int] = dc_field(init=False, repr=False, compare=False)
    _keys: list[bytes] | None = dc_field(default=None, init=False, repr=False, compare=False)
    _inverse_keys: tuple[list[bytes], list[bytes]] | None = dc_field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._pad = bytes(max(256 - len(self.points), 0))  # translate tables have 256 bytes
        self._number = {p: k for k, p in enumerate(self.points)}

    @property
    def size(self) -> int:
        return self.chain.size

    @property
    def by_key(self) -> Mapping[bytes, bytes]:
        return _ChainKeys(self)

    def sorted_keys(self) -> list[bytes]:
        """The keys in rank order, one ``translate`` each: the key of rank
        (a N1 + b) N2 + c is the precomputed U2[c] U1[b] followed by U0[a].
        ScaleRefusal past MAX_POINTS points."""
        if self._keys is None:
            self._require_byte_keys()
            self.chain._sifter()  # the chain's permutations are checked first
            t0, t1, t2 = self.chain.transversals
            tails = [bytes([u1[p] for p in u2]) for u1 in t1 for u2 in t2]
            pad, keys = self._pad, []
            for u0 in t0:
                head = bytes(u0) + pad
                keys += [tail.translate(head) for tail in tails]
            self._keys = keys
        return self._keys

    def _require_byte_keys(self) -> None:
        if len(self.points) > MAX_POINTS:
            raise ScaleRefusal(
                f"{len(self.points)} ovoid points do not fit the byte keys, which "
                f"hold at most {MAX_POINTS}")

    def _rank(self, key: object) -> int:
        """The rank of the element keyed ``key``, or -1 when it is not in the
        table: a sift of its base images, confirmed by the whole key."""
        if type(key) is not bytes or len(key) != len(self.points):
            return -1
        b0, b1, b2 = self.chain.base
        r = self.chain.rank(key[b0], key[b1], key[b2])
        return r if r >= 0 and self.sorted_keys()[r] == key else -1

    def position(self, key: bytes) -> int:
        """The rank of a key; ValueError for a key outside the table."""
        r = self._rank(key)
        if r < 0:
            raise ValueError("element is not in the table")
        return r

    def _action(self, mat: Mat4) -> list[int]:
        """The number of the image of each point under a matrix; ValueError
        for a matrix that does not map the ovoid to itself."""
        f, number = self.field, self._number
        try:
            return [number[_point_image(f, p, mat)] for p in self.points]
        except KeyError:
            raise ValueError("matrix does not map the ovoid to itself") from None

    def key(self, mat: Mat4) -> bytes:
        """The permutation a matrix of Sz(q) induces on the ovoid: byte k is
        the number of the image of point k.  ValueError for a matrix that does
        not map the ovoid to itself; ScaleRefusal past MAX_POINTS points."""
        self._require_byte_keys()
        return bytes(self._action(mat))

    def rank(self, mat: Mat4) -> int:
        """The rank of a matrix of Sz(q), with no byte key: its images of the
        three base points, sifted, and confirmed on every point.  ValueError
        for a matrix that acts as no element of the chain."""
        image, chain = self._action(mat), self.chain
        r = chain.rank(*(image[b] for b in chain.base))
        u0, u1, u2 = chain.element(max(r, 0))
        if r < 0 or any(u0[u1[u2[k]]] != y for k, y in enumerate(image)):
            raise ValueError("matrix acts as no element of the table")
        return r

    def element(self, key: bytes) -> bytes:
        """The permutation keyed ``key``, which is the key itself; ValueError
        for a key outside the table."""
        self.position(key)
        return key

    def mul(self, a: bytes, b: bytes) -> bytes:
        return a.translate(b + self._pad)

    @property
    def identity(self) -> bytes:
        return bytes(range(len(self.points)))

    def orders(self) -> bytearray:
        """orders()[r] is the order of the element of rank r, from the chain's
        power pass (computed once)."""
        return self.chain.orders()

    def inverses(self) -> array:
        """inverses()[r] is the rank of the inverse of the element of rank r,
        computed on each call: "U0[a]^-1, then U1[b]^-1, then U2[c]^-1",
        sifted from its base images."""
        chain = self.chain
        i0, i1, i2 = chain._sifter().inverses
        return array("i", (chain.rank(*(u2[u1[u0[b]]] for b in chain.base))
                           for u0 in i0 for u1 in i1 for u2 in i2))

    def conjugates(self, h: bytes, positions: Iterable[int]) -> Iterator[bytes]:
        """g h g^-1 for the element g at each of ``positions``; the key of g^-1
        is that of U0[a]^-1 followed by the precomputed U1[b]^-1 U2[c]^-1.
        The census runs first: it raises on a chain that is not closed."""
        self.orders()
        keys, pad = self.sorted_keys(), self._pad
        if self._inverse_keys is None:
            i0, i1, i2 = ([bytes(u) + pad for u in level]
                          for level in self.chain._sifter().inverses)
            self._inverse_keys = i0, [u1.translate(u2) for u1 in i1 for u2 in i2]
        i0, tails = self._inverse_keys
        n12, hp = len(tails), h + pad
        for i in positions:
            a, r12 = divmod(i, n12)
            yield keys[i].translate(hp).translate(i0[a]).translate(tails[r12])


@dataclass(frozen=True)
class SubgroupHandle:
    """A subgroup given by its members' keys inside some table; on a
    StabilizerChain the keys are ranks."""

    members: frozenset[Key]
    order: int
    cyclic_generator: Key | None = None


def enumerate_group(generators: Sequence[Mat4], limit: int) -> ElementTable:
    """Breadth-first closure of the generators, starting from the identity.

    The table keeps entry tuples only.  Each new element is lifted to a
    ``Mat4`` once and multiplied by every generator, so a closure of n
    elements makes n * len(generators) products.  Each product goes through
    ``Mat4.__mul__`` with a copy of its generator that carries the kernel of
    that right factor (``Mat4._as_right_factor``): zero entries of the
    generator drop their terms and unit entries their lookups.  The caller's
    matrices are not touched, and the table's ``generators`` are those very
    matrices.  Raises ClosureLimitError as soon as the element count would
    exceed ``limit`` (wrong generators or wrong limit).
    """
    if not generators:
        raise ValueError("need at least one generator")
    f = generators[0].field
    for g in generators[1:]:
        if g.field != f:
            raise ValueError("generators live in different fields")
    moves = [g._as_right_factor() for g in generators]
    by_key = _walk([Mat4.identity(f).entries], moves, mul, _entries, limit,
                   partial(Mat4._make, f))
    return ElementTable(field=f, by_key=by_key, generators=list(generators))


def check_census_scale(params: SuzukiParams) -> None:
    """ScaleRefusal unless the census of Sz(q) fits MEMORY_LIMIT: it keeps one
    order byte per element, |Sz(q)| bytes.  Decided from the parameters
    alone, before any field is built."""
    if params.group_order > MEMORY_LIMIT:
        raise ScaleRefusal(
            f"the census of Sz({params.q}) keeps one order byte for each of its "
            f"{params.group_order} elements: {params.group_order} bytes, past the "
            f"memory limit of {MEMORY_LIMIT} bytes")


def build_suzuki_table(params: SuzukiParams, field: Field) -> tuple[list[Mat4], OvoidTable]:
    """Sz(q) on a certified stabilizer chain of its ovoid.

    The ovoid is the orbit of the point <e1> under the four candidate
    generators, found with field arithmetic alone; it must have q^2 + 1
    points (N0).  Each generator becomes a permutation of those points.  The
    base is b0 = <e1>, b1 = <e4> and b2 = the first other point, and the
    levels are G = <the 4 candidates> >= H1 = <w(1,0), w(0,1), d(lam)> >=
    H2 = <d(lam)>: each generator of H1 must fix b0 and d(lam) must fix b0 and
    b1.  A Schreier tree per level gives the orbit lengths N0, N1, N2 and the
    transversals U0, U1, U2.  ScaleRefusal, before any work, for a census past
    the memory limit (``check_census_scale``).

    Returns (generators, table).  The candidates lie in Sz(q), so the group G
    they generate has at most |Sz(q)| elements, and at least as many as its
    image in the permutations, which has at least N0 N1 N2.  A chain with
    N0 N1 N2 = |Sz(q)| = q^2 (q^2 + 1)(q - 1) therefore proves that G is
    Sz(q), that the action is faithful and that the base images fix each
    element: the element of rank (a N1 + b) N2 + c is "U2[c], then U1[b],
    then U0[a]", and its position in the table is that rank.  Any other
    orbit or chain size raises CertificationError.

    The census and the partition walk sift base images and need no keys, so
    they run on all of Sz(32) too; the byte keys of the normalizer and
    centralizer scans stop at MAX_POINTS = 256 points, so ``verify`` stops
    at Sz(8).
    """
    check_census_scale(params)
    n_points = params.q * params.q + 1
    gens = candidate_generators(params, field)
    orbit = _walk([(1, 0, 0, 0)], gens, lambda p, g: _point_image(field, p, g))
    if len(orbit) != n_points:
        raise CertificationError(
            f"the orbit of <e1> has N0 = {len(orbit)} points, expected q^2 + 1 = {n_points}")
    points = sorted(orbit)
    number = {p: k for k, p in enumerate(points)}
    if (0, 0, 0, 1) not in number:
        raise CertificationError("<e4> is not a point of the ovoid")
    perms = [[number[_point_image(field, p, g)] for p in points] for g in gens]
    b0, b1 = number[(1, 0, 0, 0)], number[(0, 0, 0, 1)]
    base = (b0, b1, next(k for k in range(n_points) if k not in (b0, b1)))
    # The candidates are [w(1,0), w(0,1), d(lam), tau]: H1 drops tau, H2 is <d(lam)>.
    levels = (perms, perms[:3], perms[2:3])
    orbits, transversals = [], []
    for j, level in enumerate(levels):
        for g in level:
            if any(g[b] != b for b in base[:j]):
                raise CertificationError(
                    f"generator {perms.index(g)} of level {j} of the chain moves a base "
                    "point the level must fix")
        orbit_j, transversal = _schreier(base[j], level, n_points)
        orbits.append(orbit_j)
        transversals.append(transversal)
    chain = StabilizerChain(base, orbits, transversals)
    n0, n1, n2 = map(len, orbits)
    if chain.size != params.group_order:
        raise CertificationError(
            f"the stabilizer chain has N0 N1 N2 = {n0} * {n1} * {n2} = {chain.size} "
            f"elements, expected |Sz({params.q})| = {params.group_order}")
    return gens, OvoidTable(field, gens, points, chain)


def empirical_order_stats(table: ElementTable | OvoidTable,
                          spec_hint: Spectrum | None = None) -> OrderStats:
    """Census of element orders over the whole table.

    An element whose order divides none of ``spec_hint``'s orders raises
    OrderNotFoundError, which is a finding (the table is not the group the
    spectrum belongs to), not a crash to swallow.
    """
    hints = tuple(spec_hint.orders) if spec_hint is not None else ()
    orders = table.orders()
    counts = {o: orders.count(o) for o in set(orders)}  # one C-level pass per order
    outside = [o for o in counts if hints and all(h % o for h in hints)]
    if outside:
        raise OrderNotFoundError(
            f"element orders {sorted(outside)} lie outside the hints {sorted(hints)}")
    return OrderStats(counts=counts, total=table.size)


# ---------------------------------------------------------------------------
# Subgroup digging
# ---------------------------------------------------------------------------

def cyclic_subgroup(table: ElementTable, generator: Key, order: int) -> SubgroupHandle:
    """The subgroup generated by an element of the given order; ValueError
    unless generator^order is the identity and no smaller power is."""
    members, cur = [table.identity], generator
    while cur != table.identity and len(members) < order:
        members.append(cur)
        cur = table.mul(cur, generator)
    if cur != table.identity or len(members) != order:
        raise ValueError(f"the generator does not have order {order}")
    return SubgroupHandle(frozenset(members), order, cyclic_generator=generator)


def subgroup(table: ElementTable, generators: Iterable[Key], limit: int) -> SubgroupHandle:
    """The subgroup generated by the elements keyed ``generators``, closed
    with the table's own product; ClosureLimitError past ``limit`` elements."""
    members = _walk([table.identity], list(generators), table.mul, limit=limit)
    return SubgroupHandle(frozenset(members), len(members))


def find_cyclic_subgroup(table: ElementTable, k: int) -> SubgroupHandle:
    """Cyclic subgroup generated by the first element of order k in
    sorted-key order, for determinism."""
    try:
        i = table.orders().index(k)
    except ValueError:
        raise SubgroupNotFoundError(f"no element of order {k} in the table") from None
    return cyclic_subgroup(table, table.sorted_keys()[i], k)


def _generating_set(table: OvoidTable, members: frozenset[Key]) -> list[Key]:
    """A generating set of the subgroup with these members: walk them in
    sorted order and keep each one the kept ones do not generate yet.
    ValueError when the members are not a subgroup."""
    one = table.identity
    gens: list[Key] = []
    span = {one: one}
    for x in sorted(members):
        if x not in span:
            gens.append(x)
            span = _walk([one], gens, table.mul)
    if len(span) != len(members):
        raise ValueError("the members do not form a subgroup")
    return gens


def normalizer(table: OvoidTable, sub: SubgroupHandle) -> SubgroupHandle:
    """All g with g H g^-1 = H, on the ovoid table's chain.

    Conjugating a generating set of H into H suffices: then g H g^-1, which
    those conjugates generate, lies in H and has |H| elements, so it is H.
    A cyclic H brings its generator; any other gets a small generating set
    (``_generating_set``: 3 elements for W at q = 8).  The first generator,
    h, sifts the candidates by one base image: (g h g^-1)(b0) must be m(b0)
    for some m in H.  The full permutations then confirm each survivor,
    generator by generator.  H must lie inside the table (ValueError).
    """
    if not sub.members <= table.by_key.keys():
        raise ValueError("subgroup is not in the table")
    gens = [sub.cyclic_generator] if sub.cyclic_generator is not None else \
        _generating_set(table, sub.members)
    if not gens:
        return SubgroupHandle(frozenset(table.sorted_keys()), table.size)
    chain, h = table.chain, gens[0]
    inverses, (o0, o1, o2), b0 = chain._sifter().inverses, chain.orbits, chain.base[0]
    images = {m[b0] for m in sub.members}
    n12, n2 = len(o1) * len(o2), len(o2)
    # g = (a, b, c) maps b0 to o0[a], and g^-1 is U0[a]^-1, then U1[b]^-1,
    # then U2[c]^-1: hits[p] lists the c with U2[c]^-1(p) in images.
    hits = [[c for c, u in enumerate(inverses[2]) if u[p] in images]
            for p in range(len(table.points))]
    found: list[int] = []
    for a, p in enumerate(o0):
        z = inverses[0][a][h[p]]
        for b, u in enumerate(inverses[1]):
            cs = hits[u[z]]
            if cs:
                found += [a * n12 + b * n2 + c for c in cs]
    for g in gens:
        found = [i for i, c in zip(found, table.conjugates(g, found)) if c in sub.members]
    keys = table.sorted_keys()
    return SubgroupHandle(frozenset(keys[i] for i in found), len(found))


def centralizer(table: OvoidTable, x: bytes) -> SubgroupHandle:
    """All g in the ovoid table commuting with the element keyed x, i.e. with
    g x g^-1 = x; x must lie in the table (ValueError).

    The candidates are the g with x(g(p)) = g(x(p)) for the three base points
    p, found level by level: for p = b0 this reads
    U0[a]^-1(x(o0[a])) = U1[b](U2[c](x(b0))), one side from a alone, the
    other from (b, c) alone.  The full permutations confirm each candidate.
    """
    table.position(x)
    chain = table.chain
    inverses, (o0, o1, o2), base = chain._sifter().inverses, chain.orbits, chain.base
    t0, t1, t2 = chain.transversals
    n12, n2 = len(o1) * len(o2), len(o2)
    meet: dict[int, list[int]] = {}
    xb0 = x[base[0]]
    for b, u1 in enumerate(t1):
        for c, u2 in enumerate(t2):
            meet.setdefault(u1[u2[xb0]], []).append(b * n2 + c)
    found = []
    for a, p in enumerate(o0):
        u0 = t0[a]
        for r12 in meet.get(inverses[0][a][x[p]], ()):
            b, c = divmod(r12, n2)
            u1, u2 = t1[b], t2[c]
            if all(x[u0[u1[u2[bp]]]] == u0[u1[u2[x[bp]]]] for bp in base[1:]):
                found.append(a * n12 + r12)
    keys = table.sorted_keys()
    members = frozenset(keys[i] for i, c in zip(found, table.conjugates(x, found)) if c == x)
    return SubgroupHandle(members, len(members))


# ---------------------------------------------------------------------------
# Partition verification
# ---------------------------------------------------------------------------

@dataclass
class PartitionReport:
    """Outcome of the conjugate-cover check of the four reference classes."""

    measured: PartitionClassCounts
    expected: PartitionClassCounts
    coverage: int            # nontrivial membership slots filled
    expected_coverage: int   # group order - 1
    multiply_covered: int    # nontrivial elements hit more than once
    missing: int             # nontrivial elements hit zero times

    @property
    def passed(self) -> bool:
        return (self.measured == self.expected
                and self.multiply_covered == 0
                and self.missing == 0
                and self.coverage == self.expected_coverage)

    def to_json_dict(self) -> dict:
        return {
            "n_w": self.measured.n_w,
            "n_u1": self.measured.n_u1,
            "n_u2": self.measured.n_u2,
            "n_v": self.measured.n_v,
            "expected_n_w": self.expected.n_w,
            "expected_n_u1": self.expected.n_u1,
            "expected_n_u2": self.expected.n_u2,
            "expected_n_v": self.expected.n_v,
            "coverage": self.coverage,
            "expected_coverage": self.expected_coverage,
            "multiply_covered": self.multiply_covered,
            "missing": self.missing,
            "passed": int(self.passed),
        }


# A hit count plus one, stopping at 255: the cover check needs only 0, 1 and
# "more", and the identity, in every conjugate, takes no hits.
_BUMP = bytes(range(1, 256)) + b"\xff"
# Conjugates of a non-cyclic class are numbered 1.. in an array('H').
_MAX_OWNERS = 0xFFFF


def _conjugates(gens: list[int], members: list[int], moves: list[Callable[[int], int]],
                hits: bytearray, cycle: Callable[[int], list[int]]) -> tuple[int, int]:
    """The number of conjugates of the subgroup H with these generators and
    nontrivial members (ranks), and the membership slots they fill: each
    conjugate's nontrivial members get one more ``hits``.

    ``moves`` map a rank to its conjugate by one generator of the group, so
    they reach every conjugate.  ``owner[i]`` is nonzero once rank i lies in
    a known conjugate.  A move c maps a conjugate K's generators only: c(K)
    is the subgroup their images generate, with |H| elements, so when they
    all lie in one known conjugate, c(K) is that one.  For a cyclic H, an
    image x with no owner gives the new conjugate <x>, whose members
    ``cycle(x)`` steps, so only generators are kept and ``owner`` is a byte
    mark.  Any other H, whose conjugates may share more than the identity,
    numbers its conjugates in ``owner`` (an OverflowError past
    ``_MAX_OWNERS`` of them), keeps the members of each, maps them when the
    generators leave the known ones, and adds c(K) unless its member set was
    met before.
    """
    slots = 0

    def add(k_members: Sequence[int], k: int) -> None:
        nonlocal slots
        for i in k_members:
            hits[i] = _BUMP[hits[i]]
            owner[i] = k
        slots += len(k_members)

    if len(gens) == 1:
        owner = bytearray(len(hits))
        known = [gens[0]]
        add(members, 1)
        for g in known:  # grows while it is read
            for c in moves:
                x = c(g)
                if not owner[x]:
                    add(cycle(x), 1)
                    known.append(x)
        return len(known), slots
    owner = array("H", bytes(2 * len(hits)))
    known = [(gens, array("i", members))]
    add(members, 1)
    seen = {array("i", sorted(members)).tobytes()}
    for k_gens, k_members in known:
        for c in moves:
            images = [c(g) for g in k_gens]
            k = owner[images[0]]
            if k and all(owner[i] == k for i in images):
                continue
            image = array("i", map(c, k_members))
            member_set = array("i", sorted(image)).tobytes()
            if member_set not in seen:
                if len(known) >= _MAX_OWNERS:
                    raise OverflowError(f"more than {_MAX_OWNERS} conjugates of a "
                                        f"non-cyclic subgroup")
                seen.add(member_set)
                known.append((images, image))
                add(image, len(known))
    return len(known), slots


def unitriangular(table: OvoidTable) -> SubgroupHandle:
    """W = {w(a, b)} as ranks, closed on the chain from the ranks of
    ``w_generators``."""
    return subgroup(table.chain, map(table.rank, w_generators(table.field)),
                    table.field.q ** 2)


def verify_partition(table: OvoidTable, params: SuzukiParams,
                     w: SubgroupHandle | None = None) -> PartitionReport:
    """Conjugate one representative of each class and check the cover.

    The representatives are ranks on the chain: W = {w(a, b)} (``w``, closed
    by ``unitriangular`` when not given) and cyclic subgroups of orders
    q+s+1, q-s+1 and q-1.  ``_conjugates`` walks each class with one
    ``conjugator`` per generator of the table, skipping a generator in the
    cyclic group of one kept before (w(0, 1) = w(1, 0)^2).  Nothing of size
    |G| is allocated but the orders, the byte ``hits`` and, one class at a
    time, its ``owner`` array (a byte mark, or 16-bit conjugate numbers for
    W), so this runs on Sz(32) too.  Hit counts stop at 255, which keeps
    ``missing`` and ``multiply_covered`` exact; ``coverage`` is counted as
    the slots are filled.
    """
    chain = table.chain
    one = chain.identity
    if w is None:
        w = unitriangular(table)
    reps = {"w": (_generating_set(chain, w.members), w.members)}
    for name in ("u1", "u2", "v"):
        h = find_cyclic_subgroup(chain, getattr(params, name))
        reps[name] = ([h.cyclic_generator], h.members)
    moves, powers = [], set()
    for s in map(table.rank, table.generators):
        if s not in powers:
            moves.append(chain.conjugator(s))
            powers.update(chain.cycle(s))
    hits = bytearray(table.size)
    counts, coverage = {}, 0
    for name, (gens, members) in reps.items():
        counts[name], slots = _conjugates(gens, [i for i in members if i != one],
                                          moves, hits, chain.cycle)
        coverage += slots
    missing = hits.count(0) - 1  # the identity is in no count
    multiply = len(hits) - hits.count(1) - missing - 1
    return PartitionReport(
        measured=PartitionClassCounts(n_w=counts["w"], n_u1=counts["u1"],
                                      n_u2=counts["u2"], n_v=counts["v"]),
        expected=closed_form_subgroup_counts(params),
        coverage=coverage,
        expected_coverage=params.group_order - 1,
        multiply_covered=multiply,
        missing=missing,
    )
