"""Brute-force ground truth for desk-scale Suzuki groups.

Enumerates a group from generators, takes empirical order censuses from one
pass over the cyclic subgroups, digs out cyclic subgroups, normalizers and
centralizers, and proves by counting that the conjugates of the four
reference subgroups cover every nontrivial element exactly once.

``enumerate_group`` closes any set of matrices into an ``ElementTable`` of
entry tuples, which only closes and counts.  Sz(q) itself has one carrier:
``StabilizerChain(params, field)`` lets it act on the q^2 + 1 points of its
ovoid, derives its stabilizer chain and certifies it by the group order and
by the fact that only the identity fixes three points, so each element is
"U2[c], then U1[b], then U0[a]" in exactly one way, addressed by its rank
(a N1 + b) N2 + c, and is fixed by three point images.  A closure or a power
walk steps base images through permutations and sifts them to ranks, and a
normalizer or centralizer scan (``_transporter``) finds each conjugator from
the image of one point; all run on Sz(32).  A single power walk
(``cycle``, ``order``) keeps nothing; only the power pass (``orders``)
keeps one order byte per element, and it walks every rank whose byte is
still 0, in rank order, in one call of one power walker.  The partition
certificate (``verify_partition``) counts conjugates by normalizer indices
and walks no conjugate: it proves N(W) = G_{b0}, kept as a rank range, and
W's TI from W's one fixed point, and scans only the cyclic classes'
normalizers.  Once it holds, it reads a second census off the partition,
from the orders of the four classes' members, and allocates nothing of
size |G|.  Matrices stay at the boundary
(``StabilizerChain.rank``).

Everything here is deliberately dumb and exact: this module is the oracle
the closed forms are tested against, so it must not share their shortcuts.
"""

from __future__ import annotations

import gc
from collections import Counter
from dataclasses import asdict, dataclass, field as dc_field
from math import gcd
from functools import cache, partial
from itertools import combinations
from operator import attrgetter, itemgetter, mul
from typing import AbstractSet, Callable, Hashable, Iterable, Sequence

from .field import Field, FieldMismatchError, _require_int
from .group import (
    CertificationError,
    PartitionClassCounts,
    SuzukiParams,
    candidate_generators,
    closed_form_subgroup_counts,
    w_generators,
)
from .mat4 import Mat4
from .orderstats import OrderStats, ScaleRefusal, Spectrum, factorize

Point = tuple[int, int, int, int]
_entries = attrgetter("_entries")  # Mat4 -> its entry tuple, read off the slot

# The census keeps one order byte per element, |Sz(q)| bytes in all.
MEMORY_LIMIT = 1 << 30


class ClosureLimitError(RuntimeError):
    """Breadth-first closure outgrew the caller's limit."""


class SubgroupNotFoundError(LookupError):
    """No element of the requested order exists in the chain."""


class OrderNotFoundError(LookupError):
    """An element's order divides none of the spectrum's orders
    (``empirical_order_stats``)."""


def _itself(x: Hashable) -> Hashable:
    return x


@cache
def _malloc_trim() -> Callable[[int], int]:
    """glibc's ``malloc_trim``, a no-op where the C library has none."""
    try:
        import ctypes
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return lambda pad: 0


def _walk(seeds: Iterable[Hashable], moves: Sequence, act: Callable,
          key: Callable[..., Hashable] = _itself, limit: int | None = None,
          lift: Callable[[Hashable], object] | None = None) -> set:
    """Breadth-first closure of the keys ``seeds``: the set of every key
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
    seen = set(seeds)
    frontier = list(seen)
    # Outgrown set tables are freed.  Once glibc has raised its mmap
    # threshold (as on freeing an earlier closure's table), they come from the
    # heap and stay resident, so the heap is trimmed each time the closure
    # doubles from 2^12 keys on: a second B(128) closure in one process
    # peaked 39 MB higher.  The chain's small walks (at most 1,025 keys up to
    # Sz(32)) free too little to trim.  The trim cannot reach pymalloc's
    # arenas; ``enumerate_group`` empties the tuple free list that keeps them
    # resident.
    trim_at = max(2 * len(seen), 1 << 12)
    while frontier:
        new = []
        for a in frontier if lift is None else map(lift, frontier):
            for g in moves:
                kb = key(act(a, g))
                if kb not in seen:
                    if limit is not None and len(seen) >= limit:
                        raise ClosureLimitError(f"closure exceeds limit {limit}")
                    seen.add(kb)
                    new.append(kb)
        frontier = new
        if len(seen) >= trim_at:
            _malloc_trim()(0)
            trim_at = 2 * len(seen)
    return seen


@dataclass
class ElementTable:
    """A group closed from matrices by ``enumerate_group``: ``keys`` is the
    set of its elements' entry tuples, and no matrix is kept.  The table
    closes and counts; the group algebra runs on a ``StabilizerChain``."""

    field: Field
    keys: set[tuple[int, ...]]
    generators: list[Mat4]

    @property
    def size(self) -> int:
        return len(self.keys)


def _point_image(field: Field, point: Point, mat: Mat4) -> Point:
    """The projective point <point * mat> (a row vector times the matrix),
    scaled so that its first nonzero coordinate is 1; a zero image comes back
    as it is, and names no point.  Every product is a lookup in the field's
    multiplication table ``t``: row t[x] holds x times each element, the
    lead's inverse is the column where its row holds 1, and the scaled image
    is read off the inverse's row.  The census limit admits only Sz(8) and
    Sz(32), whose fields have a table."""
    t, e = field._mul_table, mat._entries
    r0, r1, r2, r3 = t[point[0]], t[point[1]], t[point[2]], t[point[3]]
    x0 = r0[e[0]] ^ r1[e[4]] ^ r2[e[8]] ^ r3[e[12]]
    x1 = r0[e[1]] ^ r1[e[5]] ^ r2[e[9]] ^ r3[e[13]]
    x2 = r0[e[2]] ^ r1[e[6]] ^ r2[e[10]] ^ r3[e[14]]
    x3 = r0[e[3]] ^ r1[e[7]] ^ r2[e[11]] ^ r3[e[15]]
    lead = x0 or x1 or x2 or x3
    if lead <= 1:  # already scaled, or the zero vector
        return x0, x1, x2, x3
    s = t[t[lead].index(1)]
    return s[x0], s[x1], s[x2], s[x3]


def _schreier(point: int, gens: list[list[int]],
              n: int) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """The orbit of ``point`` under the permutations ``gens`` of 0..n-1, in
    breadth-first order, a transversal along the Schreier tree and its
    inverses: the i-th element maps ``point`` to the i-th orbit point, the
    first is the identity.  Every inverse holds the ints of the identity's
    one list: fresh ints for each would take about 50 MB more at q = 32.
    Permutations are composed by ``itemgetter``, in C, which needs n >= 2
    (a getter of one index returns no tuple)."""
    identity = list(range(n))
    # g^-1 as a getter: getter(perm) is "first g^-1, then perm"
    inverse_gens = [itemgetter(*sorted(identity, key=g.__getitem__)) for g in gens]
    orbit, reps, inverses, seen = [point], [identity], [identity], {point}
    for p, rep, inverse in zip(orbit, reps, inverses):  # all grow while they are read
        for g, g_inverse in zip(gens, inverse_gens):
            image = g[p]
            if image not in seen:
                seen.add(image)
                orbit.append(image)
                reps.append(list(itemgetter(*rep)(g)))  # first rep, then g
                inverses.append(list(g_inverse(inverse)))  # first g^-1, then rep^-1
    return orbit, reps, inverses


def check_census_scale(params: SuzukiParams) -> None:
    """ScaleRefusal unless the census of Sz(q) fits MEMORY_LIMIT: it keeps one
    order byte per element, |Sz(q)| bytes.  Decided from the parameters
    alone, before any field is built."""
    if params.group_order > MEMORY_LIMIT:
        raise ScaleRefusal(
            f"the census of Sz({params.q}) keeps one order byte for each of its "
            f"{params.group_order} elements: {params.group_order} bytes, past the "
            f"memory limit of {MEMORY_LIMIT} bytes")


# A field the chain derives from ``params`` and ``field`` when it is built.
_derived = partial(dc_field, init=False, repr=False, compare=False)


@dataclass
class StabilizerChain:
    """Sz(q) as permutations of the points of its ovoid, on a stabilizer
    chain that the constructor derives from ``params`` and ``field`` and
    certifies.  Nothing else goes in: every other field is derived.

    ``generators`` are the four candidates [w(1,0), w(0,1), d(lam), tau],
    and ``generator_ranks`` their ranks, sifted from their permutations.
    The ovoid is the orbit of the point <e1> under them, found with field
    arithmetic alone; it must have q^2 + 1 points (N0).  ``points`` lists it
    ascending, and a permutation numbers the points by their place there,
    under the row-vector action p -> p g.  The base is b0 = <e1>, b1 = <e4>
    and b2 = the first other point, and the levels are G = <the 4
    candidates> >= H1 = <w(1,0), w(0,1), d(lam)> >= H2 = <d(lam)>: each
    generator of H1 must fix b0 and d(lam) must fix b0 and b1.  One Schreier
    tree per level gives ``orbits[j]``, the orbit of b_j under H_j, and
    ``transversals[j][i]``, the point images (image of point k at index k)
    of an element U_j[i] of H_j that maps b_j to ``orbits[j][i]``.
    ScaleRefusal, before any work, for a census past the memory limit
    (``check_census_scale``).

    The candidates lie in Sz(q), so the group G they generate has at most
    |Sz(q)| elements, and at least as many as its image in the
    permutations, which has at least N0 N1 N2.  So N0 N1 N2 = |Sz(q)| =
    q^2 (q^2 + 1)(q - 1) proves that G is Sz(q), that the action is
    faithful and that the pointwise stabilizer of the base is trivial:
    every element of G is "U2[c], then U1[b], then U0[a]" for exactly one
    (a, b, c).  Its rank is (a N1 + b) N2 + c: ``sift`` finds it from the
    element's three base images, and ``rank(mat)`` from a matrix.  Any
    other orbit or chain size raises CertificationError, and so does a
    stabilizer generator that moves a base point its level must fix, or an
    H2-orbit outside b0 and b1 of other than N2 points: then H2 = G_{b0,b1}
    is semiregular there, and only the identity fixes three points.
    """

    params: SuzukiParams
    field: Field
    generators: list[Mat4] = _derived()
    generator_ranks: list[int] = _derived()
    points: list[Point] = _derived()
    base: tuple[int, int, int] = _derived()
    orbits: list[list[int]] = _derived()
    transversals: list[list[list[int]]] = _derived()
    size: int = _derived()
    identity: int = _derived()                # the rank of the identity
    _number: dict[Point, int] = _derived()    # a point's place in ``points``
    _inverses: list[list[list[int]]] = _derived()  # [j][i]: the inverse of U_j[i]
    _inverse_at: list[list[int]] = _derived()  # by point p: U_0[a]^-1, a = index of p
    _offset_at: list[int] = _derived()  # by point p: a * N1 * N2
    _level12: list[list[int]] = _derived()  # [t1][t2] -> b * N2 + c, or a large negative
    _at1: list[int] = _derived()   # by point p: b, the index of p in orbits[1] (-1 for b0)
    _rep2: list[int] = _derived()  # by point p outside b0, b1: its H2-orbit's least point
    _at2: list[int] = _derived()   # by point p outside b0, b1: the c with U2[c](rep2[p]) = p
    _orders: bytearray | None = _derived(default=None)  # the power pass; 0: not walked yet

    def __post_init__(self) -> None:
        params, field = self.params, self.field
        check_census_scale(params)
        n = params.q * params.q + 1
        gens = candidate_generators(params, field)
        images: list[dict[Point, Point]] = [{} for _ in gens]  # [i][p]: p times gens[i]

        def image(p: Point, i: int) -> Point:
            images[i][p] = x = _point_image(field, p, gens[i])
            return x

        orbit = _walk([(1, 0, 0, 0)], range(len(gens)), image)
        if len(orbit) != n:
            raise CertificationError(
                f"the orbit of <e1> has N0 = {len(orbit)} points, expected q^2 + 1 = {n}")
        points = sorted(orbit)
        number = {p: k for k, p in enumerate(points)}
        if (0, 0, 0, 1) not in number:
            raise CertificationError("<e4> is not a point of the ovoid")
        perms = [[number[image_of[p]] for p in points] for image_of in images]
        b0, b1 = number[(1, 0, 0, 0)], number[(0, 0, 0, 1)]
        base = (b0, b1, next(k for k in range(n) if k not in (b0, b1)))
        # H1 drops tau, H2 is <d(lam)>.
        levels = (perms, perms[:3], perms[2:3])
        for j, level in enumerate(levels):
            for g in level:
                if any(g[b] != b for b in base[:j]):
                    raise CertificationError(
                        f"generator {perms.index(g)} of level {j} of the chain moves a base "
                        "point the level must fix")
        orbits, transversals, inverses = zip(
            *(_schreier(b, level, n) for b, level in zip(base, levels)))
        (o0, _, o2), (n0, n1, n2) = orbits, map(len, orbits)
        if n0 * n1 * n2 != params.group_order:
            raise CertificationError(
                f"the stabilizer chain has N0 N1 N2 = {n0} * {n1} * {n2} = {n0 * n1 * n2} "
                f"elements, expected |Sz({params.q})| = {params.group_order}")
        # Only the identity fixes three points: <d(lam)> maps each point
        # outside b0 and b1 to N2 points that no other orbit holds.
        rep2, at2 = [-1] * n, [0] * n
        rep2[b0] = rep2[b1] = n  # taken: a U2 that moves b0 or b1 collides there
        for p in range(n):
            if rep2[p] < 0:
                for c, u2 in enumerate(transversals[2]):
                    if rep2[u2[p]] >= 0:
                        raise CertificationError(
                            f"the orbit of point {p} under <d(lam)> does not have N2 = {n2} "
                            "points of its own")
                    rep2[u2[p]], at2[u2[p]] = p, c
        missing = -(n0 * n1 * n2 + 1)  # makes any rank it is added to negative
        level12 = [[missing] * n for _ in range(n)]
        for b, u1 in enumerate(transversals[1]):
            row = level12[u1[base[1]]]
            for c, p in enumerate(o2):
                if row[u1[p]] != missing:
                    raise CertificationError("two elements of the chain share their base images")
                row[u1[p]] = b * n2 + c
        at0, at1 = [-1] * n, [-1] * n  # o0, the ovoid, fills at0
        for j, at in enumerate((at0, at1)):
            for i, p in enumerate(orbits[j]):
                at[p] = i
        self.generators, self.points, self.base = gens, points, base
        self.orbits, self.transversals = list(orbits), list(transversals)
        self.size, self._number, self._inverses = params.group_order, number, list(inverses)
        self._inverse_at = [inverses[0][a] for a in at0]
        self._offset_at = [a * n1 * n2 for a in at0]
        self._level12, self._at1, self._rep2, self._at2 = level12, at1, rep2, at2
        self.identity = self.sift(*base)
        self.generator_ranks = [self.sift(*(g[b] for b in base)) for g in perms]

    def sift(self, p0: int, p1: int, p2: int) -> int:
        """The rank of the element with base images p0, p1 and p2, or -1 when
        no element of the chain has them."""
        n = len(self._inverse_at)
        if not (0 <= p0 < n and 0 <= p1 < n and 0 <= p2 < n):
            return -1
        inverse = self._inverse_at[p0]
        r = self._offset_at[p0] + self._level12[inverse[p1]][inverse[p2]]
        return r if r >= 0 else -1

    def rank(self, mat: Mat4) -> int:
        """The rank of a matrix of Sz(q), from the number of the image of
        each point; ValueError for a matrix that does not map the points to
        themselves or acts as no element of the chain; FieldMismatchError (a
        ValueError) for a matrix over another field, before any image."""
        f, number = self.field, self._number
        if mat.field != f:
            raise FieldMismatchError(f"a matrix over {mat.field!r} is no element of a chain "
                                     f"over {f!r}")
        try:
            image = [number[_point_image(f, p, mat)] for p in self.points]
        except KeyError:
            raise ValueError("matrix does not map the ovoid to itself") from None
        return self._rank_of_images(image)

    def _rank_of_images(self, image: Sequence[int]) -> int:
        """The rank of the element with these point images: its images of
        the three base points, sifted, and confirmed on every point.
        ValueError when no element of the chain has them."""
        if len(image) == len(self.points):
            r = self.sift(*(image[b] for b in self.base))
            if r >= 0 and self.permutation(r) == list(image):
                return r
        raise ValueError("the point images are those of no element of the table")

    def _require_rank(self, r: int) -> None:
        """ValueError unless r is an int (not a bool or another subclass) in
        range(size)."""
        if type(r) is not int or not 0 <= r < self.size:
            raise ValueError(f"{r!r} is no rank of the chain")

    def element(self, r: int) -> tuple[list[int], list[int], list[int]]:
        """(U0[a], U1[b], U2[c]) for the element of rank r: it acts as
        p -> U0[a][U1[b][U2[c][p]]].  ValueError unless r is an int (not a
        bool or another subclass) in range(size)."""
        self._require_rank(r)
        t0, t1, t2 = self.transversals
        ab, c = divmod(r, len(t2))
        a, b = divmod(ab, len(t1))
        return t0[a], t1[b], t2[c]

    def permutation(self, r: int) -> list[int]:
        """The image of every point under the element of rank r."""
        u0, u1, u2 = self.element(r)
        return [u0[u1[p]] for p in u2]

    def mul(self, r: int, s: int) -> int:
        """The rank of "first r, then s": ``sift`` of s's images of r's base
        images.  No command calls it; the tests take it as their reference."""
        u0, u1, u2 = self.element(r)
        v0, v1, v2 = self.element(s)
        product = self.sift(*(v0[v1[v2[u0[u1[u2[b]]]]]] for b in self.base))
        if product < 0:
            raise CertificationError("the chain is not closed under products")
        return product

    def _hooks(self, points: Sequence[int]) -> tuple[Callable, Callable]:
        """``_walk``'s lift and act over ranks: a member's images of
        ``points``, and for a move (g, i, j, k) the rank with base images g
        of the i-th, j-th and k-th of them, sifted inline, raising
        CertificationError as ``mul`` does.  Both read the tables when made."""
        (t0, t1, t2), level12 = self.transversals, self._level12
        n1, n2, inverse_at, offset_at = len(t1), len(t2), self._inverse_at, self._offset_at

        def lift(r: int) -> list[int]:
            ab = r // n2
            u0, u1, u2 = t0[a := ab // n1], t1[ab - a * n1], t2[r - ab * n2]
            return [u0[u1[u2[p]]] for p in points]

        def act(images: list[int], move: tuple) -> int:
            g, i, j, k = move
            inverse = inverse_at[p0 := g[images[i]]]
            r = offset_at[p0] + level12[inverse[g[images[j]]]][inverse[g[images[k]]]]
            if r < 0:
                raise CertificationError("the chain is not closed under products")
            return r

        return lift, act

    def cycle(self, r: int) -> list[int]:
        """The ranks of x, x^2, ..., x^(k-1) for the element x of rank r,
        k = ord(x) (none for x = 1): one call of a fresh ``_power_walker``,
        whose docstring says how a walk runs.  The walk keeps nothing, not
        even an order byte.  ValueError for an r that is no rank;
        CertificationError past 255 powers or for a power that sifts to no
        element."""
        self._require_rank(r)
        return self._power_walker()(r)

    def _power_walker(self) -> Callable[..., list[int] | None]:
        """``cycle`` as a closure that can also run the census (``orders``).

        ``walk(r)`` walks the powers of the element of rank r and returns
        them.  ``walk(r, orders)``, from a hole r of the order bytes
        ``orders`` (a rank whose byte is 0, with every byte before it
        filled), walks r and then every later hole in rank order, the next
        hole found by ``bytearray.find`` at C speed, and returns None once
        no byte is 0.  The whole census is one call, which binds the tables
        as locals once and checks one rank, rather than a call, a rank check
        and two divmods per hole.

        A walk decodes r into (a, b, c) with ``//`` and ``-`` on the
        transversal lengths and takes x = U0[a] U1[b] U2[c] from
        ``transversals``.  It steps x's base images by x and sifts each
        power back to its rank: ``_inverse_at[p0]`` is the row of U0[a]^-1
        for the power's image p0 of b0, ``_offset_at[p0]`` its a N1 N2, and
        ``_level12[i1][i2]`` the b N2 + c, for i1 and i2 the other two
        images mapped by that row.  The census records each power's order,
        ord(x^i) = k / gcd(i, k) for x of order k: it writes k into the byte
        of every power, then rewrites only the x^i with gcd(i, k) > 1 from
        ``_power_fixups(k)``, a list the walker keeps from the first walk
        that meets order k.  For a prime k that list is empty, and for k = 4
        it holds x^2 alone.

        The walker reads the tables when it is made, not when the chain is
        built: a chain whose tables are replaced afterwards (say with
        ``copy`` and a changed transversal) walks the tables it has now, so
        a power that its lookups do not know raises CertificationError
        rather than passing for the old chain's.
        """
        t0, t1, t2 = self.transversals
        tables = (len(t1), len(t2), self._inverse_at, self._offset_at, self._level12,
                  t0, t1, t2, *self.base, self.identity)
        size = self.size
        fixups: list[list[tuple[int, int]] | None] = [None] * 256  # [k]: _power_fixups(k)

        def walk(r: int, orders: bytearray | None = None) -> list[int] | None:
            if type(r) is not int or not 0 <= r < size:
                raise ValueError(f"{r!r} is no rank of the chain")
            n1, n2, inverse_at, offset_at, level12, t0, t1, t2, b0, b1, b2, one = tables
            if r == one:  # never a hole: its byte is 1 from the start
                return []
            while True:
                ab = r // n2
                a = ab // n1
                u0, u1, u2 = t0[a], t1[ab - a * n1], t2[r - ab * n2]
                p0, p1, p2 = u0[u1[u2[b0]]], u0[u1[u2[b1]]], u0[u1[u2[b2]]]
                powers = [r]
                for _ in range(254):
                    p0, p1, p2 = u0[u1[u2[p0]]], u0[u1[u2[p1]]], u0[u1[u2[p2]]]
                    inverse = inverse_at[p0]
                    s = offset_at[p0] + level12[inverse[p1]][inverse[p2]]
                    if s == one:
                        break
                    if s < 0:
                        raise CertificationError("the chain is not closed under products")
                    powers.append(s)
                else:
                    raise CertificationError("an element has order above 255, the census's limit")
                if orders is None:
                    return powers
                order = len(powers) + 1
                for x in powers:
                    orders[x] = order
                fixes = fixups[order]
                if fixes is None:
                    fixes = fixups[order] = _power_fixups(order)
                for i, o in fixes:
                    orders[powers[i]] = o
                r = orders.find(0, r + 1)  # the next hole
                if r < 0:
                    return None

        return walk

    def order(self, r: int) -> int:
        """The order of the element of rank r, from one ``cycle`` through r;
        nothing is kept.  ValueError for an r that is no rank, as ``cycle``
        refuses it."""
        return len(self.cycle(r)) + 1

    def orders(self) -> bytearray:
        """orders()[r] is the order of the element of rank r, one byte each:
        the power pass, the one store of |G| bytes, kept on the chain once
        the first call allocates it.  One call of one power walker walks from
        each rank, in rank order, whose byte is still 0 (``_power_walker``),
        and fills the bytes of its powers.  So each order comes from a power
        walk through its element, never from the closed forms or from the
        partition's counts."""
        if self._orders is None:
            self._orders = bytearray(self.size)
            self._orders[self.identity] = 1
        hole = self._orders.find(0)
        if hole >= 0:
            self._power_walker()(hole, self._orders)
        return self._orders


def _power_fixups(k: int) -> list[tuple[int, int]]:
    """(i - 1, k / gcd(i, k)) for each i in 1 to k - 1 with gcd(i, k) > 1:
    the powers x^i of an x of order k whose order is not k, by their index
    in the walk [x, x^2, ..., x^(k-1)], with their orders.  Empty for a
    prime k."""
    return [(i - 1, k // g) for i in range(2, k) if (g := gcd(i, k)) > 1]


@dataclass(frozen=True)
class SubgroupHandle:
    """A subgroup given by its members' ranks on a StabilizerChain, as a
    frozenset, or as a ``range`` for a rank prefix such as G_{b0}; its
    ``order`` is their count."""

    members: frozenset[int] | range
    cyclic_generator: int | None = dc_field(default=None, kw_only=True)

    @property
    def order(self) -> int:
        return len(self.members)


def enumerate_group(generators: Sequence[Mat4], limit: int) -> ElementTable:
    """Breadth-first closure of the generators, starting from the identity.

    The table keeps entry tuples only.  Each new element is lifted to a
    ``Mat4`` once and multiplied by every generator, so a closure of n
    elements makes n * len(generators) products.  Each product goes through
    ``Mat4.__mul__`` with a copy of its generator that carries the kernel of
    that right factor (``Mat4._as_right_factor``): zero entries of the
    generator drop their terms and unit entries their lookups.  Past the
    kernel, a step costs the lift and each product's new ``Mat4``, three
    plain slot stores apiece, and the key is read off the ``_entries`` slot.
    The caller's matrices are not touched, and the table's ``generators``
    are those very matrices.  Raises ClosureLimitError as soon as the
    element count would exceed ``limit`` (wrong generators or wrong limit).
    """
    if not generators:
        raise ValueError("need at least one generator")
    f = generators[0].field
    for g in generators[1:]:
        if g.field != f:
            raise ValueError("generators live in different fields")
    moves = [g._as_right_factor() for g in generators]
    # A dropped table frees its key tuples in hash order, and the first 2,000
    # freed 16-tuples stay on CPython's tuple free list, one in nearly every
    # pymalloc arena, so none of those arenas is returned: 368 MB stayed
    # resident after a B(128) table was dropped, and the next closure peaked
    # 30 MB above the first.  A full collection empties the free lists (to
    # 19 MB) and costs milliseconds; it runs here, not in ``_walk``, whose
    # small walks the chain runs many times per request.
    gc.collect()
    keys = _walk([Mat4.identity(f).entries], moves, mul, _entries, limit,
                 partial(Mat4._make, f))
    return ElementTable(field=f, keys=keys, generators=list(generators))


def empirical_order_stats(chain: StabilizerChain,
                          spec_hint: Spectrum | None = None) -> OrderStats:
    """Census of element orders over the whole chain (``chain.orders()``).

    An element whose order divides none of ``spec_hint``'s orders raises
    OrderNotFoundError, which is a finding (the chain is not the group the
    spectrum belongs to), not a crash to swallow.  With hints, the census
    counts only the orders 1 to 255 (all an order byte holds) that divide a
    hint, one ``bytearray.count`` each, at C speed; only when those counts
    miss elements does it scan the bytes for their distinct orders, to name
    the ones outside the hints.  Without hints (or with an empty set) it
    takes that scan for the orders to count.
    """
    orders = chain.orders()
    hints = sorted(spec_hint.orders) if spec_hint is not None else []
    if not hints:
        return OrderStats(counts={o: orders.count(o) for o in set(orders)}, total=chain.size)
    allowed = sorted({d for h in hints for d in range(1, 256) if h % d == 0})
    counts = {d: c for d in allowed if (c := orders.count(d))}
    if sum(counts.values()) != len(orders):
        outside = sorted(set(orders).difference(allowed))
        raise OrderNotFoundError(f"element orders {outside} lie outside the hints {hints}")
    return OrderStats(counts=counts, total=chain.size)


# ---------------------------------------------------------------------------
# Subgroup digging
# ---------------------------------------------------------------------------

def cyclic_subgroup(chain: StabilizerChain, generator: int, order: int) -> SubgroupHandle:
    """The subgroup generated by the element of rank ``generator``: the
    identity and the powers that ``chain.cycle`` walks.  ValueError for a
    generator that is no rank, or unless its order is ``order``; TypeError
    for an order that is no int (or a bool), before any walk."""
    _require_int("order", order)
    members = [chain.identity, *chain.cycle(generator)]
    if len(members) != order:
        raise ValueError(f"the generator does not have order {order}")
    return SubgroupHandle(frozenset(members), cyclic_generator=generator)


def subgroup(chain: StabilizerChain, generators: Iterable[int], limit: int) -> SubgroupHandle:
    """The subgroup generated by the elements of ranks ``generators``, closed
    by stepping base images through their permutations (``_hooks``);
    ClosureLimitError past ``limit`` elements, ValueError for a non-rank."""
    lift, act = chain._hooks(chain.base)
    moves = [(chain.permutation(g), 0, 1, 2) for g in generators]
    return SubgroupHandle(frozenset(_walk([chain.identity], moves, act, limit=limit, lift=lift)))


def find_cyclic_subgroup(chain: StabilizerChain, k: int) -> SubgroupHandle:
    """Cyclic subgroup generated by the first element of order k in rank
    order, for determinism: one power walker walks the ranks in order until
    one has order k, and keeps no order byte.  SubgroupNotFoundError before
    any walk for a k outside 1 to 255 or one that does not divide |G|
    (Lagrange), and after the last rank for a k that is no element's order;
    TypeError for a k that is no int (or a bool), before any walk.

    The walk starts at rank N1 N2 when k does not divide N1 N2, and at 0
    otherwise.  U0[0] is the identity, so the ranks below N1 N2 are the
    elements U1[b] U2[c], which fix b0.  There are N1 N2 = |G| / N0 =
    |G_{b0}| of them, so they are all of G_{b0}, and by Lagrange their
    orders divide N1 N2: none of them has order k, and the first element of
    order k in rank order is the same."""
    _require_int("k", k)
    if not 0 < k < 256 or chain.size % k:
        raise SubgroupNotFoundError(f"no element of order {k} in the chain")
    n12 = len(chain.orbits[1]) * len(chain.orbits[2])
    walk = chain._power_walker()
    for r in range(n12 if n12 % k else 0, chain.size):
        if len(walk(r)) + 1 == k:
            return cyclic_subgroup(chain, r, k)
    raise SubgroupNotFoundError(f"no element of order {k} in the chain")


def _generating_set(chain: StabilizerChain, members: frozenset[int]) -> list[int]:
    """A generating set of the subgroup with these members: walk them in
    sorted order and keep each one that the spans (``subgroup``) of the kept
    ones miss.  ValueError when the members are not a subgroup."""
    gens, span = [], {chain.identity}
    for x in sorted(members):
        if x not in span:
            gens.append(x)
            span = subgroup(chain, gens, chain.size).members
    if len(span) != len(members):
        raise ValueError("the members do not form a subgroup")
    return gens


def _transporter(chain: StabilizerChain, x: int,
                 targets: AbstractSet[int]) -> Iterable[int]:
    """The ranks g whose conjugate g^-1 x g ("first g, then x, then g^-1")
    is the element of a rank in ``targets``, found from three points.

    g^-1 x g = t makes g(t(p)) = x(g(p)): g maps t's source (p, tp, t^2 p),
    p the first base point t^2 moves, to (P, xP, x^2 P), P = g(p), or for
    involutions (f_t, p, tp) to (f_x, P, xP), f the fixed point.  A triple
    (u, v, w) is k (b0, b1, r) for one k = U0[a] U1[b] U2[c] and one r, the
    least point of an H2-orbit: U0[a]^-1 is ``_inverse_at[u]``, a is
    ``_offset_at[u]`` / (N1 N2), b and c are the places of U0[a]^-1 v and
    of w's image in their orbits (``_at1``, ``_at2``, ``_rep2``).  Only the
    identity fixes three points, so g = k_P k_t^-1 for the P whose r is the
    source's.  x's triples are reduced once, all P together, and g is sifted
    once it also maps t(w) to x(w'), w and w' the triples' third points (for
    involutions this always holds): g t and x g then agree on three points.
    CertificationError for an involution x that fixes other than one point.
    """
    one, base, x_ = chain.identity, chain.base, chain.permutation(x)
    if x == one:
        return range(chain.size) if one in targets else []
    (t0, t1, t2), (_, i1, i2) = chain.transversals, chain._inverses
    inverse_at, offset_at = chain._inverse_at, chain._offset_at
    at1, rep2, at2, n12 = chain._at1, chain._rep2, chain._at2, len(t1) * len(t2)
    points, involution = range(len(x_)), all(x_[x_[p]] == p for p in base)
    fixed = [p for p in points if x_[p] == p]
    if involution and len(fixed) != 1:
        raise CertificationError(f"an involution fixes {len(fixed)} points, not one")
    wanted: dict[int, list[int]] = {}  # by r: k_t^-1 of b0, b1, b2 and t(w), per source
    for t in targets:
        if t == one:
            continue
        u0, u1, u2 = chain.element(t)
        image = {p: u0[u1[u2[p]]] for p in base}
        moved = [p for p in base if u0[u1[u2[image[p]]]] != p]  # by t^2
        if involution == bool(moved):  # t has order 2 and x not, or the reverse
            continue
        if involution:
            p = next(p for p in base if image[p] != p)
            f = next((f for f in (*base, *points) if u0[u1[u2[f]]] == f), None)
            if f is None:
                continue
            u, v = f, p
        else:
            u = moved[0]
            v = image[u]
        w = u0[u1[u2[v]]]
        v0 = inverse_at[u]
        z = i1[b := at1[v0[v]]][v0[w]]
        v2 = i2[at2[z]]
        wanted.setdefault(rep2[z], []).append([v2[i1[b][v0[s]]]
                                               for s in (*base, u0[u1[u2[w]]])])
    # x's triples (u, v, w) for every P, reduced a level at a time in C
    if involution:
        ps = [p for p in points if x_[p] != p]
        us, vs = fixed * len(ps), ps
    else:
        ps = [p for p in points if x_[x_[p]] != p]
        us, vs = ps, [x_[p] for p in ps]
    ws, get, found = [x_[v] for v in vs], list.__getitem__, []
    rows0 = [inverse_at[u] for u in us]
    bs = [at1[v] for v in map(get, rows0, vs)]
    zs = list(map(get, map(i1.__getitem__, bs), map(get, rows0, ws)))
    for u, b, z, w in zip(us, bs, zs, ws):
        if rep2[z] in wanted:  # the sources' points under k_P
            u0, u1, u2, xw = t0[offset_at[u] // n12], t1[b], t2[at2[z]], x_[w]
            for s0, s1, s2, s3 in wanted[rep2[z]]:
                if u0[u1[u2[s3]]] == xw:
                    found.append(chain.sift(u0[u1[u2[s0]]], u0[u1[u2[s1]]], u0[u1[u2[s2]]]))
    if found and min(found) < 0:
        raise CertificationError("the chain is not closed under products")
    return found


def normalizer(chain: StabilizerChain, sub: SubgroupHandle) -> SubgroupHandle:
    """All g with g^-1 H g = H, as ranks of a certified chain: the g with
    g^-1 h g in H for each h of a generating set of H, one three-point
    search (``_transporter``) each, since g^-1 H g, which those conjugates
    generate, then lies in H and has |H| elements.  A cyclic H brings its
    generator, any other gets ``_generating_set`` (3 elements for W at
    q = 8), and the trivial subgroup has none and is normalized by every g.
    ``verify`` scans only its cyclic classes: it proves N(W) from W's one
    fixed point (``_normalizer_of_w``), and this scan is the tests'
    reference for it.  ValueError for members that are no ranks of the
    chain or no subgroup.
    """
    cyclic = [] if sub.cyclic_generator is None else [sub.cyclic_generator]
    for r in (*sub.members, *cyclic):
        chain._require_rank(r)
    gens = cyclic or _generating_set(chain, sub.members)
    if not gens:
        return SubgroupHandle(frozenset(range(chain.size)))
    scans = (_transporter(chain, g, sub.members) for g in gens)
    return SubgroupHandle(frozenset(next(scans)).intersection(*scans))


def centralizer(chain: StabilizerChain, x: int) -> SubgroupHandle:
    """All g commuting with the element of rank x, as ranks of a certified
    chain: the g with g^-1 x g = x, one three-point search
    (``_transporter``) with x as its one target.  ValueError for an x that
    is no rank of it.
    """
    return SubgroupHandle(frozenset(_transporter(chain, x, {x})))


# ---------------------------------------------------------------------------
# Partition verification
# ---------------------------------------------------------------------------

@dataclass
class PartitionReport:
    """Outcome of the counting certificate for the partition of the group
    into the conjugates of the four reference classes (``verify_partition``).

    ``multiply_covered`` and ``missing`` are exact when the certificate
    holds and None when it does not.  ``classes`` and ``normalizers`` hold
    the subgroups the certificate dug, by class name ("w", "u1", "u2", "v"),
    for the caller's own checks; they take no part in ``==``, ``repr`` or
    the JSON.  ``normalizers["w"]`` is ``range(N1 N2)`` when N(W) is proved
    and the identity alone when it is not.  ``census`` is the order census
    read off the partition when both ``multiply_covered`` and ``missing``
    are 0, and None otherwise; it takes no part in ``==`` or the JSON."""

    measured: PartitionClassCounts
    expected: PartitionClassCounts
    coverage: int                 # sum over the classes of n_i (|H_i| - 1)
    expected_coverage: int        # group order - 1
    multiply_covered: int | None  # nontrivial elements in two conjugates or more
    missing: int | None           # nontrivial elements in no conjugate
    classes: dict[str, SubgroupHandle] = dc_field(
        default_factory=dict, repr=False, compare=False)
    normalizers: dict[str, SubgroupHandle] = dc_field(
        default_factory=dict, repr=False, compare=False)
    census: OrderStats | None = dc_field(default=None, compare=False)

    @property
    def passed(self) -> bool:
        return (self.measured == self.expected
                and self.multiply_covered == 0
                and self.missing == 0
                and self.coverage == self.expected_coverage)

    def to_json_dict(self) -> dict:
        expected = {f"expected_{name}": n for name, n in asdict(self.expected).items()}
        return {
            **asdict(self.measured),
            **expected,
            "coverage": self.coverage,
            "expected_coverage": self.expected_coverage,
            "multiply_covered": self.multiply_covered,
            "missing": self.missing,
            "passed": int(self.passed),
        }


def _is_ti(chain: StabilizerChain, h: SubgroupHandle, n: SubgroupHandle) -> bool:
    """Whether two distinct conjugates of the cyclic H meet only in the
    identity, given n = N(H); a False is no proof that they meet.  W's TI is
    proved with N(W) (``_normalizer_of_w``).

    A cyclic H of prime order is TI by Lagrange.  In a cyclic H of order k,
    a nontrivial H ∩ H^g holds a subgroup of prime order p, the only one of
    that order in H and in H^g, so g normalizes P, the subgroup of order p
    of H; if N(P) = N(H) for each prime p < k dividing k, then H^g = H.  P
    is generated by x^(k/p), read off the powers of H's generator x that
    ``cycle`` steps.
    """
    powers = [chain.identity, *chain.cycle(h.cyclic_generator)]  # x^i at index i
    k = len(powers)
    return all(normalizer(chain, cyclic_subgroup(chain, powers[k // p], p)).members
               == n.members for p in factorize(k) if p < k)


def _normalizer_of_w(chain: StabilizerChain, w: SubgroupHandle) -> SubgroupHandle | None:
    """N(W) = G_{b0}, the ranks below N1 N2, and W TI, both proved from W's
    one fixed point, or None when a premise fails; no scan runs.

    The premises: |W| is a power of 2; N1 = N0 - 1 and N2 is odd; W's
    largest rank fixes b0 and no other point; and each of w(1, 0), w(0, 1)
    and d(lam) (``generator_ranks[:3]``) conjugates every member of W into
    W, one lift and one act of ``_hooks`` per member.  The ranks that fix
    b0 are those below N1 N2, so every member of W lies in G_{b0}
    (``find_cyclic_subgroup``), and Fix(W) = {b0}.  N(W) permutes Fix(W),
    so N(W) <= G_{b0}, and the chain certifies G_{b0} = H1 = <w(1, 0),
    w(0, 1), d(lam)>, which then normalizes W: N(W) = G_{b0}.

    N1 = N0 - 1 makes G 2-transitive, so every two-point stabilizer is
    conjugate to G_{b0,b1} = <d(lam)>, of odd order N2, and a nontrivial
    2-element, such as each nontrivial member of W, fixes at most one
    point.  A nontrivial h in W ∩ W^g fixes b0 and the point b0 g that
    W^g fixes, so b0 g = b0: g lies in G_{b0} = N(W), and W^g = W.  The
    chain's certificate already implies both conditions on N1 and N2
    (semiregularity makes N2 divide q^2 - 1, so N2 is odd, and then
    N1 N2 = q^2 (q - 1) forces N1 = q^2), but they are the proof's premises
    and cost two comparisons."""
    n0, n1, n2 = map(len, chain.orbits)
    if w.order & (w.order - 1) or n1 != n0 - 1 or n2 % 2 == 0:
        return None
    x_ = chain.permutation(max(w.members))
    if [p for p, x in enumerate(x_) if p == x] != [chain.base[0]]:
        return None
    for g_ in map(chain.permutation, chain.generator_ranks[:3]):
        inverse = sorted(range(len(g_)), key=g_.__getitem__)  # at x, the p that g maps to x
        lift, act = chain._hooks([g_[b] for b in chain.base])
        move = (inverse, 0, 1, 2)  # first g, then t, then g^-1
        if any(act(lift(t), move) not in w.members for t in w.members):
            return None
    return SubgroupHandle(range(n1 * n2))


def unitriangular(chain: StabilizerChain) -> SubgroupHandle:
    """W = {w(a, b)} as ranks, closed on the chain from the ranks of the
    2m + 2 ``w_generators``, whose docstring proves that they generate W.
    w(1, 0) and w(0, 1) are candidate generators of the chain, whose ranks it
    keeps (``generator_ranks``), so only the other 2m matrices are ranked
    (``StabilizerChain.rank``).  Every generator lies in W, so the closure
    does, and the limit of q^2 elements bounds it; the caller checks that it
    has all q^2 (``verify``'s w_subgroup check)."""
    known = dict(zip(chain.generators, chain.generator_ranks))
    ranks = [known[g] if g in known else chain.rank(g) for g in w_generators(chain.field)]
    return subgroup(chain, ranks, chain.field.q ** 2)


def verify_partition(chain: StabilizerChain, w: SubgroupHandle | None = None) -> PartitionReport:
    """Prove by counting that the conjugates of four classes H_i cover each
    nontrivial element of the chain's group G exactly once (Suzuki, Ann. of
    Math. 75, 1962), and count those conjugates.

    The classes are ranks on the chain: W = {w(a, b)} (``w``, closed by
    ``unitriangular`` when not given) and the cyclic subgroups of orders
    q+s+1, q-s+1 and q-1 that ``find_cyclic_subgroup`` digs.  Class i has
    n_i = |G : N(H_i)| conjugates, from the chain's certified |G| and
    N(H_i): ``normalizer``'s scans for the cyclic classes, and for W the
    rank prefix G_{b0}, ``range(N1 N2)``, that ``_normalizer_of_w`` proves
    from W's one fixed point, with no scan and no set of its ranks; that
    proof also shows W TI.  When it proves nothing, N(W) is taken as the
    identity alone, which normalizes any W.  The certificate holds when
    N(W) is proved, every index is an integer, the four |H_i| are pairwise
    coprime (so conjugates of two classes meet trivially) and each cyclic
    class is TI (``_is_ti``: two of its conjugates meet trivially).  Then
    the conjugates are disjoint outside the identity, ``multiply_covered``
    is 0 and ``missing`` is |G| - 1 - coverage, with coverage =
    sum n_i (|H_i| - 1); otherwise both are None and the report fails.  No
    conjugate of a class is walked, and nothing of size |G| is built: no
    order byte is allocated, so this runs on Sz(32) in a fraction of a
    second.

    When both are 0, every nontrivial element lies in exactly one conjugate
    of one class, and a conjugation keeps orders, so the report's
    ``census`` is count(d) = sum_i n_i #{h in H_i, h != 1 : ord h = d}, with
    count(1) = 1.  Each member's order comes from its power walk, all by one
    power walker (``StabilizerChain._power_walker``): measured indices and
    power walks, no closed form.
    """
    params = chain.params
    classes = {"w": unitriangular(chain) if w is None else w}
    n_w = _normalizer_of_w(chain, classes["w"])
    normalizers = {"w": n_w or SubgroupHandle(frozenset([chain.identity]))}
    for name in ("u1", "u2", "v"):
        classes[name] = find_cyclic_subgroup(chain, getattr(params, name))
        normalizers[name] = normalizer(chain, classes[name])
    counts = {name: chain.size // n.order for name, n in normalizers.items()}
    coverage = sum(counts[name] * (h.order - 1) for name, h in classes.items())
    certified = (n_w is not None and all(chain.size % n.order == 0 for n in normalizers.values())
                 and all(gcd(a.order, b.order) == 1
                         for a, b in combinations(classes.values(), 2))
                 and all(_is_ti(chain, classes[name], normalizers[name])
                         for name in ("u1", "u2", "v")))
    missing = chain.size - 1 - coverage if certified else None
    census = None
    if certified and missing == 0:
        tally = Counter({1: 1})
        walk = chain._power_walker()
        for name, h in classes.items():
            for r in h.members - {chain.identity}:
                tally[len(walk(r)) + 1] += counts[name]
        census = OrderStats(counts=dict(tally), total=chain.size)
    return PartitionReport(
        measured=PartitionClassCounts(n_w=counts["w"], n_u1=counts["u1"],
                                      n_u2=counts["u2"], n_v=counts["v"]),
        expected=closed_form_subgroup_counts(params),
        coverage=coverage,
        expected_coverage=params.group_order - 1,
        multiply_covered=0 if certified else None,
        missing=missing,
        classes=classes,
        normalizers=normalizers,
        census=census,
    )
