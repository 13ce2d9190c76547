"""Brute-force ground truth for desk-scale Suzuki groups.

Enumerates a group from generators by breadth-first closure, takes empirical
order censuses from one pass over the cyclic subgroups, digs out cyclic
subgroups, normalizers and centralizers by direct scan, and verifies that the
conjugates of the four reference subgroups cover every nontrivial element
exactly once.

Every table keys its elements by a hashable key, stores nothing but those
keys (``by_key`` maps each to itself), and addresses them by one number, their
``position`` in ``sorted_keys()``.  Two carriers share that interface:

* ``enumerate_group`` closes any set of matrices and keys each element by its
  entry tuple; such a table closes and counts (``orders()``), and
  ``element(key)`` rebuilds a matrix from its key on demand;
* ``build_suzuki_table`` lets Sz(q) act on the q^2 + 1 points of its ovoid and
  keys each element by the ``bytes`` permutation it induces there
  (``OvoidTable``), so a product is one ``bytes.translate``.  Only this table
  conjugates, so ``normalizer``, ``centralizer`` and ``verify_partition`` scan
  it alone, and ``subgroup`` closes W inside it: ``verify`` needs no matrix
  table.

Matrices stay at the boundary: ``table.key(mat)`` is the one place where a
matrix becomes a table key (for the ovoid table, the matrix's point action),
and ``table.element(key)`` the one place where a key of a matrix table becomes
a matrix again.

Everything here is deliberately dumb and exact: this module is the oracle the
closed forms are tested against, so it must not share their shortcuts.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field as dc_field
from math import gcd
from functools import partial
from operator import attrgetter, mul
from typing import Callable, Hashable, Iterable, Iterator, KeysView, Sequence

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
from .orderstats import OrderStats, Spectrum

Key = Hashable  # an entry tuple, or a bytes permutation in an OvoidTable
Point = tuple[int, int, int, int]
_entries = attrgetter("entries")

# A bytes permutation numbers its points with single bytes.
MAX_POINTS = 256


class ClosureLimitError(RuntimeError):
    """Breadth-first closure outgrew the caller's limit."""


class ScaleRefusal(RuntimeError):
    """The requested enumeration is beyond the configured desk scale."""


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
    ``element(key)`` rebuilds one on demand.  ``OvoidTable`` changes the
    carrier by overriding ``key``, ``element``, ``mul`` and ``identity`` and
    adds the conjugations the scans use.  The lazily filled caches take no
    part in ``==``.
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
    as it is, and names no point."""
    m, (x0, x1, x2, x3), e = field._mul, point, mat.entries
    image = (m(x0, e[0]) ^ m(x1, e[4]) ^ m(x2, e[8]) ^ m(x3, e[12]),
             m(x0, e[1]) ^ m(x1, e[5]) ^ m(x2, e[9]) ^ m(x3, e[13]),
             m(x0, e[2]) ^ m(x1, e[6]) ^ m(x2, e[10]) ^ m(x3, e[14]),
             m(x0, e[3]) ^ m(x1, e[7]) ^ m(x2, e[11]) ^ m(x3, e[15]))
    scale = field._inv(next((c for c in image if c), 1))
    return tuple(m(scale, c) for c in image)


@dataclass
class OvoidTable(ElementTable):
    """Sz(q) as permutations of the points of its ovoid.

    ``points`` lists the ovoid ascending; the key of an element g is the
    ``bytes`` whose byte k is the number of the image of point k under the
    row-vector action p -> p g, and ``by_key`` maps each key to itself.  So
    the key of g h is ``key(g).translate(key(h) + pad)``: first g, then h.
    """

    points: list[Point] = dc_field(repr=False)
    _pad: bytes = dc_field(init=False, repr=False, compare=False)
    _number: dict[Point, int] = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._pad = bytes(256 - len(self.points))  # translate tables have 256 bytes
        self._number = {p: k for k, p in enumerate(self.points)}

    def key(self, mat: Mat4) -> bytes:
        """The permutation a matrix of Sz(q) induces on the ovoid: byte k is
        the number of the image of point k.  ValueError for a matrix that does
        not map the ovoid to itself."""
        f = self.field
        try:
            return bytes([self._number[_point_image(f, p, mat)] for p in self.points])
        except KeyError:
            raise ValueError("matrix does not map the ovoid to itself") from None

    def element(self, key: bytes) -> bytes:
        """The permutation keyed ``key``, which is the key itself; ValueError
        for a key outside the table."""
        if key not in self.by_key:
            raise ValueError("element is not in the table")
        return key

    def mul(self, a: bytes, b: bytes) -> bytes:
        return a.translate(b + self._pad)

    @property
    def identity(self) -> bytes:
        return bytes(range(len(self.points)))

    def conjugates(self, h: bytes, positions: Iterable[int]) -> Iterator[bytes]:
        """g h g^-1 for the element g at each of ``positions``."""
        keys, inverses, pad = self.sorted_keys(), self.inverses(), self._pad
        hp = h + pad
        return (keys[i].translate(hp).translate(keys[inverses[i]] + pad) for i in positions)

    def conjugation(self, s: bytes) -> array:
        """conjugation(s)[i] is the position of s x s^-1 for the element x at
        position i.  A product outside the table means the table is not the
        group its products generate: CertificationError."""
        keys, pad, at = self.sorted_keys(), self._pad, self._position_map()
        si = keys[self.inverses()[self.position(s)]] + pad
        try:
            return array("i", [at[s.translate(x + pad).translate(si)] for x in keys])
        except KeyError:
            raise CertificationError("table is not closed under products") from None


@dataclass(frozen=True)
class SubgroupHandle:
    """A subgroup given by its members' keys inside some ElementTable."""

    members: frozenset[Key]
    order: int
    cyclic_generator: Key | None = None


def enumerate_group(generators: Sequence[Mat4], limit: int) -> ElementTable:
    """Breadth-first closure of the generators, starting from the identity.

    The table keeps entry tuples only.  Each new element is lifted to a
    ``Mat4`` once and multiplied by every generator, so a closure of n
    elements makes n * len(generators) products.  Raises ClosureLimitError
    as soon as the element count would exceed ``limit`` (wrong generators or
    wrong limit).
    """
    if not generators:
        raise ValueError("need at least one generator")
    f = generators[0].field
    for g in generators[1:]:
        if g.field != f:
            raise ValueError("generators live in different fields")
    by_key = _walk([Mat4.identity(f).entries], generators, mul, _entries, limit,
                   partial(Mat4._make, f))
    return ElementTable(field=f, by_key=by_key, generators=list(generators))


def build_suzuki_table(params: SuzukiParams, field: Field) -> tuple[list[Mat4], OvoidTable]:
    """Enumerate Sz(q) as permutations of its ovoid and certify the size.

    The ovoid is the orbit of the point <e1> under the candidate generators,
    found with field arithmetic alone; it must have q^2 + 1 points, at most
    MAX_POINTS (ScaleRefusal beyond, before any work).  Each generator becomes a
    byte permutation of those points and the closure is walked with
    ``bytes.translate``.

    Returns (generators, table).  The candidates lie in Sz(q), so the group G
    they generate has at most |Sz(q)| elements, and at least as many as its
    image in the permutations.  A closure of exactly
    |Sz(q)| = q^2 (q^2 + 1)(q - 1) permutations therefore proves both that G
    is Sz(q) and that the action is faithful; any other orbit or closure size
    raises CertificationError.
    """
    n_points = params.q * params.q + 1
    if n_points > MAX_POINTS:
        raise ScaleRefusal(
            f"Sz({params.q}) acts on {n_points} ovoid points, but the oracle's byte "
            f"permutations hold at most {MAX_POINTS}; an oracle for q >= 32 needs "
            "a stabilizer chain")
    gens = candidate_generators(params, field)
    orbit = _walk([(1, 0, 0, 0)], gens, lambda p, g: _point_image(field, p, g))
    if len(orbit) != n_points:
        raise CertificationError(
            f"the orbit of <e1> has {len(orbit)} points, expected q^2 + 1 = {n_points}")
    table = OvoidTable(field, {}, gens, sorted(orbit))
    moves = [table.key(g) + table._pad for g in gens]
    try:
        table.by_key = _walk([table.identity], moves, bytes.translate,
                             limit=params.group_order)
    except ClosureLimitError as e:
        raise CertificationError(
            f"generator closure exceeds |Sz({params.q})| = {params.group_order}") from e
    if table.size != params.group_order:
        raise CertificationError(
            f"generator closure has {table.size} elements, "
            f"expected |Sz({params.q})| = {params.group_order}")
    return gens, table


def empirical_order_stats(table: ElementTable, spec_hint: Spectrum | None = None) -> OrderStats:
    """Census of element orders over the whole table.

    An element whose order divides none of ``spec_hint``'s orders raises
    OrderNotFoundError, which is a finding (the table is not the group the
    spectrum belongs to), not a crash to swallow.
    """
    hints = tuple(spec_hint.orders) if spec_hint is not None else ()
    counts: dict[int, int] = {}
    for o in table.orders():
        counts[o] = counts.get(o, 0) + 1
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


def normalizer(table: OvoidTable, sub: SubgroupHandle) -> SubgroupHandle:
    """All g with g H g^-1 = H, by scanning the whole ovoid table.

    Conjugating the generator of a cyclic H, or else every member, into H
    suffices: the conjugate is a subgroup of the same order.  Each scan after
    the first visits only the elements that passed the ones before.  H must
    lie inside the table (ValueError).
    """
    if not sub.members <= table.by_key.keys():
        raise ValueError("subgroup is not in the table")
    gens = [sub.cyclic_generator] if sub.cyclic_generator is not None else \
        sorted(sub.members - {table.identity})
    found: Sequence[int] = range(table.size)
    for h in gens:
        found = [i for i, c in zip(found, table.conjugates(h, found)) if c in sub.members]
    keys = table.sorted_keys()
    return SubgroupHandle(frozenset(keys[i] for i in found), len(found))


def centralizer(table: OvoidTable, x: bytes) -> SubgroupHandle:
    """All g in the ovoid table commuting with the element keyed x, i.e. with
    g x g^-1 = x; x must lie in the table (ValueError)."""
    table.position(x)
    keys, everything = table.sorted_keys(), range(table.size)
    members = frozenset(keys[i] for i, c in zip(everything, table.conjugates(x, everything))
                        if c == x)
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


def _orbit(table: OvoidTable, members: frozenset[bytes],
           moves: list[array]) -> KeysView[frozenset[int]]:
    """Orbit of a member set under conjugation by the group, as position sets.

    ``moves`` are the generators' ``conjugation`` permutations: conjugation is
    a group action, so generator moves alone reach the full orbit.
    """
    def conjugate(sub: frozenset[int], c: array) -> frozenset[int]:
        return frozenset(map(c.__getitem__, sub))

    return _walk([frozenset(map(table.position, members))], moves, conjugate).keys()


def verify_partition(table: OvoidTable, params: SuzukiParams) -> PartitionReport:
    """Conjugate one representative of each class and check the cover.

    Representatives: the unitriangular subgroup {w(a, b)} of order q^2,
    closed inside the table, and cyclic subgroups of orders q+s+1, q-s+1
    and q-1 dug out of it.
    The orbits are walked with one ``conjugation`` array per generator, except
    that a generator in the cyclic group of one kept before adds no move and
    is skipped (w(0, 1) = w(1, 0)^2 among the candidates).
    """
    w = subgroup(table, map(table.key, w_generators(table.field)), params.w_order)
    if not w.members <= table.by_key.keys():
        raise ValueError("table does not contain the unitriangular subgroup")
    reps = {
        "w": w.members,
        "u1": find_cyclic_subgroup(table, params.u1).members,
        "u2": find_cyclic_subgroup(table, params.u2).members,
        "v": find_cyclic_subgroup(table, params.v).members,
    }
    moves, powers = [], set()
    for s in map(table.key, table.generators):
        if s not in powers:
            moves.append(table.conjugation(s))
            powers |= cyclic_subgroup(table, s, table.orders()[table.position(s)]).members
    hits = array("i", bytes(4 * table.size))
    orbit_sizes: dict[str, int] = {}
    for name, members in reps.items():
        orbit = _orbit(table, members, moves)
        orbit_sizes[name] = len(orbit)
        for conj in orbit:
            for i in conj:
                hits[i] += 1
    hits[table.position(table.identity)] = 0  # in every conjugate: not counted
    measured = PartitionClassCounts(
        n_w=orbit_sizes["w"], n_u1=orbit_sizes["u1"],
        n_u2=orbit_sizes["u2"], n_v=orbit_sizes["v"])
    multiply = sum(1 for c in hits if c > 1)
    missing = hits.count(0) - 1
    return PartitionReport(
        measured=measured,
        expected=closed_form_subgroup_counts(params),
        coverage=sum(hits),
        expected_coverage=params.group_order - 1,
        multiply_covered=multiply,
        missing=missing,
    )
