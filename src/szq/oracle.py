"""Brute-force ground truth for desk-scale Suzuki groups.

Enumerates the group from generators by breadth-first closure over the
matrices' entry tuples, takes empirical order censuses from one pass over the
cyclic subgroups, digs out cyclic subgroups, normalizers and centralizers by
direct scan, and verifies that the conjugates of the four reference subgroups
cover every nontrivial element exactly once.  Elements are addressed by one
number, their ``ElementTable.position``; the scans and the conjugate walks
run on an integer index of the table (``_GroupIndex``) whose permutations
are built once from real matrix products.

Everything here is deliberately dumb and exact: this module is the oracle the
closed forms are tested against, so it must not share their shortcuts.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field as dc_field
from math import gcd
from operator import attrgetter, mul
from typing import Callable, Hashable, Iterable, Sequence

from .field import Field
from .group import (
    CertificationError,
    PartitionClassCounts,
    SuzukiParams,
    candidate_generators,
    closed_form_subgroup_counts,
    w_elements,
)
from .mat4 import Mat4, OrderNotFoundError
from .orderstats import OrderStats, Spectrum

Entries = tuple[int, ...]
_entries = attrgetter("entries")


class ClosureLimitError(RuntimeError):
    """Breadth-first closure outgrew the caller's limit."""


class SubgroupNotFoundError(LookupError):
    """No element of the requested order exists in the table."""


def _walk(seeds: Iterable, moves: Sequence, act: Callable, key: Callable[..., Hashable],
          limit: int | None = None) -> dict:
    """Breadth-first closure of ``seeds`` under ``act(x, move)``: {key(x): x}.

    The one walker behind every closure in this module.  Raises
    ClosureLimitError as soon as the element count would exceed ``limit``.
    """
    seen = {key(s): s for s in seeds}
    frontier = list(seen.values())
    while frontier:
        new = []
        for a in frontier:
            for g in moves:
                b = act(a, g)
                k = key(b)
                if k not in seen:
                    if limit is not None and len(seen) >= limit:
                        raise ClosureLimitError(f"closure exceeds limit {limit}")
                    seen[k] = b
                    new.append(b)
        frontier = new
    return seen


class _GroupIndex:
    """Integer index of a whole ElementTable, built once from real products.

    * ``generators`` are the table generators s_j that do not already lie in
      the group generated by the earlier ones (w(0, 1) = w(1, 0)^2, for one,
      adds nothing).
    * ``conj[j][i]`` is the ``table.position`` of s_j x_i s_j^-1.
    * ``tree`` lists every non-identity position once, breadth-first, as
      (position, parent, j) with x_position = s_j x_parent: a spanning tree
      of left moves from the identity.

    Along the tree, phi(g) = g h g^-1 follows from phi(s_j g) =
    conj[j][phi(g)] without a product, so normalizer and centralizer scans
    are lookups.  A product outside the table, a permutation that is not a
    bijection or a tree that misses an element raises CertificationError:
    the table is then not the group its generators generate.
    """

    def __init__(self, table: "ElementTable") -> None:
        keys, by_key, position = table.sorted_keys(), table.by_key, table.position
        self.size = n = len(keys)
        self.generators: list[Mat4] = []
        self.conj: list[array] = []
        left: list[array] = []  # left[j][i]: position of s_j x_i
        try:
            self.root = position(Mat4.identity(table.field).entries)
            at = [position(s.entries) for s in table.generators]
        except ValueError:
            raise CertificationError("table lacks the identity or a generator") from None
        seen, self.tree = self._left_tree(left)
        for s, p in zip(table.generators, at):
            if seen[p]:
                continue  # s lies in the group generated by the earlier ones
            si = s.inv()
            c, lm = array("i", bytes(4 * n)), array("i", bytes(4 * n))
            hit = bytearray(n)
            try:
                for i, k in enumerate(keys):
                    sx = s * by_key[k]
                    lm[i] = position(sx.entries)
                    c[i] = x = position((sx * si).entries)
                    hit[x] = 1
            except ValueError:
                raise CertificationError(
                    "table is not closed under its generators' products") from None
            if hit.count(0):
                raise CertificationError("a conjugation permutation is not a bijection")
            self.generators.append(s)
            self.conj.append(c)
            left.append(lm)
            seen, self.tree = self._left_tree(left)
        if seen.count(0):
            raise CertificationError(
                f"left moves by the generators reach {n - seen.count(0)} of {n} elements")

    def _left_tree(self, left: list[array]) -> tuple[bytearray, tuple[array, array, array]]:
        """Breadth-first tree of left moves from the identity: the positions
        reached, and (nodes, parents, moves) in breadth-first order.

        Not routed through ``_walk``: its dict of tuples would hold one entry
        per element on top of these flat arrays, which raised the peak RSS of
        an Sz(8) verify by about 8 %.
        """
        seen = bytearray(self.size)
        seen[self.root] = 1
        nodes, parents, moves = array("i"), array("i"), array("i")
        frontier = [self.root]
        while frontier:
            new = []
            for p in frontier:
                for j, lm in enumerate(left):
                    x = lm[p]
                    if not seen[x]:
                        seen[x] = 1
                        nodes.append(x)
                        parents.append(p)
                        moves.append(j)
                        new.append(x)
            frontier = new
        return seen, (nodes, parents, moves)

    def conjugates(self, h: int) -> array:
        """phi[i] = position of x_i h x_i^-1, for every position i."""
        phi = array("i", bytes(4 * self.size))
        phi[self.root] = h
        conj = self.conj
        for x, p, j in zip(*self.tree):
            phi[x] = conj[j][phi[p]]
        return phi


@dataclass
class ElementTable:
    """A fully enumerated matrix group, keyed by the matrices' entry tuples
    and addressed by ``position(key)``, the key's place in ``sorted_keys()``:
    the order census and the scan index are arrays over positions."""

    field: Field
    by_key: dict[Entries, Mat4]
    generators: list[Mat4]
    _sorted_keys: list[Entries] | None = dc_field(default=None, repr=False)
    _positions: dict[Entries, int] | None = dc_field(default=None, repr=False)
    _orders: array | None = dc_field(default=None, repr=False)
    _index: _GroupIndex | None = dc_field(default=None, repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.by_key)

    def sorted_keys(self) -> list[Entries]:
        """Canonical iteration order: entry tuples ascending."""
        if self._sorted_keys is None:
            self._sorted_keys = sorted(self.by_key)
        return self._sorted_keys

    def position(self, key: Entries) -> int:
        """Place of an entry tuple in ``sorted_keys()``; ValueError for a key
        outside the table."""
        if self._positions is None:
            self._positions = {k: i for i, k in enumerate(self.sorted_keys())}
        try:
            return self._positions[key]
        except KeyError:
            raise ValueError("element is not in the table") from None

    def orders(self) -> array:
        """orders()[i] is the order of the element at position i (computed once).

        The power pass: for each element x not yet met as a power, in sorted
        order, walk x, x^2, ..., x^k = 1 once and record ord(x^i) =
        k / gcd(i, k) for all k powers.  Only group multiplication is used, so
        the census stays independent of the closed forms.
        """
        if self._orders is not None:
            return self._orders
        by_key, position = self.by_key, self.position
        orders = array("i", bytes(4 * self.size))  # 0: not yet met
        for start, key in enumerate(self.sorted_keys()):
            if orders[start]:
                continue
            x = by_key[key]
            powers = [start]  # powers[i - 1] is the position of x^i
            p = x
            while not p.is_identity():
                if len(powers) >= self.size:
                    raise OrderNotFoundError(f"no power of {x!r} within the table size")
                p = p * x
                powers.append(position(p.entries))
            k = len(powers)
            for i, pi in enumerate(powers, 1):
                orders[pi] = k // gcd(i, k)
        self._orders = orders
        return orders

    def _group_index(self) -> _GroupIndex:
        if self._index is None:
            self._index = _GroupIndex(self)
        return self._index


@dataclass(frozen=True)
class SubgroupHandle:
    """A subgroup given by its members' entry tuples inside some ElementTable."""

    members: frozenset[Entries]
    order: int
    cyclic_generator: Mat4 | None = None


def enumerate_group(generators: Sequence[Mat4], limit: int) -> ElementTable:
    """Breadth-first closure of the generators, starting from the identity.

    Raises ClosureLimitError as soon as the element count would exceed
    ``limit`` (wrong generators or wrong limit).
    """
    if not generators:
        raise ValueError("need at least one generator")
    f = generators[0].field
    for g in generators[1:]:
        if g.field != f:
            raise ValueError("generators live in different fields")
    by_key = _walk([Mat4.identity(f)], generators, mul, _entries, limit)
    return ElementTable(field=f, by_key=by_key, generators=list(generators))


def build_suzuki_table(params: SuzukiParams, field: Field) -> tuple[list[Mat4], ElementTable]:
    """Enumerate Sz(q) from the candidate generators and certify the size.

    Returns (generators, table).  Any deviation from
    |Sz(q)| = q^2 (q^2 + 1)(q - 1) raises CertificationError: with this exact
    cardinality the candidate set provably generates the group.
    """
    gens = candidate_generators(params, field)
    try:
        table = enumerate_group(gens, limit=params.group_order)
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

def cyclic_subgroup(table: ElementTable, generator: Mat4, order: int) -> SubgroupHandle:
    members = []
    cur = Mat4.identity(table.field)
    for _ in range(order):
        members.append(cur.entries)
        cur = cur * generator
    assert cur.is_identity()
    return SubgroupHandle(frozenset(members), order, cyclic_generator=generator)


def find_cyclic_subgroup(table: ElementTable, k: int) -> SubgroupHandle:
    """Cyclic subgroup generated by the first element of order k in
    sorted-key order, for determinism."""
    try:
        i = table.orders().index(k)
    except ValueError:
        raise SubgroupNotFoundError(f"no element of order {k} in the table") from None
    return cyclic_subgroup(table, table.by_key[table.sorted_keys()[i]], k)


def _generating_set(table: ElementTable, members: frozenset[Entries]) -> list[Mat4]:
    """Small generating set of a subgroup given by its members' entry tuples."""
    ident = Mat4.identity(table.field)
    gens: list[Mat4] = []
    closed = {ident.entries: ident}
    for key in sorted(members):
        if len(closed) == len(members):
            break
        if key not in closed:
            gens.append(table.by_key[key])
            closed = _walk(closed.values(), gens, mul, _entries)
    return gens


def normalizer(table: ElementTable, sub: SubgroupHandle) -> SubgroupHandle:
    """All g with g H g^-1 = H, by scanning the whole table.

    Conjugating a generating set of H into H suffices: the conjugate is a
    subgroup of the same order.  H must lie inside the table (ValueError).
    """
    gens = [sub.cyclic_generator] if sub.cyclic_generator is not None else \
        _generating_set(table, sub.members)
    if not gens:  # trivial subgroup
        return SubgroupHandle(frozenset(table.by_key), table.size)
    index = table._group_index()
    inside = bytearray(table.size)
    for i in map(table.position, sub.members):
        inside[i] = 1
    keys = table.sorted_keys()
    members = frozenset.intersection(*(
        frozenset(keys[i] for i, c in enumerate(index.conjugates(h)) if inside[c])
        for h in (table.position(g.entries) for g in gens)))
    return SubgroupHandle(members, len(members))


def centralizer(table: ElementTable, x: Mat4) -> SubgroupHandle:
    """All g commuting with x, i.e. with g x g^-1 = x; x must lie in the
    table (ValueError)."""
    index = table._group_index()
    xi = table.position(x.entries)
    keys = table.sorted_keys()
    members = frozenset(keys[i] for i, c in enumerate(index.conjugates(xi)) if c == xi)
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


def _index_orbit(table: ElementTable, members: frozenset[Entries]) -> Iterable[frozenset[int]]:
    """Orbit of a member set under conjugation by the group, as position sets.

    Walking the generators' permutations suffices: conjugation is a group
    action, so generator moves alone reach the full orbit.
    """
    def conjugate(s: frozenset[int], c: array) -> frozenset[int]:
        return frozenset(map(c.__getitem__, s))

    index = table._group_index()
    sub = frozenset(map(table.position, members))
    return _walk([sub], index.conj, conjugate, lambda s: s).keys()


def conjugate_orbit(table: ElementTable,
                    members: frozenset[Entries]) -> list[frozenset[Entries]]:
    """Orbit of a subgroup (as a member set) under conjugation by the group.

    Conjugates are stored as the table's own key tuples, so the orbit holds
    no tuples of its own.  Positions follow ``sorted_keys()``, so sorting
    the position sets sorts the orbit as its key sets would.
    """
    keys = table.sorted_keys()
    orbit = sorted(_index_orbit(table, members), key=sorted)
    return [frozenset(keys[i] for i in conj) for conj in orbit]


def verify_partition(table: ElementTable, params: SuzukiParams) -> PartitionReport:
    """Conjugate one representative of each class and check the cover.

    Representatives: the unitriangular subgroup {w(a, b)} of order q^2, and
    cyclic subgroups of orders q+s+1, q-s+1 and q-1 dug out of the table.
    """
    w_keys = frozenset(w.entries for w in w_elements(table.field))
    if not w_keys <= table.by_key.keys():
        raise ValueError("table does not contain the unitriangular subgroup")
    reps = {
        "w": w_keys,
        "u1": find_cyclic_subgroup(table, params.u1).members,
        "u2": find_cyclic_subgroup(table, params.u2).members,
        "v": find_cyclic_subgroup(table, params.v).members,
    }
    hits = array("i", bytes(4 * table.size))
    orbit_sizes: dict[str, int] = {}
    for name, members in reps.items():
        orbit = _index_orbit(table, members)
        orbit_sizes[name] = len(orbit)
        for conj in orbit:
            for i in conj:
                hits[i] += 1
    hits[table._group_index().root] = 0  # the identity lies in every conjugate: not counted
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
