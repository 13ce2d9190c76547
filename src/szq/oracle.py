"""Brute-force ground truth for desk-scale Suzuki groups.

Enumerates the group from generators by breadth-first closure over the
matrices' entry tuples, takes empirical order censuses from one pass over the
cyclic subgroups, digs out cyclic subgroups, normalizers and centralizers by
direct scan, and verifies that the conjugates of the four reference subgroups
cover every nontrivial element exactly once.

Everything here is deliberately dumb and exact: this module is the oracle the
closed forms are tested against, so it must not share their shortcuts.
"""

from __future__ import annotations

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


@dataclass
class ElementTable:
    """A fully enumerated matrix group, keyed by the matrices' entry tuples."""

    field: Field
    by_key: dict[Entries, Mat4]
    generators: list[Mat4]
    _sorted_keys: list[Entries] | None = dc_field(default=None, repr=False)
    _orders: dict[Entries, int] | None = dc_field(default=None, repr=False)
    _inverses: dict[Entries, Mat4] | None = dc_field(default=None, repr=False)

    @property
    def size(self) -> int:
        return len(self.by_key)

    def sorted_keys(self) -> list[Entries]:
        """Canonical iteration order: entry tuples ascending."""
        if self._sorted_keys is None:
            self._sorted_keys = sorted(self.by_key)
        return self._sorted_keys

    def orders(self) -> dict[Entries, int]:
        """Order of every element, from the power pass (computed once)."""
        if self._orders is None:
            self._power_pass()
        return self._orders

    def inverses(self) -> dict[Entries, Mat4]:
        """Inverse of every element, from the power pass (computed once)."""
        if self._inverses is None:
            self._power_pass()
        return self._inverses

    def _power_pass(self) -> None:
        """For each element x not yet met as a power, in sorted order, walk
        x, x^2, ..., x^k = 1 once and record ord(x^i) = k / gcd(i, k) and
        inv(x^i) = x^(k-i) for all k powers.

        Only group multiplication is used, so the census stays independent
        of the closed forms.  Keys are the table's own entry tuples, never
        the fresh powers', so the caches add no tuples of their own.
        """
        by_key = self.by_key
        orders: dict[Entries, int] = {}
        inverses: dict[Entries, Mat4] = {}
        for key in self.sorted_keys():
            if key in orders:
                continue
            x = by_key[key]
            powers = [key]  # powers[i - 1] is the key of x^i
            p = x
            while not p.is_identity():
                if len(powers) >= self.size:
                    raise OrderNotFoundError(f"no power of {x!r} within the table size")
                p = p * x
                powers.append(by_key[p.entries].entries)
            k = len(powers)
            for i, pk in enumerate(powers, 1):
                orders[pk] = k // gcd(i, k)
                inverses[pk] = by_key[powers[k - i - 1]]  # x^(k-i); i = k wraps to x^k = 1
        self._orders, self._inverses = orders, inverses

    def __contains__(self, mat: Mat4) -> bool:
        return mat.entries in self.by_key


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
    for o in table.orders().values():
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
    """Cyclic subgroup generated by the first element of order k, scanning
    in sorted-key order for determinism."""
    orders = table.orders()
    for key in table.sorted_keys():
        if orders[key] == k:
            return cyclic_subgroup(table, table.by_key[key], k)
    raise SubgroupNotFoundError(f"no element of order {k} in the table")


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
    subgroup of the same order.
    """
    gens = [sub.cyclic_generator] if sub.cyclic_generator is not None else \
        _generating_set(table, sub.members)
    if not gens:  # trivial subgroup
        return SubgroupHandle(frozenset(table.by_key), table.size)
    members = sub.members
    inv = table.inverses()
    found = []
    for key in table.sorted_keys():
        g = table.by_key[key]
        gi = inv[key]
        if all(((g * h) * gi).entries in members for h in gens):
            found.append(key)
    return SubgroupHandle(frozenset(found), len(found))


def centralizer(table: ElementTable, x: Mat4) -> SubgroupHandle:
    """All g commuting with x."""
    found = []
    for key in table.sorted_keys():
        g = table.by_key[key]
        if g * x == x * g:
            found.append(key)
    return SubgroupHandle(frozenset(found), len(found))


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


def conjugate_orbit(table: ElementTable,
                    members: frozenset[Entries]) -> list[frozenset[Entries]]:
    """Orbit of a subgroup (as a member set) under conjugation by the group.

    Walking the table's generators suffices: conjugation is a group action,
    so generator moves alone reach the full orbit.  Conjugates are stored as
    the table's own key tuples, so the orbit holds no tuples of its own.
    """
    by_key = table.by_key

    def conjugate(sub: frozenset[Entries], move: tuple[Mat4, Mat4]) -> frozenset[Entries]:
        g, gi = move
        return frozenset(by_key[(g * by_key[k] * gi).entries].entries for k in sub)

    moves = [(g, g.inv()) for g in table.generators]
    orbit = _walk([members], moves, conjugate, lambda sub: sub)
    return sorted(orbit, key=sorted)


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
    ident_key = Mat4.identity(table.field).entries
    hits: dict[Entries, int] = {}
    orbit_sizes: dict[str, int] = {}
    for name, members in reps.items():
        orbit = conjugate_orbit(table, members)
        orbit_sizes[name] = len(orbit)
        for conj in orbit:
            for k in conj:
                if k != ident_key:
                    hits[k] = hits.get(k, 0) + 1
    measured = PartitionClassCounts(
        n_w=orbit_sizes["w"], n_u1=orbit_sizes["u1"],
        n_u2=orbit_sizes["u2"], n_v=orbit_sizes["v"])
    multiply = sum(1 for c in hits.values() if c > 1)
    missing = table.size - 1 - len(hits)
    return PartitionReport(
        measured=measured,
        expected=closed_form_subgroup_counts(params),
        coverage=sum(hits.values()),
        expected_coverage=params.group_order - 1,
        multiply_covered=multiply,
        missing=missing,
    )
