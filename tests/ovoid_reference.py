"""The ovoid table as it was built before the stabilizer chain: the reference
the chain is tested against.

``reference_ovoid_table`` closes the four candidate generators' ``bytes``
permutations with ``bytes.translate`` into a dict, sorts the keys, and gets
orders and inverses from the dict-keyed power pass that ``ElementTable``
still runs for matrix tables.  ``ref_normalizer`` and ``ref_centralizer`` scan
every element with two ``translate`` calls each, as the oracle did before its
base-image prefilters.  ``conjugation`` is the full conjugation array per
move that the partition walk used before it sifted conjugates on demand, and
``ref_verify_partition`` walks each class's conjugates over those arrays as
frozensets of positions, every move mapping every member, as the oracle did
before its generator walk.  ``rank_keys`` lists the ``bytes`` permutation of
every rank of a chain, in rank order, which maps the chain's ranks into this
table.  Only the tests import this module.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Iterator

import szq.oracle as oracle
from szq.group import (
    CertificationError,
    PartitionClassCounts,
    SuzukiParams,
    candidate_generators,
    closed_form_subgroup_counts,
    w_generators,
)
from szq.oracle import (
    ClosureLimitError,
    ElementTable,
    PartitionReport,
    SubgroupHandle,
    _point_image,
    _walk,
)


@dataclass
class ReferenceOvoidTable(ElementTable):
    """Sz(q) as a dict of ``bytes`` permutations of its ovoid, keys ascending."""

    points: list = dc_field(default_factory=list, repr=False)
    _pad: bytes = dc_field(init=False, repr=False, compare=False)
    _number: dict = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._pad = bytes(256 - len(self.points))
        self._number = {p: k for k, p in enumerate(self.points)}

    def key(self, mat) -> bytes:
        return bytes([self._number[_point_image(self.field, p, mat)] for p in self.points])

    def element(self, key: bytes) -> bytes:
        if key not in self.by_key:
            raise ValueError("element is not in the table")
        return key

    def mul(self, a: bytes, b: bytes) -> bytes:
        return a.translate(b + self._pad)

    @property
    def identity(self) -> bytes:
        return bytes(range(len(self.points)))

    def conjugates(self, h: bytes, positions: Iterable[int]) -> Iterator[bytes]:
        keys, inverses, pad = self.sorted_keys(), self.inverses(), self._pad
        hp = h + pad
        return (keys[i].translate(hp).translate(keys[inverses[i]] + pad) for i in positions)

    def conjugation(self, s: bytes) -> array:
        keys, pad, at = self.sorted_keys(), self._pad, self._position_map()
        si = keys[self.inverses()[self.position(s)]] + pad
        try:
            return array("i", [at[s.translate(x + pad).translate(si)] for x in keys])
        except KeyError:
            raise CertificationError("table is not closed under products") from None


def reference_ovoid_table(params: SuzukiParams, field) -> ReferenceOvoidTable:
    """The bytes closure of the candidate generators, certified by its size."""
    gens = candidate_generators(params, field)
    orbit = _walk([(1, 0, 0, 0)], gens, lambda p, g: _point_image(field, p, g))
    assert len(orbit) == params.q * params.q + 1
    table = ReferenceOvoidTable(field, {}, gens, sorted(orbit))
    moves = [table.key(g) + table._pad for g in gens]
    try:
        table.by_key = _walk([table.identity], moves, bytes.translate,
                             limit=params.group_order)
    except ClosureLimitError as e:
        raise CertificationError("closure exceeds |Sz(q)|") from e
    if table.size != params.group_order:
        raise CertificationError(f"closure has {table.size} elements")
    return table


def ref_normalizer(table: ReferenceOvoidTable, sub: SubgroupHandle) -> frozenset:
    gens = [sub.cyclic_generator] if sub.cyclic_generator is not None else \
        sorted(sub.members - {table.identity})
    found = range(table.size)
    for h in gens:
        found = [i for i, c in zip(found, table.conjugates(h, found)) if c in sub.members]
    keys = table.sorted_keys()
    return frozenset(keys[i] for i in found)


def ref_centralizer(table: ReferenceOvoidTable, x: bytes) -> frozenset:
    keys, everything = table.sorted_keys(), range(table.size)
    return frozenset(keys[i] for i, c in zip(everything, table.conjugates(x, everything))
                     if c == x)


def _orbit(table, members: frozenset, moves: list[array]):
    """Orbit of a member set under conjugation by the group, as position sets."""
    def conjugate(sub: frozenset[int], c: array) -> frozenset[int]:
        return frozenset(map(c.__getitem__, sub))

    return _walk([frozenset(map(table.position, members))], moves, conjugate).keys()


def conjugation(table: ReferenceOvoidTable, s: bytes) -> array:
    """conjugation(table, s)[i] is the position of s x s^-1 for the element x
    at position i; a table that is not closed raises CertificationError.
    The partition walk looks this up at call time, so a test can replace it."""
    return table.conjugation(s)


def rank_keys(chain: oracle.StabilizerChain) -> list[bytes]:
    """The ``bytes`` permutation of each rank of the chain, in rank order,
    one ``translate`` each: the key of rank (a N1 + b) N2 + c is the
    precomputed U2[c] U1[b] followed by U0[a]."""
    t0, t1, t2 = chain.transversals
    pad = bytes(256 - len(chain.points))
    tails = [bytes([u1[p] for p in u2]) for u1 in t1 for u2 in t2]
    keys = []
    for u0 in t0:
        head = bytes(u0) + pad
        keys += [tail.translate(head) for tail in tails]
    return keys


def ref_verify_partition(table: ReferenceOvoidTable, params: SuzukiParams,
                         w: SubgroupHandle | None = None) -> PartitionReport:
    """The partition report from frozenset orbits.  The representatives and
    moves come from ``szq.oracle``'s own functions and this module's
    ``conjugation``, looked up at call time, so a test that replaces one of
    them changes both walks alike.  ``w``, when given, is W by the table's
    keys."""
    if w is None:
        w = oracle.subgroup(table, map(table.key, w_generators(table.field)), params.w_order)
    reps = {"w": w.members}
    for name in ("u1", "u2", "v"):
        reps[name] = oracle.find_cyclic_subgroup(table, getattr(params, name)).members
    moves, powers = [], set()
    for s in map(table.key, table.generators):
        if s not in powers:
            moves.append(conjugation(table, s))
            powers |= oracle.cyclic_subgroup(table, s, table.orders()[table.position(s)]).members
    hits = array("i", bytes(4 * table.size))
    sizes = {}
    for name, members in reps.items():
        orbit = _orbit(table, members, moves)
        sizes[name] = len(orbit)
        for conj in orbit:
            for i in conj:
                hits[i] += 1
    hits[table.position(table.identity)] = 0
    return PartitionReport(
        measured=PartitionClassCounts(n_w=sizes["w"], n_u1=sizes["u1"],
                                      n_u2=sizes["u2"], n_v=sizes["v"]),
        expected=closed_form_subgroup_counts(params),
        coverage=sum(hits),
        expected_coverage=params.group_order - 1,
        multiply_covered=sum(1 for c in hits if c > 1),
        missing=hits.count(0) - 1,
    )
