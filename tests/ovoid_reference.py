"""The ovoid table as it was built before the stabilizer chain: the reference
the chain is tested against.

``ReferenceOvoidTable`` closes the four candidate generators' ``bytes``
permutations with ``bytes.translate`` into a set, sorts the keys, numbers
them by a position dict, and gets each key's order and inverse from its own
power walk, one ``translate`` per power and nothing memoized.
``ref_normalizer`` and ``ref_centralizer`` scan every element with two
``translate`` calls each, as the oracle did before its base-image
prefilters.  ``ref_verify_partition`` takes the four classes as key sets,
walks each class's conjugates over the full conjugation array of each
generator (``ReferenceOvoidTable.conjugation``) as frozensets of positions,
every move mapping every member, and counts the hits on each element: the
cover that the oracle's partition certificate proves by counting.
``rank_keys`` lists the ``bytes`` permutation of every rank of a chain, in
rank order, which maps the chain's ranks into this table.  Only the tests
import this module.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator

import szq.oracle as oracle
from szq.group import (
    CertificationError,
    PartitionClassCounts,
    SuzukiParams,
    candidate_generators,
    closed_form_subgroup_counts,
)
from szq.oracle import ClosureLimitError, PartitionReport, _point_image, _walk


class ReferenceOvoidTable:
    """Sz(q) as the set of its ``bytes`` permutations of the ovoid, certified
    by its size: ``sorted_keys`` ascending, ``position[key]`` a key's place
    there, and ``orders[i]`` and ``inverses[i]`` (a position) for the key at
    place i."""

    def __init__(self, params: SuzukiParams, field) -> None:
        gens = candidate_generators(params, field)
        orbit = _walk([(1, 0, 0, 0)], gens, lambda p, g: _point_image(field, p, g))
        assert len(orbit) == params.q * params.q + 1
        self.field, self.generators, self.points = field, gens, sorted(orbit)
        self._pad = bytes(256 - len(self.points))
        self._number = {p: k for k, p in enumerate(self.points)}
        self.identity = bytes(range(len(self.points)))
        moves = [self.key(g) + self._pad for g in gens]
        try:
            self.keys = _walk([self.identity], moves, bytes.translate,
                              limit=params.group_order)
        except ClosureLimitError as e:
            raise CertificationError("closure exceeds |Sz(q)|") from e
        if len(self.keys) != params.group_order:
            raise CertificationError(f"closure has {len(self.keys)} elements")
        self.sorted_keys = sorted(self.keys)
        self.position = {k: i for i, k in enumerate(self.sorted_keys)}
        self.orders, self.inverses = [], []
        for x in self.sorted_keys:
            k, last, p = 1, self.identity, x  # p = x^k, last = x^(k - 1)
            while p != self.identity:
                k, last, p = k + 1, p, self.mul(p, x)
            self.orders.append(k)
            self.inverses.append(self.position[last])

    @property
    def size(self) -> int:
        return len(self.keys)

    def key(self, mat) -> bytes:
        return bytes([self._number[_point_image(self.field, p, mat)] for p in self.points])

    def mul(self, a: bytes, b: bytes) -> bytes:
        return a.translate(b + self._pad)

    def conjugates(self, h: bytes, positions: Iterable[int]) -> Iterator[bytes]:
        keys, inverses, pad = self.sorted_keys, self.inverses, self._pad
        hp = h + pad
        return (keys[i].translate(hp).translate(keys[inverses[i]] + pad) for i in positions)

    def conjugation(self, s: bytes) -> array:
        keys, pad, at = self.sorted_keys, self._pad, self.position
        si = keys[self.inverses[at[s]]] + pad
        try:
            return array("i", [at[s.translate(x + pad).translate(si)] for x in keys])
        except KeyError:
            raise CertificationError("table is not closed under products") from None


def ref_normalizer(table: ReferenceOvoidTable, members: frozenset,
                   generator: bytes | None = None) -> frozenset:
    """The keys g with g^-1 h g in ``members`` for ``generator``, or for
    every member when none is given."""
    gens = [generator] if generator is not None else sorted(members - {table.identity})
    found = range(table.size)
    for h in gens:
        found = [i for i, c in zip(found, table.conjugates(h, found)) if c in members]
    keys = table.sorted_keys
    return frozenset(keys[i] for i in found)


def ref_centralizer(table: ReferenceOvoidTable, x: bytes) -> frozenset:
    keys, everything = table.sorted_keys, range(table.size)
    return frozenset(keys[i] for i, c in zip(everything, table.conjugates(x, everything))
                     if c == x)


def _orbit(table, members: frozenset, moves: list[array]):
    """Orbit of a member set under conjugation by the group, as position sets."""
    def conjugate(sub: frozenset[int], c: array) -> frozenset[int]:
        return frozenset(map(c.__getitem__, sub))

    return _walk([frozenset(map(table.position.__getitem__, members))], moves, conjugate)


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
                         classes: dict[str, frozenset[bytes]]) -> PartitionReport:
    """The partition report from frozenset orbits of the four classes, given
    by their members' keys under the names "w", "u1", "u2" and "v"."""
    moves = [table.conjugation(s) for s in map(table.key, table.generators)]
    hits = array("i", bytes(4 * table.size))
    sizes = {}
    for name, members in classes.items():
        orbit = _orbit(table, members, moves)
        sizes[name] = len(orbit)
        for conj in orbit:
            for i in conj:
                hits[i] += 1
    hits[table.position[table.identity]] = 0
    return PartitionReport(
        measured=PartitionClassCounts(n_w=sizes["w"], n_u1=sizes["u1"],
                                      n_u2=sizes["u2"], n_v=sizes["v"]),
        expected=closed_form_subgroup_counts(params),
        coverage=sum(hits),
        expected_coverage=params.group_order - 1,
        multiply_covered=sum(1 for c in hits if c > 1),
        missing=hits.count(0) - 1,
    )
