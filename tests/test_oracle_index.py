"""The oracle's scans against the matrix-product scans they replaced.

``ref_normalizer``, ``ref_centralizer`` and ``ref_conjugate_orbit`` scan a
table of 4x4 matrices with real Mat4 products and Gauss-Jordan inverses.  At
q = 8, under both moduli of GF(8), the scans of the ovoid table's chain
(``build_suzuki_table``) must find the same subgroups once the reference's
matrices are mapped through ``table.rank``, the one boundary conversion, and
the same census and orbit sizes.  Only the chain conjugates: a matrix table
closes and counts, nothing more.  A table whose stabilizer chain is
broken must raise, never yield a wrong set.
"""

from types import SimpleNamespace

import pytest

import szq.oracle
from szq.field import Field
from szq.group import (
    CertificationError,
    candidate_generators,
    make_params,
    make_w,
    w_elements,
    w_generators,
)
from szq.mat4 import Mat4
from szq.oracle import (
    OvoidTable,
    StabilizerChain,
    SubgroupHandle,
    _conjugates,
    _walk,
    build_suzuki_table,
    centralizer,
    cyclic_subgroup,
    empirical_order_stats,
    enumerate_group,
    find_cyclic_subgroup,
    normalizer,
    subgroup,
    verify_partition,
)


# -- the product-based reference ---------------------------------------------------

def gauss_jordan_inverses(table):
    return {key: table.element(key).inv() for key in table.by_key}


def ref_normalizer(table, gens, members, inv):
    """Entry tuples of all g in a matrix table with g h g^-1 in ``members``
    for every Mat4 h in ``gens``."""
    return frozenset(key for key in table.sorted_keys()
                     if all(((table.element(key) * h) * inv[key]).entries in members
                            for h in gens))


def ref_centralizer(table, x):
    return frozenset(key for key in table.sorted_keys()
                     if table.element(key) * x == x * table.element(key))


def ref_conjugate_orbit(table, members):
    def conjugate(sub, move):
        g, gi = move
        return frozenset(table.by_key[(g * table.element(k) * gi).entries] for k in sub)

    moves = [(g, g.inv()) for g in table.generators]
    return sorted(_walk([members], moves, conjugate, lambda sub: sub), key=sorted)


# -- the ovoid table against the matrix reference at q = 8 ---------------------------

def _world(ovoid, matrices):
    return SimpleNamespace(ovoid=ovoid, matrices=matrices,
                           inverses=gauss_jordan_inverses(matrices))


@pytest.fixture(scope="module")
def world_0xb(sz8, sz8_matrices):
    return _world(sz8.table, sz8_matrices)


@pytest.fixture(scope="module")
def world_0xd(params8):
    f = Field(1, modulus=0xd)
    _, ovoid = build_suzuki_table(params8, f)
    return _world(ovoid, enumerate_group(candidate_generators(params8, f),
                                         limit=params8.group_order))


def _class(world, name):
    """A representative of a partition class as (Mat4 generators, member
    entry tuples), dug out of the matrix table."""
    p, m = make_params(1), world.matrices
    if name == "w":
        # w(a, 0) over a basis of GF(8) generates W modulo its Frattini
        # subgroup {w(0, b)}, hence all of W.
        f = m.field
        gens = [make_w(f.element(1 << i), f.zero) for i in range(f.degree)]
        assert enumerate_group(gens, limit=64).size == 64
        return gens, frozenset(w.entries for w in w_elements(f))
    h = find_cyclic_subgroup(m, getattr(p, name))
    return [m.element(h.cyclic_generator)], h.members


def assert_scans_agree(world, name):
    ovoid, matrices = world.ovoid, world.matrices
    gens, members = _class(world, name)
    to_rank = lambda entries: ovoid.rank(matrices.element(entries))  # noqa: E731
    sub = SubgroupHandle(frozenset(map(to_rank, members)), len(members),
                         ovoid.rank(gens[0]) if len(gens) == 1 else None)
    want = ref_normalizer(matrices, gens, members, world.inverses)
    assert normalizer(ovoid.chain, sub).members == frozenset(map(to_rank, want))
    got = centralizer(ovoid.chain, ovoid.rank(gens[0])).members
    assert got == frozenset(map(to_rank, ref_centralizer(matrices, gens[0])))


@pytest.mark.parametrize("name", ["u1", "u2", "v"])
def test_cyclic_classes_of_sz8(world_0xb, name):
    assert_scans_agree(world_0xb, name)


def test_w_class_of_sz8(world_0xb):
    assert_scans_agree(world_0xb, "w")


@pytest.mark.parametrize("name", ["u1", "u2", "v", "w"])
def test_scans_agree_under_the_other_modulus(world_0xd, name):
    assert_scans_agree(world_0xd, name)


@pytest.mark.parametrize("modulus", ["0xb", "0xd"])
def test_census_and_orbit_sizes_match_the_reference(request, modulus):
    world = request.getfixturevalue(f"world_{modulus}")
    assert (empirical_order_stats(world.ovoid).counts
            == empirical_order_stats(world.matrices).counts)
    report = verify_partition(world.ovoid, make_params(1))
    want = [len(ref_conjugate_orbit(world.matrices, _class(world, name)[1]))
            for name in ("w", "u1", "u2", "v")]
    m = report.measured
    assert [m.n_w, m.n_u1, m.n_u2, m.n_v] == want == [65, 560, 1456, 2080]


# -- the scans' bookkeeping on the ovoid table ------------------------------------

def test_the_trivial_subgroup_is_normalized_by_everything(sz8):
    chain = sz8.table.chain
    trivial = SubgroupHandle(frozenset([chain.identity]), 1)
    assert normalizer(chain, trivial).order == chain.size


def test_partition_conjugates_once_per_generator_it_needs(sz8, monkeypatch):
    # w(0, 1) = w(1, 0)^2 lies in the cyclic group of w(1, 0) and adds no move.
    calls = []
    conjugator = StabilizerChain.conjugator
    monkeypatch.setattr(StabilizerChain, "conjugator",
                        lambda chain, s: calls.append(s) or conjugator(chain, s))
    report = verify_partition(sz8.table, sz8.params)
    assert len(calls) == 3
    w10, _w01, torus, weyl = sz8.generators
    assert calls == [sz8.table.rank(g) for g in (w10, torus, weyl)]
    m = report.measured
    assert [m.n_w, m.n_u1, m.n_u2, m.n_v] == [65, 560, 1456, 2080]
    assert (report.coverage, report.multiply_covered, report.missing) == (29119, 0, 0)
    assert report.passed


def test_hit_counts_stop_at_255_and_the_slots_stay_exact(sz8):
    # Hits are bytes: a count at 255 stays there, and the slots the walk
    # fills are counted apart from them.
    chain = sz8.table.chain
    v = find_cyclic_subgroup(chain, sz8.params.v)
    members = [i for i in v.members if i != chain.identity]
    moves = [chain.conjugator(sz8.table.rank(g)) for g in sz8.generators]
    hits = bytearray(b"\xfe") * chain.size
    for _ in range(2):
        assert _conjugates([v.cyclic_generator], members, moves, hits,
                           chain.cycle) == (2080, 2080 * 6)
    assert hits.count(255) == 2080 * 6
    assert hits.count(254) == chain.size - 2080 * 6


def test_w_conjugates_are_numbered_within_16_bits(sz8, monkeypatch):
    # W's owner array holds 16-bit conjugate numbers; a class with more
    # conjugates than that bound is refused, never wrapped.
    monkeypatch.setattr(szq.oracle, "_MAX_OWNERS", 65)
    assert verify_partition(sz8.table, sz8.params).passed
    monkeypatch.setattr(szq.oracle, "_MAX_OWNERS", 64)
    with pytest.raises(OverflowError):
        verify_partition(sz8.table, sz8.params)


def test_the_normalizer_of_w_conjugates_a_generating_set(sz8, monkeypatch):
    # 448 candidates survive the base-image prefilter and the first
    # generator's triples, and each is confirmed by the triples of W's 2
    # other generators, not by its 63 nontrivial members.
    table, made = sz8.table, []
    conjugate_triples = szq.oracle._conjugate_triples

    def counted(chain, h, ranks):
        for t in conjugate_triples(chain, h, ranks):
            made.append(t)
            yield t

    monkeypatch.setattr(szq.oracle, "_conjugate_triples", counted)
    w = subgroup(table.chain, map(table.rank, w_generators(table.field)), limit=64)
    n = normalizer(table.chain, w)
    assert n.order * 65 == table.size
    assert len(made) == 2 * 448


def test_the_normalizer_refuses_members_that_are_no_subgroup(sz8):
    table = sz8.table
    x = table.rank(make_w(table.field.one, table.field.zero))  # of order 4
    with pytest.raises(ValueError, match="subgroup"):
        normalizer(table.chain, SubgroupHandle(frozenset([table.chain.identity, x]), 2))


# -- tables that are not the group --------------------------------------------------

def _corrupt(table, kind):
    """A copy of the table whose chain is broken after its certification."""
    chain = table.chain
    orbits = [list(orbit) for orbit in chain.orbits]
    transversals = [list(level) for level in chain.transversals]
    if kind == "not-closed":
        # The last coset of the stabilizer of <e1> goes: powers of the
        # elements left still reach it, and then sift to nothing.
        orbits[0].pop()
        transversals[0].pop()
    elif kind == "not-a-bijection":
        u = list(transversals[0][-1])
        k1, k2 = [k for k in range(len(u)) if k not in chain.base][:2]
        u[k1] = u[k2]  # two points with one image; the base points map as before
        transversals[0][-1] = u
    return OvoidTable(table.field, table.generators, table.points,
                      StabilizerChain(chain.base, orbits, transversals))


@pytest.mark.parametrize("kind", ["not-a-bijection", "not-closed"])
def test_a_broken_index_raises(sz8, kind):
    # The ranks come from the sound chain; the broken one keeps their numbers.
    x = sz8.table.rank(make_w(sz8.field.one, sz8.field.zero))
    sub = cyclic_subgroup(sz8.table.chain, x, 4)
    table = _corrupt(sz8.table, kind)
    for scan in (lambda: normalizer(table.chain, sub), lambda: centralizer(table.chain, x),
                 lambda: verify_partition(table, sz8.params)):
        with pytest.raises(CertificationError):
            scan()


def test_scans_refuse_elements_outside_the_table(sz8):
    # Ranks run from 0 to |G| - 1; a transposition of two ovoid points fixes
    # the other 63, but only the identity of Sz(8) fixes three points.
    chain = sz8.table.chain
    for outside in (-1, chain.size, 2.0):
        with pytest.raises(ValueError):
            centralizer(chain, outside)
        with pytest.raises(ValueError):
            normalizer(chain, SubgroupHandle(frozenset([chain.identity, outside]), 2, outside))
    with pytest.raises(ValueError):
        normalizer(chain, SubgroupHandle(frozenset([chain.identity]), 1, chain.size))
    with pytest.raises(ValueError):
        sz8.table._rank_of_images([1, 0] + list(range(2, 65)))
    f = sz8.field
    off_ovoid = Mat4(f, (1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1))
    with pytest.raises(ValueError):
        sz8.table.rank(off_ovoid)


def test_a_stabilizer_generator_that_moves_its_base_point_raises(params8, monkeypatch):
    # With tau in the place of d(lam), the stabilizer of <e1> gets a
    # generator that moves <e1>: the chain is refused, whatever its size.
    import szq.oracle

    real = szq.oracle.candidate_generators

    def swapped(params, field):
        w10, w01, torus, weyl = real(params, field)
        return [w10, w01, weyl, torus]

    monkeypatch.setattr(szq.oracle, "candidate_generators", swapped)
    with pytest.raises(CertificationError, match="moves a base point"):
        build_suzuki_table(params8, Field(1))
