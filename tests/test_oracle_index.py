"""The oracle's scans against the matrix-product scans they replaced.

``ref_normalizer``, ``ref_centralizer`` and ``ref_conjugate_orbit`` scan a
table of 4x4 matrices with real Mat4 products, and inverses from
``matrix_reference.order_and_inverse``; the reference digs its own cyclic
classes (the first matrix of each order in sorted key order) and counts its
census with the orders of the same walks.  At q = 8,
under both moduli of GF(8), the scans of the chain (``StabilizerChain``)
must find the same subgroups once the reference's matrices are mapped
through ``chain.rank``, the one boundary conversion, and the same census and
orbit sizes.  Only the chain conjugates: a matrix table closes and counts,
nothing more.  A chain takes no orbits or transversals from outside, and a
copy whose transversal is broken, so that it is not closed under its
products, raises in its census and partition certificate, never yielding a
wrong count.  The chain maps each point by each generator once, and a
normalizer makes one conjugation scan per generator of H.  Anything that is
not a rank is refused, never wrapped, and before any order byte is
allocated, and so are a matrix over another field and a subgroup order that
is no int.
"""

from collections import Counter
from copy import copy
from dataclasses import replace
from types import SimpleNamespace

import pytest

import szq.oracle
from szq.field import Field, FieldMismatchError
from szq.group import (
    CertificationError,
    candidate_generators,
    make_params,
    make_w,
    w_generators,
)
from szq.mat4 import Mat4
from szq.oracle import (
    StabilizerChain,
    SubgroupHandle,
    _walk,
    centralizer,
    cyclic_subgroup,
    empirical_order_stats,
    enumerate_group,
    find_cyclic_subgroup,
    normalizer,
    subgroup,
    verify_partition,
)

from matrix_reference import order_and_inverse, power, w_elements


# -- the product-based reference ---------------------------------------------------

def ref_normalizer(world, gens, members):
    """Entry tuples of all g in a matrix table with g h g^-1 in ``members``
    for every Mat4 h in ``gens``."""
    inv = world.inverses
    return frozenset(g.entries for g in world.elements
                     if all(((g * h) * inv[g.entries]).entries in members for h in gens))


def ref_centralizer(world, x):
    return frozenset(g.entries for g in world.elements if g * x == x * g)


def ref_conjugate_orbit(table, members):
    def conjugate(sub, move):
        g, gi = move
        images = frozenset((g * Mat4(table.field, k) * gi).entries for k in sub)
        assert images <= table.keys
        return images

    moves = [(g, order_and_inverse(g)[1]) for g in table.generators]
    return sorted(_walk([members], moves, conjugate, lambda sub: sub), key=sorted)


# -- the ovoid table against the matrix reference at q = 8 ---------------------------

def _world(ovoid, matrices):
    """The chain and the matrix table, with every matrix of the table in
    sorted key order, and its order and inverse from one walk of its powers
    (``order_and_inverse``)."""
    elements = [Mat4(matrices.field, key) for key in sorted(matrices.keys)]
    orders, inverses = zip(*map(order_and_inverse, elements))
    return SimpleNamespace(ovoid=ovoid, matrices=matrices, elements=elements,
                           orders=list(orders),
                           inverses={x.entries: y for x, y in zip(elements, inverses)})


@pytest.fixture(scope="module")
def world_0xb(sz8, sz8_matrices):
    return _world(sz8.table, sz8_matrices)


@pytest.fixture(scope="module")
def world_0xd(params8):
    f = Field(1, modulus=0xd)
    ovoid = StabilizerChain(params8, f)
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
    k = getattr(p, name)
    x = world.elements[world.orders.index(k)]  # the first of order k
    return [x], frozenset(power(x, i).entries for i in range(k))


def assert_scans_agree(world, name):
    ovoid, matrices = world.ovoid, world.matrices
    gens, members = _class(world, name)
    to_rank = lambda entries: ovoid.rank(Mat4(matrices.field, entries))  # noqa: E731
    sub = SubgroupHandle(frozenset(map(to_rank, members)),
                         cyclic_generator=ovoid.rank(gens[0]) if len(gens) == 1 else None)
    want = ref_normalizer(world, gens, members)
    assert normalizer(ovoid, sub).members == frozenset(map(to_rank, want))
    got = centralizer(ovoid, ovoid.rank(gens[0])).members
    assert got == frozenset(map(to_rank, ref_centralizer(world, gens[0])))


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
    assert empirical_order_stats(world.ovoid).counts == Counter(world.orders)
    report = verify_partition(world.ovoid)
    want = [len(ref_conjugate_orbit(world.matrices, _class(world, name)[1]))
            for name in ("w", "u1", "u2", "v")]
    m = report.measured
    assert [m.n_w, m.n_u1, m.n_u2, m.n_v] == want == [65, 560, 1456, 2080]


# -- the scans' bookkeeping on the ovoid table ------------------------------------

def test_the_trivial_subgroup_is_normalized_by_everything(sz8):
    chain = sz8.table
    trivial = SubgroupHandle(frozenset([chain.identity]))
    assert normalizer(chain, trivial).order == chain.size


def test_each_generator_takes_one_conjugation_scan(sz8, monkeypatch):
    # N(W) intersects one scan for each generator of W; a cyclic subgroup
    # brings its one generator, and a centralizer is a single scan.
    table, scans = sz8.table, []
    transporter = szq.oracle._transporter
    monkeypatch.setattr(szq.oracle, "_transporter",
                        lambda chain, x, targets: scans.append(x) or transporter(chain, x, targets))
    w = subgroup(table, map(table.rank, w_generators(table.field)), limit=64)
    gens = szq.oracle._generating_set(table, w.members)
    assert normalizer(table, w).order * 65 == table.size
    assert len(scans) == len(gens) == 3
    h = find_cyclic_subgroup(table, 13)
    scans.clear()
    assert normalizer(table, h).order == 4 * 13
    assert len(scans) == 1
    scans.clear()
    assert centralizer(table, h.cyclic_generator).members == h.members
    assert len(scans) == 1


def test_the_normalizer_refuses_members_that_are_no_subgroup(sz8):
    table = sz8.table
    x = table.rank(make_w(table.field.one, table.field.zero))  # of order 4
    with pytest.raises(ValueError, match="subgroup"):
        normalizer(table, SubgroupHandle(frozenset([table.identity, x])))


def test_the_chain_takes_each_generator_s_point_images_once(params8, field8, monkeypatch):
    # The orbit walk maps each of the 65 points by each of the 4 generators,
    # and the generators' permutations are read off those images.
    calls, point_image = [], szq.oracle._point_image
    monkeypatch.setattr(szq.oracle, "_point_image",
                        lambda f, p, g: calls.append(p) or point_image(f, p, g))
    StabilizerChain(params8, field8)
    assert len(calls) == 4 * 65


# -- tables that are not the group --------------------------------------------------

@pytest.mark.parametrize("derived", ["orbits", "transversals"])
def test_the_chain_takes_no_orbits_or_transversals(sz8, derived):
    # The chain derives its levels from the parameters and the field alone,
    # so a chain short of a coset, such as 65 * 63 * 7 elements with the last
    # coset of H2 in H1 dropped, cannot be built.
    chain = sz8.table
    levels = [list(level) for level in getattr(chain, derived)]
    levels[1].pop()
    with pytest.raises(ValueError, match="init=False"):
        replace(chain, **{derived: levels})


def test_a_chain_that_builds_but_is_not_closed_raises(sz8):
    # Two points swapped in U2[1] of a copy: no sift lookup knows the changed
    # element, so the census and the partition certificate step onto base
    # images that no element has.
    chain = copy(sz8.table)
    chain.transversals = [list(level) for level in chain.transversals]
    u = chain.transversals[2][1] = list(chain.transversals[2][1])
    k1, k2 = [k for k in range(len(u)) if k not in chain.base][:2]
    u[k1], u[k2] = u[k2], u[k1]
    chain._orders = None  # not the census of the original
    with pytest.raises(CertificationError, match="not closed under products"):
        chain.orders()
    with pytest.raises(CertificationError, match="not closed under products"):
        verify_partition(chain)


def test_scans_refuse_elements_outside_the_table(sz8):
    # Ranks run from 0 to |G| - 1 (each scan on every non-rank:
    # ``test_a_non_rank_is_refused_not_wrapped``); a transposition of two
    # ovoid points fixes the other 63, but only the identity of Sz(8) fixes
    # three points.
    chain = sz8.table
    with pytest.raises(ValueError):
        normalizer(chain, SubgroupHandle(frozenset([chain.identity]), cyclic_generator=chain.size))
    with pytest.raises(ValueError):
        sz8.table._rank_of_images([1, 0] + list(range(2, 65)))
    f = sz8.field
    off_ovoid = Mat4(f, (1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1))
    with pytest.raises(ValueError):
        sz8.table.rank(off_ovoid)


def test_rank_refuses_a_matrix_over_another_field(sz8):
    # The default chain is over GF(8) mod 0xb.  Before the field check the
    # GF(32) identity ranked 0, a GF(32) generator raised a bare IndexError,
    # and the 0xd generators got the ranks (7, 14, 448) of other elements.
    chain = sz8.table
    other = [Mat4.identity(Field(2)), candidate_generators(make_params(2), Field(2))[0],
             *candidate_generators(make_params(1), Field(1, modulus=0xd))]
    for mat in other:
        with pytest.raises(FieldMismatchError):
            chain.rank(mat)
    assert [chain.rank(g) for g in candidate_generators(make_params(1), Field(1))] == \
        [chain.rank(g) for g in chain.generators]


@pytest.mark.parametrize("order", [True, 13.0, "13"], ids=["bool", "float", "str"])
def test_a_subgroup_order_that_is_no_int_is_refused(sz8, order):
    # True found the identity's subgroup, 13.0 failed inside bytearray.find,
    # and cyclic_subgroup took 13.0 as 13.  The refusal names the argument
    # and comes before any walk: a fresh chain has no order bytes yet.
    chain = StabilizerChain(sz8.params, sz8.field)
    with pytest.raises(TypeError, match="k must be an int"):
        find_cyclic_subgroup(chain, order)
    assert chain._orders is None
    r = find_cyclic_subgroup(chain, 13).cyclic_generator
    with pytest.raises(TypeError, match="order must be an int"):
        cyclic_subgroup(chain, r, order)


_RANK_TAKERS = {
    "element": lambda chain, r: chain.element(r),
    "permutation": lambda chain, r: chain.permutation(r),
    "mul": lambda chain, r: chain.mul(chain.identity, r),
    "cycle": lambda chain, r: chain.cycle(r),
    "order": lambda chain, r: chain.order(r),
    "power walker": lambda chain, r: chain._power_walker()(r, 0),
    "cyclic_subgroup": lambda chain, r: cyclic_subgroup(chain, r, 4),
    "subgroup": lambda chain, r: subgroup(chain, [r], 100),
    "normalizer": lambda chain, r: normalizer(
        chain, SubgroupHandle(frozenset([chain.identity, r]), cyclic_generator=r)),
    "centralizer": lambda chain, r: centralizer(chain, r),
}


@pytest.mark.parametrize("take", _RANK_TAKERS)
@pytest.mark.parametrize("non_rank", ["-1", "size", "True", "2.0"])
def test_a_non_rank_is_refused_not_wrapped(sz8, take, non_rank):
    # A negative index would wrap onto the last elements, and True would be
    # taken as rank 1; every rank reaches ``element`` or the power walker's
    # own check, which refuse them.
    chain = sz8.table
    r = {"-1": -1, "size": chain.size, "True": True, "2.0": 2.0}[non_rank]
    with pytest.raises(ValueError, match="no rank of the chain"):
        _RANK_TAKERS[take](chain, r)


@pytest.mark.parametrize("take", ["cycle", "order", "cyclic_subgroup"])
@pytest.mark.parametrize("non_rank", ["-1", "size", "True", "2.0"])
def test_a_non_rank_is_refused_before_the_order_bytes(params8, field8, take, non_rank):
    # On a fresh chain the refusal comes first: no order byte is allocated,
    # one per element of G (32.5 MB at q = 32).
    chain = StabilizerChain(params8, field8)
    r = {"-1": -1, "size": chain.size, "True": True, "2.0": 2.0}[non_rank]
    with pytest.raises(ValueError, match="no rank of the chain"):
        _RANK_TAKERS[take](chain, r)
    assert chain._orders is None


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
        StabilizerChain(params8, Field(1))
