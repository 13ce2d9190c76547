"""The stabilizer-chain table against the bytes closure it replaced.

``ovoid_reference`` keeps the closure of the generators' ``bytes``
permutations, its ascending keys and its dict-keyed power pass, and
``rank_keys`` maps each rank of a chain to its ``bytes`` permutation.  Under
both moduli of GF(8), the chain's ranks must map to the same keys, with the
same order and inverse for every key; the rank normalizers and centralizers
must be the reference full scans, member for member, mapped through the
reference's positions; and the partition reports must be equal.  The
chain's sift round-trips every rank, at q = 8 through the byte keys and at
q = 32 through the base images alone.  The partition's generator walk must
give the frozenset walk's report also on inputs that break the partition,
and the rank operations it runs on (each move's on-demand conjugates, the
stepped powers of a conjugate, rank products and the ranks of matrices)
must agree with the byte keys.  At q = 32 the torus T = <d(lam)> is its own
centralizer and has a normalizer of order 2 |T|.
"""

from array import array
from copy import copy
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import ovoid_reference
import szq.oracle
from ovoid_reference import (
    rank_keys,
    ref_centralizer,
    ref_normalizer,
    ref_verify_partition,
    reference_ovoid_table,
)
from szq.field import Field
from szq.group import make_params, make_w
from szq.mat4 import Mat4
from szq.oracle import (
    StabilizerChain,
    SubgroupHandle,
    _point_image,
    build_suzuki_table,
    centralizer,
    cyclic_subgroup,
    find_cyclic_subgroup,
    normalizer,
    unitriangular,
    verify_partition,
)


def _pair(params, field, table=None):
    if table is None:
        table = build_suzuki_table(params, field)[1]
    return SimpleNamespace(params=params, table=table, keys=rank_keys(table),
                           reference=reference_ovoid_table(params, field))


@pytest.fixture(scope="module")
def pair_0xb(sz8):
    return _pair(sz8.params, sz8.field, sz8.table)


@pytest.fixture(scope="module")
def pair_0xd(params8):
    return _pair(params8, Field(1, modulus=0xd))


@pytest.fixture(params=["0xb", "0xd"])
def pair(request):
    return request.getfixturevalue(f"pair_{request.param}")


def test_the_chain_has_the_closure_s_keys(pair):
    keys, ref = pair.keys, pair.reference
    assert len(keys) == len(set(keys)) == ref.size == 29120
    assert set(keys) == ref.by_key.keys()
    assert keys[pair.table.identity] == ref.identity


def test_every_key_has_the_same_order_and_inverse(pair):
    table, keys, ref = pair.table, pair.keys, pair.reference
    orders, rank_of = table.orders(), {k: r for r, k in enumerate(keys)}
    ref_keys, ref_orders, ref_inverses = ref.sorted_keys(), ref.orders(), ref.inverses()
    for r, key in enumerate(keys):
        i = ref.position(key)
        assert orders[r] == ref_orders[i]
        assert table.mul(r, rank_of[ref_keys[ref_inverses[i]]]) == table.identity


def _class(table, name):
    """(subgroup handle, an element) for a partition class of Sz(8), as ranks."""
    if name == "w":
        return unitriangular(table), table.rank(make_w(table.field.one, table.field.zero))
    h = find_cyclic_subgroup(table, getattr(make_params(1), name))
    return h, h.cyclic_generator


def _keyed(pair, sub):
    """A subgroup handle of ranks as one of the reference's keys."""
    keys = pair.keys
    x = sub.cyclic_generator
    return SubgroupHandle(frozenset(keys[r] for r in sub.members), sub.order,
                          None if x is None else keys[x])


def _positions(pair, ranks):
    """Ranks mapped to the reference's positions."""
    return {pair.reference.position(pair.keys[r]) for r in ranks}


def _assert_scans_agree(pair, sub, x):
    chain, ref = pair.table, pair.reference
    assert _positions(pair, normalizer(chain, sub).members) == \
        set(map(ref.position, ref_normalizer(ref, _keyed(pair, sub))))
    assert _positions(pair, centralizer(chain, x).members) == \
        set(map(ref.position, ref_centralizer(ref, pair.keys[x])))


@pytest.mark.parametrize("name", ["u1", "u2", "v", "w"])
def test_normalizers_and_centralizers_agree(pair, name):
    _assert_scans_agree(pair, *_class(pair.table, name))


@settings(max_examples=15, deadline=None)
@given(r=st.integers(0, 29119))
def test_the_scans_of_a_random_element_agree_with_the_full_scans(pair_0xb, pair_0xd, r):
    # C(x) and N(<x>) for any x, the identity and the involutions included.
    for pair in (pair_0xb, pair_0xd):
        chain = pair.table
        _assert_scans_agree(pair, cyclic_subgroup(chain, r, chain.orders()[r]), r)


def test_the_partition_reports_agree(pair):
    assert verify_partition(pair.table, pair.params) == \
        ref_verify_partition(pair.reference, pair.params)


@pytest.mark.parametrize("change", ["none", "identity-move", "dropped-move",
                                    "v-of-order-4", "w-as-a-four-group"])
def test_the_generator_walk_matches_the_frozenset_walk(pair, change, monkeypatch):
    table, ref, params = pair.table, copy(pair.reference), pair.params
    w10, w01, torus, weyl = table.generators
    f, w, ref_w = table.field, None, None
    if change == "identity-move":  # the torus's move conjugates by the identity
        conjugator, conjugation = StabilizerChain.conjugator, ovoid_reference.conjugation
        d, key_d = table.rank(torus), ref.key(torus)
        monkeypatch.setattr(StabilizerChain, "conjugator", lambda chain, s: (
            lambda r: r) if s == d else conjugator(chain, s))
        monkeypatch.setattr(ovoid_reference, "conjugation", lambda t, s: array(
            "i", range(t.size)) if s == key_d else conjugation(t, s))
    elif change == "dropped-move":  # the moves generate the Borel subgroup only
        table = replace(table, generators=[w10, w01, torus])
        ref.generators = [w10, w01, torus]
    elif change == "v-of-order-4":  # cyclic conjugates that share their squares
        find = szq.oracle.find_cyclic_subgroup
        monkeypatch.setattr(szq.oracle, "find_cyclic_subgroup",
                            lambda t, k: find(t, 4 if k == params.v else k))
    elif change == "w-as-a-four-group":
        # Four-groups in the centre of W meet in involutions, so a move's two
        # generator images can lie in two different known conjugates.
        z1, z2 = (make_w(f.zero, f.element(b)) for b in (1, 2))
        r1, r2, k1, k2 = table.rank(z1), table.rank(z2), ref.key(z1), ref.key(z2)
        w = SubgroupHandle(frozenset([table.identity, r1, r2, table.mul(r1, r2)]), 4)
        ref_w = SubgroupHandle(frozenset([ref.identity, k1, k2, ref.mul(k1, k2)]), 4)
    report = verify_partition(table, params, w)
    assert report == ref_verify_partition(ref, params, ref_w)
    assert report.passed == (change == "none")


def test_each_move_maps_every_rank_as_the_reference_array_does(pair):
    # The sifted conjugates against the bytes closure's translate array.
    table, keys, ref = pair.table, pair.keys, pair.reference
    ref_keys = ref.sorted_keys()
    for g in table.generators:
        move = table.conjugator(table.rank(g))
        ref_images = ovoid_reference.conjugation(ref, ref.key(g))
        assert all(keys[move(r)] == ref_keys[ref_images[ref.position(key)]]
                   for r, key in enumerate(keys))


@settings(max_examples=100, deadline=None)
@given(r=st.integers(0, 29119))
def test_a_conjugate_s_stepped_powers_are_its_mapped_members(pair_0xb, r):
    # c(x)^i = c(x^i): the powers that ``cycle`` steps from a new conjugate's
    # generator are the members a move maps, in the same order.
    chain = pair_0xb.table
    if r == chain.identity:
        return
    for g in chain.generators:
        move = chain.conjugator(chain.rank(g))
        assert chain.cycle(move(r)) == [move(x) for x in chain.cycle(r)]


@settings(max_examples=200, deadline=None)
@given(r=st.integers(0, 29119), s=st.integers(0, 29119))
def test_rank_products_agree_with_byte_key_products(pair_0xb, pair_0xd, r, s):
    for pair in (pair_0xb, pair_0xd):
        keys = pair.keys
        assert keys[pair.table.mul(r, s)] == pair.reference.mul(keys[r], keys[s])


def test_matrix_ranks_agree_with_their_byte_keys(pair_0xb, sz8_matrices):
    table, keys, ref = pair_0xb.table, pair_0xb.keys, pair_0xb.reference
    for entries in sz8_matrices.sorted_keys()[::97]:
        mat = sz8_matrices.element(entries)
        assert keys[table.rank(mat)] == ref.key(mat)
    f = table.field
    off_ovoid = Mat4(f, (1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1))
    with pytest.raises(ValueError):
        table.rank(off_ovoid)


def test_the_point_action_is_the_same_past_the_table_limit(sz8):
    # A field without its multiplication table multiplies by the schoolbook
    # routine; every generator moves every point the same way.
    table = sz8.table
    schoolbook = copy(table.field)
    schoolbook._mul_table = None
    for g in table.generators:
        for p in table.points:
            assert _point_image(schoolbook, p, g) == _point_image(table.field, p, g)


def test_the_chain_s_levels_at_q8(sz8):
    chain = sz8.table
    assert [len(orbit) for orbit in chain.orbits] == [65, 64, 7]
    points = sz8.table.points
    assert [points[b] for b in chain.base[:2]] == [(1, 0, 0, 0), (0, 0, 0, 1)]
    assert chain.base[2] == min(set(range(65)) - set(chain.base[:2]))


@settings(max_examples=200, deadline=None)
@given(r=st.integers(0, 29119))
def test_rank_key_sift_rank_round_trips(pair_0xb, r):
    table, key = pair_0xb.table, pair_0xb.keys[r]
    u0, u1, u2 = table.element(r)
    assert key == bytes(u0[u1[u2[k]]] for k in range(65))
    assert key in pair_0xb.reference.by_key
    assert table.sift(*(key[b] for b in table.base)) == r
    assert table._rank_of_images(key) == r


@settings(max_examples=200, deadline=None)
@given(perm=st.permutations(range(65)))
def test_a_key_outside_the_table_raises(pair_0xb, perm):
    # Almost every permutation of the 65 points lies outside Sz(8); the
    # closure decides which.  Its base images may still sift to a rank, so
    # the rank is confirmed on every point.
    key, table = bytes(perm), pair_0xb.table
    if key in pair_0xb.reference.by_key:
        assert pair_0xb.keys[table._rank_of_images(key)] == key
    else:
        with pytest.raises(ValueError):
            table._rank_of_images(key)


@pytest.mark.parametrize("key", [bytes([200] * 65), bytes(64), (1, 2, 3), "x" * 65],
                         ids=["points-past-65", "short", "tuple", "str"])
def test_a_key_that_is_no_permutation_of_the_points_raises(sz8, key):
    # The scans take ranks, and a key is none; as point images, the byte
    # strings and the tuple are those of no element.
    chain = sz8.table
    with pytest.raises(ValueError):
        centralizer(chain, key)
    with pytest.raises(ValueError):
        normalizer(chain, SubgroupHandle(frozenset([chain.identity, key]), 2))
    if not isinstance(key, str):
        with pytest.raises(ValueError):
            sz8.table._rank_of_images(key)


@pytest.fixture(scope="module")
def sz32():
    return build_suzuki_table(make_params(2), Field(2))[1]


def test_the_sz32_chain_is_certified_without_keys(sz32):
    assert [len(orbit) for orbit in sz32.orbits] == [1025, 1024, 31]
    assert sz32.size == 32537600
    assert sz32.rank(Mat4.identity(sz32.field)) == sz32.identity


def test_the_sz32_torus_is_its_own_centralizer(sz32):
    # T = <d(lam)> of order q - 1 = 31 fixes b0 and b1; C(d) = T and
    # |N(T)| = 2 |T|, with no census.
    d = sz32.rank(sz32.generators[2])
    torus = cyclic_subgroup(sz32, d, 31)
    assert centralizer(sz32, d).members == torus.members
    assert normalizer(sz32, torus).order == 62


@settings(max_examples=200, deadline=None)
@given(r=st.integers(0, 32537599))
def test_sz32_ranks_round_trip_through_their_base_images(sz32, r):
    u0, u1, u2 = sz32.element(r)
    assert sz32.sift(*(u0[u1[u2[b]]] for b in sz32.base)) == r


def test_sz32_generator_ranks_match_their_point_action(sz32):
    # The generators' own permutations, as the field computes them, sift to
    # ranks whose chain elements act the same on every point.
    for g in sz32.generators:
        perm = [sz32._number[_point_image(sz32.field, p, g)] for p in sz32.points]
        u0, u1, u2 = sz32.element(sz32.sift(*(perm[b] for b in sz32.base)))
        assert [u0[u1[u2[k]]] for k in range(1025)] == perm
