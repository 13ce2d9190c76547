"""The stabilizer-chain table against the bytes closure it replaced.

``ovoid_reference`` keeps the closure of the generators' ``bytes``
permutations, its ascending keys and its dict-keyed power pass.  Under both
moduli of GF(8), the chain must give the same keys, the same order and
inverse for every key, the same normalizers and centralizers and the same
partition report; only the order of the keys (rank order) may differ.  The
chain's sift round-trips every rank, at q = 8 through the byte keys and at
q = 32 through the base images alone.  The partition's generator walk must
give the frozenset walk's report also on inputs that break the partition,
and the rank operations it runs on (each move's on-demand conjugates, the
stepped powers of a conjugate, rank products and the ranks of matrices)
must agree with the byte keys.
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
    ref_centralizer,
    ref_normalizer,
    ref_verify_partition,
    reference_ovoid_table,
)
from szq.field import Field
from szq.group import make_params, make_w, w_generators
from szq.mat4 import Mat4
from szq.oracle import (
    MAX_POINTS,
    ScaleRefusal,
    StabilizerChain,
    SubgroupHandle,
    _point_image,
    build_suzuki_table,
    centralizer,
    find_cyclic_subgroup,
    normalizer,
    subgroup,
    verify_partition,
)


def _pair(params, field, chain=None):
    if chain is None:
        chain = build_suzuki_table(params, field)[1]
    return SimpleNamespace(params=params, chain=chain,
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
    keys, ref = pair.chain.sorted_keys(), pair.reference
    assert len(keys) == len(set(keys)) == ref.size == 29120
    assert set(keys) == ref.by_key.keys()
    assert pair.chain.identity == ref.identity


def test_every_key_has_the_same_order_and_inverse(pair):
    chain, ref = pair.chain, pair.reference
    keys, orders, inverses = chain.sorted_keys(), chain.orders(), chain.inverses()
    ref_keys, ref_orders, ref_inverses = ref.sorted_keys(), ref.orders(), ref.inverses()
    for r, key in enumerate(keys):
        i = ref.position(key)
        assert orders[r] == ref_orders[i]
        assert keys[inverses[r]] == ref_keys[ref_inverses[i]]


def _class(table, name):
    """(subgroup handle, an element) for a partition class of Sz(8)."""
    if name == "w":
        w = subgroup(table, map(table.key, w_generators(table.field)), limit=64)
        return w, table.key(make_w(table.field.one, table.field.zero))
    h = find_cyclic_subgroup(table, getattr(make_params(1), name))
    return h, h.cyclic_generator


@pytest.mark.parametrize("name", ["u1", "u2", "v", "w"])
def test_normalizers_and_centralizers_agree(pair, name):
    chain, ref = pair.chain, pair.reference
    sub, x = _class(chain, name)
    assert normalizer(chain, sub).members == ref_normalizer(ref, sub)
    assert centralizer(chain, x).members == ref_centralizer(ref, x)


def test_the_partition_reports_agree(pair):
    assert verify_partition(pair.chain, pair.params) == \
        ref_verify_partition(pair.reference, pair.params)


@pytest.mark.parametrize("change", ["none", "identity-move", "dropped-move",
                                    "v-of-order-4", "w-as-a-four-group"])
def test_the_generator_walk_matches_the_frozenset_walk(pair, change, monkeypatch):
    table, params = pair.chain, pair.params
    w10, w01, torus, weyl = table.generators
    f, w, ref_w = table.field, None, None
    if change == "identity-move":  # the torus's move conjugates by the identity
        conjugator, conjugation = StabilizerChain.conjugator, ovoid_reference.conjugation
        d, key_d = table.rank(torus), table.key(torus)
        monkeypatch.setattr(StabilizerChain, "conjugator", lambda chain, s: (
            lambda r: r) if s == d else conjugator(chain, s))
        monkeypatch.setattr(ovoid_reference, "conjugation", lambda t, s: array(
            "i", range(t.size)) if s == key_d else conjugation(t, s))
    elif change == "dropped-move":  # the moves generate the Borel subgroup only
        table = replace(table, generators=[w10, w01, torus])
    elif change == "v-of-order-4":  # cyclic conjugates that share their squares
        find = szq.oracle.find_cyclic_subgroup
        monkeypatch.setattr(szq.oracle, "find_cyclic_subgroup",
                            lambda t, k: find(t, 4 if k == params.v else k))
    elif change == "w-as-a-four-group":
        # Four-groups in the centre of W meet in involutions, so a move's two
        # generator images can lie in two different known conjugates.
        z1, z2 = (table.key(make_w(f.zero, f.element(b))) for b in (1, 2))
        ref_w = SubgroupHandle(frozenset([table.identity, z1, z2, table.mul(z1, z2)]), 4)
        w = SubgroupHandle(frozenset(map(table.position, ref_w.members)), 4)
    report = verify_partition(table, params, w)
    assert report == ref_verify_partition(table, params, ref_w)
    assert report.passed == (change == "none")


def test_each_move_maps_every_rank_as_the_reference_array_does(pair):
    # Both the sifted array and the bytes closure's translate array.
    table, ref = pair.chain, pair.reference
    keys, ref_keys = table.sorted_keys(), ref.sorted_keys()
    for g in table.generators:
        move = table.chain.conjugator(table.rank(g))
        images = array("i", map(move, range(table.size)))
        assert images == ovoid_reference.conjugation(table, table.key(g))
        ref_images = ref.conjugation(table.key(g))
        assert all(keys[images[r]] == ref_keys[ref_images[ref.position(key)]]
                   for r, key in enumerate(keys))


@settings(max_examples=100, deadline=None)
@given(r=st.integers(0, 29119))
def test_a_conjugate_s_stepped_powers_are_its_mapped_members(pair_0xb, r):
    # c(x)^i = c(x^i): the powers that ``cycle`` steps from a new conjugate's
    # generator are the members a move maps, in the same order.
    chain = pair_0xb.chain.chain
    if r == chain.identity:
        return
    for g in pair_0xb.chain.generators:
        move = chain.conjugator(pair_0xb.chain.rank(g))
        assert chain.cycle(move(r)) == [move(x) for x in chain.cycle(r)]


@settings(max_examples=200, deadline=None)
@given(r=st.integers(0, 29119), s=st.integers(0, 29119))
def test_rank_products_agree_with_byte_key_products(pair_0xb, pair_0xd, r, s):
    for table in (pair_0xb.chain, pair_0xd.chain):
        keys = table.sorted_keys()
        assert keys[table.chain.mul(r, s)] == table.mul(keys[r], keys[s])


def test_matrix_ranks_agree_with_their_byte_keys(sz8, sz8_matrices):
    table = sz8.table
    for entries in sz8_matrices.sorted_keys()[::97]:
        mat = sz8_matrices.element(entries)
        assert table.rank(mat) == table.position(table.key(mat))
    f = sz8.field
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
    chain = sz8.table.chain
    assert [len(orbit) for orbit in chain.orbits] == [65, 64, 7]
    points = sz8.table.points
    assert [points[b] for b in chain.base[:2]] == [(1, 0, 0, 0), (0, 0, 0, 1)]
    assert chain.base[2] == min(set(range(65)) - set(chain.base[:2]))


@settings(max_examples=200, deadline=None)
@given(r=st.integers(0, 29119))
def test_rank_key_sift_rank_round_trips(sz8, r):
    table = sz8.table
    key = table.sorted_keys()[r]
    u0, u1, u2 = table.chain.element(r)
    assert key == bytes(u0[u1[u2[k]]] for k in range(65))
    assert table.chain.rank(*(key[b] for b in table.chain.base)) == r
    assert table.position(key) == r


@settings(max_examples=200, deadline=None)
@given(perm=st.permutations(range(65)))
def test_a_key_outside_the_table_raises(pair_0xb, perm):
    # Almost every permutation of the 65 points lies outside Sz(8); the
    # closure decides which.
    key, chain = bytes(perm), pair_0xb.chain
    if key in pair_0xb.reference.by_key:
        assert chain.sorted_keys()[chain.position(key)] == key
    else:
        with pytest.raises(ValueError):
            chain.position(key)
        assert key not in chain.by_key


@pytest.mark.parametrize("key", [bytes([200] * 65), bytes(64), (1, 2, 3), "x" * 65],
                         ids=["points-past-65", "short", "tuple", "str"])
def test_a_key_that_is_no_permutation_of_the_points_raises(sz8, key):
    with pytest.raises(ValueError):
        sz8.table.position(key)
    assert key not in sz8.table.by_key


@pytest.fixture(scope="module")
def sz32():
    return build_suzuki_table(make_params(2), Field(2))[1]


def test_the_sz32_chain_is_certified_without_keys(sz32):
    assert [len(orbit) for orbit in sz32.chain.orbits] == [1025, 1024, 31]
    assert sz32.size == 32537600
    for make_keys in (sz32.sorted_keys, lambda: sz32.key(sz32.generators[0])):
        with pytest.raises(ScaleRefusal, match=f"at most {MAX_POINTS}"):
            make_keys()


@settings(max_examples=200, deadline=None)
@given(r=st.integers(0, 32537599))
def test_sz32_ranks_round_trip_through_their_base_images(sz32, r):
    chain = sz32.chain
    u0, u1, u2 = chain.element(r)
    assert chain.rank(*(u0[u1[u2[b]]] for b in chain.base)) == r


def test_sz32_generator_ranks_match_their_point_action(sz32):
    # The generators' own permutations, as the field computes them, sift to
    # ranks whose chain elements act the same on every point.
    chain = sz32.chain
    for g in sz32.generators:
        perm = [sz32._number[_point_image(sz32.field, p, g)] for p in sz32.points]
        u0, u1, u2 = chain.element(chain.rank(*(perm[b] for b in chain.base)))
        assert [u0[u1[u2[k]]] for k in range(1025)] == perm
