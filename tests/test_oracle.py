"""Brute-force oracle: closure, census, subgroups, and the partition cover."""

import json
import random
from functools import reduce
from operator import attrgetter, mul

import pytest
from hypothesis import given, settings, strategies as st

import szq.oracle
from szq.cli import main
from szq.field import Field
from szq.group import candidate_generators, make_params, make_w, w_elements, w_generators
from szq.mat4 import Mat4, element_order
from szq.oracle import (
    ClosureLimitError,
    SubgroupHandle,
    SubgroupNotFoundError,
    _malloc_trim,
    _point_image,
    build_suzuki_table,
    centralizer,
    cyclic_subgroup,
    empirical_order_stats,
    enumerate_group,
    find_cyclic_subgroup,
    normalizer,
    subgroup,
)
from szq.orderstats import Spectrum, euler_phi, spectrum_closed_form

SZ8_COUNTS = {1: 1, 2: 455, 4: 3640, 5: 5824, 7: 12480, 13: 6720}


@pytest.fixture(scope="module")
def f8():
    return Field(1)


# -- enumeration -------------------------------------------------------------

def test_identity_generator_gives_trivial_group(f8):
    table = enumerate_group([Mat4.identity(f8)], limit=10)
    assert table.size == 1


def test_w_generators_close_to_full_w(f8):
    table = enumerate_group(w_generators(f8), limit=64)
    assert table.size == 64


def test_two_unitriangular_generators_close_to_a_4_cycle(f8):
    # w(1,0)^2 = w(0,1), so this pair only spans the cyclic group of order 4:
    # the homomorphism w(a,b) -> a maps the closure onto {0, 1}, not all of GF(8).
    w10 = make_w(f8.one, f8.zero)
    w01 = make_w(f8.zero, f8.one)
    table = enumerate_group([w10, w01], limit=64)
    assert table.size == 4
    assert set(table.by_key) == {
        m.entries for m in (Mat4.identity(f8), w10, w01, w10 * w01)}


def test_limit_exceeded_raises(f8):
    with pytest.raises(ClosureLimitError):
        enumerate_group(w_generators(f8), limit=10)


def test_enumerate_rejects_mixed_field_generators(f8):
    from szq.field import Field

    with pytest.raises(ValueError):
        enumerate_group([Mat4.identity(f8), Mat4.identity(Field(2))], limit=4)
    with pytest.raises(ValueError):
        enumerate_group([], limit=4)


def test_closure_size_certified(sz8):
    assert sz8.table.size == 29120


@pytest.mark.parametrize("m", [1, 2], ids=["q=8", "q=32"])
def test_borel_closure_makes_one_product_per_element_and_generator(monkeypatch, m):
    # Each element of B = W T, |B| = q^2 (q - 1), is lifted to a Mat4 once
    # and multiplied by each of the three generators: 3 |B| products.
    params = make_params(m)
    gens = candidate_generators(params, Field(m))[:3]
    order = params.q ** 2 * (params.q - 1)
    calls = 0
    product = Mat4.__mul__

    def counted(a, b):
        nonlocal calls
        calls += 1
        return product(a, b)

    monkeypatch.setattr(Mat4, "__mul__", counted)
    table = enumerate_group(gens, limit=order)
    assert table.size == len(table.sorted_keys()) == order
    assert calls == 3 * order


def test_closure_trims_the_heap_each_time_it_doubles(monkeypatch):
    # The walk hands the dict tables it has outgrown back to the system once
    # per doubling of its element count, so at most log2 |B| + 1 times, and
    # the trim changes nothing in the closure.
    params = make_params(2)
    gens = candidate_generators(params, Field(2))[:3]
    order = params.q ** 2 * (params.q - 1)
    pads = []
    monkeypatch.setattr(szq.oracle, "_malloc_trim", lambda: pads.append)
    table = enumerate_group(gens, limit=order)
    assert table.size == order
    assert pads and set(pads) == {0} and len(pads) <= order.bit_length()


def test_malloc_trim_is_callable_here():
    assert isinstance(_malloc_trim()(0), int)


def mat4_closure(gens):
    """Breadth-first closure over Mat4 objects: the reference the key-only
    walk is compared with."""
    one = Mat4.identity(gens[0].field)
    seen, frontier = {one}, [one]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                b = a * g
                if b not in seen:
                    seen.add(b)
                    new.append(b)
        frontier = new
    return seen


def test_borel_closure_through_kernels_matches_a_walk_over_matrices():
    # enumerate_group multiplies by kernel-carrying copies of its generators;
    # the reference walk multiplies by the caller's plain matrices.
    params = make_params(2)
    gens = candidate_generators(params, Field(2))[:3]
    before = [(g.entries, hash(g)) for g in gens]
    copies = [Mat4._make(g.field, g.entries) for g in gens]
    table = enumerate_group(gens, limit=params.q ** 2 * (params.q - 1))
    assert table.sorted_keys() == sorted(x.entries for x in mat4_closure(gens))
    assert all(t is g for t, g in zip(table.generators, gens))
    assert len(table.generators) == len(gens)
    assert [(g.entries, hash(g)) for g in gens] == before
    assert all(g._right is None for g in gens)  # no kernel attached to the caller's
    assert gens == copies


def test_closure_over_a_field_with_no_table():
    # q = 2048: the generators' copies carry no kernel and products take the
    # generic path.
    f = Field(5)
    w10 = make_w(f.one, f.zero)
    table = enumerate_group([w10], limit=4)
    assert table.sorted_keys() == sorted(x.entries for x in mat4_closure([w10]))


@pytest.mark.parametrize("group", ["w-q32", "sz8"])
def test_key_only_table_matches_a_walk_over_matrices(request, group):
    if group == "sz8":
        table, hints = request.getfixturevalue("sz8_matrices"), (2, 4, 5, 7, 13)
    else:
        table, hints = enumerate_group(w_generators(Field(2)), limit=1024), (2, 4)
    ref = sorted(mat4_closure(table.generators), key=attrgetter("entries"))
    keys = table.sorted_keys()
    assert keys == [x.entries for x in ref]
    assert table.by_key.keys() == set(keys)
    assert all(v is k for k, v in table.by_key.items())  # no Mat4 is kept
    orders, inverses = table.orders(), table.inverses()
    for i, x in enumerate(ref):
        assert table.element(keys[i]).entries == keys[i]
        assert orders[i] == element_order(x, hints)
        assert keys[inverses[i]] == x.inv().entries
    with pytest.raises(ValueError):
        table.element(Mat4.diagonal(table.field, [1, 1, 1, 0]).entries)


def test_an_ovoid_element_is_its_permutation(sz8):
    # The element of a matrix's rank moves every point as the matrix does.
    table = sz8.table
    for g in sz8.generators:
        action = [table.points.index(_point_image(table.field, p, g)) for p in table.points]
        assert table.permutation(table.rank(g)) == action
    with pytest.raises(ValueError):
        table._rank_of_images(list(range(64)) + [0])  # not a permutation


def test_a_singular_matrix_has_no_ovoid_key(sz8):
    # diag(1, 1, 1, 0) sends the ovoid point <e4> to the zero vector, which
    # names no point: a ValueError, not a division by zero while scaling.
    table = sz8.table
    assert len(table._number) == len(table.points) == 65
    with pytest.raises(ValueError, match="ovoid"):
        table.rank(Mat4.diagonal(table.field, [1, 1, 1, 0]))


@pytest.mark.parametrize("modulus", [0xb, 0xd], ids=["0xb", "0xd"])
def test_w_closes_inside_the_ovoid_table(params8, modulus):
    f = Field(1, modulus=modulus)
    _, table = build_suzuki_table(params8, f)
    w = subgroup(table, map(table.rank, w_generators(f)), limit=64)
    assert w.members == {table.rank(x) for x in w_elements(f)}
    assert w.order == 64 and w.cyclic_generator is None
    with pytest.raises(ClosureLimitError):
        subgroup(table, map(table.rank, w_generators(f)), limit=63)


# -- census -------------------------------------------------------------------

def test_census_is_the_closed_form(sz8):
    assert sz8.stats.counts == SZ8_COUNTS
    assert sz8.stats.total == 29120


def test_census_of_trivial_table(f8):
    table = enumerate_group([Mat4.identity(f8)], limit=2)
    stats = empirical_order_stats(table)
    assert stats.counts == {1: 1}


def test_w_census(f8):
    table = enumerate_group(w_generators(f8), limit=64)
    stats = empirical_order_stats(table, Spectrum.from_values((4,)))
    assert stats.counts == {1: 1, 2: 7, 4: 56}
    assert max(stats.counts) == 4  # exponent of the 2-subgroup


def test_nse_oracle_census_matches_table_census(sz8, capsys):
    rc = main(["nse", "--q", "8", "--source", "oracle", "--output", "json",
               "--no-timestamp"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["oracle"] == sz8.stats.to_json_dict()


def test_w_census_without_hint(f8):
    table = enumerate_group(w_generators(f8), limit=64)
    assert empirical_order_stats(table).counts == {1: 1, 2: 7, 4: 56}


def test_limit_is_the_exact_closure_size(f8):
    assert enumerate_group(w_generators(f8), limit=64).size == 64
    with pytest.raises(ClosureLimitError):
        enumerate_group(w_generators(f8), limit=63)


def test_power_pass_matches_element_order_and_inv(sz8_matrices, params8):
    # The power pass derives the orders of all k powers from one walk;
    # element_order recomputes each on its own, and x^(ord - 1) must be the
    # Gauss-Jordan inverse.
    table = sz8_matrices
    hints = tuple(spectrum_closed_form(params8).orders)
    orders, keys = table.orders(), table.sorted_keys()
    assert len(orders) == table.size
    for i in random.Random(2024).sample(range(table.size), 500):
        x = table.element(keys[i])
        assert orders[i] == element_order(x, hints)
        assert x ** (orders[i] - 1) == x.inv()


def test_power_pass_on_w_at_q32():
    wt = enumerate_group(w_generators(Field(2)), limit=1024)
    assert wt.size == 1024
    orders = wt.orders()
    assert len(orders) == wt.size
    for i, key in enumerate(wt.sorted_keys()):
        x = wt.element(key)
        assert orders[i] == element_order(x, (4,))
        assert x ** (orders[i] - 1) == x.inv()


def test_ovoid_power_pass_matches_the_matrix_orders_and_inverses(sz8, sz8_matrices):
    # The permutation table's orders and inverses, looked up through the
    # boundary conversion, against element_order and Gauss-Jordan on matrices.
    table = sz8.table
    hints = tuple(spectrum_closed_form(sz8.params).orders)
    orders = table.orders()
    mats = sz8_matrices.sorted_keys()
    for entries in random.Random(2025).sample(mats, 300):
        x = sz8_matrices.element(entries)
        r = table.rank(x)
        assert orders[r] == element_order(x, hints)
        assert table.mul(r, table.rank(x.inv())) == table.identity


def test_the_ovoid_is_the_orbit_of_e1(sz8):
    points = sz8.table.points
    assert len(points) == 8 * 8 + 1
    assert (1, 0, 0, 0) in points and points == sorted(points)
    assert sz8.table.permutation(sz8.table.identity) == list(range(65))


_words = st.lists(st.integers(0, 3), min_size=1, max_size=10)


@settings(max_examples=60, deadline=None)
@given(words=st.lists(_words, min_size=2, max_size=12))
def test_the_ovoid_action_is_a_faithful_homomorphism(sz8, words):
    # On random words in the four generators: rank(a b) = rank(a) rank(b),
    # every matrix acts as the element of its rank on every point, and equal
    # ranks come from equal matrices.
    table = sz8.table
    mats = [reduce(mul, (sz8.generators[i] for i in w)) for w in words]
    ranks = [table.rank(a) for a in mats]
    for a, b, ra, rb in zip(mats, mats[1:], ranks, ranks[1:]):
        assert table.rank(a * b) == table.mul(ra, rb)
    assert len(set(mats)) == len(set(ranks))


def test_equal_tables_stay_equal_once_their_caches_fill(sz8, f8):
    a, b = (enumerate_group(w_generators(f8), limit=64) for _ in range(2))
    assert a == b
    a.orders()
    assert a == b and b == a
    assert a != enumerate_group([make_w(f8.one, f8.zero)], limit=64)
    sz8.table.orders()
    assert sz8.table == build_suzuki_table(sz8.params, sz8.field)[1]


def test_position_is_the_place_in_sorted_keys(sz8, sz8_matrices, f8):
    keys = sz8_matrices.sorted_keys()
    assert [sz8_matrices.position(k) for k in keys] == list(range(sz8_matrices.size))
    assert sz8.table.sorted_keys() == range(sz8.table.size)
    wt = enumerate_group(w_generators(f8), limit=64)
    with pytest.raises(ValueError):
        wt.position(sz8.generators[3].entries)  # the Weyl element is not in W


def test_find_cyclic_subgroup_takes_the_first_element_of_that_order(sz8):
    # Orders recounted by repeated products of the ranks.
    table = sz8.table

    def order(key):
        k, p = 1, key
        while p != table.identity:
            k, p = k + 1, table.mul(p, key)
        return k

    for k in (2, 4, 5, 7, 13):
        first = next(key for key in table.sorted_keys() if order(key) == k)
        assert find_cyclic_subgroup(table, k).cyclic_generator == first


def test_spectrum_found_is_exact(sz8):
    assert set(sz8.stats.counts) == {1, 2, 4, 5, 7, 13}


def test_census_surfaces_spectrum_violations(f8):
    from szq.mat4 import OrderNotFoundError

    table = enumerate_group(w_generators(f8), limit=64)
    with pytest.raises(OrderNotFoundError):
        empirical_order_stats(table, Spectrum.from_values((2,)))  # misses order 4
    with pytest.raises(OrderNotFoundError):
        empirical_order_stats(table, Spectrum.from_values((5,)))  # 2, 4 < 5 but divide no hint


def test_nse_value_set(sz8):
    assert set(sz8.stats.counts.values()) == {1, 455, 3640, 5824, 6720, 12480}


# -- subgroup digging ----------------------------------------------------------

def test_find_cyclic_subgroups(sz8):
    for k in (13, 7, 5):
        h = find_cyclic_subgroup(sz8.table, k)
        assert h.order == k == len(h.members)
    trivial = find_cyclic_subgroup(sz8.table, 1)
    assert trivial.order == 1


def test_find_cyclic_subgroup_missing_order(sz8):
    with pytest.raises(SubgroupNotFoundError):
        find_cyclic_subgroup(sz8.table, 3)


@pytest.mark.parametrize("wrong", [26, 5])
def test_cyclic_subgroup_refuses_a_wrong_order(sz8, wrong):
    # A multiple of the true order would give a handle with too few members;
    # a proper divisor would give a set that is no subgroup.
    table = sz8.table
    x = table.orders().index(13)
    assert len(cyclic_subgroup(table, x, 13).members) == 13
    with pytest.raises(ValueError, match="order"):
        cyclic_subgroup(table, x, wrong)


def test_normalizer_indices(sz8):
    for k, want in ((13, 52), (5, 20), (7, 14)):
        h = find_cyclic_subgroup(sz8.table, k)
        n = normalizer(sz8.table, h)
        assert n.order == want


def test_normalizer_of_w(sz8, f8):
    wt = enumerate_group(w_generators(f8), limit=64)
    handle = SubgroupHandle(frozenset(map(sz8.table.rank, map(wt.element, wt.by_key))), wt.size)
    n = normalizer(sz8.table, handle)
    assert n.order == 448
    assert sz8.table.size // n.order == 65


def test_centralizer_of_identity_is_whole_group(sz8, f8):
    c = centralizer(sz8.table, sz8.table.rank(Mat4.identity(f8)))
    assert c.order == sz8.table.size


def test_centralizers_of_torus_elements(sz8):
    for k in (13, 5):
        h = find_cyclic_subgroup(sz8.table, k)
        c = centralizer(sz8.table, h.cyclic_generator)
        assert c.order == k
        assert c.members == h.members


# -- partition ------------------------------------------------------------------

def test_partition_counts_and_cover(sz8_partition):
    report = sz8_partition.report
    assert (report.measured.n_w, report.measured.n_u1,
            report.measured.n_u2, report.measured.n_v) == (65, 560, 1456, 2080)
    assert report.coverage == 29119
    assert report.multiply_covered == 0
    assert report.missing == 0
    assert report.passed


def test_partition_consistent_with_orbit_stabilizer(sz8, sz8_partition):
    # conjugate count of W equals the index of its normalizer
    assert sz8_partition.report.measured.n_w == 29120 // 448


def test_sylow_counting_consistency(sz8, sz8_partition):
    report = sz8_partition.report
    class_counts = {13: report.measured.n_u1, 5: report.measured.n_u2,
                    7: report.measured.n_v}
    for p, n_class in class_counts.items():
        assert euler_phi(p) * n_class == sz8.stats.counts[p]


def test_partition_report_json_is_integers(sz8_partition):
    data = sz8_partition.report.to_json_dict()
    assert all(isinstance(v, int) for v in data.values())
    assert data["passed"] == 1
