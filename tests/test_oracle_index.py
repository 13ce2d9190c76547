"""The oracle's integer index against the product-based scans it replaced.

``ref_normalizer``, ``ref_centralizer`` and ``ref_conjugate_orbit`` are the
direct matrix-product versions of ``normalizer``, ``centralizer`` and
``conjugate_orbit``: every (element, generator) pair costs real products.
The index path must return exactly what they return, and a table whose
index cannot be built must raise, never yield a wrong set.
"""

import pytest

from szq.field import Field
from szq.group import CertificationError, make_w, w_elements, w_generators
from szq.mat4 import Mat4, element_order
from szq.oracle import (
    ElementTable,
    SubgroupHandle,
    _generating_set,
    _walk,
    centralizer,
    conjugate_orbit,
    enumerate_group,
    find_cyclic_subgroup,
    normalizer,
)


# -- the product-based reference ---------------------------------------------------

def gauss_jordan_inverses(table):
    return {key: x.inv() for key, x in table.by_key.items()}


@pytest.fixture(scope="module")
def sz8_inverses(sz8):
    return gauss_jordan_inverses(sz8.table)


def ref_normalizer(table, sub, inv):
    gens = [sub.cyclic_generator] if sub.cyclic_generator is not None else \
        _generating_set(table, sub.members)
    if not gens:
        return SubgroupHandle(frozenset(table.by_key), table.size)
    found = []
    for key in table.sorted_keys():
        g, gi = table.by_key[key], inv[key]
        if all(((g * h) * gi).entries in sub.members for h in gens):
            found.append(key)
    return SubgroupHandle(frozenset(found), len(found))


def ref_centralizer(table, x):
    found = [key for key in table.sorted_keys()
             if table.by_key[key] * x == x * table.by_key[key]]
    return SubgroupHandle(frozenset(found), len(found))


def ref_conjugate_orbit(table, members):
    by_key = table.by_key

    def conjugate(sub, move):
        g, gi = move
        return frozenset(by_key[(g * by_key[k] * gi).entries].entries for k in sub)

    moves = [(g, g.inv()) for g in table.generators]
    return sorted(_walk([members], moves, conjugate, lambda sub: sub), key=sorted)


def assert_index_agrees(table, sub, inv):
    assert normalizer(table, sub) == ref_normalizer(table, sub, inv)
    assert conjugate_orbit(table, sub.members) == ref_conjugate_orbit(table, sub.members)
    if sub.cyclic_generator is not None:
        x = sub.cyclic_generator
        assert centralizer(table, x) == ref_centralizer(table, x)


# -- differential: Sz(8) and W at q = 32 ----------------------------------------

@pytest.fixture(scope="module")
def w32():
    return enumerate_group(w_generators(Field(2)), limit=1024)


@pytest.mark.parametrize("name", ["u1", "u2", "v"])
def test_cyclic_classes_of_sz8(sz8, sz8_inverses, name):
    sub = find_cyclic_subgroup(sz8.table, getattr(sz8.params, name))
    assert_index_agrees(sz8.table, sub, sz8_inverses)


def test_w_class_of_sz8(sz8, sz8_inverses):
    members = frozenset(w.entries for w in w_elements(sz8.field))
    sub = SubgroupHandle(members, len(members))
    assert_index_agrees(sz8.table, sub, sz8_inverses)
    for x in (make_w(sz8.field.one, sz8.field.zero), make_w(sz8.field.zero, sz8.field.one)):
        assert centralizer(sz8.table, x) == ref_centralizer(sz8.table, x)


def test_w_at_q32(w32):
    f = Field(2)
    inverses = gauss_jordan_inverses(w32)
    for x in (make_w(f.one, f.zero), make_w(f.zero, f.one),
              make_w(f.primitive_element(), f.one)):
        k = element_order(x, (4,))
        assert_index_agrees(w32, SubgroupHandle(
            frozenset((x ** i).entries for i in range(k)), k, cyclic_generator=x), inverses)
    center = frozenset(make_w(f.zero, b).entries for b in f.elements())
    assert_index_agrees(w32, SubgroupHandle(center, len(center)), inverses)
    trivial = SubgroupHandle(frozenset([Mat4.identity(f).entries]), 1)
    assert normalizer(w32, trivial).order == w32.size


# -- the index itself ---------------------------------------------------------------

@pytest.mark.parametrize("which", ["sz8", "w32"])
def test_permutations_are_bijections_and_the_tree_spans(request, which):
    table = request.getfixturevalue(which)
    if which == "sz8":
        table = table.table
    index = table._group_index()
    keys, n = table.sorted_keys(), table.size
    assert index.generators and len(index.conj) == len(index.generators)
    for s, c in zip(index.generators, index.conj):
        assert sorted(c) == list(range(n))
        si = s.inv()
        for i in range(0, n, max(1, n // 300)):
            assert keys[c[i]] == (s * table.by_key[keys[i]] * si).entries
    nodes, parents, moves = index.tree
    assert sorted([index.root, *nodes]) == list(range(n))
    for x, p, j in zip(nodes, parents, moves):
        assert keys[x] == (index.generators[j] * table.by_key[keys[p]]).entries


def test_redundant_generators_are_skipped(sz8):
    # w(0, 1) = w(1, 0)^2 lies in the group the first generator generates.
    assert sz8.table._group_index().generators == [
        g for g in sz8.table.generators if g != make_w(sz8.field.zero, sz8.field.one)]


def _corrupt(kind):
    f = Field(1)
    table = enumerate_group(w_generators(f), limit=64)
    by_key = dict(table.by_key)
    keys = sorted(by_key)
    if kind == "not-spanned":
        return ElementTable(f, by_key, [make_w(f.zero, f.one)])
    if kind == "not-a-bijection":
        by_key[keys[5]] = by_key[keys[6]]
    elif kind == "not-closed":
        del by_key[keys[5]]
    return ElementTable(f, by_key, table.generators)


@pytest.mark.parametrize("kind", ["not-spanned", "not-a-bijection", "not-closed"])
def test_a_broken_index_raises(kind):
    table = _corrupt(kind)
    x = make_w(table.field.one, table.field.zero)
    sub = SubgroupHandle(frozenset((x ** i).entries for i in range(4)), 4, x)
    for scan in (lambda: normalizer(table, sub), lambda: centralizer(table, x),
                 lambda: conjugate_orbit(table, sub.members)):
        with pytest.raises(CertificationError):
            scan()


def test_scans_refuse_elements_outside_the_table(sz8):
    wt = enumerate_group(w_generators(sz8.field), limit=64)
    outside = sz8.generators[3]  # the Weyl element is not in W
    with pytest.raises(ValueError):
        centralizer(wt, outside)
    with pytest.raises(ValueError):
        conjugate_orbit(wt, frozenset([outside.entries]))
