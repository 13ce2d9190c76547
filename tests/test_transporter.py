"""The three-point conjugator search against every rank, and the chain's
certificate that only the identity fixes three points.

``_transporter(chain, x, targets)`` returns the g with g^-1 x g among the
targets.  At q = 8, under both moduli of GF(8), the brute force conjugates x
by each of the 29,120 ranks, from the permutations, and sifts the result:
the search must return exactly those g for every element that ``verify``
scans (W's generating set, the generators of U1, U2 and V), for an
involution and an element of order 4 of W and for the identity, with their
classes and with themselves as targets.  A chain whose <d(lam)> orbits
collide or come out short is refused when it is built, naming the orbit, and
an involution x that fixes other than one point is refused by the search.
"""

from copy import copy
from types import SimpleNamespace

import pytest

import szq.oracle
from szq.field import Field
from szq.group import CertificationError
from szq.oracle import (
    StabilizerChain,
    _generating_set,
    _transporter,
    find_cyclic_subgroup,
    unitriangular,
)


@pytest.fixture(scope="module", params=[0xb, 0xd], ids=hex)
def world(request, params8):
    chain = StabilizerChain(params8, Field(1, modulus=request.param))
    w = unitriangular(chain)
    classes = {"w": w.members}
    xs = {f"w-generator-{i}": g for i, g in enumerate(_generating_set(chain, w.members))}
    for name in ("u1", "u2", "v"):
        h = find_cyclic_subgroup(chain, getattr(params8, name))
        classes[name], xs[name] = h.members, h.cyclic_generator
    one = chain.identity
    xs["w-involution"] = min(t for t in w.members if t != one and chain.order(t) == 2)
    xs["w-order-4"] = min(t for t in w.members if chain.order(t) == 4)
    xs["identity"] = one
    # conjugate[name][g]: the rank of g^-1 x g ("first g, then x, then g^-1")
    perms = {name: chain.permutation(x) for name, x in xs.items()}
    conjugate = {name: [] for name in xs}
    for g in range(chain.size):
        perm = chain.permutation(g)
        inverse = sorted(range(len(perm)), key=perm.__getitem__)
        for name, x in perms.items():
            conjugate[name].append(chain.sift(*(inverse[x[perm[b]]] for b in chain.base)))
    return SimpleNamespace(chain=chain, xs=xs, classes=classes, conjugate=conjugate)


_CASES = [(f"w-generator-{i}", "w") for i in range(3)] + [
    ("u1", "u1"), ("u2", "u2"), ("v", "v"), ("w-involution", "w"), ("w-order-4", "w"),
    ("identity", "w"), ("u1", "self"), ("u2", "self"), ("v", "self"),
    ("w-involution", "self"), ("w-order-4", "self"), ("identity", "self")]


@pytest.mark.parametrize("x, targets", _CASES)
def test_the_search_finds_every_conjugator_and_nothing_else(world, x, targets):
    chain, r = world.chain, world.xs[x]
    members = {r} if targets == "self" else world.classes[targets]
    want = {g for g, c in enumerate(world.conjugate[x]) if c in members}
    found = list(_transporter(chain, r, members))
    assert len(found) == len(set(found))
    assert set(found) == want
    assert want  # x itself, conjugated by the identity, is a target


def test_the_brute_force_sees_the_classes_normalizers(world):
    # W has a generating set of three (the cases above take each), and
    # |N(W)| = 448, |N(U1)| = 52, |N(U2)| = 20, |N(V)| = 14 at q = 8.
    assert sum(name.startswith("w-generator") for name in world.xs) == 3
    for name, order in (("w", 448), ("u1", 52), ("u2", 20), ("v", 14)):
        x = "w-generator-0" if name == "w" else name
        assert sum(c in world.classes[name] for c in world.conjugate[x]) == order


def _break_h2(change):
    """``_schreier`` with its transversal of H2 = <d(lam)> (the one level
    with a single generator) broken: U2[1] made a copy of U2[2], so every
    orbit it lists is one point short, or U2[1] with two points of different
    orbits swapped, so two orbits collide."""
    real = szq.oracle._schreier

    def broken(point, gens, n):
        orbit, reps, inverses = real(point, gens, n)
        if len(gens) == 1:
            if change == "short":
                reps[1] = reps[2]
            else:
                u = reps[1] = list(reps[1])
                k1 = next(k for k in range(n) if k not in orbit and u[k] != k)
                k2 = orbit[1]
                u[k1], u[k2] = u[k2], u[k1]
        return orbit, reps, inverses

    return broken


@pytest.mark.parametrize("change", ["short", "colliding"])
def test_a_chain_whose_h2_orbits_are_not_semiregular_is_refused(params8, change, monkeypatch):
    # The orbits, and so N0 N1 N2 and the sift table, stay those of Sz(8):
    # only the semiregularity certificate sees the broken transversal.
    monkeypatch.setattr(szq.oracle, "_schreier", _break_h2(change))
    with pytest.raises(CertificationError, match=r"the orbit of point \d+ under <d\(lam\)>"):
        StabilizerChain(params8, Field(1))


def test_the_chain_s_h2_orbits_are_semiregular(sz8):
    # 63 points outside b0 and b1, in 9 orbits of N2 = 7 points, each point
    # U2[c] of its orbit's least point.
    chain, (b0, b1, _) = sz8.table, sz8.table.base
    t2 = chain.transversals[2]
    outside = [p for p in range(65) if p not in (b0, b1)]
    assert len({chain._rep2[p] for p in outside}) == 9
    assert all(t2[chain._at2[p]][chain._rep2[p]] == p for p in outside)
    assert all(chain._rep2[p] == min(q for q in outside if chain._rep2[q] == chain._rep2[p])
               for p in outside)
    assert all(chain.orbits[j][chain._at1[p] if j else chain._offset_at[p] // (64 * 7)] == p
               for j in (0, 1) for p in range(65) if j == 0 or p != b0)


def test_an_involution_that_fixes_other_than_one_point_is_refused(sz8, monkeypatch):
    # Every involution of Sz(q) fixes one point of the ovoid, and the
    # search maps fixed point to fixed point; an x whose permutation is a
    # transposition, fixing 63 points, is refused rather than half searched.
    chain = copy(sz8.table)
    swap = list(range(65))
    swap[3], swap[4] = 4, 3
    monkeypatch.setattr(chain, "permutation", lambda r: swap)
    x = next(r for r in range(chain.size) if r != chain.identity)
    with pytest.raises(CertificationError, match="an involution fixes 63 points, not one"):
        _transporter(chain, x, {x})
