"""Closures over ranks against closures by ``StabilizerChain.mul``.

``subgroup``, ``_generating_set`` and ``normalizer``'s d(lam) orbits
close through the chain's hooks
(``StabilizerChain._hooks``): each member is decoded once to its base
images, and each move maps them through a point permutation and sifts them,
with no ``mul`` per product.  At q = 8, under both moduli of GF(8), the
subgroup of 1 to 4 drawn ranks must be the reference closure
``_walk([identity], ranks, chain.mul)``, and ``_generating_set`` must keep
the generators a ``mul``-based re-closing keeps, for W, N(W) and the three
cyclic classes.  A closure one element past its limit raises
ClosureLimitError, a chain whose table lacks a product raises
CertificationError rather than yielding a negative rank, and a generator
that is no rank raises ValueError.  ``verify`` calls ``mul`` neither at
q = 8, under either modulus, nor at q = 32.
"""

import contextlib
import io
from copy import copy

import pytest
from hypothesis import given, settings, strategies as st

from szq.cli import main
from szq.field import Field
from szq.group import CertificationError
from szq.oracle import (
    ClosureLimitError,
    StabilizerChain,
    _generating_set,
    _walk,
    find_cyclic_subgroup,
    normalizer,
    subgroup,
    unitriangular,
)

MODULI = [0xb, 0xd]


@pytest.fixture(scope="module")
def worlds(params8):
    """By modulus: the q = 8 chain, W, N(W) and the three cyclic classes."""
    out = {}
    for modulus in MODULI:
        chain = StabilizerChain(params8, Field(1, modulus=modulus))
        w = unitriangular(chain)
        classes = {"w": w, "n(w)": normalizer(chain, w)}
        for name in ("u1", "u2", "v"):
            classes[name] = find_cyclic_subgroup(chain, getattr(params8, name))
        out[modulus] = (chain, classes)
    return out


def _mul_closure(chain, ranks):
    """The reference closure: every product taken by ``chain.mul``."""
    return _walk([chain.identity], list(ranks), chain.mul)


def _mul_generating_set(chain, members):
    """``_generating_set`` as it closed before the hooks: each span re-closed
    by ``chain.mul`` from the kept generators."""
    gens, span = [], {chain.identity}
    for x in sorted(members):
        if x not in span:
            gens.append(x)
            span = _mul_closure(chain, gens)
    assert span == set(members)
    return gens


# Each drawn rank is the i-th member (mod its size) of W, of N(W) or of the
# whole group, so that small, middling and whole closures are all drawn.
_PICKS = st.lists(st.tuples(st.sampled_from(["w", "n(w)", "all"]), st.integers(0, 29119)),
                  min_size=1, max_size=4)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(picks=_PICKS)
def test_subgroup_is_the_mul_closure(worlds, picks):
    for chain, classes in worlds.values():
        pools = {name: sorted(h.members) for name, h in classes.items()}
        ranks = [i if name == "all" else pools[name][i % len(pools[name])] for name, i in picks]
        assert subgroup(chain, ranks, chain.size).members == _mul_closure(chain, ranks)


@pytest.mark.parametrize("modulus", MODULI, ids=hex)
@pytest.mark.parametrize("name", ["w", "n(w)", "u1", "u2", "v"])
def test_the_generating_set_is_the_mul_reference_s(worlds, modulus, name):
    chain, classes = worlds[modulus]
    members = classes[name].members
    assert _generating_set(chain, members) == _mul_generating_set(chain, members)


@pytest.mark.parametrize("modulus", MODULI, ids=hex)
def test_a_closure_past_its_limit_raises(worlds, modulus):
    chain, classes = worlds[modulus]
    w = classes["w"].members
    gens = _generating_set(chain, w)
    assert subgroup(chain, gens, len(w)).members == w
    with pytest.raises(ClosureLimitError):
        subgroup(chain, gens, len(w) - 1)


@pytest.mark.parametrize("modulus", MODULI, ids=hex)
def test_a_product_missing_from_the_table_raises(worlds, modulus):
    # The level table of a copy loses the entry of W's largest rank: the
    # closure of W reaches it as a product and must refuse it, where an
    # unchecked sift would yield a negative rank.
    chain, classes = worlds[modulus]
    w = classes["w"].members
    gens = _generating_set(chain, w)
    broken = copy(chain)
    broken._level12 = [list(row) for row in chain._level12]
    r = max(w - {chain.identity})
    u0, u1, u2 = chain.element(r)
    p0, p1, p2 = (u0[u1[u2[b]]] for b in chain.base)
    inverse = chain._inverse_at[p0]
    broken._level12[inverse[p1]][inverse[p2]] = -(chain.size + 1)
    assert chain.sift(p0, p1, p2) == r and broken.sift(p0, p1, p2) == -1
    with pytest.raises(CertificationError, match="not closed under products"):
        subgroup(broken, gens, len(w))
    assert subgroup(chain, gens, len(w)).members == w


@pytest.mark.parametrize("non_rank", [-1, 29120, True, 2.0])
def test_a_generator_that_is_no_rank_is_refused(worlds, non_rank):
    chain, classes = worlds[0xb]
    gens = _generating_set(chain, classes["w"].members)
    with pytest.raises(ValueError, match="no rank of the chain"):
        subgroup(chain, [*gens, non_rank], 64)


@pytest.mark.parametrize("q, modulus", [(8, "0xb"), (8, "0xd"), (32, "0x25")])
def test_verify_makes_no_mul_call(monkeypatch, q, modulus):
    # The closures, the scans and the certificate step base images: no
    # command multiplies two ranks.
    calls, real = [], StabilizerChain.mul

    def counted(self, r, s):
        calls.append((r, s))
        return real(self, r, s)

    monkeypatch.setattr(StabilizerChain, "mul", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--q", str(q), "--modulus", modulus, "--allow-big"]) == 0
    assert calls == []
