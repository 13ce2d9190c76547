"""Suzuki parameters, the w(a, b) subgroup, generators, partition counts."""

import dataclasses

import pytest

import szq.oracle
from szq import StabilizerChain
from szq.field import Field
from szq.group import (
    CertificationError,
    candidate_generators,
    closed_form_subgroup_counts,
    make_params,
    make_w,
    params_for_q,
    torus_element,
    w_generators,
    weyl_element,
)
from szq.mat4 import Mat4

from matrix_reference import elements, order_and_inverse, w_elements


@pytest.fixture(scope="module")
def f8():
    return Field(1)


# -- parameters ---------------------------------------------------------------

def test_params_q8():
    p = make_params(1)
    assert (p.q, p.s, p.u1, p.u2, p.v) == (8, 4, 13, 5, 7)
    assert p.group_order == 29120 == 64 * 65 * 7


def test_params_q32():
    p = make_params(2)
    assert (p.q, p.s, p.u1, p.u2, p.v) == (32, 8, 41, 25, 31)
    assert p.group_order == 32537600


def test_params_m_zero_rejected():
    with pytest.raises(ValueError):
        make_params(0)


@pytest.mark.parametrize("m", range(1, 9))
def test_params_identities(m):
    p = make_params(m)
    assert p.s * p.s == 2 * p.q
    assert p.u1 * p.u2 == p.q * p.q + 1
    assert p.group_order == p.w_order * (p.q * p.q + 1) * p.v


def test_params_for_q():
    assert params_for_q(8).m == 1
    assert params_for_q(512).m == 4
    for bad in (0, 2, 4, 6, 16, 29120):
        with pytest.raises(ValueError):
            params_for_q(bad)


@pytest.mark.parametrize("bad", [True, False, 1.0, 8.0, "8", None])
def test_params_refuse_a_non_int(bad):
    # As Field does: make_params(True) is a typo, not Sz(8).
    with pytest.raises(TypeError, match="must be an int"):
        make_params(bad)
    with pytest.raises(TypeError, match="must be an int"):
        params_for_q(bad)


# -- the subgroup W -----------------------------------------------------------

def test_w_of_zero_zero_is_identity(f8):
    assert make_w(f8.zero, f8.zero) == Mat4.identity(f8)


def test_make_w_rejects_mixed_fields(f8):
    from szq.field import FieldMismatchError

    with pytest.raises(FieldMismatchError):
        make_w(f8.one, Field(2).one)


def test_group_law_exhaustive(f8):
    els = elements(f8)
    cache = {(a.bits, b.bits): make_w(a, b) for a in els for b in els}
    for a in els:
        at = a.twist()
        for b in els:
            left = cache[(a.bits, b.bits)]
            for c in els:
                shift = at * c
                for d in els:
                    got = left * cache[(c.bits, d.bits)]
                    want = cache[((a + c).bits, (b + d + shift).bits)]
                    assert got == want


def test_w_involutions_count(f8):
    one = Mat4.identity(f8)
    involutions = [w for w in w_elements(f8) if w != one and w * w == one]
    assert len(involutions) == f8.q - 1
    for w in involutions:
        # all of the form w(0, b): the subdiagonal entry (row 1, column 0) vanishes
        assert w.entries[4] == 0


def test_w_is_closed_with_exponent_four(f8):
    ws = w_elements(f8)
    wset = set(ws)
    assert len(wset) == 64
    for x in ws:
        for y in ws:
            assert x * y in wset
    orders = {order_and_inverse(x)[0] for x in ws}
    assert orders == {1, 2, 4}


# -- generators ---------------------------------------------------------------

def test_weyl_element_is_involution(f8):
    tau = weyl_element(f8)
    assert tau * tau == Mat4.identity(f8)


def test_torus_normalizes_w(f8):
    lam = f8.primitive_element()
    d = torus_element(f8, lam)
    t_exp = f8.twist_exponent
    d_inv = order_and_inverse(d)[1]
    for a in elements(f8):
        for b in elements(f8):
            conj = (d_inv * make_w(a, b)) * d
            assert conj == make_w(a * lam, b * lam ** (t_exp + 1))


def test_candidate_generators_are_invertible(f8):
    p = make_params(1)
    ident = Mat4.identity(f8)
    for g in candidate_generators(p, f8):
        inverse = order_and_inverse(g)[1]
        assert g * inverse == inverse * g == ident


def test_the_chain_certifies_its_generators(sz8):
    # The chain is the one constructor of Sz(q), exported from the package.
    assert StabilizerChain is szq.oracle.StabilizerChain
    chain = StabilizerChain(sz8.params, sz8.field)
    assert chain.generators == candidate_generators(sz8.params, sz8.field)
    assert chain.size == 29120


def test_certification_failure_is_loud(f8):
    fake = dataclasses.replace(make_params(1), group_order=29119)
    with pytest.raises(CertificationError):
        StabilizerChain(fake, f8)


def test_generator_field_mismatch_rejected(f8):
    with pytest.raises(ValueError):
        candidate_generators(make_params(2), f8)


def test_closure_orders_stay_in_spectrum(sz8):
    for g in sz8.generators:
        assert order_and_inverse(g)[0] in {1, 2, 4, 5, 7, 13}


# -- closed-form conjugate counts ----------------------------------------------

def test_subgroup_counts_q8():
    counts = closed_form_subgroup_counts(make_params(1))
    assert (counts.n_w, counts.n_u1, counts.n_u2, counts.n_v) == (65, 560, 1456, 2080)
    # cross-check against the class sizes
    assert 65 * 63 + 560 * 12 + 1456 * 4 + 2080 * 6 == 29119


@pytest.mark.parametrize("m", range(1, 9))
def test_partition_coverage_identity(m):
    p = make_params(m)
    c = closed_form_subgroup_counts(p)
    coverage = (c.n_w * (p.w_order - 1) + c.n_u1 * (p.u1 - 1) + c.n_u2 * (p.u2 - 1)
                + c.n_v * (p.v - 1))
    assert coverage == p.group_order - 1


def test_u1_class_accounts_for_its_orders():
    p = make_params(1)
    counts = closed_form_subgroup_counts(p)
    assert counts.n_u1 * (p.u1 - 1) == 6720  # every order-13 element, counted once


def test_w_generators_generate_all_of_w(f8):
    # At q = 8 the matrix closure of the 4 generators is every w(a, b); at
    # q = 32, on the chain under three moduli, the 6 generators, all in W,
    # close to |W| = 1,024 ranks, among them those of sampled w(a, b).
    from szq.oracle import enumerate_group, subgroup

    assert len(w_generators(f8)) == 4
    table = enumerate_group(w_generators(f8), limit=64)
    assert table.size == 64
    assert table.keys == {w.entries for w in w_elements(f8)}
    for modulus in (0x25, 0x29, 0x2f):
        f = Field(2, modulus=modulus)
        chain = StabilizerChain(make_params(2), f)
        gens = w_generators(f)
        assert len(gens) == 6
        w = subgroup(chain, map(chain.rank, gens), limit=1024)
        assert w.order == 1024
        assert {chain.rank(x) for x in w_elements(f)[::97]} <= w.members
