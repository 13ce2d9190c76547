"""Number-theoretic layer: exact counts, divisibility checks, prime graph."""

from math import gcd, isqrt, prod

import pytest
from hypothesis import given, strategies as st

import szq.orderstats
from szq.group import make_params
from szq.orderstats import (
    OrderStats,
    ScaleRefusal,
    _divisor_phis,
    Spectrum,
    coprime_part,
    divisors,
    euler_phi,
    factorize,
    frobenius_check,
    multiplicative_order,
    nse_closed_form,
    prime_graph,
    spectrum_closed_form,
    totient_divisor_check,
    type_function,
    weisner_count,
)

SZ8_COUNTS = {1: 1, 2: 455, 4: 3640, 5: 5824, 7: 12480, 13: 6720}
SZ32_COUNTS = {1: 1, 2: 31775, 4: 1016800, 5: 1301504,
               25: 6507520, 31: 15744000, 41: 7936000}


# -- elementary helpers -------------------------------------------------------

def test_euler_phi_against_brute_count():
    for n in range(1, 200):
        brute = sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
        assert euler_phi(n) == brute
    assert euler_phi(1) == 1
    assert euler_phi(13) == 12
    assert euler_phi(25) == 20


def test_divisors_against_brute_scan():
    for n in (1, 4, 12, 97, 360, 29120):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
    # 29120 = 2^6 * 5 * 7 * 13 -> 7 * 2 * 2 * 2 divisors
    assert len(divisors(29120)) == 56


@given(st.integers(min_value=1, max_value=10 ** 6))
def test_divisor_phis_from_the_factorization(n):
    phis = _divisor_phis(factorize(n))
    brute = {d for k in range(1, isqrt(n) + 1) if n % k == 0 for d in (k, n // k)}
    assert set(phis) == brute
    assert all(phi == euler_phi(d) for d, phi in phis.items())
    assert sum(phis.values()) == n


def test_factorize_roundtrip():
    for n in range(1, 500):
        prod = 1
        for p, k in factorize(n).items():
            prod *= p ** k
        assert prod == n


# 5 lies below the wheel primes 7 and 11; 100 and 211 fall in the wheel's
# first block of candidates, 11..211 (211 is its last), and 1000 in the block
# 851..1051.
@pytest.mark.parametrize("bound", [5, 100, 211, 1000])
@given(st.integers(min_value=1, max_value=10 ** 7))
def test_factorize_stops_at_its_bound(bound, n):
    # A cofactor free of primes up to the bound is proven prime below
    # (bound + 1)^2 and refused from there on.
    cofactor = n
    for d in range(2, bound + 1):
        while cofactor % d == 0:
            cofactor //= d
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(szq.orderstats, "FACTOR_BOUND", bound)
        if cofactor >= (bound + 1) ** 2:
            with pytest.raises(ScaleRefusal, match=f"bound of {bound}"):
                factorize(n)
            return
        fac = factorize(n)
    assert all(factorize(p) == {p: 1} for p in fac)
    assert prod(p ** k for p, k in fac.items()) == n


def reference_factorize(n):
    """Trial division by every integer from 2 up to the square root."""
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@given(st.integers(min_value=1, max_value=10 ** 10))
def test_factorize_matches_trial_division_by_every_integer(n):
    fac = factorize(n)
    assert fac == reference_factorize(n)
    assert list(fac) == sorted(fac)
    assert prod(p ** k for p, k in fac.items()) == n
    assert all(reference_factorize(p) == {p: 1} for p in fac)


# The wheel's seams: 11 = 11 + 0 and 221 = 11 + 210 open a block, 211 and
# 421 close one, and 7 is the last prime divided out before the wheel.
@pytest.mark.parametrize("n, fac", [
    (121, {11: 2}),
    (209, {11: 1, 19: 1}),
    (221, {13: 1, 17: 1}),
    (211 ** 2, {211: 2}),
    (419 * 421, {419: 1, 421: 1}),
    (7 ** 12, {7: 12}),
])
def test_factorize_at_the_wheel_seams(n, fac):
    assert factorize(n) == fac


def test_factorize_clips_the_last_block_at_its_bound(monkeypatch):
    # 997 is the last candidate up to 1000, in the block 851..1051.
    monkeypatch.setattr(szq.orderstats, "FACTOR_BOUND", 1000)
    assert factorize(997 ** 2) == {997: 2}
    with pytest.raises(ScaleRefusal, match="bound of 1000"):
        factorize(1009 ** 2)


def test_coprime_part():
    assert coprime_part(29120, 2) == 455
    assert coprime_part(29120, 13) == 2240
    assert coprime_part(45, 15) == 1


def test_multiplicative_order_against_brute_force():
    for n in range(2, 80):
        for a in range(2, n):
            if gcd(a, n) != 1:
                continue
            d = 1
            acc = a % n
            while acc != 1:
                acc = acc * a % n
                d += 1
            assert multiplicative_order(a, n) == d


def test_multiplicative_order_known_values():
    assert multiplicative_order(2, 455) == 12
    assert pow(2, 12, 455) == 1
    assert multiplicative_order(2, 31775) == 20


def test_multiplicative_order_rejects_nonunits():
    with pytest.raises(ValueError):
        multiplicative_order(10, 455)


# -- spectrum ------------------------------------------------------------------

def test_spectrum_q8():
    spectrum = spectrum_closed_form(make_params(1))
    assert set(spectrum.orders) == {1, 2, 4, 5, 7, 13}


def test_spectrum_q32():
    spectrum = spectrum_closed_form(make_params(2))
    assert set(spectrum.orders) == {1, 2, 4, 5, 25, 31, 41}


@pytest.mark.parametrize("m", range(1, 6))
def test_spectrum_divisor_closed(m):
    spectrum = spectrum_closed_form(make_params(m))
    for i in spectrum:
        for d in range(1, i + 1):
            if i % d == 0:
                assert d in spectrum


# -- closed-form counts ----------------------------------------------------------

def test_nse_closed_form_q8():
    stats = nse_closed_form(make_params(1))
    assert stats.counts == SZ8_COUNTS
    assert stats.total == 29120


def test_nse_closed_form_q32():
    stats = nse_closed_form(make_params(2))
    assert stats.counts == SZ32_COUNTS
    assert stats.total == 32537600


@pytest.mark.parametrize("m", range(1, 9))
def test_nse_sum_identity(m):
    p = make_params(m)
    stats = nse_closed_form(p)
    assert sum(stats.counts.values()) == p.group_order
    assert stats.counts[1] == 1


def _divisor_scan_closed_form(params):
    """The closed forms transcribed with one divisor scan per class order and
    one euler_phi call per divisor, as a differential reference."""
    q, s = params.q, params.s
    q2 = q * q
    counts = {1: 1, 2: (q - 1) * (q2 + 1), 4: q * (q - 1) * (q2 + 1)}
    for n, num, den in ((params.u1, q2 * (q - s + 1) * (q - 1), 4),
                        (params.u2, q2 * (q + s + 1) * (q - 1), 4),
                        (params.v, q2 * (q2 + 1), 2)):
        for i in divisors(n):
            if i > 1:
                counts[i] = euler_phi(i) * num // den
    return counts


@pytest.mark.parametrize("m", range(1, 13))
def test_nse_closed_form_matches_divisor_scan(m):
    p = make_params(m)
    stats = nse_closed_form(p)
    assert stats.counts == _divisor_scan_closed_form(p)
    assert stats.total == p.group_order


@pytest.mark.parametrize("m", range(1, 9))
def test_involution_count_is_the_unique_odd_value(m):
    stats = nse_closed_form(make_params(m))
    odd = [c for i, c in stats.counts.items() if c > 1 and c % 2 == 1]
    assert odd == [stats.counts[2]]


@pytest.mark.parametrize("m", [*range(1, 9), 14, 20])
def test_counts_keys_match_spectrum(m):
    p = make_params(m)
    assert set(nse_closed_form(p).counts) == set(spectrum_closed_form(p).orders)


# -- type function ----------------------------------------------------------------

def test_type_function_basics():
    stats = nse_closed_form(make_params(1))
    assert type_function(stats, 1) == 1
    assert type_function(stats, 4) == 4096
    assert type_function(stats, 29120) == 29120


@pytest.mark.parametrize("m", range(1, 9))
def test_type_function_at_four_is_q_fourth(m):
    p = make_params(m)
    stats = nse_closed_form(p)
    assert type_function(stats, 4) == p.q ** 4


def _type_function_by_divisors(stats, n):
    """The reference: the counts at every divisor of n, from n's factorization."""
    return sum(stats.counts.get(d, 0) for d in divisors(n))


@given(counts=st.dictionaries(st.integers(-3, 300), st.integers(0, 10 ** 9), max_size=12),
       n=st.one_of(st.integers(1, 10 ** 5), st.sampled_from(divisors(32537600))))
def test_type_function_is_the_divisor_sum(counts, n):
    # Orders 0 and below, as perturbed stats may hold, divide nothing.
    stats = OrderStats(counts=counts, total=sum(counts.values()))
    assert type_function(stats, n) == _type_function_by_divisors(stats, n)


@pytest.mark.parametrize("n", [0, -1, -29120])
def test_type_function_refuses_n_below_1(n):
    with pytest.raises(ValueError):
        type_function(nse_closed_form(make_params(1)), n)


# -- divisibility checks -------------------------------------------------------------

def test_frobenius_check_passes_on_closed_form():
    report = frobenius_check(nse_closed_form(make_params(1)))
    assert report.passed and report.detail == "0 violations"


def test_frobenius_check_flags_perturbation():
    counts = dict(SZ8_COUNTS)
    counts[2] -= 2  # x^4 = 1 now has 4094 solutions, not divisible by 4
    report = frobenius_check(OrderStats(counts=counts, total=29120))
    assert not report.passed
    assert report.detail.startswith("47 violations; n=4: 4094 solutions of x^n=1")


@pytest.mark.parametrize("m", [1, 2])
def test_frobenius_check_factors_the_group_order_once(m, monkeypatch):
    # Its divisors (56 at q = 8, 132 at q = 32) come from one factorization,
    # and the type function factors none of them.
    stats = nse_closed_form(make_params(m))
    calls, real = [], szq.orderstats.factorize
    monkeypatch.setattr(szq.orderstats, "factorize", lambda n: calls.append(n) or real(n))
    assert frobenius_check(stats).passed
    assert calls == [stats.total]


def test_frobenius_check_trivial_group():
    assert frobenius_check(OrderStats(counts={1: 1}, total=1)).passed


@pytest.mark.parametrize("m", [1, 2])
def test_totient_divisor_check_passes(m):
    report = totient_divisor_check(nse_closed_form(make_params(m)))
    assert report.passed


def test_totient_divisor_check_flags_bad_stats():
    report = totient_divisor_check(OrderStats(counts={1: 1, 3: 3}, total=4))
    assert not report.passed
    assert "; i=3: phi(3)=2 does not divide 3;" in report.detail


def test_weisner_counts_q8():
    stats = nse_closed_form(make_params(1))
    f2, rep2 = weisner_count(stats, 2)
    assert f2 == 4095 == 9 * 455 and rep2.passed and rep2.detail == "f(2) = 4095"
    f13, rep13 = weisner_count(stats, 13)
    assert f13 == 6720 == 3 * 2240 and rep13.passed
    f11, rep11 = weisner_count(stats, 11)
    assert f11 == 0 and rep11.passed


def test_weisner_flags_violation():
    _, rep = weisner_count(OrderStats(counts={1: 1, 2: 2, 4: 3}, total=6), 2)
    assert not rep.passed
    assert rep.detail == "f(2) = 5, no multiple of coprime part 3"


# -- prime graph -------------------------------------------------------------------------

def test_prime_graph_sz8():
    p = make_params(1)
    g = prime_graph(spectrum_closed_form(p), p.group_order)
    assert g.vertices == frozenset({2, 5, 7, 13})
    assert g.edges == frozenset()
    assert len(g.components) == 4
    assert g.order_components == (64, 5, 7, 13)


def test_prime_graph_sz32_has_isolated_two():
    p = make_params(2)
    g = prime_graph(spectrum_closed_form(p), p.group_order)
    assert g.edges == frozenset()  # 25 = 5^2 contributes no edge
    assert frozenset({2}) in g.components
    prod = 1
    for n in g.order_components:
        prod *= n
    assert prod == p.group_order


def test_prime_graph_composite_spectrum_entry_makes_edge():
    g = prime_graph(Spectrum.from_values((6,)), 12)
    assert g.edges == frozenset({(2, 3)})
    assert g.components == (frozenset({2, 3}),)
    assert g.order_components == (12,)


def test_prime_graph_rejects_foreign_prime():
    with pytest.raises(ValueError):
        prime_graph(Spectrum.from_values((11,)), 10)


# -- serialization ------------------------------------------------------------------------

def test_order_stats_json_roundtrip_preserves_big_integers():
    stats = nse_closed_form(make_params(7))  # counts here exceed 64-bit range
    assert any(c > 2 ** 64 for c in stats.counts.values())
    data = stats.to_json_dict()
    assert all(isinstance(v, str) for v in data["counts"].values())
    back = OrderStats(counts={int(i): int(c) for i, c in data["counts"].items()},
                      total=int(data["total"]))
    assert back == stats
