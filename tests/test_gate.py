"""Profile gate: inference, certificates, and the end-to-end pipeline."""

import json
import sys

import pytest

from szq.gate import (
    CandidateProfile,
    InvolutionCountError,
    ProfileError,
    frobenius_exclusion,
    identify_m2,
    infer_q,
    isolation_certificate,
    load_profile,
    nse_match_check,
    run_gate,
    simple_section_check,
    two_frobenius_exclusion,
)
from szq.group import make_params
from szq.orderstats import multiplicative_order, nse_closed_form

SZ8_SET = frozenset({1, 455, 3640, 5824, 6720, 12480})


def _profile(m: int) -> CandidateProfile:
    p = make_params(m)
    return CandidateProfile(
        order=p.group_order,
        nse_set=frozenset(nse_closed_form(p).counts.values()))


# -- order inference -----------------------------------------------------------

def test_infer_q_known_orders():
    assert infer_q(29120) == 1
    assert infer_q(32537600) == 2
    assert infer_q(29121) is None
    assert infer_q(20160) is None  # |A8|


@pytest.mark.parametrize("m", range(1, 9))
def test_infer_q_roundtrip(m):
    assert infer_q(make_params(m).group_order) == m


# -- involution count -----------------------------------------------------------

def test_identify_m2_for_suzuki_sets():
    assert identify_m2(SZ8_SET) == 455
    assert identify_m2(frozenset(nse_closed_form(make_params(2)).counts.values())) == 31775


@pytest.mark.parametrize("m", range(1, 9))
def test_identify_m2_agrees_with_closed_form(m):
    stats = nse_closed_form(make_params(m))
    assert identify_m2(frozenset(stats.counts.values())) == stats.counts[2]


def test_identify_m2_rejects_no_odd_value():
    with pytest.raises(InvolutionCountError):
        identify_m2(frozenset({1, 6, 8}))


def test_identify_m2_rejects_two_odd_values():
    with pytest.raises(InvolutionCountError):
        identify_m2(frozenset({1, 3, 5}))


# -- individual certificates ------------------------------------------------------

def test_nse_match_passes_and_fails():
    assert nse_match_check(_profile(1), nse_closed_form(make_params(1))).passed
    perturbed = CandidateProfile(order=29120,
                                 nse_set=frozenset({1, 455, 3640, 5824, 6721, 12480}))
    assert not nse_match_check(perturbed, nse_closed_form(make_params(1))).passed


def test_nse_match_strict_map_mode():
    counts = nse_closed_form(make_params(1)).counts
    good = CandidateProfile(order=29120, nse_set=frozenset(counts.values()),
                            nse_map=dict(counts))
    assert nse_match_check(good, nse_closed_form(make_params(1))).passed
    swapped = dict(counts)
    swapped[5], swapped[7] = swapped[7], swapped[5]
    bad = CandidateProfile(order=29120, nse_set=frozenset(swapped.values()),
                           nse_map=swapped)
    assert not nse_match_check(bad, nse_closed_form(make_params(1))).passed


@pytest.mark.parametrize("m", range(1, 9))
def test_isolation_certificate(m):
    p = make_params(m)
    assert isolation_certificate(p, nse_closed_form(p)).passed


def test_isolation_details_q8():
    check = isolation_certificate(make_params(1), nse_closed_form(make_params(1)))
    assert "4095 = 455 * 9" in check.detail


@pytest.mark.parametrize("m", range(1, 9))
def test_frobenius_exclusion(m):
    assert frobenius_exclusion(m).passed


@pytest.mark.parametrize("m", range(1, 9))
def test_two_frobenius_exclusion(m):
    assert two_frobenius_exclusion(m).passed


def test_two_frobenius_orders():
    assert "ord(2 mod 455) = 12 > 6" in two_frobenius_exclusion(1).detail
    assert "ord(2 mod 31775) = 20 > 10" in two_frobenius_exclusion(2).detail


@pytest.mark.parametrize("m", range(1, 13))
def test_two_frobenius_order_is_the_multiplicative_order(m):
    # The certificate reduces the multiple 8m+4; multiplicative_order factors
    # the whole modulus and combines the orders of its prime powers.
    p = make_params(m)
    mod = (p.q * p.q + 1) * (p.q - 1)
    d = multiplicative_order(2, mod)
    assert two_frobenius_exclusion(m).detail.startswith(f"ord(2 mod {mod}) = {d} > ")


@pytest.mark.parametrize("m", range(1, 9))
def test_simple_section_check(m):
    assert simple_section_check(m).passed


# -- pipeline -----------------------------------------------------------------------

@pytest.mark.parametrize("m", range(1, 9))
def test_gate_accepts_suzuki_profiles(m):
    report = run_gate(_profile(m))
    assert report.verdict == "ACCEPT"
    assert report.inferred_m == m
    assert all(c.passed for c in report.checks)


def test_run_gate_computes_the_closed_forms_once(monkeypatch):
    profile = _profile(3)
    calls = []

    def counted(params):
        calls.append(params.m)
        return nse_closed_form(params)

    monkeypatch.setattr("szq.gate.nse_closed_form", counted)
    assert run_gate(profile).verdict == "ACCEPT"
    assert calls == [3]


def test_gate_accepts_full_map_profile():
    counts = nse_closed_form(make_params(1)).counts
    profile = CandidateProfile(order=29120, nse_set=frozenset(counts.values()),
                               nse_map=dict(counts))
    assert run_gate(profile).verdict == "ACCEPT"


@pytest.mark.parametrize("bumped", sorted(SZ8_SET))
def test_gate_rejects_every_single_value_perturbation(bumped):
    perturbed = frozenset(v + 1 if v == bumped else v for v in SZ8_SET)
    report = run_gate(CandidateProfile(order=29120, nse_set=perturbed))
    assert report.verdict == "REJECT"


def test_gate_rejects_non_suzuki_order():
    report = run_gate(CandidateProfile(order=20160, nse_set=SZ8_SET))
    assert report.verdict == "REJECT"
    assert report.inferred_m is None
    assert [c.name for c in report.checks] == ["order_form"]


def test_gate_verdict_is_conjunction_of_checks():
    for profile in (_profile(1), CandidateProfile(order=29120, nse_set=frozenset({1, 2}))):
        report = run_gate(profile)
        assert (report.verdict == "ACCEPT") == all(c.passed for c in report.checks)


def test_gate_report_json_shape():
    data = run_gate(_profile(1)).to_json_dict()
    assert data["verdict"] == "ACCEPT"
    assert data["inferred_m"] == 1
    assert {c["name"] for c in data["checks"]} == {
        "order_form", "involution_count", "nse_match", "isolated_two",
        "frobenius_excluded", "two_frobenius_excluded", "simple_section_unique"}
    assert "note" in data


# -- profile validation ----------------------------------------------------------------

def test_profile_rejects_nonpositive_values():
    with pytest.raises(ProfileError):
        run_gate(CandidateProfile(order=0, nse_set=frozenset({1})))
    with pytest.raises(ProfileError):
        run_gate(CandidateProfile(order=10, nse_set=frozenset({0, 1})))


TOO_LONG = 10 ** sys.get_int_max_str_digits()  # one digit more than str() converts


@pytest.mark.parametrize("profile", [
    CandidateProfile(order=TOO_LONG, nse_set=frozenset({1})),
    CandidateProfile(order=29120, nse_set=SZ8_SET | {TOO_LONG}),
    CandidateProfile(order=29120, nse_set=frozenset({1, 29119}), nse_map={1: 1, TOO_LONG: 29119}),
    CandidateProfile(order=29120, nse_set=frozenset({1, TOO_LONG}), nse_map={1: 1, 2: TOO_LONG}),
], ids=["order", "nse_set", "nse_map-order", "nse_map-count"])
def test_profile_numbers_beyond_the_digit_limit_are_profile_errors(profile):
    with pytest.raises(ProfileError, match="digits"):
        run_gate(profile)


def test_profile_numbers_at_the_digit_limit_are_gated():
    report = run_gate(CandidateProfile(order=TOO_LONG - 1, nse_set=frozenset({1})))
    assert report.verdict == "REJECT"
    assert str(TOO_LONG - 1) in report.checks[0].detail


def test_profile_rejects_map_sum_mismatch():
    with pytest.raises(ProfileError):
        run_gate(CandidateProfile(order=29120, nse_set=frozenset({1, 5}),
                                  nse_map={1: 1, 2: 5}))


def test_profile_from_json_dict():
    profile = CandidateProfile.from_json_dict(
        {"order": "29120", "nse_set": ["1", "455", "3640", "5824", "6720", "12480"]})
    assert profile.order == 29120
    assert profile.nse_set == SZ8_SET

    with_map = CandidateProfile.from_json_dict(
        {"order": 64, "nse_map": {"1": 1, "2": 7, "4": 56}})
    assert with_map.nse_map == {1: 1, 2: 7, 4: 56}
    assert with_map.nse_set == frozenset({1, 7, 56})


def test_profile_from_json_rejects_bad_shapes():
    with pytest.raises(ProfileError):
        CandidateProfile.from_json_dict({"nse_set": ["1"]})
    with pytest.raises(ProfileError):
        CandidateProfile.from_json_dict({"order": "8"})
    with pytest.raises(ProfileError):
        CandidateProfile.from_json_dict(
            {"order": "8", "nse_set": ["1"], "nse_map": {"1": "1"}})
    with pytest.raises(ProfileError):
        CandidateProfile.from_json_dict({"order": "x", "nse_set": ["1"]})
    with pytest.raises(ProfileError, match="order 4 appears twice"):
        CandidateProfile.from_json_dict(
            {"order": 120, "nse_map": {"1": 1, "2": 7, "4": 56, "04": 56}})


def test_profile_json_roundtrip(tmp_path):
    # A profile written as the README's JSON, set and map, loads back as it was.
    stats = nse_closed_form(make_params(2))
    for profile, data in (
            (_profile(2), {"order": str(stats.total),
                           "nse_set": [str(v) for v in sorted(set(stats.counts.values()))]}),
            (CandidateProfile(order=stats.total, nse_set=frozenset(stats.counts.values()),
                              nse_map=stats.counts),
             {"order": str(stats.total), "nse_map": stats.to_json_dict()["counts"]})):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(data))
        assert load_profile(str(path)) == profile
