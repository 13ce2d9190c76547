"""Command-line behavior: outputs, determinism, exit codes."""

import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from szq import cli, oracle
from szq.cli import main
from szq.field import Field
from szq.gate import PROFILE_BYTE_LIMIT, ProfileError, load_profile
from szq.group import make_params
from szq.mat4 import Mat4
from szq.oracle import StabilizerChain
from szq.orderstats import Spectrum, nse_closed_form

GOLDEN = Path(__file__).parent / "data"

SZ8_PROFILE = {
    "order": "29120",
    "nse_set": ["1", "455", "3640", "5824", "6720", "12480"],
}


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- params -------------------------------------------------------------------

def test_params_table(capsys):
    rc, out, _ = run_cli(capsys, "params", "--q", "8")
    assert rc == 0
    assert "29120" in out


def test_params_json(capsys):
    rc, out, _ = run_cli(capsys, "params", "--m", "2", "--output", "json",
                         "--no-timestamp")
    assert rc == 0
    data = json.loads(out)
    assert data["group_order"] == "32537600"
    assert data["u1"] == "41"


def test_params_rejects_bad_q(capsys):
    rc, _, err = run_cli(capsys, "params", "--q", "6")
    assert rc == 2
    assert "2^(2m+1)" in err


@pytest.mark.parametrize("argv", [
    ("--m", "100000"), ("--m", "1000000000"), ("--q", str(2 ** 14001)),
], ids=["m=1e5", "m=1e9", "q=2^14001"])
def test_params_beyond_the_printable_range_are_refused(capsys, argv):
    # |Sz(q)| would print with more digits than the interpreter converts; the
    # refusal comes before 2^(2m+1) is built, with the limit in the reason.
    t0 = perf_counter()
    rc, out, err = run_cli(capsys, "params", *argv)
    assert perf_counter() - t0 < 1.0
    assert (rc, out) == (3, "")
    assert f"more than {sys.get_int_max_str_digits()} decimal digits" in err
    assert "set_int_max_str_digits" not in err


def test_the_largest_printable_m_is_answered(capsys):
    err = run_cli(capsys, "params", "--m", "100000")[2]
    largest = int(re.search(r"the largest m is (\d+)", err).group(1))
    rc, out, _ = run_cli(capsys, "params", "--m", str(largest), "--output", "json")
    assert rc == 0
    assert json.loads(out)["group_order"] == str(make_params(largest).group_order)
    assert run_cli(capsys, "params", "--m", str(largest + 1))[0] == 3


def test_params_requires_m_or_q(capsys):
    rc, _, _ = run_cli(capsys, "params")
    assert rc == 2


def test_params_rejects_m_zero(capsys):
    rc, _, err = run_cli(capsys, "params", "--m", "0")
    assert rc == 2
    assert "m must be >= 1" in err


# -- nse ----------------------------------------------------------------------

def test_nse_closed_form_q8(capsys):
    rc, out, _ = run_cli(capsys, "nse", "--q", "8", "--output", "json",
                         "--no-timestamp")
    assert rc == 0
    data = json.loads(out)
    assert data["closed_form"]["counts"] == {
        "1": "1", "2": "455", "4": "3640", "5": "5824", "7": "12480", "13": "6720"}


def test_nse_closed_form_big_q(capsys):
    rc, out, _ = run_cli(capsys, "nse", "--q", "512", "--output", "json",
                         "--no-timestamp")
    assert rc == 0
    data = json.loads(out)
    assert data["closed_form"]["total"] == str(512 ** 2 * (512 ** 2 + 1) * 511)


def test_nse_both_sources_agree(capsys):
    rc, out, _ = run_cli(capsys, "nse", "--q", "8", "--source", "both",
                         "--output", "json", "--no-timestamp")
    assert rc == 0
    data = json.loads(out)
    assert data["diff"] == {}
    assert data["oracle"] == data["closed_form"]


def test_nse_oracle_source_alone(capsys):
    rc, out, _ = run_cli(capsys, "nse", "--q", "8", "--source", "oracle",
                         "--output", "json", "--no-timestamp")
    assert rc == 0
    data = json.loads(out)
    assert "closed_form" not in data
    assert data["oracle"]["total"] == "29120"
    assert data["oracle"]["counts"]["7"] == "12480"


def test_nse_oracle_refused_over_limit(capsys):
    # Past --allow-big, the census's memory limit refuses Sz(512).
    rc, _, err = run_cli(capsys, "nse", "--q", "512", "--source", "oracle", "--allow-big")
    assert rc == 3
    assert "memory limit" in err


def test_nse_oracle_beyond_q8_needs_allow_big(capsys):
    rc, _, err = run_cli(capsys, "nse", "--q", "32", "--source", "oracle")
    assert rc == 3
    assert "--allow-big" in err


def test_nse_past_the_factorization_bound_exits_3(capsys):
    # q - 1 = 2^61 - 1 for m = 30 is a prime past 2^52; trial division gives
    # up at its bound of 2^26 instead of running for minutes.
    rc, out, err = run_cli(capsys, "nse", "--m", "30")
    assert (rc, out) == (3, "")
    assert err.startswith("refused: ") and f"bound of {2 ** 26}" in err


def test_nse_oracle_bad_closure_exits_4(capsys, monkeypatch):
    import szq.oracle

    # Without tau the generators close to the Borel subgroup, not Sz(8).
    real = szq.oracle.candidate_generators
    monkeypatch.setattr(szq.oracle, "candidate_generators",
                        lambda params, field: real(params, field)[:3])
    rc, out, err = run_cli(capsys, "nse", "--q", "8", "--source", "oracle")
    assert rc == 4
    assert out == ""
    assert "certification failure" in err
    assert "N0 = 1 points" in err  # <e1> is the Borel subgroup's fixed point


_SZ128_BYTES = f"{make_params(3).group_order} bytes"
# x^801 + x^217 + 1, irreducible: a well-formed modulus for m = 400.
_DEGREE_801 = hex((1 << 801) | (1 << 217) | 1)
_PAST_THE_LIMIT = ("--q", "128", "--allow-big")


@pytest.mark.parametrize("argv, reasons", [
    (("verify", *_PAST_THE_LIMIT), (_SZ128_BYTES, "memory limit of 1073741824 bytes")),
    (("nse", "--q", "128", "--source", "oracle", "--allow-big"),
     (_SZ128_BYTES, "memory limit of 1073741824 bytes")),
], ids=["verify", "nse"])
def test_oracle_beyond_the_point_limit_is_refused(capsys, argv, reasons):
    # verify and the census both run on the stabilizer chain up to its memory
    # limit, one order byte per element, which Sz(128) passes.  The refusal
    # comes before any closure starts.
    t0 = perf_counter()
    rc, out, err = run_cli(capsys, *argv)
    assert perf_counter() - t0 < 1.0
    assert (rc, out) == (3, "")
    assert all(reason in err for reason in reasons)


@pytest.mark.parametrize("argv, reason", [
    (("verify", *_PAST_THE_LIMIT), _SZ128_BYTES),
    (("verify", *_PAST_THE_LIMIT, "--modulus", "0x83"), _SZ128_BYTES),
    (("nse", "--q", "128", "--source", "both", "--allow-big"), _SZ128_BYTES),
    (("nse", "--m", "400", "--source", "oracle", "--allow-big"), "memory limit"),
    (("nse", "--m", "400", "--source", "both", "--allow-big", "--modulus", _DEGREE_801),
     "memory limit"),
], ids=["verify", "verify-modulus", "nse-q128", "nse-m400", "nse-m400-modulus"])
def test_scale_refusals_come_before_any_field_is_built(capsys, monkeypatch, argv, reason):
    # The refusal is decided from the parameters alone: a field of degree 801
    # would take find_modulus far longer than the answer may.
    import szq.field

    def no_field(*args, **kwargs):
        raise AssertionError("a field was built")

    monkeypatch.setattr(szq.field.Field, "__init__", no_field)
    monkeypatch.setattr(szq.field, "find_modulus", no_field)
    t0 = perf_counter()
    rc, out, err = run_cli(capsys, *argv)
    assert perf_counter() - t0 < 1.0
    assert (rc, out) == (3, "")
    assert reason in err


def test_nse_modulus_override_does_not_change_closed_form(capsys):
    rc1, out1, _ = run_cli(capsys, "nse", "--q", "32", "--output", "json",
                           "--no-timestamp")
    rc2, out2, _ = run_cli(capsys, "nse", "--q", "32", "--modulus", "0x29",
                           "--output", "json", "--no-timestamp")
    assert rc1 == rc2 == 0
    assert out1 == out2


@pytest.mark.parametrize("argv, reason", [
    (("nse", "--q", "8", "--modulus", "0x3"), "degree"),
    (("nse", "--q", "8", "--modulus", "0x0"), "degree"),
    (("nse", "--q", "32", "--modulus", "0x2b"), "reducible"),
], ids=["wrong-degree", "zero", "reducible"])
def test_nse_checks_the_modulus_whatever_the_source(capsys, argv, reason):
    # The closed forms need no field, but a bad modulus is still a usage error.
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert reason in err


@pytest.mark.parametrize("command", ["nse", "verify"])
def test_the_oracle_limit_flag_is_a_usage_error(capsys, command):
    # --allow-big and the census's memory limit gate the oracle's scale.
    rc, out, err = run_cli(capsys, command, "--q", "8", "--oracle-limit", "0")
    assert (rc, out) == (2, "")
    assert "--oracle-limit" in err


def test_nse_rejects_reducible_modulus(capsys):
    rc, _, err = run_cli(capsys, "nse", "--q", "32", "--source", "oracle",
                         "--allow-big", "--modulus", "0x2b")
    assert rc == 2
    assert "reducible" in err


@pytest.mark.parametrize("argv", [
    ("nse", "--q", "8", "--modulus", "0x"),
    ("nse", "--q", "8", "--modulus", ""),
    ("nse", "--q", "8", "--modulus=-0xb"),
    ("verify", "--q", "8", "--modulus", "0xg"),
    *(("verify", "--q", "8", "--modulus", value) for value in (
        "\u0660xb", "0x_b", " 0xb", "0xb ", "0xb\n", "+0xb", "0_xb", "0x\uff42", "0x0xb")),
], ids=["0x", "empty", "negative", "verify-0xg", "arabic-indic-zero", "underscore",
        "leading-space", "trailing-space", "newline", "plus", "underscore-in-prefix",
        "fullwidth-b", "double-prefix"])
def test_a_modulus_that_is_not_a_hex_bit_string_is_a_usage_error(capsys, argv):
    # The parser reads --modulus even where no field gets built, and takes
    # ASCII hex digits only: int(text, 16) would read all but the last three
    # of the new cases as 0xb.
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert "not a hex bit-string" in err


@pytest.mark.parametrize("value", [
    "1_0", " 3", "3 ", "3\n", "+3", "-1", "\u0663", "\uff13", "3.0", "1e1", "0x3", "",
    "9" * 5000,
], ids=["underscore", "leading-space", "trailing-space", "newline", "plus", "minus",
        "arabic-indic", "fullwidth", "float", "exponent", "hex", "empty", "past-digit-limit"])
@pytest.mark.parametrize("option", ["--m", "--q"])
def test_sizes_take_ascii_decimal_digits_only(capsys, option, value):
    # int() would read "1_0" as 10 and a fullwidth or Arabic-Indic digit as
    # its ASCII twin; the parser reads none of them.
    rc, out, err = run_cli(capsys, "params", option, value)
    assert (rc, out) == (2, "")
    assert "not a decimal integer" in err


@pytest.mark.parametrize("argv, same", [
    (("--m", "010"), ("--m", "10")), (("--q", "0008"), ("--q", "8")),
], ids=["m", "q"])
def test_leading_zeros_are_still_decimal(capsys, argv, same):
    as_json = ("--output", "json", "--no-timestamp")
    assert run_cli(capsys, "params", *argv, *as_json) == run_cli(capsys, "params", *same,
                                                                   *as_json)


@pytest.mark.parametrize("value", ["0xb", "0XB", "b", "0B"])
def test_a_modulus_may_drop_its_prefix_or_change_case(capsys, value):
    argv = ("nse", "--q", "8", "--source", "oracle", "--output", "json", "--no-timestamp")
    assert run_cli(capsys, *argv, "--modulus", value) == run_cli(capsys, *argv)


@pytest.mark.parametrize("argv, reason", [
    (("verify", "--q", "32", "--modulus", "0xb"), "degree 3 != 5"),
    (("verify", "--q", "32", "--modulus", "0x2b"), "reducible"),
    (("nse", "--q", "32", "--source", "oracle", "--modulus", "0xb"), "degree 3 != 5"),
    (("nse", "--q", "128", "--source", "both", "--modulus", "0x29"), "degree 5 != 7"),
    (("nse", "--m", "400", "--source", "oracle", "--modulus", "0x3"), "degree 1 != 801"),
], ids=["verify-degree", "verify-reducible", "nse-degree", "nse-q128", "nse-m400"])
@pytest.mark.parametrize("allow_big", [False, True], ids=["no-allow-big", "allow-big"])
def test_a_malformed_modulus_exits_2_before_the_scale_refusal(capsys, monkeypatch, argv,
                                                               reason, allow_big):
    # Malformed input is a usage error, whether or not --allow-big would
    # have let the run past the scale refusals; no field is built for it.
    import szq.field

    def no_field(*args, **kwargs):
        raise AssertionError("a field was built")

    monkeypatch.setattr(szq.field.Field, "__init__", no_field)
    rc, out, err = run_cli(capsys, *argv, *(["--allow-big"] if allow_big else []))
    assert (rc, out) == (2, "")
    assert reason in err


def test_nse_output_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "nse", "--q", "8", "--output", "json",
                         "--no-timestamp")
    _, out2, _ = run_cli(capsys, "nse", "--q", "8", "--output", "json",
                         "--no-timestamp")
    assert out1 == out2


def test_consecutive_calls_share_the_parser_and_give_identical_output(capsys):
    # The parser is built once per process; no call may leave a default or an
    # option value behind for the next one.
    argv = ("params", "--q", "8", "--output", "json", "--no-timestamp")
    first = run_cli(capsys, *argv)
    assert run_cli(capsys, "params", "--q", "8")[1].startswith("m ")
    assert run_cli(capsys, "params")[0] == 2  # a usage error inside argparse
    assert run_cli(capsys, *argv) == first
    assert cli._parser() is cli._parser()


def test_nse_timestamp_present_by_default(capsys):
    _, out, _ = run_cli(capsys, "nse", "--q", "8", "--output", "json")
    assert "generated_at" in json.loads(out)


# -- verify ---------------------------------------------------------------------

def test_verify_q8_all_pass(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--q", "8", "--output", "json",
                         "--no-timestamp")
    assert rc == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert all(c["passed"] for c in data["checks"])
    assert data["census"]["counts"]["13"] == "6720"
    assert data["partition"]["passed"] == 1


def test_verify_q32_refused_without_allow_big(capsys):
    rc, _, err = run_cli(capsys, "verify", "--q", "32")
    assert rc == 3
    assert "--allow-big" in err


def test_verify_modulus_override_gives_identical_counts(capsys):
    # degree 3 has two irreducible polynomials, 0xb (the default) and 0xd; the
    # override builds a different field, and every count must stay the same
    rc1, out1, _ = run_cli(capsys, "verify", "--q", "8", "--output", "json",
                           "--no-timestamp")
    rc2, out2, _ = run_cli(capsys, "verify", "--q", "8", "--modulus", "0xd",
                           "--output", "json", "--no-timestamp")
    assert rc1 == rc2 == 0
    default, override = json.loads(out1), json.loads(out2)
    assert (default.pop("modulus"), override.pop("modulus")) == ("0xb", "0xd")
    assert default["census"] == override["census"]
    assert default == override


def test_verify_q8_stays_within_its_product_budget(capsys, monkeypatch):
    # verify works on ovoid permutations only: a scan or a closure that goes
    # back to matrix products fails here, not only in the bench.
    calls = 0
    product = Mat4.__mul__

    def counted(a, b):
        nonlocal calls
        calls += 1
        return product(a, b)

    monkeypatch.setattr(Mat4, "__mul__", counted)
    rc, _, _ = run_cli(capsys, "verify", "--q", "8", "--output", "json", "--no-timestamp")
    assert rc == 0
    assert calls == 0
    one = Mat4.identity(Field(1))
    assert one * one == one and calls == 1  # the counter counts


_JSON = ("--output", "json", "--no-timestamp")
_TABLE = ("--output", "table")


def test_the_json_flags_keep_their_name():
    # Test bodies spread ``*_JSON`` when they run, after the whole module has
    # been executed, so a later module-level binding of the name would reach
    # them instead of these flags.
    assert _JSON == ("--output", "json", "--no-timestamp")


@pytest.mark.parametrize("argv, power_pass", [
    (("verify", "--q", "8", *_JSON), False),
    (("verify", "--q", "8", "--modulus", "0xd", *_JSON), False),
    (("nse", "--q", "8", "--source", "oracle", *_JSON), True),
    (("nse", "--q", "8", "--source", "both", *_JSON), True),
], ids=["verify", "verify-0xd", "nse-oracle", "nse-both"])
def test_only_nse_runs_the_power_pass(capsys, monkeypatch, argv, power_pass):
    # verify reads its census off the certified partition, so the power pass
    # (``orders``) never runs there, and its chain never allocates the order
    # bytes, one per element of G.  nse runs the whole pass once and leaves
    # no order byte at 0.
    chains, calls = [], []
    build, orders = StabilizerChain.__post_init__, StabilizerChain.orders

    def counted(chain):
        found = orders(chain)
        calls.append(found.count(0))
        return found

    monkeypatch.setattr(StabilizerChain, "__post_init__",
                        lambda chain: chains.append(chain) or build(chain))
    monkeypatch.setattr(StabilizerChain, "orders", counted)
    rc, _, _ = run_cli(capsys, *argv)
    assert rc == 0 and len(chains) == 1
    if power_pass:
        assert calls == [0]
    else:
        assert calls == [] and chains[0]._orders is None


def _patch_a_lookup_failure(monkeypatch, patch):
    """``find_cyclic_subgroup`` finds no element of the order asked for, or
    the closed-form spectrum lacks orders 2 and 13 (the oracle census then
    meets elements outside it, and ``verify``'s spectrum check fails)."""
    if patch == "find_cyclic_subgroup":
        def not_found(table, k):
            raise oracle.SubgroupNotFoundError(f"no element of order {k} in the table")

        monkeypatch.setattr(oracle, "find_cyclic_subgroup", not_found)
    else:
        monkeypatch.setattr(cli, "spectrum_closed_form",
                            lambda params: Spectrum.from_values((4, 5, 7)))


@pytest.mark.parametrize("argv, patch", [
    (("verify", "--q", "8", *_JSON), "find_cyclic_subgroup"),
    (("nse", "--q", "8", "--source", "oracle", *_JSON), "spectrum"),
], ids=["subgroup-not-found", "order-not-found"])
def test_a_lookup_failure_is_a_certification_failure(capsys, monkeypatch, argv, patch):
    # No element of an order the classes need, and an element order outside
    # the spectrum, are findings: exit 4 with one line, no traceback.
    _patch_a_lookup_failure(monkeypatch, patch)
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (4, "")
    assert err.startswith("certification failure: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, golden", [
    (("verify", "--q", "8", "--modulus", "0xd", *_JSON), "verify_q8_0xd.json"),
    (("nse", "--q", "8", "--source", "both", *_JSON), "nse_q8_both.json"),
    (("verify", "--q", "8", *_JSON), "verify_q8.json"),
    (("verify", "--q", "8", "--modulus", "0xd", *_TABLE), "verify_q8_0xd.txt"),
    (("nse", "--q", "8", "--source", "both", *_TABLE), "nse_q8_both.txt"),
    (("gate", str(GOLDEN / "profile_sz8_map.json"), *_JSON), "gate_sz8_map.json"),
    (("gate", str(GOLDEN / "profile_sz8_map.json"), *_TABLE), "gate_sz8_map.txt"),
    (("gate", str(GOLDEN / "profile_sz8_perturbed.json"), *_JSON), "gate_sz8_perturbed.json"),
    (("gate", str(GOLDEN / "profile_sz8_perturbed.json"), *_TABLE), "gate_sz8_perturbed.txt"),
    (("verify", "--q", "32", "--allow-big", *_JSON), "verify_q32_0x25.json"),
], ids=["verify", "nse", "verify-default-modulus", "verify-table", "nse-table",
        "gate-accept", "gate-accept-table", "gate-reject", "gate-reject-table", "verify-q32"])
def test_oracle_json_matches_the_golden_file(capsys, argv, golden):
    # The golden files hold the product-based oracle's output, byte for byte,
    # as JSON and as tables, so a refactor of the oracle cannot change a
    # count or a detail unnoticed; Sz(32)'s under its default modulus too.
    # The gate's hold its report on Sz(8)'s order map (ACCEPT, exit 0) and on
    # a set with one count moved (REJECT, exit 1).
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == (1 if "perturbed" in golden else 0)
    assert out.encode() == (GOLDEN / golden).read_bytes()


# -- gate -------------------------------------------------------------------------

def test_gate_accepts_suzuki_profile(tmp_path, capsys):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(SZ8_PROFILE))
    rc, out, _ = run_cli(capsys, "gate", str(path), "--output", "json",
                         "--no-timestamp")
    assert rc == 0
    data = json.loads(out)
    assert data["verdict"] == "ACCEPT"
    assert data["inferred_m"] == 1


def test_gate_rejects_perturbed_profile(tmp_path, capsys):
    bad = dict(SZ8_PROFILE)
    bad["nse_set"] = ["1", "455", "3640", "5824", "6721", "12480"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    rc, out, _ = run_cli(capsys, "gate", str(path))
    assert rc == 1
    assert "REJECT" in out


def test_gate_empty_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("")
    rc, _, err = run_cli(capsys, "gate", str(path))
    assert rc == 2
    assert err


def test_gate_missing_file_is_input_error(tmp_path, capsys):
    rc, _, _ = run_cli(capsys, "gate", str(tmp_path / "absent.json"))
    assert rc == 2


def test_gate_map_profile(tmp_path, capsys):
    profile = {"order": "29120", "nse_map": {
        "1": "1", "2": "455", "4": "3640", "5": "5824", "7": "12480", "13": "6720"}}
    path = tmp_path / "map.json"
    path.write_text(json.dumps(profile))
    rc, out, _ = run_cli(capsys, "gate", str(path), "--output", "json",
                         "--no-timestamp")
    assert rc == 0
    assert json.loads(out)["verdict"] == "ACCEPT"


def test_gate_map_sum_mismatch_is_input_error(tmp_path, capsys):
    profile = {"order": "29120", "nse_map": {"1": "1", "2": "455"}}
    path = tmp_path / "short.json"
    path.write_text(json.dumps(profile))
    rc, _, err = run_cli(capsys, "gate", str(path))
    assert rc == 2
    assert "sums to" in err


_SZ8_MAP = ('"1": "1", "2": "455", "4": "3640", "5": "5824", "7": "12480", '
            '"13": "6720"')


@pytest.mark.parametrize("text", [
    '{"order": "29120", "nse_map": {%s, "013": "6720"}}' % _SZ8_MAP,
    '{"order": "29120", "nse_map": {%s, "13": "6720"}}' % _SZ8_MAP,
], ids=["13-and-013", "13-twice"])
def test_gate_refuses_an_order_named_twice(tmp_path, capsys, text):
    # Kept once, the map would be Sz(8)'s; as written its counts sum to
    # 35,840, not the order 29,120.
    path = tmp_path / "profile.json"
    path.write_text(text)
    with pytest.raises(ProfileError, match="13'? appears twice"):
        load_profile(str(path))
    rc, out, err = run_cli(capsys, "gate", str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "digit" not in err


@pytest.mark.parametrize("text", [
    '{"order": 1e400, "nse_set": ["1"]}',
    '{"order": "29120", "nse_set": [1e400]}',
    '{"order": 29120.9, "nse_set": ["1", "455", "3640", "5824", "6720", "12480"]}',
    '{"order": "29_120", "nse_set": ["1", "455", "3640", "5824", "6720", "12480"]}',
    '{"order": "29120", "nse_map": {"1": 1, "2": 455.9, "4": 3640, "5": 5824,'
    ' "7": 12480, "13": 6720}}',
    '{"order": "29120", "nse_set": "1455"}',
    '{"order": true, "nse_set": ["1"]}',
], ids=["order-1e400", "set-1e400", "order-float", "order-underscore", "map-float",
        "set-string", "order-bool"])
def test_gate_non_integer_numbers_are_input_errors(tmp_path, capsys, text):
    path = tmp_path / "profile.json"
    path.write_text(text)
    rc, out, err = run_cli(capsys, "gate", str(path), "--output", "json")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("order", ['"' + "1" * 5000 + '"', "1" * 5000],
                         ids=["digit-string", "json-int"])
def test_gate_numbers_beyond_the_digit_limit_are_profile_errors(tmp_path, capsys, order):
    path = tmp_path / "profile.json"
    path.write_text('{"order": %s, "nse_set": ["1"]}' % order)
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ProfileError, match="digit"):
        load_profile(str(path))
    rc, out, err = run_cli(capsys, "gate", str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "set_int_max_str_digits" not in err
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("text", ["[" * 100_000, '{"order": ' + "[" * 100_000 + "}"],
                         ids=["whole-file", "order-value"])
def test_gate_a_profile_nested_too_deeply_is_a_profile_error(tmp_path, capsys, text):
    # The decoder gives up on nesting this deep with a RecursionError, which
    # is malformed input like any other: exit 2 and one line on stderr.
    path = tmp_path / "profile.json"
    path.write_text(text)
    with pytest.raises(ProfileError, match="recursion"):
        load_profile(str(path))
    rc, out, err = run_cli(capsys, "gate", str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("source", ["/dev/zero", "one-byte-over"])
def test_gate_a_profile_past_the_byte_limit_is_a_profile_error(tmp_path, capsys, source):
    # An endless file and Sz(8)'s profile padded one byte past the limit are
    # refused with at most one byte past the limit read: exit 2 and one line
    # that names the limit.
    if source == "/dev/zero":
        if not os.path.exists(source):
            pytest.skip("no /dev/zero on this platform")
        path = source
    else:
        text = json.dumps(SZ8_PROFILE)
        (tmp_path / "profile.json").write_text(text.ljust(PROFILE_BYTE_LIMIT + 1))
        path = str(tmp_path / "profile.json")
    with pytest.raises(ProfileError, match=f"longer than {PROFILE_BYTE_LIMIT} bytes"):
        load_profile(path)
    rc, out, err = run_cli(capsys, "gate", path)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(PROFILE_BYTE_LIMIT) in err


def test_gate_a_profile_at_the_byte_limit_is_gated(tmp_path, capsys):
    # Sz(8)'s profile padded with spaces to exactly the limit: ACCEPT.
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(SZ8_PROFILE).ljust(PROFILE_BYTE_LIMIT))
    assert path.stat().st_size == PROFILE_BYTE_LIMIT
    rc, out, _ = run_cli(capsys, "gate", str(path))
    assert rc == 0
    assert out.startswith("verdict: ACCEPT")


def _assert_one_diagnosis(rc, out, err, json_output=False):
    """No traceback on stderr; exit 2 prints nothing on stdout and ends
    stderr with its ``error:`` line, and exit 3, and exit 4 with nothing on
    stdout, print exactly one stderr line, the refusal or the certification
    failure.  Exit 4 with a report on stdout is a failed check (``verify``'s,
    or the diff of ``nse --source both``) and prints nothing on stderr.  With ``json_output``, stdout parses as
    JSON on exits 0 and 1 and on exit 4 with a report."""
    lines = err.splitlines()
    assert "Traceback" not in err
    if rc == 2:
        assert out == ""
        assert lines and "error:" in lines[-1]
    if rc == 3 or (rc == 4 and not out):
        assert len(lines) == 1
        assert lines[0].startswith("refused:" if rc == 3 else "certification failure:")
    elif rc == 4:
        assert err == ""
    if json_output and (rc in (0, 1) or (rc == 4 and out)):
        json.loads(out)


# Profile numbers near the real ones (orders and counts of Sz(8) and of its W,
# the order of Sz(32)), so fuzzed profiles also get past validation into the
# certificates.
_NUMBERS = st.one_of(
    st.integers(), st.integers(min_value=1),
    st.sampled_from([0, 1, 7, 56, 64, 455, 3640, 5824, 6720, 12480, 29120, 32537600]))
_JSON_VALUE = st.recursive(
    st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=6),
              _NUMBERS, _NUMBERS.map(str)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=8),
        st.dictionaries(st.one_of(st.text(max_size=4), _NUMBERS.map(str)), inner,
                        max_size=8)),
    max_leaves=8)
_ORDER = st.one_of(_NUMBERS, _NUMBERS.map(str), _JSON_VALUE)


def _sum_preserving(m):
    """Sz(q)'s nse map with some delta moved from one order's count to
    another order, one of Sz(q)'s or any other, so that the counts still sum
    to |Sz(q)|: map and set profiles, each with the order |Sz(q)|.  A delta
    of 0 is Sz(q)'s own profile."""
    counts = nse_closed_form(make_params(m)).counts
    order = sum(counts.values())

    @st.composite
    def moved(draw, sinks):
        out = dict(counts)
        source, sink = draw(st.sampled_from(sorted(out))), draw(sinks)
        delta = draw(st.integers(0, out[source] - 1))
        out[source] -= delta
        out[sink] = out.get(sink, 0) + delta
        return {k: v for k, v in out.items() if v}

    orders = st.sampled_from([order, str(order)])
    return [st.builds(shape, moved(sinks), orders)
            for sinks in (st.sampled_from(sorted(counts)), st.integers(1, 10 ** 6))
            for shape in (lambda c, o: {"order": o, "nse_map": {str(k): v for k, v in c.items()}},
                          lambda c, o: {"order": o, "nse_set": sorted(set(c.values()))})]


# Sz(8)'s and Sz(32)'s perturbed profiles pass validation, so that most drawn
# JSON values reach the gate's certificates.
_PROFILES = st.one_of(
    *_sum_preserving(1), *_sum_preserving(2),
    st.fixed_dictionaries({"order": _ORDER, "nse_set": st.one_of(
        st.lists(_NUMBERS, max_size=8), st.sets(st.sampled_from(SZ8_PROFILE["nse_set"])).map(list),
        _JSON_VALUE)}),
    st.fixed_dictionaries({"order": _ORDER, "nse_map": st.one_of(
        st.dictionaries(_NUMBERS.map(str), _NUMBERS, max_size=8), _JSON_VALUE)}),
    st.fixed_dictionaries({}, optional={"order": _JSON_VALUE, "nse_set": _JSON_VALUE,
                                        "nse_map": _JSON_VALUE}),
    _JSON_VALUE)


def _sz8_map_file(literals):
    """Sz(8)'s nse_map profile as a file, its order and its six counts
    written as the seven given JSON literals."""
    order, *counts = literals
    pairs = b", ".join(b'"%d": %s' % (o, c) for o, c in zip((1, 2, 4, 5, 7, 13), counts))
    return b'{"order": %s, "nse_map": {%s}}' % (order, pairs)


_SZ8_LITERALS = (b"29120", b"1", b"455", b"3640", b"5824", b"12480", b"6720")
_SZ8_MAP_FILE = _sz8_map_file(_SZ8_LITERALS)
_DEEP = b"[" * 100_000 + b"]" * 100_000
# Files that no JSON value dumps to, every one malformed: arrays nested
# 10^5 deep, as the file or as the order; a second "order" key before
# Sz(8)'s map; invalid UTF-8 anywhere in that map; true or 1.5 in place of
# one of its integers.
_MALFORMED_FILES = st.one_of(
    st.sampled_from([b"[" * 100_000, _DEEP, b'{"order": %s, "nse_set": ["1"]}' % _DEEP]),
    _NUMBERS.map(lambda order: b'{"order": %d, %s' % (order, _SZ8_MAP_FILE[1:])),
    st.builds(lambda at, junk: _SZ8_MAP_FILE[:at] + junk + _SZ8_MAP_FILE[at:],
              st.integers(0, len(_SZ8_MAP_FILE)),
              st.sampled_from([b"\xff", b"\x80", b"\xc3(", b"\xe2\x82"])),
    st.builds(lambda at, literal: _sz8_map_file(
        [literal if i == at else v for i, v in enumerate(_SZ8_LITERALS)]),
        st.integers(0, len(_SZ8_LITERALS) - 1), st.sampled_from([b"true", b"1.5"])))


@settings(max_examples=150, deadline=1000, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(_MALFORMED_FILES.map(lambda text: (text, True)),
                 _PROFILES.map(lambda data: (json.dumps(data).encode(), False))))
def test_fuzzed_profiles_exit_0_1_or_2(tmp_path, capsys, drawn):
    # Any JSON value exits 0, 1 or 2; a malformed file exits 2 with one
    # error line.
    text, malformed = drawn
    path = tmp_path / "profile.json"
    path.write_bytes(text)
    rc, out, err = run_cli(capsys, "gate", str(path), "--output", "json", "--no-timestamp")
    assert rc in ((2,) if malformed else (0, 1, 2))
    _assert_one_diagnosis(rc, out, err, json_output=True)
    if malformed:
        assert err.startswith("error: ") and err.count("\n") == 1


# -- fuzzed argv --------------------------------------------------------------

# Valid and malformed values for every option of the four subcommands, as
# (valid, malformed).  Any m whose closed forms get factored stays at or below
# 20 (2^41 is q for m = 20): from m = 26 on, trial division takes seconds
# before it answers or reaches its bound (exit 3).
_VALUES = {
    "--m": (("1", "2", "20", "100000"), ("0", "-1", "1.5", "x", "", "1_0", " 3", "\u0663")),
    "--q": (("8", "32", "2199023255552"), ("2", "16", "7", "0", "-8", "0x8", "\uff18")),
    "--output": (("json", "table"), ("xml", "")),
    "--source": (("closed-form", "oracle", "both"), ("none",)),
    "--modulus": (("0xb", "0xd", "0x29", "0x2b", "0x0"),
                  ("0x", "", "-0xb", "zz", "0x_b", " 0xb", "\u0660xb")),
}
_OPTIONS = {
    "params": ("--output",),
    "nse": ("--output", "--source", "--modulus"),
    "verify": ("--output", "--modulus"),
    "gate": ("--output",),
}
_FLAGS = {"params": ("--no-timestamp",), "nse": ("--no-timestamp", "--allow-big"),
          "verify": ("--no-timestamp", "--allow-big"), "gate": ("--no-timestamp", "PROFILE")}
# Tokens out of place: foreign options and flags, options without a value.
_STRAYS = ("missing.json", "PROFILE", "extra", "--bogus", "--", "-h", "--m", "--modulus",
           "--source", "--allow-big")


@st.composite
def _argvs(draw):
    def pick(valid, malformed):
        return draw(st.sampled_from(malformed if draw(st.integers(0, 5)) == 0 else valid))

    command = draw(st.sampled_from(sorted(_OPTIONS)))
    groups = [(command,)]
    if command != "gate" and draw(st.integers(0, 5)):
        size = draw(st.sampled_from(["--m", "--q"]))
        groups.append((size, pick(*_VALUES[size])))
    groups += [(option, pick(*_VALUES[option]))
               for option in _OPTIONS[command] if draw(st.booleans())]
    groups += [(flag,) for flag in _FLAGS[command] if draw(st.integers(0, 3))]
    if not draw(st.integers(0, 3)):
        groups += draw(st.lists(st.sampled_from(_STRAYS).map(lambda t: (t,)),
                                min_size=1, max_size=2))
    # The subcommand usually leads; the rest comes in any order.
    head = groups[:1] if draw(st.integers(0, 9)) else []
    rest = draw(st.permutations(groups[len(head):]))
    return [token for group in head + rest for token in group]


@st.composite
def _lookup_failures(draw):
    """(argv, patch): an oracle run on Sz(8) under a patched lookup failure
    (``_patch_a_lookup_failure``), which ends ``verify`` and, for the
    spectrum, ``nse``'s census with exit 4."""
    command = draw(st.sampled_from([("verify",), ("nse", "--source", "oracle"),
                                    ("nse", "--source", "both")]))
    groups = [draw(st.sampled_from([("--q", "8"), ("--m", "1")]))]
    groups += [group for group in (("--output", draw(st.sampled_from(["json", "table"]))),
                                   ("--modulus", draw(st.sampled_from(["0xb", "0xd"]))),
                                   ("--no-timestamp",))
               if draw(st.integers(0, 3))]
    argv = [*command, *(token for group in draw(st.permutations(groups)) for token in group)]
    return argv, draw(st.sampled_from(["find_cyclic_subgroup", "spectrum_closed_form"]))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argvs(), st.none() | _lookup_failures())
# Paths the derandomized draw misses: a passing verify, the memory refusal of
# a census past Sz(8), an m whose order would print past the digit limit, and
# a size in digits that int() reads but that are not ASCII.
@example(argv=["verify", "--q", "8"], failure=None)
@example(argv=["verify", "--q", "32", "--allow-big"], failure=None)
@example(argv=["nse", "--m", "2000"], failure=None)
@example(argv=["nse", "--q", "\uff18"], failure=None)
def test_fuzzed_argv_exits_0_to_4_and_never_raises(tmp_path, capsys, monkeypatch, argv,
                                                   failure):
    # The census of Sz(32) (--m 2 or --q 32 with --allow-big) takes 17-42 s;
    # here any census past Sz(8) meets the memory refusal (exit 3) instead.
    # A drawn lookup failure brings its own argv.
    argv, failure = failure or (argv, None)
    monkeypatch.setattr(oracle, "MEMORY_LIMIT", make_params(1).group_order)
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(SZ8_PROFILE))
    argv = [str(profile) if token == "PROFILE" else token for token in argv]
    with monkeypatch.context() as patched:
        if failure:
            _patch_a_lookup_failure(patched, failure)
        rc, out, err = run_cli(capsys, *argv)
    assert rc in range(5)
    # argparse answers -h with its help text, whatever else was asked for.
    pairs = list(zip(argv, argv[1:]))
    json_output = "-h" not in argv and ("--output", "json") in pairs
    _assert_one_diagnosis(rc, out, err, json_output)
    if "-h" not in argv and any(value in _VALUES[option][1]
                                for option, value in pairs if option in _VALUES):
        assert rc == 2  # a malformed value is a usage error


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
@pytest.mark.parametrize("argv", [("verify", "--q", "8"),
                                  ("nse", "--m", "12", "--output", "json")],
                         ids=["verify", "nse-json"])
def test_a_closed_stdout_ends_the_script_by_sigpipe(argv):
    # As ``cat`` ends: killed by SIGPIPE, with nothing on stderr, where a
    # BrokenPipeError traceback came from ``_emit``.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "szq.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == -signal.SIGPIPE
    assert done.stderr == b""
