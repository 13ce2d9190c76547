"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def test_inputs_are_deterministic_per_seed():
    for w in run.WORKLOADS:
        for seed in (0, 1, 12345):
            assert gen.canonical_bytes(gen.make_inputs(w, seed)) == \
                gen.canonical_bytes(gen.make_inputs(w, seed))
    gate = {gen.inputs_digest(gen.make_inputs("gate-sweep", s)) for s in range(5)}
    assert len(gate) == 5
    moduli = {gen.make_inputs("oracle-q8", s)["requests"][0]["argv"][4] for s in range(10)}
    assert moduli == {"0xb", "0xd"}
    borel = {gen.make_inputs("borel-q128", s)["modulus"] for s in range(20)}
    assert len(borel) > 1 and borel <= set(gen.DEG7_MODULI)


def test_gate_requests_cover_every_m_and_exit_code():
    reqs = gen.make_inputs("gate-sweep", 3)["requests"]
    for kind in ("accept", "reject"):
        assert sorted(r["m"] for r in reqs if r["kind"] == kind) == list(gen.GATE_MS)
    assert sum(r["exit"] == 1 and r["m"] is None for r in reqs) == gen.GATE_BAD_ORDERS
    assert sum(r["exit"] == 2 for r in reqs) == 3


def test_transcription_reproduces_sz8_and_the_package():
    assert gen.sz_counts(1) == {1: 1, 2: 455, 4: 3640, 5: 5824, 7: 12480, 13: 6720}
    from szq.group import make_params
    from szq.orderstats import nse_closed_form

    for m in range(1, 11):
        assert gen.sz_counts(m) == nse_closed_form(make_params(m)).counts


def test_own_arithmetic():
    assert gen.factor(2 ** 51 - 1) == {7: 1, 103: 1, 2143: 1, 11119: 1, 131071: 1}
    assert [n for n in range(60) if gen.is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert gen.divisors_with_phi(12) == [(1, 1), (2, 1), (3, 2), (4, 2), (6, 2), (12, 4)]
    assert all(gen.check_irreducible_deg7(p) for p in gen.DEG7_MODULI)
    assert not gen.check_irreducible_deg7(0x81)  # x^7 + 1 = (x + 1)(...)


def test_benchmark_json_matches_the_runner():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)


def test_tracer_reports_a_missing_target_as_absent(monkeypatch):
    import szq.cli
    import szq.oracle

    monkeypatch.delattr(szq.oracle, "streaming_order_census")
    main = szq.cli.main
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert szq.cli.main is not main
        assert tracer.absent == ["oracle.streaming_order_census"]
        assert szq.cli.main(["params", "--q", "8"]) == 0
    finally:
        tracer.uninstall()
    assert szq.cli.main is main
    assert tracer.stats["cli.main"][0] == 1
    assert tracer.layer_metrics(1)["oracle.streaming_order_census.calls"] == 0


def test_wrong_expected_value_fails_the_run(monkeypatch, capsys):
    monkeypatch.setitem(gen.SZ8_CENSUS, 13, 6721)
    rc = run.main(["--workload", "oracle-q8", "--seed", "1", "--seconds", "0"])
    out = capsys.readouterr().out.strip().splitlines()
    result, report = json.loads(out[-1]), json.loads(out[-2])
    assert rc != 0
    assert result["correct"] is False and result["failed"] == result["attempted"] == 2
    assert report["named"]["failed_ops_frac"] == 1.0
