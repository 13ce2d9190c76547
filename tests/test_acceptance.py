"""Acceptance suite: one test per criterion, exact integer tolerances.

Each test prints a single PASS/FAIL line (visible under ``pytest -s`` or in
the captured output).  Heavy shared artifacts come from the session fixtures
in conftest; the closure check builds its chain in a fresh interpreter, which
reports its own time and peak memory.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import pytest

from szq.cli import main as cli_main
from szq.field import Field
from szq.gate import CandidateProfile, run_gate
from szq.group import (
    make_params,
    make_w,
)
from szq.oracle import (
    StabilizerChain,
    centralizer,
    find_cyclic_subgroup,
    normalizer,
    unitriangular,
)
from szq.orderstats import (
    OrderStats,
    divisors,
    frobenius_check,
    multiplicative_order,
    nse_closed_form,
    totient_divisor_check,
    type_function,
    weisner_count,
)

from matrix_reference import elements

SZ8_COUNTS = {1: 1, 2: 455, 4: 3640, 5: 5824, 7: 12480, 13: 6720}
SZ8_SET = {1, 455, 3640, 5824, 6720, 12480}


def _report(number: int, name: str, ok: bool) -> None:
    print(f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number:02d} {name} failed"


def test_criterion_01_group_law_exhaustive():
    f = Field(1)
    els = elements(f)
    t0 = perf_counter()
    cache = {(a.bits, b.bits): make_w(a, b) for a in els for b in els}
    ok = True
    for a in els:
        at = a.twist()
        for b in els:
            left = cache[(a.bits, b.bits)]
            for c in els:
                shift = at * c
                for d in els:
                    got = left * cache[(c.bits, d.bits)]
                    want = cache[((a + c).bits, (b + d + shift).bits)]
                    ok = ok and got == want
    elapsed = perf_counter() - t0
    _report(1, f"group law, 4096 tuples in {elapsed:.3f}s", ok and elapsed < 1.0)


def test_criterion_02_closure_certification():
    # In a fresh interpreter, which reports the peak RSS of its own address
    # space (VmHWM, in kB).  pytest's process keeps the peak of every test
    # run before this one, and a child's ru_maxrss starts at the RSS of the
    # process it was forked from.
    code = ("import time\n"
            "from szq.field import Field\n"
            "from szq.group import make_params\n"
            "from szq.oracle import StabilizerChain\n"
            "t0 = time.perf_counter()\n"
            "chain = StabilizerChain(make_params(1), Field(1))\n"
            "seconds = time.perf_counter() - t0\n"
            "with open('/proc/self/status') as f:\n"
            "    kb = next(line.split()[1] for line in f if line.startswith('VmHWM:'))\n"
            "print(chain.size, seconds, int(kb) / 1024)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    size, seconds, peak_mb = done.stdout.split()
    ok = (int(size) == 29120 == 8 ** 2 * (8 ** 2 + 1) * 7
          and float(seconds) < 60.0
          and float(peak_mb) < 200.0)
    _report(2, f"closure {size} in {float(seconds):.2f}s, peak {float(peak_mb):.0f} MB", ok)


def test_criterion_03_census_equals_closed_form(sz8):
    closed = nse_closed_form(sz8.params)
    ok = (sz8.stats.counts == SZ8_COUNTS == closed.counts
          and set(sz8.stats.counts.values()) == SZ8_SET)
    _report(3, "oracle census == closed-form counts at q=8", ok)


def test_criterion_04_spectrum_equality(sz8):
    _report(4, "element orders at q=8 are exactly {1,2,4,5,7,13}",
            set(sz8.stats.counts) == {1, 2, 4, 5, 7, 13})


def test_criterion_05_partition_verification(sz8_partition):
    r = sz8_partition.report
    ok = (r.passed
          and (r.measured.n_w, r.measured.n_u1, r.measured.n_u2, r.measured.n_v)
          == (65, 560, 1456, 2080)
          and r.coverage == 29119
          and r.multiply_covered == 0
          and sz8_partition.seconds < 300.0)
    _report(5, f"partition cover in {sz8_partition.seconds:.2f}s", ok)


def test_criterion_06_normalizer_centralizer_indices(sz8):
    p, table = sz8.params, sz8.table
    ok = True
    for k in (p.u1, p.u2):
        h = find_cyclic_subgroup(table, k)
        ok = ok and normalizer(table, h).order == 4 * k
        c = centralizer(table, h.cyclic_generator)
        ok = ok and c.order == k and c.members == h.members
    hv = find_cyclic_subgroup(table, p.v)
    ok = ok and normalizer(table, hv).order == 2 * p.v
    nw = normalizer(table, unitriangular(table))
    ok = ok and table.size == 65 * nw.order
    _report(6, "normalizer indices 4/4/2, |S:N(W)|=65, torus centralizers", ok)


def test_criterion_07_sum_identity_and_type_function():
    ok = True
    for m in range(1, 9):
        p = make_params(m)
        stats = nse_closed_form(p)
        ok = ok and sum(stats.counts.values()) == p.group_order
        ok = ok and type_function(stats, 4) == p.q ** 4
    _report(7, "sum m_i = |Sz(q)| and |G(4)| = q^4 for m=1..8", ok)


def test_criterion_08_divisibility_suite(sz8):
    stats = sz8.stats
    # 29120 = 2^6 * 5 * 7 * 13 has 56 divisors (brute scan agrees); the
    # Frobenius property must hold at every one of them.
    divs = divisors(stats.total)
    ok = divs == [d for d in range(1, 29121) if 29120 % d == 0] and len(divs) == 56
    ok = ok and all(type_function(stats, n) % n == 0 for n in divs)
    fr = frobenius_check(stats)
    td = totient_divisor_check(stats)
    ok = ok and fr.passed and td.passed
    f2, w2 = weisner_count(stats, 2)
    ok = ok and w2.passed and f2 == 4095 == 9 * 455
    for t in (5, 7, 13):
        _, wt = weisner_count(stats, t)
        ok = ok and wt.passed
    _report(8, "divisibility checks over all 56 divisors of 29120", ok)


def test_criterion_09_isolation_certificate():
    ok = True
    for m in range(1, 9):
        p = make_params(m)
        stats = nse_closed_form(p)
        q2 = p.q * p.q
        ok = ok and all(c % q2 == 0 for i, c in stats.counts.items()
                        if i not in (1, 2, 4))
        odd_part = p.group_order
        while odd_part % 2 == 0:
            odd_part //= 2
        ok = ok and odd_part == (q2 + 1) * (p.q - 1)
        r, rem = divmod(stats.counts[2] + stats.counts[4], stats.counts[2])
        ok = ok and rem == 0 and r % 2 == 1
    _report(9, "2-isolation certificate for m=1..8", ok)


def test_criterion_10_exclusion_certificates():
    ok = True
    for m in range(1, 9):
        p = make_params(m)
        a, b = p.q * p.q, (p.q * p.q + 1) * (p.q - 1)
        ok = ok and (a - 1) % b != 0 and (b - 1) % a != 0
        d = multiplicative_order(2, b)
        ok = ok and d > 4 * m + 2
        if m == 1:
            ok = ok and d == 12
        if m == 2:
            ok = ok and d == 20
        for mp in range(1, m):
            pp = make_params(mp)
            smaller = (pp.q * pp.q + 1) * (pp.q - 1)
            ok = ok and smaller % b != 0
    _report(10, "Frobenius/2-Frobenius/simple-section exclusions for m=1..8", ok)


def test_criterion_11_gate_end_to_end(tmp_path, capsys):
    ok = True
    for m in range(1, 9):
        p = make_params(m)
        profile = CandidateProfile(
            order=p.group_order,
            nse_set=frozenset(nse_closed_form(p).counts.values()))
        report = run_gate(profile)
        ok = ok and report.verdict == "ACCEPT" and report.inferred_m == m
    for bumped in sorted(SZ8_SET):
        perturbed = frozenset(v + 1 if v == bumped else v for v in SZ8_SET)
        ok = ok and run_gate(CandidateProfile(order=29120, nse_set=perturbed)).verdict == "REJECT"
    ok = ok and run_gate(CandidateProfile(order=20160, nse_set=frozenset(SZ8_SET))).verdict == "REJECT"

    # exit codes through the CLI: 0 accept, 1 reject, 2 malformed input
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"order": "29120", "nse_set": sorted(map(str, SZ8_SET))}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"order": "29120",
                               "nse_set": [str(v + (v == 6720)) for v in sorted(SZ8_SET)]}))
    empty = tmp_path / "empty.json"
    empty.write_text("")
    codes = [cli_main(["gate", str(good)]),
             cli_main(["gate", str(bad)]),
             cli_main(["gate", str(empty)])]
    capsys.readouterr()
    ok = ok and codes == [0, 1, 2]
    _report(11, "gate accepts m=1..8, rejects perturbations/20160, exit codes", ok)


def test_criterion_12_representation_independence():
    # closed-form level at q=32: the full divisibility suite on exact counts
    p32 = make_params(2)
    stats32 = nse_closed_form(p32)
    ok = frobenius_check(stats32).passed and totient_divisor_check(stats32).passed
    ok = ok and sum(stats32.counts.values()) == p32.group_order

    # field level at degree 5: census of the 1024-element unitriangular
    # subgroup under both irreducible pentanomial moduli, each member's order
    # walked on the Sz(32) chain
    censuses = []
    for modulus in (0b100101, 0b101001):
        chain = StabilizerChain(p32, Field(2, modulus=modulus))
        w = unitriangular(chain)
        counts = Counter(map(chain.order, w.members))
        censuses.append(OrderStats(counts=dict(counts), total=w.order))
    ok = ok and censuses[0] == censuses[1]
    ok = ok and censuses[0].counts == {1: 1, 2: 31, 4: 992}
    _report(12, "identical OrderStats under x^5+x^2+1 and x^5+x^3+1", ok)
