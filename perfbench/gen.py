"""Seeded workload inputs and the benchmark's own expected values.

Nothing here imports ``szq``: the closed forms, the factorizer and the
irreducibility test below are a separate transcription, so a defect in the
package under test shows up as failed requests instead of agreeing with
itself.  The same seed always gives byte-identical inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import gcd

# The certified census of Sz(8), independent of any modulus.
SZ8_CENSUS = {1: 1, 2: 455, 4: 3640, 5: 5824, 7: 12480, 13: 6720}
SZ8_MODULI = (0xB, 0xD)

# Every irreducible polynomial of degree 7 over GF(2), bit i = coefficient of
# x^i.  ``check_irreducible_deg7`` re-proves each one before it is used.
DEG7_MODULI = (0x83, 0x89, 0x8F, 0x91, 0x9D, 0xA7, 0xAB, 0xB9, 0xBF,
               0xC1, 0xCB, 0xD3, 0xD5, 0xE5, 0xEF, 0xF1, 0xF7, 0xFD)

# m = 26..40 is left out: the gate cannot finish those m values within a run
# (see DESIGN.md for the measured times).
GATE_MS = range(1, 26)
GATE_BAD_ORDERS = 3

# Every CLI request asks for byte-reproducible JSON.
CLI_FLAGS = ["--output", "json", "--no-timestamp"]


# ---------------------------------------------------------------------------
# Arithmetic, transcribed independently of szq.orderstats and szq.field
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 prime bases; exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= 3_317_044_064_679_887_385_961_981:
        raise ValueError(f"{n} is beyond the deterministic Miller-Rabin range")
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A nontrivial factor of the odd composite n (Pollard rho, Floyd cycle)."""
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def factor(n: int) -> dict[int, int]:
    """Prime factorization {prime: exponent} of n >= 1."""
    out: dict[int, int] = {}
    stack = [n]
    while stack:
        k = stack.pop()
        if k == 1:
            continue
        if k % 2 == 0:
            out[2] = out.get(2, 0) + 1
            stack.append(k // 2)
        elif is_prime(k):
            out[k] = out.get(k, 0) + 1
        else:
            d = _rho(k)
            stack += [d, k // d]
    return out


def divisors_with_phi(n: int) -> list[tuple[int, int]]:
    """Every divisor d of n with Euler's phi(d), from one factorization."""
    out = [(1, 1)]
    for p, k in factor(n).items():
        out = [(d * p ** e, ph * (p - 1) * p ** (e - 1) if e else ph)
               for d, ph in out for e in range(k + 1)]
    return sorted(out)


def sz_counts(m: int) -> dict[int, int]:
    """Elements per order of Sz(2^(2m+1)), from the classical closed forms."""
    q, s = 1 << (2 * m + 1), 1 << (m + 1)
    q2, u1, u2, v = q * q, q + s + 1, q - s + 1, q - 1
    counts = {1: 1, 2: v * (q2 + 1), 4: q * v * (q2 + 1)}
    for part, each in ((u1, q2 * u2 * v // 4), (u2, q2 * u1 * v // 4), (v, q2 * (q2 + 1) // 2)):
        for d, ph in divisors_with_phi(part):
            if d > 1:
                counts[d] = ph * each
    if sum(counts.values()) != sz_order(m):
        raise AssertionError(f"closed forms for m={m} do not sum to the group order")
    return counts


def sz_order(m: int) -> int:
    q = 1 << (2 * m + 1)
    return q * q * (q * q + 1) * (q - 1)


def borel_order(m: int) -> int:
    """|B| = q^2 (q - 1) for the Borel subgroup of Sz(2^(2m+1))."""
    q = 1 << (2 * m + 1)
    return q * q * (q - 1)


def check_irreducible_deg7(poly: int) -> bool:
    """A degree-7 polynomial is irreducible iff no polynomial of degree 1..3
    divides it."""
    if poly.bit_length() != 8:
        return False
    for d in range(2, 16):
        a = poly
        while a and a.bit_length() >= d.bit_length():
            a ^= d << (a.bit_length() - d.bit_length())
        if a == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

def _gate_requests(rng: random.Random) -> list[dict]:
    """One ACCEPT and one REJECT profile per m, plus cheap exit-1 and exit-2
    requests, in a seeded order.

    Each request holds the profile JSON object and what the gate must say:
    ``exit`` always, ``verdict`` and ``m`` for exit codes 0 and 1.
    """
    reqs: list[dict] = []
    for m in GATE_MS:
        order, counts = sz_order(m), sz_counts(m)
        as_map = m % 2 == 1
        reqs.append({"profile": _profile(order, counts, as_map),
                     "exit": 0, "verdict": "ACCEPT", "m": m, "kind": "accept"})
        bad = dict(counts)
        keys = sorted(k for k in bad if k > 1)
        i, j = rng.sample(keys, 2)
        delta = 2 * rng.randint(1, 200)  # even: parity and positivity hold
        bad[i] += delta
        if as_map:
            bad[j] -= delta  # keep the map sum equal to the order
        reqs.append({"profile": _profile(order, bad, as_map),
                     "exit": 1, "verdict": "REJECT", "m": m, "kind": "reject"})
    for _ in range(GATE_BAD_ORDERS):
        m = rng.choice(GATE_MS)
        off = rng.choice((-1, 1)) * rng.randint(1, 1000)
        reqs.append({"profile": _profile(sz_order(m) + off, sz_counts(m), False),
                     "exit": 1, "verdict": "REJECT", "m": None, "kind": "bad_order"})
    m = rng.choice(GATE_MS)
    order, counts = sz_order(m), sz_counts(m)
    no_order = _profile(order, counts, False)
    del no_order["order"]
    both = _profile(order, counts, True)
    both["nse_set"] = _profile(order, counts, False)["nse_set"]
    off_sum = dict(counts)
    off_sum[2] += 2 * rng.randint(1, 200)
    for p in (no_order, both, _profile(order, off_sum, True)):
        reqs.append({"profile": p, "exit": 2, "verdict": None, "m": None, "kind": "malformed"})
    rng.shuffle(reqs)
    return reqs


def _profile(order: int, counts: dict[int, int], as_map: bool) -> dict:
    if as_map:
        return {"order": str(order),
                "nse_map": {str(i): str(c) for i, c in sorted(counts.items())}}
    return {"order": str(order), "nse_set": [str(v) for v in sorted(set(counts.values()))]}


def make_inputs(workload: str, seed: int) -> dict:
    """All inputs of one workload run, as plain JSON data."""
    rng = random.Random(seed)
    if workload == "oracle-q8":
        modulus = rng.choice(SZ8_MODULI)
        return {"workload": workload, "seed": seed, "requests": [
            {"argv": ["verify", "--q", "8", "--modulus", hex(modulus)] + CLI_FLAGS,
             "kind": "verify"},
            {"argv": ["nse", "--q", "8", "--source", "both"] + CLI_FLAGS,
             "kind": "nse"},
        ]}
    if workload == "gate-sweep":
        return {"workload": workload, "seed": seed, "requests": _gate_requests(rng)}
    if workload == "borel-q128":
        moduli = [p for p in DEG7_MODULI if check_irreducible_deg7(p)]
        if len(moduli) != len(DEG7_MODULI):
            raise AssertionError("a listed degree-7 modulus is reducible")
        return {"workload": workload, "seed": seed, "m": 3, "modulus": rng.choice(moduli),
                "expected_size": borel_order(3), "requests": [{"kind": "closure"}]}
    raise ValueError(f"unknown workload {workload!r}")


def canonical_bytes(inputs: dict) -> bytes:
    return json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()


def inputs_digest(inputs: dict) -> str:
    return hashlib.sha256(canonical_bytes(inputs)).hexdigest()
