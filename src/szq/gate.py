"""Decision gate for (order, nse) profiles against Suzuki groups.

Given a candidate group order and the set (or full map) of its
elements-per-order counts, the gate infers m from the order, which must
factor as q^2 (q^2+1)(q-1) with q = 2^(2m+1).  Two checks read the
profile's counts: ``involution_count`` (its one odd count above 1 is the
involution count of Sz(q)) and ``nse_match`` (the counts are the closed
forms exactly).  The other four run on the inferred m alone:
``isolation_certificate`` (2 isolated in the prime graph) on the closed-form
counts of Sz(q), not on the profile's, and the exclusion of both
Frobenius-type splittings and the uniqueness of the simple section
parameter on m's arithmetic.  Once the order has Sz(q)'s form, those four
pass whatever the counts are.

ACCEPT certifies consistency with Sz(q); it is not a standalone isomorphism
proof for an arbitrary group handed only as a profile, and the report says
so in its ``note`` field.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field as dc_field
from functools import partial
from typing import Iterable

from .group import SuzukiParams, make_params
from .orderstats import Check, OrderStats, _order_dividing, nse_closed_form

GATE_NOTE = ("ACCEPT means the profile is consistent with Sz(q) and passes every "
             "arithmetic certificate; it is not an independent isomorphism proof.")


class ProfileError(ValueError):
    """Malformed candidate profile (bad counts, sum mismatch, bad JSON shape)."""


class InvolutionCountError(ValueError):
    """The nse set does not contain exactly one odd value above 1."""


_TOO_MANY_DIGITS = "more digits than the interpreter's integer conversion limit"

# A profile longer than this is refused unread past the limit; the largest
# closed-form map the gate answers (m = 37) is 38,863 bytes of JSON.
PROFILE_BYTE_LIMIT = 1 << 20


def _distinct(pairs: Iterable[tuple], what: str) -> dict:
    """The pairs as a dict; ProfileError for a key met twice (such as
    ``"13"`` and ``"013"`` as orders), which a dict would keep once."""
    out = {}
    for k, v in pairs:
        if k in out:
            raise ProfileError(f"{what} {k!r:.40} appears twice")
        out[k] = v
    return out


def _as_int(value, what: str) -> int:
    """A JSON integer or a string of ASCII digits; a bool, a float or any
    other string is a ProfileError, never a truncated or coerced number."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and value.isascii() and value.isdigit():
        try:
            return int(value)
        except ValueError:  # the only cause for a digit string: the digit limit
            raise ProfileError(f"{what} has {len(value)} digits, {_TOO_MANY_DIGITS}") from None
    raise ProfileError(f"{what} must be an integer or a digit string, got {value!r:.40}")


@dataclass(frozen=True)
class CandidateProfile:
    """External (order, nse) input; ``nse_map`` is optional and stricter."""

    order: int
    nse_set: frozenset[int]
    nse_map: dict[int, int] | None = None

    def validate(self) -> None:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
        nse_map = self.nse_map or {}
        top = max(map(abs, (self.order, *self.nse_set, *nse_map, *nse_map.values())))
        if limit and top.bit_length() > 3 * limit and top >= 10 ** limit:  # 8^L < 10^L
            raise ProfileError(f"a profile number has {_TOO_MANY_DIGITS}")
        if self.order < 1:
            raise ProfileError(f"group order must be positive, got {self.order}")
        if not self.nse_set:
            raise ProfileError("nse set is empty")
        if any(v < 1 for v in self.nse_set):
            raise ProfileError("nse values must be positive")
        if self.nse_map is not None:
            if any(i < 1 for i in self.nse_map) or any(c < 1 for c in self.nse_map.values()):
                raise ProfileError("nse map needs positive orders and counts")
            if sum(self.nse_map.values()) != self.order:
                raise ProfileError(
                    f"nse map sums to {sum(self.nse_map.values())}, not the order {self.order}")
            if frozenset(self.nse_map.values()) != self.nse_set:
                raise ProfileError("nse map values disagree with the nse set")

    @classmethod
    def from_json_dict(cls, data: dict) -> "CandidateProfile":
        if "order" not in data:
            raise ProfileError("missing 'order' field")
        order = _as_int(data["order"], "'order'")
        has_set = "nse_set" in data
        has_map = "nse_map" in data
        if has_set == has_map:
            raise ProfileError("profile needs exactly one of 'nse_set' or 'nse_map'")
        if has_map:
            if not isinstance(data["nse_map"], dict):
                raise ProfileError("'nse_map' must be an object")
            nse_map = _distinct(
                ((_as_int(i, "an nse_map order"), _as_int(c, "an nse_map count"))
                 for i, c in data["nse_map"].items()), "nse_map order")
            return cls(order=order, nse_set=frozenset(nse_map.values()), nse_map=nse_map)
        if not isinstance(data["nse_set"], list):
            raise ProfileError("'nse_set' must be a list")
        return cls(order=order,
                   nse_set=frozenset(_as_int(v, "an nse_set value") for v in data["nse_set"]))


@dataclass
class GateReport:
    verdict: str                      # "ACCEPT" or "REJECT"
    inferred_m: int | None
    checks: list[Check] = dc_field(default_factory=list)
    note: str = GATE_NOTE

    def to_json_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Individual certificates
# ---------------------------------------------------------------------------

def infer_q(order: int) -> int | None:
    """The unique m with order = 2^(4m+2) (2^(4m+2)+1) (2^(2m+1)-1), else None."""
    m = 1
    while 1 << (4 * m + 2) <= order:
        q2 = 1 << (4 * m + 2)
        if q2 * (q2 + 1) * ((1 << (2 * m + 1)) - 1) == order:
            return m
        m += 1
    return None


def identify_m2(nse_set: frozenset[int] | set[int]) -> int:
    """The involution count: the unique odd value above 1.

    In any even-order group the number of involutions is odd, and every
    Suzuki count other than 1 and the involution count is even, so exactly
    one odd value above 1 must be present.
    """
    odd = [v for v in nse_set if v > 1 and v % 2 == 1]
    if len(odd) != 1:
        raise InvolutionCountError(
            f"expected exactly one odd count above 1, found {sorted(odd)}")
    return odd[0]


def nse_match_check(profile: CandidateProfile, closed: OrderStats) -> Check:
    """Set equality with the closed forms; map profiles must match key-by-key."""
    want_set = frozenset(closed.counts.values())
    if profile.nse_map is not None:
        ok = profile.nse_map == closed.counts
        detail = "full order->count map matches the closed forms" if ok else (
            "order->count map deviates from the closed forms")
        return Check("nse_match", ok, detail)
    ok = profile.nse_set == want_set
    if ok:
        detail = f"nse set matches all {len(want_set)} closed-form values"
    else:
        missing = sorted(want_set - profile.nse_set)
        extra = sorted(profile.nse_set - want_set)
        detail = f"nse set mismatch: missing {missing}, unexpected {extra}"
    return Check("nse_match", ok, detail)


def isolation_certificate(p: SuzukiParams, stats: OrderStats) -> Check:
    """2 is isolated: q^2 divides every count outside orders {1, 2, 4}, the
    odd part of the group order is (q^2+1)(q-1), and the even-order element
    count is that odd part times an odd multiplier."""
    q2 = p.q * p.q
    bad = [i for i in stats.counts if i not in (1, 2, 4) and stats.counts[i] % q2]
    odd_part = p.group_order
    while odd_part % 2 == 0:
        odd_part //= 2
    m_odd = (p.q * p.q + 1) * (p.q - 1)
    f2 = stats.counts[2] + stats.counts[4]
    r, rem = divmod(f2, m_odd)
    ok = not bad and odd_part == m_odd and rem == 0 and r % 2 == 1
    detail = (f"q^2 | m_i outside {{1,2,4}}: {'yes' if not bad else f'fails at {bad}'}; "
              f"odd part {odd_part} == (q^2+1)(q-1); f(2) = {f2} = {m_odd} * {r}, r odd")
    return Check("isolated_two", ok, detail)


def frobenius_exclusion(m: int) -> Check:
    """Neither split of the order into kernel/complement {q^2, (q^2+1)(q-1)}
    satisfies the required divisibility |H| | |K| - 1."""
    p = make_params(m)
    a = p.q * p.q
    b = (p.q * p.q + 1) * (p.q - 1)
    case1 = (a - 1) % b == 0   # H = odd part, K = q^2
    case2 = (b - 1) % a == 0   # H = q^2, K = odd part
    ok = not case1 and not case2
    detail = f"{b} | {a - 1}: {case1}; {a} | {b - 1}: {case2} (both must be false)"
    return Check("frobenius_excluded", ok, detail)


def two_frobenius_exclusion(m: int) -> Check:
    """No 2-group of order at most q^2 has (q^2+1)(q-1) dividing 2^alpha - 1:
    the multiplicative order of 2 modulo that odd part exceeds 4m+2.

    That order divides 8m+4: 2^(4m+2) = q^2 = -1 (mod q^2+1) and
    2^(2m+1) = q = 1 (mod q-1).
    """
    p = make_params(m)
    mod = (p.q * p.q + 1) * (p.q - 1)
    multiple = 8 * m + 4
    if pow(2, multiple, mod) != 1:
        raise AssertionError(f"2^{multiple} is not 1 modulo {mod}")
    d = _order_dividing(2, mod, multiple)
    ok = d > 4 * m + 2
    detail = f"ord(2 mod {mod}) = {d} > {4 * m + 2}: {ok}"
    return Check("two_frobenius_excluded", ok, detail)


def simple_section_check(m: int) -> Check:
    """(q^2+1)(q-1) divides no smaller (q'^2+1)(q'-1), so a Suzuki section
    carrying the odd part must have the full parameter."""
    def odd_part_of(mm: int) -> int:
        pp = make_params(mm)
        return (pp.q * pp.q + 1) * (pp.q - 1)

    target = odd_part_of(m)
    offenders = [mp for mp in range(1, m) if odd_part_of(mp) % target == 0]
    ok = not offenders
    if m == 1:
        detail = "no smaller parameter exists; vacuously unique"
    else:
        detail = f"{target} divides none of the {m - 1} smaller odd parts: {ok}"
    return Check("simple_section_unique", ok, detail)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def run_gate(profile: CandidateProfile) -> GateReport:
    """Run every certificate; ACCEPT exactly when all pass.

    Malformed profiles raise ProfileError before any check runs.
    """
    profile.validate()
    checks: list[Check] = []
    m = infer_q(profile.order)
    checks.append(Check(
        "order_form", m is not None,
        f"order {profile.order} " + (f"matches m={m}" if m is not None
                                     else "is not q^2 (q^2+1)(q-1) for any q = 2^(2m+1)")))
    if m is None:
        return GateReport("REJECT", None, checks)

    p = make_params(m)
    closed = nse_closed_form(p)
    try:
        m2 = identify_m2(profile.nse_set)
        ok = m2 == closed.counts[2]
        detail = f"involution count {m2} == (q-1)(q^2+1) = {closed.counts[2]}: {ok}"
    except InvolutionCountError as e:
        ok, detail = False, str(e)
    checks.append(Check("involution_count", ok, detail))

    checks.append(nse_match_check(profile, closed))
    checks.append(isolation_certificate(p, closed))
    checks.append(frobenius_exclusion(m))
    checks.append(two_frobenius_exclusion(m))
    checks.append(simple_section_check(m))
    verdict = "ACCEPT" if all(c.passed for c in checks) else "REJECT"
    return GateReport(verdict, m, checks)


def load_profile(path: str) -> CandidateProfile:
    """Read a profile from a JSON file of at most PROFILE_BYTE_LIMIT bytes;
    raises ProfileError on any defect, reading no more than one byte past
    the limit."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read(PROFILE_BYTE_LIMIT + 1)
        if len(raw) > PROFILE_BYTE_LIMIT:
            raise ProfileError(f"profile {path!r} is longer than {PROFILE_BYTE_LIMIT} bytes")
        data = json.loads(raw, object_pairs_hook=partial(_distinct, what="profile key"))
    except ProfileError:  # too long, a repeated key, and no digit-limit ValueError
        raise
    # RecursionError: arrays or objects nested deeper than the decoder recurses.
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
        raise ProfileError(f"cannot read profile {path!r}: {e}") from e
    except ValueError as e:  # a JSON integer literal beyond the digit limit
        raise ProfileError(f"profile {path!r} holds an integer with {_TOO_MANY_DIGITS}") from e
    if not isinstance(data, dict):
        raise ProfileError("profile JSON must be an object")
    profile = CandidateProfile.from_json_dict(data)
    profile.validate()
    return profile
