"""Command-line front end: compute, verify, and gate.

Subcommands
-----------
params   print the derived parameters of Sz(q)
nse      element-order counts, from the closed forms and/or the brute-force census
verify   full oracle suite at desk scale: closure, census, partition, indices
gate     decide an (order, nse-profile) JSON file

Exit codes: 0 success/accept, 1 gate reject, 2 usage or input error,
3 refused scale, 4 certification or verification failure.  A closed stdout
ends the console script by SIGPIPE where the platform has it.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import signal
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from functools import cache

from .field import Field, check_modulus
from .gate import ProfileError, load_profile, run_gate
from .group import (
    CertificationError,
    SuzukiParams,
    make_params,
    params_for_q,
)
from .oracle import (
    OrderNotFoundError,
    ScaleRefusal,
    StabilizerChain,
    SubgroupNotFoundError,
    centralizer,
    check_census_scale,
    empirical_order_stats,
    verify_partition,
)
from .orderstats import (
    Check,
    OrderStats,
    factorize,
    frobenius_check,
    nse_closed_form,
    spectrum_closed_form,
    totient_divisor_check,
    weisner_count,
)


def _decimal(text: str) -> int:
    """An argparse type for --m and --q: ASCII decimal digits and nothing
    else, so no sign, ``_``, whitespace or other script's digit is read as
    a number."""
    if re.fullmatch("[0-9]+", text):
        try:
            return int(text)
        except ValueError:  # past the interpreter's digit limit
            pass
    raise argparse.ArgumentTypeError(f"not a decimal integer: {text[:40]!r}")


def _hex_modulus(text: str) -> int:
    """An argparse type for a modulus, an ASCII hex bit-string with an
    optional 0x; its degree and irreducibility are checked against m before
    any scale refusal (``_resolve_params``)."""
    if re.fullmatch("(0[xX])?[0-9a-fA-F]+", text):
        return int(text, 16)
    raise argparse.ArgumentTypeError(f"not a hex bit-string: {text!r}")


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls:
    parsing leaves it unchanged, while a rebuild per call costs time and
    leaves a reference cycle for the garbage collector."""
    ap = argparse.ArgumentParser(
        prog="szq",
        description="Suzuki groups Sz(q): exact construction, order statistics, "
                    "brute-force verification, and profile gating.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, size: bool = True) -> None:
        if size:
            g = p.add_mutually_exclusive_group(required=True)
            g.add_argument("--m", type=_decimal, help="twist parameter m >= 1")
            g.add_argument("--q", type=_decimal, help="field order 2^(2m+1) >= 8")
        p.add_argument("--output", choices=("json", "table"), default="table")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the generated_at field from JSON output")

    p_params = sub.add_parser("params", help="derived parameters of Sz(q)")
    add_common(p_params)
    p_params.set_defaults(func=cmd_params)

    p_nse = sub.add_parser("nse", help="element-order counts")
    add_common(p_nse)
    p_nse.add_argument("--source", choices=("closed-form", "oracle", "both"),
                       default="closed-form")
    p_nse.add_argument("--modulus", type=_hex_modulus,
                       help="field modulus override, hex bit-string (e.g. 0xb)")
    p_nse.add_argument("--allow-big", action="store_true",
                       help="permit oracle runs beyond q=8")
    p_nse.set_defaults(func=cmd_nse)

    p_verify = sub.add_parser("verify", help="run the full brute-force suite")
    add_common(p_verify)
    p_verify.add_argument("--modulus", type=_hex_modulus,
                          help="field modulus override, hex bit-string")
    p_verify.add_argument("--allow-big", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_gate = sub.add_parser("gate", help="gate an (order, nse) profile JSON file")
    p_gate.add_argument("profile", help="path to the profile JSON")
    add_common(p_gate, size=False)
    p_gate.set_defaults(func=cmd_gate)

    return ap


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _resolve_params(args: argparse.Namespace) -> SuzukiParams:
    m = args.m if args.q is None else params_for_q(args.q).m
    # |Sz(q)| < 2^(10m+5) must print within the interpreter's digit limit;
    # refuse a larger m before make_params builds 2^(2m+1).
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300  # the default
    largest = (math.floor((digits - 1) / math.log10(2)) - 5) // 10
    if m > largest:
        raise ScaleRefusal(
            f"m = {m}: |Sz(q)| would print with more than {digits} decimal digits, "
            f"the interpreter's limit; the largest m is {largest}")
    # A bad modulus is a usage error whatever the source, and whatever the
    # scale: it is found before any refusal or work.
    if getattr(args, "modulus", None) is not None:
        check_modulus(2 * m + 1, args.modulus)
    return make_params(m)


def _check_scale(params: SuzukiParams, args: argparse.Namespace) -> None:
    """Refuse an oracle run from the parameters alone, before any field is
    built."""
    if params.m > 1 and not args.allow_big:
        raise ScaleRefusal(
            f"oracle runs beyond q=8 enumerate {params.group_order} permutations of "
            f"the {params.q * params.q + 1} ovoid points; pass --allow-big to opt in")
    check_census_scale(params)


def _emit(args: argparse.Namespace, payload: dict, table_lines: list[str]) -> None:
    if args.output == "json":
        if not args.no_timestamp:
            payload = dict(payload)
            payload["generated_at"] = datetime.now(timezone.utc).isoformat()
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in table_lines:
            print(line)


def _kv_lines(rows: list[tuple[str, str]]) -> list[str]:
    width = max(len(k) for k, _ in rows)
    return [f"{k:<{width}}  {v}" for k, v in rows]


def _check_lines(checks: list[Check], width: int) -> list[str]:
    """One PASS or FAIL line per check, its name padded to ``width``."""
    return [f"{'PASS' if c.passed else 'FAIL'}  {c.name:<{width}} {c.detail}" for c in checks]


def _stats_lines(stats: OrderStats, title: str) -> list[str]:
    lines = [title, f"{'order':>8}  count"]
    for i, c in sorted(stats.counts.items()):
        lines.append(f"{i:>8}  {c}")
    lines.append(f"{'total':>8}  {stats.total}")
    return lines


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_params(args: argparse.Namespace) -> int:
    p = _resolve_params(args)
    payload = {
        "m": p.m,
        "q": str(p.q), "s": str(p.s),
        "u1": str(p.u1), "u2": str(p.u2), "v": str(p.v),
        "w_order": str(p.w_order), "group_order": str(p.group_order),
    }
    rows = [("m", str(p.m)), ("q", str(p.q)), ("s = sqrt(2q)", str(p.s)),
            ("u1 = q+s+1", str(p.u1)), ("u2 = q-s+1", str(p.u2)),
            ("v = q-1", str(p.v)), ("|W| = q^2", str(p.w_order)),
            ("|Sz(q)|", str(p.group_order))]
    _emit(args, payload, _kv_lines(rows))
    return 0


def cmd_nse(args: argparse.Namespace) -> int:
    p = _resolve_params(args)
    if args.source != "closed-form":
        _check_scale(p, args)
    payload: dict = {"m": p.m, "q": str(p.q), "source": args.source}
    lines: list[str] = []
    rc = 0
    if args.source in ("closed-form", "both"):
        closed = nse_closed_form(p)
        payload["closed_form"] = closed.to_json_dict()
        lines += _stats_lines(closed, f"closed-form order counts for Sz({p.q})")
    if args.source in ("oracle", "both"):
        # CertificationError -> 4
        chain = StabilizerChain(p, Field(p.m, modulus=args.modulus))
        oracle_stats = empirical_order_stats(chain, spectrum_closed_form(p))
        payload["oracle"] = oracle_stats.to_json_dict()
        lines += _stats_lines(oracle_stats, f"oracle census for Sz({p.q})")
    if args.source == "both":
        diff = {}
        all_keys = set(closed.counts) | set(oracle_stats.counts)
        for i in sorted(all_keys):
            a, b = closed.counts.get(i, 0), oracle_stats.counts.get(i, 0)
            if a != b:
                diff[str(i)] = {"closed_form": str(a), "oracle": str(b)}
        payload["diff"] = diff
        lines.append(f"diff entries: {len(diff)}")
        for i, d in diff.items():
            lines.append(f"  order {i}: closed-form {d['closed_form']} oracle {d['oracle']}")
        if diff:
            rc = 4
    _emit(args, payload, lines)
    return rc


def cmd_verify(args: argparse.Namespace) -> int:
    p = _resolve_params(args)
    _check_scale(p, args)
    field = Field(p.m, modulus=args.modulus)
    checks: list[Check] = []

    chain = StabilizerChain(p, field)  # CertificationError -> 4
    checks.append(Check("generator_certification", True,
                        f"closure of 4 candidate generators has {chain.size} elements"))

    # The certificate digs the four classes and their normalizers; the
    # normalizer and centralizer checks below read them off the report, and
    # the census too once the partition holds.  Without it the power pass
    # takes the census, and the failed partition check exits 4.
    partition = verify_partition(chain)
    classes, normalizers = partition.classes, partition.normalizers
    spectrum = spectrum_closed_form(p)
    stats = partition.census
    if stats is None:
        stats = empirical_order_stats(chain, spectrum)
    closed = nse_closed_form(p)
    checks.append(Check("census_matches_closed_form",
                        stats.counts == closed.counts and stats.total == closed.total,
                        f"census {len(stats.counts)} orders, total {stats.total}"))
    checks.append(Check("spectrum_exact",
                        set(stats.counts) == set(spectrum.orders),
                        f"orders found: {sorted(stats.counts)}"))

    w, walk = classes["w"], chain._power_walker()
    w_orders = [len(walk(r)) + 1 for r in w.members]
    involutions = w_orders.count(2)
    checks.append(Check("w_subgroup",
                        w.order == p.w_order and max(w_orders) == 4 and involutions == p.q - 1,
                        f"|W| = {w.order}, exponent {max(w_orders)}, {involutions} involutions"))

    checks.append(Check("partition", partition.passed,
                        f"conjugates ({partition.measured.n_w}, {partition.measured.n_u1}, "
                        f"{partition.measured.n_u2}, {partition.measured.n_v}), "
                        f"coverage {partition.coverage}, "
                        f"multiply covered {partition.multiply_covered}"))

    for name, k, index_over in (("u1", p.u1, 4), ("u2", p.u2, 4), ("v", p.v, 2)):
        n = normalizers[name]
        checks.append(Check(f"normalizer_{name}", n.order == index_over * k,
                            f"|N| = {n.order} = {index_over} * {k}"))
    nw = normalizers["w"]
    checks.append(Check("normalizer_w_index", nw.order * (p.q * p.q + 1) == chain.size,
                        f"|N(W)| = {nw.order}, index {chain.size // nw.order}"))

    for name, k in (("u1", p.u1), ("u2", p.u2)):
        c = centralizer(chain, classes[name].cyclic_generator)
        checks.append(Check(f"centralizer_{name}", c.order == k,
                            f"|C| = {c.order} for an element of order {k}"))

    checks += [frobenius_check(stats), totient_divisor_check(stats),
               *(weisner_count(stats, t)[1] for t in sorted(factorize(p.group_order)))]

    ok = all(c.passed for c in checks)
    payload = {
        "m": p.m, "q": str(p.q), "modulus": hex(field.modulus),
        "checks": [asdict(c) for c in checks],
        "census": stats.to_json_dict(),
        "partition": partition.to_json_dict(),
        "passed": ok,
    }
    lines = [f"verification suite for Sz({p.q}), modulus {hex(field.modulus)}",
             *_check_lines(checks, 28),
             f"result: {'all checks passed' if ok else 'FAILURES PRESENT'}"]
    _emit(args, payload, lines)
    return 0 if ok else 4


def cmd_gate(args: argparse.Namespace) -> int:
    profile = load_profile(args.profile)
    report = run_gate(profile)
    payload = report.to_json_dict()
    lines = [f"verdict: {report.verdict}"
             + (f" (m = {report.inferred_m})" if report.inferred_m is not None else ""),
             *_check_lines(report.checks, 24),
             report.note]
    _emit(args, payload, lines)
    return 0 if report.verdict == "ACCEPT" else 1


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:  # argparse uses exit code 2 for usage errors
        return int(e.code or 0)
    try:
        return args.func(args)
    except ScaleRefusal as e:
        print(f"refused: {e}", file=sys.stderr)
        return 3
    except (CertificationError, SubgroupNotFoundError, OrderNotFoundError) as e:
        print(f"certification failure: {e}", file=sys.stderr)
        return 4
    except (ProfileError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main_entry() -> None:
    # A closed stdout ends the console script as it ends ``cat``: by SIGPIPE,
    # with nothing on stderr.  ``main`` leaves signals to its caller.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
