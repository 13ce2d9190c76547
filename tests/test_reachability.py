"""Every function of ``szq`` is run by a subcommand or by the closure the
borel-q128 benchmark times, or is named in ``UNCALLED`` with its reason.

The subcommands run in-process under ``sys.setprofile``: ``verify --q 8``
under both moduli of GF(8), ``nse`` from each source, ``params``, ``gate`` on
a map, a set, a rejected, a malformed and a missing profile, and the
refusals; then one ``enumerate_group`` of W at q = 8.  ``verify --q 32
--allow-big`` reaches the same functions, but takes about 3 s under the
profiler, so it is left out.  A function counts when its own code runs:
module-level functions and the methods and property accessors of classes,
not the functions nested inside them, nor the dunder protocols, which run
when Python asks for them (==, hash, repr, iteration, the immutability
guard).  Caches are cleared first, so that a cached function runs its body.
"""

import contextlib
import inspect
import io
import json
import sys

from szq import cli, field, gate, group, mat4, oracle, orderstats
from szq.cli import main
from szq.group import make_params, w_generators
from szq.orderstats import nse_closed_form

MODULES = (cli, field, gate, group, mat4, oracle, orderstats)

UNCALLED = {
    "cli.main_entry": "the console script, which test_cli runs in a child process",
    "mat4._mul_fn_kernel": "the product over a field with no table (q > 512), and the "
                           "tests' reference product",
    "oracle._generating_set": "the scan-based normalizer of a subgroup given by its "
                              "members: the tests' reference for N(W)",
    "oracle._malloc_trim": "trims the heap from 2^12 keys on: B(128)'s closure in "
                           "borel-q128, not W's 64 keys",
    "oracle.StabilizerChain.order": "public element order (README); the tests' reference; "
                                    "verify reads W's orders from one power walker",
    "oracle.StabilizerChain.mul": "public rank product (README); the tests' reference; "
                                  "no command multiplies two ranks",
    "orderstats.multiplicative_order": "test_gate holds the gate's reduced order "
                                       "against it",
    "orderstats.prime_graph": "the profile's own prime graph, for a gate that reads "
                              "the candidate (ROADMAP)",
}


def _functions() -> dict:
    """code object -> "module.qualified name" for every function of MODULES
    whose code lies in its module's file; each cache is cleared."""
    found = {}
    for mod in MODULES:
        short = mod.__name__.rpartition(".")[2]

        def add(name, obj):
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
            obj = getattr(obj, "__wrapped__", getattr(obj, "__func__", obj))
            code = getattr(obj, "__code__", None)
            if code is not None and code.co_filename == mod.__file__:
                found[code] = f"{short}.{name}"

        for name, obj in vars(mod).items():
            if inspect.isclass(obj):
                if obj.__module__ != mod.__name__:
                    continue
                for attr, member in vars(obj).items():
                    accessors = ((member.fget, member.fset, member.fdel)
                                 if isinstance(member, property) else (member,))
                    for accessor in filter(None, accessors):
                        add(f"{name}.{attr}", accessor)
            else:
                add(name, obj)
    return found


def test_every_function_is_run_or_allowed(tmp_path):
    stats = nse_closed_form(make_params(1))
    counts = {str(k): str(v) for k, v in stats.counts.items()}
    profiles = {
        "map": {"order": "29120", "nse_map": counts},
        "set": {"order": "29120", "nse_set": sorted(set(counts.values()))},
        "reject": {"order": "29120", "nse_set": ["1", "2"]},
        "malformed": {"order": "x", "nse_set": ["1"]},
    }
    for name, data in profiles.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    runs = [
        (0, ["verify", "--q", "8"]),
        (0, ["verify", "--q", "8", "--modulus", "0xd", "--output", "json"]),
        (0, ["nse", "--q", "8", "--source", "both", "--output", "json"]),
        (0, ["nse", "--q", "8", "--source", "oracle"]),
        (0, ["nse", "--m", "12", "--output", "json", "--no-timestamp"]),
        (0, ["params", "--q", "8"]),
        (0, ["params", "--m", "3", "--output", "json"]),
        (0, ["gate", str(tmp_path / "map.json")]),
        (0, ["gate", str(tmp_path / "set.json"), "--output", "json"]),
        (1, ["gate", str(tmp_path / "reject.json")]),
        (2, ["gate", str(tmp_path / "malformed.json")]),
        (2, ["gate", str(tmp_path / "missing.json")]),
        (3, ["verify", "--q", "32"]),
        (3, ["verify", "--q", "128", "--allow-big"]),
        (3, ["nse", "--m", "2000"]),
        (2, ["nse", "--m", "1", "--modulus", "0x9"]),
        (2, ["params", "--m", "x"]),
    ]
    functions = _functions()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    codes = []
    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        for _, argv in runs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes.append(main(argv))
        size = oracle.enumerate_group(w_generators(field.Field(1)), limit=64).size
    finally:
        sys.setprofile(before)
    assert codes == [rc for rc, _ in runs] and size == 64
    uncalled = {name for code, name in functions.items()
                if code not in called and not name.rpartition(".")[2].startswith("__")}
    assert uncalled == set(UNCALLED)
