"""Benchmark of the szq package: three closed-loop, single-client workloads.

    python3 perfbench/run.py --workload oracle-q8 --seed 1 --seconds 15 --trace 0

oracle-q8   ``szq verify --q 8 --modulus <seeded>`` then ``szq nse --q 8
            --source both``, through ``szq.cli.main`` in-process
gate-sweep  one ``szq gate <profile.json>`` per seeded profile, m = 1..25
borel-q128  closure of the three lower-triangular generators of Sz(128),
            certified by its size |B| = q^2 (q - 1) = 2,080,768

A pass sends every request of the workload once; passes repeat until
``--seconds`` have gone by (at least one pass).  Times are wall times
rescaled to a reference machine speed (``SpeedProbe``).  Every output is
checked against values the benchmark derives itself (``gen.py``).  With
``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (``tracing.py``), which
first makes one untraced pass to report the tracing overhead.  ``--workload
all`` runs each workload in its own process and prints one table.  The exit
code is nonzero when any request failed.  DESIGN.md records why each
workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from bisect import bisect_left
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402  (the benchmark's own module, next to this file)

WORKLOADS = ("oracle-q8", "gate-sweep", "borel-q128")
SETUP_PROBES = 9

# The machine speed probe, run every PROBE_INTERVAL seconds: two fixed loops
# of PROBE_LOOP iterations, one of big-integer remainders (like the gate's
# trial division) and one of table lookups, xor, tuples and dict inserts (like
# the matrix kernels and closure keys).  PROBE_REFS are their durations at the
# reference speed.  Neither calls szq, so a change to szq cannot move them.
PROBE_LOOP = 1000
PROBE_INTERVAL = 0.05
PROBE_REFS = (1.0e-4, 1.8e-4)
PROBE_BIG = (1 << 89) - 1
PROBE_TABLE = [[(7 * i + 13 * j) % 16 for j in range(16)] for i in range(16)]

# (name, unit) in BENCHMARK.json order.
END_TO_END = (("pass_s", "s"), ("slowest_request_s", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))
PER_LAYER = (
    ("field.Field.s", "s"),
    ("mat4.mul.calls", "count"), ("mat4.mul.s", "s"),
    ("mat4.encode.calls", "count"), ("mat4.encode.s", "s"),
    ("mat4.inv.calls", "count"), ("mat4.inv.s", "s"),
    ("mat4.element_order.calls", "count"), ("mat4.element_order.s", "s"),
    ("oracle.enumerate_group.s", "s"), ("oracle.build_suzuki_table.s", "s"),
    ("oracle.empirical_order_stats.s", "s"), ("oracle.streaming_order_census.s", "s"),
    ("oracle.verify_partition.s", "s"),
    ("oracle.conjugate_orbit.calls", "count"), ("oracle.conjugate_orbit.s", "s"),
    ("oracle.find_cyclic_subgroup.calls", "count"), ("oracle.find_cyclic_subgroup.s", "s"),
    ("oracle.normalizer.calls", "count"), ("oracle.normalizer.s", "s"),
    ("oracle.centralizer.calls", "count"), ("oracle.centralizer.s", "s"),
    ("oracle.new_key_ratio", "ratio"),
    ("orderstats.factorize.calls", "count"), ("orderstats.factorize.s", "s"),
    ("orderstats.euler_phi.calls", "count"), ("orderstats.euler_phi.s", "s"),
    ("orderstats.divisors.s", "s"), ("orderstats.multiplicative_order.s", "s"),
    ("orderstats.nse_closed_form.calls", "count"), ("orderstats.nse_closed_form.s", "s"),
    ("gate.load_profile.s", "s"),
    ("gate.run_gate.calls", "count"), ("gate.run_gate.s", "s"), ("gate.run_gate.max_s", "s"),
    ("gate.nse_match_check.s", "s"), ("gate.isolation_certificate.s", "s"),
    ("gate.two_frobenius_exclusion.s", "s"), ("gate.simple_section_check.s", "s"),
    ("gate.closed_forms_per_run", "ratio"),
    ("cli.main.s", "s"), ("cli._emit.s", "s"),
    ("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio"),
)
# Units of the report's named metrics that are not seconds.
NAMED_UNITS = {"peak_rss_mb": "MB", "failed_ops_frac": "ratio", "requests": "count",
               "requests_per_pass": "count", "closure_el_per_s": "el/s"}


# ---------------------------------------------------------------------------
# Set-up and requests
# ---------------------------------------------------------------------------

class Work:
    """One workload's prepared inputs and the szq entry points it calls."""

    def __init__(self, workload: str, seed: int) -> None:
        import szq.cli
        import szq.oracle

        self.cli, self.oracle = szq.cli, szq.oracle
        self.inputs = gen.make_inputs(workload, seed)
        self.digest = gen.inputs_digest(self.inputs)
        self.requests = self.inputs["requests"]
        self.generators = None
        if workload == "gate-sweep":
            pdir = OUT / f"profiles-seed{seed}"
            pdir.mkdir(parents=True, exist_ok=True)
            for i, req in enumerate(self.requests):
                path = pdir / f"{i:03d}.json"
                path.write_text(json.dumps(req["profile"], sort_keys=True))
                req["argv"] = ["gate", str(path)] + gen.CLI_FLAGS
        elif workload == "borel-q128":
            from szq.field import Field
            from szq.group import candidate_generators, make_params

            m = self.inputs["m"]
            field = Field(m, modulus=self.inputs["modulus"])
            self.generators = candidate_generators(make_params(m), field)[:3]
            for g in self.generators:
                upper = [g.entries[4 * i + j] for i in range(4) for j in range(i + 1, 4)]
                if any(upper):
                    raise AssertionError(f"generator {g!r} is not lower triangular")

    def run(self, req: dict) -> str | None:
        """Send one request; return None when its output is right, else why not."""
        if req["kind"] == "closure":
            table = self.oracle.enumerate_group(self.generators,
                                                limit=self.inputs["expected_size"])
            if table.size != self.inputs["expected_size"]:
                return f"closure has {table.size} elements"
            return None
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(list(req["argv"]))
        return check_cli(req, rc, out.getvalue())


def check_cli(req: dict, rc: int, stdout: str) -> str | None:
    want_rc = req.get("exit", 0)
    if rc != want_rc:
        return f"{req['kind']}: exit {rc}, expected {want_rc}"
    if want_rc == 2:
        return None if stdout == "" else "malformed profile produced a report"
    payload = json.loads(stdout)
    census = {"total": str(gen.sz_order(1)),
              "counts": {str(i): str(c) for i, c in gen.SZ8_CENSUS.items()}}
    if req["kind"] == "verify":
        failed = [c["name"] for c in payload["checks"] if not c["passed"]]
        if failed or payload["passed"] is not True:
            return f"verify: failed checks {failed}"
        if payload["census"] != census:
            return f"verify: census {payload['census']}"
        if payload["modulus"] != req["argv"][req["argv"].index("--modulus") + 1]:
            return f"verify: ran with modulus {payload['modulus']}"
        return None
    if req["kind"] == "nse":
        if payload["diff"] != {}:
            return f"nse: diff {payload['diff']}"
        for src in ("oracle", "closed_form"):
            if payload[src] != census:
                return f"nse: {src} census {payload[src]}"
        return None
    if payload["verdict"] != req["verdict"] or payload["inferred_m"] != req["m"]:
        return (f"gate {req['kind']} m={req['m']}: verdict {payload['verdict']}, "
                f"m={payload['inferred_m']}")
    if req["kind"] == "reject":
        match = [c for c in payload["checks"] if c["name"] == "nse_match"]
        if not match or match[0]["passed"]:
            return f"gate reject m={req['m']}: nse_match did not fail"
    return None


def label(req: dict) -> str:
    """Requests of one label do the same work: gate profiles of one m, or
    one kind of request."""
    return req["kind"] if req.get("m") is None else f"m={req['m']}"


class SpeedProbe:
    """Samples how fast the machine runs the probe loops, every
    PROBE_INTERVAL seconds of the measurement, from a SIGALRM handler (no
    thread).

    On a shared virtual machine the speed of one core can swing by 1.8x over
    tens of seconds, and a whole run can fall in a slow or a fast stretch
    (DESIGN.md has the measurements).  ``calibrate`` rescales a measured
    interval by the mean speed ratio (reference time / probe time) sampled
    over it, which gives the seconds it would have taken at the reference
    speed.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.speeds: list[float] = []  # reference time / probe time

    def _tick(self, _signum=None, _frame=None) -> None:
        t0 = perf_counter()
        n = PROBE_BIG
        for i in range(PROBE_LOOP):
            n % (2 * i + 3)
        t1 = perf_counter()
        table, keys, x = PROBE_TABLE, {}, 1
        for i in range(PROBE_LOOP):
            row = table[x]
            x = row[i & 15] ^ row[x]
            keys[(x, i)] = x
        t2 = perf_counter()
        self.times.append(t0)
        self.speeds.append((PROBE_REFS[0] / (t1 - t0) + PROBE_REFS[1] / (t2 - t1)) / 2)

    def __enter__(self) -> "SpeedProbe":
        self._tick()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def calibrate(self, t0: float, t1: float) -> float:
        """(t1 - t0) at the reference speed, from the samples taken between
        t0 and t1, or the last one before t0 when none was."""
        i, j = bisect_left(self.times, t0), bisect_left(self.times, t1)
        if i == j:
            i, j = max(i - 1, 0), max(i - 1, 0) + 1
        return (t1 - t0) * statistics.fmean(self.speeds[i:j])


def run_pass(work: Work, pass_no: int, tracer=None) -> list[tuple]:
    """Every request once: (label, start, end, error or None) per request."""
    rows = []
    for i, req in enumerate(work.requests):
        if tracer is not None:
            tracer.request_id = f"{pass_no}.{i}"
        t0 = perf_counter()
        try:
            err = work.run(req)
        except Exception as e:  # a crash is a failed request, not a dead run
            err = f"{req['kind']}: {type(e).__name__}: {e}"
        rows.append((label(req), t0, perf_counter(), err))
    return rows


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Cold start of one workload in a fresh interpreter: import szq, make
    and check the inputs, build the field and generators.  (start, end)."""
    t0 = perf_counter()
    subprocess.run([sys.executable, str(Path(__file__)), "--probe-setup",
                    "--workload", workload, "--seed", str(seed)], check=True)
    return t0, perf_counter()


# ---------------------------------------------------------------------------
# Statistics and provenance
# ---------------------------------------------------------------------------

def summary(values: list[float]) -> dict:
    """Median, plus the highest of the usual percentiles with at least ten
    samples above it (None when there are too few samples)."""
    s = sorted(values)
    n = len(s)
    out = {"median": statistics.median(s), "n": n, "max": s[-1], "p": None}
    for pct in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            out["p"] = {"pct": pct, "value": s[math.ceil(pct / 100 * n) - 1]}
            break
    return out


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int, inputs_sha256: str) -> dict:
    digest = hashlib.sha256()
    for p in sorted((SRC / "szq").glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    try:
        l3 = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        l3 = None
    return {
        "seed": seed,
        "inputs_sha256": inputs_sha256,
        "git_sha": git_sha(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": l3,
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
    }


def slowest_label(passes: list) -> tuple[str, float]:
    """The label whose median request time is highest, with that median."""
    times: dict[str, list[float]] = {}
    for rows in passes:
        for lab, t, *_ in rows:
            times.setdefault(lab, []).append(t)
    return max(((lab, statistics.median(ts)) for lab, ts in times.items()),
               key=lambda x: x[1])


def pass_seconds(passes: list, col: int = 1) -> list[float]:
    return [sum(r[col] for r in rows) for rows in passes]


def named_metrics(workload: str, passes: list, setup: list[float], rss_mb: float,
                  attempted: int, failed: int) -> dict:
    """The report's per-workload metrics under the names DESIGN.md defines;
    ``wall_*`` are the uncalibrated times."""
    def kind(k, col=1):
        return summary([r[col] for rows in passes for r in rows if r[0] == k])

    out = {"setup_s": summary(setup), "peak_rss_mb": rss_mb,
           "failed_ops_frac": failed / attempted, "requests": attempted,
           "wall_pass_s": summary(pass_seconds(passes, 3))}
    if workload == "oracle-q8":
        out.update(verify_s=kind("verify"), nse_oracle_s=kind("nse"),
                   wall_verify_s=kind("verify", 3), wall_nse_oracle_s=kind("nse", 3))
    elif workload == "gate-sweep":
        out.update(gate_sweep_s=summary(pass_seconds(passes)),
                   gate_slowest_s=dict(zip(("label", "median"), slowest_label(passes))),
                   gate_request_s=summary([r[1] for rows in passes for r in rows]),
                   requests_per_pass=len(passes[0]))
    else:
        closure = [r[1] for rows in passes for r in rows]
        out.update(closure_s=summary(closure),
                   closure_el_per_s=summary([gen.borel_order(3) / t for t in closure]),
                   wall_closure_s=kind("closure", 3))
    return out


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, tracer) -> tuple:
    """Set-up probes, then passes until ``seconds`` have gone by.  With a
    tracer, one untraced pass comes first and is returned apart."""
    baseline: list = []
    passes: list = []
    with SpeedProbe() as probe:
        setup = [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
        work = Work(workload, seed)
        start = perf_counter()
        if tracer is not None:
            baseline = run_pass(work, 0)
            tracer.install()
        try:
            while not passes or perf_counter() - start < seconds:
                passes.append(run_pass(work, len(passes) + 1, tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()

    def cal(rows):  # (label, start, end, err) -> (label, seconds, err, wall seconds)
        return [(lab, probe.calibrate(t0, t1), err, t1 - t0) for lab, t0, t1, err in rows]

    return (work, [probe.calibrate(t0, t1) for t0, t1 in setup],
            cal(baseline), [cal(rows) for rows in passes])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
    work, setup, baseline, passes = measure(workload, seed, seconds, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    all_rows = baseline + [r for rows in passes for r in rows]
    errors = [r[2] for r in all_rows if r[2] is not None]
    pass_s = statistics.median(pass_seconds(passes))

    if trace:
        # Layer times are wall times; rescale them like the pass they ran in.
        layers = tracer.layer_metrics(len(passes), sum(pass_seconds(passes)) /
                                      sum(pass_seconds(passes, 3)))
        base_s = pass_seconds([baseline])[0]
        layers["trace.overhead_s"] = pass_s - base_s
        layers["trace.overhead_frac"] = pass_s / base_s - 1
        if workload == "borel-q128" and "mat4.mul" not in tracer.absent:
            size, n = work.inputs["expected_size"], len(passes)
            if (tracer.closure_products, tracer.closure_new_elements) != \
                    (3 * size * n, (size - 1) * n):
                errors.append(f"closure made {tracer.closure_products} products for "
                              f"{tracer.closure_new_elements} new elements")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(str(OUT / f"spans-{workload}-seed{seed}.json"))
    else:
        e2e = {"pass_s": pass_s,
               "slowest_request_s": slowest_label(passes)[1],
               "peak_rss_mb": rss_mb,
               "setup_s": statistics.median(setup)}
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    attempted = len(all_rows)
    failed = min(len(errors), attempted)
    report = {"workload": workload, "trace": int(trace), "passes": len(passes),
              "provenance": provenance(seed, work.digest),
              "named": named_metrics(workload, passes, setup, rss_mb, attempted, failed),
              "absent": tracer.absent if tracer else [],
              "errors": errors[:20]}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"report-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True))
    for name, m in metrics.items():
        print(f"{workload:<11} {name:<36} {m['value']:.6g} {m['unit']}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not errors else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process; one table of the named metrics."""
    rc, total, failed, metrics, rows = 0, 0, 0, {}, []
    for w in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", w,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        rc = rc or proc.returncode
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        total += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{w}.{k}": v for k, v in result["metrics"].items()})
        for name, v in report["named"].items():
            value = v["median"] if isinstance(v, dict) else v
            rows.append(f"{w:<11} {name:<18} {value:.6g} {NAMED_UNITS.get(name, 's')}")
    print("\n".join(rows))
    print(json.dumps({"correct": failed == 0 and rc == 0, "attempted": total,
                      "failed": failed, "metrics": metrics}))
    return rc


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "szq" / "__init__.py").is_file():
        print(f"error: no szq package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        Work(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
