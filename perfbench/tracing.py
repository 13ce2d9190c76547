"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each public function listed in ``TARGETS`` with a
wrapper, in every ``szq`` module that has the name bound (``szq.cli`` and
``szq.gate`` from-import their callees) and on the class for methods.
``Tracer.uninstall`` puts the originals back.  A target that no longer exists
is reported as absent; the untraced benchmark never imports this module.

Three kinds of wrapper:

* span: records (id, name, start, end, parent id, request id, self time).
* leaf and aggregate: functions called up to millions of times per request
  (the matrix kernels, ``element_order``).  Keeping a span per call would
  need gigabytes, so these only add to a count, a total and a self time, and
  charge their duration to the enclosing frame.

Self time is a call's duration minus the time its wrapped children took.
All state lives on the Tracer; spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (metric prefix, module, attribute path, wrapper kind)
TARGETS = (
    ("field.Field", "szq.field", "Field.__init__", "span"),
    ("mat4.mul", "szq.mat4", "Mat4.__mul__", "leaf"),
    ("mat4.encode", "szq.mat4", "Mat4.encode", "leaf"),
    ("mat4.inv", "szq.mat4", "Mat4.inv", "leaf"),
    ("mat4.element_order", "szq.mat4", "element_order", "aggregate"),
    ("oracle.enumerate_group", "szq.oracle", "enumerate_group", "span"),
    ("oracle.build_suzuki_table", "szq.oracle", "build_suzuki_table", "span"),
    ("oracle.empirical_order_stats", "szq.oracle", "empirical_order_stats", "span"),
    ("oracle.streaming_order_census", "szq.oracle", "streaming_order_census", "span"),
    ("oracle.verify_partition", "szq.oracle", "verify_partition", "span"),
    ("oracle.conjugate_orbit", "szq.oracle", "conjugate_orbit", "span"),
    ("oracle.find_cyclic_subgroup", "szq.oracle", "find_cyclic_subgroup", "span"),
    ("oracle.normalizer", "szq.oracle", "normalizer", "span"),
    ("oracle.centralizer", "szq.oracle", "centralizer", "span"),
    ("orderstats.factorize", "szq.orderstats", "factorize", "span"),
    ("orderstats.euler_phi", "szq.orderstats", "euler_phi", "span"),
    ("orderstats.divisors", "szq.orderstats", "divisors", "span"),
    ("orderstats.multiplicative_order", "szq.orderstats", "multiplicative_order", "span"),
    ("orderstats.nse_closed_form", "szq.orderstats", "nse_closed_form", "span"),
    ("gate.load_profile", "szq.gate", "load_profile", "span"),
    ("gate.run_gate", "szq.gate", "run_gate", "span"),
    ("gate.nse_match_check", "szq.gate", "nse_match_check", "span"),
    ("gate.isolation_certificate", "szq.gate", "isolation_certificate", "span"),
    ("gate.two_frobenius_exclusion", "szq.gate", "two_frobenius_exclusion", "span"),
    ("gate.simple_section_check", "szq.gate", "simple_section_check", "span"),
    ("cli.main", "szq.cli", "main", "span"),
    ("cli._emit", "szq.cli", "_emit", "span"),
)


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, self seconds, longest call in seconds]
        self.stats: dict[str, list] = {t[0]: [0, 0.0, 0.0] for t in TARGETS}
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.request_id: str | None = None
        # Open frames; index 0 of each is the child time charged to it.
        self._stack: list[list] = [[0.0]]
        self._restore: list[tuple] = []
        # Counts taken inside given spans, for the ratio metrics.
        self.closure_products = 0
        self.closure_new_elements = 0
        self.gate_closed_forms = 0
        self.gate_runs_with_m = 0

    # -- wrappers --

    def _leaf(self, name: str, fn):
        """For callees of nothing wrapped: self time equals the duration, so
        no frame is pushed.  A call that raises is not counted."""
        st, stack = self.stats[name], self._stack

        def wrapper(*args):
            t0 = perf_counter()
            result = fn(*args)
            d = perf_counter() - t0
            stack[-1][0] += d
            st[0] += 1
            st[1] += d
            return result

        return wrapper

    def _aggregate(self, name: str, fn):
        """Counted and timed like a leaf, but with a frame so that the
        wrapped calls it makes are charged to it."""
        st, stack = self.stats[name], self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                stack.pop()
                stack[-1][0] += d
                st[0] += 1
                st[1] += d - frame[0]

        return wrapper

    def _span(self, name: str, fn):
        st, stack, spans = self.stats, self._stack, self.spans
        mine = st[name]

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = len(spans)
            spans.append(None)  # reserve the id; filled in on exit
            frame = [0.0, span_id]
            muls0 = st["mat4.mul"][0]
            forms0 = st["orderstats.nse_closed_form"][0]
            stack.append(frame)
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                d = t1 - t0
                stack.pop()
                parent[0] += d
                self_s = d - frame[0]
                mine[0] += 1
                mine[1] += self_s
                if d > mine[2]:
                    mine[2] = d
                spans[span_id] = (span_id, name, t0, t1,
                                  parent[1] if len(parent) > 1 else None,
                                  self.request_id, self_s)
                if name == "oracle.enumerate_group" and result is not None:
                    self.closure_products += st["mat4.mul"][0] - muls0
                    self.closure_new_elements += result.size - 1
                elif name == "gate.run_gate" and result is not None \
                        and result.inferred_m is not None:
                    self.gate_closed_forms += st["orderstats.nse_closed_form"][0] - forms0
                    self.gate_runs_with_m += 1

        return wrapper

    # -- patching --

    def install(self) -> None:
        for name, modname, path, kind in TARGETS:
            mod = sys.modules.get(modname)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.absent.append(name)
                continue
            wrapped = getattr(self, "_" + kind)(name, orig)
            if owner_name:  # a method: patch the class
                self._restore.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
                continue
            for mname, m in list(sys.modules.items()):
                if mname != "szq" and not mname.startswith("szq."):
                    continue
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._restore.append((m, key, orig))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results --

    def layer_metrics(self, passes: int, scale: float = 1.0) -> dict[str, float]:
        """Per-pass calls and self seconds of every target, plus the ratios;
        ``scale`` multiplies every time."""
        out: dict[str, float] = {}
        for name, (calls, self_s, max_s) in self.stats.items():
            out[f"{name}.calls"] = calls / passes
            out[f"{name}.s"] = self_s / passes * scale
            out[f"{name}.max_s"] = max_s * scale
        out["oracle.new_key_ratio"] = (self.closure_new_elements / self.closure_products
                                       if self.closure_products else 0.0)
        out["gate.closed_forms_per_run"] = (self.gate_closed_forms / self.gate_runs_with_m
                                            if self.gate_runs_with_m else 0.0)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "request", "self_s"],
                       "spans": [s for s in self.spans if s is not None],
                       "absent": self.absent}, fh)
