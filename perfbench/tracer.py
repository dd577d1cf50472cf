"""Span tracing of trigint's public functions, installed at run time.

Each traced function or method is replaced, in every ``trigint`` module that
binds it, by a wrapper that opens a span named after its layer operation
(``pipoly.arith``, ``recurrence.cos_moment``, ...).  A span's self time is
its duration minus the time covered by its child spans.  Spans are folded
into per-operation totals as they close, so memory stays flat however many
PiPoly operations a request performs.  Only calls made inside a request are
traced.  Counters (coefficient bits, panels, arches, ...) are read off the
arguments and results once a span has closed; the time that takes is left
out of every self time and of the request time.  ``uninstall`` puts every
original object back; nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

# (operation, module, attribute) -- "Class.method" attributes wrap methods.
TARGETS = (
    *(("pipoly.arith", "pipoly", f"PiPoly.{m}") for m in
      ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__")),
    ("pipoly.evaluate", "pipoly", "PiPoly.evaluate"),
    *(("pipoly.render", "pipoly", f"PiPoly.{m}") for m in ("__str__", "latex", "to_dict")),
    ("recurrence.cos_moment", "recurrence", "cos_moment"),
    ("recurrence.sin_moment", "recurrence", "sin_moment"),
    *(("recurrence.base_rows", "recurrence", f) for f in ("base_n0", "base_n1", "base_p0", "base_p1")),
    ("recurrence.solve_first_order", "recurrence", "solve_first_order"),
    ("eulersums.nested_sum", "eulersums", "nested_sum"),
    ("eulersums.tail_coupled_sum", "eulersums", "tail_coupled_sum"),
    ("eulersums.central_tail", "eulersums", "central_tail"),
    *(("closedform.branch", "closedform", f) for f in ("even_branch", "odd_branch")),
    ("closedform.star", "closedform", "star_constant"),
    ("closedform.cascade", "closedform", "coeff_via_recurrence"),
    ("halfline.closed_form", "halfline", "halfline_power"),
    *(("halfline.special", "halfline", f) for f in
      ("log_weighted", "double_log", "multidim_log", "fresnel_c", "power_arg", "gr_822_1", "linear_phase")),
    ("quadrature.finite", "quadrature", "integrate_finite"),
    ("quadrature.halfline", "quadrature", "integrate_halfline_osc"),
    ("quadrature.accelerate", "quadrature", "accelerate_alternating"),
    *(("report", "report", f"VerificationReport.{m}") for m in
      ("add", "add_exact", "extend", "failures", "lines", "to_dict")),
    ("cli.main", "cli", "main"),
    ("cli.verify_sweep", "cli", "verify_sweep"),
)

ROOT = "request"
MODULES = ("pipoly", "recurrence", "eulersums", "closedform", "halfline", "quadrature", "report", "cli")
OPERATIONS = tuple(dict.fromkeys(op for op, _, _ in TARGETS))


class Tracer:
    """Per-operation call counts and self times, plus oracle and cache counters."""

    def __init__(self) -> None:
        self.calls = {op: 0 for op in (ROOT, *OPERATIONS)}
        self.self_ns = {op: 0 for op in (ROOT, *OPERATIONS)}
        self.request_ns = 0
        self.observe_ns = 0
        self.counters = {
            "panels": 0, "arches": 0, "oracles": 0, "unconverged": 0,
            "cache_hits": 0, "cache_misses": 0, "cache_size_max": 0, "coeff_bits_max": 0,
        }
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._caches: list = []
        self._cache_base = (0, 0)

    # -- spans -------------------------------------------------------------

    def _enter(self, op: str) -> list:
        frame = [op, time.perf_counter_ns(), 0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> int:
        duration = time.perf_counter_ns() - frame[1]
        self._stack.pop()
        op = frame[0]
        self.calls[op] += 1
        self.self_ns[op] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    @contextmanager
    def request(self):
        """Root span of one request; its self time is the unattributed rest."""
        frame = self._enter(ROOT)
        try:
            yield
        finally:
            self.request_ns += self._exit(frame)

    def _wrap(self, op: str, fn):
        observe = self._observer(op)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:  # only calls inside a request are traced
                return fn(*args, **kwargs)
            frame = self._enter(op)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if observe is not None:
                # Observer time counts as a child of the caller's span, so it
                # is nobody's self time; request_s leaves it out.
                start = time.perf_counter_ns()
                observe(args, result)
                spent = time.perf_counter_ns() - start
                self.observe_ns += spent
                self._stack[-1][2] += spent
            return result

        return traced

    def _observer(self, op: str):
        # Counters are read off arguments and results, after the span has closed.
        counters = self.counters

        def arith(args, result):
            if result is not NotImplemented:
                bits = max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in result.coeffs),
                           default=0)
                if bits > counters["coeff_bits_max"]:
                    counters["coeff_bits_max"] = bits

        def finite(args, result):
            counters["panels"] += result.subdivisions
            if self._stack[-1][0] == "quadrature.halfline":
                counters["arches"] += 1
            else:
                oracle(args, result)

        def halfline(args, result):
            counters["arches"] -= 1  # its first finite integral is the head, not an arch
            oracle(args, result)

        def oracle(args, result):
            counters["oracles"] += 1
            counters["unconverged"] += not result.converged

        return {"pipoly.arith": arith, "quadrature.finite": finite, "quadrature.halfline": halfline}.get(op)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"trigint.{name}") for name in MODULES}
        namespaces = [importlib.import_module("trigint"), *modules.values()]
        self._caches = [modules["recurrence"].cos_moment, modules["recurrence"].sin_moment]
        for op, module, attr in TARGETS:
            owner_name, _, name = attr.rpartition(".")
            if owner_name:
                owner = getattr(modules[module], owner_name)
                self._patch(owner, name, self._wrap(op, owner.__dict__[name]))
                continue
            original = getattr(modules[module], name)
            wrapped = self._wrap(op, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, wrapped)
        self.rebase_caches()

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- counters read at request boundaries -------------------------------

    def _cache_totals(self) -> tuple[int, int, int]:
        infos = [c.cache_info() for c in self._caches]
        return (sum(i.hits for i in infos), sum(i.misses for i in infos), sum(i.currsize for i in infos))

    def rebase_caches(self) -> None:
        """Start counting cache traffic afresh (after the caches were cleared)."""
        self._cache_base = self._cache_totals()[:2]

    def checkpoint_caches(self) -> None:
        hits, misses, size = self._cache_totals()
        self.counters["cache_hits"] += hits - self._cache_base[0]
        self.counters["cache_misses"] += misses - self._cache_base[1]
        self.counters["cache_size_max"] = max(self.counters["cache_size_max"], size)
        self._cache_base = (hits, misses)

    # -- summary -----------------------------------------------------------

    def seconds(self, prefix: str) -> float:
        """Self time of every operation named ``prefix`` or ``prefix.*``."""
        return sum(ns for op, ns in self.self_ns.items() if op == prefix or op.startswith(prefix + ".")) / 1e9
