"""Spans around lqss's public functions, for the traced run.

``Tracer.install`` replaces each traced function by a wrapper in every lqss
module that holds it, which is where its callers look it up (``cli`` calls
``schedule_static`` through its own namespace, ``netlist`` calls
``reck_decompose`` through its module globals, and so on); methods are
wrapped on their class.  ``uninstall`` puts the originals back.  Spans stay in
memory; ``layer_metrics`` turns them into self times, inclusive times and
counts.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import time
from collections import Counter

import lqss
from lqss import netlist, statespace

#: span name -> names of the module-level functions it covers
FUNCTIONS = {
    "cli.main": ["main"],
    "passive.synthesize": ["synthesize_passive"],
    "general.synthesize": ["synthesize_general"],
    "dusvd.bogoliubov_svd": ["bogoliubov_svd"],
    "spectral.krein_spectrum": ["krein_spectrum"],
    "krein.structure_check": ["is_doubled_up", "check_doubled_up",
                              "is_bogoliubov", "check_bogoliubov",
                              "bogoliubov_residual", "doubled_up_residual"],
    "netlist.schedule_static": ["schedule_static"],
    "netlist.reck_decompose": ["reck_decompose"],
    "netlist.bloch_messiah": ["bloch_messiah"],
    "statespace.verify_realization": ["verify_realization"],
    "statespace.close_feedback": ["close_feedback"],
    "modelio.load": ["load_model", "load_realization"],
    "modelio.dump": ["realization_to_dict", "report_to_dict", "dump_json"],
}

#: span name -> (class, method name)
METHODS = {
    "netlist.schedule_matrix": (netlist.DeviceSchedule, "matrix"),
    "statespace.eval": (statespace.StateSpace, "eval"),
}

#: per-layer metric -> (span name, "self" | "total" | "calls")
TIMES = {
    "netlist.schedule_static_self_s": ("netlist.schedule_static", "self"),
    "netlist.reck_decompose_s": ("netlist.reck_decompose", "total"),
    "netlist.bloch_messiah_s": ("netlist.bloch_messiah", "total"),
    "netlist.schedule_matrix_s": ("netlist.schedule_matrix", "total"),
    "spectral.krein_spectrum_s": ("spectral.krein_spectrum", "total"),
    "dusvd.bogoliubov_svd_self_s": ("dusvd.bogoliubov_svd", "self"),
    "krein.structure_checks_s": ("krein.structure_check", "total"),
    "krein.structure_checks": ("krein.structure_check", "calls"),
    "general.synthesize_self_s": ("general.synthesize", "self"),
    "passive.synthesize_self_s": ("passive.synthesize", "self"),
    "statespace.verify_realization_self_s":
        ("statespace.verify_realization", "self"),
    "statespace.close_feedback_s": ("statespace.close_feedback", "total"),
    "statespace.eval_s": ("statespace.eval", "total"),
    "statespace.evals": ("statespace.eval", "calls"),
    "modelio.load_s": ("modelio.load", "total"),
    "modelio.dump_s": ("modelio.dump", "total"),
    "cli.self_s": ("cli.main", "self"),
}

#: per-layer counts read from calls: metric -> (function name, count)
RESULT_COUNTS = {
    "netlist.devices": ("schedule_static",
                        lambda result, args: len(result.devices)),
    "spectral.classes": ("krein_spectrum",
                         lambda result, args: len(result.classes)),
    "general.retries": ("synthesize_general",
                        lambda result, args: result.retries),
    "modelio.bytes": ("dump_json",
                      lambda result, args: os.path.getsize(args[0])),
}

#: unit of every per-layer metric; the run adds the tracing overhead
LAYER_UNITS = {
    **{metric: "count" if kind == "calls" else "s"
       for metric, (span, kind) in TIMES.items()},
    **{metric: "count" for metric in RESULT_COUNTS},
    "modelio.bytes": "bytes",
    "trace.overhead_pct": "%",
}


def _lqss_modules() -> list:
    return [lqss] + [importlib.import_module(f"lqss.{info.name}")
                     for info in pkgutil.iter_modules(lqss.__path__)]


class Tracer:
    """Records one span per traced call: [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, name: str, fn):
        counters = [(metric, count) for metric, (fn_name, count)
                    in RESULT_COUNTS.items() if fn_name == fn.__name__]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            for metric, count in counters:
                self.counts[metric] += count(result, args)
            return result
        return wrapper

    def install(self) -> None:
        wrappers = {}
        for module in _lqss_modules():
            for name, fn_names in FUNCTIONS.items():
                for fn_name in fn_names:
                    original = module.__dict__.get(fn_name)
                    if original is None:
                        continue
                    if original not in wrappers:
                        wrappers[original] = self._wrap(name, original)
                    self._patched.append((module, fn_name, original))
                    setattr(module, fn_name, wrappers[original])
        for name, (cls, attr) in METHODS.items():
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer metrics per round over ``rounds`` traced rounds.

        Self time is a span's duration minus its direct children's; total
        time and calls count only spans not nested in a span of the same name.
        """
        total, own, calls = Counter(), Counter(), Counter()
        for name, start, end, parent in self.spans:
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
            if not self._nested_in_same(name, parent):
                total[name] += end - start
                calls[name] += 1
        pick = {"self": own, "total": total, "calls": calls}
        out = {metric: pick[kind][span] / rounds
               for metric, (span, kind) in TIMES.items()}
        out.update({metric: self.counts[metric] / rounds
                    for metric in RESULT_COUNTS})
        return out

    def _nested_in_same(self, name: str, parent: int) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
