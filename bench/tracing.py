"""Spans around seqprove's public functions, recorded from outside the program.

``Tracer.install`` wraps each function in LAYERS and rebinds it in every
seqprove module that holds it under any name, so calls made through a
by-name import (``prover`` calling ``match_conclusion``, ``cli`` calling
``prove_g4``) are seen too.  ``uninstall`` puts the originals back.

A span is (id, function, start, end, parent id, operation index).  Every
span stays in memory and is written out at the end.  Self time is a span's
duration minus the time covered by its wrapped children.  Total time counts a
recursive function's outermost span only.
"""

from __future__ import annotations

import functools
import json
import re
import sys
import time

LAYERS = {
    "cli": ("main",),
    "dsl": ("parse_rules",),
    "syntax": ("parse_sequent", "parse_formula", "print_sequent"),
    "calculus": ("match_conclusion", "instantiate_premises", "build_g3ix", "build_g4ix"),
    "orders": ("sequent_less", "multiset_less", "check_schema_termination"),
    "prover": ("prove_g4", "prove_g3", "check_derivation", "derivation_to_json",
               "derivation_from_json"),
}
FUNCTIONS = tuple(f"{m}.{f}" for m, names in LAYERS.items() for f in names)

# Rules of every calculus the workloads use, for the per-rule match counts.
RULES = ("Ax", "LBot", "RAnd", "LAnd", "ROr0", "ROr1", "LOr", "RImp", "LImp",
         "LpImp", "LAndImp", "LOrImp", "LImpImp", "R_K", "R_D", "R_T", "R_K->",
         "K_user", "T_user", "K_user->")

_MATCH = "calculus.match_conclusion"


def metric_name(name: str) -> str:
    """Metric names use only [A-Za-z0-9_.-]; a rule's ``->`` becomes ``-imp``."""
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name.replace("->", "-imp"))


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.spans = []
        self._next_id = 0
        self._stack = []  # [span id, time covered by children]
        self._depth = dict.fromkeys(FUNCTIONS, 0)
        self.calls = dict.fromkeys(FUNCTIONS, 0)
        self.total = dict.fromkeys(FUNCTIONS, 0.0)
        self.self_time = dict.fromkeys(FUNCTIONS, 0.0)
        self.match_modes = {"greedy": 0, "exhaustive": 0}
        self.match_hits = 0
        self.match_rules = {}
        self._restore = []

    # --- wrapping ----------------------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "seqprove" or name.startswith("seqprove."))]
        for mod, names in LAYERS.items():
            home = sys.modules[f"seqprove.{mod}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{mod}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._restore.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._restore):
            setattr(m, attr, original)
        self._restore.clear()

    def _wrap(self, key: str, fn):
        stack, depth = self._stack, self._depth
        observe = self._observe_match if key == _MATCH else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            depth[key] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                depth[key] -= 1
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[key] += 1
                self.self_time[key] += duration - frame[1]
                if depth[key] == 0:
                    self.total[key] += duration
                self.spans.append((span_id, key, start, end, parent, self.op))
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _observe_match(self, args, kwargs, result):
        mode = args[2] if len(args) > 2 else kwargs.get("mode", "greedy")
        self.match_modes[mode] = self.match_modes.get(mode, 0) + 1
        self.match_hits += bool(result)
        rule = args[0].name
        self.match_rules[rule] = self.match_rules.get(rule, 0) + 1

    # --- results -------------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics: name -> (value, unit)."""
        out = {}
        for key in FUNCTIONS:
            out[f"{key}.calls"] = (self.calls[key], "count")
            out[f"{key}.total_s"] = (self.total[key], "s")
            out[f"{key}.self_s"] = (self.self_time[key], "s")
        for mode, n in self.match_modes.items():
            out[f"{_MATCH}.{mode}.calls"] = (n, "count")
        calls = self.calls[_MATCH]
        out[f"{_MATCH}.hit_ratio"] = (self.match_hits / calls if calls else 0.0, "ratio")
        for rule in RULES:
            out[metric_name(f"{_MATCH}.calls.{rule}")] = (self.match_rules.get(rule, 0), "count")
        return out

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "function", "start_s", "end_s", "parent", "op"],
                       "spans": self.spans}, fh)
