"""Spans and counts around pabr's public functions, installed from outside.

`Tracer.install` replaces each listed function, in every loaded `pabr`
module that holds it (modules import each other's functions by name), with
a wrapper that records a span (name, start, end, parent span, op id) and
bumps the counters for that boundary; `uninstall` puts the originals back.
Spans stay in memory until the run ends. A span's self time is its
duration minus that of its direct children; calls are nested and
single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _count_to_cnf(counts, args, kwargs, result):
    counts["logic.cnf_clauses"] += len(result)


def _count_compile(counts, args, kwargs, result):
    counts["consequence.carc_clauses"] += len(result.carc)
    if result.pi is not None:
        counts["consequence.pi_clauses"] += len(result.pi)


def _count_produce(counts, args, kwargs, result):
    counts["consequence.produce_calls"] += 1


def _count_mqs(counts, args, kwargs, result):
    counts["support.mqs_terms"] += len(result.mqs)
    counts["support.mc_terms"] += len(result.mc)


def _count_evaluate(counts, args, kwargs, result):
    sets = args[0]
    counts["probability.union_terms"] += len(set(sets.mqs) | set(sets.mc)) + len(sets.mc)


def _count_fragments(counts, args, kwargs, result):
    counts["probability.sdp_fragments"] += len(result)


# (module, function, layer metric its self time adds to, counter)
WRAPPED = (
    ("kbfile", "parse_kb_file", "kbfile.parse_s", None),
    ("kbfile", "build_kb", "kbfile.parse_s", None),
    ("logic", "parse_formula", "logic.parse_formula_s", None),
    ("logic", "to_cnf", "logic.to_cnf_s", _count_to_cnf),
    ("consequence", "compile_clauses", "consequence.compile_clauses_s", _count_compile),
    ("consequence", "produce", "consequence.produce_s", _count_produce),
    ("consequence", "pi_add", "consequence.pi_add_s", None),
    ("consequence", "extend", "consequence.extend_s", None),
    ("consequence", "read_snapshot", "consequence.read_snapshot_s", None),
    ("consequence", "write_snapshot", "consequence.write_snapshot_s", None),
    ("support", "minimal_quasi_supports", "support.minimal_quasi_supports_s", _count_mqs),
    ("support", "compiled_mqs", "support.compiled_mqs_s", None),
    ("probability", "evaluate", "probability.evaluate_s", _count_evaluate),
    ("probability", "inclusion_exclusion", "probability.inclusion_exclusion_s", None),
    ("probability", "disjoint_products", "probability.disjoint_products_s", _count_fragments),
    ("oracle", "build_hint", "oracle.build_hint_s", None),
    ("oracle", "oracle_support", "oracle.oracle_support_s", None),
)
ROOT = "cli"  # the op span: cli.main, whose self time is argparse, glue and JSON
ROOT_METRIC = "cli.self_s"
COUNTS = (
    "logic.cnf_clauses",
    "consequence.produce_calls",
    "consequence.carc_clauses",
    "consequence.pi_clauses",
    "support.mqs_terms",
    "support.mc_terms",
    "probability.union_terms",
    "probability.sdp_fragments",
    "probability.auto_choice.inclusion_exclusion",
    "probability.auto_choice.disjoint_products",
)
# The union routines are named after the methods `auto` chooses between.
AUTO_CHOICE_SPANS = (
    "probability.evaluate",
    "probability.inclusion_exclusion",
    "probability.disjoint_products",
)
TIMES = tuple(dict.fromkeys([ROOT_METRIC] + [metric for *_, metric, _ in WRAPPED]))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self.auto_pending: set[int] = set()  # auto evaluate spans not yet attributed
        self.patches: list[tuple] = []  # (module, attribute, original, wrapper)

    def _note_auto_choice(self, name: str, args, kwargs) -> None:
        """Count the method an `auto` evaluate picks, when it starts using it.

        Counting on entry to the union routine, not on return from evaluate,
        keeps the choices whose computation the budget then stops.
        """
        if name == "probability.evaluate":
            if kwargs.get("method", args[2] if len(args) > 2 else "auto") == "auto":
                self.auto_pending.add(len(self.spans) - 1)
            return
        for index in reversed(self.stack[:-1]):
            if self.spans[index][0] == "probability.evaluate":
                if index in self.auto_pending:
                    self.auto_pending.discard(index)
                    self.counts[f"probability.auto_choice.{name.split('.')[1]}"] += 1
                return

    def wrap(self, name: str, fn, count=None):
        note_choice = name in AUTO_CHOICE_SPANS

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, perf_counter(), None, self.stack[-1] if self.stack else -1, self.op_id]
            self.spans.append(span)
            self.stack.append(index)
            if note_choice:
                self._note_auto_choice(name, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span[2] = perf_counter()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if not self.patches:
            modules = [m for name, m in sys.modules.items() if name == "pabr" or name.startswith("pabr.")]
            for module_name, fn_name, _, count in WRAPPED:
                original = getattr(sys.modules[f"pabr.{module_name}"], fn_name)
                wrapper = self.wrap(f"{module_name}.{fn_name}", original, count)
                for module in modules:
                    for attr, value in vars(module).items():
                        if value is original:
                            self.patches.append((module, attr, original, wrapper))
        for module, attr, _, wrapper in self.patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self.patches:
            setattr(module, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Summed self time per layer metric, plus the counters."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        metric_of = {f"{m}.{f}": metric for m, f, metric, _ in WRAPPED}
        metric_of[ROOT] = ROOT_METRIC
        totals = {metric: 0.0 for metric in TIMES}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            if name in metric_of:
                totals[metric_of[name]] += end - start - child_time[index]
        totals.update({name: self.counts[name] for name in COUNTS})
        return totals

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
