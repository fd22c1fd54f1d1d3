"""Spans and counts at dlgx's layer boundaries, recorded from outside.

The tracer replaces module-level names that the layers call through their
module namespace (``dlgx.chase._level_triggers``, ``dlgx.query.run_chase``
and so on) with wrappers, and puts the originals back afterwards.  Each
wrapped call records a span (name, start, end, parent, chase variant) in
memory; ``Instance.candidates`` and ``Instance.add`` only count.  Self
time is a span's time minus its children's.  A boundary that no longer
exists, or returns something the tracer cannot read, is reported as
missing and its metrics read 0.

Spans are timed on the process CPU clock, like the end-to-end metrics.
"""
from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Optional

clock = time.process_time_ns

# (module, attribute path, span name).  A function is wrapped once per
# module that calls it, because ``from .chase import run_chase`` binds a
# second name in ``dlgx.query``.
SPANS = (
    ("dlgx.parser", "parse_program", "parser.parse"),
    ("dlgx.analysis", "analyze", "analysis.analyze"),
    ("dlgx.query", "analyze", "analysis.analyze"),
    ("dlgx.chase", "run_chase", "chase.run"),
    ("dlgx.query", "run_chase", "chase.run"),
    ("dlgx.chase", "_level_triggers", "chase.enumerate"),
    ("dlgx.chase", "exists_homomorphism", "chase.block"),
    ("dlgx.chase", "exists_isomorphic_embedding", "chase.block"),
    ("dlgx.chase", "fire_trigger", "chase.fire"),
    ("dlgx.chase", "freeze_nulls", "model.freeze"),
    ("dlgx.model", "Instance.from_facts", "model.load"),
    ("dlgx.query", "evaluate_query", "query.evaluate"),
    ("dlgx.query", "answer_with_variant", "query.answer"),
    ("dlgx.query", "differential_bcqa", "query.differential"),
)
COUNTED = (("dlgx.model", "Instance.candidates"), ("dlgx.model", "Instance.add"))
# spans that set the chase variant for the spans under them, and the
# position of the variant among their arguments
VARIANT_ARG = {"chase.run": 1, "query.answer": 2}

VARIANTS = ("pchase-r", "ichase", "oblivious")
RESUMING = ("pchase-r", "ichase")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.variants: list[str] = [""]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_variant = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        # per (span name, variant): [calls, inclusive ns, self ns]
        self.totals: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0, 0])
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[list[int]] = []  # [span index, child ns]
        self._variant = 0
        self._epoch = 0
        self._undo: list[Callable[[], None]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for module, path, name in SPANS:
            found = self._find(module, path)
            if found is not None:
                owner, attr, raw = found
                self._replace(owner, attr, raw, self._span(name, getattr(owner, attr)))
        for module, path in COUNTED:
            found = self._find(module, path)
            if found is not None:
                owner, attr, raw = found
                self._replace(owner, attr, raw, getattr(self, "_count_" + attr)(raw))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _find(self, module: str, path: str) -> Optional[tuple[Any, str, Any]]:
        """The object holding ``path``, its last name and its raw value."""
        *outer, attr = path.split(".")
        try:
            owner = importlib.import_module(module)
            for name in outer:
                owner = getattr(owner, name)
            return owner, attr, vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module}.{path}")
            return None

    def _replace(self, owner: Any, attr: str, raw: Any, new: Callable) -> None:
        setattr(owner, attr, staticmethod(new) if isinstance(raw, classmethod) else new)
        self._undo.append(lambda: setattr(owner, attr, raw))

    # -- spans -------------------------------------------------------------

    def _span(self, name: str, fn: Callable) -> Callable:
        tracer = self
        on_result = getattr(self, "_on_" + name.replace(".", "_"), None)
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        variant_arg = VARIANT_ARG.get(name)

        def wrapper(*args, **kwargs):
            saved = (tracer._variant, tracer._epoch)
            if variant_arg is not None:
                variant = kwargs.get("variant", args[variant_arg] if len(args) > variant_arg else None)
                tracer._variant = tracer._variant_id(getattr(variant, "kind", "unknown"))
                tracer._epoch = 0
            try:
                index = tracer._open(name_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(index)
                if on_result is not None:
                    try:
                        on_result(result)
                    except (AttributeError, TypeError, ValueError):
                        if f"{name} result" not in tracer.missing:
                            tracer.missing.append(f"{name} result")
                return result
            finally:
                if variant_arg is not None:
                    tracer._variant, tracer._epoch = saved

        return wrapper

    def _variant_id(self, kind: str) -> int:
        if kind not in self.variants:
            self.variants.append(kind)
        return self.variants.index(kind)

    @property
    def variant(self) -> str:
        return self.variants[self._variant]

    def _open(self, name_id: int) -> int:
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_variant.append(self._variant)
        self.span_end.append(0)
        self._stack.append([index, 0])
        self.span_start.append(clock())
        return index

    def _close(self, index: int) -> None:
        end = clock()
        self.span_end[index] = end
        _, child_ns = self._stack.pop()
        spent = end - self.span_start[index]
        total = self.totals[(self.names[self.span_name[index]], self.variants[self.span_variant[index]])]
        total[0] += 1
        total[1] += spent
        total[2] += spent - child_ns
        if self._stack:
            self._stack[-1][1] += spent

    # -- what each boundary counts ----------------------------------------

    def _on_parser_parse(self, program) -> None:
        self.counts["parser.facts_parsed"] += len(program.facts)

    def _on_analysis_analyze(self, report) -> None:
        self.counts["analysis.analyze_calls"] += 1

    def _on_chase_run(self, run) -> None:
        v = self.variant
        self.counts[f"chase.facts.{v}"] += len(run.result)
        self.counts[f"chase.epochs.{v}"] += run.resumptions_used + 1

    def _on_chase_enumerate(self, triggers) -> None:
        self.counts[f"chase.triggers.{self.variant}"] += len(triggers)
        if self._epoch:
            self.counts[f"chase.resume_triggers.{self.variant}"] += len(triggers)

    def _on_chase_block(self, found) -> None:
        self.counts[f"chase.block_checks.{self.variant}"] += 1
        if found is not None and found is not False:
            self.counts[f"chase.blocked.{self.variant}"] += 1

    def _on_chase_fire(self, added) -> None:
        self.counts[f"chase.fired.{self.variant}"] += 1

    def _on_model_freeze(self, instance) -> None:
        self._epoch += 1

    def _on_query_evaluate(self, answer) -> None:
        self.counts["query.evaluate_calls"] += 1
        self.counts["query.rows"] += len(answer.tuples) if answer.tuples is not None else int(answer.verdict)

    def _on_query_answer(self, result) -> None:
        answer, _ = result
        if self.variant == "oblivious":
            self.counts["query.oracle_steps"] += answer.chase_steps
            self.counts["query.oracle_truncated"] += answer.chase_status != "fixpoint"

    def _count_candidates(self, raw: Callable) -> Callable:
        counts = self.counts

        def candidates(instance, predicate, bound):
            rows = raw(instance, predicate, bound)
            counts["model.probes"] += 1
            counts["model.rows_probed"] += len(rows)
            return rows

        return candidates

    def _count_add(self, raw: Callable) -> Callable:
        counts = self.counts

        def add(instance, fact):
            new = raw(instance, fact)
            counts["model.adds"] += 1
            counts["model.adds_new"] += new
            return new

        return add

    # -- results -------------------------------------------------------------

    def _seconds(self, name: str, variant: Optional[str] = None, own: bool = False) -> float:
        column = 2 if own else 1
        return sum(
            t[column] for (n, v), t in self.totals.items() if n == name and variant in (None, v)
        ) / 1e9

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric with its unit, as BENCHMARK.json lists them."""
        c = self.counts
        m: dict[str, tuple[float, str]] = {
            "parser.parse_s": (self._seconds("parser.parse"), "s"),
            "parser.facts_parsed": (c["parser.facts_parsed"], "count"),
            "analysis.analyze_s": (self._seconds("analysis.analyze"), "s"),
            "analysis.analyze_calls": (c["analysis.analyze_calls"], "count"),
            "model.load_s": (self._seconds("model.load"), "s"),
            "model.probes": (c["model.probes"], "count"),
            "model.rows_probed": (c["model.rows_probed"], "count"),
            "model.rows_per_probe": (c["model.rows_probed"] / max(c["model.probes"], 1), "rows/probe"),
            "model.adds": (c["model.adds"], "count"),
            "model.adds_new": (c["model.adds_new"], "count"),
        }
        for v in VARIANTS:
            triggers = c[f"chase.triggers.{v}"]
            m[f"chase.enumerate_s.{v}"] = (self._seconds("chase.enumerate", v), "s")
            m[f"chase.triggers.{v}"] = (triggers, "count")
            m[f"chase.fire_s.{v}"] = (self._seconds("chase.fire", v), "s")
            m[f"chase.fired.{v}"] = (c[f"chase.fired.{v}"], "count")
            m[f"chase.fired_share.{v}"] = (c[f"chase.fired.{v}"] / max(triggers, 1), "ratio")
            m[f"chase.loop_self_s.{v}"] = (self._seconds("chase.run", v, own=True), "s")
            m[f"chase.facts.{v}"] = (c[f"chase.facts.{v}"], "count")
            m[f"query.answer_s.{v}"] = (self._seconds("query.answer", v), "s")
        for v in RESUMING:
            m[f"model.freeze_s.{v}"] = (self._seconds("model.freeze", v), "s")
            m[f"chase.resume_triggers.{v}"] = (c[f"chase.resume_triggers.{v}"], "count")
            m[f"chase.block_s.{v}"] = (self._seconds("chase.block", v), "s")
            m[f"chase.block_checks.{v}"] = (c[f"chase.block_checks.{v}"], "count")
            m[f"chase.blocked.{v}"] = (c[f"chase.blocked.{v}"], "count")
            m[f"chase.epochs.{v}"] = (c[f"chase.epochs.{v}"], "count")
        m["query.evaluate_s"] = (self._seconds("query.evaluate"), "s")
        m["query.evaluate_calls"] = (c["query.evaluate_calls"], "count")
        m["query.rows"] = (c["query.rows"], "count")
        m["query.oracle_steps"] = (c["query.oracle_steps"], "count")
        m["query.oracle_truncated"] = (c["query.oracle_truncated"], "count")
        m["query.differential_self_s"] = (self._seconds("query.differential", own=True), "s")
        return m

    def write(self, path: Path) -> None:
        """All spans as tab-separated lines, in the order they opened."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# missing boundaries: {', '.join(self.missing) or 'none'}\n")
            fh.write("id\tparent\tname\tvariant\tstart_ns\tend_ns\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.variants[self.span_variant[i]] or '-'}\t"
                    f"{self.span_start[i]}\t{self.span_end[i]}\n"
                )
