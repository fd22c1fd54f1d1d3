"""Conjunctive query evaluation over chase results, and the differential
harness that makes the chase-equivalence properties executable.

A query (``dlgx.model.Query``) with no output variables is Boolean: true
iff its atoms map homomorphically into the instance (variables may bind
to nulls); with output variables it returns the sorted projected bindings.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Collection, Optional

from .analysis import AnalysisReport, analyze, harmful_joins
from .chase import (
    FIXPOINT,
    ChaseRun,
    ChaseVariant,
    compile_body,
    ichase,
    oblivious,
    pchase_r,
    run_chase,
)
from .model import (
    Atom,
    Instance,
    Program,
    Query,
    Term,
    format_term,
    term_sort_key,
)


@dataclass
class Answer:
    verdict: bool
    witness: Optional[dict[str, Term]] = None
    tuples: Optional[list[tuple[Term, ...]]] = None
    variant: Optional[str] = None
    chase_steps: Optional[int] = None
    chase_status: Optional[str] = None
    resumptions_used: Optional[int] = None
    warnings: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": (
                {name: format_term(t) for name, t in sorted(self.witness.items())}
                if self.witness is not None
                else None
            ),
            "tuples": (
                [[format_term(x) for x in t] for t in self.tuples]
                if self.tuples is not None
                else None
            ),
            "variant": self.variant,
            "chase": (
                {
                    "steps": self.chase_steps,
                    "status": self.chase_status,
                    "resumptionsUsed": self.resumptions_used,
                }
                if self.chase_status is not None
                else None
            ),
            "warnings": self.warnings,
        }


def evaluate_query(query: Query, instance: Instance) -> Answer:
    """Evaluate against a fixed instance.

    A query predicate with no fact makes the query false, with no warning:
    only :func:`dlgx.parser.parse_query` warns, into its ``diagnostics``.
    """
    plan = compile_body(query.atoms)
    if query.is_boolean:
        found = plan.evaluate(instance, limit=1)
        if not found:
            return Answer(verdict=False)
        return Answer(verdict=True, witness=dict(zip(plan.slots, found.pop())))
    # stable sorts from the last column to the first leave the rows in term
    # order, column by column; a column of constants sorts as plain str,
    # and only a column that holds a null needs a term_sort_key per row
    rows = list(plan.evaluate(instance, query.output_vars))
    if len(rows) > 1:
        for i in reversed(range(len(query.output_vars))):
            column = itemgetter(i)
            if all(term.__class__ is str for term in map(column, rows)):
                rows.sort(key=column)
            else:
                rows.sort(key=lambda row: term_sort_key(row[i]))
    return Answer(verdict=bool(rows), tuples=rows)


def default_resumptions(query: Query) -> int:
    """Resumption budget of the differential harness: one epoch per query atom."""
    return len(query.atoms)


CHAIN_WARNING = (
    "ichase without resumptions can miss answers when the program or the "
    "query joins on nulls: its renaming blocker folds parallel null chains; "
    "check with `dlgx diff` or --variant pchase-r --resumptions {k}"
)
DIFF_BUDGET = 10_000  # per-variant step budget of the differential harness


def answer_with_variant(
    program: Program,
    query: Query,
    variant: ChaseVariant,
    *,
    max_steps: Optional[int] = None,
    trace: bool = False,
) -> tuple[Answer, ChaseRun]:
    """Chase, then answer.

    A Boolean query is checked after every level, on the matches that use
    a fact the level added (the query is compiled like a rule body), and
    the run stops with status ``query-satisfied`` at the first level where
    it holds, and answers false if it reaches a fixpoint.  An answer-set
    query chases to a fixpoint or to the step budget.  Every other answer,
    with its witness or its rows, comes from evaluating the query once on
    the instance the run ended with.

    A false answer from plain ichase carries :data:`CHAIN_WARNING`, which
    suggests one resumption per query atom, when the program or the
    query has a harmful join (see :func:`dlgx.analysis.harmful_joins`).
    """
    on_level = None  # an answer-set query chases to the end
    if query.is_boolean:
        plan = compile_body(query.atoms)
        predicates = {a.predicate for a in query.atoms}

        def on_level(instance: Instance, new_facts: dict[str, Collection[Atom]]) -> bool:
            # no match while a query predicate has no fact; once the last
            # one gets facts, every match uses one of them
            if not all(instance.facts_for(p) for p in predicates):
                return False
            return bool(plan.matches(instance, new_facts, limit=1))

    run = run_chase(program, variant, max_steps=max_steps, trace=trace, on_level=on_level)
    if query.is_boolean and run.status == FIXPOINT:
        answer = Answer(verdict=False)
    else:
        answer = evaluate_query(query, run.result)
    if (
        not answer.verdict
        and variant == ichase()
        and harmful_joins(program, query)
    ):
        answer.warnings.append(CHAIN_WARNING.format(k=default_resumptions(query)))
    answer.variant = str(variant)
    answer.chase_steps = run.fired_steps
    answer.chase_status = run.status
    answer.resumptions_used = run.resumptions_used
    return answer, run


# ---------------------------------------------------------------------------
# Differential Boolean query answering


@dataclass
class AssertionResult:
    name: str
    result: str  # "holds" | "violated" | "skipped"
    detail: str


@dataclass
class DifferentialReport:
    analysis: AnalysisReport
    answers: dict[str, Answer]
    assertions: list[AssertionResult]
    status: str  # "agreement" | "disagreement" | "inconclusive"
    notes: list[str]
    runs: dict[str, ChaseRun] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "fragments": {
                "shy": self.analysis.verdicts.shy,
                "warded": self.analysis.verdicts.warded,
                "protected": self.analysis.verdicts.protected,
            },
            "answers": {
                name: {"verdict": a.verdict, "status": a.chase_status}
                for name, a in sorted(self.answers.items())
            },
            "assertions": [
                {"name": a.name, "result": a.result, "detail": a.detail}
                for a in self.assertions
            ],
            "status": self.status,
            "notes": self.notes,
        }


def _known_verdict(answer: Answer) -> Optional[bool]:
    """A true answer is known however the run ended: a run stopped once
    the query held (``query-satisfied``) or cut short by the step budget
    only has fewer facts than the full chase, and adding facts never
    retracts a match.  A false answer needs a fixpoint."""
    if answer.verdict:
        return True
    if answer.chase_status == FIXPOINT:
        return False
    return None


def differential_bcqa(
    program: Program,
    query: Query,
    *,
    budget: int = DIFF_BUDGET,
    resumptions: Optional[int] = None,
) -> DifferentialReport:
    """Answer the query under pchase-r and ichase, each with ``resumptions``
    epochs (default: one per query atom), with a budgeted oblivious run
    as oracle, and check every equivalence that applies to the fragment
    the program belongs to:

      protected          pchase-r and ichase must agree,
      shy + oracle       oblivious and pchase-r must agree,
      warded + oracle    oblivious and ichase must agree.

    Each answer comes from :func:`answer_with_variant`, so a run stops at
    the first level where the query holds, with status
    ``query-satisfied``.  A check still applies when a run was truncated
    while already true (extending a chase never retracts an answer).
    """
    report = analyze(program)
    k = default_resumptions(query) if resumptions is None else resumptions
    pr_answer, pr_run = answer_with_variant(
        program, query, pchase_r(k), max_steps=budget
    )
    ic_answer, ic_run = answer_with_variant(program, query, ichase(k), max_steps=budget)
    ob_answer, ob_run = answer_with_variant(program, query, oblivious(), max_steps=budget)
    answers = {"pchase-r": pr_answer, "ichase": ic_answer, "oblivious": ob_answer}
    runs = {"pchase-r": pr_run, "ichase": ic_run, "oblivious": ob_run}

    notes: list[str] = []
    if not report.verdicts.protected:
        notes.append("program is not protected: pchase-r/ichase agreement is not required")
    checks: list[tuple[str, str, str]] = []
    if report.verdicts.protected:
        checks.append(("protected: pchase-r == ichase", "pchase-r", "ichase"))
    if report.verdicts.shy:
        checks.append(("shy: oblivious == pchase-r", "oblivious", "pchase-r"))
    if report.verdicts.warded:
        checks.append(("warded: oblivious == ichase", "oblivious", "ichase"))

    assertions: list[AssertionResult] = []
    for name, left, right in checks:
        lv = _known_verdict(answers[left])
        rv = _known_verdict(answers[right])
        if lv is None or rv is None:
            which = left if lv is None else right
            assertions.append(
                AssertionResult(name, "skipped", f"{which} hit the step budget while false")
            )
        elif lv == rv:
            assertions.append(AssertionResult(name, "holds", f"both {lv}"))
        else:
            assertions.append(
                AssertionResult(name, "violated", f"{left}={lv} but {right}={rv}")
            )

    if any(a.result == "violated" for a in assertions):
        status = "disagreement"
    elif any(a.result == "holds" for a in assertions):
        status = "agreement"
    else:
        status = "inconclusive"
        if not checks:
            notes.append("no equivalence applies: program is neither shy nor warded")
    return DifferentialReport(
        analysis=report,
        answers=answers,
        assertions=assertions,
        status=status,
        notes=notes,
        runs=runs,
    )
