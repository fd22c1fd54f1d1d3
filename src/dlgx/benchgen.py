"""Synthetic benchmark scenarios and a small timing harness.

Two scenario families:

* ``psc``: persons and companies with random control edges; recursive
  rules derive who ultimately controls each company (directly or through
  a chain of companies), and an existential rule files each such
  relationship under an anonymous intermediary so the chase has nulls to
  manage.  Company chains are capped at groups of four, which keeps the
  derived instance linear in the entity counts.
* ``doctors-like``: source relations about patients and doctors mapped
  into target relations through rules whose hospital ids are unknown
  (existential), plus seven stock queries of varying join depth.

Both generators verify the emitted program with the fragment classifier
and refuse to hand out anything that is not protected.  Fact output is a
pure function of the scenario parameters, so repeated generation is
byte-identical.
"""
from __future__ import annotations

import csv
import random
import statistics
import time
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Optional, Sequence

from .analysis import analyze
from .chase import ChaseVariant, run_chase
from .model import Atom, Program, Query, Rule, Variable
from .parser import print_program, print_query
from .query import evaluate_query

SCENARIO_NAMES = ("psc", "doctors-like")


class GeneratorConstraintViolation(Exception):
    """A generated program failed its own classifier contract."""


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    persons: int = 0
    companies: int = 0
    patients: int = 0
    doctors: int = 0
    seed: int = 0
    density: float = 0.5

    def __post_init__(self) -> None:
        if self.name not in SCENARIO_NAMES:
            raise ValueError(f"unknown scenario {self.name!r}")
        if self.name == "psc":
            if self.persons < 1 or self.companies < 1:
                raise ValueError("psc needs persons >= 1 and companies >= 1")
        else:
            if self.patients < 1 or self.doctors < 1:
                raise ValueError("doctors-like needs patients >= 1 and doctors >= 1")
        if not 0 < self.density <= 1:
            raise ValueError("density must be in (0, 1]")

    @property
    def primary_count(self) -> int:
        """The scale axis reported in benchmark rows."""
        return self.persons if self.name == "psc" else self.patients


@dataclass(frozen=True)
class Scenario:
    spec: ScenarioSpec
    program: Program
    queries: tuple[Query, ...]


def _require_protected(program: Program, name: str) -> None:
    report = analyze(program)
    if not report.verdicts.protected:
        raise GeneratorConstraintViolation(
            f"scenario {name} emitted a non-protected program: "
            + "; ".join(v.explanation for v in report.verdicts.violations)
        )


def _psc_rules() -> tuple[Rule, ...]:
    p, c, x, y, z, n, d = map(Variable, "PCXYZND")
    return (
        Rule.make(0, [Atom("controls", [x, y])], [Atom("ctrl", [x, y])]),
        Rule.make(
            1,
            [Atom("ctrl", [x, y]), Atom("controls", [y, z])],
            [Atom("ctrl", [x, z])],
        ),
        Rule.make(
            2,
            [Atom("ctrl", [p, c]), Atom("person", [p]), Atom("company", [c])],
            [Atom("psc", [p, c])],
        ),
        # every control relationship is filed by an anonymous intermediary
        Rule.make(3, [Atom("psc", [p, c])], [Atom("filing", [p, n, c])]),
        Rule.make(
            4,
            [Atom("filing", [p, n, c]), Atom("controls", [c, d])],
            [Atom("filing", [p, n, d])],
        ),
    )


_PSC_GROUP = 4  # company chains never cross group boundaries


def generate_psc(spec: ScenarioSpec) -> Scenario:
    """Random control graph plus the recursive/existential psc rules."""
    if spec.name != "psc":
        raise ValueError("spec is not a psc spec")
    rng = random.Random(spec.seed)
    facts: list[Atom] = []
    for j in range(spec.companies):
        facts.append(Atom("company", [f"c{j}"]))
    for i in range(spec.persons):
        facts.append(Atom("person", [f"p{i}"]))
    # company-to-company chains, capped at groups of _PSC_GROUP
    for j in range(spec.companies - 1):
        if j % _PSC_GROUP != _PSC_GROUP - 1 and rng.random() < spec.density:
            facts.append(Atom("controls", [f"c{j}", f"c{j + 1}"]))
    # person-to-company edges
    for i in range(spec.persons):
        if rng.random() < spec.density:
            j = rng.randrange(spec.companies)
            facts.append(Atom("controls", [f"p{i}", f"c{j}"]))
    program = Program(rules=_psc_rules(), facts=tuple(facts))
    _require_protected(program, spec.name)
    p, c = Variable("P"), Variable("C")
    queries = (Query(atoms=(Atom("psc", [p, c]),), output_vars=("P", "C")),)
    return Scenario(spec=spec, program=program, queries=queries)


def _doctors_rules() -> tuple[Rule, ...]:
    p, d, h, s = map(Variable, "PDHS")
    return (
        # each treatment happened at some unknown hospital
        Rule.make(0, [Atom("treated", [p, d])], [Atom("case_at", [p, d, h])]),
        Rule.make(1, [Atom("case_at", [p, d, h])], [Atom("works_at", [d, h])]),
        Rule.make(2, [Atom("case_at", [p, d, h])], [Atom("admitted", [p, h])]),
        Rule.make(
            3,
            [Atom("works_at", [d, h]), Atom("specialty", [d, s])],
            [Atom("offers", [h, s])],
        ),
        Rule.make(
            4,
            [Atom("treated", [p, d]), Atom("specialty", [d, s])],
            [Atom("treated_under", [p, s])],
        ),
    )


_SPECIALTIES = ("cardio", "derm", "neuro", "ortho", "peds")


def generate_doctors_like(spec: ScenarioSpec) -> Scenario:
    """Source patient/doctor relations mapped through unknown hospitals."""
    if spec.name != "doctors-like":
        raise ValueError("spec is not a doctors-like spec")
    rng = random.Random(spec.seed)
    facts: list[Atom] = []
    for j in range(spec.doctors):
        facts.append(Atom("doctor", [f"d{j}"]))
        facts.append(
            Atom("specialty", [f"d{j}", _SPECIALTIES[j % 5]])
        )
    for i in range(spec.patients):
        facts.append(Atom("patient", [f"p{i}"]))
        facts.append(Atom("treated", [f"p{i}", f"d{i % spec.doctors}"]))
        if rng.random() < spec.density and spec.doctors > 1:
            facts.append(
                Atom(
                    "treated",
                    [f"p{i}", f"d{rng.randrange(spec.doctors)}"],
                )
            )
    program = Program(rules=_doctors_rules(), facts=tuple(dict.fromkeys(facts)))
    _require_protected(program, spec.name)
    p, d, h, s = map(Variable, "PDHS")
    queries = (
        Query(atoms=(Atom("works_at", [d, h]),)),
        Query(atoms=(Atom("admitted", [p, h]),)),
        Query(atoms=(Atom("offers", [h, s]),)),
        Query(atoms=(Atom("works_at", [d, h]), Atom("offers", [h, s]))),
        Query(atoms=(Atom("case_at", [p, d, h]), Atom("works_at", [d, h]))),
        Query(atoms=(Atom("admitted", [p, h]), Atom("offers", [h, s]))),
        Query(
            atoms=(
                Atom("treated", [p, d]),
                Atom("case_at", [p, d, h]),
                Atom("offers", [h, s]),
            )
        ),
    )
    return Scenario(spec=spec, program=program, queries=queries)


def generate_scenario(spec: ScenarioSpec) -> Scenario:
    return generate_psc(spec) if spec.name == "psc" else generate_doctors_like(spec)


@dataclass(frozen=True)
class BenchResult:
    spec: ScenarioSpec
    variant: str
    wall_ms: int
    facts: int
    answers: int
    status: str

    def to_row(self) -> tuple[str, int, str, int, int]:
        return (self.spec.name, self.spec.primary_count, self.variant, self.wall_ms, self.facts)

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.spec.name,
            "scale": self.spec.primary_count,
            "variant": self.variant,
            "ms": self.wall_ms,
            "facts": self.facts,
            "answers": self.answers,
            "status": self.status,
        }


def _time_variant(
    scenario: Scenario, variant: ChaseVariant, max_steps: Optional[int]
) -> tuple[float, int, int, str]:
    """One timed run: chase to completion, then answer the stock queries."""
    start = time.monotonic()
    run = run_chase(scenario.program, variant, max_steps=max_steps)
    answers = 0
    for q in scenario.queries:
        ans = evaluate_query(q, run.result)
        answers += len(ans.tuples) if q.output_vars else int(ans.verdict)
    elapsed = (time.monotonic() - start) * 1000.0
    return elapsed, len(run.result), answers, run.status


def run_bench(
    scenario: Scenario,
    variants: Sequence[ChaseVariant],
    repetitions: int = 3,
    max_steps: Optional[int] = None,
) -> list[BenchResult]:
    """Median-of-repetitions timings, one result per variant.

    Timing covers chase plus query answering; scenario generation and
    parsing are outside the clock.  Errors propagate, such as the
    ValueError of a negative ``max_steps``.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    results: list[BenchResult] = []
    for variant in variants:
        samples = []
        for _ in range(repetitions):
            samples.append(_time_variant(scenario, variant, max_steps))
        ms = int(round(statistics.median(s[0] for s in samples)))
        _, facts, answers, status = samples[-1]
        results.append(
            BenchResult(scenario.spec, str(variant), ms, facts, answers, status)
        )
    return results


def write_scenario(scenario: Scenario, out_dir: str | Path) -> dict[str, Path]:
    """Write program, per-predicate fact CSVs, and query files.

    Returns a name -> path map.  Output depends only on the scenario, so
    rewriting with the same spec is byte-identical.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    rules_only = Program(rules=scenario.program.rules, facts=())
    program_path = out / f"{scenario.spec.name}.dlgx"
    program_path.write_text(print_program(rules_only), encoding="utf-8")
    written["program"] = program_path

    # the sort is stable, so each file keeps its facts in program order
    predicate = attrgetter("predicate")
    for pred, facts in groupby(sorted(scenario.program.facts, key=predicate), key=predicate):
        fact_path = out / f"{pred}.csv"
        with open(fact_path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(fact.terms for fact in facts)
        written[f"facts:{pred}"] = fact_path
    for i, query in enumerate(scenario.queries, start=1):
        query_path = out / f"q{i}.query"
        query_path.write_text(print_query(query), encoding="utf-8")
        written[f"query:{i}"] = query_path
    return written
