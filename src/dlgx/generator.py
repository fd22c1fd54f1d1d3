"""Seeded random programs and queries for the property suites.

Programs are assembled from small rule motifs with known fragment
behavior (plus neutral decoration rules and a random database), so a
stream of seeds covers all four classifier outcomes: protected,
shy-but-not-warded, warded-but-not-shy, and neither.  Decoration rules
only ever write to fresh predicates, which keeps them from flipping the
class the motif establishes.  Everything is a pure function of the seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .analysis import AnalysisReport
from .model import Atom, Program, Query, Rule, Term, Variable


@dataclass(frozen=True)
class GeneratorProfile:
    max_decorations: int = 2
    max_facts: int = 12
    constant_pool: tuple[str, ...] = ("a", "b", "c", "d", "e")
    # weights for: protected, shy-not-warded, warded-not-shy, neither
    motif_weights: tuple[float, float, float, float] = (0.34, 0.24, 0.24, 0.18)


DEFAULT_PROFILE = GeneratorProfile()


def _atom(pred: str, names: Sequence[str]) -> Atom:
    terms: list[Term] = []
    for n in names:
        terms.append(Variable(n) if n[0].isupper() else n)
    return Atom(pred, terms)


class _Names:
    """Fresh predicate names, one namespace per program."""

    def __init__(self) -> None:
        self.count = 0

    def fresh(self, prefix: str) -> str:
        self.count += 1
        return f"{prefix}{self.count}"


RuleSketch = tuple[list[Atom], list[Atom]]


def _motif_shy_not_warded(names: _Names) -> list[RuleSketch]:
    e1, e2, i1, i2, i3 = (names.fresh(p) for p in ("src", "src", "mid", "mid", "out"))
    return [
        ([_atom(e1, ["X"])], [_atom(i1, ["X", "Y"])]),
        ([_atom(e2, ["X"])], [_atom(i2, ["Z", "X"])]),
        (
            [_atom(i1, ["X", "Y"]), _atom(i2, ["Z", "X"])],
            [_atom(i3, ["X", "Y", "Z"])],
        ),
    ]


def _motif_warded_not_shy(names: _Names) -> list[RuleSketch]:
    e1, i1, i2 = (names.fresh(p) for p in ("src", "mid", "out"))
    return [
        ([_atom(e1, ["X"])], [_atom(i1, ["X", "Y"])]),
        ([_atom(i1, ["X", "Y"]), _atom(i1, ["Z", "Y"])], [_atom(i2, ["X", "Z"])]),
    ]


def _motif_neither(names: _Names) -> list[RuleSketch]:
    e1, i1, i2 = (names.fresh(p) for p in ("src", "mid", "out"))
    return [
        ([_atom(e1, ["X"])], [_atom(i1, ["X", "Y"])]),
        ([_atom(i1, ["X", "Y"]), _atom(i1, ["Z", "Y"])], [_atom(i2, ["Y", "Z"])]),
    ]


def _motif_protected(names: _Names, rng: random.Random) -> list[RuleSketch]:
    style = rng.randrange(5)
    if style == 0:  # existential source plus a consumer that keeps the null warded
        e1, i1, i2 = (names.fresh(p) for p in ("src", "mid", "out"))
        return [
            ([_atom(e1, ["X"])], [_atom(i1, ["X", "Y"])]),
            ([_atom(i1, ["X", "Y"])], [_atom(i2, ["Y"])]),
        ]
    if style == 1:  # recursive null chain, still warded and shy
        e1, i1 = (names.fresh(p) for p in ("src", "mid"))
        return [
            ([_atom(e1, ["X"])], [_atom(i1, ["X", "Y"])]),
            ([_atom(i1, ["X", "Y"])], [_atom(i1, ["Y", "Z"])]),
        ]
    if style == 2:  # conjunctive head sharing one null
        e1, i1, i2 = (names.fresh(p) for p in ("src", "mid", "mid"))
        return [
            ([_atom(e1, ["X"])], [_atom(i1, ["X", "Y"]), _atom(i2, ["Y", "X"])]),
        ]
    if style == 3:  # plain Datalog transitive closure
        e1, i1 = (names.fresh(p) for p in ("edge", "path"))
        return [
            ([_atom(e1, ["X", "Y"])], [_atom(i1, ["X", "Y"])]),
            ([_atom(i1, ["X", "Y"]), _atom(e1, ["Y", "Z"])], [_atom(i1, ["X", "Z"])]),
        ]
    # two sources joined on their harmless positions, nulls not propagated
    e1, e2, i1, i2, i3 = (names.fresh(p) for p in ("src", "src", "mid", "mid", "out"))
    return [
        ([_atom(e1, ["X"])], [_atom(i1, ["X", "Y"])]),
        ([_atom(e2, ["X"])], [_atom(i2, ["Z", "X"])]),
        ([_atom(i1, ["X", "Y"]), _atom(i2, ["Z", "X"])], [_atom(i3, ["X"])]),
    ]


def _decorations(
    sketches: list[RuleSketch],
    names: _Names,
    rng: random.Random,
    profile: GeneratorProfile,
) -> list[RuleSketch]:
    """Rules that read existing predicates but write fresh ones only."""
    head_preds = [a.predicate for _, heads in sketches for a in heads]
    body_only = [
        a.predicate
        for body, _ in sketches
        for a in body
        if a.predicate not in head_preds
    ]
    arity = {
        a.predicate: a.arity for body, heads in sketches for a in body + heads
    }
    out: list[RuleSketch] = []
    for _ in range(rng.randrange(profile.max_decorations + 1)):
        kind = rng.randrange(3)
        if kind == 0 and head_preds:  # consume a derived predicate
            src = rng.choice(head_preds)
            vs = [f"V{i}" for i in range(arity[src])]
            keep = rng.choice(vs)
            out.append(([_atom(src, vs)], [_atom(names.fresh("aux"), [keep])]))
        elif kind == 1 and body_only:  # copy a database predicate
            src = rng.choice(body_only)
            vs = [f"V{i}" for i in range(arity[src])]
            out.append(([_atom(src, vs)], [_atom(names.fresh("aux"), vs)]))
        elif body_only:  # join two database predicates on a shared variable
            s1 = rng.choice(body_only)
            s2 = rng.choice(body_only)
            vs1 = [f"V{i}" for i in range(arity[s1])]
            vs2 = [f"W{i}" for i in range(arity[s2])]
            vs2[rng.randrange(len(vs2))] = rng.choice(vs1)
            out.append(
                ([_atom(s1, vs1), _atom(s2, vs2)], [_atom(names.fresh("aux"), [vs1[0]])])
            )
    return out


def generate_random_program(
    seed: int, profile: GeneratorProfile = DEFAULT_PROFILE
) -> Program:
    """Deterministic random program: motif + decorations + small database."""
    rng = random.Random(seed)
    names = _Names()
    roll = rng.random()
    w = profile.motif_weights
    total = sum(w)
    if roll < w[0] / total:
        sketches = _motif_protected(names, rng)
    elif roll < (w[0] + w[1]) / total:
        sketches = _motif_shy_not_warded(names)
    elif roll < (w[0] + w[1] + w[2]) / total:
        sketches = _motif_warded_not_shy(names)
    else:
        sketches = _motif_neither(names)
        if rng.random() < 0.3:  # the other way to be neither: mix violations
            sketches = _motif_shy_not_warded(names) + _motif_warded_not_shy(names)
    sketches = sketches + _decorations(sketches, names, rng, profile)

    rules = [Rule.make(i, body, head) for i, (body, head) in enumerate(sketches)]

    head_preds = {a.predicate for r in rules for a in r.head}
    edb = []
    seen = set()
    for r in rules:
        for a in r.body:
            if a.predicate not in head_preds and a.predicate not in seen:
                seen.add(a.predicate)
                edb.append((a.predicate, a.arity))
    facts: list[Atom] = []
    budget = profile.max_facts
    for pred, arity in edb:
        count = min(rng.randint(1, 3), max(1, budget))
        for _ in range(count):
            row = [rng.choice(profile.constant_pool) for _ in range(arity)]
            fact = Atom(pred, row)
            if fact not in facts:
                facts.append(fact)
        budget -= count
        if budget <= 0:
            break
    return Program(rules=tuple(rules), facts=tuple(facts))


def generate_random_query(program: Program, seed: int, max_atoms: int = 3) -> Query:
    """A 1..max_atoms conjunctive query over the program's schema,
    biased toward derived predicates, with chained variable sharing."""
    rng = random.Random(seed)
    schema = program.schema
    head_preds = sorted({a.predicate for r in program.rules for a in r.head})
    all_preds = sorted(schema)
    pool = head_preds * 3 + all_preds if head_preds else all_preds
    n = rng.randint(1, max_atoms)
    constants = sorted({t for f in program.facts for t in f.terms})
    atoms: list[Atom] = []
    var_count = 0
    link: Optional[str] = None
    for _ in range(n):
        pred = rng.choice(pool)
        arity = schema[pred]
        terms: list[str] = []
        for _ in range(arity):
            if constants and rng.random() < 0.15:
                terms.append(rng.choice(constants))
            else:
                var_count += 1
                terms.append(f"Q{var_count}")
        if link is not None and not all(t[0].islower() for t in terms):
            slots = [i for i, t in enumerate(terms) if t[0].isupper()]
            terms[rng.choice(slots)] = link
        upper = [t for t in terms if t[0].isupper()]
        if upper:
            link = rng.choice(upper)
        atoms.append(_atom(pred, terms))
    return Query(atoms=tuple(atoms))


def classify_outcome(report: AnalysisReport) -> str:
    """The four-way partition used by the coverage quotas."""
    shy, warded = report.verdicts.shy, report.verdicts.warded
    if shy and warded:
        return "protected"
    if shy:
        return "shy-only"
    if warded:
        return "warded-only"
    return "neither"
