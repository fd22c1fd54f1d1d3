"""Seeded benchmark inputs, and their answers computed apart from dlgx.

Each scenario is written as ``.dlgx`` text with its facts inline, plus a
batch of queries given as text, output variables and expected answers.
The expected answers come from plain Python over the generated source
facts (reachability over ``controls`` for psc, joins over ``treated`` and
``specialty`` for doctors), never from the engine.

The psc and doctors generators follow the distributions of
``dlgx.benchgen`` (company chains capped at groups of four; one extra
doctor per patient with probability ``density``) but live here, so a
change to the engine's own generators does not change the benchmark's
inputs.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Union

Rows = frozenset  # of tuples of constant symbols
Expected = Union[Rows, bool]

PSC_RULES = """\
ctrl(X, Y) :- controls(X, Y).
ctrl(X, Z) :- ctrl(X, Y), controls(Y, Z).
psc(P, C) :- ctrl(P, C), person(P), company(C).
filing(P, N, C) :- psc(P, C).
filing(P, N, D) :- filing(P, N, C), controls(C, D).
"""

DOCTORS_RULES = """\
case_at(P, D, H) :- treated(P, D).
works_at(D, H) :- case_at(P, D, H).
admitted(P, H) :- case_at(P, D, H).
offers(H, S) :- works_at(D, H), specialty(D, S).
treated_under(P, S) :- treated(P, D), specialty(D, S).
"""

SPECIALTIES = ("cardio", "derm", "neuro", "ortho", "peds")
PSC_GROUP = 4
DENSITY = 0.5


@dataclass(frozen=True)
class QuerySpec:
    """A query as the engine reads it, with the answer it must give.

    ``expected`` is a set of rows of constant symbols for an answer-set
    query (``outputs`` non-empty) and a verdict for a Boolean one.
    """

    text: str
    outputs: tuple[str, ...]
    expected: Expected


@dataclass(frozen=True)
class Scenario:
    name: str
    program_text: str
    facts: int
    queries: tuple[QuerySpec, ...]


def _facts_text(facts: list[tuple[str, ...]]) -> str:
    return "".join(f"{f[0]}({', '.join(f[1:])}).\n" for f in facts)


def psc(persons: int, companies: int, seed: int, point_queries: int) -> Scenario:
    """The psc scenario: who controls which company, directly or through a
    chain of companies, with every control relation filed under a null."""
    rng = random.Random(f"psc:{seed}")
    facts: list[tuple[str, ...]] = [("company", f"c{j}") for j in range(companies)]
    facts += [("person", f"p{i}") for i in range(persons)]
    succ: dict[str, list[str]] = {}
    for j in range(companies - 1):
        if j % PSC_GROUP != PSC_GROUP - 1 and rng.random() < DENSITY:
            succ.setdefault(f"c{j}", []).append(f"c{j + 1}")
    for i in range(persons):
        if rng.random() < DENSITY:
            succ.setdefault(f"p{i}", []).append(f"c{rng.randrange(companies)}")
    facts += [("controls", x, y) for x, ys in succ.items() for y in ys]

    def reach(x: str) -> set[str]:
        seen: set[str] = set()
        stack = list(succ.get(x, ()))
        while stack:
            y = stack.pop()
            if y not in seen:
                seen.add(y)
                stack.extend(succ.get(y, ()))
        return seen

    # every person reaches only companies, so psc is reachability from persons
    owned = {f"p{i}": reach(f"p{i}") for i in range(persons)}
    psc_rows = frozenset((p, c) for p, cs in owned.items() for c in cs)
    queries = [
        QuerySpec("?- psc(P, C).", ("P", "C"), psc_rows),
        QuerySpec("?- psc(P, C), filing(P, N, C).", ("P", "C"), psc_rows),
        # nulls are minted per person, so a shared null pins the person
        QuerySpec("?- filing(P, N, C), filing(Q, N, D).", ("P", "Q"),
                  frozenset((p, p) for p, cs in owned.items() if cs)),
    ]
    qrng = random.Random(f"psc-queries:{seed}")
    for _ in range(point_queries):
        p = f"p{qrng.randrange(persons)}"
        c = f"c{qrng.randrange(companies)}"
        mine = owned[p]
        queries += [
            QuerySpec(f"?- psc({p}, C).", ("C",), frozenset((x,) for x in mine)),
            QuerySpec(f"?- psc(P, {c}).", ("P",),
                      frozenset((q,) for q, cs in owned.items() if c in cs)),
            QuerySpec(f"?- person({p}), filing({p}, N, C), filing({p}, N, D).", ("C",),
                      frozenset((x,) for x in mine)),
            QuerySpec(f"?- psc({p}, {c}).", (), c in mine),
        ]
    return Scenario("psc", _facts_text(facts) + PSC_RULES, len(facts), tuple(queries))


def doctors(patients: int, doctor_count: int, seed: int, point_queries: int) -> Scenario:
    """The doctors-like scenario: treatments at unknown hospitals, so every
    treatment mints a null that the other rules propagate."""
    rng = random.Random(f"doctors:{seed}")
    specialty = {f"d{j}": SPECIALTIES[j % len(SPECIALTIES)] for j in range(doctor_count)}
    treated: dict[tuple[str, str], None] = {}
    for i in range(patients):
        treated[(f"p{i}", f"d{i % doctor_count}")] = None
        if rng.random() < DENSITY and doctor_count > 1:
            treated[(f"p{i}", f"d{rng.randrange(doctor_count)}")] = None
    facts: list[tuple[str, ...]] = []
    for d, s in specialty.items():
        facts += [("doctor", d), ("specialty", d, s)]
    facts += [("patient", f"p{i}") for i in range(patients)]
    facts += [("treated", p, d) for p, d in treated]

    treating = {d for _, d in treated}
    queries = [
        QuerySpec("?- case_at(P, D, H), case_at(Q, E, H).", ("P", "D"), frozenset(treated)),
        QuerySpec("?- case_at(P, D, H), works_at(D, H), specialty(D, S).", ("D", "S"),
                  frozenset((d, specialty[d]) for d in treating)),
    ]
    qrng = random.Random(f"doctors-queries:{seed}")
    for _ in range(point_queries):
        p = f"p{qrng.randrange(patients)}"
        d = f"d{qrng.randrange(doctor_count)}"
        mine = [e for q, e in treated if q == p]
        queries += [
            QuerySpec(f"?- case_at({p}, D, H).", ("D",), frozenset((e,) for e in mine)),
            QuerySpec(f"?- treated_under({p}, S).", ("S",),
                      frozenset((specialty[e],) for e in mine)),
            QuerySpec(f"?- case_at(P, {d}, H).", ("P",),
                      frozenset((q,) for q, e in treated if e == d)),
            QuerySpec(f"?- case_at(P, {d}, H), works_at({d}, H), specialty({d}, S).", ("S",),
                      frozenset({(specialty[d],)} if d in treating else ())),
            QuerySpec(f"?- case_at({p}, {d}, H).", (), (p, d) in treated),
        ]
    return Scenario("doctors", _facts_text(facts) + DOCTORS_RULES, len(facts), tuple(queries))


@dataclass(frozen=True)
class Pair:
    """One (program, Boolean query) pair for the differential harness."""

    label: str
    program_text: str
    query_text: str


DIFF_PAIRS_FILE = Path(__file__).parent / "data" / "diff_pairs.jsonl"


def criterion4_pairs(seed: int) -> list[Pair]:
    """The 200 stored criterion-4 pairs in a seeded order.

    The set is fixed: a fresh draw of 200 pairs per seed moves the number
    of oracle runs that exhaust their step budget (33 of these 200) by
    about 16%, which would swamp every bound.
    """
    pairs = [
        Pair(f"seed{row['seed']}", row["program"], row["query"])
        for row in map(json.loads, DIFF_PAIRS_FILE.read_text(encoding="utf-8").splitlines())
    ]
    random.Random(f"diff-sweep:{seed}").shuffle(pairs)
    return pairs


# Boolean queries for the small differential pairs of the psc and doctors
# workloads; ``{p}`` is filled with a person or patient of the instance.
PSC_PAIR_QUERIES = (
    "?- psc({p}, C).",
    "?- filing(P, N, C), controls(C, D), filing(P, N, D).",
    "?- filing({p}, N, C), filing({p}, N, D), controls(C, D).",
    "?- ctrl(P, C), company(C), psc(P, C).",
)
DOCTORS_PAIR_QUERIES = (
    "?- case_at({p}, D, H), works_at(D, H).",
    "?- admitted(P, H), offers(H, S).",
    "?- treated({p}, D), case_at({p}, D, H), offers(H, S).",
    "?- works_at(D, H), offers(H, S), admitted(P, H).",
)


def scenario_pairs(name: str, seed: int, count: int, scale: int) -> list[Pair]:
    """``count`` small instances of one scenario, each with a Boolean query,
    in a seeded order.  The instances themselves do not depend on the seed:
    at this scale a fresh draw per seed moves the pairs' median time by
    about a tenth."""
    out = []
    for k in range(count):
        if name == "psc":
            sc = psc(scale, scale, k, 0)
            templates = PSC_PAIR_QUERIES
        else:
            sc = doctors(scale, max(2, scale // 4), k, 0)
            templates = DOCTORS_PAIR_QUERIES
        text = templates[k % len(templates)].format(p=f"p{k % scale}")
        out.append(Pair(f"{name}{k}", sc.program_text, text))
    random.Random(f"{name}-pairs:{seed}").shuffle(out)
    return out
