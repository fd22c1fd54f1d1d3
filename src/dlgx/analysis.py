"""Static rule-set analysis: affected/invaded positions, variable
classification, and the shy / warded / protected fragment checks.

All notions are program-global.  A position is *affected* if an
existential variable can place a null there, directly or by propagation
through universal variables that occur only in affected body positions.
A position is *invaded* by a specific existential variable when the
propagation can be traced back to that variable alone; invaded positions
are always affected.

Both fixpoints start from the same seeds (the head position of each
existential variable) and apply the same propagation steps (a frontier
variable's head position, reached once all of its body positions are),
built once per call.  They stay two computations, so that
:func:`analyze`'s check that every invaded position is affected compares
two independent results instead of restating one.

Per rule, a body variable is
  - harmless          if at least one of its body occurrences is unaffected,
  - attacked-harmful  if some single existential variable invades every
                      one of its body occurrences (the "attackers"),
  - protected-harmful otherwise (all occurrences affected, no common invader).
A non-harmless variable that also occurs in the head is *dangerous*.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .model import (
    Atom,
    ExistentialVarId,
    Position,
    Program,
    Query,
    Variable,
)

HARMLESS = "harmless"
PROTECTED_HARMFUL = "protected-harmful"
ATTACKED_HARMFUL = "attacked-harmful"


class InternalInconsistencyError(Exception):
    """The direct protected check disagreed with shy-and-warded."""


@dataclass(frozen=True)
class VariableInfo:
    """Classification of one body variable within one rule."""

    name: str
    occurrences: tuple[tuple[int, Position], ...]  # (body atom index, position)
    cls: str
    attackers: frozenset[ExistentialVarId]
    dangerous: bool

    @property
    def atom_indexes(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.occurrences)


@dataclass(frozen=True)
class Violation:
    rule_id: int
    condition: str  # "S1" | "S2" | "W1" | "W2" | "P1" | "P2"
    variables: tuple[str, ...]
    explanation: str


@dataclass
class RuleClassification:
    rule_id: int
    variables: dict[str, VariableInfo]


@dataclass
class FragmentVerdicts:
    shy: bool
    warded: bool
    protected: bool
    violations: list[Violation] = field(default_factory=list)


@dataclass
class AnalysisReport:
    affected: frozenset[Position]
    invaded: dict[Position, frozenset[ExistentialVarId]]
    rules: list[RuleClassification]
    verdicts: FragmentVerdicts

    def to_json_dict(self) -> dict:
        return {
            "affected": sorted(str(p) for p in self.affected),
            "invaded": {
                str(pos): sorted(str(e) for e in invaders)
                for pos, invaders in sorted(self.invaded.items())
            },
            "rules": [
                {
                    "id": rc.rule_id,
                    "vars": [
                        {
                            "name": info.name,
                            "class": info.cls,
                            "attackers": sorted(str(a) for a in info.attackers),
                            "dangerous": info.dangerous,
                        }
                        for info in sorted(rc.variables.values(), key=lambda v: v.name)
                    ],
                }
                for rc in self.rules
            ],
            "verdicts": {
                "shy": self.verdicts.shy,
                "warded": self.verdicts.warded,
                "protected": self.verdicts.protected,
            },
            "violations": [
                {
                    "rule": v.rule_id,
                    "condition": v.condition,
                    "variables": list(v.variables),
                    "explanation": v.explanation,
                }
                for v in self.verdicts.violations
            ],
        }


def _body_occurrences(body: Sequence[Atom]) -> dict[str, list[tuple[int, Position]]]:
    occ: dict[str, list[tuple[int, Position]]] = {}
    for atom_index, atom in enumerate(body):
        for i, t in enumerate(atom.terms):
            if isinstance(t, Variable):
                occ.setdefault(t.name, []).append(
                    (atom_index, Position(atom.predicate, i + 1))
                )
    return occ


def _propagation(
    program: Program,
) -> tuple[list[tuple[Position, ExistentialVarId]], list[tuple[Position, list[Position]]]]:
    """The seeds (the head position of each existential variable, with
    that variable) and the propagation steps (the head position of each
    frontier variable, with that variable's body positions)."""
    seeds: list[tuple[Position, ExistentialVarId]] = []
    steps: list[tuple[Position, list[Position]]] = []
    for rule in program.rules:
        occ = _body_occurrences(rule.body)
        for atom in rule.head:
            for i, t in enumerate(atom.terms):
                if not isinstance(t, Variable):
                    continue
                pos = Position(atom.predicate, i + 1)
                if t.name in rule.existential_vars:
                    seeds.append((pos, ExistentialVarId(rule.id, t.name)))
                else:
                    steps.append((pos, [p for _, p in occ[t.name]]))
    return seeds, steps


def compute_affected(program: Program) -> frozenset[Position]:
    """Least fixpoint of the affected-position rules over the whole program."""
    seeds, steps = _propagation(program)
    affected = {pos for pos, _ in seeds}
    changed = True
    while changed:
        changed = False
        for pos, sources in steps:
            if pos not in affected and all(p in affected for p in sources):
                affected.add(pos)
                changed = True
    return frozenset(affected)


def harmful_joins(
    program: Program, query: Optional[Query] = None
) -> list[tuple[Optional[int], str]]:
    """Body variables that occur at least twice, every occurrence at an
    affected position, as (rule id, name) pairs; the query, read as the
    rule ``ans(outputs) :- body``, has rule id None.

    Isomorphism-based blocking is exact only without harmful joins (the
    Vadalog system eliminates them by rewriting first): a join on nulls
    can need two null chains that the renaming blocker folds into one.
    """
    affected = compute_affected(program)
    bodies: list[tuple[Optional[int], Sequence[Atom]]] = [
        (rule.id, rule.body) for rule in program.rules
    ]
    if query is not None:
        bodies.append((None, query.atoms))
    return [
        (rule_id, name)
        for rule_id, body in bodies
        for name, occurrences in _body_occurrences(body).items()
        if len(occurrences) > 1 and all(p in affected for _, p in occurrences)
    ]


def compute_invaded(program: Program) -> dict[Position, frozenset[ExistentialVarId]]:
    """Which existential variables invade which positions (least fixpoint)."""
    seeds, steps = _propagation(program)
    invaded: dict[Position, set[ExistentialVarId]] = {}
    for pos, invader in seeds:
        invaded.setdefault(pos, set()).add(invader)
    changed = True
    while changed:
        changed = False
        for pos, sources in steps:
            common = set.intersection(*(invaded.get(p, set()) for p in sources))
            known = invaded.setdefault(pos, set())
            if not common <= known:
                known |= common
                changed = True
    return {pos: frozenset(inv) for pos, inv in invaded.items() if inv}


def classify_variables(
    program: Program,
    affected: frozenset[Position],
    invaded: dict[Position, frozenset[ExistentialVarId]],
) -> list[RuleClassification]:
    """One classification per rule, in rule order."""
    out = []
    for rule in program.rules:
        occ = _body_occurrences(rule.body)
        head_vars = {v.name for a in rule.head for v in a.variables()}
        infos: dict[str, VariableInfo] = {}
        for name, occurrences in occ.items():
            positions = [p for _, p in occurrences]
            harmless = any(p not in affected for p in positions)
            if harmless:
                attackers: frozenset[ExistentialVarId] = frozenset()
                cls = HARMLESS
            else:
                attackers = frozenset.intersection(
                    *(invaded.get(p, frozenset()) for p in positions)
                )
                cls = ATTACKED_HARMFUL if attackers else PROTECTED_HARMFUL
            infos[name] = VariableInfo(
                name=name,
                occurrences=tuple(occurrences),
                cls=cls,
                attackers=attackers,
                dangerous=(not harmless) and name in head_vars,
            )
        out.append(RuleClassification(rule_id=rule.id, variables=infos))
    return out


def check_shy(
    program: Program, classifications: list[RuleClassification]
) -> list[Violation]:
    """Shyness: joins only on non-attacked variables (S1), and no pair of
    dangerous variables in different body atoms shares an attacker (S2)."""
    violations: list[Violation] = []
    for rule, rc in zip(program.rules, classifications):
        infos = rc.variables
        for name in sorted(infos):
            info = infos[name]
            if len(info.atom_indexes) > 1 and info.attackers:
                attacker = sorted(str(a) for a in info.attackers)
                violations.append(
                    Violation(
                        rule_id=rule.id,
                        condition="S1",
                        variables=(name,),
                        explanation=(
                            f"join variable {name} occurs in body atoms "
                            f"{sorted(info.atom_indexes)} and is attacked by "
                            f"{', '.join(attacker)}"
                        ),
                    )
                )
        names = sorted(n for n, info in infos.items() if info.dangerous)
        for i, v1 in enumerate(names):
            for v2 in names[i + 1 :]:
                a, b = infos[v1], infos[v2]
                common = a.attackers & b.attackers
                if not common:
                    continue
                in_different_atoms = any(
                    ia != ib for ia in a.atom_indexes for ib in b.atom_indexes
                )
                if in_different_atoms:
                    violations.append(
                        Violation(
                            rule_id=rule.id,
                            condition="S2",
                            variables=(v1, v2),
                            explanation=(
                                f"head variables {v1} and {v2} sit in different body "
                                f"atoms and share attacker "
                                f"{sorted(str(c) for c in common)[0]}"
                            ),
                        )
                    )
    return violations


def check_warded(
    program: Program, classifications: list[RuleClassification]
) -> list[Violation]:
    """Wardedness: per rule, all dangerous variables in one body atom (W1)
    that shares only harmless variables with the rest of the body (W2)."""
    violations: list[Violation] = []
    for rule, rc in zip(program.rules, classifications):
        infos = rc.variables
        dangerous = sorted(n for n, info in infos.items() if info.dangerous)
        if not dangerous:
            continue
        atom_vars: list[set[str]] = [
            {v.name for v in atom.variables()} for atom in rule.body
        ]
        wards = [i for i, vs in enumerate(atom_vars) if set(dangerous) <= vs]
        if not wards:
            violations.append(
                Violation(
                    rule_id=rule.id,
                    condition="W1",
                    variables=tuple(dangerous),
                    explanation=(
                        f"no single body atom contains all dangerous variables "
                        f"{', '.join(dangerous)}"
                    ),
                )
            )
            continue
        offenders_per_ward = []
        for w in wards:
            shared = {
                name
                for i, vs in enumerate(atom_vars)
                if i != w
                for name in vs & atom_vars[w]
            }
            offenders_per_ward.append(sorted(n for n in shared if infos[n].cls != HARMLESS))
        best_offenders = min(offenders_per_ward, key=len)
        if best_offenders:
            violations.append(
                Violation(
                    rule_id=rule.id,
                    condition="W2",
                    variables=tuple(best_offenders),
                    explanation=(
                        f"every candidate ward shares a harmful variable "
                        f"({', '.join(best_offenders)}) with another body atom"
                    ),
                )
            )
    return violations


def check_protected(
    program: Program,
    classifications: list[RuleClassification],
    shy: list[Violation],
    warded: list[Violation],
) -> list[Violation]:
    """Direct protected check: no attacked-harmful join variables (P1) and
    warded (P2).  Cross-checked against shy-and-warded; a mismatch means
    the analysis itself is broken and raises InternalInconsistencyError.
    ``shy`` and ``warded`` are the violations :func:`check_shy` and
    :func:`check_warded` found over the same classifications; each
    checker's verdict is ``not violations``.
    """
    violations: list[Violation] = []
    for rule, rc in zip(program.rules, classifications):
        infos = rc.variables
        for name in sorted(infos):
            info = infos[name]
            if info.cls == ATTACKED_HARMFUL and len(info.atom_indexes) > 1:
                violations.append(
                    Violation(
                        rule_id=rule.id,
                        condition="P1",
                        variables=(name,),
                        explanation=(
                            f"attacked-harmful variable {name} joins body atoms "
                            f"{sorted(info.atom_indexes)}"
                        ),
                    )
                )
    for wv in warded:
        violations.append(
            Violation(
                rule_id=wv.rule_id,
                condition="P2",
                variables=wv.variables,
                explanation=f"not warded: {wv.explanation}",
            )
        )
    if (not violations) != (not shy and not warded):
        raise InternalInconsistencyError(
            f"protected={not violations} but shy={not shy} and warded={not warded}; "
            "the fragment checks disagree"
        )
    return violations


def analyze(program: Program) -> AnalysisReport:
    """Full static analysis with all three fragment verdicts."""
    affected = compute_affected(program)
    invaded = compute_invaded(program)
    for pos in invaded:
        if pos not in affected:
            raise InternalInconsistencyError(
                f"position {pos} is invaded but not affected"
            )
    classifications = classify_variables(program, affected, invaded)
    shy = check_shy(program, classifications)
    warded = check_warded(program, classifications)
    protected = check_protected(program, classifications, shy, warded)
    violations = sorted(
        shy + warded + protected,
        key=lambda v: (v.rule_id, v.condition, v.variables),
    )
    return AnalysisReport(
        affected=affected,
        invaded=invaded,
        rules=classifications,
        verdicts=FragmentVerdicts(
            shy=not shy,
            warded=not warded,
            protected=not protected,
            violations=violations,
        ),
    )
