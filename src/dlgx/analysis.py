"""Static rule-set analysis: affected/invaded positions, variable
classification, and the shy / warded / protected fragment checks.

All notions are program-global.  A position is *affected* if an
existential variable can place a null there, directly or by propagation
through universal variables that occur only in affected body positions.
A position is *invaded* by a specific existential variable when the
propagation can be traced back to that variable alone; invaded positions
are always affected.

Per rule, a body variable is
  - harmless          if at least one of its body occurrences is unaffected,
  - attacked-harmful  if some single existential variable invades every
                      one of its body occurrences (the "attackers"),
  - protected-harmful otherwise (all occurrences affected, no common invader).
A non-harmless variable that also occurs in the head is *dangerous*.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .model import (
    Atom,
    ExistentialVarId,
    Position,
    Program,
    Rule,
    Variable,
)

if TYPE_CHECKING:
    from .query import Query

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
                for pos, invaders in sorted(
                    self.invaded.items(), key=lambda kv: (kv[0].predicate, kv[0].index)
                )
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


def compute_affected(program: Program) -> frozenset[Position]:
    """Least fixpoint of the affected-position rules over the whole program."""
    affected: set[Position] = set()
    for rule in program.rules:
        for atom in rule.head:
            for i, t in enumerate(atom.terms):
                if isinstance(t, Variable) and t.name in rule.existential_vars:
                    affected.add(Position(atom.predicate, i + 1))
    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            occ = _body_occurrences(rule.body)
            for atom in rule.head:
                for i, t in enumerate(atom.terms):
                    if not isinstance(t, Variable) or t.name not in rule.frontier:
                        continue
                    positions = [p for _, p in occ[t.name]]
                    if all(p in affected for p in positions):
                        pos = Position(atom.predicate, i + 1)
                        if pos not in affected:
                            affected.add(pos)
                            changed = True
    return frozenset(affected)


def harmful_joins(
    program: Program, query: Optional["Query"] = None
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
    invaded: dict[Position, set[ExistentialVarId]] = {}

    def invaders_of(pos: Position) -> set[ExistentialVarId]:
        return invaded.setdefault(pos, set())

    for rule in program.rules:
        for atom in rule.head:
            for i, t in enumerate(atom.terms):
                if isinstance(t, Variable) and t.name in rule.existential_vars:
                    invaders_of(Position(atom.predicate, i + 1)).add(
                        ExistentialVarId(rule.id, t.name)
                    )
    all_invaders = {e for s in invaded.values() for e in s}
    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            occ = _body_occurrences(rule.body)
            for atom in rule.head:
                for i, t in enumerate(atom.terms):
                    if not isinstance(t, Variable) or t.name not in rule.frontier:
                        continue
                    positions = [p for _, p in occ[t.name]]
                    for invader in all_invaders:
                        if all(invader in invaded.get(p, ()) for p in positions):
                            pos = Position(atom.predicate, i + 1)
                            if invader not in invaders_of(pos):
                                invaded[pos].add(invader)
                                changed = True
    return {pos: frozenset(inv) for pos, inv in invaded.items() if inv}


def classify_variables(
    program: Program,
    affected: Optional[frozenset[Position]] = None,
    invaded: Optional[dict[Position, frozenset[ExistentialVarId]]] = None,
) -> list[RuleClassification]:
    if affected is None:
        affected = compute_affected(program)
    if invaded is None:
        invaded = compute_invaded(program)
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
                common = set(invaded.get(positions[0], frozenset()))
                for p in positions[1:]:
                    common &= invaded.get(p, frozenset())
                attackers = frozenset(common)
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


def _head_var_names(rule: Rule) -> frozenset[str]:
    return frozenset(v.name for a in rule.head for v in a.variables())


def check_shy(
    program: Program, classifications: Optional[list[RuleClassification]] = None
) -> tuple[bool, list[Violation]]:
    """Shyness: joins only on non-attacked variables (S1), and no pair of
    head-occurring harmful variables in different body atoms shares an
    attacker (S2)."""
    if classifications is None:
        classifications = classify_variables(program)
    violations: list[Violation] = []
    by_id = {rc.rule_id: rc for rc in classifications}
    for rule in program.rules:
        infos = by_id[rule.id].variables
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
        head_vars = _head_var_names(rule)
        names = sorted(n for n in infos if n in head_vars)
        for i, v1 in enumerate(names):
            for v2 in names[i + 1 :]:
                a, b = infos[v1], infos[v2]
                if a.cls == HARMLESS or b.cls == HARMLESS:
                    continue
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
    return (not violations, violations)


def check_warded(
    program: Program, classifications: Optional[list[RuleClassification]] = None
) -> tuple[bool, list[Violation]]:
    """Wardedness: per rule, all dangerous variables in one body atom (W1)
    that shares only harmless variables with the rest of the body (W2)."""
    if classifications is None:
        classifications = classify_variables(program)
    violations: list[Violation] = []
    by_id = {rc.rule_id: rc for rc in classifications}
    for rule in program.rules:
        infos = by_id[rule.id].variables
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
        best_offenders: Optional[list[str]] = None
        for w in wards:
            shared = {
                name
                for i, vs in enumerate(atom_vars)
                if i != w
                for name in vs & atom_vars[w]
            }
            offenders = sorted(n for n in shared if infos[n].cls != HARMLESS)
            if not offenders:
                best_offenders = None
                break
            if best_offenders is None or len(offenders) < len(best_offenders):
                best_offenders = offenders
        if best_offenders is not None:
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
    return (not violations, violations)


def check_protected(
    program: Program,
    classifications: Optional[list[RuleClassification]] = None,
    *,
    shy: Optional[tuple[bool, list[Violation]]] = None,
    warded: Optional[tuple[bool, list[Violation]]] = None,
) -> tuple[bool, list[Violation]]:
    """Direct protected check: no attacked-harmful join variables (P1) and
    warded (P2).  Cross-checked against shy-and-warded; a mismatch means
    the analysis itself is broken and raises InternalInconsistencyError.
    ``shy`` and ``warded`` take results of :func:`check_shy` and
    :func:`check_warded` already computed over the same classifications.
    """
    if classifications is None:
        classifications = classify_variables(program)
    violations: list[Violation] = []
    by_id = {rc.rule_id: rc for rc in classifications}
    for rule in program.rules:
        infos = by_id[rule.id].variables
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
    if warded is None:
        warded = check_warded(program, classifications)
    warded_ok, warded_violations = warded
    if not warded_ok:
        for wv in warded_violations:
            violations.append(
                Violation(
                    rule_id=wv.rule_id,
                    condition="P2",
                    variables=wv.variables,
                    explanation=f"not warded: {wv.explanation}",
                )
            )
    verdict = not violations

    if shy is None:
        shy = check_shy(program, classifications)
    shy_ok = shy[0]
    if verdict != (shy_ok and warded_ok):
        raise InternalInconsistencyError(
            f"protected={verdict} but shy={shy_ok} and warded={warded_ok}; "
            "the fragment checks disagree"
        )
    return (verdict, violations)


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
    protected_ok, protected_violations = check_protected(
        program, classifications, shy=shy, warded=warded
    )
    (shy_ok, shy_violations), (warded_ok, warded_violations) = shy, warded
    violations = sorted(
        shy_violations + warded_violations + protected_violations,
        key=lambda v: (v.rule_id, v.condition, v.variables),
    )
    return AnalysisReport(
        affected=affected,
        invaded=invaded,
        rules=classifications,
        verdicts=FragmentVerdicts(
            shy=shy_ok,
            warded=warded_ok,
            protected=protected_ok,
            violations=violations,
        ),
    )
