"""Chase execution: trigger enumeration, firing, and the chase variants.

A variant is a blocker plus a resumption count.  The blocker decides
when a trigger may fire:

  none          every trigger fires (once); may diverge on recursive
                existential programs, so it is guarded by a static check
                unless a step budget is given.
  homomorphism  fire only if the instantiated head does not already map
                homomorphically into the instance (nulls are wildcards,
                frozen nulls are rigid).
  isomorphism   fire only if no isomorphic embedding of the instantiated
                head exists (nulls map bijectively to nulls).

A resumption freezes every null once the chase reaches a fixpoint and
runs it again.  The four names users know are combinations of the two:

  name       blocker       resumptions
  oblivious  none          0
  pchase     homomorphism  0 unless given
  pchase-r   homomorphism  1 unless given
  ichase     isomorphism   0 unless given

so pchase with k resumptions is pchase-r(k), which prints as pchase when
k is 0.

Triggers are processed level by level: every trigger whose body matches
the current instance is evaluated before triggers that need facts from
the next level.  Within a level, evaluation order is ascending rule id,
then lexicographic substitution order, which makes runs deterministic.
Blocking conditions are tested against the instance as it exists at the
moment the trigger is evaluated.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .analysis import compute_affected
from .model import (
    Atom,
    Instance,
    Null,
    NullFactory,
    Position,
    Program,
    Rule,
    Substitution,
    Term,
    Variable,
    format_term,
    freeze_nulls,
    term_sort_key,
)

HOMOMORPHISM = "homomorphism"
ISOMORPHISM = "isomorphism"

# name -> (blocker, resumptions when none are given)
_NAMES: dict[str, tuple[Optional[str], int]] = {
    "oblivious": (None, 0),
    "pchase": (HOMOMORPHISM, 0),
    "pchase-r": (HOMOMORPHISM, 1),
    "ichase": (ISOMORPHISM, 0),
}
VARIANT_NAMES = tuple(_NAMES)
# (blocker, resumes?) -> name; a resuming variant without a name of its
# own keeps its blocker's name
_KINDS = {(blocker, k > 0): name for name, (blocker, k) in _NAMES.items()}

FIXPOINT = "fixpoint"
STEP_LIMIT = "step-limit-reached"


class NonTerminationRiskError(Exception):
    """Oblivious chase refused: recursive existential rules and no step budget."""


@dataclass(frozen=True)
class ChaseVariant:
    blocker: Optional[str] = None  # None | "homomorphism" | "isomorphism"
    resumptions: int = 0

    def __post_init__(self) -> None:
        if self.blocker not in (None, HOMOMORPHISM, ISOMORPHISM):
            raise ValueError(f"unknown blocker {self.blocker!r}")
        if self.resumptions < 0:
            raise ValueError("resumption count must be >= 0")
        if self.resumptions and self.blocker is None:
            raise ValueError("the oblivious chase takes no resumption count")

    @property
    def kind(self) -> str:
        """The variant's name without its resumption count."""
        return _KINDS.get((self.blocker, self.resumptions > 0)) or _KINDS[(self.blocker, False)]

    def __str__(self) -> str:
        return f"{self.kind}({self.resumptions})" if self.resumptions else self.kind


def oblivious() -> ChaseVariant:
    return ChaseVariant()


def pchase() -> ChaseVariant:
    return ChaseVariant(HOMOMORPHISM)


def pchase_r(resumptions: int = 1) -> ChaseVariant:
    return ChaseVariant(HOMOMORPHISM, resumptions)


def ichase(resumptions: int = 0) -> ChaseVariant:
    return ChaseVariant(ISOMORPHISM, resumptions)


def parse_variant(name: str, resumptions: Optional[int] = None) -> ChaseVariant:
    if name not in _NAMES:
        raise ValueError(
            f"unknown chase variant {name!r}; expected one of {', '.join(VARIANT_NAMES)}"
        )
    blocker, default = _NAMES[name]
    return ChaseVariant(blocker, default if resumptions is None else resumptions)


# ---------------------------------------------------------------------------
# Homomorphism search


def _match_atom(
    atom: Atom,
    fact: Atom,
    subst: dict[Term, Term],
    is_mobile: Callable[[Term], bool],
) -> Optional[dict[Term, Term]]:
    """Bindings needed to map ``atom`` onto ``fact``, or None if impossible."""
    updates: dict[Term, Term] = {}
    for t, f in zip(atom.terms, fact.terms):
        if is_mobile(t):
            bound = subst.get(t)
            if bound is None:
                bound = updates.get(t)
            if bound is None:
                updates[t] = f
            elif bound != f:
                return None
        elif t != f:
            return None
    return updates


def _bound_positions(
    atom: Atom, subst: dict[Term, Term], is_mobile: Callable[[Term], bool]
) -> list[tuple[int, Term]]:
    out = []
    for i, t in enumerate(atom.terms):
        if is_mobile(t):
            v = subst.get(t)
            if v is not None:
                out.append((i, v))
        else:
            out.append((i, t))
    return out


def find_homomorphisms(
    pattern: Sequence[Atom],
    target: Instance,
    *,
    free_nulls: bool = False,
    initial: Optional[Substitution] = None,
) -> Iterator[dict[Term, Term]]:
    """All mappings sending every pattern atom onto a fact of ``target``.

    Variables are always free.  With ``free_nulls`` the pattern's
    unfrozen nulls are free as well (they may land on constants or
    nulls); frozen nulls and constants are rigid.  Enumeration is a
    deterministic backtracking join, most selective relation first.
    """
    atoms = list(pattern)
    n = len(atoms)

    def is_mobile(t: Term) -> bool:
        if isinstance(t, Variable):
            return True
        return free_nulls and isinstance(t, Null) and not target.is_frozen(t)

    subst: dict[Term, Term] = dict(initial) if initial else {}
    used = [False] * n

    def pick() -> tuple[int, list[Atom]]:
        # most selective atom under the current bindings, ties by position
        best = -1
        best_cands: list[Atom] = []
        best_cost = -1
        for i in range(n):
            if used[i]:
                continue
            cands = target.candidates(
                atoms[i].predicate, _bound_positions(atoms[i], subst, is_mobile)
            )
            if best < 0 or len(cands) < best_cost:
                best, best_cands, best_cost = i, cands, len(cands)
        return best, best_cands

    def extend(k: int) -> Iterator[dict[Term, Term]]:
        if k == n:
            yield dict(subst)
            return
        i, cands = pick()
        atom = atoms[i]
        used[i] = True
        for fact in cands:
            updates = _match_atom(atom, fact, subst, is_mobile)
            if updates is None:
                continue
            subst.update(updates)
            yield from extend(k + 1)
            for key in updates:
                del subst[key]
        used[i] = False

    return extend(0)


def exists_homomorphism(
    pattern: Sequence[Atom],
    target: Instance,
    *,
    free_nulls: bool = False,
    initial: Optional[Substitution] = None,
) -> Optional[dict[Term, Term]]:
    return next(
        find_homomorphisms(pattern, target, free_nulls=free_nulls, initial=initial),
        None,
    )


def exists_isomorphic_embedding(fact_set: Sequence[Atom], target: Instance) -> bool:
    """Is some subset of ``target`` an isomorphic copy of ``fact_set``?

    The mapping is the identity on constants (and frozen nulls) and an
    injective null-to-null assignment, so its inverse is a homomorphism
    from the image back onto ``fact_set``.
    """
    atoms = list(fact_set)

    def is_mobile(t: Term) -> bool:
        return isinstance(t, Null) and not target.is_frozen(t)

    order = sorted(
        range(len(atoms)),
        key=lambda i: (len(target.facts_for(atoms[i].predicate)), i),
    )
    subst: dict[Term, Term] = {}
    used: set[Term] = set()

    def extend(k: int) -> bool:
        if k == len(order):
            return True
        atom = atoms[order[k]]
        for fact in target.candidates(atom.predicate, _bound_positions(atom, subst, is_mobile)):
            updates = _match_atom(atom, fact, subst, is_mobile)
            if updates is None:
                continue
            images = list(updates.values())
            if any(not isinstance(v, Null) for v in images):
                continue
            if any(v in used for v in images) or len(set(images)) != len(images):
                continue
            subst.update(updates)
            used.update(images)
            if extend(k + 1):
                return True
            for key, value in updates.items():
                del subst[key]
                used.discard(value)
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# Triggers


@dataclass(frozen=True)
class Trigger:
    """A rule paired with a body homomorphism, in canonical hashable form."""

    rule_id: int
    bindings: tuple[tuple[str, Term], ...]  # sorted by variable name

    @staticmethod
    def from_substitution(rule_id: int, subst: Substitution) -> "Trigger":
        items = sorted(
            ((v.name, t) for v, t in subst.items() if isinstance(v, Variable)),
            key=lambda kv: kv[0],
        )
        return Trigger(rule_id, tuple(items))

    def substitution(self) -> dict[Term, Term]:
        return {Variable(name): term for name, term in self.bindings}

    def sort_key(self) -> tuple:
        return (self.rule_id, tuple(term_sort_key(t) for _, t in self.bindings))


def instantiate_head(
    rule: Rule, trigger: Trigger, fresh: dict[str, Null]
) -> list[Atom]:
    """The head atoms of ``rule`` under the trigger's substitution, with
    ``fresh`` supplying one shared null per existential variable."""
    mapping: dict[Term, Term] = dict(trigger.substitution())
    for name, null in fresh.items():
        mapping[Variable(name)] = null
    out = []
    for atom in rule.head:
        out.append(
            Atom(
                atom.predicate,
                [mapping[t] if isinstance(t, Variable) else t for t in atom.terms],
            )
        )
    return out


def fire_trigger(
    rule: Rule, trigger: Trigger, instance: Instance, nulls: NullFactory
) -> list[Atom]:
    """Apply the trigger: extend the instance, returning the new facts."""
    names = sorted(rule.existential_vars)
    fresh = dict(zip(names, nulls.take(len(names), instance.active_epoch)))
    added = []
    for fact in instantiate_head(rule, trigger, fresh):
        if instance.add(fact):
            added.append(fact)
    return added


# ---------------------------------------------------------------------------
# Non-termination guard


def _predicate_reachability(program: Program) -> dict[str, set[str]]:
    edges: dict[str, set[str]] = {}
    for rule in program.rules:
        for b in rule.body:
            for h in rule.head:
                edges.setdefault(b.predicate, set()).add(h.predicate)
    reach: dict[str, set[str]] = {}
    for start in edges:
        seen: set[str] = set()
        stack = [start]
        while stack:
            p = stack.pop()
            for q in edges.get(p, ()):
                if q not in seen:
                    seen.add(q)
                    stack.append(q)
        reach[start] = seen
    return reach


def has_nontermination_risk(program: Program) -> bool:
    """Conservative check: an existential rule sits on a predicate cycle
    that runs through an affected position.  False positives are fine;
    plain Datalog and acyclic existential programs never trip it."""
    if not program.has_existential_rules():
        return False
    affected = compute_affected(program)
    reach = _predicate_reachability(program)
    for rule in program.rules:
        if not rule.existential_vars:
            continue
        body_preds = {a.predicate for a in rule.body}
        for atom in rule.head:
            p = atom.predicate
            feeds_back = any(q in reach.get(p, ()) for q in body_preds)
            if not feeds_back:
                continue
            if any(Position(p, i + 1) in affected for i in range(atom.arity)):
                return True
    return False


# ---------------------------------------------------------------------------
# The chase proper


@dataclass
class TraceRecord:
    rule: int
    subst: dict[str, Term]
    fired: bool
    block_reason: Optional[str]  # the blocker, "homomorphism" | "isomorphism"
    level: int

    def to_json_dict(self) -> dict:
        return {
            "rule": self.rule,
            "subst": {name: format_term(t) for name, t in sorted(self.subst.items())},
            "fired": self.fired,
            "blockReason": self.block_reason,
            "level": self.level,
        }


@dataclass
class ChaseRun:
    variant: ChaseVariant
    result: Instance
    status: str  # "fixpoint" | "step-limit-reached"
    fired_steps: int
    resumptions_used: int
    trace: Optional[list[TraceRecord]] = None


def _level_triggers(
    program: Program, instance: Instance, delta: Sequence[Atom]
) -> list[Trigger]:
    """Triggers whose body maps into ``instance`` using >= 1 delta fact."""
    delta_by_pred: dict[str, list[Atom]] = {}
    for f in delta:
        delta_by_pred.setdefault(f.predicate, []).append(f)
    found: set[Trigger] = set()
    out: list[Trigger] = []

    def var_mobile(t: Term) -> bool:
        return isinstance(t, Variable)

    for rule in program.rules:
        for pivot_index, pivot in enumerate(rule.body):
            pivot_facts = delta_by_pred.get(pivot.predicate)
            if not pivot_facts:
                continue
            rest = [a for i, a in enumerate(rule.body) if i != pivot_index]
            for fact in pivot_facts:
                seed = _match_atom(pivot, fact, {}, var_mobile)
                if seed is None:
                    continue
                for hom in find_homomorphisms(rest, instance, initial=seed):
                    trig = Trigger.from_substitution(rule.id, hom)
                    if trig not in found:
                        found.add(trig)
                        out.append(trig)
    out.sort(key=Trigger.sort_key)
    return out


def _head_present(
    blocker: str, rule: Rule, trigger: Trigger, instance: Instance, nulls: NullFactory
) -> bool:
    """Does ``blocker`` find the trigger's head, with the nulls it would
    mint, already in the instance?"""
    names = sorted(rule.existential_vars)
    fresh = dict(zip(names, nulls.preview(len(names), instance.active_epoch)))
    head_image = instantiate_head(rule, trigger, fresh)
    if blocker == ISOMORPHISM:
        return exists_isomorphic_embedding(head_image, instance)
    return exists_homomorphism(head_image, instance, free_nulls=True) is not None


def run_chase(
    program: Program,
    variant: ChaseVariant,
    *,
    max_steps: Optional[int] = None,
    trace: bool = False,
    on_epoch: Optional[Callable[[Instance, int], bool]] = None,
) -> ChaseRun:
    """Execute one chase variant over the program's facts.

    ``max_steps`` bounds the number of *fired* steps across all epochs.
    ``on_epoch`` is called after each epoch reaches a fixpoint; returning
    True stops before the remaining resumptions.  An epoch that blocks no
    trigger also ends the run: the next epoch would block every trigger
    on that trigger's own output, so it could add nothing.

    Past an epoch's first level, every trigger uses a fact that the level
    before added, so no trigger comes up twice in one epoch.
    """
    blocker = variant.blocker
    if blocker is None and max_steps is None and has_nontermination_risk(program):
        raise NonTerminationRiskError(
            "oblivious chase on a recursive existential program may not "
            "terminate; rerun with a step budget (--max-steps)"
        )
    instance = Instance.from_facts(program.facts)
    nulls = NullFactory()
    records: Optional[list[TraceRecord]] = [] if trace else None
    fired_steps = 0
    resumptions_used = 0
    status = FIXPOINT
    level = 0

    for epoch in range(variant.resumptions + 1):
        if epoch > 0:
            freeze_nulls(instance)
            resumptions_used += 1
        blocked = 0
        delta: Sequence[Atom] = list(instance)
        while delta and status == FIXPOINT:
            added: list[Atom] = []
            for trig in _level_triggers(program, instance, delta):
                rule = program.rule_by_id(trig.rule_id)
                block = None
                if blocker is not None and _head_present(blocker, rule, trig, instance, nulls):
                    block = blocker
                if block is None and max_steps is not None and fired_steps >= max_steps:
                    status = STEP_LIMIT
                    break
                if records is not None:
                    records.append(
                        TraceRecord(trig.rule_id, dict(trig.bindings), block is None, block, level)
                    )
                if block is not None:
                    blocked += 1
                    continue
                added.extend(fire_trigger(rule, trig, instance, nulls))
                fired_steps += 1
            delta = added
            level += 1
        if status != FIXPOINT:
            break
        if on_epoch is not None and on_epoch(instance, epoch):
            break
        if not blocked:  # a resumption would re-block every trigger
            break
    return ChaseRun(
        variant=variant,
        result=instance,
        status=status,
        fired_steps=fired_steps,
        resumptions_used=resumptions_used,
        trace=records,
    )


# ---------------------------------------------------------------------------
# Containment of pchase results in ichase results


@dataclass
class ContainmentReport:
    status: str  # "holds" | "violated" | "inconclusive"
    witness: Optional[list[Atom]]
    pchase_run: ChaseRun
    ichase_run: ChaseRun


def _null_components(facts: Iterable[Atom]) -> tuple[list[Atom], list[list[Atom]]]:
    """Split facts into ground ones and groups connected by shared nulls."""
    parent: dict[Null, Null] = {}

    def find(x: Null) -> Null:
        while parent[x] is not x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: Null, b: Null) -> None:
        ra, rb = find(a), find(b)
        if ra is not rb:
            parent[ra] = rb

    ground: list[Atom] = []
    with_nulls: list[tuple[Atom, list[Null]]] = []
    for fact in facts:
        ns = list(fact.nulls())
        if not ns:
            ground.append(fact)
            continue
        for n in ns:
            parent.setdefault(n, n)
        for a, b in zip(ns, ns[1:]):
            union(a, b)
        with_nulls.append((fact, ns))
    groups: dict[Null, list[Atom]] = {}
    for fact, ns in with_nulls:
        groups.setdefault(find(ns[0]), []).append(fact)
    return ground, list(groups.values())


def compare_chase_containment(
    program: Program, max_steps: Optional[int] = None
) -> ContainmentReport:
    """Check that the pchase result embeds into the ichase result under a
    single global mapping (identity on constants, nulls to anything).

    Null-connected components share no nulls with each other, so checking
    them independently still yields one global mapping."""
    p_run = run_chase(program, pchase(), max_steps=max_steps)
    i_run = run_chase(program, ichase(), max_steps=max_steps)
    if p_run.status != FIXPOINT or i_run.status != FIXPOINT:
        return ContainmentReport("inconclusive", None, p_run, i_run)
    target = i_run.result
    ground, components = _null_components(p_run.result)
    for fact in ground:
        if fact not in target:
            return ContainmentReport("violated", [fact], p_run, i_run)
    for component in components:
        if exists_homomorphism(component, target, free_nulls=True) is None:
            return ContainmentReport("violated", component, p_run, i_run)
    return ContainmentReport("holds", None, p_run, i_run)
