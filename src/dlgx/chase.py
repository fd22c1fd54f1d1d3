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
runs it again, seeded only from the facts that hold a null.  At the
fixpoint, a trigger whose values hold no null either fired, so its head
is present, or was blocked by a witness; freezing keeps both true, so
either blocker blocks it again.  A trigger whose values hold a null uses
a fact that holds one, so the smaller seed still finds every trigger
whose outcome can change.  The four names users know are combinations of
the two:

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

Each rule is compiled once into a :class:`RulePlan`, whose body is a
:class:`BodyPlan` (a query compiles into one too).  Its body variables
become slots in sorted-name order, so a trigger is just ``(rule id,
values)``.  For each body atom taken as the pivot (matched against the
level's new facts), the plan holds a fixed join order over the other
body atoms; each step says, per position, whether it checks a constant,
checks a slot bound earlier, binds a new slot, or repeats a slot bound
earlier in the same atom, and its bound positions select the index row
to scan.  A head template builds the instantiated head from the values,
the nulls the trigger would mint and the head's constants; the blocker
checks that head, and firing adds the same atoms.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
QUERY_SATISFIED = "query-satisfied"


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

# An atom's shape: (position, term, mobile?) per term, where a mobile term
# (a variable, or a null the search may remap) can bind and a rigid one
# must match exactly.  The searches below are module-level recursions, not
# closures, so a finished search leaves no reference cycle for the garbage
# collector.
Shape = tuple[tuple[int, Term, bool], ...]


def _shape(atom: Atom, target: Instance, variables: bool, nulls: bool) -> Shape:
    """Variables are mobile if ``variables``; unfrozen nulls if ``nulls``."""
    return tuple([
        (
            i,
            t,
            (variables and isinstance(t, Variable))
            or (nulls and isinstance(t, Null) and not target.is_frozen(t)),
        )
        for i, t in enumerate(atom.terms)
    ])


def _bound_positions(shape: Shape, subst: dict[Term, Term]) -> list[tuple[int, Term]]:
    out = []
    for i, t, mobile in shape:
        if mobile:
            v = subst.get(t)
            if v is not None:
                out.append((i, v))
        else:
            out.append((i, t))
    return out


def _match(shape: Shape, fact: Atom, subst: dict[Term, Term]) -> Optional[dict[Term, Term]]:
    """Bindings needed to map an atom of this shape onto ``fact``, or None."""
    terms = fact.terms
    updates: dict[Term, Term] = {}
    for i, t, mobile in shape:
        f = terms[i]
        if mobile:
            bound = subst.get(t)
            if bound is None:
                bound = updates.get(t)
            if bound is None:
                updates[t] = f
            elif bound is not f and bound != f:
                return None
        elif t is not f and t != f:
            return None
    return updates


def _homomorphisms(
    atoms: list[tuple[str, Shape]],
    used: list[bool],
    subst: dict[Term, Term],
    target: Instance,
    k: int,
) -> Iterator[dict[Term, Term]]:
    if k == len(atoms):
        yield dict(subst)
        return
    # most selective atom under the current bindings, ties by position
    best = -1
    cands: list[Atom] = []
    for i, (predicate, shape) in enumerate(atoms):
        if not used[i]:
            rows = target.candidates(predicate, _bound_positions(shape, subst))
            if best < 0 or len(rows) < len(cands):
                best, cands = i, rows
    shape = atoms[best][1]
    used[best] = True
    for fact in cands:
        updates = _match(shape, fact, subst)
        if updates is None:
            continue
        subst.update(updates)
        yield from _homomorphisms(atoms, used, subst, target, k + 1)
        for key in updates:
            del subst[key]
    used[best] = False


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
    atoms = [(atom.predicate, _shape(atom, target, True, free_nulls)) for atom in pattern]
    subst: dict[Term, Term] = dict(initial) if initial else {}
    return _homomorphisms(atoms, [False] * len(atoms), subst, target, 0)


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


def _embeds(
    shapes: list[tuple[str, Shape]],
    k: int,
    subst: dict[Term, Term],
    used: set[Term],
    target: Instance,
) -> bool:
    if k == len(shapes):
        return True
    predicate, shape = shapes[k]
    for fact in target.candidates(predicate, _bound_positions(shape, subst)):
        updates = _match(shape, fact, subst)
        if updates is None:
            continue
        images = list(updates.values())
        if any(not isinstance(v, Null) for v in images):
            continue
        if any(v in used for v in images) or len(set(images)) != len(images):
            continue
        subst.update(updates)
        used.update(images)
        if _embeds(shapes, k + 1, subst, used, target):
            return True
        for key, value in updates.items():
            del subst[key]
            used.discard(value)
    return False


def exists_isomorphic_embedding(fact_set: Sequence[Atom], target: Instance) -> bool:
    """Is some subset of ``target`` an isomorphic copy of ``fact_set``?

    The mapping is the identity on constants (and frozen nulls) and an
    injective null-to-null assignment, so its inverse is a homomorphism
    from the image back onto ``fact_set``.
    """
    atoms = sorted(fact_set, key=lambda a: len(target.facts_for(a.predicate)))
    shapes = [(atom.predicate, _shape(atom, target, False, True)) for atom in atoms]
    return _embeds(shapes, 0, {}, set(), target)


# ---------------------------------------------------------------------------
# Compiled rules
#
# A trigger is a pair (rule id, values): the images of the rule's body
# variables, one per slot, with slots in sorted variable-name order.
Trigger = tuple[int, tuple[Term, ...]]

# One step of a join: (predicate, keys, binds, checks).
#   keys    (position, slot, constant) for each position fixed before the
#           step is reached, by a rule constant (slot -1) or by a slot an
#           earlier step bound; the shortest index row among them gives
#           the candidate facts
#   binds   (position, slot) for the first occurrence of a variable
#   checks  (position, slot, constant) that the candidate facts must also
#           match: a repeat of a slot bound earlier in the same atom, and
#           every key when there is more than one
Step = tuple[str, tuple, tuple, tuple]


@dataclass(frozen=True)
class BodyPlan:
    """A conjunction of atoms, a rule body or a query, compiled once for
    matching seeded from new facts.

    ``joins[p]`` enumerates the atoms with atom ``p`` as the pivot: its
    first step matches the pivot against one fact (constants and repeated
    variables become checks), the rest visit the other atoms in a fixed
    order, most bound positions first.
    """

    slots: tuple[str, ...]
    joins: tuple[tuple[Step, ...], ...]

    def matches(
        self, instance: Instance, delta: dict[str, list[Atom]], first: bool = False
    ) -> set[tuple[Term, ...]]:
        """The values of every match into ``instance`` that maps at least
        one atom onto a ``delta`` fact (grouped by predicate).  With
        ``first``, stop after the first pivot join that finds one."""
        found: set[tuple[Term, ...]] = set()
        values: list = [None] * len(self.slots)
        for steps in self.joins:
            pivot_facts = delta.get(steps[0][0])
            if pivot_facts:
                _extend(steps, 0, pivot_facts, values, instance, found)
                if first and found:
                    break
        return found


@dataclass(frozen=True)
class RulePlan:
    """A rule compiled once for trigger enumeration and firing.

    ``body`` matches the rule's body.  ``head`` gives, per head atom, an
    index into the environment ``values + fresh nulls + head constants``:
    a slot, an existential (in sorted-name order, as the null factory
    mints them) or a constant.
    """

    rule_id: int
    body: BodyPlan
    head: tuple[tuple[str, tuple[int, ...]], ...]
    fresh: int
    constants: tuple[Term, ...]

    def instantiate(self, values: tuple[Term, ...], nulls: Sequence[Null]) -> list[Atom]:
        env = (*values, *nulls, *self.constants)
        return [Atom(predicate, [env[i] for i in terms]) for predicate, terms in self.head]


def _compile_step(atom: Atom, slot_of: dict[str, int], bound: set[int], pivot: bool) -> Step:
    keys, binds, checks = [], [], []
    for pos, t in enumerate(atom.terms):
        if not isinstance(t, Variable):
            (checks if pivot else keys).append((pos, -1, t))
            continue
        slot = slot_of[t.name]
        if slot in bound:
            keys.append((pos, slot, None))
        elif any(s == slot for _, s in binds):
            checks.append((pos, slot, None))
        else:
            binds.append((pos, slot))
    bound.update(s for _, s in binds)
    if len(keys) > 1:
        checks.extend(keys)
    return (atom.predicate, tuple(keys), tuple(binds), tuple(checks))


def _join_order(body: Sequence[Atom], pivot: int) -> list[int]:
    """The other body atoms, each next one the atom with the most positions
    fixed by constants and by variables already bound; ties by index."""
    bound = {v.name for v in body[pivot].variables()}
    rest = [i for i in range(len(body)) if i != pivot]
    order = []
    while rest:
        best = max(
            rest,
            key=lambda i: (
                sum(not isinstance(t, Variable) or t.name in bound for t in body[i].terms),
                -i,
            ),
        )
        rest.remove(best)
        order.append(best)
        bound.update(v.name for v in body[best].variables())
    return order


@lru_cache(maxsize=1024)
def compile_body(body: tuple[Atom, ...]) -> BodyPlan:
    """Compile a conjunction of atoms, a rule body or a query, into its
    slots and one join per pivot atom."""
    slots = tuple(sorted({v.name for a in body for v in a.variables()}))
    slot_of = {name: i for i, name in enumerate(slots)}
    joins = []
    for pivot in range(len(body)):
        bound: set[int] = set()
        steps = [_compile_step(body[pivot], slot_of, bound, pivot=True)]
        for i in _join_order(body, pivot):
            steps.append(_compile_step(body[i], slot_of, bound, pivot=False))
        joins.append(tuple(steps))
    return BodyPlan(slots, tuple(joins))


@lru_cache(maxsize=1024)
def compile_rule(rule: Rule) -> RulePlan:
    body = compile_body(rule.body)
    existentials = sorted(rule.existential_vars)
    env = {name: i for i, name in enumerate(body.slots)}
    env.update((name, len(body.slots) + j) for j, name in enumerate(existentials))
    constants: list[Term] = []
    head = []
    for atom in rule.head:
        terms = []
        for t in atom.terms:
            if isinstance(t, Variable):
                terms.append(env[t.name])
            else:
                terms.append(len(env) + len(constants))
                constants.append(t)
        head.append((atom.predicate, tuple(terms)))
    return RulePlan(rule.id, body, tuple(head), len(existentials), tuple(constants))


def _rows(step: Step, values: list, instance: Instance) -> list[Atom]:
    """Candidate facts for a join step, from the shortest index row its
    keys select, or every fact of its predicate when no key fixes it."""
    predicate, keys = step[0], step[1]
    rows: Optional[list[Atom]] = None
    for pos, slot, const in keys:
        row = instance.index.get((predicate, pos, const if slot < 0 else values[slot]))
        if row is None:
            return []
        if rows is None or len(row) < len(rows):
            rows = row
    return instance.facts_for(predicate) if rows is None else rows


def _extend(
    steps: Sequence[Step],
    k: int,
    rows: Sequence[Atom],
    values: list,
    instance: Instance,
    found: set[tuple[Term, ...]],
) -> None:
    """Match join step ``k`` against ``rows`` and run the steps after it,
    adding the values of every full match to ``found``."""
    binds, checks = steps[k][2], steps[k][3]
    last = k + 1 == len(steps)
    for fact in rows:
        terms = fact.terms
        for pos, slot in binds:
            values[slot] = terms[pos]
        for pos, slot, const in checks:
            want = const if slot < 0 else values[slot]
            t = terms[pos]
            if t is not want and t != want:
                break
        else:
            if last:
                found.add(tuple(values))
            else:
                rows_next = _rows(steps[k + 1], values, instance)
                _extend(steps, k + 1, rows_next, values, instance, found)


def _sort_key(values: tuple[Term, ...]) -> tuple:
    return tuple(map(term_sort_key, values))


def fire_trigger(
    head: Sequence[Atom], instance: Instance, nulls: NullFactory, fresh: int
) -> list[Atom]:
    """Apply a trigger: add its instantiated head, which used the next
    ``fresh`` nulls of ``nulls``, and return the facts that were new."""
    nulls.counter += fresh
    return [fact for fact in head if instance.add(fact)]


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
    status: str  # "fixpoint" | "step-limit-reached" | "query-satisfied"
    fired_steps: int
    resumptions_used: int
    trace: Optional[list[TraceRecord]] = None


def group_by_predicate(facts: Iterable[Atom]) -> dict[str, list[Atom]]:
    grouped: dict[str, list[Atom]] = {}
    for f in facts:
        grouped.setdefault(f.predicate, []).append(f)
    return grouped


def _level_triggers(
    program: Program, instance: Instance, delta: Sequence[Atom]
) -> list[Trigger]:
    """Triggers whose body maps into ``instance`` using >= 1 delta fact,
    sorted by rule id, then by the term order of their values."""
    delta_by_pred = group_by_predicate(delta)
    out: list[Trigger] = []
    for plan in sorted(map(compile_rule, program.rules), key=lambda p: p.rule_id):
        found = plan.body.matches(instance, delta_by_pred)
        out.extend((plan.rule_id, vs) for vs in sorted(found, key=_sort_key))
    return out


def run_chase(
    program: Program,
    variant: ChaseVariant,
    *,
    max_steps: Optional[int] = None,
    trace: bool = False,
    on_level: Optional[Callable[[Instance, list[Atom]], bool]] = None,
) -> ChaseRun:
    """Execute one chase variant over the program's facts.

    ``max_steps`` bounds the number of *fired* steps across all epochs.
    An epoch that blocks no trigger ends the run: the next epoch would
    block every trigger on that trigger's own output, so it could add
    nothing.

    ``on_level(instance, new_facts)`` is called once with the input facts
    before any trigger, after every level with the facts that level added,
    and with an empty list when an epoch reaches its fixpoint.  Returning
    True on the input facts or on a level's facts ends the run with status
    ``query-satisfied``; returning True at an epoch's fixpoint keeps status
    ``fixpoint`` and skips the remaining resumptions.  A level cut short by
    the step budget gets no call.  Without ``on_level`` a run ends at a
    fixpoint or at the step budget.

    A resumption considers only the triggers that use a fact holding a
    null (see the module docstring), so the trace has no record of the
    null-free triggers it re-blocks.  They still count as blocked: once
    one has come up, no resumption ends the run for blocking nothing.

    Past an epoch's first level, every trigger uses a fact that the level
    before added, so no trigger comes up twice in one epoch.
    """
    blocker = variant.blocker
    if blocker is None and max_steps is None and has_nontermination_risk(program):
        raise NonTerminationRiskError(
            "oblivious chase on a recursive existential program may not "
            "terminate; rerun with a step budget (--max-steps)"
        )
    plans = {rule.id: compile_rule(rule) for rule in program.rules}
    instance = Instance.from_facts(program.facts)
    nulls = NullFactory()
    records: Optional[list[TraceRecord]] = [] if trace else None
    fired_steps = 0
    resumptions_used = 0
    status = FIXPOINT
    delta: Sequence[Atom] = list(instance)
    if on_level is not None and on_level(instance, delta):
        status = QUERY_SATISFIED
    level = 0
    # has a trigger with null-free values come up?  A resumption would
    # re-block it, though it no longer enumerates it
    null_free_seen = False

    for epoch in range(variant.resumptions + 1):
        blocked = 0
        if epoch > 0:
            freeze_nulls(instance)
            resumptions_used += 1
            delta = [f for f in instance if any(isinstance(t, Null) for t in f.terms)]
            blocked = int(null_free_seen)
        while delta and status == FIXPOINT:
            added: list[Atom] = []
            for rule_id, values in _level_triggers(program, instance, delta):
                plan = plans[rule_id]
                if not null_free_seen:
                    null_free_seen = not any(isinstance(t, Null) for t in values)
                head = plan.instantiate(values, nulls.preview(plan.fresh, instance.active_epoch))
                block = None
                if blocker == ISOMORPHISM:
                    if exists_isomorphic_embedding(head, instance):
                        block = blocker
                elif blocker is not None:
                    if exists_homomorphism(head, instance, free_nulls=True) is not None:
                        block = blocker
                if block is None and max_steps is not None and fired_steps >= max_steps:
                    status = STEP_LIMIT
                    break
                if records is not None:
                    records.append(
                        TraceRecord(
                            rule_id, dict(zip(plan.body.slots, values)), block is None, block, level
                        )
                    )
                if block is not None:
                    blocked += 1
                    continue
                added.extend(fire_trigger(head, instance, nulls, plan.fresh))
                fired_steps += 1
            delta = added
            level += 1
            if status == FIXPOINT and delta and on_level is not None and on_level(instance, delta):
                status = QUERY_SATISFIED
        if status != FIXPOINT:
            break
        if on_level is not None and on_level(instance, []):
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
