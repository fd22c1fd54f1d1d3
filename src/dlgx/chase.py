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
runs it again, starting from the triggers the last epoch blocked whose
values hold a null.  At the fixpoint every trigger has been decided.  One
that fired, in this epoch or an earlier one, finds its own output and is
blocked again.  One whose values hold no null was blocked by a witness
that freezing keeps.  Only a trigger blocked on a null can now fire,
since that null is rigid once frozen; past a resumption's first level,
triggers come from the facts the level before added, as in any epoch.
So a trigger that fired in an earlier epoch gets no trace record at a
resumption.  The four names users know are combinations of the two:

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

One compiled matcher serves rules, queries, blockers and containment.
Each rule is compiled once into a :class:`RulePlan`, whose body is a
:class:`BodyPlan`; a query compiles into one too, of its core
(:func:`compile_query`).  Its body variables
become slots in sorted-name order, so a trigger is just ``(plan,
values)``.  For each body atom taken as the pivot (matched against the
level's new facts, or for a query against the index row its constants
select), the plan holds a fixed join order over the other body atoms;
each step says, per position, whether it checks a constant, checks a
slot bound earlier, binds a new slot, or repeats a slot bound earlier in
the same atom, and its bound positions select the index row to scan.
The blockers search for a rule's head before it is built, with one plan
per signature: which frontier values are unfrozen nulls, and which of
them are equal.  Only a trigger that fires mints nulls and builds atoms.
"""
from __future__ import annotations

import gc
import sys
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from itertools import chain, count
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, Optional, Sequence

from .analysis import compute_affected
from .model import (
    Atom,
    Instance,
    Null,
    Position,
    Program,
    Rule,
    Term,
    Variable,
    format_term,
    freeze_nulls,
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
# Compiled joins
#
# An atom compiles from its predicate and one code per position: a slot,
# or a term to match as it is.  Matching fills a list of values, one per
# slot.

# One step of a join: (predicate, keys, binds, checks).
#   keys    (column, slot, constant) for each position fixed before the
#           step is reached, by a rigid term (slot None) or by a bound
#           slot; the shortest index row among them gives the candidates
#   binds   (index, slot) for the first occurrence of a slot
#   checks  (index, slot, constant) the candidates must also match: a
#           repeat of a slot bound in the same atom, and every key when
#           there are several or the step is a pivot
# A key's column counts terms from 0, as ``Instance.index`` does; binds
# and checks index the flat fact ``(predicate, *terms)``, one further on.
Step = tuple[str, tuple, tuple, tuple]
Join = tuple[Step, ...]
_ALL = sys.maxsize  # no limit on the number of matches


@dataclass(frozen=True)
class BodyPlan:
    """A conjunction of atoms, a rule body or a query, compiled once.

    ``joins[p]`` enumerates the atoms with atom ``p`` as the pivot: its
    first step matches the pivot against one fact (constants and repeated
    variables become checks), the rest visit the other atoms in a fixed
    order, most bound positions first.  ``cuts`` caches, per tuple of
    outputs, their projection and each join split where they are bound.
    """

    slots: tuple[str, ...]
    joins: tuple[Join, ...]
    cuts: dict = field(default_factory=dict, compare=False, repr=False)

    def matches(
        self, instance: Instance, delta: dict[str, Collection[Atom]], limit: int = _ALL
    ) -> set[tuple[Term, ...]]:
        """The values of every match into ``instance`` that maps at least
        one atom onto a ``delta`` fact (grouped by predicate), stopping
        at the ``limit``-th distinct one."""
        found: set[tuple[Term, ...]] = set()
        values: list = [None] * len(self.slots)
        for steps in self.joins:
            pivot_facts = delta.get(steps[0][0])
            if pivot_facts and _extend(
                steps, 0, pivot_facts, values, instance, tuple, found, limit
            ):
                break
        return found

    def evaluate(
        self, instance: Instance, outputs: Sequence[str] = (), limit: int = _ALL
    ) -> set[tuple[Term, ...]]:
        """The distinct images of ``outputs`` (every slot when empty) over
        all matches into ``instance``, stopping at the ``limit``-th.  The
        pivot is the atom whose constants select the fewest facts.

        A match stops at the first step after which every output is bound.
        The steps after it, when one of them binds a slot, only check that
        the match extends to the whole body, up to the first extension
        they find, so they are never joined in full."""
        outputs = tuple(outputs)
        cut = self.cuts.get(outputs)
        if cut is None:
            cut = self.cuts[outputs] = self._cut(outputs)
        project, splits = cut
        join: Join = ()
        rest: Join = ()
        rows: Collection[Atom] = []
        for steps, after in splits:
            pivot_rows = _rows(steps[0], [], instance)
            if not join or len(pivot_rows) < len(rows):
                join, rest, rows = steps, after, pivot_rows
        leaf = project
        if rest:
            first, checked = rest[0], set()

            def leaf(values: list) -> Optional[tuple]:
                if _extend(
                    rest, 0, _rows(first, values, instance), values, instance, _exists, checked, 1
                ):
                    return project(values)
                return None

        return _search(join, [None] * len(self.slots), instance, leaf, limit, rows)

    def _cut(self, outputs: tuple[str, ...]) -> tuple[Callable[[list], tuple], tuple]:
        """The projection onto ``outputs`` and, per join, its steps up to
        the one that binds the last output and the steps after it.  A
        join whose later steps bind no slot only checks them, so it is
        kept whole, as every join is when the outputs are every slot."""
        slots = [self.slots.index(name) for name in outputs]
        project = _projection(slots) if slots else tuple
        if not slots or len(set(slots)) == len(self.slots):
            return project, tuple((steps, ()) for steps in self.joins)
        splits = []
        for steps in self.joins:
            unbound, k = set(slots), 0
            while unbound:
                unbound.difference_update([slot for _, slot in steps[k][2]])
                k += 1
            rest = steps[k:]
            splits.append((steps[:k], rest) if any(step[2] for step in rest) else (steps, ()))
        return project, tuple(splits)


@dataclass(frozen=True)
class RulePlan:
    """A rule compiled once for trigger enumeration and firing.

    ``body`` matches the rule's body.  ``head`` gives, per head atom, an
    index into the environment ``values + fresh nulls + head constants``:
    a slot, an existential (in sorted-name order, as the chase mints
    their nulls) or a constant.  ``blockers`` caches the head's search
    per signature of its ``frontier`` slots (see :meth:`_Head.bind`).
    """

    rule_id: int
    body: BodyPlan
    head: tuple[tuple[str, tuple[int, ...]], ...]
    fresh: int
    constants: tuple[Term, ...]
    frontier: tuple[int, ...]
    blockers: dict = field(default_factory=dict, compare=False, repr=False)


# A trigger is (rule plan, values): the images of the rule's body variables.
Trigger = tuple[RulePlan, tuple[Term, ...]]


def _compile_step(predicate: str, codes: tuple, bound: set[int], pivot: bool) -> Step:
    keys, binds, checks = [], [], []
    for pos, code in enumerate(codes):
        if not isinstance(code, int):
            keys.append((pos, None, code))
        elif code in bound:
            keys.append((pos, code, None))
        elif any(s == code for _, s in binds):
            checks.append((pos + 1, code, None))
        else:
            binds.append((pos + 1, code))
    bound.update(s for _, s in binds)
    if pivot or len(keys) > 1:
        checks.extend((pos + 1, slot, const) for pos, slot, const in keys)
    return (predicate, tuple(keys), tuple(binds), tuple(checks))


def _join(
    atoms: Sequence[tuple[str, tuple]], bound: set[int], pivot: Optional[int] = None
) -> Join:
    """A join over ``atoms`` given the slots already ``bound``, from the
    ``pivot`` or else from the atom with the most positions fixed; each
    next atom has the most positions fixed by then, ties by index."""
    rest = list(range(len(atoms)))
    steps = []
    while rest:
        if pivot is not None and not steps:
            i = pivot
        else:
            i = max(
                rest,
                key=lambda i: (
                    sum(not isinstance(c, int) or c in bound for c in atoms[i][1]),
                    -i,
                ),
            )
        rest.remove(i)
        steps.append(_compile_step(*atoms[i], bound, pivot=i == pivot))
    return tuple(steps)


@lru_cache(maxsize=1024)
def compile_body(body: tuple[Atom, ...]) -> BodyPlan:
    """Compile a conjunction of atoms, a rule body or a query, into its
    slots and one join per pivot atom."""
    slots = tuple(sorted({v.name for a in body for v in a.variables()}))
    slot_of = {name: i for i, name in enumerate(slots)}
    atoms = [
        (a.predicate, tuple(slot_of[t.name] if isinstance(t, Variable) else t for t in a.terms))
        for a in body
    ]
    return BodyPlan(slots, tuple(_join(atoms, set(), pivot) for pivot in range(len(atoms))))


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
    frontier = tuple(sorted({i for _, terms in head for i in terms if i < len(body.slots)}))
    return RulePlan(rule.id, body, tuple(head), len(existentials), tuple(constants), frontier)


def _rows(step: Step, values: list, instance: Instance) -> Collection[Atom]:
    """Candidate facts for a join step: the shortest row its keys select
    in its predicate's columns, or its predicate's table when no key
    fixes it.  A row of one fact is the fact itself; it is the shortest
    row there can be, so it comes back at once, in a 1-tuple.  The
    columns are looked up once, and each key reads its column with the
    term alone."""
    predicate, keys = step[0], step[1]
    columns = instance.index.get(predicate)
    if columns is None:
        return ()
    rows: Optional[list[Atom]] = None
    for pos, slot, const in keys:
        row = columns[pos].get(const if slot is None else values[slot])
        if row is None:
            return ()
        if row.__class__ is not list:
            return (row,)
        if rows is None or len(row) < len(rows):
            rows = row
    return instance.facts_for(predicate) if rows is None else rows


def _extend(
    steps: Join,
    k: int,
    rows: Collection[Atom],
    values: list,
    instance: Instance,
    leaf: Callable[[list], Optional[tuple]],
    found: set[tuple[Term, ...]],
    limit: int,
) -> bool:
    """Match join step ``k`` against ``rows`` and run the steps after it.
    A full match adds ``leaf(values)``, unless None, to ``found``; True
    once ``found`` holds ``limit`` rows, which stops the join."""
    binds, checks = steps[k][2], steps[k][3]
    last = k + 1 == len(steps)
    for fact in rows:
        for i, slot in binds:
            values[slot] = fact[i]
        for i, slot, const in checks:
            want = const if slot is None else values[slot]
            t = fact[i]
            if t is not want and t != want:
                break
        else:
            if last:
                row = leaf(values)
                if row is not None:
                    found.add(row)
                    if len(found) >= limit:
                        return True
            elif _extend(
                steps, k + 1, _rows(steps[k + 1], values, instance), values, instance,
                leaf, found, limit,
            ):
                return True
    return False


def _search(
    join: Join,
    values: list,
    instance: Instance,
    leaf: Callable[[list], Optional[tuple]] = tuple,
    limit: int = _ALL,
    rows: Optional[Collection[Atom]] = None,
) -> set[tuple[Term, ...]]:
    """Run ``join`` over the whole instance; its first step scans ``rows``
    if given, else the rows its keys select."""
    found: set[tuple[Term, ...]] = set()
    if not join:  # no atoms: one empty match
        found.add(leaf(values))
    else:
        rows = _rows(join[0], values, instance) if rows is None else rows
        _extend(join, 0, rows, values, instance, leaf, found, limit)
    found.discard(None)
    return found


def _exists(values: list) -> tuple:
    """The leaf of an existence check: any match gives the same row."""
    return ()


def _projection(slots: Sequence[int]) -> Callable[[list], tuple]:
    if len(slots) == 1:
        (i,) = slots
        return lambda values: (values[i],)
    return itemgetter(*slots)


# ---------------------------------------------------------------------------
# Patterns: blockers and containment
#
# A pattern's mobile terms, which a mapping may send elsewhere, become
# slots 0, 1, ...; its k-th rigid term becomes slot -k, read from the end
# of the values.  So a plan depends only on the pattern's shape, and the
# instantiated heads of one rule share it whatever their terms.


@lru_cache(maxsize=1024)
def compile_pattern(shape: tuple[tuple[str, tuple], ...]) -> Join:
    return _join(shape, {c for _, codes in shape for c in codes if c < 0})


def _bind(pattern: Iterable[Atom], nulls_from: int) -> tuple[Join, list, int, Iterable[Term]]:
    """The plan for ``pattern``, its starting values, and the number and
    order of its mobile terms: nulls of epoch ``nulls_from`` on, variables."""
    if isinstance(pattern, _Head):
        return pattern.bind(nulls_from)
    slot_of: dict[Term, int] = {}
    rigid: list[Term] = []
    shape = []
    for atom in pattern:
        codes = []
        for t in atom.terms:
            if isinstance(t, Null) and t.epoch >= nulls_from or isinstance(t, Variable):
                codes.append(slot_of.setdefault(t, len(slot_of)))
            else:
                rigid.append(t)
                codes.append(-len(rigid))
        shape.append((atom.predicate, tuple(codes)))
    values = [None] * len(slot_of) + rigid[::-1]
    return compile_pattern(tuple(shape)), values, len(slot_of), slot_of


class _Head:
    """A trigger's head, built only when read, with its nulls numbered as
    the chase would mint them: ``minted + 1`` on, in ``epoch``."""

    __slots__ = ("plan", "values", "minted", "epoch")

    def __init__(self, plan: RulePlan, values: tuple[Term, ...], minted: int, epoch: int) -> None:
        self.plan, self.values, self.minted, self.epoch = plan, values, minted, epoch

    def __iter__(self) -> Iterator[Atom]:
        plan, minted = self.plan, self.minted
        nulls = map(Null, range(minted + 1, minted + plan.fresh + 1), (self.epoch,) * plan.fresh)
        env = (*self.values, *nulls, *plan.constants)
        for predicate, terms in plan.head:
            yield Atom(predicate, [env[i] for i in terms])

    def _term(self, code: int) -> Term:
        n = len(self.values)
        return self.values[code] if code < n else Null(self.minted + code - n + 1, self.epoch)

    def bind(self, nulls_from: int) -> tuple[Join, list, int, Iterable[Term]]:
        """``_bind`` unbuilt.  The signature holds, per frontier slot, -1 if
        its value is rigid, else the first slot with the same unfrozen null."""
        plan, values = self.plan, self.values
        signature = []
        for i in plan.frontier:
            v = values[i]
            signature.append(values.index(v) if v.__class__ is Null and v.epoch >= nulls_from else -1)
        signature = tuple(signature)
        if signature not in plan.blockers:
            plan.blockers[signature] = _head_search(plan, dict(zip(plan.frontier, signature)))
        join, free, mobile, rest = plan.blockers[signature]
        return join, [*free, *values, *rest], len(free), map(self._term, mobile)


def _head_search(plan: RulePlan, first: dict[int, int]) -> tuple[Join, tuple, tuple, tuple]:
    """The search for ``plan``'s head over ``[None] * n + values + rest``,
    the environment with a None for each fresh null.  ``first`` maps each
    frontier slot to -1 if its value is rigid, else to the first slot
    holding its unfrozen null.  The n free slots are the existentials and
    those nulls; every other term is a key read from the environment.
    Returns the plan, the n Nones, each free slot's code and ``rest``."""
    env, free = len(plan.body.slots) + plan.fresh, {}
    tail = env + len(plan.constants)

    def code(c: int) -> int:
        return c - tail if c >= env or first.get(c, 0) < 0 else free.setdefault(first.get(c, c), len(free))

    shape = tuple((predicate, tuple(map(code, codes))) for predicate, codes in plan.head)
    return compile_pattern(shape), (None,) * len(free), tuple(free), (None,) * plan.fresh + plan.constants


def exists_homomorphism(
    pattern: Iterable[Atom], target: Instance
) -> Optional[dict[Term, Term]]:
    """A mapping sending every pattern atom onto a fact of ``target``, or
    None.

    Variables and the pattern's unfrozen nulls are free (they may land on
    constants or nulls); frozen nulls and constants are rigid.
    """
    join, values, _, mobile = _bind(pattern, target.active_epoch)
    for row in _search(join, values, target, limit=1):
        return dict(zip(mobile, row))
    return None


def exists_isomorphic_embedding(fact_set: Iterable[Atom], target: Instance) -> bool:
    """Is some subset of ``target`` an isomorphic copy of ``fact_set``?

    The mapping is the identity on constants (and frozen nulls) and an
    injective null-to-null assignment, so its inverse is a homomorphism
    from the image back onto ``fact_set``.
    """
    join, values, n, _ = _bind(fact_set, target.active_epoch)

    def injective_on_nulls(values: list) -> Optional[tuple]:
        images = values[:n]
        if len(set(images)) == n and all(isinstance(t, Null) for t in images):
            return ()
        return None

    return bool(_search(join, values, target, injective_on_nulls, limit=1))


# ---------------------------------------------------------------------------
# Queries run as their cores
#
# A query's core is a least subset of its atoms that the whole query maps
# into with its outputs and constants fixed.  A query and its core have
# the same answers on every instance, nulls included (Chandra and Merlin,
# STOC 1977), so a query's atoms that fold onto others are never joined.

CORE_ATOMS = 8  # a longer query runs as written: finding a core is NP-complete


def _maps_into(
    pattern: Sequence[Atom], target: Sequence[Atom], fixed: Collection[Variable]
) -> Optional[dict[Term, Term]]:
    """A mapping of the variables of ``pattern`` outside ``fixed`` under
    which every pattern atom is one of ``target``, or None.  A plain
    backtracking search, since both sides are a query's atoms, at most
    ``CORE_ATOMS`` of them; each next atom has the most terms fixed by
    then, ties in written order."""
    candidates: dict[str, list[tuple[Term, ...]]] = {}
    for fact in target:
        candidates.setdefault(fact.predicate, []).append(fact.terms)
    rest, seen, order = list(pattern), set(fixed), []
    while rest:
        atom = max(rest, key=lambda a: sum(t in seen or not isinstance(t, Variable) for t in a.terms))
        rest.remove(atom)
        order.append(atom)
        seen.update(atom.variables())

    def extend(i: int, mapping: dict[Term, Term]) -> Optional[dict[Term, Term]]:
        if i == len(order):
            return mapping
        atom = order[i]
        for terms in candidates.get(atom.predicate, ()):
            image = dict(mapping)
            if all(
                image.setdefault(t, u) == u if isinstance(t, Variable) and t not in fixed else t == u
                for t, u in zip(atom.terms, terms)
            ):
                found = extend(i + 1, image)
                if found is not None:
                    return found
        return None

    return extend(0, {})


def query_core(atoms: tuple[Atom, ...], outputs: Collection[str]) -> tuple[Atom, ...]:
    """The core of the query with these ``atoms`` and ``outputs``.

    Each atom, the last first, is dropped while the whole query still
    maps into the rest.  One pass finds the core: an atom that cannot be
    dropped from the query cannot be dropped from a part the query maps
    into.  Only an atom with a mobile variable and another atom of its
    predicate can be dropped, so a query in which no predicate repeats
    is its own core.  A query of over ``CORE_ATOMS`` atoms is kept as
    written."""
    predicates = [a.predicate for a in atoms]
    if len(atoms) > CORE_ATOMS or len(set(predicates)) == len(predicates):
        return atoms
    fixed = {Variable(name) for name in outputs}
    core = list(dict.fromkeys(atoms))
    for atom in core[::-1]:
        rest = [a for a in core if a != atom]
        if (
            any(isinstance(t, Variable) and t not in fixed for t in atom.terms)
            and any(a.predicate == atom.predicate for a in rest)
            and _maps_into(core, rest, fixed) is not None
        ):
            core = rest
    return tuple(core)


@lru_cache(maxsize=1024)
def compile_query(
    atoms: tuple[Atom, ...], outputs: tuple[str, ...]
) -> tuple[BodyPlan, tuple[tuple[str, Term], ...]]:
    """The plan of the query's core, and the retraction onto the core:
    each written variable the core dropped, by name, with its image, a
    core variable or a constant.  The retraction fixes every variable of
    the core, the outputs among them."""
    core = query_core(atoms, outputs)
    kept = {v for a in core for v in a.variables()}
    dropped = {v for a in atoms for v in a.variables()} - kept
    retraction = _maps_into(atoms, core, kept) if dropped else {}
    return compile_body(core), tuple((v.name, t) for v, t in sorted(retraction.items()))


def fire_trigger(head: Iterable[Atom], instance: Instance) -> list[Atom]:
    """Apply a trigger: add its instantiated head and return the facts
    that were new."""
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


class TermRank(dict):
    """Term -> int in :func:`term_sort_key` order: the given constants by
    symbol, then nulls by epoch and counter (below 2**64).  A null's rank
    is computed when asked, never stored; any other term is a KeyError."""

    def __init__(self, constants: Iterable[str]) -> None:
        super().__init__(zip(sorted(set(constants)), count()))

    def __missing__(self, term: Term) -> int:
        if isinstance(term, Null):
            return len(self) + (term.epoch << 64) + term.counter
        raise KeyError(f"{format_term(term)} is not a ranked constant")


@dataclass(frozen=True)
class CompiledProgram:
    """The state every chase of one program starts from, which depends on
    the program alone: its rule plans sorted by rule id, the rank table of
    its constants, and the instance of its facts, which each run forks.
    Kept on the program as :attr:`Program.compiled`, so a fresh program
    object builds its own and drops it with the program."""

    plans: tuple[RulePlan, ...]
    rank: TermRank
    base: Instance

    @classmethod
    def of(cls, program: Program) -> "CompiledProgram":
        plans = tuple(sorted(map(compile_rule, program.rules), key=lambda p: p.rule_id))
        base = Instance.from_facts(program.facts)
        # every term of a fact is a key of the base's column for its position
        columns = chain.from_iterable(base.index.values())
        return cls(plans, TermRank(chain(*columns, *(p.constants for p in plans))), base)


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


def _level_triggers(
    plans: Sequence[RulePlan],
    instance: Instance,
    delta: dict[str, Collection[Atom]],
    rank: TermRank,
    limit: int = _ALL,
    retry: Optional[dict[int, list[tuple[Term, ...]]]] = None,
) -> list[Trigger]:
    """Triggers whose body maps into ``instance`` using >= 1 ``delta``
    fact (filed by predicate), or given ``retry`` (values by rule id)
    those triggers instead, in the order of ``plans`` (by rule id), each
    rule's sorted by the ``rank`` of their values.  Enumeration stops at
    the ``limit``-th."""
    ranks = rank.__getitem__
    out: list[Trigger] = []
    for plan in plans:
        if retry is None:
            found = plan.body.matches(instance, delta, limit - len(out))
        else:
            found = retry.get(plan.rule_id, ())
        if len(found) > 1:
            found = sorted(found, key=lambda vs: tuple(map(ranks, vs)))
        out.extend((plan, vs) for vs in found)
        if len(out) >= limit:
            break
    return out


def _without_cycle_collection(func):
    """Run ``func`` with the cyclic garbage collector paused.

    The chase makes no reference cycles, so a collection frees nothing;
    refcounting frees what the run drops.  Each full collection walks
    every live object, so the collector's share of a run grows with the
    instance: on the 10k-entity benchmark inputs the pause saves 19-26%
    of doctors' chase time and 11-22% of psc's.
    """

    @wraps(func)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


@_without_cycle_collection
def run_chase(
    program: Program,
    variant: ChaseVariant,
    *,
    max_steps: Optional[int] = None,
    trace: bool = False,
    on_level: Optional[Callable[[Instance, dict[str, Collection[Atom]]], bool]] = None,
) -> ChaseRun:
    """Execute one chase variant over the program's facts.

    A trigger's head reaches the blocker searches and ``fire_trigger``
    unbuilt, through this module's names, so a wrapper sees every call.

    ``max_steps`` bounds the number of *fired* steps across all epochs;
    a negative budget is a ValueError.  Without a blocker every trigger
    fires, so a level's enumeration stops one trigger past the steps
    left: a budgeted oblivious run's work and memory are bounded by its
    budget.  Such a cut level fires the least of the triggers it found,
    not always the least of the whole level.

    The program's rule plans, rank table and base instance are built on
    its first run and kept on the program object (``Program.compiled``);
    each run forks the base instance, sharing its tables and rows until
    it writes to their predicate.

    Only the first epoch can end the run by blocking nothing: a further
    epoch would block every trigger on that trigger's own output, so it
    could add nothing.  Once the first epoch has blocked a trigger, every
    resumption runs.  A resumption's first level re-decides only the
    triggers the last epoch blocked whose values hold a null, in rule and
    rank order (see the module docstring).  A trigger that fired in an
    earlier epoch, or that holds no null, is blocked again without being
    enumerated, so the trace has no record of it.

    ``on_level(instance, new_facts)`` is called once with the input facts
    before any trigger, and after every level that added facts with those
    facts.  ``new_facts`` files them by predicate, each predicate's in
    the order they were added; the input facts come as the instance's own
    tables, shared with the base instance, so callers must not change them.
    Returning True ends the run with status ``query-satisfied``.  A level
    cut short by the step budget gets no call.

    Past an epoch's first level, every trigger uses a fact that the level
    before added, so no trigger comes up twice in one epoch.
    """
    if max_steps is not None and max_steps < 0:
        raise ValueError(f"the step budget must be >= 0, got {max_steps}")
    blocker = variant.blocker
    if blocker is None and max_steps is None and has_nontermination_risk(program):
        raise NonTerminationRiskError(
            "oblivious chase on a recursive existential program may not "
            "terminate; rerun with a step budget (--max-steps)"
        )
    compiled = program.compiled
    plans, rank = compiled.plans, compiled.rank
    instance = compiled.base.fork()
    records: Optional[list[TraceRecord]] = [] if trace else None
    budget = _ALL if max_steps is None else max_steps
    fired_steps = 0
    minted = 0  # nulls minted so far; the next one is numbered minted + 1
    blocked = 0
    status = FIXPOINT
    delta: dict[str, Collection[Atom]]  # the facts the last level added, by predicate
    delta = {p: rows for p in program.schema if (rows := instance.facts_for(p))}
    if on_level is not None and on_level(instance, delta):
        status = QUERY_SATISFIED
    level = 0
    # the triggers this epoch blocked whose values hold a null, by rule
    # id; the next epoch's first level re-decides them as ``retry``
    held: dict[int, list[tuple[Term, ...]]] = {}
    retry = None

    for epoch in range(variant.resumptions + 1):
        if epoch > 0:
            freeze_nulls(instance)
            retry, held = held, {}
        while (delta or retry) and status == FIXPOINT:
            added: dict[str, list[Atom]] = {}
            # without a blocker, one trigger past the budget left ends the run
            limit = _ALL if blocker else budget - fired_steps + 1
            for plan, values in _level_triggers(plans, instance, delta, rank, limit, retry):
                head = _Head(plan, values, minted, instance.active_epoch)
                if blocker == HOMOMORPHISM:
                    hit = exists_homomorphism(head, instance) is not None
                else:
                    hit = blocker is not None and exists_isomorphic_embedding(head, instance)
                if not hit and fired_steps >= budget:
                    status = STEP_LIMIT
                    break
                if records is not None:
                    subst = dict(zip(plan.body.slots, values))
                    records.append(TraceRecord(plan.rule_id, subst, not hit, blocker if hit else None, level))
                if hit:
                    blocked += 1
                    if epoch < variant.resumptions and Null in map(type, values):
                        held.setdefault(plan.rule_id, []).append(values)
                    continue
                for fact in fire_trigger(head, instance):
                    added.setdefault(fact.predicate, []).append(fact)
                minted += plan.fresh
                fired_steps += 1
            delta, retry = added, None
            level += 1
            if status == FIXPOINT and delta and on_level is not None and on_level(instance, delta):
                status = QUERY_SATISFIED
        # a stopped run, or a first epoch that blocked nothing (see the docstring)
        if status != FIXPOINT or not blocked:
            break
    return ChaseRun(
        variant=variant,
        result=instance,
        status=status,
        fired_steps=fired_steps,
        resumptions_used=instance.active_epoch,  # one freeze per resumption
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
        if exists_homomorphism(component, target) is None:
            return ContainmentReport("violated", component, p_run, i_run)
    return ContainmentReport("holds", None, p_run, i_run)
