"""Core syntactic objects: terms, atoms, rules, programs, queries, instances.

Terms are constants (a plain ``str``, the symbol), variables and labelled
nulls.  Nulls carry the resumption epoch they were created in; an
:class:`Instance` tracks the current epoch, and nulls from earlier epochs
are "frozen": they behave like constants in homomorphism checks while
still printing as nulls.

Variables, nulls, atoms, positions and existential-variable ids are named
tuples: they compare and hash as the tuple of their fields, in C, so
``Null(1, 0) == (1, 0)``.  Tuple order is not term order (nulls would
order by counter before epoch, and mixed kinds do not compare), so terms
sort only by :func:`term_sort_key`.
"""
from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence, Union

if TYPE_CHECKING:
    from .chase import CompiledProgram


class Variable(NamedTuple):
    name: str

    def __str__(self) -> str:
        return self.name


class Null(NamedTuple):
    counter: int
    epoch: int = 0

    def __str__(self) -> str:
        return format_term(self)


Term = Union[str, Variable, Null]


def term_sort_key(term: Term) -> tuple:
    """Total deterministic order over terms: constants, then nulls, then variables."""
    if isinstance(term, str):
        return (0, term)
    if isinstance(term, Null):
        return (1, term.epoch, term.counter)
    return (2, term.name)


_BARE_CONSTANT = re.compile(r"[a-z][A-Za-z0-9_]*|[0-9]+")


def format_term(term: Term) -> str:
    if isinstance(term, str):
        if _BARE_CONSTANT.fullmatch(term):
            return term
        # a raw newline would end the string; backslash-newline reads back as one
        escaped = term.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\\n")
        return f'"{escaped}"'
    if isinstance(term, Null):
        return f"_:e{term.epoch}n{term.counter}"
    return term.name


class Atom(namedtuple("Atom", "predicate terms")):
    """A predicate applied to a tuple of terms.

    A named tuple, so it compares and hashes as ``(predicate, terms)``;
    terms sort only by :func:`term_sort_key`.  A ground atom over
    constants and nulls doubles as a fact.
    """

    __slots__ = ()

    def __new__(cls, predicate: str, terms: Iterable[Term]) -> "Atom":
        terms = tuple(terms)
        if not terms:
            raise ValueError(f"atom {predicate} needs at least one term")
        return tuple.__new__(cls, (predicate, terms))

    @property
    def arity(self) -> int:
        return len(self.terms)

    def variables(self) -> Iterator[Variable]:
        for t in self.terms:
            if isinstance(t, Variable):
                yield t

    def nulls(self) -> Iterator[Null]:
        for t in self.terms:
            if isinstance(t, Null):
                yield t

    def __repr__(self) -> str:
        return f"Atom({format_atom(self)})"

    def __str__(self) -> str:
        return format_atom(self)


def format_atom(atom: Atom) -> str:
    return f"{atom.predicate}({', '.join(format_term(t) for t in atom.terms)})"


class Position(NamedTuple):
    """A predicate attribute, 1-based: p[2] is the second argument of p."""

    predicate: str
    index: int

    def __str__(self) -> str:
        return f"{self.predicate}[{self.index}]"


class ExistentialVarId(NamedTuple):
    """Program-global identity of an existential variable: rule plus name."""

    rule_id: int
    name: str

    def __str__(self) -> str:
        return f"r{self.rule_id}.{self.name}"


@dataclass(frozen=True)
class Rule:
    """body -> head rule; head variables missing from the body are existential.

    Rules never contain nulls.  ``existential_vars`` names the head-only
    variables.
    """

    id: int
    body: tuple[Atom, ...]
    head: tuple[Atom, ...]
    existential_vars: frozenset[str]

    @staticmethod
    def make(rule_id: int, body: Sequence[Atom], head: Sequence[Atom]) -> "Rule":
        body = tuple(body)
        head = tuple(head)
        if not body:
            raise ValueError(f"rule {rule_id}: empty body")
        if not head:
            raise ValueError(f"rule {rule_id}: empty head")
        for atom in body + head:
            if any(isinstance(t, Null) for t in atom.terms):
                raise ValueError(f"rule {rule_id}: nulls are not allowed in rules")
        body_vars = {v.name for a in body for v in a.variables()}
        head_vars = {v.name for a in head for v in a.variables()}
        return Rule(
            id=rule_id,
            body=body,
            head=head,
            existential_vars=frozenset(head_vars - body_vars),
        )

    def __str__(self) -> str:
        heads = ", ".join(format_atom(a) for a in self.head)
        bodies = ", ".join(format_atom(a) for a in self.body)
        return f"{heads} :- {bodies}."


class SchemaError(ValueError):
    """Inconsistent predicate arities across a program's rules and facts."""


@dataclass(frozen=True)
class Program:
    """A rule set plus a starting database of ground facts."""

    rules: tuple[Rule, ...]
    facts: tuple[Atom, ...] = ()

    def __post_init__(self) -> None:
        for fact in self.facts:
            if not all(isinstance(t, str) for t in fact.terms):
                raise ValueError(f"fact {format_atom(fact)} must contain constants only")
        self.schema  # force arity validation

    @cached_property
    def schema(self) -> dict[str, int]:
        """Predicate -> arity, validated for consistency.  Computed once
        and shared by every caller, so callers must not change it."""
        schema: dict[str, int] = {}
        for atom in self._all_atoms():
            seen = schema.get(atom.predicate)
            if seen is None:
                schema[atom.predicate] = atom.arity
            elif seen != atom.arity:
                raise SchemaError(
                    f"predicate {atom.predicate} used with arities {seen} and {atom.arity}"
                )
        return schema

    @cached_property
    def compiled(self) -> "CompiledProgram":
        """What every chase of this program starts from: sorted rule
        plans, rank table and base instance.  Built on first use and kept
        with this object, like :attr:`schema`, so callers must not change
        it."""
        from .chase import CompiledProgram  # chase imports this module

        return CompiledProgram.of(self)

    def _all_atoms(self) -> Iterator[Atom]:
        for rule in self.rules:
            yield from rule.body
            yield from rule.head
        yield from self.facts

    def with_facts(self, extra: Iterable[Atom]) -> "Program":
        return Program(rules=self.rules, facts=self.facts + tuple(extra))

    def has_existential_rules(self) -> bool:
        return any(r.existential_vars for r in self.rules)


@dataclass(frozen=True)
class Query:
    """A conjunctive query; with no output variables it is Boolean."""

    atoms: tuple[Atom, ...]
    output_vars: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        names = {v.name for a in self.atoms for v in a.variables()}
        missing = [v for v in self.output_vars if v not in names]
        if missing:
            raise ValueError(f"output variables not in query: {', '.join(missing)}")

    @property
    def is_boolean(self) -> bool:
        return not self.output_vars


class Instance:
    """A set of facts in insertion-ordered per-predicate tables, indexed by position.

    ``_tables[predicate]`` holds the predicate's facts as dict keys, and
    membership, length, iteration and :meth:`facts_for` read only these.
    Iteration goes predicate by predicate, in the order of their first
    facts, each in insertion order, which keeps chase runs deterministic.
    As with any dict, neither a table nor the instance may be iterated
    while facts are added.  ``active_epoch`` marks the current resumption
    epoch: nulls of earlier epochs are frozen (rigid in homomorphism checks).

    ``index[predicate]`` holds one dict per position of the predicate,
    mapping each term there to its row: the facts with that term at that
    position, in insertion order.  A row of one fact is a 1-tuple, shared
    by every position the fact adds a row at; the row becomes a list at
    its second fact.  So a term that holds one fact's place costs one dict
    entry and no list.

    A chase run's instance is a :meth:`fork` of the program's base
    instance, sharing each predicate's table, columns and rows until
    either writes to that predicate.  So the tables that :meth:`facts_for`
    hands out and the columns and rows of ``index`` may be shared, and
    callers must not change them.
    """

    __slots__ = ("_tables", "index", "active_epoch", "_shared")

    def __init__(self) -> None:
        self._tables: dict[str, dict[Atom, None]] = {}
        # predicate -> one dict per 0-based position, term -> row; only
        # add and _unshare write it, and compiled joins read it (_rows)
        self.index: dict[str, tuple[dict[Term, Union[tuple[Atom], list[Atom]]], ...]] = {}
        self.active_epoch: int = 0
        # predicates whose table and rows another instance may hold too;
        # the first add of one copies them (see fork)
        self._shared: set[str] = set()

    @classmethod
    def from_facts(cls, facts: Iterable[Atom]) -> "Instance":
        inst = cls()
        for f in facts:
            inst.add(f)
        return inst

    def fork(self) -> "Instance":
        """A copy of this instance that shares its tables and rows, copy
        on write: only the dicts of tables and columns are copied, one
        entry per predicate.  Either instance copies a predicate's table
        and columns at its first add of that predicate."""
        copy = Instance()
        copy._tables = self._tables.copy()
        copy.index = self.index.copy()
        copy.active_epoch = self.active_epoch
        copy._shared = set(self._tables)
        self._shared = set(self._tables)
        return copy

    def add(self, fact: Atom) -> bool:
        """Insert a fact; returns False if it was already present."""
        predicate = fact.predicate
        table = self._tables.get(predicate)
        if table is None:
            table = self._tables[predicate] = {}
            self.index[predicate] = tuple({} for _ in fact.terms)
        elif fact in table:
            return False
        elif predicate in self._shared:
            table = self._unshare(predicate)
        table[fact] = None
        single = (fact,)
        for column, t in zip(self.index[predicate], fact.terms):
            row = column.get(t)
            if row is None:
                column[t] = single
            elif row.__class__ is tuple:
                column[t] = [row[0], fact]
            else:
                row.append(fact)
        return True

    def _unshare(self, predicate: str) -> dict[Atom, None]:
        """Give this instance its own copy of ``predicate``'s table and
        columns, and return the table.  The 1-tuple rows stay shared, since
        no add changes a tuple; only the list rows are copied."""
        self._shared.discard(predicate)
        table = self._tables[predicate] = self._tables[predicate].copy()
        columns = tuple(column.copy() for column in self.index[predicate])
        for column in columns:
            for t, row in column.items():
                if row.__class__ is list:
                    column[t] = row.copy()
        self.index[predicate] = columns
        return table

    def __contains__(self, fact: Atom) -> bool:
        return fact in self._tables.get(fact.predicate, ())

    def __len__(self) -> int:
        return sum(map(len, self._tables.values()))

    def __iter__(self) -> Iterator[Atom]:
        return chain.from_iterable(self._tables.values())

    def facts_for(self, predicate: str) -> dict[Atom, None]:
        """The table of ``predicate``, its facts in insertion order as dict
        keys.  It may be shared with a forked instance until the first
        write to the predicate, so callers must not change it."""
        return self._tables.get(predicate, {})


def freeze_nulls(instance: Instance) -> None:
    """Start a new resumption epoch in place: existing nulls become rigid.

    Facts are unchanged; only the epoch boundary moves, so repeated
    freezing is idempotent with respect to homomorphism behavior.
    """
    instance.active_epoch += 1


def format_instance(instance: Instance) -> str:
    """Canonical dump: one ``fact.`` line per fact, lexicographically sorted."""
    lines = sorted(f"{format_atom(f)}." for f in instance)
    return "\n".join(lines) + ("\n" if lines else "")
