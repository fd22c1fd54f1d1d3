"""A small conjunctive-query matcher that shares no code with dlgx's
homomorphism search, used to re-check the differential harness.

Queries are read from their text and facts are compared as printed
terms, so a constant ``a`` and a null ``_:e0n3`` are plain strings here.
"""
from __future__ import annotations

import re
from typing import Iterable

_ATOM = re.compile(r"([a-z][A-Za-z0-9_]*)\(([^)]*)\)")

Fact = tuple[str, tuple[str, ...]]


def query_atoms(text: str) -> list[Fact]:
    """``?- p(X, a), q(a).`` as ``[("p", ("X", "a")), ("q", ("a",))]``."""
    return [
        (pred, tuple(arg.strip() for arg in args.split(",")))
        for pred, args in _ATOM.findall(text)
    ]


def _is_var(term: str) -> bool:
    return term[:1].isupper()


def answers(query_text: str, facts: Iterable[Fact]) -> set[tuple[str, ...]]:
    """Every binding of the query's variables, in order of first
    appearance, under which all its atoms map into ``facts``.  Variables
    bind to any term, constants and nulls only to themselves."""
    index: dict[tuple, list[tuple[str, ...]]] = {}
    for pred, args in facts:
        index.setdefault((pred,), []).append(args)
        for i, a in enumerate(args):
            index.setdefault((pred, i, a), []).append(args)
    atoms = query_atoms(query_text)
    names = query_variables(query_text)
    found: set[tuple[str, ...]] = set()

    def candidates(atom: Fact, env: dict[str, str]) -> list[tuple[str, ...]]:
        pred, args = atom
        best = index.get((pred,), [])
        for i, a in enumerate(args):
            value = env.get(a) if _is_var(a) else a
            if value is not None:
                rows = index.get((pred, i, value), [])
                if len(rows) < len(best):
                    best = rows
        return best

    def search(remaining: list[Fact], env: dict[str, str]) -> None:
        if not remaining:
            found.add(tuple(env[n] for n in names))
            return
        atom = min(remaining, key=lambda a: len(candidates(a, env)))
        rest = [a for a in remaining if a is not atom]
        for row in candidates(atom, env):
            bound = dict(env)
            if all(_bind(bound, q, v) for q, v in zip(atom[1], row)):
                search(rest, bound)

    search(atoms, {})
    return found


def query_variables(query_text: str) -> tuple[str, ...]:
    """The query's variables in order of first appearance."""
    return tuple(dict.fromkeys(t for _, args in query_atoms(query_text) for t in args if _is_var(t)))


def _bind(env: dict[str, str], term: str, value: str) -> bool:
    if not _is_var(term):
        return term == value
    seen = env.setdefault(term, value)
    return seen == value


def printed_facts(instance, predicates: Iterable[str]) -> list[Fact]:
    """The facts of a dlgx instance over ``predicates``, as printed terms."""
    wanted = set(predicates)
    return [
        (f.predicate, tuple(str(t) for t in f.terms)) for f in instance if f.predicate in wanted
    ]
