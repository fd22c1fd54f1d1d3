"""A naive matcher to check dlgx's compiled joins against.

It tries every fact for every atom in nested loops, atoms in the order
given, and shares no code with ``dlgx.chase``: trigger enumeration, query
answers and both blockers are checked against it.
"""
from dlgx.model import Atom, Null, Variable, term_sort_key


def is_variable(term) -> bool:
    return isinstance(term, Variable)


def homomorphisms(atoms, facts, mobile=is_variable) -> list[dict]:
    """Every mapping of the ``mobile`` terms of ``atoms`` under which each
    atom is one of ``facts``; every other term must match as it is."""
    by_predicate: dict[str, list[Atom]] = {}
    for fact in facts:
        by_predicate.setdefault(fact.predicate, []).append(fact)
    out: list[dict] = []

    def extend(k: int, mapping: dict) -> None:
        if k == len(atoms):
            out.append(mapping)
            return
        for fact in by_predicate.get(atoms[k].predicate, ()):
            extended = dict(mapping)
            if all(
                extended.setdefault(t, f) == f if mobile(t) else t == f
                for t, f in zip(atoms[k].terms, fact.terms)
            ):
                extend(k + 1, extended)

    extend(0, {})
    return out


def image(atoms, mapping) -> list[Atom]:
    return [Atom(a.predicate, [mapping.get(t, t) for t in a.terms]) for a in atoms]


def variable_names(atoms) -> list[str]:
    return sorted({t.name for a in atoms for t in a.terms if isinstance(t, Variable)})


def row_key(row) -> tuple:
    return tuple(map(term_sort_key, row))


def triggers(rules, instance, delta) -> list[tuple]:
    """Every body match that uses at least one delta fact, as sorted
    (rule id, values in variable-name order)."""
    delta = set(delta)
    found = set()
    for rule in rules:
        names = variable_names(rule.body)
        for mapping in homomorphisms(rule.body, instance):
            if any(fact in delta for fact in image(rule.body, mapping)):
                found.add((rule.id, tuple(mapping[Variable(n)] for n in names)))
    return sorted(found, key=lambda t: (t[0], row_key(t[1])))


def holds(atoms, instance) -> bool:
    return bool(homomorphisms(atoms, instance))


def answers(atoms, outputs, instance) -> list[tuple]:
    """The distinct images of the ``outputs`` variables, in term order."""
    rows = {
        tuple(mapping[Variable(n)] for n in outputs)
        for mapping in homomorphisms(atoms, instance)
    }
    return sorted(rows, key=row_key)


def _unfrozen_null(instance):
    return lambda t: isinstance(t, Null) and t.epoch >= instance.active_epoch


def maps_homomorphically(head, instance) -> bool:
    """The homomorphism blocker: unfrozen nulls may map anywhere."""
    return bool(homomorphisms(head, instance, _unfrozen_null(instance)))


def embeds_isomorphically(head, instance) -> bool:
    """The isomorphism blocker: unfrozen nulls map injectively to nulls."""
    return any(
        all(isinstance(v, Null) for v in mapping.values())
        and len(set(mapping.values())) == len(mapping)
        for mapping in homomorphisms(head, instance, _unfrozen_null(instance))
    )
