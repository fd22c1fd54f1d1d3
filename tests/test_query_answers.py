"""Regression digests for query answers on acceptance criterion 4's pairs.

``golden/query_answers.sha256`` holds one SHA-256 per (program seed,
variant) over the 500 protected pairs that criterion 4 checks, each
program with the query criterion 4 draws for it.  A digest covers:

- the Boolean verdict, and for a false one also its warnings, status,
  fired steps and resumptions used;
- the same query with every variable as an output: its answer tuples,
  status, fired steps and resumptions used.

A true Boolean answer's status and steps are left out: they record where
the run stopped, not what it answered.

Regenerate the file (only when an answer is meant to change) with

    PYTHONPATH=src python tests/test_query_answers.py

which prints the ``seed variant`` key of every digest it rewrites, then
how many moved per variant.
"""
import hashlib
from collections import Counter
from pathlib import Path

from dlgx.analysis import analyze
from dlgx.chase import ichase, oblivious, pchase, pchase_r
from dlgx.generator import generate_random_program, generate_random_query
from dlgx.model import format_term
from dlgx.query import Query, answer_with_variant, default_resumptions

DIGESTS = Path(__file__).parent / "golden" / "query_answers.sha256"
PAIRS = 500
BUDGET = 10_000


def protected_pairs():
    """Criterion 4's (seed, program, query) pairs, seeds ascending."""
    seed = checked = 0
    while checked < PAIRS:
        program = generate_random_program(seed)
        if analyze(program).verdicts.protected:
            yield seed, program, generate_random_query(program, (seed + 1) * 31 + 7)
            checked += 1
        seed += 1


def answer_digest(program, query, variant) -> str:
    answer, _ = answer_with_variant(program, query, variant, max_steps=BUDGET)
    parts = [str(answer.verdict)]
    if not answer.verdict:
        parts += [*answer.warnings, answer.chase_status, str(answer.chase_steps)]
        parts.append(str(answer.resumptions_used))
    names = tuple(dict.fromkeys(v.name for a in query.atoms for v in a.variables()))
    if names:
        full, _ = answer_with_variant(program, Query(query.atoms, names), variant, max_steps=BUDGET)
        parts += [full.chase_status, str(full.chase_steps), str(full.resumptions_used)]
        parts += [" ".join(map(format_term, row)) for row in full.tuples]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def compute_digests() -> list[str]:
    """One ``seed variant digest`` line per answer, seeds ascending."""
    lines = []
    for seed, program, query in protected_pairs():
        k = default_resumptions(query)
        for variant in (pchase(), pchase_r(k), ichase(), ichase(k), oblivious()):
            lines.append(f"{seed} {variant} {answer_digest(program, query, variant)}")
    return lines


def moved_keys(expected: list[str], actual: list[str]) -> list[str]:
    """The ``seed variant`` keys whose digest differs, in file order."""
    return [a.rsplit(" ", 1)[0] for a, e in zip(actual, expected) if a != e]


def per_variant(keys: list[str]) -> str:
    counts = Counter(key.split(" ", 1)[1] for key in keys)
    return ", ".join(f"{variant}: {n}" for variant, n in sorted(counts.items()))


def test_query_answers_match_their_digests():
    expected = DIGESTS.read_text().splitlines()
    actual = compute_digests()
    assert len(actual) == len(expected) == PAIRS * 5
    changed = moved_keys(expected, actual)
    assert not changed, (
        f"{len(changed)} answers changed ({per_variant(changed)}), first: {changed[:5]}"
    )


if __name__ == "__main__":
    new = compute_digests()
    changed = moved_keys(DIGESTS.read_text().splitlines(), new)
    for key in changed:
        print(key)
    print(f"{len(changed)} digests rewritten ({per_variant(changed)})")
    DIGESTS.write_text("\n".join(new) + "\n")
