"""Golden outputs of the parser over a seeded corpus.

``golden/parse_outputs.jsonl`` holds one line per (input, entry point):
the text run through ``parse_program`` or through ``parse_query`` with a
schema, and what came back: the printed program or query plus any
warnings, or every diagnostic as ``file:line:col: severity: message``.
The corpus is a set of hand-written cases, one per diagnostic the parser
can emit, and random strings over a small alphabet of the grammar's
characters.  A change to the parser that keeps every output keeps the
file; one that alters an output names the entry.

Regenerate the file (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_parse_golden.py
"""
import json
import random
from pathlib import Path

from dlgx.parser import ParseError, parse_program, parse_query, print_program, print_query

GOLDEN = Path(__file__).parent / "golden" / "parse_outputs.jsonl"
SCHEMA = {"a": 1, "b": 2, "e": 2}
ALPHABET = list("abXY(),.:-?%\"\\_1é½") + ["\n", "\t"]
# multi-character pieces of the grammar, still over ALPHABET only
FRAGMENTS = [
    "a(", "b(", "e(", "X", "Y", "a", "b", "1", "_", "é", "½", ",", ").", ")",
    ".", ":-", "->", "-->", "?-", "\n", "\t", '"a"', '"\\\n"', '"\\""', "%a\n", "%",
]
RANDOM_CHARS = 2000
RANDOM_FRAGMENTS = 1000

HAND_WRITTEN = [
    # programs that parse
    "e(a, b).\nb(X, Y) :- e(X, Y).\n",
    "e(X, Y) --> b(X, Z).\ne(X, Y), a(X) -> b(Y, Z), a(Z).",
    '% only a comment\n\ne("New York", "say \\"hi\\"", _x, 12, a½, é).',
    'e("x\\\ny", b).',
    "e(a)\t.\r\n",
    "",
    "e(X, Y) :- b(Y, c).\ne(X, Y) :- b(X, Y), e(Y, X).",
    "e(a) :- b(X, Y).\n" * 3,
    # one case per diagnostic
    "e(a, b",  # expected ')'
    "e(a) % note",  # expected '.', ':-' or '->', found end of input
    "e(a) :- ",  # expected a predicate name
    "e(a) :- b(X) % note\n",  # expected '.'
    "e(a, )",  # expected a term
    "E(a).",  # predicate names must start lowercase
    "e a.",  # expected '('
    "e(a).\ne(a, b).\n",  # arity clash, first use
    'e(a).\ne("x\\\ny").\nf(b, c).\nf(d).',  # arity clash after an escaped newline
    "e(a), b(c, d).",  # a fact is a single atom
    "e(X).",  # facts must be ground
    "e(a).\n?- e(X).",  # queries are not allowed in a program file
    "e(X) :- .",  # expected a predicate name after ':-'
    "e(½).",  # unexpected character
    "e(a) & b(c).",  # unexpected character
    'e("abc',  # unterminated string at end of input
    'e("ab\nc").',  # unterminated string at a newline
    'e("ab\\',  # unterminated string after a trailing backslash
    "?- e(X, Y), a(X).\nX, Y\n",
    # queries
    "?- e(X, Y).",
    "?- e(X, Y), b(Y, c).\nY, X\n",
    "?- nosuch(X).",  # unknown predicate warning
    "?- a(X, Y).",  # arity mismatch against the schema
    "?- e(X, Y).\nX, Z\n",  # output variable not in the query
    "?- e(X, Y).\nX,\n",  # expected an output variable
    "?- e(X, Y).\nX Y\n",  # unexpected input after query
    "?- e(X, Y)",  # expected '.'
    "e(X, Y).",  # expected '?-'
    "?- e(X), e(X, Y).",  # arity clash inside a query
    "?- e(X, Y). % trailing\n% and more",
    # where the fact scan hands a statement to the token reader and back
    "e(a, b).\ne(b, c).\nb(X, Y) :- e(X, Y).\ne(c, d).\na(d).\n",  # facts, a rule, facts
    "e(a, b).\nb(X, Y) :- e(X).\n",  # arity clash: scanned fact first
    "b(X, Y) :- e(X).\ne(a, b).\n",  # arity clash: token-read atom first
    'e("a").\ne(a, b).\n',  # arity clash: token-read fact first
    "e(a, % note\nb).\ne(c, d).\n",  # a comment inside a fact
    "e(a, b)\t.\ne(c, d)\r\n.\r\n",  # a tab and a CRLF before '.'
    "e(a).5",  # expected '(' after a scanned fact
    "e(a).\ne(b)",  # no '.' at the end of input
    'e("a).b")',  # a ')' and a '.' inside a string
    'e("a).b").\ne(c).',
    "e(éa, 1b).\ne(_c, 2).\n",  # constants that start with é, a digit or '_'
    "e(a, Éb).\n",  # facts must be ground: É starts a variable
    "e(a, b).\ne(c, ½d).\n",  # unexpected character after a scanned fact
    "éq(a).\n1p(b).\n_r(c).\nÉq(d).\n",  # predicate names
]


def corpus() -> list[tuple[str, str]]:
    """(program text, query text) pairs.  A hand-written case is both;
    a random string is also tried behind '?-', so that it gets past the
    query's first token."""
    rng = random.Random(20260)
    pairs = [(text, text) for text in HAND_WRITTEN]
    for _ in range(RANDOM_CHARS):
        text = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 24)))
        pairs.append((text, "?-" + text))
    for _ in range(RANDOM_FRAGMENTS):
        text = "".join(rng.choice(FRAGMENTS) for _ in range(rng.randint(1, 16)))
        pairs.append((text, "?-" + text))
    return pairs


def _run(entry: str, text: str) -> dict:
    record = {"entry": entry, "text": text}
    warnings: list = []
    try:
        if entry == "program":
            printed = print_program(parse_program(text))
        else:
            printed = print_query(parse_query(text, schema=SCHEMA, diagnostics=warnings))
    except ParseError as err:
        record["diagnostics"] = [str(d) for d in err.diagnostics]
    else:
        record["printed"] = printed
        record["warnings"] = [str(d) for d in warnings]
    return record


def compute_outputs() -> list[str]:
    """One JSON line per entry: each program text, then its query text."""
    lines = []
    for program, query in corpus():
        lines.append(json.dumps(_run("program", program), sort_keys=True))
        lines.append(json.dumps(_run("query", query), sort_keys=True))
    return lines


def test_parser_outputs_match_golden():
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    actual = compute_outputs()
    assert len(actual) == len(expected)
    changed = [a for a, e in zip(actual, expected) if a != e]
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:3]}"


def test_printed_text_parses_back_to_the_same_value():
    # quoted constants may hold a newline, from an escape or a CSV cell
    parsed = 0
    for program_text, query_text in corpus():
        for parse, printer, text in (
            (parse_program, print_program, program_text),
            (lambda t: parse_query(t, schema=SCHEMA), print_query, query_text),
        ):
            try:
                value = parse(text)
            except ParseError:
                continue
            assert parse(printer(value)) == value, text
            parsed += 1
    assert parsed == 212


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(compute_outputs()) + "\n", encoding="utf-8")
