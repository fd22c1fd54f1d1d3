"""Text formats: .dlgx programs, queries, and CSV fact files.

Grammar, one statement per '.':

    % a comment runs to end of line
    parent(alice, bob).                    % fact: constants only
    ancestor(X, Y) :- parent(X, Y).        % rule, head on the left
    parent(X, Y) -> ancestor(X, Y).        % same rule, arrow form
    ?- ancestor(alice, Y).                 % query, in a query file of its own
    Y                                      % optional last line: output variables

Identifiers starting with an uppercase letter are variables; everything
else (starting lowercase, numeric, or double-quoted) is a constant.  Head
variables that do not occur in the body are existential.

A program is read one statement at a time.  A ground fact over bare
names, each starting with an ASCII lowercase letter, a digit or '_', is
read by one regex match anchored where the statement starts, blanks and
comments before it included: that is most of a large program's text.
Every other statement (a rule, a query, a fact with a quoted string or
with a name that starts otherwise, a fact whose arity clashes, anything
malformed) goes to the token reader, which tokenizes from that
statement's offset to its '.'.  Every diagnostic comes from the token
reader, so a program gets the same ones however its facts were read.
"""
from __future__ import annotations

import csv
import re
import sys
from bisect import bisect_right
from dataclasses import dataclass
from typing import NoReturn, Optional, Sequence

from .model import (
    Atom,
    Program,
    Query,
    Rule,
    Term,
    Variable,
    format_atom,
)


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: str  # "error" | "warning"
    message: str
    span: SourceSpan

    def __str__(self) -> str:
        return f"{self.span}: {self.severity}: {self.message}"


class ParseError(Exception):
    """Raised on syntax or consistency errors; carries all diagnostics."""

    def __init__(self, diagnostics: Sequence[ParseDiagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


# A '"' that STRING cannot close (a raw newline or the end of input comes
# first) falls through to ERROR and is reported as an unterminated string.
_TOKEN = re.compile(
    r"""(?P<SKIP>(?:[ \t\r\n]+|%[^\n]*)+)
    |(?P<STRING>"(?:[^"\\\n]|\\.)*")
    |(?P<ARROW>-->|->)
    |(?P<IMPLIES>:-)
    |(?P<QUERY>\?-)
    |(?P<LPAREN>\()
    |(?P<RPAREN>\))
    |(?P<COMMA>,)
    |(?P<PERIOD>\.)
    |(?P<IDENT>\w+)
    |(?P<ERROR>.)""",
    re.VERBOSE | re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)

# One ground fact over bare names, after the blanks and comments before
# it.  A name's first character is one the token reader also takes for a
# constant or a predicate name.  A comment must run to its line's end, so
# a failed match never reads the comment's text as a fact; no part of the
# pattern can split a run of blanks two ways, so a failed match backtracks
# in linear time.  (Possessive quantifiers would say this more directly,
# but Python reads them only from 3.11 on.)
_BLANK = r"[ \t\r\n]*"
_NAME = r"[a-z0-9_]\w*"
_FACT = re.compile(
    rf"{_BLANK}(?:%[^\n]*(?![^\n]){_BLANK})*({_NAME}){_BLANK}\({_BLANK}"
    rf"({_NAME}(?:{_BLANK},{_BLANK}{_NAME})*){_BLANK}\){_BLANK}\."
)
_WORD = re.compile(r"\w+")

# (kind, text, offset); a STRING's text is its value with escapes undone
_Token = tuple[str, str, int]


class _Parser:
    """The tokens of one statement, or of a whole query text, plus the
    parse state; a diagnostic turns a token's offset into a line and
    column only when it is made."""

    def __init__(self, text: str, filename: str):
        self.text = text
        self.filename = filename
        self.line_starts: Optional[list[int]] = None
        self.errors: list[ParseDiagnostic] = []
        self.arities: dict[str, tuple[int, int]] = {}
        self.tokens: list[_Token] = []
        self.pos = 0
        self.end = 0  # the text before this offset has been read

    def read(self, offset: int, statement: bool = False) -> None:
        """Tokenize the text from ``offset`` to its end or, for a
        ``statement``, to its first '.'.  A character that no token
        reads is reported alone, as if the whole text had been read
        before any other diagnostic was made."""
        tokens: list[_Token] = []
        append = tokens.append
        for m in _TOKEN.finditer(self.text, offset):
            kind = m.lastgroup
            if kind == "SKIP":
                continue
            word, start = m.group(), m.start()
            first = word[0]
            # \w also matches numerics such as '½', which may not start a name
            if kind == "ERROR" or kind == "IDENT" and not (first.isalpha() or first.isdigit() or first == "_"):
                message = "unterminated string" if first == '"' else f"unexpected character {first!r}"
                raise ParseError([self.error(message, start)])
            if kind == "STRING":
                word = word[1:-1]
                if "\\" in word:
                    word = _ESCAPE.sub(r"\1", word)
            append((kind, word, start))
            if statement and kind == "PERIOD":
                self.end = m.end()
                break
        else:
            append(("EOF", "", len(self.text)))
            self.end = len(self.text)
        self.tokens = tokens
        self.pos = 0

    def span(self, offset: int) -> SourceSpan:
        if self.line_starts is None:
            self.line_starts = [0] + [m.end() for m in re.finditer("\n", self.text)]
        line = bisect_right(self.line_starts, offset)
        return SourceSpan(self.filename, line, offset - self.line_starts[line - 1] + 1)

    def error(self, message: str, offset: int, severity: str = "error") -> ParseDiagnostic:
        return ParseDiagnostic(severity, message, self.span(offset))

    def fail(self, message: str, offset: int) -> NoReturn:
        self.errors.append(self.error(message, offset))
        self.raise_errors()

    def raise_errors(self) -> NoReturn:
        self.read(self.end)  # the rest of the text may hold a character no token reads
        raise ParseError(self.errors)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.next()
        if tok[0] != kind:
            self.fail(f"expected {what}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def term(self) -> Term:
        kind, text, offset = self.next()
        # equal constants share one object, so joins mostly compare by identity
        if kind == "STRING":
            return sys.intern(text)
        if kind == "IDENT":
            return Variable(text) if text[0].isupper() else sys.intern(text)
        self.fail(f"expected a term, found {text or 'end of input'!r}", offset)

    def atom(self) -> tuple[Atom, int]:
        _, name, offset = self.expect("IDENT", "a predicate name")
        if name[0].isupper():
            self.fail(f"predicate names must start lowercase: {name!r}", offset)
        self.expect("LPAREN", "'('")
        terms = [self.term()]
        while self.peek()[0] == "COMMA":
            self.pos += 1
            terms.append(self.term())
        self.expect("RPAREN", "')'")
        atom = Atom(name, terms)
        self.check_arity(atom, offset)
        return atom, offset

    def check_arity(self, atom: Atom, offset: int) -> None:
        seen = self.arities.get(atom.predicate)
        if seen is None:
            self.arities[atom.predicate] = (atom.arity, offset)
        elif seen[0] != atom.arity:
            self.errors.append(
                self.error(
                    f"predicate {atom.predicate} has arity {seen[0]} (first used at {self.span(seen[1])}) "
                    f"but appears here with arity {atom.arity}",
                    offset,
                )
            )

    def atom_list(self) -> list[tuple[Atom, int]]:
        atoms = [self.atom()]
        while self.peek()[0] == "COMMA":
            self.pos += 1
            atoms.append(self.atom())
        return atoms


def parse_program(text: str, filename: str = "<input>") -> Program:
    """Parse a .dlgx program (facts and rules).  Raises ParseError.  A
    leading byte-order mark is skipped; columns are counted without it."""
    text = text.removeprefix("\ufeff")
    parser = _Parser(text, filename)
    arities = parser.arities
    facts: list[Atom] = []
    rules: list[Rule] = []
    scan, words, intern, new = _FACT.match, _WORD.findall, sys.intern, tuple.__new__
    while True:
        # the fact scan, one match per statement, until a statement it cannot read
        pos = parser.end
        while (m := scan(text, pos)) is not None:
            # only blanks, '(' and ',' part the predicate and its terms, so
            # the words from one to the other are the fact, laid out flat
            start = m.start(1)
            fact = new(Atom, map(intern, words(text, start, m.end(2))))
            seen = arities.get(fact[0])
            if seen is None:
                arities[fact[0]] = (len(fact) - 1, start)
            elif seen[0] != len(fact) - 1:
                break  # the token reader reports the clash
            facts.append(fact)
            pos = m.end()
        # the token reader, for that one statement
        parser.read(pos, statement=True)
        first = parser.peek()
        if first[0] == "EOF":
            break
        if first[0] == "QUERY":
            parser.errors.append(parser.error("queries are not allowed in a program file", first[2]))
            break
        atoms = parser.atom_list()
        kind, found, offset = parser.next()
        if kind == "PERIOD":
            if len(atoms) != 1:
                parser.errors.append(
                    parser.error("a fact is a single atom; did you mean ':-' or '->'?", offset)
                )
                continue
            atom, offset = atoms[0]
            if not all(isinstance(t, str) for t in atom.terms):
                parser.errors.append(parser.error(f"facts must be ground: {format_atom(atom)}", offset))
                continue
            facts.append(atom)
        elif kind in ("IMPLIES", "ARROW"):
            other = parser.atom_list()
            parser.expect("PERIOD", "'.'")
            body, head = (other, atoms) if kind == "IMPLIES" else (atoms, other)
            rules.append(_make_rule(parser, len(rules), body, head))
        else:
            parser.fail(f"expected '.', ':-' or '->', found {found or 'end of input'!r}", offset)
    if parser.errors:
        parser.raise_errors()
    # every atom was arity-checked and every fact ground-checked above
    return Program(rules=tuple(rules), facts=tuple(facts))


def _make_rule(
    parser: _Parser,
    rule_id: int,
    body: list[tuple[Atom, int]],
    head: list[tuple[Atom, int]],
) -> Rule:
    try:
        return Rule.make(rule_id, [a for a, _ in body], [a for a, _ in head])
    except ValueError as exc:
        parser.fail(str(exc), head[0][1])


def parse_query(
    text: str,
    filename: str = "<query>",
    schema: Optional[dict[str, int]] = None,
    diagnostics: Optional[list[ParseDiagnostic]] = None,
) -> Query:
    """Parse ``?- atom, ..., atom.`` and an optional final line of
    comma-separated output variables, such as ``P, C``.  Without that
    line the query is Boolean; every other variable is existential.

    With a ``schema``, arity mismatches are errors, and an unknown
    predicate is a warning with its position, appended to ``diagnostics``
    or dropped without that list; evaluation answers false silently.
    A leading byte-order mark is skipped, as in :func:`parse_program`.
    """
    parser = _Parser(text.removeprefix("\ufeff"), filename)
    parser.read(0)
    parser.expect("QUERY", "'?-'")
    atoms = parser.atom_list()
    parser.expect("PERIOD", "'.'")
    outputs: list[_Token] = []
    if parser.peek()[0] == "IDENT":
        outputs.append(parser.next())
        while parser.peek()[0] == "COMMA":
            parser.next()
            outputs.append(parser.expect("IDENT", "an output variable"))
    kind, found, offset = parser.peek()
    if kind != "EOF":
        parser.errors.append(parser.error(f"unexpected input after query: {found!r}", offset))
    names = {v.name for atom, _ in atoms for v in atom.variables()}
    for _, name, offset in outputs:
        if name not in names:
            parser.errors.append(parser.error(f"output variable {name} does not occur in the query", offset))
    if schema is not None:
        for atom, offset in atoms:
            expected = schema.get(atom.predicate)
            if expected is None:
                if diagnostics is not None:
                    message = f"unknown predicate {atom.predicate}; query will answer false"
                    diagnostics.append(parser.error(message, offset, "warning"))
            elif expected != atom.arity:
                message = f"predicate {atom.predicate} has arity {expected} but the query uses {atom.arity}"
                parser.errors.append(parser.error(message, offset))
    if parser.errors:
        raise ParseError(parser.errors)
    return Query(atoms=tuple(a for a, _ in atoms), output_vars=tuple(name for _, name, _ in outputs))


def print_program(program: Program) -> str:
    """Render a program so that parsing it back yields an equal Program."""
    lines = [f"{format_atom(f)}." for f in program.facts]
    lines.extend(str(rule) for rule in program.rules)
    return "\n".join(lines) + ("\n" if lines else "")


def print_query(query: Query) -> str:
    """Render a query so that parsing it back yields an equal Query."""
    text = f"?- {', '.join(format_atom(a) for a in query.atoms)}.\n"
    if query.output_vars:
        text += ", ".join(query.output_vars) + "\n"
    return text


def load_facts_csv(
    predicate: str,
    path: str,
    header: bool = False,
    arity: Optional[int] = None,
) -> list[Atom]:
    """Load one fact per CSV row; every cell becomes a constant.

    Rows must have a uniform column count (the predicate's arity); pass
    ``header=True`` to skip the first row.  A UTF-8 byte-order mark at
    the start of the file is not part of the first cell.
    """
    facts: list[Atom] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        for row_number, row in enumerate(reader, start=1):
            if header and row_number == 1:
                continue
            if not row:
                continue
            if arity is None:
                arity = len(row)
            if len(row) != arity:
                raise ParseError(
                    [
                        ParseDiagnostic(
                            "error",
                            f"row has {len(row)} columns, expected {arity}",
                            SourceSpan(path, row_number, 1),
                        )
                    ]
                )
            facts.append(Atom(predicate, [sys.intern(cell) for cell in row]))
    return facts
