"""Text formats: .dlgx programs, queries, and CSV fact files.

Grammar, one statement per '.':

    % a comment runs to end of line
    parent(alice, bob).                    % fact: constants only
    ancestor(X, Y) :- parent(X, Y).        % rule, head on the left
    parent(X, Y) -> ancestor(X, Y).        % same rule, arrow form
    ?- ancestor(alice, Y).                 % query, in a query file of its own
    Y                                      % optional last line: output variables

Identifiers starting with an uppercase letter are variables; everything
else (lowercase-initial, numeric, or double-quoted) is a constant.  Head
variables that do not occur in the body are existential.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .model import (
    Atom,
    Constant,
    Program,
    Rule,
    SchemaError,
    Term,
    Variable,
    constant,
    format_atom,
)
from .query import Query


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


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    span: SourceSpan


_PUNCT = {
    ":-": "IMPLIES",
    "-->": "ARROW",
    "->": "ARROW",
    "?-": "QUERY",
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    ".": "PERIOD",
}


def _tokenize(text: str, filename: str) -> Iterator[_Token]:
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        span = SourceSpan(filename, line, col)
        if ch == '"':
            j = i + 1
            buf = []
            while j < n:
                c = text[j]
                if c == "\\" and j + 1 < n:
                    buf.append(text[j + 1])
                    j += 2
                    continue
                if c == '"':
                    break
                if c == "\n":
                    break
                buf.append(c)
                j += 1
            if j >= n or text[j] != '"':
                raise ParseError([ParseDiagnostic("error", "unterminated string", span)])
            yield _Token("STRING", "".join(buf), span)
            col += j + 1 - i
            i = j + 1
            continue
        matched = False
        for punct in ("-->", ":-", "?-", "->"):
            if text.startswith(punct, i):
                yield _Token(_PUNCT[punct], punct, span)
                i += len(punct)
                col += len(punct)
                matched = True
                break
        if matched:
            continue
        if ch in "(),.":
            yield _Token(_PUNCT[ch], ch, span)
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_" or ch.isdigit():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            yield _Token("IDENT", word, span)
            col += j - i
            i = j
            continue
        raise ParseError([ParseDiagnostic("error", f"unexpected character {ch!r}", span)])
    yield _Token("EOF", "", SourceSpan(filename, line, col))


class _Parser:
    def __init__(self, text: str, filename: str):
        self.tokens = list(_tokenize(text, filename))
        self.pos = 0
        self.errors: list[ParseDiagnostic] = []
        self.arities: dict[str, tuple[int, SourceSpan]] = {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                self.errors
                + [ParseDiagnostic("error", f"expected {what}, found {tok.text or 'end of input'!r}", tok.span)]
            )
        return self.next()

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind == "STRING":
            self.next()
            return constant(tok.text)
        if tok.kind == "IDENT":
            self.next()
            if tok.text[0].isupper():
                return Variable(tok.text)
            return constant(tok.text)
        raise ParseError(
            self.errors
            + [ParseDiagnostic("error", f"expected a term, found {tok.text or 'end of input'!r}", tok.span)]
        )

    def atom(self) -> tuple[Atom, SourceSpan]:
        tok = self.expect("IDENT", "a predicate name")
        if tok.text[0].isupper():
            raise ParseError(
                self.errors
                + [ParseDiagnostic("error", f"predicate names must start lowercase: {tok.text!r}", tok.span)]
            )
        self.expect("LPAREN", "'('")
        terms = [self.term()]
        while self.peek().kind == "COMMA":
            self.next()
            terms.append(self.term())
        self.expect("RPAREN", "')'")
        atom = Atom(tok.text, terms)
        self.check_arity(atom, tok.span)
        return atom, tok.span

    def check_arity(self, atom: Atom, span: SourceSpan) -> None:
        seen = self.arities.get(atom.predicate)
        if seen is None:
            self.arities[atom.predicate] = (atom.arity, span)
        elif seen[0] != atom.arity:
            self.errors.append(
                ParseDiagnostic(
                    "error",
                    f"predicate {atom.predicate} has arity {seen[0]} (first used at {seen[1]}) "
                    f"but appears here with arity {atom.arity}",
                    span,
                )
            )

    def atom_list(self) -> list[tuple[Atom, SourceSpan]]:
        atoms = [self.atom()]
        while self.peek().kind == "COMMA":
            self.next()
            atoms.append(self.atom())
        return atoms


def parse_program(text: str, filename: str = "<input>") -> Program:
    """Parse a .dlgx program (facts and rules).  Raises ParseError."""
    parser = _Parser(text, filename)
    facts: list[Atom] = []
    rules: list[Rule] = []
    while parser.peek().kind != "EOF":
        first = parser.peek()
        if first.kind == "QUERY":
            parser.errors.append(
                ParseDiagnostic("error", "queries are not allowed in a program file", first.span)
            )
            break
        atoms = parser.atom_list()
        tok = parser.peek()
        if tok.kind == "PERIOD":
            parser.next()
            if len(atoms) != 1:
                parser.errors.append(
                    ParseDiagnostic("error", "a fact is a single atom; did you mean ':-' or '->'?", tok.span)
                )
                continue
            atom, span = atoms[0]
            if not all(isinstance(t, Constant) for t in atom.terms):
                parser.errors.append(
                    ParseDiagnostic("error", f"facts must be ground: {format_atom(atom)}", span)
                )
                continue
            facts.append(atom)
        elif tok.kind == "IMPLIES":
            parser.next()
            body = parser.atom_list()
            parser.expect("PERIOD", "'.'")
            rules.append(_make_rule(parser, len(rules), body, atoms))
        elif tok.kind == "ARROW":
            parser.next()
            head = parser.atom_list()
            parser.expect("PERIOD", "'.'")
            rules.append(_make_rule(parser, len(rules), atoms, head))
        else:
            raise ParseError(
                parser.errors
                + [ParseDiagnostic("error", f"expected '.', ':-' or '->', found {tok.text or 'end of input'!r}", tok.span)]
            )
    if parser.errors:
        raise ParseError(parser.errors)
    try:
        return Program(rules=tuple(rules), facts=tuple(facts))
    except (ValueError, SchemaError) as exc:
        raise ParseError(
            [ParseDiagnostic("error", str(exc), SourceSpan(filename, 1, 1))]
        ) from exc


def _make_rule(
    parser: _Parser,
    rule_id: int,
    body: list[tuple[Atom, SourceSpan]],
    head: list[tuple[Atom, SourceSpan]],
) -> Rule:
    try:
        return Rule.make(rule_id, [a for a, _ in body], [a for a, _ in head])
    except ValueError as exc:
        raise ParseError(parser.errors + [ParseDiagnostic("error", str(exc), head[0][1])]) from exc


def parse_query(
    text: str,
    filename: str = "<query>",
    schema: Optional[dict[str, int]] = None,
    diagnostics: Optional[list[ParseDiagnostic]] = None,
) -> Query:
    """Parse ``?- atom, ..., atom.`` and an optional final line of
    comma-separated output variables, such as ``P, C``.  Without that
    line the query is Boolean; every other variable is existential.

    With a ``schema``, unknown predicates produce a non-fatal warning
    (appended to ``diagnostics``) and arity mismatches are errors.
    """
    parser = _Parser(text, filename)
    parser.expect("QUERY", "'?-'")
    atoms = parser.atom_list()
    parser.expect("PERIOD", "'.'")
    outputs: list[_Token] = []
    if parser.peek().kind == "IDENT":
        outputs.append(parser.next())
        while parser.peek().kind == "COMMA":
            parser.next()
            outputs.append(parser.expect("IDENT", "an output variable"))
    tok = parser.peek()
    if tok.kind != "EOF":
        parser.errors.append(
            ParseDiagnostic("error", f"unexpected input after query: {tok.text!r}", tok.span)
        )
    names = {v.name for atom, _ in atoms for v in atom.variables()}
    for tok in outputs:
        if tok.text not in names:
            parser.errors.append(
                ParseDiagnostic("error", f"output variable {tok.text} does not occur in the query", tok.span)
            )
    if schema is not None:
        for atom, span in atoms:
            expected = schema.get(atom.predicate)
            if expected is None:
                note = ParseDiagnostic(
                    "warning", f"unknown predicate {atom.predicate}; query will answer false", span
                )
                if diagnostics is not None:
                    diagnostics.append(note)
            elif expected != atom.arity:
                parser.errors.append(
                    ParseDiagnostic(
                        "error",
                        f"predicate {atom.predicate} has arity {expected} but the query uses {atom.arity}",
                        span,
                    )
                )
    if parser.errors:
        raise ParseError(parser.errors)
    return Query(atoms=tuple(a for a, _ in atoms), output_vars=tuple(t.text for t in outputs))


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
    ``header=True`` to skip the first row.
    """
    facts: list[Atom] = []
    with open(path, newline="", encoding="utf-8") as fh:
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
            facts.append(Atom(predicate, [constant(cell) for cell in row]))
    return facts
