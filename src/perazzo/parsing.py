"""Parser for the polynomial expression grammar.

    expression := term { ("+" | "-") term }
    term       := [sign] [rational] { "*" variable ["^" natural] }
    rational   := integer | integer "/" positive-integer

Whitespace is insignificant.  Variables must be declared up front via the
VariableSet; unknown names and non-homogeneous input are rejected with the
offset of the offending token.  `parse_poly(render(p)) == p` for nonzero p,
and rendering a parse of canonical text reproduces the text.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .poly import HomogeneousPoly, VariableSet

__all__ = ["parse_poly"]

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], vars: VariableSet, length: int):
        self.tokens = tokens
        self.vars = vars
        self.i = 0
        self.length = length

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.length)
        self.i += 1
        return tok

    def parse_sign(self) -> int:
        sign = 1
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "+-":
            if tok[1] == "-":
                sign = -sign
            self.i += 1
        return sign

    def parse_rational(self) -> Fraction:
        tok = self.take()
        assert tok[0] == "int"
        value = Fraction(int(tok[1]))
        nxt = self.peek()
        if nxt and nxt[0] == "op" and nxt[1] == "/":
            self.i += 1
            den = self.take()
            if den[0] != "int":
                raise ParseError("expected integer denominator", den[2])
            if int(den[1]) == 0:
                raise ParseError("zero denominator", den[2])
            value /= int(den[1])
        return value

    def parse_factor(self) -> tuple[Fraction, list[int], int]:
        """One '*'-joined factor: a rational or variable^power."""
        tok = self.take()
        if tok[0] == "int":
            self.i -= 1
            return (self.parse_rational(), [0] * len(self.vars), tok[2])
        if tok[0] == "name":
            if tok[1] not in self.vars.names:
                raise ParseError(f"unknown variable {tok[1]!r}", tok[2])
            exps = [0] * len(self.vars)
            power = 1
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "^":
                self.i += 1
                ptok = self.take()
                if ptok[0] != "int":
                    raise ParseError("expected integer exponent", ptok[2])
                power = int(ptok[1])
            exps[self.vars.index(tok[1])] = power
            return (Fraction(1), exps, tok[2])
        raise ParseError(f"expected a coefficient or variable, found {tok[1]!r}", tok[2])

    def parse_term(self) -> tuple[Fraction, tuple[int, ...], int]:
        sign = self.parse_sign()
        coeff, exps, at = self.parse_factor()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] == "*":
            self.i += 1
            c2, e2, _ = self.parse_factor()
            coeff *= c2
            exps = [a + b for a, b in zip(exps, e2)]
        return (sign * coeff, tuple(exps), at)


def parse_poly(
    text: str,
    vars: VariableSet,
    degree: int | None = None,
) -> HomogeneousPoly:
    """Parse text into a homogeneous polynomial over the declared variables.

    `degree` is required to tag a zero polynomial (e.g. the literal "0") with
    a degree other than 0, and is otherwise checked against the parsed terms.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 0)
    parser = _Parser(tokens, vars, len(text))
    terms: list[tuple[Fraction, tuple[int, ...], int]] = [parser.parse_term()]
    while (tok := parser.peek()) is not None:
        if tok[0] == "op" and tok[1] in "+-":
            terms.append(parser.parse_term())
        else:
            raise ParseError(f"expected '+' or '-', found {tok[1]!r}", tok[2])

    term_degree: int | None = None
    term_at = 0
    for coeff, exps, at in terms:
        if coeff == 0 and sum(exps) == 0:
            continue  # a bare "0" constrains no degree
        if term_degree is None:
            term_degree, term_at = sum(exps), at
        elif sum(exps) != term_degree:
            raise ParseError(
                f"non-homogeneous input: term of degree {sum(exps)} "
                f"after degree {term_degree}",
                at,
            )
    if term_degree is None:
        term_degree = degree if degree is not None else 0
    elif degree is not None and degree != term_degree:
        raise ParseError(
            f"declared degree {degree} but terms have degree {term_degree}", term_at
        )

    out: dict[tuple[int, ...], Fraction] = {}
    for coeff, exps, _ in terms:
        if coeff == 0:
            continue
        s = out.get(exps, Fraction(0)) + coeff
        if s:
            out[exps] = s
        else:
            out.pop(exps, None)
    return HomogeneousPoly(vars, term_degree, out)
