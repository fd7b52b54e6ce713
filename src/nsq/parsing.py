"""Surface syntax for observables.

Grammar (whitespace separates the optional rational prefix from factors):

    expr     := term (('+' | '-') term)*
    term     := [rational] factor ('*' factor)*
    factor   := 'qh(' i ',' j ')' | 'pih(' k ')' | 'rh(' k ')' | '(' expr ')'
    rational := integer ['/' positive-integer]

'*' is the symmetric product.  Parsing validates indices against the bound
dimension; syntax errors carry the byte offset.  Parentheses nest at most
``MAX_DEPTH`` deep; a deeper '(' is a syntax error.  Printing an
observable's canonical form and reparsing it is the identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .algebra import Observable, make_pihat, make_qhat, make_rhat, sym_mul
from .errors import IndexRangeError, ParseError

MAX_DEPTH = 100  # the deepest parenthesis nesting the recursive parser accepts

_TOKEN = re.compile(
    r"\s*(?:(?P<name>qh|pih|rh)|(?P<int>[0-9]+)|(?P<punct>[()+\-*/,]))"
)


@dataclass
class Token:
    kind: str
    text: str
    offset: int


def _tokenize(src: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(src) - len(stripped))
        if m.lastgroup is None:
            break
        kind = m.lastgroup
        text = m.group(kind)
        tokens.append(Token(kind, text, m.start(kind)))
        pos = m.end()
    return tokens


# -- AST -----------------------------------------------------------------------


@dataclass
class Gen:
    kind: str  # "qh" | "pih" | "rh"
    indices: tuple


@dataclass
class Prod:
    factors: list


@dataclass
class Scaled:
    coeff: Fraction
    node: Union[Gen, Prod, "Sum"]


@dataclass
class Sum:
    parts: list


class _Parser:
    def __init__(self, tokens: list[Token], src: str, n: int):
        self.tokens = tokens
        self.src = src
        self.n = n
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.src))
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.offset)
        return tok

    def parse_expr(self) -> Sum:
        parts = []
        sign = Fraction(1)
        tok = self.peek()
        if tok is not None and tok.text in "+-":
            self.next()
            sign = Fraction(-1) if tok.text == "-" else Fraction(1)
        parts.append(self.parse_term(sign))
        while True:
            tok = self.peek()
            if tok is None or tok.text not in "+-":
                break
            self.next()
            sign = Fraction(-1) if tok.text == "-" else Fraction(1)
            parts.append(self.parse_term(sign))
        return Sum(parts)

    def parse_term(self, sign: Fraction) -> Scaled:
        coeff = sign
        tok = self.peek()
        if tok is not None and tok.kind == "int":
            coeff *= self.parse_rational()
        factors = [self.parse_factor()]
        while True:
            tok = self.peek()
            if tok is None or tok.text != "*":
                break
            self.next()
            factors.append(self.parse_factor())
        node = factors[0] if len(factors) == 1 else Prod(factors)
        return Scaled(coeff, node)

    def parse_rational(self) -> Fraction:
        tok = self.next()
        value = Fraction(int(tok.text))
        nxt = self.peek()
        if nxt is not None and nxt.text == "/":
            self.next()
            den_tok = self.next()
            if den_tok.kind != "int" or int(den_tok.text) == 0:
                raise ParseError("expected positive integer denominator", den_tok.offset)
            value /= int(den_tok.text)
        return value

    def parse_factor(self):
        tok = self.next()
        if tok.text == "(":
            if self.depth == MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}", tok.offset)
            self.depth += 1
            inner = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return inner
        if tok.kind != "name":
            raise ParseError(f"expected a generator or '(', found {tok.text!r}", tok.offset)
        name = tok.text
        self.expect("(")
        first = self._index()
        if name == "qh":
            self.expect(",")
            second = self._index()
            self.expect(")")
            return Gen("qh", (first, second))
        self.expect(")")
        return Gen(name, (first,))

    def _index(self) -> int:
        tok = self.next()
        if tok.kind != "int":
            raise ParseError(f"expected an index, found {tok.text!r}", tok.offset)
        value = int(tok.text)
        if not 1 <= value <= self.n:
            raise IndexRangeError(
                f"index {value} out of range 1..{self.n} (at offset {tok.offset})"
            )
        return value


def parse(src: str, n: int) -> Sum:
    """Parse an expression into its AST, validating indices against n."""
    tokens = _tokenize(src)
    if not tokens:
        raise ParseError("empty expression", 0)
    if len(tokens) == 1 and tokens[0].text == "0":
        return Sum([])  # the zero observable prints as bare 0
    parser = _Parser(tokens, src, n)
    ast = parser.parse_expr()
    trailing = parser.peek()
    if trailing is not None:
        raise ParseError(f"unexpected trailing {trailing.text!r}", trailing.offset)
    return ast


def to_observable(ast, n: int) -> Observable:
    """Evaluate an AST into an observable."""
    if isinstance(ast, Sum):
        out = Observable.zero(n)
        for part in ast.parts:
            out = out + to_observable(part, n)
        return out
    if isinstance(ast, Scaled):
        return to_observable(ast.node, n).scale(ast.coeff)
    if isinstance(ast, Prod):
        out = to_observable(ast.factors[0], n)
        for f in ast.factors[1:]:
            out = sym_mul(out, to_observable(f, n))
        return out
    if isinstance(ast, Gen):
        if ast.kind == "qh":
            return make_qhat(n, *ast.indices)
        if ast.kind == "pih":
            return make_pihat(n, ast.indices[0])
        return make_rhat(n, ast.indices[0])
    raise TypeError(f"not an AST node: {ast!r}")


def parse_observable(src: str, n: int) -> Observable:
    return to_observable(parse(src, n), n)


def print_observable(obs: Observable) -> str:
    """Canonical textual form; reparsing reproduces the observable."""
    return repr(obs)
