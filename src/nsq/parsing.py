"""Surface syntax for observables.

Grammar (whitespace separates the optional rational prefix from factors):

    expr     := term (('+' | '-') term)*
    term     := [rational] factor ('*' factor)*
    factor   := 'qh(' i ',' j ')' | 'pih(' k ')' | 'rh(' k ')' | '(' expr ')'
    rational := integer ['/' positive-integer]

'*' is the symmetric product.  The recursive-descent parser builds the
observable as it reads: a factor is its generator or its parenthesized
expression, a term the product of its factors times its coefficient, and
an expression the sum of its terms.  Parsing validates indices against
the bound dimension; syntax errors carry the byte offset.  A malformed
text is refused at its first error, after the prefix before it has been
evaluated.  Parentheses nest at most ``MAX_DEPTH`` deep; a deeper '(' is
a syntax error.

Printing an observable and reparsing the text is the identity on the full
bundle with rational coefficients.  Outside that scope the printed form is
not in the grammar: a slice observable prints as ``Pih(2)*Qh(1)`` and a
symbolic coefficient as ``(1 + ih) qh(1,1)``, and both are refused.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

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
        kind = m.lastgroup
        text = m.group(kind)
        tokens.append(Token(kind, text, m.start(kind)))
        pos = m.end()
    return tokens


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

    def parse_expr(self) -> Observable:
        sign = 1
        tok = self.peek()
        if tok is not None and tok.text in "+-":
            self.next()
            sign = -1 if tok.text == "-" else 1
        out = self.parse_term(sign)
        while True:
            tok = self.peek()
            if tok is None or tok.text not in "+-":
                return out
            self.next()
            out = out + self.parse_term(-1 if tok.text == "-" else 1)

    def parse_term(self, sign: int) -> Observable:
        coeff = sign
        tok = self.peek()
        if tok is not None and tok.kind == "int":
            coeff *= self.parse_rational()
        out = self.parse_factor()
        while True:
            tok = self.peek()
            if tok is None or tok.text != "*":
                break
            self.next()
            out = sym_mul(out, self.parse_factor())
        return out if coeff == 1 else out.scale(coeff)

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

    def parse_factor(self) -> Observable:
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
            return make_qhat(self.n, first, second)
        self.expect(")")
        return make_pihat(self.n, first) if name == "pih" else make_rhat(self.n, first)

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


def parse_observable(src: str, n: int) -> Observable:
    """The observable an expression denotes, its indices validated against n."""
    tokens = _tokenize(src)
    if not tokens:
        raise ParseError("empty expression", 0)
    if len(tokens) == 1 and tokens[0].text == "0":
        return Observable.zero(n)  # the zero observable prints as bare 0
    parser = _Parser(tokens, src, n)
    obs = parser.parse_expr()
    trailing = parser.peek()
    if trailing is not None:
        raise ParseError(f"unexpected trailing {trailing.text!r}", trailing.offset)
    return obs


def print_observable(obs: Observable) -> str:
    """Canonical textual form; on the full bundle with rational coefficients, reparsing reproduces it."""
    return repr(obs)
