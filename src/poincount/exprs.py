"""Tiny recursive-descent parser for polynomial / rational expressions.

Grammar (EBNF):

    expr    := term { ("+" | "-") term }
    term    := factor { ("*" | "/") factor }
    factor  := "-" factor | power
    power   := atom [ "^" integer ]
    atom    := integer | symbol | "(" expr ")"
    symbol  := letter { letter | digit | "_" }

Only integer literals; no implicit multiplication (write 2*z, not 2z).
An exponent's magnitude is at most MAX_EXPONENT, checked before any work;
a closed form in z builds no numerator or denominator of degree above
MAX_DEGREE, checked on its AST before it is evaluated;
MAX_N and MAX_NMAX bound the catalog's integer parameters and a
verification's nmax alike, and MAX_KMAX the series order of the CLI's
series-reading commands.
Parsing builds an AST; evaluation plugs in any value algebra supporting
+, -, *, /, ** and a symbol resolver, so the same grammar serves the CLI's
rational functions in z and the jet-coordinate expressions of scenarios.
This module keeps only the grammar: a closed form in z is evaluated over
`RationalFunction` itself.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Union

from .algebra import RationalFunction
from .errors import UsageError


class ExpressionError(UsageError):
    """Malformed expression text."""


#: Largest |exponent| accepted by `^`; the catalog's closed forms stay
#: below 100 even at n = 40.
MAX_EXPONENT = 10_000

#: Largest degree of the unreduced numerator or denominator a closed form
#: in z may build, checked on its AST: ((1-z)^150)^150 took 10.8 s and then
#: failed on the int-to-text digit limit (2-core Xeon, Python 3.11).
MAX_DEGREE = 10_000

#: Largest integer parameter a catalog entry is built at (the dimension n,
#: the Poincare-Dulac m, p and q) and largest n of a counting plan, and
#: largest --nmax a verification samples up to, each checked before any
#: work: the cost grows fast in all of them (on a 2-core Xeon, Python
#: 3.11, `show hyper-kaehler --n 100` takes 1.3 s, `verify --nmax 60` 7.6 s
#: and `show poincare-dulac-saddle-node --param m=10000` 1.3 s).
MAX_N = 64
MAX_NMAX = 32

#: Largest --kmax of show, verify, analyze and rederive, checked before any
#: work: every value up to it is computed and printed (on a 2-core Xeon,
#: Python 3.11, `show riemannian --n 64 --kmax 10000` takes 0.18 s and
#: `verify --kmax 10000` 1.2 s, while a --kmax of 10^8 runs out of memory).
MAX_KMAX = 10_000


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # "+", "-", "*", "/"
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


Node = Union[Num, Sym, Neg, BinOp, Pow]

_SYMBOL_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
#: ASCII only: str.isdigit also accepts superscripts and other scripts' digits
_DIGITS = set("0123456789")
_SYMBOL_BODY = _SYMBOL_START | _DIGITS | {"_"}


def _read_int(text: str, what: str) -> int:
    """int(text) of `text`, an optionally signed ASCII digit string named
    `what`.  int() refuses such a string only for more digits than Python's
    text-to-int limit, and then so does this, with an ExpressionError."""
    try:
        return int(text)
    except ValueError:
        digits = len(text.strip().lstrip("+-"))
        raise ExpressionError(
            f"{what} has {digits} digits, more than the limit "
            f"{sys.get_int_max_str_digits()} of Python's text-to-int conversion"
        ) from None


def _tokenize(text: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(ch)
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(text[i:j])
            i = j
            continue
        if ch in _SYMBOL_START:
            j = i
            while j < len(text) and text[j] in _SYMBOL_BODY:
                j += 1
            tokens.append(text[i:j])
            i = j
            continue
        raise ExpressionError(f"unexpected character {ch!r} at position {i}")
    return tokens


def symbol_names(text: str) -> set[str]:
    """The symbols an expression names, read off its tokens without parsing."""
    return {tok for tok in _tokenize(text) if tok[0] in _SYMBOL_START}


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ExpressionError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, token: str) -> None:
        tok = self.take()
        if tok != token:
            raise ExpressionError(f"expected {token!r}, got {tok!r}")

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.take()
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Node:
        node = self.parse_factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Node:
        if self.peek() == "-":
            self.take()
            return Neg(self.parse_factor())
        if self.peek() == "+":
            self.take()
            return self.parse_factor()
        return self.parse_power()

    def parse_power(self) -> Node:
        base = self.parse_atom()
        if self.peek() == "^":
            self.take()
            neg = False
            if self.peek() == "-":
                self.take()
                neg = True
            tok = self.take()
            if tok[0] not in _DIGITS:
                raise ExpressionError(f"exponent must be an integer, got {tok!r}")
            magnitude = tok.lstrip("0") or "0"
            if len(magnitude) > len(str(MAX_EXPONENT)) or int(magnitude) > MAX_EXPONENT:
                raise ExpressionError(f"exponent magnitude is above the limit {MAX_EXPONENT}")
            exp = -int(magnitude) if neg else int(magnitude)
            return Pow(base, exp)
        return base

    def parse_atom(self) -> Node:
        tok = self.take()
        if tok == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok[0] in _DIGITS:
            return Num(_read_int(tok, "integer literal"))
        if tok[0] in _SYMBOL_START:
            return Sym(tok)
        raise ExpressionError(f"unexpected token {tok!r}")


def parse_expression(text: str) -> Node:
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionError("empty expression")
    parser = _Parser(tokens)
    try:
        node = parser.parse_expr()
    except RecursionError:
        raise ExpressionError("expression is nested too deeply") from None
    if parser.peek() is not None:
        raise ExpressionError(f"trailing input from token {parser.peek()!r}")
    return node


def evaluate_node(node: Node, const: Callable, symbol: Callable):
    """Evaluate an AST over any algebra with +, -, *, /, **.

    `const(int)` embeds integer literals, `symbol(name)` resolves names.
    """
    if isinstance(node, Num):
        return const(node.value)
    if isinstance(node, Sym):
        return symbol(node.name)
    if isinstance(node, Neg):
        return -evaluate_node(node.operand, const, symbol)
    if isinstance(node, Pow):
        return evaluate_node(node.base, const, symbol) ** node.exponent
    if isinstance(node, BinOp):
        left = evaluate_node(node.left, const, symbol)
        right = evaluate_node(node.right, const, symbol)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            return left / right
    raise ExpressionError(f"bad AST node {node!r}")  # pragma: no cover


def _degrees(node: Node) -> tuple[int, int]:
    """Bounds (n, d) on the degrees of the unreduced numerator and
    denominator RationalFunction's arithmetic builds for the node, or
    ExpressionError above MAX_DEGREE.  Dispatched on the exact node type: an
    isinstance chain took 4 % of an analyze-series pass, this 1 % (2-core Xeon)."""
    kind = type(node)
    if kind is BinOp:
        n1, d1 = _degrees(node.left)
        n2, d2 = _degrees(node.right)
        if node.op == "/":
            n2, d2 = d2, n2
        n, d = (n1 + n2, d1 + d2) if node.op in "*/" else (max(n1 + d2, n2 + d1), d1 + d2)
    elif kind is Pow:
        n, d = _degrees(node.base)
        e = node.exponent
        n, d = (e * n, e * d) if e >= 0 else (-e * d, -e * n)
    elif kind is Neg:
        return _degrees(node.operand)
    else:
        return (1, 0) if kind is Sym else (0, 0)
    if n > MAX_DEGREE or d > MAX_DEGREE:
        raise ExpressionError(f"expression degree is above the limit {MAX_DEGREE}")
    return n, d


def parse_rational_function(text: str) -> RationalFunction:
    """Parse a closed-form expression in the single symbol z.

    The AST is evaluated over RationalFunction, whose arithmetic leaves the
    quotient unreduced, so the gcd is taken once, when the result is read.
    """
    node = parse_expression(text)

    def symbol(name: str) -> RationalFunction:
        if name == "z":
            return RationalFunction.z()
        raise ExpressionError(f"unknown symbol {name!r}; only z is allowed")

    try:
        _degrees(node)
        return evaluate_node(node, RationalFunction.from_scalar, symbol)
    except ZeroDivisionError as exc:
        raise ExpressionError(f"{exc} in {text!r}") from None
    except RecursionError:
        raise ExpressionError("expression is nested too deeply") from None
