"""Tiny arithmetic expression language for user-supplied right-hand sides.

Grammar (no implicit multiplication):

    expr    := '-' expr | expr OP expr | atom      OP one of + - * / ^
    atom    := NUMBER | 't' | 'x'<digits> | FUNC '(' expr ')' | '(' expr ')'
    FUNC    := sin | cos | tan | exp | log | sqrt | abs
    NUMBER  := (digits ('.' digits?)? | '.' digits) ([eE] [+-]? digits)?

Digits, letters and whitespace are ASCII; any other character is a parse
error at its offset.  A NUMBER must be finite in float64: ``1e400`` is a
parse error at its offset, while ``1e-400`` reads as 0.0.

One table, ``_PREC``, ranks the operators, tightest first: ^, unary -,
* /, + -.  The parser reads it by precedence climbing (Pratt's top-down
operator precedence, POPL 1973).  Binary operators group to the left
except ^, which groups to the right, and a unary - may open any operand.
So ``-x1^2`` is -(x1^2), ``2^3^2`` is 2^(3^2) = 512 and ``2^-3^2`` is
2^(-(3^2)).  Parse errors carry the byte offset of the offending token,
an expression nested deeper than ``MAX_DEPTH`` levels included.

One evaluator, ``evaluate``, walks the tree with numpy, at one point or
over a whole grid: a division by zero or an invalid operation raises
ExprEvalError naming it, and an overflow gives inf.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ExprError, ExprEvalError

FUNCTIONS = {name: getattr(np, name)
             for name in ("sin", "cos", "tan", "exp", "log", "sqrt", "abs")}

_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}

#: Deepest nesting ``parse`` accepts: the parentheses, function calls, unary
#: minus signs and binary operators on one root-to-leaf path.  Parsing and
#: evaluating recurse once per level, at most three frames a level, so 100
#: keeps both far inside Python's default recursion limit of 1000, with room
#: for the caller's own frames (a test runner's included).
MAX_DEPTH = 100


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    """index None is the time variable t; index j >= 1 is x_j."""

    index: int | None


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Num | Var | Neg | BinOp | Call


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'ident' | 'op' | 'end'
    text: str
    pos: int


# Optional whitespace, then a token or the offending character; \s \d \w are ASCII.
_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_]\w*)|(?P<op>[-+*/^()])|(?P<end>\Z)|(?P<bad>.))",
    re.ASCII | re.DOTALL,
)


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    pos = 0
    while True:
        match = _TOKEN.match(src, pos)
        kind = match.lastgroup
        if kind == "bad":
            raise ExprError(f"unexpected character {match[kind]!r}", match.start(kind))
        tokens.append(_Token(kind, match[kind], match.start(kind)))
        if kind == "end":
            return tokens
        pos = match.end()


class _Parser:
    def __init__(self, src: str, m: int):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.m = m

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def peek_op(self) -> str:
        """The next token's text if it is an operator, else ''."""
        tok = self.peek()
        return tok.text if tok.kind == "op" else ""

    def expect_op(self, text: str) -> _Token:
        if self.peek_op() != text:
            raise ExprError(f"expected {text!r}", self.peek().pos)
        return self.advance()

    def parse(self) -> Expr:
        node, _ = self.expr(0)
        tail = self.peek()
        if tail.kind != "end":
            raise ExprError(f"unexpected token {tail.text!r}", tail.pos)
        return node

    def nest(self, depth: int, tok: _Token) -> int:
        """``depth`` plus the level that ``tok`` opens; refused past MAX_DEPTH."""
        if depth >= MAX_DEPTH:
            raise ExprError(f"expression nested deeper than {MAX_DEPTH} levels", tok.pos)
        return depth + 1

    def expr(self, depth: int, min_prec: int = 0) -> tuple[Expr, int]:
        """An operand, then every binary operator that binds at least ``min_prec``.

        ``depth`` levels enclose the expression.  Returns the node and its
        height, the levels on its longest path down; depth + height never
        passes MAX_DEPTH.  A binary operator parses its right operand one
        level tighter than itself, so it groups to the left; ``^`` parses it
        at its own level, so it groups to the right.
        """
        if self.peek_op() == "-":
            tok = self.advance()
            operand, height = self.expr(self.nest(depth, tok), _PREC["neg"])
            node, height = Neg(operand), height + 1
        else:
            node, height = self.atom(depth)
        while (op := self.peek_op()) in _OPS and _PREC[op] >= min_prec:
            tok = self.advance()
            self.nest(depth + height, tok)  # the left operand sinks one level
            right, right_height = self.expr(depth + 1, _PREC[op] + (op != "^"))
            node, height = BinOp(op, node, right), 1 + max(height, right_height)
        return node, height

    def atom(self, depth: int) -> tuple[Expr, int]:
        tok = self.advance()
        if tok.kind == "num":
            value = float(tok.text)
            if math.isinf(value):
                raise ExprError(f"not a finite number: {tok.text!r}", tok.pos)
            return Num(value), 0
        if tok.kind == "ident":
            return self.ident(tok, depth)
        if tok.kind == "op" and tok.text == "(":
            node, height = self.expr(self.nest(depth, tok))
            self.expect_op(")")
            return node, height + 1
        raise ExprError(f"expected a value, got {tok.text or 'end of input'!r}", tok.pos)

    def ident(self, tok: _Token, depth: int) -> tuple[Expr, int]:
        name = tok.text
        if name == "t":
            return Var(None), 0
        if name in FUNCTIONS:
            self.expect_op("(")
            arg, height = self.expr(self.nest(depth, tok))
            self.expect_op(")")
            return Call(name, arg), height + 1
        if name.startswith("x") and name[1:].isdigit():
            index = int(name[1:])
            if not 1 <= index <= self.m:
                raise ExprError(
                    f"variable {name!r} out of range (system has m={self.m})", tok.pos
                )
            return Var(index), 0
        raise ExprError(f"unknown identifier {name!r}", tok.pos)


def parse(src: str, m: int) -> Expr:
    """Parse a right-hand-side expression over variables t, x1..xm."""
    return _Parser(src, m).parse()


def evaluate(node: Expr, x, t):
    """Evaluate at one point (x of shape (m,), scalar t) or over a grid.

    Over a grid, x has shape (m, N), t has shape (N,) and the result N
    values; a constant expression gives one number either way.  A
    division by zero or an invalid operation (log of <= 0, sqrt of < 0, a
    negative base to a fractional power) raises ExprEvalError naming the
    operation and its operands, a grid operand by its size ("<N values>");
    an overflow gives inf, for the caller to refuse.
    """
    with np.errstate(divide="raise", invalid="raise", over="ignore"):
        return _walk(node, x, t)


def _shown(operand) -> str:
    return str(operand) if np.ndim(operand) == 0 else f"<{np.size(operand)} values>"


def _walk(node: Expr, x, t):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return t if node.index is None else x[node.index - 1]
    if isinstance(node, Neg):
        return -_walk(node.operand, x, t)
    if isinstance(node, Call):
        arg = _walk(node.arg, x, t)
        try:
            return FUNCTIONS[node.func](arg)
        except FloatingPointError as exc:
            raise ExprEvalError(f"{node.func}({_shown(arg)}) is undefined") from exc
    left = _walk(node.left, x, t)
    right = _walk(node.right, x, t)
    try:
        return _OPS[node.op](left, right)
    except FloatingPointError as exc:
        raise ExprEvalError(f"{_shown(left)} {node.op} {_shown(right)} is undefined") from exc
