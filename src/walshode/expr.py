"""Tiny arithmetic expression language for user-supplied right-hand sides.

Grammar (recursive descent, no implicit multiplication):

    expr    := term  (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?            # right-associative
    atom    := NUMBER | 't' | 'x'<digits> | FUNC '(' expr ')' | '(' expr ')'
    FUNC    := sin | cos | tan | exp | log | sqrt | abs

Precedence, tightest first: ^, unary -, * /, + -.  So ``-x1^2`` is
-(x1^2) and ``2^3^2`` is 2^(3^2) = 512.  Parse errors carry the byte
offset of the offending token.

Two evaluators walk the same tree: ``evaluate`` at one point with Python
floats and ``math`` (the scalar oracle, which names domain errors), and
``evaluate_grid`` over a whole grid with numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ExprError, ExprEvalError

FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
}

_GRID_FUNCTIONS = {name: getattr(np, name) for name in FUNCTIONS}

_GRID_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
             "^": np.power}

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


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


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    i = 0
    length = len(src)
    while i < length:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < length and src[i + 1].isdigit()):
            start = i
            while i < length and src[i].isdigit():
                i += 1
            if i < length and src[i] == ".":
                i += 1
                while i < length and src[i].isdigit():
                    i += 1
            if i < length and src[i] in "eE":
                j = i + 1
                if j < length and src[j] in "+-":
                    j += 1
                if j < length and src[j].isdigit():
                    i = j
                    while i < length and src[i].isdigit():
                        i += 1
            tokens.append(_Token("num", src[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < length and (src[i].isalnum() or src[i] == "_"):
                i += 1
            tokens.append(_Token("ident", src[start:i], start))
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise ExprError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", length))
    return tokens


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

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ExprError(f"expected {text!r}", tok.pos)
        return self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        tail = self.peek()
        if tail.kind != "end":
            raise ExprError(f"unexpected token {tail.text!r}", tail.pos)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            return BinOp("^", node, self.unary())
        return node

    def atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "ident":
            return self.ident(tok)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprError(f"expected a value, got {tok.text or 'end of input'!r}", tok.pos)

    def ident(self, tok: _Token) -> Expr:
        name = tok.text
        if name == "t":
            return Var(None)
        if name in FUNCTIONS:
            self.expect_op("(")
            arg = self.expr()
            self.expect_op(")")
            return Call(name, arg)
        if name.startswith("x") and name[1:].isdigit():
            index = int(name[1:])
            if not 1 <= index <= self.m:
                raise ExprError(
                    f"variable {name!r} out of range (system has m={self.m})", tok.pos
                )
            return Var(index)
        raise ExprError(f"unknown identifier {name!r}", tok.pos)


def parse(src: str, m: int) -> Expr:
    """Parse a right-hand-side expression over variables t, x1..xm."""
    return _Parser(src, m).parse()


def evaluate(node: Expr, x, t: float) -> float:
    """Evaluate with state vector x (length m) at time t."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return float(t) if node.index is None else float(x[node.index - 1])
    if isinstance(node, Neg):
        return -evaluate(node.operand, x, t)
    if isinstance(node, Call):
        arg = evaluate(node.arg, x, t)
        try:
            return float(FUNCTIONS[node.func](arg))
        except (ValueError, OverflowError) as exc:
            raise ExprEvalError(f"{node.func}({arg}) is undefined") from exc
    left = evaluate(node.left, x, t)
    right = evaluate(node.right, x, t)
    try:
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            return left / right
        return math.pow(left, right)
    except (ZeroDivisionError, ValueError, OverflowError) as exc:
        raise ExprEvalError(f"{left} {node.op} {right} is undefined") from exc


def evaluate_grid(node: Expr, x, t):
    """Evaluate over a grid: x of shape (m, N), t of shape (N,).

    Returns an array of shape (N,), or a scalar for a constant expression.
    Domain errors are not named here: they raise FloatingPointError under
    ``np.errstate(..., "raise")`` or leave non-finite values, and
    ``evaluate`` at the failing point says which.
    """
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return t if node.index is None else x[node.index - 1]
    if isinstance(node, Neg):
        return -evaluate_grid(node.operand, x, t)
    if isinstance(node, Call):
        return _GRID_FUNCTIONS[node.func](evaluate_grid(node.arg, x, t))
    return _GRID_OPS[node.op](
        evaluate_grid(node.left, x, t), evaluate_grid(node.right, x, t)
    )


def _prec(node: Expr) -> int:
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _PREC["neg"]
    if isinstance(node, Num) and node.value < 0:
        return _PREC["neg"]
    return 5


def to_source(node: Expr) -> str:
    """Render an expression; the output re-parses to an identical tree."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return "t" if node.index is None else f"x{node.index}"
    if isinstance(node, Neg):
        inner = to_source(node.operand)
        if _prec(node.operand) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.func}({to_source(node.arg)})"
    lhs, rhs = to_source(node.left), to_source(node.right)
    prec = _PREC[node.op]
    if node.op == "^":
        # Right-associative: parenthesize an operator-left operand and a
        # looser right operand.
        if _prec(node.left) <= prec:
            lhs = f"({lhs})"
        if _prec(node.right) < prec:
            rhs = f"({rhs})"
    else:
        if _prec(node.left) < prec:
            lhs = f"({lhs})"
        if _prec(node.right) <= prec:
            rhs = f"({rhs})"
    return f"{lhs} {node.op} {rhs}"
