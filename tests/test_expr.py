"""Expression parsing and evaluation, at one point and over a grid."""

import math
import re

import numpy as np
import pytest

from walshode import ExprError, ExprEvalError, builtin_problem
from walshode.expr import MAX_DEPTH, BinOp, Neg, Num, Var, _tokenize, evaluate, parse


def ev(src, x=(), t=0.0, m=None):
    return evaluate(parse(src, len(x) if m is None else m), list(x), t)


# ---------------------------------------------------------------------------
# parsing


def test_parse_riccati_rhs():
    tree = parse("x1^2 + x1 + 1", 1)
    assert tree == BinOp(
        "+", BinOp("+", BinOp("^", Var(1), Num(2.0)), Var(1)), Num(1.0)
    )


def test_parse_beer_second_rhs():
    tree = parse("-(3*x1*x2 + x1^3)", 2)
    inner = BinOp(
        "+",
        BinOp("*", BinOp("*", Num(3.0), Var(1)), Var(2)),
        BinOp("^", Var(1), Num(3.0)),
    )
    assert tree == Neg(inner)


def test_variable_out_of_range():
    with pytest.raises(ExprError) as info:
        parse("x3", 2)
    assert info.value.offset == 0
    with pytest.raises(ExprError):
        parse("x1 + x2", 1)


def test_unknown_identifier_offset():
    with pytest.raises(ExprError) as info:
        parse("2 + foo", 1)
    assert info.value.offset == 4


def test_unbalanced_parentheses():
    with pytest.raises(ExprError):
        parse("(x1 + 1", 1)
    with pytest.raises(ExprError):
        parse("x1 + 1)", 1)


@pytest.mark.parametrize("src, m, offset", [
    ("x1\u00b2", 1, 2),        # superscript two after a variable
    ("\u00b2", 0, 0),          # superscript two alone
    ("\u0663 + x1", 1, 0),     # Arabic-Indic three
    ("x1\u00a0+ 1", 1, 2),     # no-break space
    ("\u00e9 + 1", 0, 0),      # accented letter
    ("1 + .", 0, 4),           # a point with no digit after it
    ("x1 @ 2", 1, 3),
])
def test_characters_outside_the_grammar_are_parse_errors(src, m, offset):
    with pytest.raises(ExprError, match="unexpected character") as info:
        parse(src, m)
    assert info.value.offset == offset


@pytest.mark.parametrize("src, tokens", [
    ("5.", [("num", "5.", 0), ("end", "", 2)]),
    (".5", [("num", ".5", 0), ("end", "", 2)]),
    ("1e", [("num", "1", 0), ("ident", "e", 1), ("end", "", 2)]),
    ("1e+5", [("num", "1e+5", 0), ("end", "", 4)]),
    ("1.5.3", [("num", "1.5", 0), ("num", ".3", 3), ("end", "", 5)]),
    ("1e5e3", [("num", "1e5", 0), ("ident", "e3", 3), ("end", "", 5)]),
    ("\tx1\n*\t2\n", [("ident", "x1", 1), ("op", "*", 4), ("num", "2", 6),
                      ("end", "", 8)]),
    ("x1 + 1  ", [("ident", "x1", 0), ("op", "+", 3), ("num", "1", 5),
                  ("end", "", 8)]),
])
def test_ascii_edge_case_tokens(src, tokens):
    assert [(tok.kind, tok.text, tok.pos) for tok in _tokenize(src)] == tokens


@pytest.mark.parametrize("src, tree", [
    ("-2^2*3", BinOp("*", Neg(BinOp("^", Num(2.0), Num(2.0))), Num(3.0))),
    ("2^-3^2", BinOp("^", Num(2.0), Neg(BinOp("^", Num(3.0), Num(2.0))))),
    ("2*-3^2", BinOp("*", Num(2.0), Neg(BinOp("^", Num(3.0), Num(2.0))))),
    ("1--2", BinOp("-", Num(1.0), Neg(Num(2.0)))),
    ("-x1^2^3", Neg(BinOp("^", Var(1), BinOp("^", Num(2.0), Num(3.0))))),
    ("2^3*4", BinOp("*", BinOp("^", Num(2.0), Num(3.0)), Num(4.0))),
])
def test_precedence_and_grouping_trees(src, tree):
    assert parse(src, 1) == tree


@pytest.mark.parametrize("src, message", [
    ("2 +", "expected a value, got 'end of input' (at offset 3)"),
    ("(x1", "expected ')' (at offset 3)"),
    ("x1)", "unexpected token ')' (at offset 2)"),
    ("2 * * 3", "expected a value, got '*' (at offset 4)"),
    ("sin x1", "expected '(' (at offset 4)"),
    ("sin(1e309)", "not a finite number: '1e309' (at offset 4)"),
])
def test_parse_error_messages_and_offsets(src, message):
    with pytest.raises(ExprError) as info:
        parse(src, 1)
    assert str(info.value) == message
    assert info.value.offset == int(message.rsplit(" ", 1)[1].rstrip(")"))


def test_function_requires_parentheses():
    with pytest.raises(ExprError):
        parse("sin x1", 1)


def test_no_implicit_multiplication():
    with pytest.raises(ExprError) as info:
        parse("2x1", 1)
    assert info.value.offset == 1


# Each shape at k levels of nesting, and the offset of the token that opens its last level.
NESTINGS = {
    "parentheses": (lambda k: "(" * k + "x1" + ")" * k, lambda src: src.index("x1") - 1),
    "calls": (lambda k: "abs(" * k + "x1" + ")" * k, lambda src: src.index("x1") - 4),
    "unary minus": (lambda k: "-" * k + "x1", lambda src: src.index("x1") - 1),
    "flat sum": (lambda k: "+".join(["x1"] * (k + 1)), lambda src: src.rindex("+")),
    "power chain": (lambda k: "^".join(["x1"] * (k + 1)), lambda src: src.rindex("^")),
}


@pytest.mark.parametrize("shape", NESTINGS)
def test_nesting_is_bounded(shape):
    build, opener = NESTINGS[shape]
    at_bound = parse(build(MAX_DEPTH), 1)
    assert evaluate(at_bound, np.ones((1, 4)), np.zeros(4)).tolist() == [
        MAX_DEPTH + 1.0 if shape == "flat sum" else 1.0] * 4
    src = build(MAX_DEPTH + 1)
    with pytest.raises(ExprError) as info:
        parse(src, 1)
    assert str(info.value) == (f"expression nested deeper than {MAX_DEPTH} levels "
                               f"(at offset {opener(src)})")


def test_time_variable_and_numbers():
    assert parse("t", 0) == Var(None)
    assert parse("1.5e-3", 0) == Num(0.0015)
    assert parse(".5", 0) == Num(0.5)
    # A literal must be finite in float64; one that underflows reads as 0.0.
    assert parse("1.7976931348623157e308", 0) == Num(1.7976931348623157e308)
    assert parse("1e-400", 0) == Num(0.0)


# ---------------------------------------------------------------------------
# evaluation


def test_riccati_expression_value():
    assert ev("x1^2 + x1 + 1", x=[-0.5]) == 0.75


def test_precedence():
    assert ev("2 + 3*4") == 14.0
    assert ev("2*3 + 4") == 10.0
    assert ev("2 + 12/4 - 1") == 4.0


def test_power_right_associative():
    assert ev("2^3^2") == 512.0


def test_power_binds_tighter_than_unary_minus():
    assert ev("-2^2") == -4.0
    assert ev("(-2)^2") == 4.0
    assert ev("2^-1") == 0.5


def test_functions():
    assert abs(ev("sin(t)", t=0.5) - math.sin(0.5)) < 1e-15
    assert abs(ev("exp(log(7))") - 7.0) < 1e-12
    assert ev("abs(-3)") == 3.0
    assert ev("sqrt(9)") == 3.0
    assert ev("exp(1000)") == math.inf  # an overflow is inf, for the caller to refuse


def test_evaluation_domain_errors():
    with pytest.raises(ExprEvalError):
        ev("1/0")
    with pytest.raises(ExprEvalError):
        ev("log(-1)")
    with pytest.raises(ExprEvalError):
        ev("sqrt(-4)")
    with pytest.raises(ExprEvalError):
        ev("(-2)^0.5")


@pytest.mark.parametrize("src, message", [
    ("1/x1", "1.0 / <512 values> is undefined"),
    ("log(x1)", "log(<512 values>) is undefined"),
])
def test_grid_evaluation_error_shows_a_grid_by_its_size(src, message):
    x = np.ones((1, 512))
    x[0, 300] = 0.0
    with pytest.raises(ExprEvalError) as info:
        evaluate(parse(src, 1), x, np.zeros(512))
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# one point against the whole grid

CORPUS = [
    "x1^2 + x1 + 1",
    "-(3*x1*x2 + x1^3)",
    "t",
    "x2",
    "1 + 2 + 3",
    "1 - 2 - 3",
    "1 - (2 - 3)",
    "2*3/4",
    "2/(3*4)",
    "2^3^2",
    "(2^3)^2",
    "-x1",
    "--x1",
    "-x1^2",
    "(-x1)^2",
    "2^-3",
    "x1*(x2 + 1)",
    "x1*x2 + 1",
    "sin(t)",
    "cos(3.5*t)",
    "tan(t/4)",
    "exp(-t)",
    "log(x1 + 2)",
    "sqrt(abs(x1))",
    "abs(-t)",
    "1.5e-3*x1",
    ".25 + x1",
    "1e2",
    "x1/x2/2",
    "x1/(x2/2)",
    "x1 - -x2",
    "-(x1 + x2)",
    "-(x1*x2)",
    "sin(x1)^2 + cos(x1)^2",
    "2*sin(t)*cos(t)",
    "x1^2*x2^3",
    "(x1 + x2)^2",
    "x1 + x2*x2 - t/2",
    "sqrt(x1^2 + x2^2)",
    "exp(x1)*exp(-x1)",
    "1/(1 + exp(-x1))",
    "(1 + t)*(1 - t)",
    "t^2 - 1",
    "3",
    "-7.25",
    "abs(x1 - x2)",
    "log(exp(1))",
    "sin(cos(tan(t)))",
    "x1*2 + x2*3 - 4",
    "((x1))",
]


def test_point_evaluation_matches_the_grid_corpus():
    # + - * / round alike on both paths.  numpy's SIMD loops for powers and
    # functions over a grid are not promised to round like its one-element
    # path, so those may differ by an ulp.
    assert len(CORPUS) == 50
    rng = np.random.default_rng(77)
    x = rng.uniform(0.1, 2.0, size=(2, 1024))
    t = rng.uniform(0.0, 1.0, size=1024)
    for src in CORPUS:
        tree = parse(src, 2)
        grid = np.broadcast_to(evaluate(tree, x, t), t.shape)
        points = np.array([evaluate(tree, x[:, s], t[s]) for s in range(t.size)])
        if re.search(r"\^|[a-z]\(", src):
            assert np.all(np.abs(points - grid) <= np.spacing(np.abs(grid))), src
        else:
            assert points.tobytes() == grid.tobytes(), src


def test_negative_number_base_keeps_its_parentheses():
    # Without them "-2.0 ^ 2.0" would read as -(2.0 ^ 2.0) = -4.0.
    tree = BinOp("^", Num(-2.0), Num(2.0))
    assert evaluate(parse("(-2.0) ^ 2.0", 0), [], 0.0) == evaluate(tree, [], 0.0) == 4.0


# ---------------------------------------------------------------------------
# parity with native problem definitions


def test_builtin_problems_match_expression_forms():
    rng = np.random.default_rng(2024)
    riccati = builtin_problem("riccati")
    riccati_expr = parse("x1^2 + x1 + 1", 1)
    beer = builtin_problem("beer_system")
    beer_exprs = [parse("x2", 2), parse("-(3*x1*x2 + x1^3)", 2)]
    for _ in range(1000):
        x = rng.uniform(-2.0, 2.0, size=2)
        t = rng.uniform(0.0, 1.0)
        native = riccati.rhs[0](x[:1], t)
        assert abs(evaluate(riccati_expr, x[:1], t) - native) <= 1e-15 * max(
            1.0, abs(native)
        )
        for i in (0, 1):
            native = beer.rhs[i](x, t)
            assert abs(evaluate(beer_exprs[i], x, t) - native) <= 1e-15 * max(
                1.0, abs(native)
            )
