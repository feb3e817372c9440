import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkls_rates import ratelang
from gkls_rates.errors import RateEvalError, RateSyntaxError, UnknownFunctionError
from gkls_rates.ratelang import BinOp, Call, Neg, Num, RateExpr, TimeVar

from rate_printer import to_string


def ev(text, t=0.0):
    return ratelang.evaluate(ratelang.parse(text), t)


# ---------------------------------------------------------------------------
# parsing and evaluation examples
# ---------------------------------------------------------------------------

def test_constant_zero():
    expr = ratelang.parse("0")
    assert expr.ast == Num(0.0)
    assert ev("0", 3.0) == 0.0


def test_eternal_rate_at_zero():
    assert ev("1 - 0.5*tanh(t)", 0.0) == pytest.approx(1.0)


def test_power_right_associative():
    assert ev("2^3^2") == pytest.approx(512.0)
    assert ev("(2^3)^2") == pytest.approx(64.0)


def test_half_tanh_value():
    assert ev("-(1/2)*tanh(t)", 1.0) == pytest.approx(-math.tanh(1.0) / 2, abs=1e-12)
    assert ev("-(1/2)*tanh(t)", 1.0) == pytest.approx(-0.3807970780, abs=1e-9)


def test_division_by_zero():
    with pytest.raises(RateEvalError):
        ev("1/ t", 0.0)


def test_exp_plus_cos():
    assert ev("exp(0)+cos(0)") == pytest.approx(2.0)


def test_unary_minus_binds_below_power():
    assert ev("-2^2") == pytest.approx(-4.0)
    assert ev("(-2)^2") == pytest.approx(4.0)


def test_precedence_mul_over_add():
    assert ev("2+3*4") == pytest.approx(14.0)
    assert ev("2*3+4") == pytest.approx(10.0)
    assert ev("2 - 3 - 4") == pytest.approx(-5.0)


def test_whitespace_ignored():
    assert ev("  1   +\t2 ") == pytest.approx(3.0)


def test_scientific_literals():
    assert ev("1.5e2") == pytest.approx(150.0)
    assert ev(".5") == pytest.approx(0.5)
    assert ev("2E-3") == pytest.approx(0.002)


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

def test_implicit_multiplication_rejected():
    with pytest.raises(RateSyntaxError) as info:
        ratelang.parse("2t")
    assert info.value.position == 1


def test_unknown_function():
    with pytest.raises(UnknownFunctionError) as info:
        ratelang.parse("sinh(t)")
    assert info.value.name == "sinh"


def test_unknown_variable():
    with pytest.raises(RateSyntaxError):
        ratelang.parse("x + 1")


def test_unbalanced_parens_position():
    with pytest.raises(RateSyntaxError) as info:
        ratelang.parse("(1 + 2")
    assert info.value.position == 6


def test_empty_input():
    with pytest.raises(RateSyntaxError):
        ratelang.parse("   ")


def test_trailing_garbage():
    with pytest.raises(RateSyntaxError):
        ratelang.parse("1 + 2 )")


def test_domain_errors():
    with pytest.raises(RateEvalError):
        ev("sqrt(0 - t)", 4.0)
    with pytest.raises(RateEvalError):
        ev("(0-2)^(1/2)")
    with pytest.raises(RateEvalError):
        ev("exp(t)", 1e6)  # overflow reported, not silent inf
    with pytest.raises(RateEvalError):
        ratelang.evaluate(ratelang.parse("t"), math.inf)


def test_abs_and_sqrt():
    assert ev("abs(0-3)") == pytest.approx(3.0)
    assert ev("sqrt(9)") == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# totality and round-trip properties
# ---------------------------------------------------------------------------

@given(st.text(max_size=40))
def test_fuzz_parse_never_crashes(text):
    try:
        expr = ratelang.parse(text)
    except (RateSyntaxError, UnknownFunctionError):
        return
    assert isinstance(expr, RateExpr)


@given(
    st.text(
        alphabet="0123456789.+-*/^()t ethanxpsincoqrab",
        max_size=30,
    )
)
def test_fuzz_tokenlike_strings(text):
    try:
        ratelang.parse(text)
    except (RateSyntaxError, UnknownFunctionError):
        pass


# random ASTs with an independent recursive evaluator as the oracle

def ast_strategy(max_depth):
    leaf = st.one_of(
        st.builds(Num, st.floats(min_value=0.001, max_value=100.0, allow_nan=False)),
        st.just(TimeVar()),
    )

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(
                BinOp,
                st.sampled_from(["+", "-", "*"]),
                children,
                children,
            ),
            st.builds(Call, st.sampled_from(["tanh", "sin", "cos"]), children),
        )

    return st.recursive(leaf, extend, max_leaves=2 ** max_depth)


def reference_eval(node, t):
    # independent of ratelang internals on purpose
    if isinstance(node, Num):
        return node.value
    if isinstance(node, TimeVar):
        return t
    if isinstance(node, Neg):
        return -reference_eval(node.operand, t)
    if isinstance(node, BinOp):
        a, b = reference_eval(node.left, t), reference_eval(node.right, t)
        return {"+": a + b, "-": a - b, "*": a * b}[node.op]
    if isinstance(node, Call):
        return {"tanh": math.tanh, "sin": math.sin, "cos": math.cos}[node.name](
            reference_eval(node.arg, t)
        )
    raise AssertionError(node)


@settings(max_examples=1000, deadline=None)
@given(ast_strategy(6), st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
def test_print_parse_eval_matches_reference(ast, t):
    expr = RateExpr(ast)
    printed = to_string(expr)
    reparsed = ratelang.parse(printed)
    assert reparsed.ast == ast  # parse . print is the identity on parse output
    expected = reference_eval(ast, t)
    got = ratelang.evaluate(reparsed, t)
    assert got == pytest.approx(expected, rel=1e-14, abs=1e-14)


@given(ast_strategy(5))
def test_print_parse_idempotent(ast):
    printed = to_string(RateExpr(ast))
    once = ratelang.parse(printed)
    twice = ratelang.parse(to_string(once))
    assert once.ast == twice.ast


CORPUS = [
    "0",
    "1 - 0.5*tanh(t)",
    "-(1/2)*tanh(t)",
    "2^3^2",
    "sin(t)^2",
    "exp(0)+cos(0)",
    "1e-3 * t + 2.5",
    "abs(t - 1) / (t + 2)",
]


@pytest.mark.parametrize("text", CORPUS)
def test_corpus_round_trips(text):
    once = ratelang.parse(text)
    again = ratelang.parse(to_string(once))
    assert once.ast == again.ast
    for t in (0.0, 0.5, 1.0, 3.0):
        assert ratelang.evaluate(once, t) == pytest.approx(
            ratelang.evaluate(again, t), rel=1e-14
        )
