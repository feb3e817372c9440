"""Parser and evaluator for scalar time-dependent rate expressions.

Generator files may carry channel rates like ``"1 - 0.5*tanh(t)"``.  The
grammar is tiny: decimal literals, the single variable ``t``, unary minus,
``+ - * / ^`` with ``^`` right-associative and binding tighter than unary
minus, parentheses, and calls to tanh, exp, sin, cos, sqrt, abs.  Implicit
multiplication is rejected.  Parsing is precedence climbing over a
hand-written lexer, so syntax errors carry exact positions and the module
needs no dependencies.
"""

import math
import re
from dataclasses import dataclass

from .errors import RateEvalError, RateSyntaxError, UnknownFunctionError

__all__ = ["RateExpr", "parse", "evaluate", "FUNCTIONS"]

FUNCTIONS = {
    "tanh": math.tanh,
    "exp": math.exp,
    "sin": math.sin,
    "cos": math.cos,
    "sqrt": math.sqrt,
    "abs": abs,
}


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class TimeVar:
    pass


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    name: str
    arg: object


@dataclass(frozen=True)
class RateExpr:
    """Parsed rate expression; immutable and safe to evaluate concurrently."""

    ast: object


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPS = set("+-*/^()")


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "ident" | one of the operator characters | "end"
    text: str
    pos: int


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        m = _NUMBER.match(text, i)
        if m:
            tokens.append(_Token("number", m.group(), i))
            i = m.end()
            continue
        m = _IDENT.match(text, i)
        if m:
            tokens.append(_Token("ident", m.group(), i))
            i = m.end()
            continue
        if c in _OPS:
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        raise RateSyntaxError(i, "a number, name, or operator", c)
    tokens.append(_Token("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# parser (precedence climbing)
# ---------------------------------------------------------------------------

_ADD_BP = 10
_MUL_BP = 20
_PREFIX_BP = 30
_POW_BP = 40


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, expected):
        tok = self.advance()
        if tok.kind != kind:
            raise RateSyntaxError(tok.pos, expected, tok.text or "end of input")
        return tok

    def parse_expression(self, min_bp=0):
        left = self.parse_prefix()
        while True:
            tok = self.peek()
            bp = self.infix_bp(tok)
            if bp is None or bp <= min_bp:
                return left
            self.advance()
            if tok.kind == "^":
                # right-associative
                right = self.parse_expression(_POW_BP - 1)
            else:
                right = self.parse_expression(bp)
            left = BinOp(tok.kind, left, right)

    @staticmethod
    def infix_bp(tok):
        if tok.kind in ("+", "-"):
            return _ADD_BP
        if tok.kind in ("*", "/"):
            return _MUL_BP
        if tok.kind == "^":
            return _POW_BP
        return None

    def parse_prefix(self):
        tok = self.advance()
        if tok.kind == "number":
            return Num(float(tok.text))
        if tok.kind == "-":
            return Neg(self.parse_expression(_PREFIX_BP))
        if tok.kind == "(":
            inner = self.parse_expression(0)
            self.expect(")", "')'")
            return inner
        if tok.kind == "ident":
            if self.peek().kind == "(":
                if tok.text not in FUNCTIONS:
                    raise UnknownFunctionError(tok.text, tok.pos)
                self.advance()
                arg = self.parse_expression(0)
                self.expect(")", "')'")
                return Call(tok.text, arg)
            if tok.text == "t":
                return TimeVar()
            raise RateSyntaxError(tok.pos, "the variable 't' or a function call", tok.text)
        raise RateSyntaxError(tok.pos, "a value", tok.text or "end of input")


def parse(text):
    """Parse ``text`` into a ``RateExpr``; positions in errors are 0-based."""
    if not isinstance(text, str) or not text.strip():
        raise RateSyntaxError(0, "a non-empty expression", text)
    parser = _Parser(text)
    ast = parser.parse_expression(0)
    end = parser.peek()
    if end.kind != "end":
        raise RateSyntaxError(end.pos, "end of input or an operator", end.text)
    return RateExpr(ast)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _eval_node(node, t):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, TimeVar):
        return t
    if isinstance(node, Neg):
        return -_eval_node(node.operand, t)
    if isinstance(node, BinOp):
        a = _eval_node(node.left, t)
        b = _eval_node(node.right, t)
        return _apply_binop(node.op, a, b)
    if isinstance(node, Call):
        x = _eval_node(node.arg, t)
        return _apply_call(node.name, x)
    raise TypeError(f"unexpected AST node {node!r}")


def _apply_binop(op, a, b):
    if op == "+":
        r = a + b
    elif op == "-":
        r = a - b
    elif op == "*":
        r = a * b
    elif op == "/":
        if b == 0.0:
            raise RateEvalError("/", (a, b))
        r = a / b
    elif op == "^":
        if a < 0.0 and b != math.floor(b):
            raise RateEvalError("^", (a, b))
        if a == 0.0 and b < 0.0:
            raise RateEvalError("^", (a, b))
        try:
            r = math.pow(a, b)
        except (OverflowError, ValueError):
            raise RateEvalError("^", (a, b)) from None
    else:
        raise TypeError(f"unexpected operator {op!r}")
    if not math.isfinite(r):
        raise RateEvalError(op, (a, b))
    return r


def _apply_call(name, x):
    fn = FUNCTIONS[name]
    try:
        r = fn(x)
    except (OverflowError, ValueError):
        raise RateEvalError(name, (x,)) from None
    if not math.isfinite(r):
        raise RateEvalError(name, (x,))
    return float(r)


def evaluate(expr, t):
    """Evaluate at time ``t`` under IEEE semantics; domain problems raise."""
    if not math.isfinite(t):
        raise RateEvalError("t", (t,))
    return _eval_node(expr.ast, float(t))

