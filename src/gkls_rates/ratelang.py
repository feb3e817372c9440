"""Parser and evaluator for scalar time-dependent rate expressions.

Generator files may carry channel rates like ``"1 - 0.5*tanh(t)"``.  The
grammar is tiny: decimal literals, the single variable ``t``, unary minus,
``+ - * / ^`` with ``^`` right-associative and binding tighter than unary
minus, parentheses, and calls to tanh, exp, sin, cos, sqrt, abs.  Implicit
multiplication is rejected.  Parsing is precedence climbing over a
hand-written lexer, so syntax errors carry exact positions and the module
needs no dependencies.  Literals that overflow and nesting deeper than
``_MAX_DEPTH`` levels are syntax errors too.

A ``RateExpr`` compiles its AST once, at construction, into nested closures
over one operation table (the five operators and ``FUNCTIONS``), which run
operands left before right.  One failure rule covers every domain problem:
an operation that raises ``ArithmeticError`` or ``ValueError`` (division by
zero, a negative base under a fractional power, zero under a negative one,
overflow), or that returns a non-finite value, raises ``RateEvalError`` with
its name and operands.
"""

import math
import operator
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
    """Parsed rate expression; immutable and safe to evaluate concurrently.  Equality,
    hashing and pickling read ``ast`` alone; unpickling compiles it again."""

    ast: object

    def __post_init__(self):
        object.__setattr__(self, "_function", _compile(self.ast))

    def __reduce__(self):
        return RateExpr, (self.ast,)


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
        m = _NUMBER.match(text, i) or _IDENT.match(text, i)
        if m:
            tokens.append(_Token("number" if m.re is _NUMBER else "ident", m.group(), i))
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
_INFIX_BP = {"+": _ADD_BP, "-": _ADD_BP, "*": _MUL_BP, "/": _MUL_BP, "^": _POW_BP}
# parentheses, unary minus, calls and each link of a binary chain nest one level;
# the bound keeps parsing, compiling and evaluating far from the recursion limit
_MAX_DEPTH = 200


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

    @staticmethod
    def deeper(depth, tok):
        if depth >= _MAX_DEPTH:
            raise RateSyntaxError(tok.pos, f"at most {_MAX_DEPTH} levels of nesting", tok.text)
        return depth + 1

    def parse_expression(self, min_bp, depth):
        left = self.parse_prefix(depth)
        while True:
            tok = self.peek()
            bp = _INFIX_BP.get(tok.kind)
            if bp is None or bp <= min_bp:
                return left
            self.advance()
            depth = self.deeper(depth, tok)
            # ^ is right-associative
            right = self.parse_expression(_POW_BP - 1 if tok.kind == "^" else bp, depth)
            left = BinOp(tok.kind, left, right)

    def parse_prefix(self, depth):
        tok = self.advance()
        if tok.kind == "number":
            value = float(tok.text)
            if not math.isfinite(value):
                raise RateSyntaxError(tok.pos, "a finite number", tok.text)
            return Num(value)
        if tok.kind == "-":
            return Neg(self.parse_expression(_PREFIX_BP, self.deeper(depth, tok)))
        if tok.kind == "(":
            inner = self.parse_expression(0, self.deeper(depth, tok))
            self.expect(")", "')'")
            return inner
        if tok.kind == "ident":
            if self.peek().kind == "(":
                if tok.text not in FUNCTIONS:
                    raise UnknownFunctionError(tok.text, tok.pos)
                self.advance()
                arg = self.parse_expression(0, self.deeper(depth, tok))
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
    ast = parser.parse_expression(0, 0)
    end = parser.peek()
    if end.kind != "end":
        raise RateSyntaxError(end.pos, "end of input or an operator", end.text)
    return RateExpr(ast)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

_OPERATIONS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
               "^": math.pow, **FUNCTIONS}


def _apply(name, operands):
    """The one failure rule: an operation that raises or returns a non-finite value."""
    try:
        r = _OPERATIONS[name](*operands)
    except (ArithmeticError, ValueError):
        raise RateEvalError(name, operands) from None
    if not math.isfinite(r):
        raise RateEvalError(name, operands)
    return r


def _compile(node):
    """A function of t that evaluates ``node``, operands left before right."""
    if isinstance(node, Num):
        value = node.value
        return lambda t: value
    if isinstance(node, TimeVar):
        return lambda t: t
    if isinstance(node, Neg):
        operand = _compile(node.operand)
        return lambda t: -operand(t)
    if isinstance(node, BinOp):
        name, left, right = node.op, _compile(node.left), _compile(node.right)
        return lambda t: _apply(name, (left(t), right(t)))
    if isinstance(node, Call):
        name, arg = node.name, _compile(node.arg)
        return lambda t: _apply(name, (arg(t),))
    raise TypeError(f"unexpected AST node {node!r}")


def evaluate(expr, t):
    """Evaluate at time ``t`` under IEEE semantics; domain problems raise."""
    if not math.isfinite(t):
        raise RateEvalError("t", (t,))
    return expr._function(float(t))
