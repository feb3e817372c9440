"""Tree-walking evaluator of rate-expression ASTs, the oracle of ``ratelang.evaluate``.

It walks the AST at every call and writes out each domain check by hand,
as ``ratelang`` did before it compiled expressions over one operation
table.  ``evaluate(ast, t)`` returns the same float, or raises
``RateEvalError`` with the same operation and operands.
"""

import math

from gkls_rates.errors import RateEvalError
from gkls_rates.ratelang import FUNCTIONS, BinOp, Call, Neg, Num, TimeVar


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


def evaluate(ast, t):
    """The value of ``ast`` at the finite time ``t``; domain problems raise."""
    return _eval_node(ast, float(t))
