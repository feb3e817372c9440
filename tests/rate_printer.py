"""Printer of rate-expression ASTs back to source text.

It writes the rate strings of generator files in the CLI tests and feeds
random ASTs to the parser's round-trip properties: parse(to_string(e))
reproduces e.ast.  Parentheses follow the parser's binding powers.
``grammar_asts`` draws ASTs over the whole grammar, and ``DEEP_FORMS``
write the nested texts the parser's nesting bound is tested on.
"""

from hypothesis import strategies as st

from gkls_rates.ratelang import _INFIX_BP, _PREFIX_BP, FUNCTIONS
from gkls_rates.ratelang import BinOp, Call, Neg, Num, TimeVar

# text nested n levels deep, one form per kind of nesting the parser counts
DEEP_FORMS = {
    "parens": lambda n: "(" * n + "t" + ")" * n,
    "minus": lambda n: "-" * n + "t",
    "calls": lambda n: "sin(" * n + "t" + ")" * n,
    "power": lambda n: "^".join(["1"] * (n + 1)),
    "sum": lambda n: "+".join(["t"] * (n + 1)),
}


def grammar_asts(literal, max_leaves):
    """ASTs over every operator and function, with leaves t and ``literal`` numbers."""
    leaf = st.one_of(st.builds(Num, literal), st.just(TimeVar()))

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(BinOp, st.sampled_from(sorted(_INFIX_BP)), children, children),
            st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), children),
        )

    return st.recursive(leaf, extend, max_leaves=max_leaves)


def _node_bp(node):
    if isinstance(node, (Num, TimeVar, Call)):
        return 100
    if isinstance(node, Neg):
        return _PREFIX_BP
    if isinstance(node, BinOp):
        return _INFIX_BP[node.op]
    raise TypeError(f"unexpected AST node {node!r}")


def _print_node(node):
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, TimeVar):
        return "t"
    if isinstance(node, Neg):
        inner = _print_node(node.operand)
        if _node_bp(node.operand) < _PREFIX_BP:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.name}({_print_node(node.arg)})"
    if isinstance(node, BinOp):
        bp = _node_bp(node)
        left = _print_node(node.left)
        right = _print_node(node.right)
        # left operand needs parens when weaker, or equal for the right-assoc ^
        if _node_bp(node.left) < bp or (node.op == "^" and _node_bp(node.left) == bp):
            left = f"({left})"
        # right operand needs parens when weaker, or equal for left-assoc ops
        right_bp = _node_bp(node.right)
        if right_bp < bp or (node.op != "^" and right_bp == bp):
            right = f"({right})"
        return f"{left} {node.op} {right}" if node.op in "+-" else f"{left}{node.op}{right}"
    raise TypeError(f"unexpected AST node {node!r}")


def to_string(expr):
    """Render a ``ratelang.RateExpr`` back to source."""
    return _print_node(expr.ast)
