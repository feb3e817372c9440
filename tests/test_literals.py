"""A float literal below 1e-5 in magnitude is a tolerance or a floor, so in a package
module it may appear only as the value of a module-level UPPER_CASE constant,
where it is named once and carries its reason; everywhere else code reads that
constant or a level of the ``matcore`` table."""

import ast
import re
from pathlib import Path

import pytest

import gkls_rates

MODULES = sorted(Path(gkls_rates.__file__).parent.glob("*.py"))
SMALL = 1e-5
CONSTANT_NAME = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _bare_small_floats(path):
    tree = ast.parse(path.read_text())
    named = {
        id(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and CONSTANT_NAME.fullmatch(node.targets[0].id)
    }
    return sorted(
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < abs(node.value) < SMALL
        and id(node) not in named
    )


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_small_float_literals_are_named_constants(path):
    assert _bare_small_floats(path) == []
