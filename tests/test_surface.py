"""The public surface is what the program uses.

Every function or class in a module's ``__all__`` must be referenced outside
its own definition: by code in ``src/`` (the CLI included), a script, the
benchmark under ``perfbench/``, the README, or the acceptance and golden
tests.  A name that only its own unit tests reach moves to ``tests/`` or goes.
Every error type but the ``GklsError`` base must be raised somewhere in
``src/`` outside ``errors.py``, so that deleting its last raiser deletes it too.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gkls_rates"
USERS = [
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
    ROOT / "tests" / "test_golden.py",
]
# name -> reason it stays although nothing above reaches it
EXEMPT = {
    "pauli.export_track_csv": "perfbench/selftest.py requires pkg.pauli.atomic_write, which "
    "only this writer imports; it goes with the benchmark record harness (ROADMAP item 1)",
}


def _identifiers(nodes):
    out = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name.rsplit(".", 1)[-1])
    return out


def _body(path):
    return ast.parse(path.read_text()).body


def _public(module):
    return [
        name
        for name in getattr(module, "__all__", ())
        if (inspect.isfunction(obj := getattr(module, name)) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]


def _unreached():
    outside = _identifiers([node for path in USERS for node in _body(path)])
    outside |= set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    modules = {path.stem: _body(path) for path in SRC.glob("*.py")}
    unreached = []
    for stem in sorted(set(modules) - {"__init__"}):
        for name in _public(importlib.import_module(f"gkls_rates.{stem}")):
            in_src = _identifiers(
                node
                for other, body in modules.items()
                for node in body
                if other != stem or getattr(node, "name", None) != name
            )
            if name not in in_src | outside:
                unreached.append(f"{stem}.{name}")
    return unreached


def test_every_public_name_is_used_outside_its_definition():
    unreached = _unreached()
    assert sorted(set(unreached) - set(EXEMPT)) == []
    # an exemption that is no longer needed leaves the list
    assert set(EXEMPT) <= set(unreached)


def test_every_error_type_is_raised_in_src():
    raised = set()
    for path in SRC.glob("*.py"):
        if path.name != "errors.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    raised |= _identifiers([exc])
    defined = {node.name for node in _body(SRC / "errors.py") if isinstance(node, ast.ClassDef)}
    assert sorted(defined - raised - {"GklsError"}) == []
