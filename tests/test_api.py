"""The public surface: the README's library example and every __all__ list."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import bernsym

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _readme_python_block() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1, "README should hold exactly one python block"
    return blocks[0]


def _imported_names(source: str) -> set[str]:
    (body,) = re.findall(r"from bernsym import \((.*?)\)", source, re.S)
    return {name.strip() for name in body.split(",") if name.strip()}


def test_readme_library_example_runs():
    namespace: dict = {}
    exec(compile(_readme_python_block(), str(README), "exec"), namespace)
    assert namespace["report"].all_equal
    assert namespace["power_sum"](namespace["chi"], 2, 7) == -32


def test_package_root_exports_the_readme_names():
    expected = _imported_names(_readme_python_block()) | {"__version__"}
    assert set(bernsym.__all__) == expected
    assert len(bernsym.__all__) == len(expected)


@pytest.mark.parametrize(
    "module",
    ["bernsym"] + [f"bernsym.{m.name}" for m in pkgutil.iter_modules(bernsym.__path__)],
)
def test_every_listed_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def _statements(source: str):
    # (names defined, names used) per top-level statement of a module: a
    # use is a loaded name, an attribute read or an imported name, so the
    # strings of __all__ and the name a def binds are not uses
    out = []
    for stmt in ast.parse(source).body:
        defined = set()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
        used = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
        out.append((defined, used))
    return out


# the program's own code and the benchmark; the tests do not count
_PROGRAM = [
    stmt
    for folder in (ROOT / "src" / "bernsym", ROOT / "bench")
    for path in sorted(folder.glob("*.py"))
    for stmt in _statements(path.read_text(encoding="utf-8"))
]


@pytest.mark.parametrize(
    "module", [f"bernsym.{m.name}" for m in pkgutil.iter_modules(bernsym.__path__)]
)
def test_every_listed_name_is_used_outside_the_tests(module):
    # a public name is used by the program or the benchmark outside its own
    # definition, or documented in the README; a helper that only tests
    # call belongs in tests/oracles.py
    readme = README.read_text(encoding="utf-8")
    unused = [
        name
        for name in getattr(importlib.import_module(module), "__all__", ())
        if not any(name in used and name not in defined for defined, used in _PROGRAM)
        and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert unused == []


def _unread_private_names(statements, program) -> list[str]:
    # the _names that the statements define at top level and that no
    # statement of program reads outside its own
    return sorted(
        name
        for defined, _ in statements
        for name in defined
        if name.startswith("_") and not name.startswith("__")
        and not any(name in used and name not in own for own, used in program)
    )


def test_the_private_name_guard_sees_an_unread_helper():
    source = (
        "def _f():\n    return 1\n"
        "def _g():\n    return _f()\n"
        "def _h():\n    return _h()\n"
        "_K = 2\n__all__ = ['f']\ndef f():\n    return mod._K\n"
    )
    statements = _statements(source)
    # _g is never read, and _h only by itself; _f is called, _K read as an attribute
    assert _unread_private_names(statements, statements) == ["_g", "_h"]


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "bernsym").glob("*.py")), ids=lambda p: p.name
)
def test_every_private_name_is_read_by_the_program(path):
    # a private helper, table or constant is read by the program or the
    # benchmark outside its own statement, so a wrapper kept after its last
    # caller went away fails here; the tests do not count
    statements = _statements(path.read_text(encoding="utf-8"))
    assert _unread_private_names(statements, _PROGRAM) == []


_MATH_NAMES = {"comb", "factorial", "gcd", "lcm", "prod"}


def _float_uses(source: str) -> list[str]:
    # every float or complex literal or name, true division, and math import
    # beyond the integer functions, with its line
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            what = [f"literal {node.value!r}"]
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            what = [f"name {node.id}"]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            what = ["true division"]
        elif isinstance(node, ast.Import):
            what = [f"import {a.name}" for a in node.names if a.name == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            what = [f"math.{a.name}" for a in node.names if a.name not in _MATH_NAMES]
        else:
            continue
        found += [f"{w} at line {node.lineno}" for w in what]
    return found


def test_the_float_guard_sees_each_kind_of_use():
    for source in ("x = 0.5", "x = 2j", "y = float(x)", "x = 1 / 2", "x /= 2",
                   "import math", "from math import gcd, sqrt"):
        assert len(_float_uses(source)) == 1, source
    assert _float_uses("from math import comb, gcd\nx = 7 // 2\ny = Fraction(1, 2)") == []


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "bernsym").glob("*.py")), ids=lambda p: p.name
)
def test_no_float_enters_the_arithmetic(path):
    # the README's "no floating point appears anywhere"
    assert _float_uses(path.read_text(encoding="utf-8")) == []


def _unused_imports(source: str) -> list[str]:
    # the names a module imports and never loads; a name listed in __all__
    # is a use, since the module imports it to export it
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            used.update(ast.literal_eval(stmt.value))
    return sorted(imported - used)


def test_the_import_guard_sees_an_unused_name():
    assert _unused_imports("from math import comb, gcd\nx = gcd(4, 6)") == ["comb"]
    assert _unused_imports("import os.path\nimport re as regex\nregex.compile('')") == ["os"]
    assert _unused_imports("from .a import f\n__all__ = ['f']") == []
    assert _unused_imports("from __future__ import annotations") == []


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "bernsym").glob("*.py")), ids=lambda p: p.name
)
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
