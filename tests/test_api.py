"""The public surface: the README's library example and every __all__ list."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import bernsym

README = Path(__file__).resolve().parent.parent / "README.md"


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
