"""README's code references resolve.

Outside its fenced blocks, every backticked span of README.md of one of these
forms must name something that exists:

- `[swansim.]module.name[.name]` for a swansim submodule: an attribute of it;
- `tests/<file>.py::name[::name]`: a function or class of that test file, and
  a method of that class;
- `TestX[::name]`: a test class of some tests/*.py, and a method of it.

Other spans (flags, file names, formulas, top-level `swansim.name`) are not
references and are left alone.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import swansim

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = {module.name for module in pkgutil.iter_modules(swansim.__path__)}


def readme_spans() -> list[str]:
    """The backticked spans of README.md, fenced blocks stripped first."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"`([^`\n]+)`", re.sub(r"^```.*?^```", "", text, flags=re.S | re.M))


def definitions(path: Path) -> dict[str, set[str]]:
    """The top-level functions and classes of a Python file, each with the functions and classes it defines."""
    kinds = (ast.FunctionDef, ast.ClassDef)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name: {inner.name for inner in node.body if isinstance(inner, kinds)}
            for node in tree.body if isinstance(node, kinds)}


def defines(defs: dict[str, set[str]], name: str, inner: str | None) -> bool:
    return name in defs and (inner is None or inner in defs[name])


def resolves(module: str, names: str) -> bool:
    """Whether swansim.module has the dotted attribute names."""
    obj = importlib.import_module(f"swansim.{module}")
    for name in names.split("."):
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_readme_code_references_resolve():
    test_files = {path.name: definitions(path) for path in sorted((ROOT / "tests").glob("*.py"))}
    seen, unresolved = set(), []
    for span in readme_spans():
        if m := re.fullmatch(r"(?:swansim\.)?(\w+)\.(\w+(?:\.\w+)*)", span):
            if m[1] not in SUBMODULES:
                continue
            form, ok = "module", resolves(m[1], m[2])
        elif m := re.fullmatch(r"tests/(\w+\.py)::(\w+)(?:::(\w+))?", span):
            form, ok = "test file", m[1] in test_files and defines(test_files[m[1]], m[2], m[3])
        elif m := re.fullmatch(r"(Test\w+)(?:::(\w+))?", span):
            form, ok = "test class", any(defines(defs, m[1], m[2]) for defs in test_files.values())
        else:
            continue
        seen.add(form)
        if not ok:
            unresolved.append(span)
    assert unresolved == []
    # each form is met, so that a pattern that matches nothing cannot pass for one that resolves
    assert seen == {"module", "test file", "test class"}
