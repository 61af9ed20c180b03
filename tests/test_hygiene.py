"""Source hygiene checks that need no import of the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cpdilate"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
NUMERICS = PACKAGE / "numerics.py"


def unused_imports(source: str) -> list:
    """Names a module imports at any level but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def orphan_functions(source: str, others: list) -> list:
    """Public module-level functions of ``source`` that none of the
    ``others`` sources reads, as a name or as an attribute."""
    defined = {node.name: node.lineno for node in ast.parse(source).body
               if isinstance(node, ast.FunctionDef)
               and not node.name.startswith("_")}
    read = set()
    for other in others:
        for node in ast.walk(ast.parse(other)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{name} (line {line})" for name, line in defined.items()
                  if name not in read)


def unread_private_functions(sources: dict) -> list:
    """Private module-level functions of the ``sources`` (module name →
    text) that no source reads, as a name or as an attribute, outside the
    function's own definition."""
    defined = {}
    read = set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            own = top.name if isinstance(top, ast.FunctionDef) else None
            if own is not None and own.startswith("_"):
                defined[module, own] = top.lineno
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != own:
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr != own:
                    read.add(node.attr)
    return sorted(f"{module}:{name} (line {line})"
                  for (module, name), line in defined.items()
                  if name not in read)


def test_detects_an_unused_import():
    source = "import os\nfrom math import pi, tau\nprint(pi)\n"
    assert unused_imports(source) == ["os (line 1)", "tau (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_orphan_function():
    source = "def kept():\n    pass\n\n\ndef orphan():\n    pass\n\n\n" \
             "def _helper():\n    pass\n"
    others = ["kept()\n", "import m\nm.kept\n"]
    assert orphan_functions(source, others) == ["orphan (line 5)"]


def test_every_numerics_function_has_a_caller():
    # numerics is where every decomposition funnels, so a public function
    # that no other module calls is dead code
    others = [p.read_text(encoding="utf-8") for p in MODULES if p != NUMERICS]
    assert orphan_functions(NUMERICS.read_text(encoding="utf-8"), others) == []


def test_detects_an_unread_private_function():
    sources = {
        "a": "def _read():\n    pass\n\n\ndef _recursive(n):\n"
             "    return _recursive(n - 1)\n\n\ndef _unread():\n    pass\n",
        "b": "import a\na._read()\n",
    }
    assert unread_private_functions(sources) == [
        "a:_recursive (line 5)", "a:_unread (line 9)"]


def test_every_private_function_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in PACKAGE.glob("*.py")}
    assert unread_private_functions(sources) == []
