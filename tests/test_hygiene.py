"""Source hygiene checks that need no import of the package."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cpdilate"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


def unread_functions(sources: dict, private: bool, exported=()) -> list:
    """Module-level functions of the ``sources`` (module name → text),
    the private ones or the public ones, that no source reads, as a name
    or as an attribute, outside the function's own definition, and that
    are not among the ``exported`` names."""
    defined = {}
    read = set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            own = top.name if isinstance(top, ast.FunctionDef) else None
            if own is not None and own.startswith("_") == private:
                defined[module, own] = top.lineno
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != own:
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr != own:
                    read.add(node.attr)
    return sorted(f"{module}:{name} (line {line})"
                  for (module, name), line in defined.items()
                  if name not in read and name not in exported)


def unread_methods(sources: dict, readers=()) -> list:
    """Methods and properties of the classes of the ``sources`` (module
    name → text), dunder methods aside, that no source and no text of
    ``readers`` reads as an attribute outside the method's own definition."""
    defined = [(module, cls.name, node) for module, source in sources.items()
               for cls in ast.walk(ast.parse(source))
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, ast.FunctionDef)
               and not node.name.startswith("__")]
    read = Counter(node.attr for text in [*sources.values(), *readers]
                   for node in ast.walk(ast.parse(text))
                   if isinstance(node, ast.Attribute))
    return sorted(f"{module}:{cls}.{node.name} (line {node.lineno})"
                  for module, cls, node in defined
                  if read[node.name] == sum(
                      isinstance(n, ast.Attribute) and n.attr == node.name
                      for n in ast.walk(node)))


def unread_fields(sources: dict, readers=()) -> list:
    """Fields of the dataclasses of the ``sources`` (module name → text)
    that no source and no text of ``readers`` reads as an attribute; a
    field that is only ever passed to the constructor is unread."""
    defined = [(module, cls.name, node)
               for module, source in sources.items()
               for cls in ast.walk(ast.parse(source))
               if isinstance(cls, ast.ClassDef) and any(
                   getattr(getattr(d, "func", d), "id", None) == "dataclass"
                   for d in cls.decorator_list)
               for node in cls.body
               if isinstance(node, ast.AnnAssign)
               and isinstance(node.target, ast.Name)]
    read = {node.attr for text in [*sources.values(), *readers]
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute)}
    return sorted(f"{module}:{cls}.{node.target.id} (line {node.lineno})"
                  for module, cls, node in defined
                  if node.target.id not in read)


def bench_sources() -> list:
    """The benchmark's modules, its tests aside."""
    return [p.read_text(encoding="utf-8")
            for p in (ROOT / "bench").glob("*.py")
            if not p.name.startswith("test_")]


def package_sources() -> dict:
    return {p.stem: p.read_text(encoding="utf-8")
            for p in PACKAGE.glob("*.py")}


def package_exports() -> set:
    """The names ``__init__`` imports from the package modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_detects_an_unused_import():
    source = "import os\nfrom math import pi, tau\nprint(pi)\n"
    assert unused_imports(source) == ["os (line 1)", "tau (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_orphan_function():
    sources = {
        "a": "def kept():\n    pass\n\n\ndef exported():\n    pass\n\n\n"
             "def orphan():\n    return orphan()\n\n\ndef _helper():\n"
             "    pass\n",
        "b": "import a\na.kept()\n",
    }
    assert unread_functions(sources, private=False, exported={"exported"}) \
        == ["a:orphan (line 9)"]


def test_every_public_function_is_read_or_exported():
    # a public function that no module reads and __init__ does not export
    # has callers in the tests only, so it belongs in tests/conftest.py
    assert unread_functions(package_sources(), private=False,
                            exported=package_exports()) == []


def test_detects_an_unread_method():
    sources = {
        "a": "class C:\n    def __init__(self):\n        pass\n\n"
             "    def kept(self):\n        return self.prop\n\n"
             "    @property\n    def prop(self):\n        pass\n\n"
             "    def recursive(self):\n        return self.recursive()\n\n"
             "    def unread(self):\n        pass\n",
        "b": "import a\na.C().kept()\n",
    }
    assert unread_methods(sources) == ["a:C.recursive (line 12)",
                                       "a:C.unread (line 15)"]
    assert unread_methods(sources, ["x.recursive\n"]) == ["a:C.unread (line 15)"]


def test_every_method_and_property_is_read():
    # a method that only tests read belongs in the tests; bench/ counts as
    # a reader, since the benchmark runs on the package's own names
    assert unread_methods(package_sources(), bench_sources()) == []


def test_detects_an_unread_field():
    sources = {
        "a": "from dataclasses import dataclass\n\n\n"
             "@dataclass(frozen=True)\nclass C:\n    kept: int\n"
             "    unread: int\n    benched: int = 0\n\n\n"
             "@dataclass\nclass D:\n    passed: int\n\n\n"
             "class E:\n    annotated: int\n",
        "b": "import a\nx = a.C(kept=1, unread=2)\nprint(x.kept)\n"
             "a.D(passed=x.kept)\n",
    }
    assert unread_fields(sources) == ["a:C.benched (line 8)",
                                      "a:C.unread (line 7)",
                                      "a:D.passed (line 13)"]
    assert unread_fields(sources, ["y.benched\n"]) == [
        "a:C.unread (line 7)", "a:D.passed (line 13)"]


def test_every_dataclass_field_is_read():
    # a field that nothing reads is state the program carries for nobody;
    # bench/ counts as a reader, as for methods
    assert unread_fields(package_sources(), bench_sources()) == []


def test_detects_an_unread_private_function():
    sources = {
        "a": "def _read():\n    pass\n\n\ndef _recursive(n):\n"
             "    return _recursive(n - 1)\n\n\ndef _unread():\n    pass\n",
        "b": "import a\na._read()\n",
    }
    assert unread_functions(sources, private=True) == [
        "a:_recursive (line 5)", "a:_unread (line 9)"]


def test_every_private_function_is_read():
    assert unread_functions(package_sources(), private=True) == []


def small_float_literals(source: str) -> list:
    """Float literals x with 0 < |x| < 1e-6: thresholds, which belong in
    ``numerics``."""
    return sorted(f"{node.value!r} (line {node.lineno})"
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant)
                  and type(node.value) is float and 0 < abs(node.value) < 1e-6)


def unread_parameters(source: str, exempt_prefix: str = "cmd_") -> list:
    """Parameters that the body of their function never reads, for every
    function whose name does not start with ``exempt_prefix``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or node.name.startswith(exempt_prefix):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            a for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        out += [f"{node.name}.{a.arg} (line {node.lineno})"
                for a in params if a.arg not in read]
    return sorted(out)


def test_detects_a_small_float_literal():
    source = "TOL = 1e-9\nx = max(t, -2.5e-8) * 0.5\ny = 1e-6 + 1e-300j\n"
    assert small_float_literals(source) == ["1e-09 (line 1)", "2.5e-08 (line 2)"]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "numerics.py"], ids=lambda p: p.name)
def test_thresholds_live_in_numerics(path):
    assert small_float_literals(path.read_text(encoding="utf-8")) == []


def test_detects_an_unread_parameter():
    source = ("def f(a, b, *rest, c=1, **kw):\n    return a + c\n\n\n"
              "def cmd_x(args, timer):\n    pass\n\n\n"
              "def g(x):\n    def h():\n        return x\n    return h\n")
    assert unread_parameters(source) == [
        "f.b (line 1)", "f.kw (line 1)", "f.rest (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []
