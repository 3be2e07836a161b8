"""Static checks over the package source: every imported name is used, a
module that imports from a sibling at the top does not import from it again
inside a function, no `assert` statement stands in for a runtime check,
every top-level function and class is referenced from the package or the
benchmark, and no parameter defaults to a top-level function of the package."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "skolemff")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, inside string annotations, or listed in __all__."""
    used = _names(tree)
    for ann in filter(None, _annotations(tree)):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names(ast.parse(node.value, mode="eval"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


def _unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _used_names(tree)
    return sorted((name, line) for name, line in _imported_names(tree).items() if name not in used)


def _lazy_repeats(source: str) -> list[tuple[str, int]]:
    """Function-level `from .m import` lines in a module that imports from .m at the top."""
    tree = ast.parse(source)
    top = {node.module for node in tree.body if isinstance(node, ast.ImportFrom) and node.level}
    return sorted(
        {
            (node.module, node.lineno)
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, ast.ImportFrom) and node.level and node.module in top
        }
    )


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert _unused_imports(fh.read()) == [], module


def test_unused_import_detection():
    assert _unused_imports("import os\nfrom a.b import c as d, e\nx = e\n") == [("d", 2), ("os", 1)]
    assert _unused_imports("from a import B, C\ndef f(x: 'B') -> None: pass\n__all__ = ['C']\n") == []
    assert _unused_imports("from __future__ import annotations\nimport os.path\nos.path.join\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_function_level_import_from_a_module_imported_at_the_top(module):
    # a lazy import that breaks a real cycle (funfield -> factor) stays legal
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert _lazy_repeats(fh.read()) == [], module


def test_lazy_repeat_detection():
    src = (
        "from .a import x\nfrom .b import y\n"
        "def f():\n    from .a import z\n    from .c import w\n"
        "    def g():\n        from .b import v\n"
    )
    assert _lazy_repeats(src) == [("a", 4), ("b", 7)]
    assert _lazy_repeats("import os\ndef f():\n    from .factor import factor_poly\n") == []


def _asserts(source: str) -> list[int]:
    """Lines of `assert` statements, which `python -O` strips."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


@pytest.mark.parametrize("module", MODULES)
def test_no_assert_statement_in_the_package(module):
    # a runtime check must survive python -O: raise explicitly instead
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert _asserts(fh.read()) == [], module


def test_assert_detection():
    src = "def f(x):\n    assert x, 'no'\n    if not x:\n        raise AssertionError('kept')\n"
    assert _asserts(src) == [2]
    assert _asserts("class C:\n    def m(self):\n        assert self\n") == [3]


def _is_all(node: ast.stmt) -> bool:
    return isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)


def _references(node: ast.AST) -> set[str]:
    """Names, attributes, imported names and strings under node (layers are bound by attribute name)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def _is_reexport(module: str, node: ast.stmt) -> bool:
    return module == "__init__.py" and isinstance(node, ast.ImportFrom)


def _unreferenced(package: dict[str, str], others: tuple[str, ...] = ()) -> list[tuple[str, str]]:
    """(module, name) of each top-level function or class of `package` (module -> source)
    that no top-level statement but its own definition references, in the package or in
    `others`; a name listed in `__all__` or re-exported by `__init__.py` is not thereby
    referenced."""
    defs, refs = [], []
    for module, source, own in [*((m, s, True) for m, s in package.items()), *(("", s, False) for s in others)]:
        for node in ast.parse(source).body:
            if own and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((module, node))
            if not (_is_all(node) or _is_reexport(module, node)):
                refs.append((node, _references(node)))
    return sorted((m, d.name) for m, d in defs if not any(d.name in names for node, names in refs if node is not d))


def _sources(directory: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                out[name] = fh.read()
    return out


def test_every_top_level_definition_is_referenced():
    assert _unreferenced(_sources(SRC), tuple(_sources(PERFBENCH).values())) == []


def test_unreferenced_definition_detection():
    package = {
        "a.py": "def f():\n    return f()\ndef g(): pass\nclass C: pass\n__all__ = ['f', 'g', 'C']\n",
        "b.py": "from .a import g\nx = 'C'\n",
    }
    assert _unreferenced(package) == [("a.py", "f")]
    assert _unreferenced(package, ("import a\na.f\n",)) == []
    assert _unreferenced({"c.py": "class D:\n    def m(self):\n        return D\n"}) == [("c.py", "D")]
    # a re-export is no use: only a call from the program or the benchmark keeps a public wrapper
    reexported = {"__init__.py": "from .a import f, g\n__all__ = ['f', 'g']\n", "a.py": "def f(): pass\ndef g(): pass\n"}
    assert _unreferenced(reexported) == [("a.py", "f"), ("a.py", "g")]
    assert _unreferenced(reexported, ("from skolemff import g\ng()\n",)) == [("a.py", "f")]
    assert _unreferenced(dict(reexported, **{"b.py": "from .a import f\n"})) == [("a.py", "g")]


def _function_defaults(package: dict[str, str]) -> list[tuple[str, str, int]]:
    """(module, name, line) of each parameter default that names a top-level function of
    `package` (module -> source), bare or as an attribute: a strategy hook whose one
    value is fixed in the package is a direct call in disguise."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    functions = {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    out = set()
    for module, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for default in [*fn.args.defaults, *filter(None, fn.args.kw_defaults)]:
                name = getattr(default, "id", None) or getattr(default, "attr", None)
                if name in functions:
                    out.add((module, name, default.lineno))
    return sorted(out)


def test_no_parameter_defaults_to_a_package_function():
    # the caller with another strategy passes an object that owns it (as S owns its record)
    assert _function_defaults(_sources(SRC)) == []


def test_function_default_detection():
    package = {
        "a.py": "def strip(f, S): pass\nclass C: pass\ndef test(f, S, cut=strip): pass\n",
        "b.py": (
            "from . import a\nfrom .a import C, strip\n"
            "def f(x, *, key=a.strip, kind=C, n=len, m=strip(1, 2)):\n    g = lambda y=strip: y\n"
        ),
    }
    assert _function_defaults(package) == [("a.py", "strip", 3), ("b.py", "strip", 3), ("b.py", "strip", 4)]
    assert _function_defaults({"c.py": "def f(x, k=None, n=0, s='strip'): pass\n"}) == []
