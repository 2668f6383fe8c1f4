"""The package's import graph: module-level imports, each pointing down the layers.

The same parse also keeps floats out of the source: every number the
package makes is an exact int or Fraction, and it pins the standard
library modules the package imports, which every CLI start loads.  The
last test pins what tests/code_lines.py, the package's code-line
counter, counts.
"""

import ast
from pathlib import Path

import pytest

from code_lines import code_lines

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qosp"

# a module may import only from a lower layer
LAYERS = (
    ("scalar", "report"),
    ("gmatrix",),
    ("reps",),
    ("coproducts",),
    ("phi",),
    ("matrices",),
    ("cli",),
)
RANK = {name: k for k, layer in enumerate(LAYERS) for name in layer}
# the standard library modules the package imports, each paid for at every CLI start
STDLIB = ["argparse", "fractions", "functools", "itertools", "json", "math", "os", "sys"]
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
SOURCES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _tree(name):
    return ast.parse((PACKAGE / (name + ".py")).read_text())


def _relative_targets(node):
    """The package modules a relative import statement reads from."""
    if node.module:
        return [node.module.split(".")[0]]
    return [alias.name for alias in node.names]


def test_every_module_has_a_layer():
    assert sorted(RANK) == MODULES


@pytest.mark.parametrize("name", MODULES)
def test_no_import_inside_a_function(name):
    nested = [
        (fn.name, node.lineno)
        for fn in ast.walk(_tree(name))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []


@pytest.mark.parametrize("name", MODULES)
def test_relative_imports_point_down(name):
    upward = [
        (target, node.lineno)
        for node in ast.walk(_tree(name))
        if isinstance(node, ast.ImportFrom) and node.level
        for target in _relative_targets(node)
        if RANK[target] >= RANK[name]
    ]
    assert upward == []


def _absolute_imports(name):
    """(top-level module, line) for every absolute import statement of a module."""
    return [
        (target.split(".")[0], node.lineno)
        for node in ast.walk(_tree(name))
        for target in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom) and not node.level
            else []
        )
    ]


@pytest.mark.parametrize("name", MODULES)
def test_no_absolute_import_of_the_package(name):
    """Package modules import each other relatively, so the layer check reads every edge."""
    assert [(target, line) for target, line in _absolute_imports(name) if target == "qosp"] == []


def test_standard_library_imports_are_pinned():
    """Every CLI start loads these modules and no others: a new one (dataclasses,
    typing, re, ...) is start-up time on every command, and fails here until
    it is added on purpose."""
    imported = {target for name in SOURCES for target, _ in _absolute_imports(name)}
    assert sorted(imported) == STDLIB


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_import(name):
    """Every name a module-level import binds is read in that module.

    A future import binds a feature, not a name: `annotations` counts as
    read only where the module has an annotation for it to defer.
    """
    tree = _tree(name)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            bound.update("__future__." + alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # argument and variable annotations, and return annotations
    if any(getattr(n, "annotation", None) or getattr(n, "returns", None) for n in ast.walk(tree)):
        read.add("__future__.annotations")
    assert sorted(bound - read) == []


@pytest.mark.parametrize("name", MODULES)
def test_no_private_name_imported_across_modules(name):
    """No `from .<module> import <name>` binds a name that module keeps private."""
    private = [
        "%s.%s" % (node.module, alias.name)
        for node in _tree(name).body
        if isinstance(node, ast.ImportFrom) and node.level and node.module
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


@pytest.mark.parametrize("name", SOURCES)
def test_no_float_literal_or_conversion(name):
    """No float literal and no float(...) call anywhere in the package."""
    floats = [
        node.lineno
        for node in ast.walk(_tree(name))
        if (isinstance(node, ast.Constant) and type(node.value) is float)
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float")
    ]
    assert floats == []


def test_code_lines_count_tokens_outside_docstrings_and_comments():
    """The counter behind the code-line figures: docstrings, comments and blank
    lines do not count; each line of a multi-line string or expression does."""
    source = '''"""Module docstring,
over two lines."""

import os  # a comment

# a comment line
class A:
    """Class docstring."""

    def f(self, x):
        """Method docstring."""
        s = """a string
        over two lines"""
        return (x +
                len(s))
'''
    assert code_lines(source) == 7
