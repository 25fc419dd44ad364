"""Every public function and class of nemlab has a reader outside the tests.

A public top-level function or class of a package module (`__init__.py`
aside) must be read somewhere other than its own definition: by a package
module, by bench/ or by a pyproject.toml entry point.  An operator that
only the tests call is not code the solver runs; the tests should run
that code instead.  A read is a name, an imported name, an attribute of a
package module ("functionals.energy", "nemlab.cli.main"; an attribute of
any other object, such as a result's `br.energy`, is not a read of the
function `energy`) or the last part of a dotted string
("functionals.energy", the way bench/tracing.py names the functions it
times).  Like test_imports.py,
this stdlib `ast` check stands in for a linter rule.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nemlab"
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def _is_module(node: ast.AST, modules) -> bool:
    """Whether node names one of modules, bare or as a package attribute."""
    return ((isinstance(node, ast.Name) and node.id in modules)
            or (isinstance(node, ast.Attribute) and node.attr in modules))


def reads(tree: ast.AST, modules):
    """Every name tree reads; an attribute counts only on one of modules."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and _is_module(node.value, modules):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            out.add(node.value.rsplit(".", 1)[1])
    return out


def unread(modules, readers=(), entry_points=()):
    """(module, name) of each public top-level function or class of
    modules (module name -> source) that is read neither by a module
    outside its own definition, nor by a source in readers, nor as one of
    entry_points.  An attribute is a read only on a module of modules (its
    name without ".py") or on the package, nemlab."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    names = {name.removesuffix(".py") for name in modules} | {"nemlab"}
    read = set(entry_points)
    for source in readers:
        read |= reads(ast.parse(source), names)
    defs = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                read |= reads(node, names) - {node.name}
                if not node.name.startswith("_"):
                    defs.append((name, node.name))
            else:
                read |= reads(node, names)
    return [(module, name) for module, name in defs if name not in read]


def test_the_check_flags_an_operator_only_its_own_definition_reads():
    modules = {
        "laws": (
            "def used(x):\n"
            "    return helper(x)\n"
            "def helper(x):\n"
            "    return x\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "def _private():\n"
            "    pass\n"
            "class Spare:\n"
            "    pass\n"
            "def energy(x):\n"
            "    return x\n"
            "def dissipation(x):\n"
            "    return x\n"
        ),
        "step": (
            "from .laws import used\n"
            "from . import laws\n"
            "def run(row):\n"
            "    return used(1) + row.energy + laws.dissipation(2)\n"
            "def traced():\n"
            "    pass\n"
        ),
    }
    # row.energy reads an attribute of a value, not the function laws.energy
    assert unread(modules, readers=['patch("step.traced")'], entry_points=["run"]) == [
        ("laws", "recursive"), ("laws", "Spare"), ("laws", "energy")]


def test_every_public_operator_has_a_reader():
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]")[1].split("\n[")[0]
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    readers = [(SRC / "__init__.py").read_text()]
    readers += [p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))]
    assert unread(modules, readers, re.findall(r'"[\w.]+:(\w+)"', scripts)) == []
