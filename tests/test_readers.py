"""Every public function and class of nemlab has a reader outside the tests.

A public top-level function or class of a package module (`__init__.py`
aside) must be read somewhere other than its own definition: by a package
module, by bench/ or by a pyproject.toml entry point.  An operator that
only the tests call is not code the solver runs; the tests should run
that code instead.  A read is a name, an attribute, an imported name or
the last part of a dotted string ("functionals.energy", the way
bench/tracing.py names the functions it times).  Like test_imports.py,
this stdlib `ast` check stands in for a linter rule.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nemlab"
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def reads(tree: ast.AST):
    """Every name tree reads."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
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
    entry_points."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    read = set(entry_points)
    for source in readers:
        read |= reads(ast.parse(source))
    defs = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                read |= reads(node) - {node.name}
                if not node.name.startswith("_"):
                    defs.append((name, node.name))
            else:
                read |= reads(node)
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
        ),
        "step": (
            "from .laws import used\n"
            "def run():\n"
            "    return used(1)\n"
            "def traced():\n"
            "    pass\n"
        ),
    }
    assert unread(modules, readers=['patch("step.traced")'], entry_points=["run"]) == [
        ("laws", "recursive"), ("laws", "Spare")]


def test_every_public_operator_has_a_reader():
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]")[1].split("\n[")[0]
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    readers = [(SRC / "__init__.py").read_text()]
    readers += [p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))]
    assert unread(modules, readers, re.findall(r'"[\w.]+:(\w+)"', scripts)) == []
