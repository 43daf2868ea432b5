"""The package metadata promises only what exists, and all that the
package needs: every declared dependency imports, the package imports
nothing undeclared, and every console-script target resolves. Each module
declares its surface in `__all__`, every top-level function or class
has a caller in the package or a place there, and every method and
property of a package class is read by the package or a benchmark."""

import ast
import importlib
import re
import sys
import tomllib
from pathlib import Path

from conftest import names_taken_from, package_trees

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


def project_table():
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]


def dependency_modules():
    """The import name of each declared dependency."""
    return [
        re.match(r"[A-Za-z0-9_.\-]+", requirement).group(0).replace("-", "_")
        for requirement in project_table().get("dependencies", [])
    ]


def test_every_dependency_imports():
    for name in dependency_modules():
        importlib.import_module(name)


def test_every_import_is_declared():
    allowed = set(sys.stdlib_module_names) | {"daanet"} | set(dependency_modules())
    undeclared = []
    for path, tree in package_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            undeclared += [
                f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
                for name in names
                if name.partition(".")[0] not in allowed
            ]
    assert not undeclared, "imports of undeclared packages: " + ", ".join(undeclared)


def test_every_script_target_resolves():
    for script, target in project_table().get("scripts", {}).items():
        module_name, _, attr_path = target.partition(":")
        obj = importlib.import_module(module_name)
        for attr in attr_path.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), f"{script} -> {target} is not callable"


def declared_surface(tree):
    """The names of a module's literal `__all__`, or None without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def top_level_bindings(tree):
    """Every name a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {target.id for target in node.targets if isinstance(target, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(alias.asname or alias.name).partition(".")[0] for alias in node.names}
    return names


FUNCTION_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
SCOPES = FUNCTION_SCOPES + (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def scope_bindings(scope):
    """The names a function, lambda or comprehension binds in its own
    scope: its parameters; its assignment, loop, `with`, `except`, import
    and comprehension targets; and the functions and classes it defines.
    Names it declares `global` are left out."""
    names, declared_global = set(), set()
    if isinstance(scope, FUNCTION_SCOPES):
        args = scope.args
        every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        names |= {arg.arg for arg in every if arg is not None}
    pending = list(ast.iter_child_nodes(scope))
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            continue
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(alias.asname or alias.name).partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.Global):
            declared_global |= set(node.names)
        if not isinstance(node, SCOPES):
            pending.extend(ast.iter_child_nodes(node))
    return names - declared_global


def top_level_reads(tree):
    """The names a module's code reads from its top level: every load of a
    name that no enclosing function, lambda or comprehension binds."""
    reads = set()

    def visit(node, shadowed):
        if isinstance(node, SCOPES):
            shadowed = shadowed | scope_bindings(node)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in shadowed:
                reads.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, shadowed)

    visit(tree, frozenset())
    return reads


def test_top_level_reads_skip_local_names():
    tree = ast.parse(
        "def train(): pass\n"
        "def split(xs):\n"
        "    train, val = [], []\n"
        "    for x in xs:\n"
        "        (val if x else train).append(x)\n"
        "    return [run for run in xs], lambda evaluate: evaluate\n"
        "def caller():\n"
        "    return build()\n"
    )
    assert top_level_reads(tree) == {"build"}


def test_every_top_level_name_has_a_caller_or_a_declared_place():
    # a function or class that no module of the package refers to by name is
    # public API, listed in its module's `__all__`, or code to delete; and
    # an `__all__` entry must name something the module defines. A local
    # variable that shares a top-level name is not a caller of it.
    trees = package_trees()
    problems = []
    for path, tree in trees.items():
        surface = declared_surface(tree)
        if surface is None:
            problems.append(f"{path.name}: no __all__")
            continue
        stale = [name for name in surface if name not in top_level_bindings(tree)]
        problems += [f"{path.name}: __all__ lists undefined {name!r}" for name in stale]
        used = names_taken_from(path.stem, trees) | top_level_reads(tree)
        problems += [
            f"{path.name}:{node.lineno}: {node.name} is neither called in the package nor in __all__"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in used | set(surface)
        ]
    assert not problems, "\n".join(problems)


def attribute_reads(trees):
    """Every name that the code of `trees` reads as an attribute (`x.name`)."""
    return {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_method_is_read_in_the_package_or_a_benchmark():
    # a method or property that no package module and no benchmark script
    # reads as an attribute is served to no one: only tests could call it.
    # Dunder methods are called by the language, not by name.
    trees = package_trees()
    benchmarks = [
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted((ROOT / "benchmarks").glob("*.py"))
    ]
    read = attribute_reads([*trees.values(), *benchmarks])
    unread = [
        f"{path.name}:{item.lineno}: {cls.name}.{item.name}"
        for path, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (item.name.startswith("__") and item.name.endswith("__"))
        and item.name not in read
    ]
    assert not unread, "methods that nothing reads: " + ", ".join(unread)
