"""The package metadata promises only what exists, and all that the
package needs: every declared dependency imports, the package imports
nothing undeclared, and every console-script target resolves."""

import ast
import importlib
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE = ROOT / "src" / "daanet"


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
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
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
