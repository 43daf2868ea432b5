"""The package metadata promises only what exists: every declared
dependency imports and every console-script target resolves."""

import importlib
import re
import tomllib
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def project_table():
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]


def test_every_dependency_imports():
    for requirement in project_table().get("dependencies", []):
        name = re.match(r"[A-Za-z0-9_.\-]+", requirement).group(0)
        importlib.import_module(name.replace("-", "_"))


def test_every_script_target_resolves():
    for script, target in project_table().get("scripts", {}).items():
        module_name, _, attr_path = target.partition(":")
        obj = importlib.import_module(module_name)
        for attr in attr_path.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), f"{script} -> {target} is not callable"
