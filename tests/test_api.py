"""The package exports what its demos and README quickstart import, each
submodule exports only names it defines, no module imports another's
private name, and the README names only flags the CLI has."""

import argparse
import ast
import importlib
import re
from pathlib import Path

import pytest

import prefixcast
from prefixcast import cli

ROOT = Path(__file__).resolve().parent.parent
SUBMODULES = ("trace", "dynamism", "selectors", "evaluation", "rttsim")


def imported_from_package(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "prefixcast"
        for alias in node.names
    }


def readme_quickstart() -> str:
    section = (ROOT / "README.md").read_text().split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_package_exports_what_demos_and_quickstart_import():
    used = imported_from_package(readme_quickstart())
    for demo in sorted((ROOT / "demos").glob("*.py")):
        used |= imported_from_package(demo.read_text())
    assert len(prefixcast.__all__) == len(set(prefixcast.__all__))
    assert set(prefixcast.__all__) == used


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_only_names_it_defines(name):
    module = importlib.import_module(f"prefixcast.{name}")
    defined = set()
    for node in ast.parse(Path(module.__file__).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) <= defined - {"__all__"}


def test_no_module_imports_a_private_name_of_another():
    """A rule shared between modules is a public name of one of them; no
    module of the package imports another's underscore-prefixed name."""
    private = {
        f"{path.stem}: {node.module}.{alias.name}"
        for path in sorted((ROOT / "src" / "prefixcast").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "prefixcast")
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert sorted(private) == []


def test_readme_names_only_cli_flags():
    """Outside "## Testing" (whose flags are the benchmark's), every
    ``--flag`` the README names is an option of some subcommand."""
    before, testing = (ROOT / "README.md").read_text().split("\n## Testing\n", 1)
    after = testing.split("\n## ", 1)[1]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", before + after))
    commands = next(action.choices for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    options = {flag for command in commands.values() for action in command._actions
               for flag in action.option_strings}
    assert "--bins" in named
    assert sorted(named - options) == []
