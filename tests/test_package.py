"""The package top level: the README's library entry points plus the
error types, and nothing else."""

import inspect
import re
from pathlib import Path

import mvtrack3d
from mvtrack3d import errors

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_import_statement():
    """The `from mvtrack3d import (...)` statement of the README's
    "Library entry points" code block."""
    section = README.read_text(encoding="utf-8").split(
        "## Library entry points", 1)[1]
    block = section.split("```python", 1)[1].split("```", 1)[0]
    match = re.search(r"from mvtrack3d import \(.*?\)", block, re.DOTALL)
    assert match, "no import statement in the entry-point block"
    return match.group(0)


def test_all_has_no_duplicates():
    assert len(mvtrack3d.__all__) == len(set(mvtrack3d.__all__))


def test_every_name_in_all_resolves():
    for name in mvtrack3d.__all__:
        assert getattr(mvtrack3d, name) is not None, name


def test_readme_entry_point_import_runs():
    namespace = {}
    exec(readme_import_statement(), namespace)
    names = set(namespace) - {"__builtins__"}
    assert len(names) == 12
    error_types = {name for name, obj in inspect.getmembers(errors,
                                                            inspect.isclass)
                   if issubclass(obj, errors.MvTrackError)}
    assert set(mvtrack3d.__all__) == names | error_types
