"""The package's public surface: the top level holds the README's
library entry points plus the error types, and nothing else, and every
other public function or class of a submodule has a caller outside the
tests."""

import ast
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


ROOT = README.parent
# Called only by tests, but it reads and validates the corruption file
# that synth writes: the reader of a file format, not a kernel wrapper.
TEST_ONLY = {"fileio.load_corruption"}


def _used_names(node):
    """Every identifier node's code uses: names, attributes, imported
    names and string constants (setattr and getattr targets)."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            used.add(sub.value)
    return used


def test_every_public_definition_has_a_caller_outside_tests():
    # a public function or class that only tests call re-exposes a kernel
    # or is dead: each must be used in src/ or bench/ outside its own
    # definition, or be a top-level entry point
    files = sorted((ROOT / "src" / "mvtrack3d").glob("*.py")) \
        + sorted((ROOT / "bench").glob("*.py"))
    statements = []   # (module, top-level statement, names it uses)
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        statements += [(path, stmt, _used_names(stmt)) for stmt in tree.body]
    public = [(f"{path.stem}.{stmt.name}", stmt)
              for path, stmt, _ in statements
              if path.parent.name == "mvtrack3d"
              and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
              and not stmt.name.startswith("_")
              and stmt.name not in mvtrack3d.__all__]
    unused = [name for name, stmt in public if name not in TEST_ONLY
              and not any(stmt.name in used
                          for _, other, used in statements
                          if other is not stmt)]
    assert unused == []
