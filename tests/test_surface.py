"""Every name that ``substochastic/__init__.py`` exports has a caller outside the tests.

A caller is another library module (the CLI among them), a script, the
benchmark or the acceptance gate ``tests/test_acceptance.py``.  A name that
only the other tests reach does not belong in the public surface: it moves
into the tests or goes.  The check only reads files.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "substochastic"


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def caller_lines() -> list[str]:
    paths = [
        *(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
        *(ROOT / "scripts").glob("*.py"),
        *(ROOT / "benchmark").glob("*.py"),
        ROOT / "tests" / "test_acceptance.py",
    ]
    return [line for path in sorted(paths) for line in path.read_text().splitlines()]


def unreached(names: list[str], lines: list[str]) -> list[str]:
    """The names that occur in ``lines`` only on their own ``def``/``class`` line, or nowhere."""
    out = []
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"\s*(?:def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            out.append(name)
    return out


def test_every_export_has_a_caller_outside_the_tests():
    names = exported_names()
    assert "classify_recurrence" in names and "validate_metadata" in names
    assert unreached(names, caller_lines()) == []


def test_a_name_on_its_own_definition_line_only_is_unreached():
    lines = ["def helper(d):", "    return d", "class Report:", "x = Report()"]
    assert unreached(["helper", "Report", "absent"], lines) == ["helper", "absent"]
