"""Source-level contract: every check that backs a result is a typed raise.

`python -O` strips `assert` statements, so a check written as one silently
disappears; `raise AssertionError` is not a typed solvco error either, and
the CLI maps only `SolvcoError` and `ValueError` to documented messages.
"""

import ast
from pathlib import Path

import solvco

SOURCES = sorted(Path(solvco.__file__).parent.glob("*.py"))


def _offences(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield f"{path.name}:{node.lineno}: assert statement"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield f"{path.name}:{node.lineno}: raise AssertionError"


def test_sources_found():
    assert len(SOURCES) >= 10


def test_no_assert_or_assertion_error_in_sources():
    offences = [line for path in SOURCES for line in _offences(path)]
    assert offences == []


def test_contract_check_sees_both_forms(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("def f(x):\n    assert x\n    raise AssertionError('no')\n")
    assert list(_offences(sample)) == ["sample.py:2: assert statement",
                                       "sample.py:3: raise AssertionError"]
