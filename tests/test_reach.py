"""Reach census: every function of the package runs in some golden command,
or is listed with the reason it stays.

A fresh interpreter imports solvco.cli, then runs every golden command of
`test_golden_cli` through `run_command` under `sys.setprofile` and reports
the code objects of the package that were called.  The fresh interpreter
matters: a cache warmed by another test (the catalog's first-load
verification, the lru caches of the complex) would hide the code that
fills it.  Every function the package's sources define, nested ones and
methods included, is compiled from the source files and must either be
among those called or be justified: by `EXPORT_ONLY` or `READER_METHODS`
in `test_source_contract`, as a dunder of a value type, or in `UNREACHED`
below.  A new function that no command reaches then fails here until it
gets a caller or a reason.
"""

import json
import subprocess
import sys
from inspect import CO_OPTIMIZED
from pathlib import Path
from types import CodeType

import solvco
from test_golden_cli import FILES, commands
from test_source_contract import EXPORT_ONLY, READER_METHODS

PACKAGE = Path(solvco.__file__).resolve().parent

# The methods a value type defines for equality, hashing, pickling,
# immutability and printing; the commands print no value and copy none.
VALUE_DUNDERS = {"__eq__", "__hash__", "__repr__", "__reduce__", "__setattr__"}

# Functions that no golden command calls, each kept on purpose.
UNREACHED = {
    "__init__:__getattr__": "the PEP 562 hook that loads an exported name on first "
                            "access; the CLI imports its modules directly",
    "__init__:__dir__": "the PEP 562 hook that lists the exported names",
    "cli:_build_parser": "runs once when cli.py is imported, before the census starts",
    "cli:main": "the console script; it prints what run_command returns",
    "matrices:Matrix.row": "a row as Fractions, read only by `Matrix.__repr__`",
    "lie:LieAlgebra.abelian": "builds R^n for the torus cover of a quasi-unipotent "
                              "holonomy, which no command computes yet",
    "decompositions:nilpotency_index": "part of the torus-cover chain, which no "
                                       "command computes yet",
    "decompositions:exp_nilpotent": "part of the torus-cover chain",
    "decompositions:log_unipotent": "part of the torus-cover chain",
}

CHILD = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
import solvco.cli

package, called = os.path.join(sys.argv[2], ""), set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(package):
        called.add((code.co_filename, code.co_firstlineno, code.co_qualname))

sys.setprofile(profile)
for argv in json.load(sys.stdin):
    solvco.cli.run_command(argv)
sys.setprofile(None)
print(json.dumps(sorted(called)))
"""


def _functions(path: Path):
    """(line, qualified name) of every function the source file defines,
    nested ones and methods included; a class body, a comprehension and a
    lambda are not functions."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        for const in code.co_consts:
            if isinstance(const, CodeType):
                stack.append(const)
                if const.co_flags & CO_OPTIMIZED and not const.co_name.startswith("<"):
                    yield const.co_firstlineno, const.co_qualname


def _justified(name: str) -> bool:
    qualname = name.split(":")[1]
    return (name in EXPORT_ONLY or qualname in READER_METHODS
            or qualname.rsplit(".", 1)[-1] in VALUE_DUNDERS or name in UNREACHED)


def unreached(package: Path, argvs, workdir: Path):
    """module:qualname of each function in the package that no argv in
    argvs calls, run in workdir by a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(package.parent), str(package)],
        input=json.dumps(argvs), capture_output=True, text=True, cwd=workdir, check=True)
    called = {(Path(f).stem, line, name) for f, line, name in json.loads(proc.stdout)}
    return sorted(f"{path.stem}:{name}" for path in sorted(package.glob("*.py"))
                  for line, name in _functions(path) if (path.stem, line, name) not in called)


def test_every_function_is_reached_by_a_golden_command_or_listed(tmp_path):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    missed = unreached(PACKAGE, commands(), tmp_path)
    assert [name for name in missed if not _justified(name)] == []
    # every listed name is still defined and still unreached
    assert set(UNREACHED) <= set(missed)
    assert all(UNREACHED.values())


def test_census_sees_a_function_no_command_calls(tmp_path):
    package = tmp_path / "solvco"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "def run_command(argv):\n    return helper(argv)\n"
        "def helper(argv):\n    def inner():\n        return 0\n    return len(argv)\n"
        "def never():\n    return 1\n"
        "class Box:\n    def used(self):\n        return 2\n")
    assert unreached(package, [["a"], ["b", "c"]], tmp_path) == [
        "cli:Box.used", "cli:helper.<locals>.inner", "cli:never"]
