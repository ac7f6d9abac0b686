"""Source-level contract: every check that backs a result is a typed raise,
every module-level function and class is reached, every error class is
raised somewhere, only matrices.py names the storage of a `Matrix` and
only lie.py the bracket table of a `LieAlgebra`.

`python -O` strips `assert` statements, so a check written as one silently
disappears; `raise AssertionError` is not a typed solvco error either, and
the CLI maps only `SolvcoError` and `ValueError` to documented messages.

A module-level function or class that no other code in the package names
and that the package does not export is dead code: only tests could reach
it, and it would keep a second copy of a path alive for them.
The export alone must not keep one alive either: every exported function
or class that no other module reaches is listed in `EXPORT_ONLY` with the
reason it stays public.  The same holds for the public methods of the
package's classes: one that no other code in the package names is listed
in `READER_METHODS` with the reason it stays.

An error class in errors.py that nothing raises is dead code the same way,
but its export in `__init__.py` hides it from the reach check, so every
`SolvcoError` subclass needs a `raise` site of its own.

A name that a module imports and never uses is a leftover of a moved
check (no linter runs on the package): the module still depends on the
code it no longer calls.  `__init__.py` imports only to export.

A `Matrix` keeps int numerators over one denominator in private slots;
other modules go through its methods (`denominator`, `numerator_rows`,
`row`, `column`, ...), so the representation can change in one file.  The
same holds for the stored rows of an `Echelon` and the private reduction
that reads them: other modules use `add`, `remainder`, `kernel`,
`rows_from`, ....  A `LieAlgebra` keeps its brackets in one private table
`_terms`, and other modules read it through `integer_brackets`,
`nonzero_brackets`, `ad_matrix`, ... in the same way; its memo of the
derived and lower central series is read through `derived_series`,
`is_nilpotent`, ....

Every divisor search is bounded: a call of `integer_divisors` passes a
`limit`, or is listed in `UNBOUNDED_DIVISOR_SEARCHES` with its reason,
since trial division without one runs to the square root of its argument.
There is one factor search: only `split_factors` and its private helper
call `integer_divisors` or `least_scale`, so a second search of roots or
quadratics fails here, and a better factor kernel replaces one function.

A command compiles only the modules it runs: compiling the others cost
about half of every cold start of `python -m solvco.cli`.  The weight-zero
path is imported only inside the functions of cohomology.py, on the first
call that takes it (about 4 ms of a cold start).  `__init__.py` imports no
module of the package when it loads: its names are listed in the export
table `_EXPORTS` and each is imported on first access.  cli.py imports at
module level only the modules that every subcommand loads (`COLD_CORE`),
and each handler imports the rest of what it runs.

No module imports `dataclasses`, at any level: its import chain
(`inspect`, `ast`, `dis`, `tokenize`) cost every cold command 12-15 ms,
and each `@dataclass` compiles its generated methods with `exec`.  A
record is a `typing.NamedTuple`; a checked input is a plain class whose
`__init__` runs the checks and whose `__setattr__` refuses assignment.

Polynomials are computed on as int coefficient lists at a scale; a
`Polynomial` of `Fraction`s is built only for a reader, in the functions
named in `POLYNOMIAL_READERS`, so the spectral layer cannot slip back
into `Fraction` arithmetic unseen.
"""

import ast
from collections import Counter
from pathlib import Path

import solvco
from solvco.lie import LieAlgebra
from solvco.matrices import Echelon, Matrix

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


def _names(node):
    """Names and attribute names referenced anywhere under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _exports(tree):
    """The names in the export table `_EXPORTS = {module: (names...)}` of
    an __init__.py."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "_EXPORTS" for t in node.targets):
            return {name for names in ast.literal_eval(node.value).values()
                    for name in names}
    return set()


def _unreferenced(package):
    """(module:name, exported) for each module-level function or class in
    the package directory that is not referenced outside its own body;
    exported tells whether the package's __init__.py lists it in its export
    table (a string in the table is not a reference)."""
    paths = sorted(package.glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in paths}
    exported = _exports(trees[package / "__init__.py"])
    referenced = Counter(name for tree in trees.values() for name in _names(tree))
    for path, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    or node.name.startswith("__")):  # a module hook the interpreter calls
                continue
            inside = sum(1 for name in _names(node) if name == node.name)
            if referenced[node.name] == inside:
                yield f"{path.stem}:{node.name}", node.name in exported


def _unreferenced_methods(package):
    """Class.method of each public method (properties included) of a
    module-level class in the package that no code names outside the
    method's own body; a method counts as named wherever its name is, since
    the receiver of an attribute is not resolved."""
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(package.glob("*.py"))]
    referenced = Counter(name for tree in trees for name in _names(tree))
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            for sub in node.body:
                if (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not sub.name.startswith("_")):
                    inside = sum(1 for name in _names(sub) if name == sub.name)
                    if referenced[sub.name] == inside:
                        yield f"{node.name}.{sub.name}"


def _unreached(package):
    """module:name of each unreferenced definition that __init__.py does
    not export either."""
    return [name for name, exported in _unreferenced(package) if not exported]


def _export_only(package):
    """module:name of each definition that only __init__.py reaches."""
    return [name for name, exported in _unreferenced(package) if exported]


# Exports that no command and no other module reaches, each kept on purpose.
EXPORT_ONLY = {
    "almost_abelian:b1_lattice":
        "n + 1 - rank(B - id), the independent oracle the tests hold the "
        "Wang-sequence b1 to",
    "almost_abelian:torus_cover":
        "the finite cover algebra of a quasi-unipotent holonomy, the input of "
        "the paper's route to the cohomology of the quotient",
    "decompositions:char_poly":
        "the characteristic polynomial as a `Polynomial` for a reader; the "
        "package reads the int form of `integer_char_poly`",
    "decompositions:compact_part":
        "the compact part of a semisimple matrix, with the semisimplicity "
        "check; the compact kill calls `integer_compact_part` with the int "
        "form it already has",
    "decompositions:minimal_polynomial":
        "the minimal polynomial as a `Polynomial` for a reader; the package "
        "reads the int form of `integer_minimal_polynomial`",
    "lie:conjugate":
        "change of basis, the public way to state basis invariance",
    "splitting:nilshadow":
        "the fully killed bracket under its own name; `split --kill full` "
        "builds the same bracket through kill_map and modified_bracket",
}


def test_every_module_level_definition_is_reached():
    assert _unreached(SOURCES[0].parent) == []


def test_every_export_only_definition_is_listed():
    init = ast.parse((SOURCES[0].parent / "__init__.py").read_text(encoding="utf-8"))
    assert _exports(init) == set(solvco.__all__)  # the table that the check reads
    assert sorted(_export_only(SOURCES[0].parent)) == sorted(EXPORT_ONLY)
    assert all(reason for reason in EXPORT_ONLY.values())


# Public methods that no other code in the package names, each kept on
# purpose for a reader.
READER_METHODS = {
    "JordanDecomposition.semisimple_minpoly":
        "the minimal polynomial of the semisimple part as a `Polynomial`; the "
        "package reads the int form `minpoly_form`",
    "LieAlgebra.bracket":
        "the bracket of two dense vectors in Fractions, for a reader; the "
        "package brackets int vectors, and `conjugate` no longer reads it",
    "LieAlgebra.bracket_basis":
        "[e_i, e_j] as a dense vector, the structure constants in the form a "
        "structure file states them",
    "LieAlgebra.structure_constant":
        "c[k][i][j] in the paper's notation; the package reads the int terms",
    "Matrix.diagonal":
        "the public constructor of a diagonal matrix, the simplest holonomy "
        "or derivation to state in code",
}


def test_every_public_method_is_named_or_listed():
    assert sorted(_unreferenced_methods(SOURCES[0].parent)) == sorted(READER_METHODS)
    assert all(reason for reason in READER_METHODS.values())


def test_method_check_sees_unnamed_methods(tmp_path):
    (tmp_path / "__init__.py").write_text("_EXPORTS = {'mod': ('Box',)}\n")
    (tmp_path / "mod.py").write_text(
        "class Box:\n"
        "    def __init__(self):\n        self.used()\n"
        "    def used(self):\n        return 1\n"
        "    @property\n    def size(self):\n        return 2\n"
        "    @classmethod\n    def empty(cls):\n        return cls()\n"
        "    def loop(self, n):\n        return self.loop(n - 1) if n else 0\n"
        "    def _private(self):\n        return 3\n"
        "def f(box):\n    return box.size\n")
    assert list(_unreferenced_methods(tmp_path)) == ["Box.empty", "Box.loop"]


def test_reach_check_sees_dead_definitions(tmp_path):
    (tmp_path / "__init__.py").write_text("_EXPORTS = {'mod': ('Exported',)}\n")
    (tmp_path / "mod.py").write_text(
        "class Exported:\n    pass\n"
        "def helper():\n    return 1\n"
        "def by_attribute():\n    return 2\n"
        "def caller(ns):\n    return helper() + ns.by_attribute()\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
        "def __getattr__(name):\n    return name\n")
    assert list(_unreached(tmp_path)) == ["mod:caller", "mod:recursive"]


def test_export_check_sees_exports_nothing_reaches(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "_EXPORTS = {'mod': ('Exported', 'used', 'recursive')}\n")
    (tmp_path / "mod.py").write_text(
        "class Exported:\n    pass\n"
        "def used():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n")
    (tmp_path / "other.py").write_text("from .mod import used\ndef f():\n    return used()\n")
    assert _export_only(tmp_path) == ["mod:Exported", "mod:recursive"]


def _unraised(package):
    """Each SolvcoError subclass defined in the package's errors.py that no
    `raise` statement in the package names."""
    raised = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.update(_names(exc))
    errors = {"SolvcoError"}
    tree = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and errors & {
                name for base in node.bases for name in _names(base)}:
            errors.add(node.name)
            if node.name not in raised:
                yield node.name


def test_every_error_class_is_raised():
    assert list(_unraised(SOURCES[0].parent)) == []


def test_raise_check_sees_unraised_errors(tmp_path):
    (tmp_path / "errors.py").write_text(
        "class SolvcoError(Exception):\n    pass\n"
        "class Raised(SolvcoError):\n    pass\n"
        "class Orphan(Raised):\n    pass\n"
        "class ByAttribute(SolvcoError):\n    pass\n"
        "class Unrelated(Exception):\n    pass\n")
    (tmp_path / "mod.py").write_text(
        "from . import errors\nfrom .errors import Raised, Orphan\n"
        "def f(x):\n    if x:\n        raise Raised('no')\n"
        "    raise errors.ByAttribute\n"
        "def g():\n    return Orphan\n")
    assert list(_unraised(tmp_path)) == ["Orphan"]


def _unused_imports(package):
    """module: name for each name that a module of the package other than
    __init__.py imports (`from __future__` aside) and never reads."""
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        yield f"{path.stem}: {name}"


def test_every_imported_name_is_used():
    assert list(_unused_imports(SOURCES[0].parent)) == []


def test_import_check_sees_unused_names(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import f\nimport os\n")
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import enum\nimport os.path\nfrom math import gcd, lcm as least\n"
        "from .other import used, unused\n"
        "def f(x: enum.Enum):\n    return used(x) + x.unused + least(1, 2)\n")
    assert list(_unused_imports(tmp_path)) == ["mod: os", "mod: gcd", "mod: unused"]


STORAGE = {slot for slot in Matrix.__slots__ if slot.startswith("_")}
ECHELON_STORAGE = {"_piv", "_tails", "_reduced"}
# The private slots of a `LieAlgebra`, each with what it holds.
LIE_STORAGE = {
    "_terms": "the one table of nonzero bracket terms that every invariant reads",
    "_series": "the memo of the derived and lower central series, filled on the "
               "first read; a reader outside lie.py could find it unfilled",
}


def _storage_uses(package, owner, slots):
    """module:line: name for each Name, attribute or string constant equal
    to one of the slots, in every module of the package but the owner."""
    for path in sorted(package.glob("*.py")):
        if path.name == owner:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.value if isinstance(node, ast.Constant) else None)
            if isinstance(name, str) and name in slots:
                yield f"{path.stem}:{node.lineno}: {name}"


def test_only_matrices_names_the_matrix_storage():
    assert STORAGE  # the private slots that hold the entries
    # an echelon's stored rows and the private reduction that reads them;
    # each is an attribute, so a rename cannot empty the check
    assert all(hasattr(Echelon(1), name) for name in ECHELON_STORAGE)
    assert list(_storage_uses(SOURCES[0].parent, "matrices.py",
                              STORAGE | ECHELON_STORAGE)) == []


def test_only_lie_names_the_bracket_table():
    assert set(LIE_STORAGE) == {slot for slot in LieAlgebra.__slots__ if slot.startswith("_")}
    assert all(LIE_STORAGE.values())
    assert list(_storage_uses(SOURCES[0].parent, "lie.py", set(LIE_STORAGE))) == []


def test_storage_check_sees_every_form(tmp_path):
    (tmp_path / "matrices.py").write_text("def f(m):\n    return m._num\n")
    (tmp_path / "lie.py").write_text("def t(g):\n    return g._terms, m._num\n")
    (tmp_path / "other.py").write_text(
        "def g(m):\n    return m.rows\n"
        "def h(m):\n    return m._num, getattr(m, '_den')\n"
        "_den = 1\n"
        "def u(g):\n    return g._terms\n")
    assert sorted(_storage_uses(tmp_path, "matrices.py", {"_num", "_den"})) == [
        "lie:2: _num", "other:4: _den", "other:4: _num", "other:5: _den"]
    assert sorted(_storage_uses(tmp_path, "lie.py", {"_terms"})) == ["other:7: _terms"]



# The functions that build a `Polynomial` for a reader, each with what it
# hands out; every other function computes on int coefficient lists.
POLYNOMIAL_READERS = {
    "almost_abelian:mostow_status": "the factor a Mostow reason names",
    "decompositions:JordanDecomposition.semisimple_minpoly":
        "the minimal polynomial of the semisimple part",
    "decompositions:char_poly": "the public characteristic polynomial",
    "decompositions:integer_compact_part": "the factor an error names",
    "decompositions:minimal_polynomial": "the public minimal polynomial",
    "lie:completely_solvable_flag": "the `no` witness",
}


def _polynomial_builders(package):
    """module:function (module:Class.method for a method) of each call
    `Polynomial(...)` or `Polynomial.<name>(...)` outside the class
    `Polynomial` itself, which defines how one is built."""
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        scopes = []
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name != "Polynomial":
                scopes += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                           if isinstance(sub, ast.FunctionDef)]
            elif isinstance(node, ast.FunctionDef):
                scopes.append((node.name, node))
        for name, scope in scopes:
            for sub in ast.walk(scope):
                if isinstance(sub, ast.Call) and "Polynomial" in (
                        getattr(sub.func, "id", None),
                        getattr(getattr(sub.func, "value", None), "id", None)):
                    yield f"{path.stem}:{name}"
                    break


def test_only_reader_boundaries_build_polynomials():
    assert sorted(set(_polynomial_builders(SOURCES[0].parent))) == sorted(POLYNOMIAL_READERS)
    assert all(reason for reason in POLYNOMIAL_READERS.values())


def test_polynomial_check_sees_every_form(tmp_path):
    (tmp_path / "polynomials.py").write_text(
        "class Polynomial:\n    @classmethod\n    def x(cls):\n        return Polynomial((0, 1))\n"
        "def helper(c):\n    return Polynomial(c)\n")
    (tmp_path / "other.py").write_text(
        "from .polynomials import Polynomial\n"
        "def witness(P):\n    return Polynomial.from_scaled(P, 1)\n"
        "def ints(P):\n    return [0] + P\n"
        "class Report:\n    def factor(self):\n        return Polynomial.x()\n")
    assert list(_polynomial_builders(tmp_path)) == [
        "other:witness", "other:Report.factor", "polynomials:helper"]


# Calls of `integer_divisors` without a limit, each with its reason.
UNBOUNDED_DIVISOR_SEARCHES = {}


def _calls(package, names):
    """(module:function, call) for each call, by name or attribute, of one
    of the names in a module-level function or a method (module:Class.method)
    of the package."""
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        scopes = []
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                scopes += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                           if isinstance(sub, ast.FunctionDef)]
            elif isinstance(node, ast.FunctionDef):
                scopes.append((node.name, node))
        for name, scope in scopes:
            for sub in ast.walk(scope):
                if isinstance(sub, ast.Call) and names & {
                        getattr(sub.func, "id", None), getattr(sub.func, "attr", None)}:
                    yield f"{path.stem}:{name}", sub


def _unbounded_divisor_calls(package):
    """module:function (module:Class.method for a method) of each call of
    `integer_divisors` that passes no limit, or None as the limit."""
    for scope, call in _calls(package, {"integer_divisors"}):
        limit = call.args[1:2] + [k.value for k in call.keywords if k.arg == "limit"]
        if not limit or (isinstance(limit[0], ast.Constant) and limit[0].value is None):
            yield scope


def test_every_divisor_search_passes_a_limit_or_is_listed():
    assert (sorted(set(_unbounded_divisor_calls(SOURCES[0].parent)))
            == sorted(UNBOUNDED_DIVISOR_SEARCHES))
    assert all(reason for reason in UNBOUNDED_DIVISOR_SEARCHES.values())


def test_divisor_check_sees_every_form(tmp_path):
    (tmp_path / "polynomials.py").write_text(
        "def integer_divisors(n, limit=None):\n    return [n]\n"
        "def bounded(n):\n    return integer_divisors(n, 3) + integer_divisors(n, limit=2)\n"
        "def bare(n):\n    return integer_divisors(n)\n"
        "def none(n):\n    return integer_divisors(n, None)\n")
    (tmp_path / "other.py").write_text(
        "from . import polynomials\n"
        "class Search:\n    def run(self, n):\n"
        "        return polynomials.integer_divisors(n, limit=None)\n")
    assert list(_unbounded_divisor_calls(tmp_path)) == [
        "other:Search.run", "polynomials:bare", "polynomials:none"]


# The one factor search of the package and its private helper: the only
# callers of the divisor search and of the least scale.
FACTOR_SEARCH = {"polynomials:split_factors", "polynomials:_quadratic_search"}


def _factor_search_callers(package):
    return {scope for scope, _ in _calls(package, {"integer_divisors", "least_scale"})}


def test_one_factor_search_calls_the_divisor_search_and_the_least_scale():
    assert _factor_search_callers(SOURCES[0].parent) == FACTOR_SEARCH


def test_factor_search_check_sees_every_caller(tmp_path):
    (tmp_path / "polynomials.py").write_text(
        "def integer_divisors(n, limit=None):\n    return [n]\n"
        "def least_scale(P, scale):\n    return P, scale\n"
        "def split_factors(P, scale):\n    return _quadratic_search(least_scale(P, scale))\n"
        "def _quadratic_search(q):\n    return integer_divisors(q[0], 4)\n")
    (tmp_path / "other.py").write_text(
        "from . import polynomials\nfrom .polynomials import least_scale\n"
        "def roots(P):\n    return least_scale(P, 1)\n"
        "class Search:\n    def run(self, n):\n"
        "        return polynomials.integer_divisors(n, limit=3)\n")
    assert _factor_search_callers(tmp_path) == FACTOR_SEARCH | {"other:roots",
                                                                "other:Search.run"}


def _weight_zero_imports(package):
    """module:line of each import of the `_weight_zero` module that is not
    inside a function of cohomology.py."""
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = set()
        if path.name == "cohomology.py":
            allowed = {id(sub) for node in tree.body if isinstance(node, ast.FunctionDef)
                       for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                continue
            if id(node) not in allowed and any(m.split(".")[-1] == "_weight_zero"
                                               for m in modules):
                yield f"{path.stem}:{node.lineno}"


def test_the_weight_zero_path_is_imported_on_first_use_only():
    assert list(_weight_zero_imports(SOURCES[0].parent)) == []


def test_weight_zero_import_check_sees_every_form(tmp_path):
    (tmp_path / "cohomology.py").write_text(
        "from ._weight_zero import eager\n"
        "def cohomology(g):\n    from ._weight_zero import betti\n    return betti(g)\n")
    (tmp_path / "cli.py").write_text(
        "import solvco._weight_zero\nfrom .cohomology import cohomology\n"
        "def run(g):\n    from . import _weight_zero\n    return _weight_zero\n")
    (tmp_path / "_weight_zero.py").write_text("from .cohomology import cohomology\n")
    assert list(_weight_zero_imports(tmp_path)) == ["cli:1", "cli:4", "cohomology:1"]


# The modules that every subcommand loads: each input is read through files,
# which imports lie, matrices and errors.
COLD_CORE = {"errors", "files", "lie", "matrices"}


def _eager_imports(package):
    """module:line: name of each module of the package that __init__.py
    (any module) or cli.py (one outside COLD_CORE) imports when it loads,
    that is, outside a function."""
    modules = {path.stem for path in package.glob("*.py")} - {"__init__"}
    for file, allowed in (("__init__.py", set()), ("cli.py", COLD_CORE)):
        tree = ast.parse((package / file).read_text(encoding="utf-8"))
        deferred = {id(sub) for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in deferred:
                continue
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            for name in dict.fromkeys(n.split(".")[-1] for n in names):
                if name in modules - allowed:
                    yield f"{file[:-3]}:{node.lineno}: {name}"


def test_init_and_cli_import_no_command_module_when_they_load():
    assert list(_eager_imports(SOURCES[0].parent)) == []


def test_eager_import_check_sees_every_form(tmp_path):
    for name in ("errors", "files", "lie", "matrices", "mod", "splitting",
                 "almost_abelian", "catalog", "cohomology"):
        (tmp_path / f"{name}.py").write_text("")
    (tmp_path / "__init__.py").write_text(
        "import sys\nfrom .errors import SolvcoError\n_EXPORTS = {'mod': ('f',)}\n"
        "def __getattr__(name):\n    from .mod import f\n    return f\n")
    (tmp_path / "cli.py").write_text(
        "import argparse\nfrom . import __version__, splitting\n"
        "from .files import parse_matrix\nimport solvco.almost_abelian\n"
        "if argparse:\n    from .catalog import catalog_get\n"
        "def run():\n    from .cohomology import cohomology\n    return cohomology\n")
    assert list(_eager_imports(tmp_path)) == [
        "__init__:2: errors", "cli:2: splitting", "cli:4: almost_abelian", "cli:6: catalog"]


def _dataclass_imports(package):
    """module:line of each import of the stdlib `dataclasses` module in
    the package, inside a function or class as well as at module level."""
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            elif isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                continue
            if any(m.split(".")[0] == "dataclasses" for m in modules):
                yield f"{path.stem}:{node.lineno}"


def test_no_module_imports_dataclasses():
    assert list(_dataclass_imports(SOURCES[0].parent)) == []


def test_dataclass_import_check_sees_every_form(tmp_path):
    (tmp_path / "records.py").write_text(
        "from dataclasses import dataclass\nfrom typing import NamedTuple\n"
        "def build():\n    import os, dataclasses as dc\n    return dc\n"
        "class Box:\n    from dataclasses import field\n")
    (tmp_path / "other.py").write_text(
        "from . import dataclasses\nfrom .records import build\nimport dataclasses_json\n")
    assert list(_dataclass_imports(tmp_path)) == ["records:1", "records:4", "records:7"]
