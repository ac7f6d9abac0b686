"""Text formats: structure-constant files and matrix files.

Structure file grammar (line oriented, '#' starts a comment, blank lines
ignored):

    dim N
    d e<k> = [<rat>] e<i>^e<j> { (+|-) [<rat>] e<i>^e<j> }

Omitted coefficients default to 1; generators without a d-line have d = 0.
The stored constants follow c[k][i][j] = -(coefficient of e^i^e^j in d e^k).

Matrix files: first line `ROWS COLS`, then ROWS lines of COLS rationals,
each `p`, `-p` or `p/q` with positive q.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DimensionTooLarge, ParseError
from .lie import LieAlgebra, validate
from .matrices import Matrix

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")
_MONOMIAL_RE = re.compile(r"^e(\d+)\^e(\d+)$")
_GENERATOR_RE = re.compile(r"^e(\d+)$")

# Largest `dim` a structure file may declare, checked before any row is
# allocated: the Jacobi check and the series behind `info` grow with a
# power of dim, and `info` on `dim 32` with one bracket takes about 1 s.
MAX_FILE_DIM = 32


def parse_rational(token: str, line_no: int) -> Fraction:
    if not _RATIONAL_RE.match(token):
        raise ParseError(line_no, f"bad rational {token!r}")
    return Fraction(token)


def _content_lines(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


def parse_structure_file(text: str) -> LieAlgebra:
    """Parse, convert to structure constants and validate (Jacobi)."""
    dim = None
    equations = {}  # k -> list of (coeff, i, j)
    for line_no, line in _content_lines(text):
        tokens = line.split()
        if tokens[0] == "dim":
            if dim is not None:
                raise ParseError(line_no, "duplicate dim line")
            if len(tokens) != 2 or not tokens[1].isdecimal() or int(tokens[1]) < 1:
                raise ParseError(line_no, "expected `dim N` with positive N")
            dim = int(tokens[1])
            if dim > MAX_FILE_DIM:
                raise DimensionTooLarge(
                    f"line {line_no}: dimension {dim} exceeds bound {MAX_FILE_DIM}")
            continue
        if dim is None:
            raise ParseError(line_no, "dim line must come first")
        if tokens[0] != "d" or len(tokens) < 4 or tokens[2] != "=":
            raise ParseError(line_no, "expected `d e<k> = <terms>`")
        gen = _GENERATOR_RE.match(tokens[1])
        if not gen:
            raise ParseError(line_no, f"bad generator {tokens[1]!r}")
        k = int(gen.group(1))
        if not 1 <= k <= dim:
            raise ParseError(line_no, f"generator index {k} out of range 1..{dim}")
        if k in equations:
            raise ParseError(line_no, f"duplicate equation for e{k}")
        terms = _parse_terms(tokens[3:], dim, line_no)
        equations[k] = terms
    if dim is None:
        raise ParseError(1, "missing dim line")
    brackets = {}
    for k, terms in equations.items():
        for coeff, i, j in terms:
            # c[k][i][j] = -(coefficient of e^{ij} in d e^k)
            brackets.setdefault((i, j), {})[k] = -coeff
    algebra = LieAlgebra(dim, brackets)
    validate(algebra)
    return algebra


def _parse_terms(tokens, dim: int, line_no: int):
    terms = []
    seen_pairs = set()
    pos = 0
    first = True
    while pos < len(tokens):
        sign = Fraction(1)
        if tokens[pos] in ("+", "-"):
            sign = Fraction(-1 if tokens[pos] == "-" else 1)
            pos += 1
        elif not first:
            raise ParseError(line_no, f"expected '+' or '-' before {tokens[pos]!r}")
        if pos >= len(tokens):
            raise ParseError(line_no, "dangling sign")
        coeff = Fraction(1)
        if _RATIONAL_RE.match(tokens[pos]):
            coeff = Fraction(tokens[pos])
            pos += 1
            if pos >= len(tokens):
                raise ParseError(line_no, "coefficient without a wedge monomial")
        mono = _MONOMIAL_RE.match(tokens[pos])
        if not mono:
            raise ParseError(line_no, f"bad wedge monomial {tokens[pos]!r}")
        i, j = int(mono.group(1)), int(mono.group(2))
        if not (1 <= i and i < j and j <= dim):
            raise ParseError(
                line_no, f"wedge indices must satisfy 1 <= i < j <= dim, got e{i}^e{j}")
        if (i, j) in seen_pairs:
            raise ParseError(line_no, f"duplicate term e{i}^e{j}")
        seen_pairs.add((i, j))
        terms.append((sign * coeff, i, j))
        pos += 1
        first = False
    if not terms:
        raise ParseError(line_no, "empty right-hand side")
    return terms


def structure_equations(g: LieAlgebra) -> str:
    """Dump d e^k lines; parsing the output reproduces the constants."""
    equations = {}  # k -> [(coefficient of e^{ij} in d e^k, i, j)], (i, j) ascending
    for (i, j), coeffs in g.nonzero_brackets():
        for k, c in coeffs.items():
            equations.setdefault(k, []).append((-c, i, j))
    lines = [f"dim {g.dim}"]
    for k, terms in sorted(equations.items()):
        parts = []
        for t, (coeff, i, j) in enumerate(terms):
            mag = abs(coeff)
            body = f"{mag} e{i}^e{j}"
            if t == 0:
                parts.append(f"-{body}" if coeff < 0 else body)
            else:
                parts.append(f"- {body}" if coeff < 0 else f"+ {body}")
        lines.append(f"d e{k} = " + " ".join(parts))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> Matrix:
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError(1, "empty matrix file")
    line_no, header = lines[0]
    tokens = header.split()
    if len(tokens) != 2 or not all(t.isdecimal() for t in tokens):
        raise ParseError(line_no, "expected `ROWS COLS` header")
    rows, cols = int(tokens[0]), int(tokens[1])
    if rows < 1 or cols < 1:
        raise ParseError(line_no, "matrix dimensions must be positive")
    if len(lines) - 1 != rows:
        raise ParseError(line_no, f"expected {rows} rows, found {len(lines) - 1}")
    entries = []
    for line_no, line in lines[1:]:
        tokens = line.split()
        if len(tokens) != cols:
            raise ParseError(line_no, f"expected {cols} entries, found {len(tokens)}")
        entries.extend(parse_rational(t, line_no) for t in tokens)
    return Matrix(rows, cols, entries)
