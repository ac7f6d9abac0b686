"""Text formats: structure-constant files and matrix files.

Structure file grammar (line oriented, '#' starts a comment, blank lines
ignored):

    dim N
    d e<k> = [<rat>] e<i>^e<j> { (+|-) [<rat>] e<i>^e<j> }

Omitted coefficients default to 1; generators without a d-line have d = 0.
The stored constants follow c[k][i][j] = -(coefficient of e^i^e^j in d e^k).

Matrix files: first line `ROWS COLS`, then ROWS lines of COLS rationals,
each `p`, `-p` or `p/q` with positive q.

Every number is read as an int, each coefficient as an int pair (p, q)
with its sign, and both formats are built over their common denominator
(`LieAlgebra.from_integer_brackets`, `Matrix.from_numerators`), so no
`Fraction` is made.  A number longer than Python's limit for int
conversion is a ParseError at its line; the limit is kept.
"""

from __future__ import annotations

import re
import sys
from math import lcm

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


def _int(token: str, line_no: int) -> int:
    """The int of a token of decimal digits with an optional sign; a token
    longer than Python's limit for int conversion is a ParseError, and the
    limit is kept, so the work stays bounded."""
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"number of {len(token.lstrip('+-'))} digits exceeds "
                                  f"the limit of {sys.get_int_max_str_digits()}") from None


def _ratio(token: str, line_no: int):
    """(p, q), ints with q > 0, of a token `p`, `-p`, `+p` or `p/q` that
    matches the rational pattern."""
    num, _, den = token.partition("/")
    return _int(num, line_no), (_int(den, line_no) if den else 1)


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
            if len(tokens) != 2 or not tokens[1].isdecimal() or _int(tokens[1], line_no) < 1:
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
        k = _int(gen.group(1), line_no)
        if not 1 <= k <= dim:
            raise ParseError(line_no, f"generator index {k} out of range 1..{dim}")
        if k in equations:
            raise ParseError(line_no, f"duplicate equation for e{k}")
        terms = _parse_terms(tokens[3:], dim, line_no)
        equations[k] = terms
    if dim is None:
        raise ParseError(1, "missing dim line")
    # every coefficient p / q over the common denominator D
    D = lcm(*[q for terms in equations.values() for _, q, _, _ in terms])
    brackets = {}
    for k, terms in equations.items():
        for p, q, i, j in terms:
            # c[k][i][j] = -(coefficient of e^{ij} in d e^k)
            brackets.setdefault((i, j), {})[k] = -p * (D // q)
    algebra = LieAlgebra.from_integer_brackets(dim, brackets, D)
    validate(algebra)
    return algebra


def _parse_terms(tokens, dim: int, line_no: int):
    terms = []
    seen_pairs = set()
    pos = 0
    first = True
    while pos < len(tokens):
        sign = 1
        if tokens[pos] in ("+", "-"):
            sign = -1 if tokens[pos] == "-" else 1
            pos += 1
        elif not first:
            raise ParseError(line_no, f"expected '+' or '-' before {tokens[pos]!r}")
        if pos >= len(tokens):
            raise ParseError(line_no, "dangling sign")
        p, q = 1, 1
        if _RATIONAL_RE.match(tokens[pos]):
            p, q = _ratio(tokens[pos], line_no)
            pos += 1
            if pos >= len(tokens):
                raise ParseError(line_no, "coefficient without a wedge monomial")
        mono = _MONOMIAL_RE.match(tokens[pos])
        if not mono:
            raise ParseError(line_no, f"bad wedge monomial {tokens[pos]!r}")
        i, j = _int(mono.group(1), line_no), _int(mono.group(2), line_no)
        if not (1 <= i and i < j and j <= dim):
            raise ParseError(
                line_no, f"wedge indices must satisfy 1 <= i < j <= dim, got e{i}^e{j}")
        if (i, j) in seen_pairs:
            raise ParseError(line_no, f"duplicate term e{i}^e{j}")
        seen_pairs.add((i, j))
        terms.append((sign * p, q, i, j))
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
    rows, cols = _int(tokens[0], line_no), _int(tokens[1], line_no)
    if rows < 1 or cols < 1:
        raise ParseError(line_no, "matrix dimensions must be positive")
    if len(lines) - 1 != rows:
        raise ParseError(line_no, f"expected {rows} rows, found {len(lines) - 1}")
    entries = []  # (p, q) int pairs
    for line_no, line in lines[1:]:
        tokens = line.split()
        if len(tokens) != cols:
            raise ParseError(line_no, f"expected {cols} entries, found {len(tokens)}")
        for t in tokens:
            if not _RATIONAL_RE.match(t):
                raise ParseError(line_no, f"bad rational {t!r}")
            entries.append(_ratio(t, line_no))
    D = lcm(*[q for _, q in entries])
    return Matrix.from_numerators(rows, cols, [p * (D // q) for p, q in entries], D)
