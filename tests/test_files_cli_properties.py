"""No input file makes a command end in `error: internal`.

Hypothesis writes a random structure file (a `dim` line that may be
missing, 0 or negative; `d eK = ...` lines whose coefficients include 0,
signs, fractions and `3/0` and whose indices may be out of range; lines
of random tokens) and two random matrix files (1-3 rows of small
rationals, declared square or not, sometimes short of a row), and runs
every subcommand that reads them through `run_command`.  Each run must
end in a documented exit code, 0 to 3, and never in the catch-all
`error: internal`, which marks a defect in the program rather than in
the input.  The module is skipped where hypothesis is not installed.
"""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from solvco.cli import run_command  # noqa: E402

# mostly well-formed; a share of the terms is malformed or undefined
COEFFICIENTS = ("", "1", "-1", "2", "-3", "1/2", "-3/2", "0") * 4 + ("3/0", "- ")
TOKENS = "de^=+-/ 0123456789x#"


@st.composite
def structure_files(draw):
    dim = draw(st.sampled_from((1, 2, 3, 4, 5, 3, 4, 5, 4, 5, None, 0, -2)))
    top = dim if dim and dim > 0 else 3
    # in range, i < j, but for a share of them
    index = st.sampled_from(tuple(range(1, top + 1)) * 10 + (0, top + 1))
    pairs = list(itertools.combinations(range(1, top + 1), 2))
    pair = st.sampled_from(pairs * (40 // max(len(pairs), 1) + 1)
                           + [(2, 1), (1, 1), (0, 1), (1, top + 1)])
    terms = st.lists(st.tuples(st.sampled_from(COEFFICIENTS), pair),
                     min_size=1, max_size=3, unique_by=lambda t: t[1])
    equation = st.tuples(index, terms).map(
        lambda t: f"d e{t[0]} = " + " + ".join(f"{c} e{i}^e{j}" for c, (i, j) in t[1]))
    # a repeated generator or pair is a parse error that would hide the
    # rest of the file: draw each once, so that a share of the files parses
    equations = st.lists(equation, max_size=5, unique_by=lambda e: e.split()[1])
    lines = ([] if dim is None else [f"dim {dim}"]) + draw(equations)
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(TOKENS, max_size=16)))
    return "\n".join(lines) + "\n"


@st.composite
def matrix_files(draw):
    n = draw(st.integers(1, 3))
    # square, so that a share is invertible over the integers, but for a
    # share of them; and sometimes short of a row
    rows, cols = draw(st.sampled_from(((n, n),) * 14 + ((n, n % 3 + 1), (n % 3 + 1, n))))
    given_rows = draw(st.sampled_from((rows,) * 11 + (rows - 1,)))
    entry = st.sampled_from(("0", "0", "0", "1", "-1", "1", "-1", "2", "-3") * 3
                            + ("1/2", "-2/3"))
    body = [" ".join(draw(st.lists(entry, min_size=cols, max_size=cols)))
            for _ in range(given_rows)]
    return "\n".join([f"{rows} {cols}"] + body) + "\n"


@settings(max_examples=300, deadline=None)
@given(structure_files(), matrix_files(), matrix_files(), st.sampled_from(("full", "compact")))
def test_no_input_ends_in_an_internal_error(tmp_path_factory, structure, holonomy,
                                            derivation, kill):
    folder = tmp_path_factory.mktemp("fuzz")
    s, h, d = (str(folder / name) for name in ("s.txt", "h.txt", "d.txt"))
    for path, text in ((s, structure), (h, holonomy), (d, derivation)):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    for argv in (["validate", s], ["info", s], ["cohomology", s],
                 ["cohomology", s, "--format", "tsv"], ["cohomology", s, "--reps"],
                 ["cohomology", s, "--max-degree", "1"],
                 ["split", s, "--kill", kill, "--complement", "1"],
                 ["almost-abelian", "--holonomy", h],
                 ["almost-abelian", "--holonomy", h, "--derivation", d, "--scale", "pi"]):
        code, text = run_command(argv)
        assert code in (0, 1, 2, 3), (argv, code, text)
        assert not text.startswith("error: internal"), (argv, structure, holonomy, derivation)
