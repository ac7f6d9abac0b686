"""Golden CLI outputs: exit code and sha256 of stdout for a fixed command set.

`golden_cli.json` maps each command line (arguments joined by spaces) to
`[exit code, sha256 of the text main() prints]`.  Commands run through
`run_command` in a directory holding the input files written below, so
file arguments are plain relative names and the keys do not depend on
where the tests run.  A change that alters any byte of these outputs fails
here; regenerate the file only for an intended change of output:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import hashlib
import json
import os
from pathlib import Path

from solvco.catalog import catalog_get, catalog_names
from solvco.cli import run_command

GOLDEN = Path(__file__).with_name("golden_cli.json")

# R x| R^4 with ad(e1) = rotation (+-2i) + weights (1, -1) in a rational
# basis: a dense complex with large coprime denominators.
RATIONAL5 = """dim 5
d e2 = 419117/107299 e1^e2 + 5260926/751093 e1^e3 + 301422/107299 e1^e4 + 1651276/536495 e1^e5
d e3 = 371371/321897 e1^e2 + 252496/107299 e1^e3 + 55783/107299 e1^e4 + 1900262/1609485 e1^e5
d e4 = -33778/107299 e1^e2 + 479412/751093 e1^e3 - 79690/107299 e1^e4 - 139484/1609485 e1^e5
d e5 = -658740/107299 e1^e2 - 11485260/751093 e1^e3 - 658890/107299 e1^e4 - 591923/107299 e1^e5
"""

# R x| R^6 with ad(e1) semisimple of weights +-1, +-2, +-1/2 in a rational
# basis: the dense complex of the coefficient-growth benchmark, here with
# 10-digit denominators.
RATIONAL7 = """dim 7
d e2 = 6075472493/9908832926 e1^e2 + 5453431401/9908832926 e1^e3 - 22612931705/9908832926 e1^e4 - 391064933/4954416463 e1^e5 - 5766217341/4954416463 e1^e6 - 2286523605/9908832926 e1^e7
d e3 = -4033987825/9908832926 e1^e2 - 1673461181/9908832926 e1^e3 + 8859033885/9908832926 e1^e4 - 7135578613/4954416463 e1^e5 + 1167068175/4954416463 e1^e6 + 6598904025/9908832926 e1^e7
d e4 = -8138332545/9908832926 e1^e2 - 3015284613/9908832926 e1^e3 + 2689089497/9908832926 e1^e4 - 680682837/4954416463 e1^e5 + 2575569825/4954416463 e1^e6 + 2548505205/9908832926 e1^e7
d e5 = -4929054900/4954416463 e1^e2 - 6224476071/4954416463 e1^e3 + 5070959465/4954416463 e1^e4 - 1515783385/4954416463 e1^e5 + 3447803070/4954416463 e1^e6 + 3728868690/4954416463 e1^e7
d e6 = -4195722335/9908832926 e1^e2 + 1931008002/4954416463 e1^e3 + 1401772255/9908832926 e1^e4 - 2151871592/4954416463 e1^e5 - 3671424953/9908832926 e1^e6 - 5206320/4954416463 e1^e7
d e7 = -18500685/4954416463 e1^e2 + 4114352319/4954416463 e1^e3 + 1634433034/4954416463 e1^e4 + 5097523592/4954416463 e1^e5 - 579776295/4954416463 e1^e6 - 194054543/4954416463 e1^e7
"""

# R x| R^7 with a rational semisimple derivation in a rational basis: 110
# bracket terms; `cohomology` without --reps reads the Betti numbers off the
# weight-zero subcomplex, and --reps ranks the full complex in the given
# basis.
RATIONAL8 = """dim 8
d e1 = 27/2 e1^e3 - 11 e1^e4 + 12 e1^e5 + 3 e1^e6 - 66 e1^e7 + 100 e1^e8 - 33/2 e3^e4 - 36 e3^e5 - 9 e3^e6 - 99 e3^e7 + 150 e3^e8 + 44 e4^e5 + 11 e4^e6 - 264 e5^e7 + 400 e5^e8 - 66 e6^e7 + 100 e6^e8
d e2 = 1 e1^e2 + 1 e1^e6 - 3/2 e2^e3 - 4 e2^e5 - 1 e2^e6 + 3/2 e3^e6 + 4 e5^e6
d e3 = -2/3 e1^e4 - 8 e1^e7 + 32/3 e1^e8 - 1 e3^e4 - 12 e3^e7 + 16 e3^e8 + 8/3 e4^e5 + 2/3 e4^e6 - 32 e5^e7 + 128/3 e5^e8 - 8 e6^e7 + 32/3 e6^e8
d e4 = -33/2 e1^e3 + 13 e1^e4 + 84 e1^e7 - 136 e1^e8 + 39/2 e3^e4 + 66 e3^e5 + 33/2 e3^e6 + 126 e3^e7 - 204 e3^e8 - 52 e4^e5 - 13 e4^e6 + 336 e5^e7 - 544 e5^e8 + 84 e6^e7 - 136 e6^e8
d e5 = -1/2 e1^e2 - 27/8 e1^e3 + 3 e1^e4 - 3 e1^e5 - 1/2 e1^e6 + 39/2 e1^e7 - 29 e1^e8 + 3/4 e2^e3 + 2 e2^e5 + 1/2 e2^e6 + 9/2 e3^e4 + 9 e3^e5 + 21/8 e3^e6 + 117/4 e3^e7 - 87/2 e3^e8 - 12 e4^e5 - 3 e4^e6 + 1 e5^e6 + 78 e5^e7 - 116 e5^e8 + 39/2 e6^e7 - 29 e6^e8
d e6 = 2 e1^e2 - 1 e1^e6 - 3 e2^e3 - 8 e2^e5 - 2 e2^e6 - 3/2 e3^e6 - 4 e5^e6
d e7 = -19/4 e1^e3 + 19/6 e1^e4 + 22 e1^e7 - 106/3 e1^e8 + 19/4 e3^e4 + 19 e3^e5 + 19/4 e3^e6 + 33 e3^e7 - 53 e3^e8 - 38/3 e4^e5 - 19/6 e4^e6 + 88 e5^e7 - 424/3 e5^e8 + 22 e6^e7 - 106/3 e6^e8
d e8 = -9/2 e1^e3 + 13/4 e1^e4 + 45/2 e1^e7 - 36 e1^e8 + 39/8 e3^e4 + 18 e3^e5 + 9/2 e3^e6 + 135/4 e3^e7 - 54 e3^e8 - 13 e4^e5 - 13/4 e4^e6 + 90 e5^e7 - 144 e5^e8 + 45/2 e6^e7 - 36 e6^e8
"""

# R x| R^4 in a rational basis whose ad(e1) has the non-real eigenvalues
# (1 +- 2i) / 3 and a Jordan block at 1/2: flag answer `no`, with the
# witness quadratic x^2 - 2/3 x + 5/9.
RATIONAL_NO = """dim 5
d e2 = -415/673 e1^e2 + 505/673 e1^e3 - 505/2019 e1^e4 + 273/1346 e1^e5
d e3 = -429/673 e1^e2 - 83/1346 e1^e3 - 295/2019 e1^e4 + 665/4038 e1^e5
d e4 = 198/3365 e1^e2 + 515/1346 e1^e3 - 1267/2019 e1^e4 - 39389/40380 e1^e5
d e5 = -866/4711 e1^e2 + 470/4711 e1^e3 - 470/14133 e1^e4 - 1457/4038 e1^e5
"""

# The same shape with the irrational real eigenvalues +-sqrt(2) / 3 and a
# Jordan block at 1/5: flag answer `undetermined`, exit code 2.
# ad(e1) has the minimal polynomial x^4 + x^3 + x = x (x^3 + x^2 + 1): its
# cubic factor x^3 + x^2 + 1 has one real and two non-real roots and no
# rational quadratic factor, so the flag witness is the whole non-real
# block and the compact kill is not rationally splittable.
CUBIC_WITNESS = """dim 4
d e2 = 1 e1^e4
d e3 = -1 e1^e2
d e4 = -1 e1^e3 + 1 e1^e4
"""

# ad(e1) has the squarefree minimal polynomial
# x (x^2 - 1)(x^2 - 4)(x^2 - 9)(x^2 + 1): every one of +-1, +-2, +-3 is a
# root, so the quadratic search needs an evaluation point beyond them.
STRIP6 = """dim 9
d e2 = -1 e1^e2
d e3 = 1 e1^e3
d e4 = -2 e1^e4
d e5 = 2 e1^e5
d e6 = -3 e1^e6
d e7 = 3 e1^e7
d e8 = -1 e1^e9
d e9 = 1 e1^e8
"""

# Weights 1/3, -3/2, a Jordan block at 5/6 and 0: the flag search finds
# rational eigenvalues of minimal polynomials with fractional coefficients
# and answers `yes`.
RATIONAL_YES = """dim 6
d e2 = -1/3 e1^e2
d e3 = 3/2 e1^e3
d e4 = -5/6 e1^e4 - 1 e1^e5
d e5 = -5/6 e1^e5
"""

# R x| R^7 with ad(e1) the companion of the irreducible cubic
# x^3 - 3x - 1 (three real roots), the weights 1 and -1 and a rotation by
# +-i: the weight path keeps the cubic as its one unfactored block, cut by
# int kernels of L_s.
CUBIC8 = """dim 8
d e2 = -1 e1^e4
d e3 = -1 e1^e2 - 3 e1^e4
d e4 = -1 e1^e3
d e5 = -1 e1^e5
d e6 = 1 e1^e6
d e7 = -1 e1^e8
d e8 = 1 e1^e7
"""

# R x| R^7 with ad(e1) a Jordan block at 1, the weights -1, 2, -2 and a
# rotation by +-i: ad x is not semisimple, so the weight path splits its
# semisimple part.
JORDAN8 = """dim 8
d e2 = -1 e1^e2 - 1 e1^e3
d e3 = -1 e1^e3
d e4 = 1 e1^e4
d e5 = -2 e1^e5
d e6 = 2 e1^e6
d e7 = -1 e1^e8
d e8 = 1 e1^e7
"""

RATIONAL_UNDETERMINED = """dim 5
d e2 = -682/3365 e1^e2 - 727/1346 e1^e3 + 727/4038 e1^e4 - 3563/40380 e1^e5
d e3 = -1038/3365 e1^e2 + 582/3365 e1^e3 - 251/2019 e1^e4 - 441/6730 e1^e5
d e4 = 164/3365 e1^e2 + 441/3365 e1^e3 - 164/673 e1^e4 - 4081/4038 e1^e5
d e5 = -2116/23555 e1^e2 + 382/4711 e1^e3 - 382/14133 e1^e4 - 426/3365 e1^e5
"""

# Inputs of the error paths: each command ends in a typed error and its
# documented exit code.
HEISENBERG13 = "dim 13\nd e13 = " + " + ".join(f"1 e{i}^e{i + 6}" for i in range(1, 7)) + "\n"
ERROR_FILES = {
    "bad_token.txt": "dim 3\nd e3 = 1 e1^e2 + x e1^e3\n",
    "bad_header.txt": "dimension 3\nd e3 = 1 e1^e2\n",
    # a number past Python's limit for int conversion
    "long_token.txt": "dim 3\nd e3 = " + "1" * 5000 + " e1^e2\n",
    # [e1, e2] = e3, [e1, e3] = e3: n = span(e3) is a nilpotent ideal holding
    # [g, g], but the semisimple part of ad e1 moves e2
    "semisimple_action.txt": "dim 3\nd e3 = -1 e1^e2 - 1 e1^e3\n",
    # [e1, e2] = e3, [e1, e3] = e1, [e2, e3] = e1: Jacobi fails at (1, 2, 3)
    "non_jacobi.txt": "dim 3\nd e1 = -1 e1^e3 - 1 e2^e3\nd e3 = -1 e1^e2\n",
    "heisenberg13.txt": HEISENBERG13,
    "identity12.txt": "12 12\n" + "".join(
        " ".join("1" if i == j else "0" for j in range(12)) + "\n" for i in range(12)),
}
ERROR_COMMANDS = (
    ["validate", "bad_token.txt"],
    ["cohomology", "bad_token.txt"],
    ["info", "bad_header.txt"],
    ["validate", "non_jacobi.txt"],
    ["info", "non_jacobi.txt"],
    ["cohomology", "non_jacobi.txt"],
    ["cohomology", "no_such_name"],
    ["cohomology", "heisenberg3", "--max-degree", "-1"],
    ["cohomology", "heisenberg13.txt"],
    ["cohomology", "heisenberg13.txt", "--reps"],
    ["almost-abelian", "--holonomy", "identity12.txt"],
    ["validate", "long_token.txt"],
    # a complement failing each clause of `verify_nilpotent_complement` that
    # `split` can reach: it takes n as the span of the other basis vectors,
    # so the direct sum always holds
    ["split", "sol3", "--kill", "full", "--complement", "2"],
    ["split", "sol3", "--kill", "full"],
    ["split", "sol3", "--kill", "full", "--complement", "1,3"],
    ["split", "semisimple_action.txt", "--kill", "compact", "--complement", "1,2"],
)

FILES = {
    **ERROR_FILES,
    "rational5.txt": RATIONAL5,
    "rational7.txt": RATIONAL7,
    "rational8.txt": RATIONAL8,
    "cubic8.txt": CUBIC8,
    "jordan8.txt": JORDAN8,
    "rational_no.txt": RATIONAL_NO,
    "rational_undetermined.txt": RATIONAL_UNDETERMINED,
    "cubic_witness.txt": CUBIC_WITNESS,
    "strip6.txt": STRIP6,
    "rational_yes.txt": RATIONAL_YES,
    # hyperbolic: eigenvalues (3 +- sqrt 5) / 2
    "hyperbolic.txt": "2 2\n2 1\n1 1\n",
    # finite order 3 on a rank-2 block, identity on the third axis
    "order3.txt": "3 3\n0 -1 0\n1 -1 0\n0 0 1\n",
    # identity holonomy whose one-parameter group is a rotation by 2 pi t
    "identity2.txt": "2 2\n1 0\n0 1\n",
    "rotation2.txt": "2 2\n0 2\n-2 0\n",
    "identity3.txt": "3 3\n1 0 0\n0 1 0\n0 0 1\n",
    # eigenvalues +-i sqrt 2: the imaginary part is irrational
    "rotation_sqrt2.txt": "2 2\n0 2\n-1 0\n",
    # companion of x^3 - x + 1: one real root and a non-real pair
    "cubic3.txt": "3 3\n0 0 -1\n1 0 1\n0 1 0\n",
    # a rotation (+-2i/3) and the weight 1/2 in a rational basis
    "rational_rotation3.txt": ("3 3\n1/8 25/36 -25/144\n-95/128 -29/192 125/768\n"
                               "-51/160 -5/48 101/192\n"),
    # companion of x^4 - x + 1: Mostow undetermined, exit code 2
    "undetermined4.txt": "4 4\n0 0 0 -1\n1 0 0 1\n0 1 0 0\n0 0 1 0\n",
    # Jordan block at -1: Mostow fails and the double cover is a nilmanifold
    "jordan_minus1.txt": "2 2\n-1 1\n0 -1\n",
    # eigenvalues (-3 +- sqrt 5) / 2, both negative: Mostow fails, cover other
    "negative2.txt": "2 2\n-2 1\n1 -1\n",
    # Heisenberg lattice: unipotent holonomy with its logarithm
    "jordan1.txt": "2 2\n1 1\n0 1\n",
    "nilpotent2.txt": "2 2\n0 1\n0 0\n",
    "identity8.txt": ("8 8\n1 0 0 0 0 0 0 0\n0 1 0 0 0 0 0 0\n0 0 1 0 0 0 0 0\n"
                      "0 0 0 1 0 0 0 0\n0 0 0 0 1 0 0 0\n0 0 0 0 0 1 0 0\n"
                      "0 0 0 0 0 0 1 0\n0 0 0 0 0 0 0 1\n"),
    # diag(1, -1, 2, -2, 3, -3) + a rotation by +-i: Mostow fails on x^2 + 1
    "strip6_derivation.txt": ("8 8\n1 0 0 0 0 0 0 0\n0 -1 0 0 0 0 0 0\n0 0 2 0 0 0 0 0\n"
                              "0 0 0 -2 0 0 0 0\n0 0 0 0 3 0 0 0\n0 0 0 0 0 -3 0 0\n"
                              "0 0 0 0 0 0 0 1\n0 0 0 0 0 0 -1 0\n"),
}

HOLONOMIES = (
    ["--holonomy", "hyperbolic.txt"],
    ["--holonomy", "order3.txt"],
    ["--holonomy", "identity2.txt", "--derivation", "rotation2.txt", "--scale", "pi"],
    ["--holonomy", "undetermined4.txt"],
    ["--holonomy", "identity3.txt", "--derivation", "rational_rotation3.txt", "--scale", "pi"],
    ["--holonomy", "identity3.txt", "--derivation", "rational_rotation3.txt"],
    ["--holonomy", "jordan_minus1.txt"],
    ["--holonomy", "jordan1.txt", "--derivation", "nilpotent2.txt"],
    ["--holonomy", "negative2.txt"],
    ["--holonomy", "identity2.txt", "--derivation", "rotation_sqrt2.txt", "--scale", "pi"],
    ["--holonomy", "identity3.txt", "--derivation", "cubic3.txt", "--scale", "pi"],
    ["--holonomy", "identity8.txt", "--derivation", "strip6_derivation.txt", "--scale", "pi"],
)


def _complement(name):
    """The entry's declared complement V as a --complement argument."""
    entry = catalog_get(name)
    dim = entry.algebra.dim
    return ",".join(str(i + 1) for i in range(dim)
                    if entry.complement.contains([int(j == i) for j in range(dim)]))


def commands():
    out = []
    algebras = [(name, _complement(name)) for name in catalog_names()]
    for name, comp in algebras + [("rational5.txt", "1")]:
        out += [
            ["cohomology", name],
            ["cohomology", name, "--format", "tsv"],
            ["cohomology", name, "--reps"],
            ["cohomology", name, "--reps", "--format", "tsv"],
            ["cohomology", name, "--max-degree", "1"],
            ["cohomology", name, "--max-degree", "1", "--reps", "--format", "tsv"],
            ["info", name],
        ]
        for kill in ("full", "compact"):
            out.append(["split", name, "--kill", kill]
                       + (["--complement", comp] if comp else []))
    out += [["cohomology", "rational7.txt"],
            ["cohomology", "rational7.txt", "--format", "tsv"],
            ["cohomology", "rational7.txt", "--reps"],
            ["cohomology", "rational7.txt", "--reps", "--format", "tsv"],
            ["cohomology", "rational8.txt"],
            ["cohomology", "rational8.txt", "--format", "tsv"],
            ["cohomology", "rational8.txt", "--reps"],
            # a degree cut that cuts nothing
            ["cohomology", "rational8.txt", "--max-degree", "8"],
            ["cohomology", "cubic8.txt"],
            ["cohomology", "jordan8.txt"]]
    for name in ("rational_no.txt", "rational_undetermined.txt", "cubic_witness.txt",
                 "strip6.txt", "rational_yes.txt"):
        out += [["info", name], ["split", name, "--kill", "compact", "--complement", "1"]]
    out += [["split", name, "--kill", "full", "--complement", "1"]
            for name in ("strip6.txt", "rational_yes.txt")]
    for holonomy in HOLONOMIES:
        out += [["almost-abelian"] + holonomy,
                ["almost-abelian"] + holonomy + ["--format", "tsv"]]
    return out + [list(argv) for argv in ERROR_COMMANDS]


def digest(argv):
    code, text = run_command(argv)
    printed = text + "\n" if text else ""
    return [code, hashlib.sha256(printed.encode()).hexdigest()]


def digests(workdir):
    for fname, text in FILES.items():
        (Path(workdir) / fname).write_text(text)
    return {" ".join(argv): digest(argv) for argv in commands()}


def test_cli_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text())
    assert digests(tmp_path) == golden


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            table = digests(tmp)
        finally:
            os.chdir(cwd)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN}")
