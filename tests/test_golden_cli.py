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

FILES = {
    "rational5.txt": RATIONAL5,
    # hyperbolic: eigenvalues (3 +- sqrt 5) / 2
    "hyperbolic.txt": "2 2\n2 1\n1 1\n",
    # finite order 3 on a rank-2 block, identity on the third axis
    "order3.txt": "3 3\n0 -1 0\n1 -1 0\n0 0 1\n",
    # identity holonomy whose one-parameter group is a rotation by 2 pi t
    "identity2.txt": "2 2\n1 0\n0 1\n",
    "rotation2.txt": "2 2\n0 2\n-2 0\n",
    # companion of x^4 - x + 1: Mostow undetermined, exit code 2
    "undetermined4.txt": "4 4\n0 0 0 -1\n1 0 0 1\n0 1 0 0\n0 0 1 0\n",
}

HOLONOMIES = (
    ["--holonomy", "hyperbolic.txt"],
    ["--holonomy", "order3.txt"],
    ["--holonomy", "identity2.txt", "--derivation", "rotation2.txt", "--scale", "pi"],
    ["--holonomy", "undetermined4.txt"],
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
            ["cohomology", name, "--reps"],
            ["cohomology", name, "--reps", "--format", "tsv"],
            ["cohomology", name, "--max-degree", "1"],
            ["cohomology", name, "--max-degree", "1", "--reps", "--format", "tsv"],
            ["info", name],
        ]
        for kill in ("full", "compact"):
            out.append(["split", name, "--kill", kill]
                       + (["--complement", comp] if comp else []))
    for holonomy in HOLONOMIES:
        out += [["almost-abelian"] + holonomy,
                ["almost-abelian"] + holonomy + ["--format", "tsv"]]
    return out


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
