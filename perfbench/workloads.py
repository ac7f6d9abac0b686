"""The four workloads: seeded inputs, the fixed job list of one pass, and
the check each job's output must pass.

A job is a list of steps; a step is a CLI argv (without the program name)
and, optionally, a file that receives the step's standard output, as in
`solvco split ... > out.txt`.  A cold job runs each step as a fresh
`python -m solvco.cli` process.  Checks run after the timed passes and
return None or a one-line reason.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from math import comb
from pathlib import Path
from typing import Callable, Optional

import algebras as A

WORKLOADS = ("cohom_nilpotent", "cohom_dense", "structure_batch", "cli_cold")

# Betti numbers of the filiform algebra L_10, frozen; every run also checks
# them against sympy ranks of the alternating-sum differential (oracle.betti).
FILIFORM10_BETTI = (1, 2, 5, 12, 20, 24, 20, 12, 5, 2, 1)
# From the catalog entry's documentation (README library example).
NAKAMURA_BETTI = (1, 2, 3, 4, 3, 2, 1)
CATALOG_FIXED = {"heisenberg3": 3, "hyperelliptic4": 4, "nakamura": 6,
                 "nakamura_tilde": 6, "rot3": 3, "sol3": 3}


@dataclass
class Job:
    kind: str
    steps: list                       # [(argv, output path or None)]
    codes: tuple = (0,)               # accepted exit codes of the last step
    check: Optional[Callable] = None  # (texts) -> None | reason
    cold: bool = False                # run through `python -m solvco.cli`


@dataclass
class Workload:
    files: dict = field(default_factory=dict)   # path -> text
    structures: list = field(default_factory=list)
    matrices: list = field(default_factory=list)
    jobs: list = field(default_factory=list)


class Builder:
    """Collects files and jobs while a workload is generated."""

    def __init__(self, workdir: Path):
        self.w = Workload()
        self.dir = workdir
        self.cold = False

    def structure(self, label, alg):
        path = str(self.dir / f"{label}.txt")
        self.w.files[path] = A.structure_file(alg)
        self.w.structures.append(path)
        return path

    def matrix(self, label, m):
        path = str(self.dir / f"{label}.mat")
        self.w.files[path] = A.matrix_file(m)
        self.w.matrices.append(path)
        return path

    def output(self, label):
        return str(self.dir / f"{label}.out")

    def job(self, kind, steps, check, codes=(0,)):
        if isinstance(steps[0], str):
            steps = [(steps, None)]
        self.w.jobs.append(Job(kind, steps, codes, check, self.cold))


# ---------------------------------------------------------------------------
# checks (oracle is imported lazily: sympy stays out of set-up)
# ---------------------------------------------------------------------------

def _oracle():
    import oracle
    return oracle


def _expect(name, got, want):
    return None if got == want else f"{name}: got {got}, expected {want}"


def check_betti(want, tsv=False, alg=None, reps=False, sympy_too=False, full=True):
    """Betti numbers equal `want` (computed from `alg` by the oracle when
    None); with reps, each degree lists b_k closed cocycles."""

    def check(texts):
        o = _oracle()
        text = texts[-1]
        expected = want if want is not None else o.betti(alg)
        bad = _expect("betti", o.parse_betti(text, tsv), tuple(expected))
        if bad:
            return bad
        if sympy_too:
            bad = _expect("sympy betti", tuple(expected), o.betti(alg))
            if bad:
                return bad
        if full:
            duality = "duality.holds\t" if tsv else "duality "
            if not any(line.startswith(duality) for line in text.splitlines()):
                return "structural report missing"
        if reps:
            found = o.parse_reps(text, tsv)
            for k, b in enumerate(expected):
                vecs = found.get(k, [])
                if len(vecs) != b:
                    return f"degree {k}: {len(vecs)} representatives for b = {b}"
                if any(not vec or not o.is_cocycle(alg, k, vec) for vec in vecs):
                    return f"degree {k}: a representative is not a nonzero cocycle"
        return None

    return check


def check_info(alg):
    def check(texts):
        o = _oracle()
        lines = dict(line.split(" ", 1) for line in texts[-1].splitlines())
        derived, lower = o.series_dims(alg)
        n = alg[0]
        unimodular = all(sum(o.ad(alg, i)[t][t] for t in range(n)) == 0 for i in range(n))
        for key, want in (("dim", str(n)),
                          ("unimodular", str(unimodular).lower()),
                          ("solvable", str(derived[-1] == 0).lower()),
                          ("nilpotent", str(lower[-1] == 0).lower()),
                          ("derived-series", " ".join(map(str, derived))),
                          ("lower-central-series", " ".join(map(str, lower)))):
            bad = _expect(key, lines.get(key), want)
            if bad:
                return bad
        status, index, poly = o.flag_expectation(alg)
        flag = lines.get("completely-solvable", "")
        if not flag.startswith(status):
            return f"flag: got {flag!r}, expected {status}"
        if status == "yes":
            return _expect("flag dims", flag, "yes (ideal flag dims "
                           + " ".join(str(k) for k in range(n + 1)) + ")")
        if status == "no":
            head = f"no (ad e{index} has non-real factor "
            if not flag.startswith(head):
                return f"flag witness: got {flag!r}, expected e{index}"
            factor = o.parse_poly(flag[len(head):-1])
            if factor.count_roots() != 0 or not poly.rem(factor).is_zero:
                return f"flag witness factor {factor} is not a non-real factor of {poly}"
        return None

    return check


def check_split(dim, betti=None):
    """The split output re-validates; with two steps, the cohomology of the
    re-parsed output matches `betti` (or the oracle on that output)."""

    def check(texts):
        o = _oracle()
        alg = o.parse_structure(texts[0])
        if alg is None or alg[0] != dim:
            return "split output is not a structure file of the input's dimension"
        if not o.jacobi_ok(alg):
            return "split output violates the Jacobi identity"
        if len(texts) == 1:
            return None
        tsv = "\t" in texts[-1]
        return check_betti(betti, tsv=tsv, alg=alg)(texts[-1:])

    return check


def check_lattice(b, z, status, cover, tsv):
    def check(texts):
        o = _oracle()
        n = len(b)
        shifted = [[b[i][j] - int(i == j) for j in range(n)] for i in range(n)]
        b1 = n + 1 - o.rank(shifted, n)
        pairs = o.kv_lines(texts[-1], tsv)
        values = {}
        for key, value in pairs:
            values.setdefault(key, []).append(value)
        mostow = (values.get("mostow.status") if tsv
                  else [v.split(" ", 1)[0] for v in values.get("mostow", [])])
        got = (values.get("b1"), mostow, values.get("cover"))
        want = ([str(b1)], [status], [cover])
        bad = _expect("b1/mostow/cover", got, want)
        if bad:
            return bad
        betti = o.parse_betti(texts[-1], tsv) if any(
            k.startswith("betti") for k, _ in pairs) else None
        if betti is not None and betti[1] != b1:
            return f"betti 1 = {betti[1]} but b1 = {b1}"
        if z is not None:
            ce_key = "ce.betti." if tsv else "ce-betti"
            ce = tuple(int(v.split()[-1]) for k, v in pairs if k.startswith(ce_key))
            return _expect("ce betti", ce, o.betti(A.semidirect(z)))
        return None

    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# The basis order of each large complex is drawn once from a fixed seed and
# the workload seed draws only the signs: the order decides the elimination's
# pivots, and with them the cost of L_10 or of a dense complex, by 20-40%
# between orders, which would make one seed's run incomparable with
# another's.  A sign change flips the signs of entries and changes no cost.
def _layout(label):
    return random.Random(f"layout:{label}")


def cohom_nilpotent(b: Builder, rng):
    l10 = A.relabel(A.filiform(10), rng, _layout("L10"))
    h9 = A.relabel(A.heisenberg(4), rng, _layout("h9"))
    h13 = A.relabel(A.heisenberg(6), rng, _layout("h13"))
    ab12 = A.relabel(A.abelian(12), rng, _layout("abelian12"))
    b.job("cohomology", ["cohomology", b.structure("L10", l10)],
          check_betti(FILIFORM10_BETTI, alg=l10, sympy_too=True))
    b.job("cohomology", ["cohomology", b.structure("h9", h9), "--reps"],
          check_betti(_heis(4, 9), alg=h9, reps=True, sympy_too=True))
    b.job("cohomology", ["cohomology", b.structure("h13", h13), "--max-degree", "2"],
          check_betti(_heis(6, 2), full=False))
    b.job("cohomology", ["cohomology", b.structure("abelian12", ab12), "--max-degree", "1"],
          check_betti((1, 12), full=False))


def _heis(m, top):
    n = 2 * m + 1

    def low(k):
        return comb(2 * m, k) - (comb(2 * m, k - 2) if k >= 2 else 0)

    return tuple(low(k) if k <= m else low(n - k) for k in range(top + 1))


# (tsv output, blocks): n = 7 or 8.  Each slot's rational basis and basis
# order are drawn once from fixed seeds and the workload seed only draws
# signs: the cost of a dense complex swings severalfold with the sizes of
# the basis entries, which would otherwise make one seed's run incomparable
# with another's.
DENSE_SLOTS = (
    (False, (A.scalar_block(1), A.rotation_block(0, 1), A.rotation_block(0, 2),
             A.quadratic_block(0, 3))),
    (True, (A.quadratic_block(1, 1), A.rotation_block(1, 1), A.scalar_block(-1),
            A.rotation_block(0, 1))),
    (False, (A.rotation_block(0, 2), A.quadratic_block(0, 3), A.quadratic_block(1, 3),
             A.scalar_block(F(-1, 2)))),
    (False, (A.rotation_block(0, 1), A.rotation_block(0, 2), A.rotation_block(1, 1),
             A.rotation_block(-1, 2))),
    (False, (A.scalar_block(2), A.quadratic_block(0, 3), A.rotation_block(0, 1),
             A.rotation_block(1, 2))),
    (True, (A.scalar_block(F(1, 2)), A.quadratic_block(1, 1), A.rotation_block(0, 2),
            A.scalar_block(-1), A.scalar_block(1))),
)


def cohom_dense(b: Builder, rng):
    for t, (tsv, blocks) in enumerate(DENSE_SLOTS):
        base, eigs = A.semisimple_semidirect(random.Random(f"dense-slot{t}"), blocks)
        alg = A.relabel(base, rng, _layout(f"dense{t}"))
        argv = ["cohomology", b.structure(f"dense{t}", alg)]
        if tsv:
            argv += ["--format", "tsv"]
        # the sympy oracle confirms the closed form once per seed
        b.job("cohomology", argv,
              check_betti(A.semidirect_betti(eigs), tsv=tsv, alg=alg, sympy_too=(t == 0)))


INFO_KINDS = ("diag", "rot", "quad", "jordan", "heis", "fili", "osc", "nak")
LATTICE_KINDS = ("hyp", "neg", "fin", "fin_pi", "uni1", "undet")


def _random_basis_alg(rng, alg):
    p, p_inv = A.random_rational_basis(rng, alg[0])
    return A.change_basis(alg, p, p_inv)


def _split_alg(rng, kind):
    """(algebra in a basis adapted to V, complement, closed-form Betti of the
    compact and full kills or None)."""
    if kind == "sd":
        blocks = [A.random_block(rng, k) for k in rng.choice(("rs", "rrs", "rq", "srr"))]
        alg, eigs = A.semisimple_semidirect(rng, blocks)
        n = len(eigs)
        real = [(e[0],) + (F(0),) + e[2:] for e in eigs]
        return alg, "1", {"compact": A.semidirect_betti(real),
                          "full": tuple(comb(n + 1, k) for k in range(n + 2))}
    if kind == "osc":
        a, c = rng.choice((0, 1)), rng.choice((1, 2))
        alg, lead = A.oscillator(((a, -c), (c, a))), 1
    else:
        alg, lead = A.nakamura_like(rng.choice((1, 2)), rng.choice((1, 2))), 2
    q, q_inv = A.random_rational_basis(rng, alg[0] - lead)
    alg = A.change_basis(alg, A.extend_identity(q, lead), A.extend_identity(q_inv, lead))
    return alg, ",".join(str(i) for i in range(1, lead + 1)), None


def _shape(label):
    return random.Random(f"shape:{label}")


def _slot_alg(label, kind, rng):
    """The slot's small algebra in the slot's fixed rational basis,
    relabelled by rng."""
    shape = _shape(label)
    return A.relabel(_random_basis_alg(shape, A.small_algebra(shape, kind)), rng)


def _slot_split(label, kind, rng):
    """_split_alg drawn for the slot, relabelled by rng with the complement
    e_1.. kept in place."""
    alg, comp, closed = _split_alg(_shape(label), kind)
    return A.relabel(alg, rng, keep=comp.count(",") + 1), comp, closed


def structure_batch(b: Builder, rng):
    # fixed mix per pass: 60 info, 40 cohomology --reps, 30 split,
    # 20 split -> file -> cohomology round trips, 50 almost-abelian.  Each
    # slot's algebra or holonomy, and the basis it is written in, are drawn
    # once from a fixed seed, and the workload seed relabels the basis:
    # dimensions and basis entries drawn per seed moved the median and the
    # 90th percentile of a pass by 10-15% between seeds.
    for t in range(60):
        alg = _slot_alg(f"info{t}", INFO_KINDS[t % len(INFO_KINDS)], rng)
        b.job("info", ["info", b.structure(f"info{t}", alg)], check_info(alg), codes=(0, 2))
    for t in range(40):
        alg = _slot_alg(f"coh{t}", INFO_KINDS[t % len(INFO_KINDS)], rng)
        tsv = t % 2 == 1
        argv = ["cohomology", b.structure(f"coh{t}", alg), "--reps"]
        if tsv:
            argv += ["--format", "tsv"]
        b.job("cohomology", argv, check_betti(None, tsv=tsv, alg=alg, reps=True))
    for t in range(50):
        kind = ("sd", "osc", "nak")[t % 3]
        kill = ("compact", "full")[(t // 3) % 2]
        alg, comp, closed = _slot_split(f"split{t}", kind, rng)
        path = b.structure(f"split{t}", alg)
        split = ["split", path, "--complement", comp, "--kill", kill]
        if t < 30:
            b.job("split", split, check_split(alg[0]))
        else:
            out = b.output(f"split{t}")
            tail = ["--format", "tsv"] if t % 2 else []
            betti = closed[kill] if closed else None
            b.job("roundtrip", [(split, out), (["cohomology", out] + tail, None)],
                  check_split(alg[0], betti))
    for t in range(50):
        lattice_job(b, rng, LATTICE_KINDS[t % len(LATTICE_KINDS)], f"lat{t}", tsv=t % 2 == 1,
                    shape=_shape(f"lat{t}"))


def lattice_job(b: Builder, rng, kind, label, tsv, shape):
    """The holonomy and its integer basis are drawn from `shape`; rng only
    permutes the basis and flips signs."""
    hol, z, scale, status, cover = A.holonomy_case(shape, kind)
    u, u_inv = A.random_integer_basis(shape, len(hol))
    q, q_inv = A.signed_permutation(rng, len(hol))
    u, u_inv = A.matmul(u, q), A.matmul(q_inv, u_inv)
    hol = A.conjugate(hol, u, u_inv)
    argv = ["almost-abelian", "--holonomy", b.matrix(f"{label}B", hol)]
    if z is not None:
        z = A.conjugate(z, u, u_inv)
        argv += ["--derivation", b.matrix(f"{label}Z", z), "--scale", scale]
    if tsv:
        argv += ["--format", "tsv"]
    codes = (2,) if status == "undetermined" else (0,)
    b.job("almost-abelian", argv, check_lattice(hol, z, status, cover, tsv), codes=codes)


def check_catalog(texts):
    want = [(f"abelian{n}", n) for n in range(1, 13)] + sorted(CATALOG_FIXED.items())
    got = []
    for line in texts[-1].splitlines():
        name, dim = line.split()[:2]
        got.append((name, int(dim[4:])))
    return _expect("catalog", got, want)


def cli_cold(b: Builder, rng):
    # shapes and bases fixed per slot, relabelled by the seed, as in
    # structure_batch
    b.cold = True
    b.job("catalog", ["catalog"], check_catalog)
    for name in ("nakamura", "sol3"):
        b.job("catalog", ["catalog", name], check_split(CATALOG_FIXED[name]))
    for t, kind in enumerate(("rot", "fili")):
        alg = _slot_alg(f"cold-valid{t}", kind, rng)
        b.job("validate", ["validate", b.structure(f"valid{t}", alg)],
              lambda texts: _expect("validate", texts[-1], "ok"))
    for t, kind in enumerate(("diag", "quad", "nak")):
        alg = _slot_alg(f"cold-info{t}", kind, rng)
        b.job("info", ["info", b.structure(f"info{t}", alg)], check_info(alg), codes=(0, 2))
    b.job("cohomology", ["cohomology", "nakamura", "--format", "tsv"],
          check_betti(NAKAMURA_BETTI, tsv=True))
    for t, pattern in enumerate(("rs", "qss")):
        shape = _shape(f"cold-coh{t}")
        alg, eigs = A.semisimple_semidirect(shape, [A.random_block(shape, k) for k in pattern])
        alg = A.relabel(alg, rng)
        b.job("cohomology", ["cohomology", b.structure(f"coh{t}", alg), "--format", "tsv"],
              check_betti(A.semidirect_betti(eigs), tsv=True))
    for t, kind in enumerate(("sd", "nak")):
        alg, comp, closed = _slot_split(f"cold-split{t}", kind, rng)
        out = b.output(f"split{t}")
        split = ["split", b.structure(f"split{t}", alg), "--complement", comp, "--kill", "compact"]
        b.job("roundtrip", [(split, out), (["cohomology", out, "--format", "tsv"], None)],
              check_split(alg[0], closed["compact"] if closed else None))
    for t, kind in enumerate(("hyp", "fin_pi", "undet")):
        lattice_job(b, rng, kind, f"lat{t}", tsv=t == 1, shape=_shape(f"cold-lat{t}"))


BUILDERS = {"cohom_nilpotent": cohom_nilpotent, "cohom_dense": cohom_dense,
            "structure_batch": structure_batch, "cli_cold": cli_cold}


def build(name, seed, workdir: Path) -> Workload:
    """The workload's files and job list; the same seed gives the same inputs."""
    b = Builder(workdir)
    BUILDERS[name](b, random.Random(f"{name}:{seed}"))
    return b.w
