"""Independent answers for the benchmark's output checks.

Nothing here imports solvco.  Differentials come from the alternating-sum
evaluation formula (not the antiderivation expansion solvco uses), ranks,
characteristic polynomials and root counts come from sympy, and outputs are
parsed from the text the CLI prints.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as F
from math import comb

import sympy
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from algebras import bracket

X = sympy.Symbol("x")


# ---------------------------------------------------------------------------
# linear algebra through sympy
# ---------------------------------------------------------------------------

def rank(rows, ncols):
    if not rows or not ncols:
        return 0
    data = [[QQ(x.numerator, x.denominator) for x in row] for row in rows]
    return DomainMatrix(data, (len(rows), ncols), QQ).rank()


def basis(n, i):
    return [F(int(t == i)) for t in range(n)]


def ad(alg, i):
    """Matrix of y -> [e_i, y] (0-based i) as rows."""
    n = alg[0]
    cols = [bracket(alg, basis(n, i), basis(n, t)) for t in range(n)]
    return [[cols[c][r] for c in range(n)] for r in range(n)]


def span_basis(vectors):
    """A basis (list of vectors) of the span, via sympy's rref."""
    vectors = [v for v in vectors if any(v)]
    if not vectors:
        return []
    m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in v] for v in vectors])
    reduced, pivots = m.rref()
    return [[F(int(x.p), int(x.q)) for x in reduced.row(r)] for r in range(len(pivots))]


def series_dims(alg):
    """(derived series dims, lower central series dims) until stabilisation."""
    n = alg[0]
    full = [basis(n, i) for i in range(n)]

    def run(step):
        cur = full
        dims = [n]
        while True:
            nxt = span_basis([bracket(alg, u, v) for u in cur for v in step(cur)])
            if len(nxt) == len(cur):
                return dims
            dims.append(len(nxt))
            cur = nxt

    return run(lambda cur: cur), run(lambda cur: full)


def jacobi_ok(alg):
    n = alg[0]
    for i, j, k in itertools.combinations(range(n), 3):
        a, b, c = basis(n, i), basis(n, j), basis(n, k)
        s = [x + y + z for x, y, z in zip(bracket(alg, bracket(alg, a, b), c),
                                          bracket(alg, bracket(alg, b, c), a),
                                          bracket(alg, bracket(alg, c, a), b))]
        if any(s):
            return False
    return True


def charpoly(rows):
    m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])
    return sympy.Poly(m.charpoly(X).as_expr(), X)


def flag_expectation(alg):
    """('no', i) for the first basis ad with a non-real eigenvalue, else 'yes'
    when every ad(e_i) has rational spectrum, else 'undetermined'."""
    n = alg[0]
    polys = [charpoly(ad(alg, i)) for i in range(n)]
    for i, p in enumerate(polys, start=1):
        f = p.sqf_part()
        if f.count_roots() < f.degree():
            return "no", i, p
    rational = all(f.degree() == 1 for p in polys for f, _ in p.factor_list()[1])
    return ("yes" if rational else "undetermined"), None, None


# ---------------------------------------------------------------------------
# cohomology by the alternating-sum formula
# ---------------------------------------------------------------------------

def _perm_sign(seq):
    sign = 1
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def differential(alg, k):
    """Sparse d on k-forms: {source multi-index: {target multi-index: value}}.

    (d w)(x_0..x_k) = sum_{p<q} (-1)^(p+q) w([x_p, x_q], x_0..^p..^q..x_k),
    evaluated on basis vectors; e^I(e_m, rest) is the sign of sorting (m, rest).
    """
    n, brackets = alg
    cols = {}
    for target in itertools.combinations(range(1, n + 1), k + 1):
        for p, q in itertools.combinations(range(k + 1), 2):
            a, b = target[p], target[q]
            terms = brackets.get((a, b), {})
            rest = tuple(t for s, t in enumerate(target) if s not in (p, q))
            for m, c in terms.items():
                if m in rest:
                    continue
                args = (m,) + rest
                source = tuple(sorted(args))
                col = cols.setdefault(source, {})
                col[target] = col.get(target, F(0)) + (-1) ** (p + q) * _perm_sign(args) * c
    return cols


def differential_rank(alg, k):
    n = alg[0]
    sources = list(itertools.combinations(range(1, n + 1), k))
    targets = {t: r for r, t in enumerate(itertools.combinations(range(1, n + 1), k + 1))}
    cols = differential(alg, k)
    rows = [[F(0)] * len(sources) for _ in targets]
    for c, s in enumerate(sources):
        for t, v in cols.get(s, {}).items():
            rows[targets[t]][c] = v
    return rank(rows, len(sources))


def betti(alg):
    n = alg[0]
    ranks = [differential_rank(alg, k) for k in range(n)] + [0]
    return tuple(comb(n, k) - ranks[k] - (ranks[k - 1] if k else 0) for k in range(n + 1))


def is_cocycle(alg, k, vec):
    """vec maps k-multi-indices to coefficients; True when d vec = 0."""
    out = {}
    cols = differential(alg, k)
    for idx, c in vec.items():
        for t, v in cols.get(idx, {}).items():
            out[t] = out.get(t, F(0)) + c * v
    return not any(out.values())


# ---------------------------------------------------------------------------
# parsing CLI output
# ---------------------------------------------------------------------------

def parse_structure(text):
    """Structure file back to (dim, brackets); None when malformed."""
    n = None
    brackets = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == "dim":
            n = int(tok[1])
            continue
        k = int(tok[1][1:])
        rest = tok[3:]
        sign, pos = 1, 0
        while pos < len(rest):
            if rest[pos] in "+-":
                sign = -1 if rest[pos] == "-" else 1
                pos += 1
            coef = F(1)
            if "^" not in rest[pos]:
                coef = F(rest[pos])
                pos += 1
            i, j = (int(t[1:]) for t in rest[pos].split("^"))
            pos += 1
            brackets.setdefault((i, j), {})[k] = -sign * coef
            sign = 1
    if n is None:
        return None
    return n, brackets


def kv_lines(text, tsv):
    """Output lines split into (key, value) at the first tab or space."""
    out = []
    for line in text.splitlines():
        key, _, value = line.partition("\t" if tsv else " ")
        out.append((key, value))
    return out


def parse_betti(text, tsv):
    vals = {}
    for key, value in kv_lines(text, tsv):
        if tsv and key.startswith("betti."):
            vals[int(key[6:])] = int(value)
        elif not tsv and key == "betti":
            k, b = value.split()
            vals[int(k)] = int(b)
    return tuple(vals[k] for k in sorted(vals))


def parse_cocycle(text):
    """'a*e13 + b*e2,10' -> {(1, 3): a, (2, 10): b}; '0' -> {}."""
    vec = {}
    if text.strip() == "0":
        return vec
    for term in text.split(" + "):
        coef, _, label = term.partition("*")
        if label == "1":
            idx = ()
        elif "," in label:
            idx = tuple(int(t) for t in label[1:].split(","))
        else:
            idx = tuple(int(t) for t in label[1:])
        vec[idx] = F(coef)
    return vec


def parse_reps(text, tsv):
    """{degree: [cocycle dict, ...]} from --reps output."""
    reps = {}
    for key, value in kv_lines(text, tsv):
        if tsv and key.startswith("rep."):
            k = int(key.split(".")[1])
            reps.setdefault(k, []).append(parse_cocycle(value))
        elif not tsv and key == "rep":
            k, _, body = value.partition(" ")
            reps.setdefault(int(k), []).append(parse_cocycle(body))
    return reps


def parse_poly(text):
    return sympy.Poly(sympy.sympify(text.replace("^", "**"), locals={"x": X}), X)
