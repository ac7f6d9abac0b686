"""Seeded input generators for the benchmark, written without solvco.

An algebra is a pair (dim, brackets) where brackets maps (i, j), 1 <= i < j,
to {k: Fraction}, the coefficients of e_k in [e_i, e_j].  Matrices are lists
of rows of Fraction.  Every generator takes a random.Random, so the same
seed always gives the same files.
"""

from __future__ import annotations

from fractions import Fraction

F = Fraction


# ---------------------------------------------------------------------------
# small exact matrix helpers
# ---------------------------------------------------------------------------

def identity(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), F(0)) for col in cols] for row in a]


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[F(0)] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[off + i][off + j] = F(x)
        off += len(b)
    return out


def random_basis(rng, n, ops, coeffs, scales=(1,)):
    """(P, P^-1) for a product of `ops` elementary column operations.

    Each operation adds c * column j to column i with c from `coeffs`; the
    columns are then scaled by entries of `scales`.  Both factors are
    accumulated exactly, so no inverse is ever computed.
    """
    p, p_inv = identity(n), identity(n)
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        c = F(rng.choice(coeffs))
        # P <- P * (I + c E_ji);  P^-1 <- (I - c E_ji) * P^-1
        for row in p:
            row[i] += c * row[j]
        p_inv[j] = [x - c * y for x, y in zip(p_inv[j], p_inv[i])]
    for i in range(n):
        s = F(rng.choice(scales))
        for row in p:
            row[i] *= s
        p_inv[i] = [x / s for x in p_inv[i]]
    return p, p_inv


def conjugate(m, p, p_inv):
    return matmul(matmul(p_inv, m), p)


def signed_permutation(rng, n):
    """(P, P^-1) for a random permutation of the basis with random signs."""
    perm = list(range(n))
    rng.shuffle(perm)
    p = [[F(0)] * n for _ in range(n)]
    for j, i in enumerate(perm):
        p[i][j] = F(rng.choice((1, -1)))
    return p, [list(row) for row in zip(*p)]


# ---------------------------------------------------------------------------
# algebras
# ---------------------------------------------------------------------------

def heisenberg(m):
    """h_{2m+1}: [e_i, e_{m+i}] = e_{2m+1}."""
    n = 2 * m + 1
    return n, {(i, m + i): {n: F(1)} for i in range(1, m + 1)}


def filiform(n):
    """L_n: [e_1, e_i] = e_{i+1} for 2 <= i < n."""
    return n, {(1, i): {i + 1: F(1)} for i in range(2, n)}


def abelian(n):
    return n, {}


def relabel(alg, rng, layout=None, keep=0):
    """Same algebra in the basis e'_a = s_a e_{pi(a)}: random signs from
    rng, and a random pi from `layout` (default rng) that fixes the first
    `keep` indices."""
    n, brackets = alg
    perm = list(range(keep + 1, n + 1))
    (layout or rng).shuffle(perm)
    perm = list(range(1, keep + 1)) + perm
    sign = {a: rng.choice((1, -1)) for a in range(1, n + 1)}
    back = {orig: a for a, orig in enumerate(perm, start=1)}
    out = {}
    for (i, j), terms in brackets.items():
        a, b = back[i], back[j]
        flip = 1
        if a > b:
            a, b, flip = b, a, -1
        row = out.setdefault((a, b), {})
        for k, v in terms.items():
            c = back[k]
            row[c] = row.get(c, F(0)) + flip * sign[a] * sign[b] * sign[c] * v
    return n, out


def semidirect(d):
    """R x| R^n with e_1 acting by the n x n matrix d (columns are images)."""
    n = len(d)
    brackets = {}
    for j in range(n):
        terms = {1 + 1 + k: d[k][j] for k in range(n) if d[k][j] != 0}
        if terms:
            brackets[(1, 2 + j)] = terms
    return n + 1, brackets


def structure_file(alg, comment=""):
    """Structure-file text: d e^k = -sum c[k][i][j] e^i^e^j."""
    n, brackets = alg
    eqs = {k: [] for k in range(1, n + 1)}
    for (i, j), terms in sorted(brackets.items()):
        for k, c in terms.items():
            if c != 0:
                eqs[k].append((-c, i, j))
    lines = [f"# {comment}"] if comment else []
    lines.append(f"dim {n}")
    for k in range(1, n + 1):
        parts = []
        for t, (c, i, j) in enumerate(eqs[k]):
            body = f"{abs(c)} e{i}^e{j}"
            if t == 0:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f"- {body}" if c < 0 else f"+ {body}")
        if parts:
            lines.append(f"d e{k} = " + " ".join(parts))
    return "\n".join(lines) + "\n"


def matrix_file(m):
    rows = [f"{len(m)} {len(m[0])}"]
    rows.extend(" ".join(str(x) for x in row) for row in m)
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# semisimple derivations with a known spectrum
# ---------------------------------------------------------------------------
#
# Eigenvalues are written in the Q-basis (1, i, sqrt3, sqrt5, sqrt13), which
# is linearly independent over Q, so a sum of eigenvalues is zero exactly
# when each coordinate sum is zero.

# x^2 - p x - q  ->  roots p/2 +- h * r, r the surd in basis slot `slot`
QUADRATICS = {
    (1, 1): (3, F(1, 2)),     # (1 +- sqrt5)/2
    (3, -1): (3, F(1, 2)),    # (3 +- sqrt5)/2
    (0, 3): (2, F(1)),        # +- sqrt3
    (1, 3): (4, F(1, 2)),     # (1 +- sqrt13)/2
}


def _eig(re=0, im=0, surd=None):
    v = [F(re), F(im), F(0), F(0), F(0)]
    if surd is not None:
        slot, coeff = surd
        v[slot] = F(coeff)
    return tuple(v)


def scalar_block(c):
    return [[F(c)]], [_eig(re=c)]


def rotation_block(a, b):
    """[[a, b], [-b, a]]: eigenvalues a +- b i."""
    return [[F(a), F(b)], [F(-b), F(a)]], [_eig(a, b), _eig(a, -b)]


def quadratic_block(p, q):
    """Companion of x^2 - p x - q with a positive non-square discriminant."""
    slot, h = QUADRATICS[(p, q)]
    m = [[F(0), F(q)], [F(1), F(p)]]
    return m, [_eig(F(p, 2), 0, (slot, h)), _eig(F(p, 2), 0, (slot, -h))]


def zero_sum_counts(eigs):
    """z_k: number of k-subsets of eigenvalue positions summing to zero."""
    zero = tuple([F(0)] * 5)
    layers = [{zero: 1}] + [{} for _ in eigs]
    for e in eigs:
        for k in range(len(eigs), 0, -1):
            for s, cnt in layers[k - 1].items():
                t = tuple(a + b for a, b in zip(s, e))
                layers[k][t] = layers[k].get(t, 0) + cnt
    return [layer.get(zero, 0) for layer in layers]


def semidirect_betti(eigs):
    """Betti numbers of R x| R^n for a semisimple derivation with spectrum eigs.

    H^k = ker theta_k + coker theta_{k-1}, theta_k the derivation extended to
    k-forms on R^n, whose eigenvalues are the k-fold sums of eigs.
    """
    z = zero_sum_counts(eigs)
    n = len(eigs)
    return tuple((z[k] if k <= n else 0) + (z[k - 1] if k >= 1 else 0)
                 for k in range(n + 2))


# ---------------------------------------------------------------------------
# basis changes, small algebras and holonomies
# ---------------------------------------------------------------------------

def bracket(alg, x, y):
    n, brackets = alg
    out = [F(0)] * n
    for (i, j), terms in brackets.items():
        coef = x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]
        if coef:
            for k, v in terms.items():
                out[k - 1] += coef * v
    return out


def change_basis(alg, p, p_inv):
    """Structure constants in the basis formed by the columns of p."""
    n = alg[0]
    cols = [[row[a] for row in p] for a in range(n)]
    out = {}
    for a in range(n):
        for b in range(a + 1, n):
            w = bracket(alg, cols[a], cols[b])
            coords = [sum((p_inv[k][t] * w[t] for t in range(n)), F(0)) for k in range(n)]
            terms = {k + 1: c for k, c in enumerate(coords) if c}
            if terms:
                out[(a + 1, b + 1)] = terms
    return n, out


def extend_identity(q, lead):
    """blockdiag(I_lead, q): a basis change that keeps e_1..e_lead fixed."""
    return block_diag([identity(lead), q])


def random_block(rng, kind):
    """(matrix, eigenvalues) for one block of a semisimple derivation."""
    if kind == "s":
        return scalar_block(rng.choice((1, -1, 2, -2, F(1, 2), F(-1, 2))))
    if kind == "r":
        return rotation_block(rng.choice((0, 0, 1, -1)), rng.choice((1, 2)))
    return quadratic_block(*rng.choice(sorted(QUADRATICS)))


def semisimple_semidirect(rng, blocks):
    """R x| R^n for blockdiag of `blocks`, each (matrix, eigenvalues), put in
    a random rational basis; returns (algebra, eigenvalues)."""
    eigs = [e for _, es in blocks for e in es]
    p, p_inv = random_basis(rng, len(eigs), ops=8, coeffs=(1, -1, 2), scales=(1, -1, 2))
    return semidirect(conjugate(block_diag([m for m, _ in blocks]), p, p_inv)), eigs


def oscillator(a_block):
    """R x| h_3: e_1 acts on span(e_2, e_3) by a_block and on e_4 = [e_2, e_3]
    by its trace, which makes the action a derivation."""
    (a, b), (c, d) = a_block
    d_mat = [[a, b, 0], [c, d, 0], [0, 0, a + d]]
    _, brackets = semidirect(d_mat)
    brackets[(2, 3)] = {4: F(1)}
    return 4, brackets


def nakamura_like(c, b):
    """V = span(e_1, e_2) acting on R^4 by commuting semisimple operators:
    e_1 by diag(c, c, -c, -c), e_2 by rotations of speed b and -b."""
    d1 = [[c, 0, 0, 0], [0, c, 0, 0], [0, 0, -c, 0], [0, 0, 0, -c]]
    d2 = [[0, -b, 0, 0], [b, 0, 0, 0], [0, 0, 0, b], [0, 0, -b, 0]]
    brackets = {}
    for gen, d in ((1, d1), (2, d2)):
        for j in range(4):
            terms = {3 + k: F(d[k][j]) for k in range(4) if d[k][j] != 0}
            if terms:
                brackets[(gen, 3 + j)] = terms
    return 6, brackets


def small_algebra(rng, kind):
    """A solvable algebra of dimension <= 6 in its adapted basis."""
    if kind == "diag":
        scalars = [rng.choice((1, -1, 2, -2, F(1, 2))) for _ in range(rng.randint(2, 4))]
        return semidirect(block_diag([[[c]] for c in scalars]))
    if kind in ("rot", "quad"):
        kinds = kind[0] + "s" * rng.randint(0, 2)
        return semidirect(block_diag([random_block(rng, k)[0] for k in kinds]))
    if kind == "jordan":
        c = F(rng.choice((1, -1, 2)))
        return semidirect(block_diag([[[c, F(1)], [F(0), c]], [[F(rng.choice((0, 1, -2)))]]]))
    if kind == "heis":
        return heisenberg(rng.choice((1, 2)))
    if kind == "fili":
        return filiform(rng.randint(4, 6))
    if kind == "osc":
        a, b = rng.choice((0, 1)), rng.choice((1, 2))
        return oscillator(((a, -b), (b, a)))
    return nakamura_like(rng.choice((1, 2)), rng.choice((1, 2)))


def random_rational_basis(rng, n):
    return random_basis(rng, n, ops=n, coeffs=(1, -1, 2), scales=(1, -1, 2))


def random_integer_basis(rng, n):
    return random_basis(rng, n, ops=n + 1, coeffs=(1, -1), scales=(1, -1))


J = [[F(0), F(-1)], [F(1), F(0)]]
HYPERBOLIC = ([[2, 1], [1, 1]], [[3, 1], [2, 1]], [[2, 3], [1, 2]])
FINITE = ([[0, -1], [1, 0]], [[0, -1], [1, -1]], [[0, -1], [1, 1]], [[-1, 0], [0, -1]])


def holonomy_case(rng, kind):
    """(B, derivation or None, scale, mostow status, cover) before a basis change."""
    if kind == "hyp":
        blocks = [rng.choice(HYPERBOLIC)] + [[[1]]] * rng.randint(0, 1)
        return block_diag(blocks), None, "1", "holds", "completely-solvable"
    if kind == "neg":
        a = rng.choice(HYPERBOLIC)
        blocks = [[[-x for x in row] for row in a]] + [[[1]]] * rng.randint(0, 1)
        return block_diag(blocks), None, "1", "fails", "other"
    if kind == "fin":
        blocks = [rng.choice(FINITE) for _ in range(rng.randint(1, 2))]
        return block_diag(blocks), None, "1", "fails", "torus"
    if kind == "fin_pi":
        # exp(pi * J/2) is the quarter turn, exp(pi * J) = -I
        pairs = [(FINITE[0], [[x / 2 for x in row] for row in J]), (FINITE[3], J)]
        chosen = [rng.choice(pairs) for _ in range(rng.randint(1, 2))]
        return (block_diag([b for b, _ in chosen]), block_diag([z for _, z in chosen]),
                "pi", "fails", "torus")
    if kind == "uni1":
        n = rng.randint(2, 4)
        nil = [[F(0)] * n for _ in range(n)]
        nil[0][n - 1] = F(rng.choice((1, -1, 2)))
        if n > 2:
            nil[1][n - 1] = F(rng.choice((1, 0)))
        b = [[F(int(i == j)) + nil[i][j] for j in range(n)] for i in range(n)]
        return b, nil, "1", "holds", "nilmanifold"
    # companion of x^3 - x - 1: one real root, a complex pair off the unit circle
    comp = [[0, 0, 1], [1, 0, 1], [0, 1, 0]]
    blocks = [comp] + [[[1]]] * rng.randint(0, 1)
    return block_diag(blocks), None, "1", "undetermined", "other"
