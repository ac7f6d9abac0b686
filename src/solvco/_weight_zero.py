"""The Betti numbers of a solvable, non-nilpotent Lie algebra from its
weight-zero subcomplex F = ker L_s, s the semisimple part of ad x, as the
`solvco.cohomology` docstring explains.  `cohomology` imports this module
on the first call that takes the path, so a command that never does
compiles none of it.
"""

from __future__ import annotations

import itertools
from math import comb, isqrt, prod

from .cohomology import DEFAULT_DIM_BOUND, _d_of_mask, _generator_terms, _rank
from .decompositions import _integer_columns, _krylov_chain, _poly_rows, _times, jordan_chevalley
from .errors import CheckFailed, DimensionTooLarge
from .lie import LieAlgebra, _in_basis, ad_matrix, derived_subalgebra, validate
from .matrices import Echelon, Matrix
from .polynomials import pseudo_divmod, real_root_counter, split_factors

_FACTOR_SEARCH_LIMIT = 2**16  # the cap of each divisor search for the weight basis


def _semisimple_blocks(m: Matrix):
    """None when the square m is not semisimple; otherwise (D, found,
    unfactored): D = den m, found one (f, vectors) per irreducible linear
    or quadratic factor f of the minimal polynomial of m, as an int list
    at scale D, that `split_factors` capped at _FACTOR_SEARCH_LIMIT finds,
    with a basis of sparse int vectors of ker f(m); unfactored is
    None, or (product, vectors) for the sum of the kernels of the factors
    they miss, product the product of their distinct cofactors, which
    kills it.

    Read off the Krylov chains v, Mv, M^2 v, ... of standard vectors v,
    M = D m: the minimal polynomial is the lcm of the annihilators q of
    the v, so m is semisimple exactly when each q is squarefree.  A v
    already in the span of the chains before it is skipped: the spans are
    m-invariant and the chains of all v fill the space.  Each q is searched
    once, and then cut by every factor found, from any q, that divides it,
    so that the cofactor of those is a product of factors found nowhere.  A
    factor h of q, found or that cofactor, has its kernel meet the span
    Z(v) of the chain in (q / h)(M) Z(v), spanned by the x^k (q / h)(M) v
    for k < deg h.  A vector is kept when it is independent of those kept,
    so the kept vectors are bases."""
    n = m.rows
    scale, columns = _integer_columns(m)
    spanned, chains, found, searched = Echelon(n), [], {}, set()
    for i in range(n):
        if spanned.dim == n:
            break
        if spanned.contains({i: 1}):
            continue
        chain = []
        q = _krylov_chain(Echelon(2 * n), columns, {i: 1}, chain)
        if tuple(q) not in searched:
            if real_root_counter(q)[0] != q:
                return None
            searched.add(tuple(q))
            found.update((tuple(f), f) for f in split_factors(q, scale, _FACTOR_SEARCH_LIMIT)[0])
        for v in chain:
            spanned.add(v)
        chains.append((q, chain))
    spanned, blocks, splits, rests = Echelon(n), {}, {}, {}
    for q, chain in chains:
        if tuple(q) not in splits:
            rest, factors = q, []
            for key, f in found.items():
                quotient, remainder = pseudo_divmod(rest, f)
                if not remainder:
                    rest = quotient
                    factors.append((key, f))
            splits[tuple(q)] = factors + [(None, rest)] * (len(rest) > 1)
        for key, h in splits[tuple(q)]:
            if key is None:
                rests[tuple(h)] = h
            cofactor, vectors = pseudo_divmod(q, h)[0], blocks.setdefault(key, [])
            for k in range(len(h) - 1):
                v = {}
                for j, c in enumerate(cofactor, k):
                    for r, x in chain[j].items():
                        v[r] = v.get(r, 0) + c * x
                if spanned.add(v) is not None:
                    vectors.append({r: x for r, x in v.items() if x})
    if spanned.dim != n:
        raise CheckFailed(f"primary components span {spanned.dim} of {n} dimensions")
    product = [1]
    for h in rests.values():
        product = _times(product, h)
    unfactored = blocks.pop(None, None)
    return (scale, [(list(key), vectors) for key, vectors in blocks.items() if vectors],
            (product, unfactored) if unfactored else None)


def _primary_basis(g: LieAlgebra):
    """(h, s, blocks, D): g in a basis adapted to the semisimple part of ad
    x, x the first standard vector outside [g, g] whose ad is not
    nilpotent, with s that part in the new basis, a `Matrix`, and blocks
    the (start, size, f) of each of its primary components in basis order,
    from `_semisimple_blocks`: f is a linear or quadratic factor of the
    minimal polynomial of s, an int list at its scale D, or None for the
    unfactored block, which comes last.  The block of the root 0 starts
    with x, as s x = 0, so that ad x in the new basis is ad of that basis
    vector, and s is it when ad x is semisimple.  Every block is checked
    to be invariant under s and killed by its factor."""
    n = g.dim
    comm = derived_subalgebra(g)
    for i in range(n):
        if comm.contains({i: 1}):
            continue
        ad = ad_matrix(g, [int(t == i) for t in range(n)])
        split = _semisimple_blocks(ad)
        semisimple = split is not None
        if not semisimple:
            split = _semisimple_blocks(jordan_chevalley(ad).semisimple)
            if split is None:
                raise CheckFailed("the semisimple part of ad x is not semisimple")
        scale, found, unfactored = split
        if unfactored or [f for f, _ in found] != [[0, 1]]:  # s = 0: ad x nilpotent
            break
    else:  # by Lie's theorem, ad of every such vector nilpotent makes g nilpotent
        raise CheckFailed("no standard vector outside [g, g] has a non-nilpotent ad")
    basis, blocks, x = [], [], {i: 1}
    parts = found + ([unfactored] if unfactored else [])
    for t, (f, vectors) in enumerate(parts):
        if f == [0, 1]:  # x first, then the vectors independent of it
            spanned = Echelon(n)
            spanned.add(x)
            kept = [v for v in vectors if spanned.add(v) is not None]
            if len(kept) != len(vectors) - 1:
                raise CheckFailed("x is not in the kernel of the semisimple part of ad x")
            vectors, at = [x] + kept, len(basis)
        if t < len(found) and len(vectors) % (len(f) - 1):
            raise CheckFailed(f"primary component of {f} at scale {scale} has dimension "
                              f"{len(vectors)}")
        blocks.append((len(basis), len(vectors), f if t < len(found) else None))
        basis += vectors
    h = _in_basis(g, [(v, 1) for v in basis])
    ad = ad_matrix(h, [int(t == at) for t in range(n)])
    s = ad if semisimple else jordan_chevalley(ad).semisimple
    rows = s.numerator_rows()
    for (start, size, _), (f, _) in zip(blocks, parts):  # s is block-diagonal, f(s) = 0
        block = range(start, start + size)
        if any(rows[r][c] for r in block for c in range(n) if c not in block) or any(
                map(any, _poly_rows(f, scale, Matrix.from_numerators(
                    size, size, [rows[r][c] for r in block for c in block], s.denominator))[0])):
            raise CheckFailed(f"s is not {f} at scale {scale} on its primary component")
    return h, s, blocks, scale


def _multi_degrees(s, blocks, scale: int):
    """(kept, single): the multi-degrees of forms on the blocks, as tuples
    of one power per block, on which L_s has the weight 0; single maps
    each (block, power) with one weight to it.  The multi-degrees visited
    and the forms of those kept count against 2^DEFAULT_DIM_BOUND, beyond
    which DimensionTooLarge is raised before any form is built.

    A weight is a sum of eigenvalues of s, one per power, written in the
    units 1/(2D), D the scale of the factors: a rational part and one
    coordinate per class of quadratics whose discriminants have a square
    product, in which the roots (-b +- sqrt(b^2 - 4c)) / 2 of a factor [c,
    b, 1] sit at -b +- H, H = sqrt((b^2 - 4c) delta), delta the first
    discriminant of the class.  The a-th power of a root r of a linear
    factor has the one weight a r, and the top power of every block V the
    one weight tr(s|V), read from the block itself; a power a of a
    quadratic block of dimension 2m between has the rational part -a b
    and the weights t H, t in -c, -c + 2, ..., c, c = min(a, 2m - a), in
    its class, and one of the unfactored block between has unknown
    weights.  The classes are independent over Q, so a sum is 0 exactly
    when each coordinate is: a multi-degree is kept when its rational
    part is 0 and every class has 0 in reach, and always when it has a
    partial power of the unfactored block."""
    rows, den = s.numerator_rows(), s.denominator
    single, groups, classes, unfactored, kept, work = {}, [], [], None, [], 0

    def visit(forms=1):
        nonlocal work
        work += forms
        if work > 2**DEFAULT_DIM_BOUND:
            raise DimensionTooLarge(f"the weight-zero subcomplex at dimension {len(rows)} visits "
                                    f"and builds more than 2^{DEFAULT_DIM_BOUND} multi-degrees "
                                    "and forms")

    def keep(powers):
        visit(prod(comb(size, a) for a, (_, size, _) in zip(powers, blocks)))
        kept.append(powers)

    for b, (start, size, f) in enumerate(blocks):
        trace = 2 * scale * sum(rows[t][t] for t in range(start, start + size))
        if trace % den:
            raise CheckFailed(f"trace of s on the block of {f} is not a sum of its roots")
        single[b, 0], single[b, size] = 0, trace // den
        if f is None:
            groups.append([(0, ((b, 0),)), (single[b, size], ((b, size),))])
            unfactored = b
        elif len(f) == 2:
            single.update({(b, a): -2 * f[0] * a for a in range(1, size)})
            groups.append([(single[b, a], ((b, a),)) for a in range(size + 1)])
        else:
            disc = f[1] * f[1] - 4 * f[0]
            for delta, members in classes:
                H = isqrt(disc * delta) if disc * delta > 0 else -1
                if H * H == disc * delta:
                    break
            else:
                H, members = abs(disc), []
                classes.append((disc, members))
            members.append((b, size, -f[1], H))
    for _, members in classes:
        options, reach = [], {}
        for powers in itertools.product(*(range(m[1] + 1) for m in members)):
            visit()
            spans = tuple(min(a, m[1] - a) for a, m in zip(powers, members))
            if spans not in reach:
                sums = {0}
                for (_, _, _, H), c in zip(members, spans):
                    sums = {x + t * H for x in sums for t in range(-c, c + 1, 2)}
                reach[spans] = 0 in sums
            if reach[spans]:
                options.append((sum(a * m[2] if c else single[m[0], a]
                                    for a, c, m in zip(powers, spans, members)),
                                tuple((m[0], a) for a, m in zip(powers, members))))
        groups.append(options)
    for combo in itertools.product(*groups):
        visit()
        if not sum(o[0] for o in combo):
            powers = [0] * len(blocks)
            for _, assigned in combo:
                for b, a in assigned:
                    powers[b] = a
            keep(tuple(powers))
    if unfactored is not None:
        size = blocks[unfactored][1]
        for powers in itertools.product(*(range(1, size) if b == unfactored else range(sz + 1)
                                          for b, (_, sz, _) in enumerate(blocks))):
            visit()
            keep(powers)
    return kept, single


def _kernel_of_l_s(entries, masks, shift: int) -> list:
    """Int basis, as {mask: int} forms, of the forms on the basis forms
    masks (powers of some blocks) killed by the int operator L + shift,
    entries[i] the nonzero (j, A[i][j]) of row i of an int matrix A and L
    its action on forms: L e^I sums, over i in I, e^I with e^i replaced by
    e^i o A = sum A[i][j] e^j; moving e^j to its place passes the indices
    of I strictly between i and j.  A is block-diagonal, so every e^J
    reached is in masks."""
    lines = {}
    for t, I in enumerate(masks):
        lines.setdefault(I, {})[t] = shift
        rest = I
        while rest:
            bit = rest & -rest
            rest ^= bit
            i = bit.bit_length() - 1
            for j, c in entries[i]:
                if j != i:
                    if I >> j & 1:
                        continue
                    lo, hi = (i, j) if i < j else (j, i)
                    if (I & ((1 << hi) - (2 << lo))).bit_count() & 1:
                        c = -c
                J = I ^ bit | 1 << j
                line = lines.setdefault(J, {})
                line[t] = line.get(t, 0) + c
    kernel = Echelon(len(masks))
    for line in lines.values():
        kernel.add(line)
    return [{masks[t]: x for t, x in v.items()} for v in kernel.kernel()]


def weight_zero_betti(g: LieAlgebra) -> tuple:
    """Betti numbers of g, solvable and not nilpotent, from the weight-zero
    subcomplex F = ker L_s, s the semisimple part of ad x, as the
    `solvco.cohomology` docstring says: in the basis of `_primary_basis`, on each kept
    multi-degree, the powers with one weight w span a factor on which L_s
    is w, and F is the int kernel of L_s + w on the other powers (of a
    quadratic or the unfactored block), one kernel per distinct such part,
    wedged with every basis form of that factor; where every power has
    one weight, F is the whole multi-degree.  d is ranked on F alone, and
    d o d = 0 is checked on F, as `_multi_degrees` bounds the work."""
    n = g.dim
    h, s, blocks, scale = _primary_basis(g)
    kept, single = _multi_degrees(s, blocks, scale)
    subsets = {}

    def forms(pairs):  # the basis forms, as masks, of the given powers of blocks
        out = [0]
        for b, a in pairs:
            if (b, a) not in subsets:
                start, size, _ = blocks[b]
                subsets[b, a] = [sum(1 << (start + t) for t in c)
                                 for c in itertools.combinations(range(size), a)]
            out = [m | t for m in out for t in subsets[b, a]]
        return out

    # 2D s as int rows, L_s on forms in units 1/(2D den s)
    entries = [[(j, 2 * scale * c) for j, c in enumerate(row) if c] for row in s.numerator_rows()]
    kernels, F = {(): [{0: 1}]}, [[] for _ in range(n + 1)]
    for powers in kept:
        fixed = [(b, a) for b, a in enumerate(powers) if a and (b, a) in single]
        key = (tuple((b, a) for b, a in enumerate(powers) if (b, a) not in single),
               sum(single[p] for p in fixed))
        if key not in kernels:
            kernels[key] = _kernel_of_l_s(entries, forms(key[0]), s.denominator * key[1])
        F[sum(powers)] += [{m | t: x for m, x in v.items()}
                           for t in forms(fixed) for v in kernels[key]]
    terms, memo = _generator_terms(h), {}

    def d(form):  # D d of a {mask: int} form
        out = {}
        for m, c in form.items():
            col = memo.get(m)
            if col is None:
                col = memo[m] = _d_of_mask(terms, m)
            for t, x in col.items():
                out[t] = out.get(t, 0) + c * x
        return {t: x for t, x in out.items() if x}

    columns = [[d(form) for form in basis] for basis in F]  # keyed by mask
    for k, cols in enumerate(columns):
        if any(d(col) for col in cols):
            validate(g)
            raise CheckFailed(f"d o d != 0 on the weight-zero subcomplex in degree {k} "
                              "although the Jacobi identity holds")
    return _rank(n, columns)[0]
