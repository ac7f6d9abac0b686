"""Matrix decompositions over the rationals.

Minimal and characteristic polynomials come from one integer Krylov
kernel: m is scaled once to the integer matrix M = D * m (D the least
common denominator of its entries), Krylov vectors are iterated in Python
ints and eliminated in an `Echelon` whose int remainders give the
annihilators, and these are multiplied as int coefficient lists into the
monic int list P of M: the int form (P, D) of `polynomials`, which every
spectral decision reads (`integer_minimal_polynomial`,
`integer_char_poly`); `minimal_polynomial` and `char_poly` build the
`Polynomial` D^(-deg) P(D x) for a reader.  `rational_spectrum` splits
off the negative-discriminant quadratics and the totally real block of
the squarefree part, at the same scale, with the one factor search
`polynomials.split_factors`.  The additive semisimple/nilpotent
decomposition is the Newton iteration on that squarefree part, and the
imaginary-spectrum (compact) part of a semisimple operator, the operator
minus its split part, is built from one projector h(s) (h(s) + f(s))^(-1)
per factor f of its minimal polynomial p, h = p / f; `poly_of_matrix`
evaluates these int lists at a matrix in ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from .errors import CheckFailed, NotRationallySplittable, NotUnipotent
from .matrices import Echelon, Matrix, inverse
from .polynomials import Polynomial, pseudo_divmod, real_root_counter, split_factors


def poly_of_matrix(P: list, scale: int, m: Matrix) -> Matrix:
    """The value at a square m of D^(-deg) P(D x), the int list P at scale
    D, built as one matrix from `_poly_rows`."""
    rows, den = _poly_rows(P, scale, m)
    return Matrix.from_numerators(m.rows, m.rows, [v for r in rows for v in r], den)


def _poly_rows(P: list, scale: int, m: Matrix):
    """(rows, den): the int rows of den times the value at a square m of
    D^(-deg) P(D x).  With D m = X / Y in lowest terms (X the int rows),
    that value is the sum of P_i X^i Y^(deg - i) over (D Y)^deg, taken by
    Horner's scheme in ints, acc <- acc X + P_i Y^(deg - i) I."""
    if not m.is_square():
        raise ValueError("polynomial of a non-square matrix")
    n, x = m.rows, m * scale
    y = x.denominator
    rows = [[(j, v) for j, v in enumerate(r) if v] for r in x.numerator_rows()]
    acc, power = [[0] * n for _ in range(n)], 1
    for c in reversed(P):
        nxt = []
        for i, r in enumerate(acc):
            out = [0] * n
            for k, a in enumerate(r):
                if a:
                    for j, b in rows[k]:
                        out[j] += a * b
            out[i] += c * power
            nxt.append(out)
        acc, power = nxt, power * y
    return acc, (scale * y) ** (len(P) - 1)


def _integer_columns(m: Matrix):
    """(D, columns) with D the least common denominator of the entries of m
    and columns[j] the nonzero entries (i, M[i, j]) of the integer matrix
    M = D * m."""
    columns = [[] for _ in range(m.cols)]
    for i, row in enumerate(m.numerator_rows()):
        for j, x in enumerate(row):
            if x:
                columns[j].append((i, x))
    return m.denominator, columns


def _apply(columns, v: dict) -> dict:
    """M v for a sparse integer vector v {row: int}."""
    out = {}
    for j, x in v.items():
        for i, a in columns[j]:
            out[i] = out.get(i, 0) + a * x
    return {i: x for i, x in out.items() if x}


def _krylov_chain(krylov: Echelon, columns, v: dict, chain=None):
    """Relative annihilator of v modulo the span W of the echelon (an
    M-invariant subspace): the coefficient list, lowest degree first, of
    the monic integer polynomial q of least degree with q(M) v in W; None
    when v lies in W.  The vectors v, Mv, ..., M^(deg q - 1) v are
    appended to the list chain when one is given.

    The echelon has width 2n.  Its row for the t-th Krylov vector K_t added
    is [K_t reduced | coordinates], with a 1 at column n + t before
    reduction, so the coordinate part records the combination of the K_t
    that its vector part equals.  The chain v, Mv, M^2 v, ... is added
    until M^k v reduces to zero in the vector part; its coordinates c then
    give M^k v + sum c_t K_t = 0, and those on this chain's own vectors are
    the coefficients of q below x^k.  The remainder is read as ints V / s,
    so a row goes in as V with s at column n + t.  Every such q divides
    the characteristic polynomial of the integer matrix M, so by Gauss's
    lemma it is integral; that is checked, not assumed."""
    n = len(columns)
    start = krylov.dim
    k = 0
    while True:
        V, s = krylov.remainder(v)
        if not V or min(V) >= n:
            if k == 0:
                return None
            coeffs = [V.get(n + start + j, 0) for j in range(k)]
            if any(c % s for c in coeffs):
                raise CheckFailed("Krylov annihilator of an integer matrix is not integral")
            return [c // s for c in coeffs] + [1]
        V[n + start + k] = s
        krylov.add(V)
        if chain is not None:
            chain.append(v)
        v = _apply(columns, v)
        k += 1


def _times(a: list, b: list) -> list:
    """Product of two int coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def integer_char_poly(m: Matrix):
    """(P, D): the characteristic polynomial det(xI - m) as the monic int
    list P of the integer matrix M = D * m at its scale D, from Krylov
    chains.

    Chains of e_1, ..., e_n that are not yet in the span fill the space;
    each contributes its relative annihilator, the characteristic
    polynomial of M on the quotient its chain spans, and their product,
    taken in ints, is that of M.  One echelon of width 2n holds every
    chain."""
    if not m.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.rows
    scale, columns = _integer_columns(m)
    krylov = Echelon(2 * n)
    result = [1]
    for i in range(n):
        q = _krylov_chain(krylov, columns, {i: 1})
        if q is not None:
            result = _times(result, q)
            if krylov.dim == n:
                break
    return result, scale


def integer_minimal_polynomial(m: Matrix):
    """(P, D): the monic least-degree annihilator of m as the monic int
    list P of the integer matrix M = D * m at its scale D, grown over the
    basis vectors.

    With p the annihilator of e_1, ..., e_(i-1), the annihilator of
    p(M) e_i (a Krylov chain of its own) times p is the lcm of p and the
    annihilator of e_i, so no polynomial gcd is taken; a basis vector with
    p(M) e_i = 0 is skipped, and the loop stops at degree n.  The product
    is taken in ints."""
    if not m.is_square():
        raise ValueError("minimal polynomial of a non-square matrix")
    n = m.rows
    scale, columns = _integer_columns(m)
    result = [1]
    for i in range(n):
        w = {i: 1}  # p(M) e_i by Horner's scheme; p is monic and integral
        for c in reversed(result[:-1]):
            w = _apply(columns, w)
            w[i] = w.get(i, 0) + c
        q = _krylov_chain(Echelon(2 * n), columns, w)
        if q is not None:
            result = _times(result, q)
            if len(result) == n + 1:
                break
    return result, scale


def char_poly(m: Matrix) -> Polynomial:
    """Characteristic polynomial det(xI - m), from `integer_char_poly`."""
    return Polynomial.from_scaled(*integer_char_poly(m))


def minimal_polynomial(m: Matrix) -> Polynomial:
    """Monic minimal polynomial of m, from `integer_minimal_polynomial`."""
    return Polynomial.from_scaled(*integer_minimal_polynomial(m))


class JordanDecomposition(NamedTuple):
    """Additive decomposition m = semisimple + nilpotent, both polynomials in m."""

    semisimple: Matrix
    nilpotent: Matrix
    # (F, D): the squarefree part of the minimal polynomial of m, which is
    # the minimal polynomial of the semisimple part, in the int form of
    # `integer_minimal_polynomial(m)` (F a tuple, so the value hashes)
    minpoly_form: tuple

    @property
    def semisimple_minpoly(self) -> Polynomial:
        return Polynomial.from_scaled(*self.minpoly_form)


def jordan_chevalley(m: Matrix) -> JordanDecomposition:
    """Newton iteration on the squarefree part f of the minimal polynomial.

    m is semisimple exactly when its minimal polynomial is squarefree;
    otherwise, starting from S = m, S <- S - f(S) * f'(S)^{-1} until
    f(S) = 0; f'(S) stays invertible because the iterates keep the
    spectrum of m and f is squarefree.  Terminates within ceil(log2 n) + 1
    steps.  f and f' are evaluated in the int form of f, F at the scale D
    of m, whose derivative D^(1 - deg) F'(D x) is f'.
    """
    if not m.is_square():
        raise ValueError("decomposition of a non-square matrix")
    n = m.rows
    P, scale = integer_minimal_polynomial(m)
    F = real_root_counter(P)[0]
    s = m
    if F != P:
        derivative = [i * c for i, c in enumerate(F) if i]
        fs = poly_of_matrix(F, scale, s)
        steps = 0
        limit = max(1, n).bit_length() + 2
        while not fs.is_zero():
            if steps >= limit:
                raise CheckFailed("Newton iteration failed to converge")
            s = s - fs * inverse(poly_of_matrix(derivative, scale, s))
            fs = poly_of_matrix(F, scale, s)
            steps += 1
    return JordanDecomposition(semisimple=s, nilpotent=m - s, minpoly_form=(tuple(F), scale))


def rational_spectrum(P: list, scale: int):
    """(quads, rest, real) for the monic int list P at scale D: the
    negative-discriminant quadratic factors of the squarefree part of P,
    that part with them divided out (each division checked exact), both
    as int lists at scale D, and whether every root of rest is real; rest
    may keep non-real roots of degree >= 3.

    One remainder sequence gives the squarefree part and the count of its
    real roots.  When all its roots are real there is no quadratic to
    search for; otherwise the quads are the negative-discriminant factors
    of one `split_factors`, with no real roots, so rest is real exactly
    when it held them all."""
    rest, count = real_root_counter(P)
    real_roots = count()
    if real_roots == len(rest) - 1:
        return [], rest, True
    quads = [f for f in split_factors(rest, scale)[0] if len(f) == 3 and f[1] ** 2 < 4 * f[0]]
    for q in quads:
        rest, remainder = pseudo_divmod(rest, q)
        if remainder:
            raise CheckFailed(f"conjugate-pair factor {q} does not divide {P} at scale {scale}")
    return quads, rest, real_roots == len(rest) - 1


def compact_part(s: Matrix) -> Matrix:
    """`integer_compact_part` of a semisimple s, from its minimal
    polynomial; raises ValueError when s is not semisimple."""
    if not s.is_square():
        raise ValueError("expected a square matrix")
    P, scale = integer_minimal_polynomial(s)
    if real_root_counter(P)[0] != P:
        raise ValueError("matrix is not semisimple (minimal polynomial not squarefree)")
    return integer_compact_part(s, P, scale)


def integer_compact_part(s: Matrix, P: list, scale: int) -> Matrix:
    """Imaginary-spectrum summand of a semisimple s with minimal polynomial
    p, given as the monic int list P at scale D: the sum of (s - a) Pr over
    the quadratic factors f = x^2 - 2a x + c of p, Pr the projector onto
    ker f(s) along ker h(s), h = p / f.

    As f and h are coprime, h(s) + f(s) is invertible and acts as h(s) on
    ker f(s), so Pr = h(s) (h(s) + f(s))^(-1).  The projectors of the
    quadratics and of the totally real block must resolve the identity.
    The factors of `rational_spectrum` and their cofactors from
    `pseudo_divmod` stay at scale D, where f has coefficient -2a D at x,
    and `poly_of_matrix` evaluates them at s.  The split part s minus the
    compact one is s on the totally real block and a times the identity on
    a quadratic block; both parts are polynomials in s, so they commute.
    Raises NotRationallySplittable when p has a non-real factor of degree
    >= 3.
    """
    n = s.rows
    compact = total = Matrix.zeros(n, n)
    if len(P) == 1:
        return compact
    quads, real_block, real = rational_spectrum(P, scale)
    if not real:
        raise NotRationallySplittable("minimal polynomial has a non-real factor of degree "
                                      f">= 3: {Polynomial.from_scaled(real_block, scale)}")
    for f in quads + ([real_block] if len(real_block) > 1 else []):
        h = poly_of_matrix(pseudo_divmod(P, f)[0], scale, s)
        try:
            projector = h * inverse(h + poly_of_matrix(f, scale, s))
        except ValueError:
            raise CheckFailed(f"primary factor {Polynomial.from_scaled(f, scale)} "
                              "is not coprime to its cofactor") from None
        total = total + projector
        if f is not real_block:
            compact = compact + s * projector + Fraction(f[1], 2 * scale) * projector
    if not total.is_identity():
        raise CheckFailed("primary projectors do not resolve the identity")
    return compact


def nilpotency_index(m: Matrix):
    """Least k with m^k = 0, or None when m is not nilpotent."""
    if not m.is_square():
        raise ValueError("expected a square matrix")
    n = m.rows
    if n == 0:
        return 0
    power = Matrix.identity(n)
    for k in range(n + 1):
        if power.is_zero():
            return k
        power = power * m
    return None


def exp_nilpotent(m: Matrix) -> Matrix:
    """Finite exponential series of a nilpotent matrix."""
    idx = nilpotency_index(m)
    if idx is None:
        raise ValueError("matrix is not nilpotent")
    n = m.rows
    acc = Matrix.identity(n)
    term = Matrix.identity(n)
    for k in range(1, idx):
        term = term * m * Fraction(1, k)
        acc = acc + term
    return acc


def log_unipotent(m: Matrix) -> Matrix:
    """Rational logarithm of a unipotent matrix via the finite series.

    Sum over k >= 1 of (-1)^(k+1) (m - I)^k / k, truncated at the nilpotency
    index; the finite exponential series inverts it exactly, which is
    checked before returning.
    """
    if not m.is_square():
        raise ValueError("expected a square matrix")
    n = m.rows
    nil = m - Matrix.identity(n)
    idx = nilpotency_index(nil)
    if idx is None:
        raise NotUnipotent("matrix minus identity is not nilpotent")
    acc = Matrix.zeros(n, n)
    term = Matrix.identity(n)
    for k in range(1, idx):
        term = term * nil
        acc = acc + Fraction((-1) ** (k + 1), k) * term
    if exp_nilpotent(acc) != m:
        raise CheckFailed("exp(log m) != m for the finite series")
    return acc


def perfect_square_root(x):
    """Rational square root when x is the square of a rational, else None."""
    x = Fraction(x)
    if x < 0:
        return None
    num, den = isqrt(x.numerator), isqrt(x.denominator)
    if num * num != x.numerator or den * den != x.denominator:
        return None
    return Fraction(num, den)
