"""Matrix decompositions over the rationals.

Minimal and characteristic polynomials come from one integer Krylov
kernel: m is scaled once to the integer matrix M = D * m (D the least
common denominator of its entries), Krylov vectors are iterated in Python
ints and eliminated in an `Echelon` whose int remainders give the
annihilators, these are multiplied as int coefficient lists, and the
monic integral polynomial found for M is rescaled once to the
`Polynomial` D^(-deg) p_M(D x).  The additive
semisimple/nilpotent decomposition is the Newton iteration on the
squarefree part of the minimal polynomial.  The imaginary-spectrum
(compact) part of a semisimple operator, `compact_part`, is built from one
projector h(s) (h(s) + f(s))^(-1) per factor f of its minimal polynomial
p, h = p / f: the negative-discriminant quadratics and the totally real
block, which `rational_spectrum` splits off for every spectral decision of
the package; the real-spectrum (split) part is the operator minus it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import CheckFailed, NotRationallySplittable, NotUnipotent
from .matrices import Echelon, Matrix, inverse
from .polynomials import (
    Polynomial,
    integer_divisors,
    monic_integral,
    pseudo_divmod,
    real_root_counter,
    squarefree_part,
)


def poly_of_matrix(p: Polynomial, m: Matrix) -> Matrix:
    """Evaluate p at a square matrix by Horner's scheme."""
    if not m.is_square():
        raise ValueError("polynomial of a non-square matrix")
    n = m.rows
    acc = Matrix.zeros(n, n)
    for c in reversed(p.coeffs):
        acc = acc * m + c * Matrix.identity(n)
    return acc


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


def _krylov_chain(krylov: Echelon, columns, v: dict):
    """Relative annihilator of v modulo the span W of the echelon (an
    M-invariant subspace): the coefficient list, lowest degree first, of
    the monic integer polynomial q of least degree with q(M) v in W; None
    when v lies in W.

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


def _rescaled(p: list, scale: int) -> Polynomial:
    """The monic D^(-deg) p(D x) of the monic int list p of M = D * m, the
    polynomial of m: coefficient c_i / D^(deg - i) at x^i."""
    deg = len(p) - 1
    return Polynomial(Fraction(c, scale ** (deg - i)) for i, c in enumerate(p))


def char_poly(m: Matrix) -> Polynomial:
    """Characteristic polynomial det(xI - m) from Krylov chains.

    With M = D * m integral, chains of e_1, ..., e_n that are not yet in the
    span fill the space; each contributes its relative annihilator, the
    characteristic polynomial of M on the quotient its chain spans, and
    their product, taken in ints, is that of M.  One echelon of width 2n
    holds every chain."""
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
    return _rescaled(result, scale)


def minimal_polynomial(m: Matrix) -> Polynomial:
    """Monic least-degree annihilator, grown over the basis vectors.

    With M = D * m integral and p the annihilator of e_1, ..., e_(i-1), the
    annihilator of p(M) e_i (a Krylov chain of its own) times p is the lcm
    of p and the annihilator of e_i, so no polynomial gcd is taken; a basis
    vector with p(M) e_i = 0 is skipped, and the loop stops at degree n.
    The product is taken in ints."""
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
    return _rescaled(result, scale)


@dataclass(frozen=True)
class JordanDecomposition:
    """Additive decomposition m = semisimple + nilpotent, both polynomials in m."""

    semisimple: Matrix
    nilpotent: Matrix
    # the squarefree part of the minimal polynomial of m, which is the
    # minimal polynomial of the semisimple part
    semisimple_minpoly: Polynomial


def jordan_chevalley(m: Matrix) -> JordanDecomposition:
    """Newton iteration on the squarefree part f of the minimal polynomial.

    Starting from S = m, S <- S - f(S) * f'(S)^{-1} until f(S) = 0; f'(S)
    stays invertible because the iterates keep the spectrum of m and f is
    squarefree.  Terminates within ceil(log2 n) + 1 steps.
    """
    if not m.is_square():
        raise ValueError("decomposition of a non-square matrix")
    n = m.rows
    f = squarefree_part(minimal_polynomial(m))
    s = m
    fs = poly_of_matrix(f, s)
    steps = 0
    limit = max(1, n).bit_length() + 2
    while not fs.is_zero():
        if steps >= limit:
            raise CheckFailed("Newton iteration failed to converge")
        s = s - fs * inverse(poly_of_matrix(f.derivative(), s))
        fs = poly_of_matrix(f, s)
        steps += 1
    return JordanDecomposition(semisimple=s, nilpotent=m - s, semisimple_minpoly=f)


def complex_quadratic_factors(p: Polynomial):
    """Monic quadratics x^2 - b x + c with b^2 < 4c dividing p.

    p must be monic and squarefree.  The search runs on the monic integral
    P = D^deg p(x / D) of `monic_integral`, whose monic factors are integral
    by Gauss's lemma; a factor x^2 - B x + C of P is x^2 - (B/D) x + C/D^2
    of p.  Integer candidates x^2 - B x + C come from the divisors of P's
    constant term (after a root at zero is divided out) and of P(t), t the
    least positive integer with P(t) != 0 (any factor q satisfies
    q(t) | P(t)); each candidate is verified by exact division in ints, so
    the search is complete and sound.
    """
    if p.is_zero() or p.leading() != 1:
        raise ValueError("expected a monic polynomial")
    big_p, den = monic_integral(p)
    q = [c.numerator for c in big_p.coeffs]
    q = q[1:] if q[0] == 0 else q  # squarefree, so at most one root at zero
    if len(q) < 3:
        return []
    t = 1
    while not (q_t := sum(c * t**i for i, c in enumerate(q))):
        t += 1
    deltas = integer_divisors(q_t)
    found = []
    for big_c in integer_divisors(q[0]):
        for delta_abs in deltas:
            for delta in (delta_abs, -delta_abs):
                num = t * t + big_c - delta
                if num % t != 0:
                    continue
                big_b = num // t
                if big_b * big_b >= 4 * big_c:
                    continue
                cand = [big_c, -big_b, 1]
                if cand not in found and not pseudo_divmod(q, cand)[1]:
                    found.append(cand)
    found.sort(key=lambda f: (f[1], f[0]))
    return [Polynomial((Fraction(c, den**2), Fraction(b, den), 1)) for c, b, _ in found]


def rational_spectrum(p: Polynomial):
    """(quads, rest, real): the negative-discriminant quadratic factors of
    the squarefree part of p, that part with them divided out (each
    division checked exact), and whether every root of rest is real; rest
    may keep non-real roots of degree >= 3.

    One remainder sequence gives the squarefree part and the count of its
    real roots.  When all its roots are real there is no quadratic to
    search for; otherwise the quads have no real roots, so rest is real
    exactly when it holds them all."""
    rest, count = real_root_counter(p)
    real_roots = count()
    if real_roots == rest.degree:
        return [], rest, True
    quads = complex_quadratic_factors(rest)
    for q in quads:
        rest, remainder = divmod(rest, q)
        if not remainder.is_zero():
            raise CheckFailed(f"conjugate-pair factor {q} does not divide {p}")
    return quads, rest, real_roots == rest.degree


def compact_part(s: Matrix, p: Polynomial | None = None) -> Matrix:
    """Imaginary-spectrum summand of a semisimple s: the sum of (s - a) P
    over the quadratic factors f = x^2 - 2a x + c of its minimal polynomial
    p (computed when omitted), P the projector onto ker f(s) along ker h(s),
    h = p / f.

    As f and h are coprime, h(s) + f(s) is invertible and acts as h(s) on
    ker f(s), so P = h(s) (h(s) + f(s))^(-1).  The projectors of the
    quadratics and of the totally real block must resolve the identity.
    The split part s minus the compact one is s on the totally real block
    and a times the identity on a quadratic block; both parts are
    polynomials in s, so they commute.  Raises NotRationallySplittable when
    p has a non-real factor of degree >= 3.
    """
    if not s.is_square():
        raise ValueError("expected a square matrix")
    if p is None:
        p = minimal_polynomial(s)
        if squarefree_part(p) != p:
            raise ValueError("matrix is not semisimple (minimal polynomial not squarefree)")
    n = s.rows
    compact = total = Matrix.zeros(n, n)
    if p.degree == 0:
        return compact
    quads, real_block, real = rational_spectrum(p)
    if not real:
        raise NotRationallySplittable(
            f"minimal polynomial has a non-real factor of degree >= 3: {real_block}"
        )
    for f in quads + ([real_block] if real_block.degree >= 1 else []):
        h = poly_of_matrix(p // f, s)
        try:
            projector = h * inverse(h + poly_of_matrix(f, s))
        except ValueError:
            raise CheckFailed(f"primary factor {f} is not coprime to its cofactor") from None
        total = total + projector
        if f is not real_block:
            compact = compact + (s + f.coeffs[1] / 2 * Matrix.identity(n)) * projector
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
