"""Exact univariate polynomials over the rationals, in one integer form.

Coefficients are stored lowest degree first.  Every spectral decision
runs on int coefficient lists: a monic int list P with a scale D >= 1
stands for the rational polynomial D^(-deg) P(D x), whose roots are
those of P divided by D; the Krylov kernel of `decompositions` hands out
the minimal and characteristic polynomials of a matrix m in this form,
P the polynomial of the integer matrix D m.  One remainder sequence per
polynomial, the Sturm chain, gives both its squarefree part and its real
root count on any rational interval (`real_root_counter`), and no other
gcd is taken; it runs on primitive int lists through one sign-safe
pseudo-remainder kernel, `pseudo_divmod`, which also does every exact
division.  One factor search, `split_factors`, finds the linear and the
irreducible quadratic factors of a squarefree P for every spectral
decision: the integer roots of P at its least scale (`least_scale`),
then the quadratics of either discriminant sign of their cofactor.
`Polynomial` is the value a reader gets, built from the int form by
`Polynomial.from_scaled`; it does no arithmetic.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd, isqrt

from .errors import CheckFailed
from .matrices import rational


class Polynomial:
    """Dense rational polynomial, the value a reader gets; the zero
    polynomial has degree -1.  It does no arithmetic: every computation
    runs on the int form, and `from_scaled` builds the value from it."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [rational(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def from_scaled(cls, P: list, scale: int) -> "Polynomial":
        """D^(-deg) P(D x) for the int list P at scale D: coefficient
        P_i / D^(deg - i) at x^i."""
        deg = len(P) - 1
        return cls(Fraction(c, scale ** (deg - i)) for i, c in enumerate(P))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                body = str(abs(c))
            else:
                mag = abs(c)
                head = "" if mag == 1 else f"{mag}*"
                body = f"{head}x" if i == 1 else f"{head}x^{i}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms)

    def __repr__(self):
        return f"Polynomial({self})"


def _primitive(c: list) -> list:
    """The primitive int list that is a positive multiple of the ints c."""
    g = gcd(*c) or 1
    return [x // g for x in c]


def pseudo_divmod(a: list, b: list):
    """(q, r) with |l|^k a = q b + r, deg r < deg b, for int coefficient
    lists (b nonzero with lead l, k the number of steps): each step scales
    by |l|, never by a sign, so q and r are positive multiples of the
    rational quotient and remainder, and equal to them for monic b."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r, d, m = list(a), len(b) - 1, abs(b[-1])
    q = [0] * max(0, len(r) - d)
    while len(r) > d:
        shift, f = len(r) - 1 - d, r[-1] if b[-1] > 0 else -r[-1]
        if m != 1:
            r, q = [m * c for c in r], [m * c for c in q]
        q[shift] = f
        for i, c in enumerate(b):
            r[shift + i] -= f * c
        while r and r[-1] == 0:
            r.pop()
    return q, r


def _value(c: list, a: int, b: int) -> int:
    """The homogenised value sum c_i a^i b^(n - i), n = deg c: b^n c(a / b),
    with the sign of c(a / b) for b > 0."""
    acc, power = 0, 1
    for x in reversed(c):
        acc, power = acc * a + x * power, power * b
    return acc


def _sturm_chain(P: list):
    """The remainder sequence P, P', -rem, ... of a nonzero int list as
    primitive int lists, each a positive multiple of the rational element,
    so of the same signs; its last element is gcd(P, P') up to a constant.
    The only Euclidean loop of the package."""
    chain = [_primitive(P)]
    rem = [-i * c for i, c in enumerate(chain[0]) if i]
    while rem:
        chain.append(_primitive([-c for c in rem]))
        rem = pseudo_divmod(chain[-2], chain[-1])[1] if len(chain[-1]) > 1 else []
    return chain


def _squarefree_chain(P: list):
    """`_sturm_chain(P)` divided elementwise by its last element, each again
    primitive, and negated as a whole when that makes its first element's
    lead positive: a Sturm chain of the squarefree part of P, its first
    element (monic for a monic P, by Gauss's lemma).  Consecutive elements
    are coprime and every division is exact, so it counts the distinct
    roots of P, also at endpoints that are multiple roots; dividing or
    negating every element alike changes no sign variation."""
    if not any(P):
        raise ValueError("root count of the zero polynomial")
    chain = _sturm_chain(P)
    if len(chain[-1]) > 1:  # a constant gcd divides nothing
        chain = [_primitive(pseudo_divmod(q, chain[-1])[0]) for q in chain]
    return chain if chain[0][-1] > 0 else [[-c for c in q] for q in chain]


def _chain_signs_at(chain, a: int, b: int) -> int:
    """Sign variations at a / b, b > 0; (-1, 0) and (1, 0) stand for -oo, +oo."""
    values = [v for v in (_value(q, a, b) for q in chain) if v]
    return sum(1 for v, w in zip(values, values[1:]) if (v > 0) != (w > 0))


def _root_count(chain, lower=None, upper=None) -> int:
    lo = (-1, 0) if lower is None else Fraction(lower).as_integer_ratio()
    hi = (1, 0) if upper is None else Fraction(upper).as_integer_ratio()
    if lower is not None and upper is not None and lo[0] * hi[1] >= hi[0] * lo[1]:
        return 0
    count = _chain_signs_at(chain, *lo) - _chain_signs_at(chain, *hi)  # on (lower, upper]
    if _value(chain[0], *hi) == 0:  # never at infinity, where it is the lead
        count -= 1
    return count


def real_root_counter(P: list):
    """(S, count) for a nonzero int coefficient list P: its squarefree part
    S, a primitive int list with positive lead (monic when P is), and
    count(lower, upper), the number of distinct real roots of P in the
    open interval (lower, upper), None standing for an infinite endpoint;
    both come from one remainder sequence, a Sturm chain of S."""
    chain = _squarefree_chain(P)
    return chain[0], functools.partial(_root_count, chain)


@functools.lru_cache(maxsize=None)
def cyclotomic(d: int) -> tuple:
    """The d-th cyclotomic polynomial as an int coefficient tuple, via
    x^d - 1 = prod over e | d of Phi_e."""
    if d < 1:
        raise ValueError("cyclotomic index must be positive")
    num = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            num, r = pseudo_divmod(num, cyclotomic(e))
            if r:
                raise CheckFailed(f"cyclotomic({e}) does not divide x^{d} - 1")
    return tuple(num)


def euler_totient(d: int) -> int:
    result = d
    m = d
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def cyclotomic_factors(P: list):
    """All (d, multiplicity) with Phi_d^multiplicity dividing the nonzero
    int coefficient list P.

    Tries every d whose totient does not exceed deg P; d is bounded by
    2*(deg P)^2 because totient(d) >= sqrt(d/2).
    """
    if not any(P):
        raise ValueError("zero polynomial")
    deg = len(P) - 1
    found = []
    for d in range(1, max(2 * deg * deg, 1) + 1):
        if euler_totient(d) <= deg:
            phi = cyclotomic(d)
            mult = 0
            current = P
            while len(current) >= len(phi):
                q, r = pseudo_divmod(current, phi)
                if r:
                    break
                mult += 1
                current = q
            if mult:
                found.append((d, mult))
    return found


def integer_divisors(n: int, limit=None):
    """All positive divisors of |n| up to limit (every one when None),
    ascending; n must be nonzero.  Trial division runs to the smaller of
    sqrt(|n|) and limit."""
    n = abs(n)
    if n == 0:
        raise ValueError("divisors of zero")
    limit = n if limit is None else limit
    small, large = [], []
    d = 1
    while d * d <= n and d <= limit:
        if n % d == 0:
            small.append(d)
            if d != n // d and n // d <= limit:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _integer_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for ints n >= 1 and k >= 1, by Newton's method in ints."""
    x = 1 << -(-n.bit_length() // k)  # at least the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _least_root(q: int) -> int:
    """The r with q = r^j for the largest j."""
    j = 2
    while j <= q.bit_length():
        r = _integer_root(q, j)
        if r ** j == q:
            q, j = r, 2
        else:
            j += 1
    return q


def _coprime_base(numbers) -> list:
    """Pairwise coprime ints > 1 whose products of powers give every one of
    the positive ints numbers: factor refinement by gcds alone (Bach,
    Driscoll and Shallit).  A number that shares g > 1 with a base element
    b is replaced, with b, by g, a / g and b / g, which lowers the product
    of everything left to place."""
    base, todo = [], [n for n in numbers if n > 1]
    while todo:
        a = todo.pop()
        for t, b in enumerate(base):
            g = gcd(a, b)
            if g > 1:
                del base[t]
                todo += [x for x in (g, a // g, b // g) if x > 1]
                break
        else:
            base.append(a)
    return base


_TRIAL_DIVISION_LIMIT = 2**10


def least_scale(P: list, scale: int):
    """(Q, d): the monic int list P at scale D rewritten at the least scale
    d that keeps it integral, D^(-deg) P(D x) = d^(-deg) Q(d x), so
    Q_i = P_i / e^(deg - i) with e = D / d.

    With m_i the denominator of P_i / D^(deg - i), a coefficient of the
    rational polynomial, d is integral exactly when m_i divides
    d^(deg - i), so the least d has the exponent max_i ceil(v_p(m_i) /
    (deg - i)) at each prime p, and divides D.  The primes of D below
    _TRIAL_DIVISION_LIMIT are found by trial division; the rest of D and of
    the m_i is split into a coprime base by gcds, each element replaced by
    its least root, and taken as a prime.  That is exact when each such
    element is a power of a squarefree int, always for a prime, and a
    valid scale dividing D otherwise.  Roots with denominator d in a factor
    of degree k give m_i up to d^k but need only d, and a small d keeps the
    integers of the divisor searches small.
    """
    deg = len(P) - 1
    dens = [(scale ** k // gcd(c, scale ** k), k) for k, c in zip(range(deg, 0, -1), P)]
    dens = [(m, k) for m, k in dens if m > 1]
    primes, rest, p = [], scale if dens else 1, 2
    while p < _TRIAL_DIVISION_LIMIT and p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:  # coprime to the small primes: their parts of the m_i
        primes += {_least_root(q) for q in _coprime_base(
            [rest] + [gcd(m, rest ** k) for m, k in dens])}
    d = 1
    for p in primes:
        need = 0
        for m, k in dens:
            e = 0
            while m % p == 0:
                m, e = m // p, e + 1
            need = max(need, -(-e // k))
        d *= p ** need
    e = scale // d
    Q = [c // e ** (deg - i) for i, c in enumerate(P)]
    if scale % d or any(c != x * e ** (deg - i) for i, (c, x) in enumerate(zip(P, Q))):
        raise CheckFailed(f"least scale {d} of {P} at scale {scale} is not integral")
    return Q, d


def root_bound(coeffs: list) -> int:
    """An int R >= |z| for every complex root z of the monic int list
    coeffs: Fujiwara's 2 max |c_(n-i)|^(1/i) over the coefficients below
    the lead, with 2^ceil(bits / i) bounding each term exactly."""
    return 2 * max((1 << -(-abs(c).bit_length() // i)
                    for i, c in enumerate(reversed(coeffs[:-1]), 1)), default=0)


def split_factors(P: list, scale: int, limit=None):
    """(factors, rest) for the monic squarefree int list P at scale D: the
    linear factors of P by ascending root, then its irreducible quadratic
    factors, of either discriminant sign, by (x-coefficient, constant
    term), all int lists at scale D; and P divided by them.  The one
    factor search of the package.

    It runs on Q from `least_scale(P, D) = (Q, d)`, whose monic factors
    are integral by Gauss's lemma; every division is taken there and
    checked exact, and a list of degree k at scale d, its coefficient at
    x^i times e^(k - i), e = D / d, is the same polynomial at scale D.  A
    nonzero integer root of Q divides its lowest nonzero coefficient and
    is at most R = `root_bound(Q)` in size.  The cofactor of the roots has
    no rational root: of degree 2 it is irreducible unless its
    discriminant is a square, of degree 3 it has no quadratic factor, and
    of degree 4 or more `_quadratic_search` searches it.  Without a limit
    the search is complete; a limit caps every divisor search, and a
    factor beyond it stays in rest."""
    if not P or P[-1] != 1:
        raise ValueError("expected a monic polynomial")
    Q, d = least_scale(P, scale)
    R = root_bound(Q)
    low = next(c for c in Q if c)
    candidates = [0] + [s * k for k in integer_divisors(low, R if limit is None else min(R, limit))
                        for s in (1, -1)]

    def divide(rest, factors):
        for f in factors:
            rest, remainder = pseudo_divmod(rest, f)
            if remainder:
                raise CheckFailed(f"factor {f} at scale {d} does not divide {P} at scale {scale}")
        return rest

    found = [[-x, 1] for x in sorted(candidates) if not _value(Q, x, 1)]
    rest = divide(Q, found)
    if len(rest) == 3:
        disc = rest[1] * rest[1] - 4 * rest[0]
        quads = [rest] if disc < 0 or isqrt(disc) ** 2 != disc else []
    else:
        quads = _quadratic_search(rest, min(R, root_bound(rest)), limit) if len(rest) > 4 else []
    e = scale // d
    at_scale = [[c * e ** (len(f) - 1 - i) for i, c in enumerate(f)]
                for f in found + quads + [divide(rest, quads)]]
    return at_scale[:-1], at_scale[-1]


def _quadratic_search(q: list, R: int, limit):
    """The monic irreducible quadratics x^2 - B x + C, by (-B, C), dividing
    the monic int list q of degree >= 4, its roots at most R in size and
    its integer roots up to any cap divided out, so q(0) q(1) != 0.  A
    factor f satisfies f(1) | q(1) != 0 and C | q(0),
    with |C| = |z z'| <= R^2 and |f(1)| = |1 - z| |1 - z'| <= (1 + R)^2, z
    and z' the roots of f; |B| = |z + z'| <= 2R puts f(1) = 1 - B + C
    within 2R of 1 + C.  Each candidate is checked by exact division;
    limit caps both divisor searches."""
    q_1, bound = sum(q), (1 + R) ** 2
    deltas = integer_divisors(q_1, bound if limit is None else min(bound, limit))
    # a candidate f divides q(u) by f(u) != 0 at every integer u outside the
    # disk of radius R that holds the roots: checked at three such points,
    # where f(u) is large, before any division
    points = [(u, _value(q, u, 1)) for u in (R + 1, -R - 1, 2 * R + 3)]
    found = []
    for c_abs in integer_divisors(q[0], R * R if limit is None else min(R * R, limit)):
        for big_c in (c_abs, -c_abs):
            lo, hi = 1 + big_c - 2 * R, 1 + big_c + 2 * R
            near = deltas[bisect_left(deltas, lo):bisect_right(deltas, hi)]
            for delta in near + [-x for x in deltas[bisect_left(deltas, -hi):
                                                     bisect_right(deltas, -lo)]]:
                big_b = 1 + big_c - delta
                disc = big_b * big_b - 4 * big_c
                if disc >= 0 and isqrt(disc) ** 2 == disc:
                    continue
                if any(v % (u * u - big_b * u + big_c) for u, v in points):
                    continue
                cand = [big_c, -big_b, 1]
                if cand not in found and not pseudo_divmod(q, cand)[1]:
                    found.append(cand)
    return sorted(found, key=lambda f: (f[1], f[0]))
