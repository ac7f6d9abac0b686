"""Exact univariate polynomials over the rationals.

Coefficients are stored lowest degree first.  `Polynomial` provides exact
arithmetic and division; one remainder sequence per polynomial, the Sturm
chain, gives both its squarefree part and its real root count on any
rational interval (`real_root_counter`), and no other gcd is taken.  It runs on primitive int coefficient lists through one
sign-safe pseudo-remainder kernel, `pseudo_divmod`, which also divides by
the monic cyclotomic and quadratic candidates.  Rational roots are the
integer roots of the monic integral form `monic_integral`.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm

from .errors import CheckFailed
from .matrices import clear_denominators, rational


class Polynomial:
    """Dense rational polynomial; the zero polynomial has degree -1."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [rational(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @classmethod
    def monomial(cls, degree: int, coeff=1) -> "Polynomial":
        return cls((0,) * degree + (coeff,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (Fraction(0),) * (n - len(self.coeffs))
        b = other.coeffs + (Fraction(0),) * (n - len(other.coeffs))
        return Polynomial(x + y for x, y in zip(a, b))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __divmod__(self, other):
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        r = list(self.coeffs)
        d = other.degree
        lead = other.leading()
        while len(r) - 1 >= d and any(c != 0 for c in r):
            shift = len(r) - 1 - d
            factor = r[-1] / lead
            q[shift] = factor
            for i, b in enumerate(other.coeffs):
                r[shift + i] -= factor * b
            while r and r[-1] == 0:
                r.pop()
        return Polynomial(q), Polynomial(r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        lead = self.leading()
        return Polynomial(c / lead for c in self.coeffs)

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


def _coerce(p) -> Polynomial:
    if isinstance(p, Polynomial):
        return p
    return Polynomial((p,))


def _primitive(coeffs) -> list:
    """The primitive int coefficient list that is a positive multiple of
    the given ints or Fractions."""
    ints, _ = clear_denominators(coeffs)
    g = gcd(*ints.values()) or 1
    return [ints.get(i, 0) // g for i in range(len(coeffs))]


def pseudo_divmod(a: list, b: list):
    """(q, r) with |l|^k a = q b + r, deg r < deg b, for int coefficient
    lists (b nonzero with lead l, k the number of steps): each step scales
    by |l|, never by a sign, so q and r are positive multiples of the
    rational quotient and remainder, and equal to them for monic b."""
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


def _sturm_chain(p: Polynomial):
    """The remainder sequence p, p', -rem, ... as primitive int lists, each
    a positive multiple of the rational element, so of the same signs; its
    last element is gcd(p, p') up to a constant.  The only Euclidean loop
    of the package."""
    chain = [_primitive(p.coeffs)]
    rem = [-i * c for i, c in enumerate(chain[0]) if i]
    while rem:
        chain.append(_primitive([-c for c in rem]))
        rem = pseudo_divmod(chain[-2], chain[-1])[1] if len(chain[-1]) > 1 else []
    return chain


def _squarefree_chain(p: Polynomial):
    """`_sturm_chain(p)` divided elementwise by its last element, each again
    a primitive positive multiple: a Sturm chain of the squarefree part of
    p, its first element.  Consecutive elements are coprime and every
    division is exact, so it counts the distinct roots of p, also at
    endpoints that are multiple roots."""
    if p.is_zero():
        raise ValueError("root count of the zero polynomial")
    chain = _sturm_chain(p)
    if len(chain[-1]) == 1:  # p is squarefree: a constant divides nothing
        return chain
    return [_primitive(pseudo_divmod(q, chain[-1])[0]) for q in chain]


def squarefree_part(p: Polynomial) -> Polynomial:
    """p / gcd(p, p'), monic; the radical of p up to a constant."""
    return p if p.is_zero() else real_root_counter(p)[0]


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


def real_root_counter(p: Polynomial):
    """(s, count): the squarefree part s of p, made monic, and
    count(lower, upper), the number of distinct real roots of p in the open
    interval (lower, upper), None standing for an infinite endpoint; both
    come from one remainder sequence, a Sturm chain of s."""
    chain = _squarefree_chain(p)
    return Polynomial(chain[0]).monic(), functools.partial(_root_count, chain)


@functools.lru_cache(maxsize=None)
def cyclotomic(d: int) -> Polynomial:
    """d-th cyclotomic polynomial via x^d - 1 = prod over e | d of Phi_e."""
    if d < 1:
        raise ValueError("cyclotomic index must be positive")
    num = Polynomial.monomial(d) - Polynomial((1,))
    for e in range(1, d):
        if d % e == 0:
            num, r = divmod(num, cyclotomic(e))
            if not r.is_zero():
                raise CheckFailed(f"cyclotomic({e}) does not divide x^{d} - 1")
    return num


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


def cyclotomic_factors(p: Polynomial):
    """All (d, multiplicity) with Phi_d^multiplicity dividing p.

    Tries every d whose totient does not exceed deg p; d is bounded by
    2*(deg p)^2 because totient(d) >= sqrt(d/2).
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    deg = p.degree
    ints = _primitive(p.coeffs)
    found = []
    for d in range(1, max(2 * deg * deg, 1) + 1):
        if euler_totient(d) <= deg:
            phi = [c.numerator for c in cyclotomic(d).coeffs]
            mult = 0
            current = ints
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


def monic_integral(p: Polynomial):
    """(P, D): P(x) = D^n q(x / D) for q = p made monic of degree n, with
    D > 0 the least integer that makes P integral (q itself when D = 1).

    The roots of P are D times those of p, and P is monic, so its rational
    roots are integers.  D divides the lcm L of the denominators of q
    (L itself works), and it is usually much smaller: roots with
    denominator d in a factor of degree k give L up to d^k but need only
    D = d.  A small D keeps the integers of the divisor searches small.
    """
    q = p.monic()
    n = q.degree
    for d in integer_divisors(lcm(*(c.denominator for c in q.coeffs))):
        scaled = [c * d ** (n - i) for i, c in enumerate(q.coeffs)]
        if all(c.denominator == 1 for c in scaled):
            return (q if d == 1 else Polynomial(scaled)), d


def rational_roots(p: Polynomial):
    """All rational roots of p, ascending: the integer roots of P from
    `monic_integral(p)` divided by D.  A nonzero integer root of the monic
    integral P divides its lowest nonzero coefficient, and by Fujiwara's
    bound its size is at most 2 max |c_(n-i)|^(1/i) over the coefficients
    c_(n-i) of P below the leading one; 2^ceil(bits / i) bounds each term
    exactly, so the divisor search stops at the size of the roots, not at
    the square root of the coefficient."""
    if p.is_zero():
        raise ValueError("every rational is a root of the zero polynomial")
    big_p, den = monic_integral(p)
    coeffs = [int(c) for c in big_p.coeffs]
    low = next(c for c in coeffs if c)
    bound = 2 * max((1 << -(-abs(c).bit_length() // i)
                     for i, c in enumerate(reversed(coeffs[:-1]), 1)), default=0)
    candidates = [0] + [s * k for k in integer_divisors(low, bound) for s in (1, -1)]
    return sorted(Fraction(x, den) for x in candidates
                  if sum(c * x**i for i, c in enumerate(coeffs)) == 0)
