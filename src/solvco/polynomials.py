"""Exact univariate polynomials over the rationals.

Coefficients are stored lowest degree first.  Provides the Euclidean
toolkit (gcd, exact division), squarefree parts, Sturm-chain real root
counting on arbitrary rational intervals, and cyclotomic factor detection
by trial division.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import lcm

from .errors import CheckFailed


class Polynomial:
    """Dense rational polynomial; the zero polynomial has degree -1."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [Fraction(c) for c in coeffs]
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

    def divides(self, other: "Polynomial") -> bool:
        return (other % self).is_zero()

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

    def shift_scale(self, scale: Fraction) -> "Polynomial":
        """p(scale * x), useful for rescaling eigenvalues."""
        scale = Fraction(scale)
        return Polynomial(c * scale**i for i, c in enumerate(self.coeffs))

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


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd via the Euclidean algorithm."""
    while not b.is_zero():
        r = a % b
        a, b = b, r.monic()
    return a.monic() if not a.is_zero() else a


def poly_extended_gcd(a: Polynomial, b: Polynomial):
    """(g, u, v) with u*a + v*b = g, g monic."""
    r0, r1 = a, b
    s0, s1 = Polynomial((1,)), Polynomial()
    t0, t1 = Polynomial(), Polynomial((1,))
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    lead = r0.leading()
    inv = Polynomial((1 / lead,))
    return r0.monic(), inv * s0, inv * t0


def squarefree_part(p: Polynomial) -> Polynomial:
    """p / gcd(p, p'), monic; the radical of p up to a constant."""
    if p.is_zero() or p.degree == 0:
        return p.monic() if not p.is_zero() else p
    g = poly_gcd(p, p.derivative())
    return (p // g).monic()


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _sturm_chain(p: Polynomial):
    chain = [p, p.derivative()]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        rem = chain[-2] % chain[-1]
        if rem.is_zero():
            break
        chain.append(-rem)
    return [q for q in chain if not q.is_zero()]


def _variations(signs) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _chain_signs_at(chain, x) -> int:
    return _variations([_sign(q(x)) for q in chain])


def _chain_signs_at_infinity(chain, positive: bool) -> int:
    signs = []
    for q in chain:
        s = _sign(q.leading())
        if not positive and q.degree % 2 == 1:
            s = -s
        signs.append(s)
    return _variations(signs)


def sturm_real_root_count(p: Polynomial, lower=None, upper=None) -> int:
    """Number of distinct real roots of p in the open interval (lower, upper).

    None stands for an infinite endpoint.  The squarefree part is taken
    internally, so multiple roots are counted once.
    """
    p = squarefree_part(p)
    if p.is_zero():
        raise ValueError("root count of the zero polynomial")
    if p.degree == 0:
        return 0
    if lower is not None and upper is not None and Fraction(lower) >= Fraction(upper):
        return 0
    chain = _sturm_chain(p)
    va = (_chain_signs_at_infinity(chain, positive=False) if lower is None
          else _chain_signs_at(chain, Fraction(lower)))
    vb = (_chain_signs_at_infinity(chain, positive=True) if upper is None
          else _chain_signs_at(chain, Fraction(upper)))
    count = va - vb  # roots in the half-open interval (lower, upper]
    if upper is not None and p(Fraction(upper)) == 0:
        count -= 1
    return count


def is_totally_real(p: Polynomial, lower=None) -> bool:
    """True when every complex root of p is real and, for a rational lower,
    greater than lower (None stands for minus infinity, as in
    `sturm_real_root_count`)."""
    q = squarefree_part(p)
    return q.degree <= 0 or sturm_real_root_count(q, lower) == q.degree


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
    found = []
    d = 1
    while d <= max(2 * deg * deg, 1):
        if euler_totient(d) <= deg:
            phi = cyclotomic(d)
            mult = 0
            current = p
            while current.degree >= phi.degree:
                q, r = divmod(current, phi)
                if not r.is_zero():
                    break
                mult += 1
                current = q
            if mult:
                found.append((d, mult))
        d += 1
    return found


def integer_divisors(n: int):
    """All positive divisors of |n|, ascending; n must be nonzero."""
    n = abs(n)
    if n == 0:
        raise ValueError("divisors of zero")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def denominator_lcm(values) -> int:
    """Least common multiple of the denominators of rationals (1 for none)."""
    return lcm(*(x.denominator for x in values))


def rational_roots(p: Polynomial):
    """All rational roots of p, ascending, found by divisor enumeration."""
    if p.is_zero():
        raise ValueError("every rational is a root of the zero polynomial")
    zero_root = p.coeffs[0] == 0 if p.coeffs else False
    q = p
    while not q.is_zero() and q.coeffs[0] == 0:
        q = Polynomial(q.coeffs[1:])
    roots = set()
    if zero_root:
        roots.add(Fraction(0))
    if q.degree >= 1:
        mult = denominator_lcm(q.coeffs)
        a0 = int(q.coeffs[0] * mult)
        an = int(q.leading() * mult)
        for num in integer_divisors(a0):
            for den in integer_divisors(an):
                for cand in (Fraction(num, den), Fraction(-num, den)):
                    if cand not in roots and q(cand) == 0:
                        roots.add(cand)
    return sorted(roots)
