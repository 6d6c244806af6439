"""Exact arithmetic layer: number-theoretic helpers, integer polynomials,
cyclotomic values, and an exact rational linear solver.

Everything here works over arbitrary-precision integers and
``fractions.Fraction``; no floating point anywhere.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import ModmultError


class InconsistentSystem(ModmultError):
    """Raised when a linear system A x = b has no solution."""


def _prime_factors(n: int) -> list[int]:
    ps = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            ps.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        ps.append(n)
    return ps


def mobius(n: int) -> int:
    """Moebius function mu(n)."""
    if n < 1:
        raise ValueError("n must be positive")
    result = 1
    for p in _prime_factors(n):
        if n % (p * p) == 0:
            return 0
        result = -result
    return result


def euler_phi(n: int) -> int:
    """Euler totient phi(n)."""
    if n < 1:
        raise ValueError("n must be positive")
    result = n
    for p in _prime_factors(n):
        result = result // p * (p - 1)
    return result


# ---------------------------------------------------------------------------
# Integer polynomials, stored as tuples of coefficients in ascending degree.
# The zero polynomial is the empty tuple.

def poly_trim(coeffs) -> tuple[int, ...]:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_trim(out)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """The n-th cyclotomic polynomial, prod_{d | n} (x^d - 1)^mu(n/d): the
    factors with mu = 1 are multiplied out, then each factor with mu = -1
    is divided out exactly, as q = p / (x^d - 1) has q[i] = q[i-d] - p[i]."""
    if n < 1:
        raise ValueError("n must be positive")
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    p = (1,)
    for d in divisors:
        if mobius(n // d) == 1:
            p = poly_mul(p, (-1,) + (0,) * (d - 1) + (1,))
    for d in divisors:
        if mobius(n // d) == -1:
            q = []
            for i in range(len(p) - d):
                q.append((q[i - d] if i >= d else 0) - p[i])
            p = tuple(q)
    return p


def reduce_cyclotomic(n: int, coeffs: list) -> tuple:
    """Coordinates in the power basis 1, zeta_n, ..., zeta_n^(phi(n)-1) of
    sum_j coeffs[j] * zeta_n^j over the n entries of coeffs, which may be
    ints or Fractions; coeffs is overwritten."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    for i in range(n - 1, deg - 1, -1):
        f = coeffs[i]
        if f:
            for t in range(deg):
                coeffs[i - deg + t] -= f * phi[t]
    return tuple(coeffs[:deg])


# ---------------------------------------------------------------------------
# Cyclotomic values: exact elements of Q(zeta_n).

class CycloValue:
    """An exact element of Q(zeta_n), stored as sum_j coeffs[j] * zeta_n^j.

    Equality is decided by canonical reduction modulo the n-th cyclotomic
    polynomial, never by raw coefficient comparison.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=None):
        if order < 1:
            raise ValueError("order must be positive")
        self.order = order
        d: dict[int, Fraction] = {}
        for j, c in (coeffs or {}).items():
            d[j % order] = d.get(j % order, 0) + Fraction(c)
        self.coeffs = {j: c for j, c in d.items() if c}

    @classmethod
    def from_rational(cls, q) -> "CycloValue":
        return cls(1, {0: Fraction(q)})

    def lift(self, m: int) -> "CycloValue":
        """Rewrite in Q(zeta_m) for a multiple m of the current order."""
        if m % self.order:
            raise ValueError("can only lift to a multiple of the order")
        f = m // self.order
        return CycloValue(m, {j * f: c for j, c in self.coeffs.items()})

    def _pair(self, other):
        if not isinstance(other, CycloValue):
            other = CycloValue.from_rational(other)
        m = lcm(self.order, other.order)
        return self.lift(m), other.lift(m)

    def __add__(self, other):
        a, b = self._pair(other)
        out = dict(a.coeffs)
        for j, c in b.coeffs.items():
            out[j] = out.get(j, Fraction(0)) + c
        return CycloValue(a.order, out)

    __radd__ = __add__

    def __mul__(self, other):
        a, b = self._pair(other)
        out: dict[int, Fraction] = {}
        for i, x in a.coeffs.items():
            for j, y in b.coeffs.items():
                k = (i + j) % a.order
                out[k] = out.get(k, Fraction(0)) + x * y
        return CycloValue(a.order, out)

    __rmul__ = __mul__

    def reduced(self) -> tuple[Fraction, ...]:
        """Coordinates in the power basis 1, zeta, ..., zeta^(phi(n)-1)."""
        rem = [Fraction(0)] * self.order
        for j, c in self.coeffs.items():
            rem[j] += c
        return reduce_cyclotomic(self.order, rem)

    def rational_part(self) -> Fraction | None:
        """The value as a Fraction if it is rational, else None."""
        r = self.reduced()
        if any(r[1:]):
            return None
        return r[0]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloValue.from_rational(other)
        if not isinstance(other, CycloValue):
            return NotImplemented
        a, b = self._pair(other)
        return a.reduced() == b.reduced()

    __hash__ = None

    def __repr__(self):
        if not self.coeffs:
            return "CycloValue(0)"
        terms = " + ".join(f"{c}*z{self.order}^{j}" for j, c in sorted(self.coeffs.items()))
        return f"CycloValue({terms})"


def integer_rows(rows):
    """Rows of CycloValues as integer vectors in Z[x]/(x^m - 1).

    Returns (m, int_rows, den): m is the lcm of the value orders, den the
    least common denominator of every coefficient, and the value in row r,
    column c is sum a * zeta_m^j / den over the (j, a) pairs of
    int_rows[r][c].  Rows may share value objects, as a built-in table's
    rows share its roots of unity: each distinct object is lifted once.
    """
    distinct = {id(v): v for row in rows for v in row}
    m = lcm(*{v.order for v in distinct.values()})
    den = lcm(*{c.denominator for v in distinct.values()
                for c in v.coeffs.values()})
    lifted = {i: tuple((j * (m // v.order), c.numerator * (den // c.denominator))
                       for j, c in v.coeffs.items())
              for i, v in distinct.items()}
    return m, [tuple([lifted[id(v)] for v in row]) for row in rows], den


# ---------------------------------------------------------------------------
# Exact linear solver.

def solve_linear_exact(A, b):
    """Solve the square, nonsingular system A x = b exactly over the
    rationals; a non-square or singular A, or a b of another length,
    raises ValueError.

    Gauss-Jordan elimination without fractions, in the manner of Bareiss
    (Math. Comp. 22, 1968): each augmented row is scaled to integers by the
    lcm of its denominators, and a row is cleared as pv * row - f * pivot_row
    and divided by the gcd of its entries.  Every row stays a nonzero
    multiple of the row rational elimination would hold, so the pivots and
    the solution are the same; one Fraction is built per variable.
    """
    n = len(A)
    if len(b) != n:
        raise ValueError("dimension mismatch")
    if any(len(row) != n for row in A):
        raise ValueError("matrix is not square")
    M = [_integer_row([*row, b[i]]) for i, row in enumerate(A)]
    for col in range(n):
        sel = next((i for i in range(col, n) if M[i][col]), None)
        if sel is None:
            raise ValueError("singular matrix")
        M[col], M[sel] = M[sel], M[col]
        pivot_row = M[col]
        pv = pivot_row[col]
        for i in range(n):
            f = M[i][col]
            if i != col and f:
                row = [pv * x - f * y for x, y in zip(M[i], pivot_row)]
                g = gcd(*row)
                M[i] = [x // g for x in row] if g > 1 else row
    return [Fraction(row[n], row[col]) for col, row in enumerate(M)]


def _integer_row(row) -> list[int]:
    """The row times the lcm of its entries' denominators."""
    row = [v if type(v) is int else Fraction(v) for v in row]
    den = lcm(*(v.denominator for v in row))
    return [v.numerator * (den // v.denominator) for v in row]
