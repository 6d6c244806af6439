from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modmult.exact import (CycloValue, cyclotomic_poly, euler_phi, mobius,
                           poly_mul, solve_linear_exact)


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def mobius_bruteforce(n):
    # sieve over divisor structure
    for d in range(2, n + 1):
        if n % (d * d) == 0:
            return 0
    primes = [p for p in range(2, n + 1)
              if n % p == 0 and all(p % q for q in range(2, p))]
    return (-1) ** len(primes)


class TestMobiusPhi:
    def test_mobius_examples(self):
        assert mobius(1) == 1
        assert mobius(12) == 0
        assert mobius(30) == -1
        assert mobius(30) == mobius_bruteforce(30)

    def test_phi_examples(self):
        assert euler_phi(1) == 1
        assert euler_phi(12) == 4
        assert euler_phi(7) == 6

    @pytest.mark.parametrize("n", range(1, 201))
    def test_divisor_identities(self, n):
        assert sum(euler_phi(d) for d in divisors(n)) == n
        if n >= 2:
            assert sum(mobius(d) for d in divisors(n)) == 0

    @pytest.mark.parametrize("n", range(1, 101))
    def test_phi_bruteforce(self, n):
        assert euler_phi(n) == sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)

    @pytest.mark.parametrize("n", [0, -1, -12])
    def test_nonpositive_refused(self, n):
        for f in (mobius, euler_phi, cyclotomic_poly):
            with pytest.raises(ValueError, match="^n must be positive$"):
                f(n)


class TestCyclotomic:
    def test_zero_polynomial_products(self):
        # the zero polynomial () times anything is (), from the loop alone
        assert poly_mul((), (1, 2)) == ()
        assert poly_mul((1, 2), ()) == ()
        assert poly_mul((), ()) == ()

    def test_examples(self):
        assert cyclotomic_poly(1) == (-1, 1)
        assert cyclotomic_poly(4) == (1, 0, 1)
        assert cyclotomic_poly(6) == (1, -1, 1)

    @pytest.mark.parametrize("n", range(1, 201))
    def test_degree_and_divisibility(self, n):
        phi_n = cyclotomic_poly(n)
        assert len(phi_n) - 1 == euler_phi(n)
        # x^n - 1 is the product of Phi_d over the divisors d of n
        prod = (1,)
        for d in divisors(n):
            prod = poly_mul(prod, cyclotomic_poly(d))
        assert prod == tuple([-1] + [0] * (n - 1) + [1])


small_fraction = st.fractions(
    min_value=-5, max_value=5, max_denominator=6)


def cyclo_values(max_order=60):
    return st.integers(min_value=1, max_value=max_order).flatmap(
        lambda n: st.dictionaries(
            st.integers(min_value=0, max_value=n - 1), small_fraction,
            max_size=4).map(lambda d: CycloValue(n, d)))


class TestCycloValue:
    def test_rational_part_examples(self):
        v = CycloValue(4, {1: 1, 3: 1})  # zeta4 + zeta4^3
        assert v.rational_part() == 0
        assert CycloValue(1, {0: 3}).rational_part() == 3
        assert CycloValue(5, {1: 1}).rational_part() is None

    def test_equality_mod_cyclotomic(self):
        # 1 + zeta3 + zeta3^2 = 0, never visible in raw coefficients
        v = CycloValue(3, {0: 1, 1: 1, 2: 1})
        assert v == 0
        # zeta6^2 - zeta6 + 1 = 0
        w = CycloValue(6, {2: 1}) + CycloValue(6, {1: -1}) + 1
        assert w == 0

    def test_conjugation_and_lift(self):
        z = CycloValue(5, {1: 1})
        assert z.lift(10) == CycloValue(10, {2: 1})
        with pytest.raises(ValueError, match="^can only lift to a multiple "
                                             "of the order$"):
            z.lift(12)
        # zeta5 times its complex conjugate zeta5^4
        assert (z * CycloValue(5, {4: 1})) == 1

    def test_rational_factor_on_either_side(self):
        # a rational is lifted to Q(zeta_n) as the value it is, and the
        # product stays in Q(zeta_n)
        z = CycloValue(6, {1: 2, 5: Fraction(-1, 3)})
        for q in (3, Fraction(-1, 2), 0):
            for product in (z * q, q * z):
                assert product.order == 6
                assert product.coeffs == {j: c * q for j, c in z.coeffs.items()
                                          if c * q}

    def test_foreign_object_is_unequal(self):
        z = CycloValue(3, {1: 1})
        for other in ("z3", None, (1,), 1.5j):
            assert not z == other and z != other
        assert CycloValue(1, {0: 2}) == 2 and CycloValue(4) == Fraction(0)

    def test_repr(self):
        # no coefficient, or coefficients that cancel once read mod n
        assert repr(CycloValue(5)) == "CycloValue(0)"
        assert repr(CycloValue(4, {1: 1, 5: -1})) == "CycloValue(0)"
        assert repr(CycloValue(3, {2: Fraction(-1, 2), 0: 1})) == \
            "CycloValue(1*z3^0 + -1/2*z3^2)"

    @settings(max_examples=40, deadline=None)
    @given(cyclo_values(max_order=60))
    def test_galois_invariant_values_are_rational(self, u):
        n = u.order

        def twist(w, a):  # zeta_n -> zeta_n^a
            return CycloValue(n, {a * j: c for j, c in w.coeffs.items()})

        twists = [a for a in range(1, n + 1) if gcd(a, n) == 1]
        v = CycloValue(n)
        for a in twists:
            v = v + twist(u, a)
        # v is fixed by every admissible twist...
        for a in twists:
            assert twist(v, a) == v
        # ...and any such value has a rational part
        assert v.rational_part() is not None


class TestSolver:
    def test_identity(self):
        x = solve_linear_exact([[1, 0], [0, 1]],
                               [Fraction(1, 2), Fraction(-3)])
        assert x == [Fraction(1, 2), Fraction(-3)]

    def test_triangular(self):
        x = solve_linear_exact([[6, 3, 2], [0, 1, 0], [0, 0, 2]], [1, 1, 1])
        assert x == [Fraction(-1, 2), Fraction(1), Fraction(1, 2)]

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_resubstitution_against_sympy(self, n, data):
        import sympy

        A = [[data.draw(small_fraction) for _ in range(n)] for _ in range(n)]
        b = [data.draw(small_fraction) for _ in range(n)]
        MA = sympy.Matrix([[sympy.Rational(x) for x in row] for row in A])
        if MA.det() == 0:
            with pytest.raises(ValueError, match="singular matrix"):
                solve_linear_exact(A, b)
            return
        x = solve_linear_exact(A, b)
        for i in range(n):
            assert sum(Fraction(A[i][j]) * x[j] for j in range(n)) == b[i]


def fraction_gauss_jordan(A, b):
    """solve_linear_exact as it was written in Fraction arithmetic: the
    oracle for the integer elimination."""
    n = len(A)
    if len(b) != n:
        raise ValueError("dimension mismatch")
    if any(len(row) != n for row in A):
        raise ValueError("matrix is not square")
    M = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(A)]
    for col in range(n):
        sel = next((i for i in range(col, n) if M[i][col]), None)
        if sel is None:
            raise ValueError("singular matrix")
        M[col], M[sel] = M[sel], M[col]
        pv = M[col][col]
        M[col] = [x / pv for x in M[col]]
        for i in range(n):
            if i != col and M[i][col]:
                f = M[i][col]
                M[i] = [x - f * y for x, y in zip(M[i], M[col])]
    return [row[n] for row in M]


def solver_outcome(solve, *args):
    """The solution with the type of each entry, or the error's type and
    message."""
    try:
        x = solve(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return [(type(v), v) for v in x]


small_int = st.integers(min_value=-6, max_value=6)
entry = st.one_of(small_int, small_fraction)


@st.composite
def systems(draw):
    """(A, b): square systems of up to 4 x 4, random, or singular with a
    dependent last row and b consistent with it or not, with int,
    Fraction or mixed entries."""
    n = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["random", "singular", "inconsistent"]))
    A = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if shape == "random":
        return A, [draw(entry) for _ in range(n)]
    # b = A x for some x; moving the dependent row's b off A x makes the
    # system inconsistent as well as singular
    x = [draw(entry) for _ in range(n)]
    if n > 1:
        u, v = draw(small_int), draw(small_int)
        A[-1] = [u * p + v * q for p, q in zip(A[0], A[1 % (n - 1)])]
    b = [sum(Fraction(a) * y for a, y in zip(row, x)) for row in A]
    if shape == "inconsistent" and n > 1:
        b[-1] += draw(st.sampled_from([1, -1, Fraction(1, 3)]))
    return A, b


class TestSolverMatchesFractionElimination:
    @settings(max_examples=300, deadline=None)
    @given(systems())
    def test_same_solution_or_error(self, system):
        A, b = system
        outcome = solver_outcome(solve_linear_exact, A, b)
        assert outcome == solver_outcome(fraction_gauss_jordan, A, b)
        if outcome[0] is ValueError:
            assert outcome[1] == "singular matrix"

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(entry, min_size=0, max_size=4),
                    min_size=1, max_size=4), st.data())
    def test_ragged_and_mismatched_shapes(self, A, data):
        b = data.draw(st.lists(entry, min_size=len(A) - 1,
                               max_size=len(A) + 1))
        outcome = solver_outcome(solve_linear_exact, A, b)
        assert outcome == solver_outcome(fraction_gauss_jordan, A, b)
        if len(b) != len(A) or any(len(row) != len(A) for row in A):
            assert outcome[0] is ValueError

    def test_entries_rational_but_not_fractions(self):
        A = [[True, "1/2"], [0.25, 3]]
        b = ["-2/3", 1]
        assert solver_outcome(solve_linear_exact, A, b) == \
            solver_outcome(fraction_gauss_jordan, A, b)
