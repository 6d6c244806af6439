"""An oracle for Gamma0(N)/Gamma1(N) that shares no code with the engine.

G = Gamma0(N)/Gamma1(N) is (Z/N)^x through the entry d mod N, and the
chi-part of S_k(Gamma1(N)) is S_k(N, chi).  For k >= 2 and
chi(-1) = (-1)^k, Cohen and Oesterle give (Dimensions des espaces de formes
modulaires, LNM 627, 1977; Stein, Modular Forms: A Computational Approach,
ch. 6)

  dim S_k(N, chi) = (k - 1)/12 psi(N) - 1/2 prod_p lambda(r_p, s_p, p)
                    + g4(k) sum_{x^2 = -1} chi(x)
                    + g3(k) sum_{x^2 + x + 1 = 0} chi(x) + [k = 2, chi = 1]

with r_p = v_p(N), s_p = v_p(cond chi), and dim M_k(N, chi) =
dim S_k(N, chi) + prod_p lambda - [k = 2, chi = 1].  The conductor and
chi(-1) are constant on a Galois orbit O, and sum_{chi in O} chi(x) is O's
rational value at the class of x, so O's total is read from N, each
class's d entry and RationalCharacter.values alone: no cosets, fibres,
Artin coefficients or dims.

Gamma(N)'s signature has a closed form too (Diamond-Shurman, 3.8-3.9;
Shimura, 1.6): for N >= 3 no elliptic points, no -I, and mu/N regular cusps
of width N, mu = N^3 prod_{p | N} (1 - p^-2)/2 its index in PSL2(Z), so
genus 1 + mu (N - 6)/(12 N); Gamma(2) holds -I and has 3 cusps of width 2.
"""
from fractions import Fraction

import pytest

from modmult.cosets import subgroup_signature
from modmult.reps import QuotientPair, multiplicity_series
from modmult.sl2 import DEFAULT_LEVEL_CAP, SubgroupSpec, realize


def factor(n):
    """{p: v_p(n)}."""
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def lam(r, s, p):
    """lambda(r_p, s_p, p) of Cohen-Oesterle."""
    if 2 * s > r:
        return 2 * p ** (r - s)
    if r % 2:
        return 2 * p ** ((r - 1) // 2)
    return p ** (r // 2) + p ** (r // 2 - 1)


def gamma4(k):
    return 0 if k % 2 else Fraction(-1 if k % 4 == 2 else 1, 4)


def gamma3(k):
    return {0: Fraction(1, 3), 1: 0, 2: Fraction(-1, 3)}[k % 3]


def orbit_totals(N, ds, values, k, kind):
    """Cohen-Oesterle's total over one Galois orbit of characters of
    (Z/N)^x, given the orbit's summed values at the units ds."""
    at = dict(zip(ds, values))
    size = at[1 % N]                      # the orbit's size: chi(1) = 1
    if at[-1 % N] != (-1) ** k * size:
        return 0
    primes = factor(N)
    # the conductor: the least M | N with chi = 1 on every unit = 1 mod M
    cond = min(M for M in range(1, N + 1) if N % M == 0
               and all(at[x] == size for x in ds if (x - 1) % M == 0))
    lam_prod = 1
    psi = Fraction(N)
    for p, r in primes.items():
        lam_prod *= lam(r, factor(cond).get(p, 0), p)
        psi *= 1 + Fraction(1, p)
    trivial = cond == 1 and k == 2
    total = (size * (Fraction(k - 1, 12) * psi - Fraction(lam_prod, 2))
             + gamma4(k) * sum(at[x] for x in ds if (x * x + 1) % N == 0)
             + gamma3(k) * sum(at[x] for x in ds if (x * x + x + 1) % N == 0)
             + trivial)
    if kind == "M":
        total += size * lam_prod - trivial
    assert total.denominator == 1
    return int(total)


def check_level(N, weights, level_cap=DEFAULT_LEVEL_CAP):
    """Compare every orbit total of both kinds with the oracle; returns
    the number of totals compared."""
    pair = QuotientPair.build(SubgroupSpec("gamma0", N),
                              SubgroupSpec("gamma1", N), level_cap=level_cap)
    G = pair.G
    ds = [G.elements[cls[0]][3] % N for cls in G.classes]
    compared = 0
    for rat in pair.rationals:
        for kind in ("M", "S"):
            series = multiplicity_series(pair, rat, kind, weights)
            for k in weights:
                want = orbit_totals(N, ds, rat.values, k, kind)
                assert series.entries[k] == want, (N, rat.label, kind, k)
                compared += 1
    return compared


@pytest.mark.parametrize("N", range(1, 31))
def test_levels_to_30(N):
    assert check_level(N, [*range(2, 61), 3000, 12345])


@pytest.mark.parametrize("N", [97, 199])
def test_levels_above_the_cap(N):
    assert check_level(N, range(2, 61), level_cap=N)


@pytest.mark.parametrize("N", [*range(3, 61), 97, 199])
def test_principal_signature(N):
    mu = N ** 3
    for p in factor(N):
        mu = mu // (p * p) * (p * p - 1)
    mu //= 2
    sig = subgroup_signature(realize(SubgroupSpec("gamma", N), level_cap=N))
    assert (sig.nu2, sig.nu3, sig.minus_I) == (0, 0, False)
    assert sig.cusps == ((N, True),) * (mu // N)
    assert sig.genus == 1 + Fraction(mu * (N - 6), 12 * N)


def test_principal_signature_at_2():
    sig = subgroup_signature(realize(SubgroupSpec("gamma", 2)))
    assert (sig.nu2, sig.nu3, sig.minus_I) == (0, 0, True)
    assert sig.cusps == ((2, True),) * 3 and sig.genus == 0
