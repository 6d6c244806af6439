"""Each series as a free C[E4, E6]-module: its numerator has non-negative
coefficients, none above weight 12, and they sum to the slope.

G acts on M_*(Gamma1) and on S_*(Gamma1), and the action commutes with
multiplication by E4 and E6, so the multiplicity space of a character is
a graded direct summand of a free graded C[E4, E6]-module, and free too.
For M the free module is M(rho), rho = Ind_{Gamma1}^{SL2(Z)} 1, by Marks
and Mason, "Structure of the module of vector-valued modular forms",
J. London Math. Soc. (2) 82 (2010), for rho of finite image.  For S it is
S(rho), by Candelori and Franc, "Vector valued modular forms and the
modular orbifold of elliptic curves", Int. J. Number Theory 13 (2017):
S(rho) is the module of sections of another vector bundle on the
compactified modular orbifold, where every vector bundle is a sum of line
bundles.  So

    sum_k m_k t^k = N(t) / ((1 - t^4)(1 - t^6)),

and n(w) = m_w - m_{w-4} - m_{w-6} + m_{w-10}, with m_j = 0 for j < 0,
counts the free generators of weight w:
- n(w) >= 0;
- n(w) = 0 for w >= 13: m_k = A k + B(k mod 12) for k >= 3, so n is
  12-periodic from w = 13 on, and N is a polynomial;
- m_k grows as (k / 12) times the sum of n(w) over the w of k's parity, so
  on each parity the series allows that sum is 12 c agg, the paper's slope.
Weight 1 is not computed: m_1 enters n(1), n(5), n(7) and n(11) alone,
which are not checked, and cancels from the odd sum (1 - 1 - 1 + 1).
"""
import pytest

import modmult.dimensions as dimensions
from modmult.dimensions import DimResult
from modmult.reps import QuotientPair, multiplicity_series
from modmult.sl2 import SubgroupSpec
from modmult.verify import check_decomposition_identity
from test_cosets import PAIRS

KMAX = 80
WEIGHTS = [k for k in range(KMAX + 1) if k != 1]
# each parity class as the residues of the weights it holds, mod 2
RESIDUES = {"even": (0,), "odd": (1,), "all": (0, 1)}


def numerator(entries):
    """[n(0), ..., n(KMAX)], with m_1 read as 0."""
    def m(j):
        return entries[j] if j >= 0 and j != 1 else 0
    return [m(w) - m(w - 4) - m(w - 6) + m(w - 10) for w in range(KMAX + 1)]


def faults(c, series):
    """What the numerator of one series breaks; empty when it holds."""
    n = numerator(series.entries)
    out = [f"n({w}) = {n[w]}" for w in range(KMAX + 1)
           if (n[w] < 0 and w not in (1, 5, 7, 11)) or (w >= 13 and n[w])]
    for r in RESIDUES[series.parity_class]:
        if sum(n[r:25:2]) != 12 * c * series.aggregate_degree:
            out.append(f"n(w) over w = {r} mod 2 sums to {sum(n[r:25:2])}")
    return out


class TestNumerator:
    @pytest.mark.parametrize("k0,n0,k1,n1", PAIRS,
                             ids=[f"{a}:{b}/{c}:{d}" for a, b, c, d in PAIRS])
    def test_every_series_has_a_numerator(self, k0, n0, k1, n1):
        pair = QuotientPair.build(SubgroupSpec(k0, n0), SubgroupSpec(k1, n1))
        for kind in ("M", "S"):
            for rat in pair.rationals:
                series = multiplicity_series(pair, rat, kind, WEIGHTS)
                assert faults(pair.c, series) == [], (kind, rat.label)

    # each mutation of dims passes the decomposition identity, which reads
    # the same dims; the series' own integrality and sign check catches the
    # last on 25 series, and this check flags every mutation
    @pytest.mark.parametrize("mutation,flagged,raised", [
        (lambda d, sig, k: DimResult(d.dim_M + (k == 2), d.dim_S), 13, 0),
        (lambda d, sig, k: DimResult(d.dim_M, d.dim_S + (k == 2)), 6, 0),
        # nu3 * (k // 3 + 1) in place of nu3 * (k // 3) at even k = 2 mod 3
        (lambda d, sig, k: DimResult(*(
            x + sig.nu3 * (k > 2 and k % 6 == 2) for x in (d.dim_M, d.dim_S))),
         27, 0),
        (lambda d, sig, k: DimResult(d.dim_M + sig.eps_irr * (k % 2), d.dim_S),
         10, 25)],
        ids=["M2+1", "S2+1", "nu3-floor", "odd-M+eps_irr"])
    def test_mutated_dims_fail(self, monkeypatch, mutation, flagged, raised):
        original = dimensions.dims
        monkeypatch.setattr(dimensions, "dims",
                            lambda sig, k: mutation(original(sig, k), sig, k))
        counts = {"series": 0, "flagged": 0, "raised": 0}
        for k0, n0, k1, n1 in PAIRS:
            # built after the patch, so the pair's tables read the mutation
            pair = QuotientPair.build(SubgroupSpec(k0, n0),
                                      SubgroupSpec(k1, n1))
            for kind in ("M", "S"):
                by_rep = {}
                for rat in pair.rationals:
                    counts["series"] += 1
                    try:
                        series = multiplicity_series(pair, rat, kind, WEIGHTS)
                    except ArithmeticError:
                        counts["raised"] += 1
                        continue
                    by_rep[rat.label] = series
                    counts["flagged"] += bool(faults(pair.c, series))
                if len(by_rep) == len(pair.rationals):
                    check_decomposition_identity(pair, kind, WEIGHTS,
                                                 series_by_rep=by_rep)
        assert counts == {"series": 554, "flagged": flagged, "raised": raised}
