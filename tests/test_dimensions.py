from fractions import Fraction

import pytest

from modmult.cosets import (CuspDatum, Signature, area_constant_c,
                            subgroup_signature)
from modmult.dimensions import (PERIOD, DimTable, OddOrderViolation,
                                WeightOneUnsupported, dims)
from modmult.sl2 import SubgroupSpec, realize


def sig_of(kind, n):
    return subgroup_signature(realize(SubgroupSpec(kind, n)))


def dim_m_sl2z(k):
    # classical closed form for the full modular group, even k >= 0
    if k < 0 or k % 2:
        return 0
    if k % 12 == 2:
        return k // 12
    return k // 12 + 1


class TestAnchors:
    def test_sl2z_weight_12(self):
        d = dims(sig_of("full", 1), 12)
        assert (d.dim_M, d.dim_S) == (2, 1)

    def test_gamma2_weight_4(self):
        d = dims(sig_of("gamma", 2), 4)
        assert (d.dim_M, d.dim_S) == (3, 0)

    def test_gamma1_4_weight_3(self):
        d = dims(sig_of("gamma1", 4), 3)
        assert (d.dim_M, d.dim_S) == (2, 0)

    def test_gamma1_3_style_weight_5(self):
        sig = Signature(nu2=0, nu3=1,
                        cusps=(CuspDatum(1, True), CuspDatum(3, True)),
                        minus_I=False)
        d = dims(sig, 5)
        assert (d.dim_M, d.dim_S) == (2, 0)

    def test_gamma1_7_weight_3(self):
        assert dims(sig_of("gamma1", 7), 3).dim_S == 1

    def test_x0_11_weight_2(self):
        assert dims(sig_of("gamma0", 11), 2).dim_S == 1

    def test_odd_weight_with_minus_I_vanishes(self):
        sig = sig_of("gamma0", 5)
        for k in range(3, 100, 2):
            assert dims(sig, k) == dims(sig, k).__class__(0, 0)

    def test_low_weights(self):
        sig = sig_of("full", 1)
        assert (dims(sig, 0).dim_M, dims(sig, 0).dim_S) == (1, 0)
        assert dims(sig, -4).dim_M == 0
        assert dims(sig, 2).dim_M == 0  # no weight-2 forms on SL2(Z)

    @pytest.mark.parametrize("k", range(0, 61, 2))
    def test_sl2z_closed_form(self, k):
        assert dims(sig_of("full", 1), k).dim_M == dim_m_sl2z(k)

    @pytest.mark.parametrize("k", range(4, 61, 2))
    def test_gamma2_closed_form(self, k):
        # dim M_k(Gamma(2)) = k/2 + 1 for even k >= 2
        assert dims(sig_of("gamma", 2), k).dim_M == k // 2 + 1


class TestErrors:
    def test_weight_one(self):
        with pytest.raises(WeightOneUnsupported):
            dims(sig_of("full", 1), 1)

    def test_unknown_kind(self):
        sig = sig_of("gamma0", 5)
        with pytest.raises(ValueError, match="^unknown kind 'X'$"):
            dims(sig, 4).kind("X")
        with pytest.raises(ValueError, match="^unknown kind 'X'$"):
            DimTable(sig).read("X", [4])

    def test_odd_order_violation(self):
        # genus 1 + 9/12 - 1/4 - 1/2 = 1
        sig = Signature(nu2=1, nu3=0, cusps=(CuspDatum(9, True),),
                        minus_I=False)
        assert sig.genus == 1
        with pytest.raises(OddOrderViolation):
            dims(sig, 3)

    def test_non_integral_odd_weight_dimension(self):
        # genus 1 + 6/12 - 1/2 = 1 with one regular cusp: 2 dim S_3 =
        # 2 (2 * 0 + 0) + 1 * 1 + 2 * 0 = 1, which no group has
        sig = Signature(0, 0, (CuspDatum(6, True),), False)
        assert sig.genus == 1
        with pytest.raises(ArithmeticError,
                           match=r"^non-integral dimension 1/2$"):
            dims(sig, 3)


PIPELINE_GROUPS = [("full", 1), ("gamma0", 5), ("gamma0", 11), ("gamma1", 4),
                   ("gamma1", 7), ("gamma", 2), ("gamma0", 8), ("gamma1", 25)]


class TestProperties:
    @pytest.mark.parametrize("kind,n", PIPELINE_GROUPS)
    def test_nonnegative_and_gap(self, kind, n):
        sig = sig_of(kind, n)
        for k in [0, 2] + list(range(3, 201)):
            d = dims(sig, k)
            assert 0 <= d.dim_S <= d.dim_M
            if k >= 4 and k % 2 == 0:
                assert d.dim_M - d.dim_S == sig.t
            elif k >= 3 and not sig.minus_I:
                assert d.dim_M - d.dim_S == sig.eps_reg

    @pytest.mark.parametrize("kind,n", PIPELINE_GROUPS)
    def test_exact_quasi_linearity(self, kind, n):
        sig = sig_of(kind, n)
        c = area_constant_c(sig)
        P = PERIOD
        parities = [0] if sig.minus_I else [0, 1]
        for par in parities:
            for k in range(4 + par, 120):
                if k % 2 != par:
                    continue
                diff = dims(sig, k + P).dim_M - dims(sig, k).dim_M
                assert Fraction(diff, P) == c
                diff_s = dims(sig, k + P).dim_S - dims(sig, k).dim_S
                assert Fraction(diff_s, P) == c
