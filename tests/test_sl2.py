from math import gcd

import pytest

from modmult.cosets import subgroup_signature
from modmult.sl2 import (LevelTooLarge, NotASubgroup, NotNormal, SubgroupSpec,
                         cyclic_subgroups_up_to_conjugacy, enumerate_sl2,
                         mat_inv, mat_mul, quotient, realize, sl2_group_order)


def sl2_bruteforce(n):
    if n == 1:
        return {(0, 0, 0, 0)}
    return {(a, b, c, d)
            for a in range(n) for b in range(n)
            for c in range(n) for d in range(n)
            if (a * d - b * c) % n == 1}


class TestEnumerate:
    @pytest.mark.parametrize("n,order", [(1, 1), (2, 6), (5, 120)])
    def test_orders(self, n, order):
        assert enumerate_sl2(n).order == order

    @pytest.mark.parametrize("n", range(1, 7))
    def test_against_bruteforce(self, n):
        assert set(enumerate_sl2(n).elements) == sl2_bruteforce(n)

    @pytest.mark.parametrize("n", range(1, 26))
    def test_order_formula(self, n):
        assert enumerate_sl2(n).order == sl2_group_order(n)

    def test_level_cap(self):
        with pytest.raises(LevelTooLarge):
            enumerate_sl2(31)
        assert enumerate_sl2(31, level_cap=31).order == sl2_group_order(31)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_group_closure(self, n):
        K = enumerate_sl2(n)
        es = K.element_set
        for x in list(es)[:20]:
            assert mat_inv(x, n) in es
            for y in list(es)[:20]:
                assert mat_mul(x, y, n) in es


class TestRealize:
    def test_gamma0_index(self):
        full = enumerate_sl2(5)
        K = realize(SubgroupSpec("gamma0", 5))
        assert full.order // K.order == 6

    def test_gamma1_index(self):
        full = enumerate_sl2(4)
        K = realize(SubgroupSpec("gamma1", 4))
        assert full.order // K.order == 12

    def test_principal_at_2(self):
        K = realize(SubgroupSpec("gamma", 2))
        assert K.order == 1
        assert K.contains_minus_I  # -I == I mod 2

    @pytest.mark.parametrize("n", range(2, 26))
    def test_gamma0_index_formula(self, n):
        # index = N * prod_{p|N} (1 + 1/p)
        idx = n
        m = n
        p = 2
        while p * p <= m:
            if m % p == 0:
                idx = idx // p * (p + 1)
                while m % p == 0:
                    m //= p
            p += 1
        if m > 1:
            idx = idx // m * (m + 1)
        K = realize(SubgroupSpec("gamma0", n))
        assert enumerate_sl2(n).order // K.order == idx

    def test_custom_closure(self):
        # <T> mod 4 is cyclic of order 4
        K = realize(SubgroupSpec("custom", 4, ((1, 1, 0, 1),)))
        assert K.order == 4

    def test_custom_preimage_above_own_level(self):
        # the preimage of <T> mod 2 and of {I} mod 2 in SL2(Z/4)
        T2 = SubgroupSpec("custom", 2, ((1, 1, 0, 1),))
        assert realize(T2, at_level=4).order == 16
        assert realize(SubgroupSpec("custom", 2), at_level=4).elements == \
            realize(SubgroupSpec("gamma", 2), at_level=4).elements

    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_custom_signature_independent_of_level(self, m):
        for spec in (SubgroupSpec("custom", 2, ((1, 1, 0, 1),)),
                     SubgroupSpec("custom", 2)):
            assert subgroup_signature(realize(spec, at_level=m)) == \
                subgroup_signature(realize(spec))

    def test_realize_at_common_level(self):
        K = realize(SubgroupSpec("full", 1), at_level=2)
        assert K.order == 6


class TestQuotient:
    def test_diamond_5(self):
        g = realize(SubgroupSpec("gamma0", 5))
        g1 = realize(SubgroupSpec("gamma1", 5))
        G = quotient(g, g1)
        assert G.order == 4
        assert any(G.element_order(i) == 4 for i in range(4))  # cyclic
        assert G.iota is not None and G.iota != G.identity
        assert not G.iota_trivial
        assert G.elements[G.iota][3] % 5 == 4  # d-entry of the -I coset
        assert G.mu_sl == 4 and G.mu_proj == 2

    def test_s3(self):
        g = enumerate_sl2(2)
        g1 = realize(SubgroupSpec("gamma", 2))
        G = quotient(g, g1)
        assert G.order == 6
        assert sorted(len(c) for c in G.classes) == [1, 2, 3]
        assert G.iota == G.identity and G.iota_trivial
        assert not G.is_abelian

    def test_diamond_8(self):
        g = realize(SubgroupSpec("gamma0", 8))
        g1 = realize(SubgroupSpec("gamma1", 8))
        G = quotient(g, g1)
        assert G.order == 4
        assert G.exponent == 2
        assert G.mu_proj == 2

    def test_not_a_subgroup(self):
        with pytest.raises(NotASubgroup):
            quotient(realize(SubgroupSpec("gamma1", 4)),
                     realize(SubgroupSpec("gamma0", 4)))

    def test_not_normal(self):
        # <S> is not normal in SL2(Z/5)
        g = enumerate_sl2(5)
        g1 = realize(SubgroupSpec("custom", 5, ((0, -1, 1, 0),)))
        with pytest.raises(NotNormal):
            quotient(g, g1)

    @pytest.mark.parametrize("n", range(1, 26))
    def test_diamond_is_units_mod_n(self, n):
        g = realize(SubgroupSpec("gamma0", n))
        g1 = realize(SubgroupSpec("gamma1", n))
        G = quotient(g, g1)
        units = [a for a in range(n) if gcd(a, n) == 1]
        assert G.order == len(units)
        # the d-entry is an isomorphism onto (Z/N)^x
        d_of = {i: G.elements[i][3] % n for i in range(G.order)}
        assert sorted(d_of.values()) == sorted(units)
        for i in range(G.order):
            for j in range(G.order):
                assert d_of[G.mul[i][j]] == d_of[i] * d_of[j] % n

    @pytest.mark.parametrize("n", [5, 7, 8, 12])
    def test_group_invariants(self, n):
        G = quotient(realize(SubgroupSpec("gamma0", n)),
                     realize(SubgroupSpec("gamma1", n)))
        assert sum(len(c) for c in G.classes) == G.order
        for i in range(G.order):
            assert G.power(i, G.order) == G.identity
        if G.iota is not None:
            assert G.mul[G.iota][G.iota] == G.identity


def diamond(n):
    return quotient(realize(SubgroupSpec("gamma0", n)),
                    realize(SubgroupSpec("gamma1", n)))


class TestCyclicSubgroups:
    def test_c4(self):
        subs = cyclic_subgroups_up_to_conjugacy(diamond(5))
        assert sorted(len(s) for _, s in subs) == [1, 2, 4]

    def test_s3(self):
        G = quotient(enumerate_sl2(2), realize(SubgroupSpec("gamma", 2)))
        subs = cyclic_subgroups_up_to_conjugacy(G)
        assert sorted(len(s) for _, s in subs) == [1, 2, 3]
        # every cyclic subgroup is conjugate to exactly one listed subgroup
        listed = [s for _, s in subs]
        for i in range(G.order):
            cyc = set()
            x = i
            while x not in cyc:
                cyc.add(x)
                x = G.mul[x][i]
            orbit = {frozenset(G.mul[G.mul[g][y]][G.inv[g]] for y in cyc)
                     for g in range(G.order)}
            assert sum(1 for s in listed if s in orbit) == 1

    def test_c2xc2(self):
        subs = cyclic_subgroups_up_to_conjugacy(diamond(8))
        assert sorted(len(s) for _, s in subs) == [1, 2, 2, 2]

