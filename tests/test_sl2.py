from collections import defaultdict
from math import gcd, lcm

import pytest

from modmult.cosets import (coset_action, signature_from_action,
                            subgroup_signature)
from modmult.sl2 import (T_MAT, FiniteSubgroup, LevelTooLarge, NotASubgroup,
                         NotNormal, SubgroupSpec, WrongIndex,
                         _congruence_elements,
                         cyclic_subgroups_up_to_conjugacy,
                         identity_mat, mat_inv, mat_mul, quotient, realize,
                         reduce_mat, right_cosets, sl2_group_order)
from test_cosets import PAIRS, custom_specs, full_sl2, mul_table, power_row


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
        assert full_sl2(n).order == order

    @pytest.mark.parametrize("n", range(1, 7))
    def test_against_bruteforce(self, n):
        assert set(full_sl2(n).elements) == sl2_bruteforce(n)

    @pytest.mark.parametrize("n", range(1, 26))
    def test_order_formula(self, n):
        assert full_sl2(n).order == sl2_group_order(n)

    def test_level_cap(self):
        with pytest.raises(LevelTooLarge):
            full_sl2(31)
        assert full_sl2(31, level_cap=31).order == sl2_group_order(31)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_group_closure(self, n):
        K = full_sl2(n)
        es = frozenset(K.elements)
        for x in list(es)[:20]:
            assert mat_inv(x, n) in es
            for y in list(es)[:20]:
                assert mat_mul(x, y, n) in es


class TestRealize:
    def test_spec_equals_only_a_spec(self):
        spec = SubgroupSpec("gamma0", 5)
        assert spec == SubgroupSpec("gamma0", 5)
        assert hash(spec) == hash(SubgroupSpec("gamma0", 5))
        for other in (("gamma0", 5, ()), "gamma0:5", None):
            assert not spec == other and spec != other

    def test_gamma0_index(self):
        full = full_sl2(5)
        K = realize(SubgroupSpec("gamma0", 5))
        assert full.order // K.order == 6

    def test_gamma1_index(self):
        full = full_sl2(4)
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
        assert full_sl2(n).order // K.order == idx

    def test_custom_closure(self):
        # <T> mod 4 is cyclic of order 4
        K = realize(SubgroupSpec("custom", 4, ((1, 1, 0, 1),)))
        assert K.order == 4

    def test_custom_at_own_level_reads_its_closure(self, monkeypatch):
        # at its own level a custom group is its closure: no residue lifts
        import modmult.sl2 as sl2
        calls = []
        original = sl2._congruence_elements

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(sl2, "_congruence_elements", counted)
        spec = SubgroupSpec("custom", 97, ((1, 1, 0, 1), (5, 0, 0, 39)))
        K = realize(spec, level_cap=97)
        assert calls == []
        assert K.elements == realize(SubgroupSpec("gamma0", 97),
                                     level_cap=97).elements

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

    def test_level_one_from_the_general_loop(self):
        # SL2(Z/1) is the one matrix 0: a = 0 has gcd(0, 1) = 1 and one d
        assert _congruence_elements(1, 1, None, None, None) == ((0, 0, 0, 0),)
        assert realize(SubgroupSpec("full", 1)).elements == ((0, 0, 0, 0),)

    def test_realize_at_common_level(self):
        K = realize(SubgroupSpec("full", 1), at_level=2)
        assert K.order == 6


def congruence_filter(kind, n, m):
    """The mod-m image of the kind's level-n group, filtered from SL2(Z/m)."""
    one = 1 % n
    conditions = {
        "gamma0": lambda a, b, c, d: c % n == 0,
        "gamma1": lambda a, b, c, d: c % n == 0 and a % n == one
        and d % n == one,
        "gamma": lambda a, b, c, d: a % n == one and d % n == one
        and b % n == 0 and c % n == 0,
    }
    return tuple(x for x in full_sl2(m).elements if conditions[kind](*x))


def closure_filter(spec, m):
    """The mod-m image of a custom group, filtered from SL2(Z/m): each
    matrix whose reduction mod the spec level lies in the closure of the
    generators."""
    n = spec.level
    gens = [reduce_mat(g, n) for g in spec.generators]
    closure, frontier = {identity_mat(n)}, [identity_mat(n)]
    while frontier:
        x = frontier.pop()
        for y in (mat_mul(x, g, n) for g in gens):
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    return tuple(x for x in full_sl2(m).elements
                 if tuple(v % n for v in x) in closure)


class TestCustomFromResidues:
    """realize builds a custom group from the residue classes of its
    closure; the result is the closure's preimage filtered from SL2(Z/M)."""

    def test_equals_closure_filter(self):
        for spec in custom_specs():
            for m in (spec.level, 2 * spec.level):
                assert realize(spec, at_level=m).elements == \
                    closure_filter(spec, m), (spec, m)

    def test_d_decides_between_equal_abc(self):
        # the closure holds (2, 1, 1, 1) but not (2, 1, 1, 3): both have
        # the same a, b, c mod 4, so d must be filtered
        spec = SubgroupSpec("custom", 4, ((2, 1, 1, 1),))
        K = realize(spec)
        assert K.order == 3
        assert (2, 1, 1, 1) in frozenset(K.elements)
        assert (2, 1, 1, 3) not in frozenset(K.elements)
        for m in (4, 8):
            assert realize(spec, at_level=m).elements == closure_filter(spec, m)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_T_closure_is_gamma1(self, n):
        # Gamma1(N) mod N is <T> mod N: the whole-matrix keys of the custom
        # group and the bottom-row keys of Gamma1(N) give one signature
        custom = realize(SubgroupSpec("custom", n, (T_MAT,)))
        gamma1 = realize(SubgroupSpec("gamma1", n))
        assert custom.elements == gamma1.elements
        assert signature_from_action(coset_action(custom), custom) == \
            signature_from_action(coset_action(gamma1), gamma1)


class TestRealizeFromConditions:
    """realize builds gamma0, gamma1 and gamma from their congruence
    conditions; the result is the filter of SL2(Z/M), in the same order."""

    @pytest.mark.parametrize("kind", ["gamma0", "gamma1", "gamma"])
    @pytest.mark.parametrize("m", range(1, 31))
    def test_equals_filter_of_sl2(self, kind, m):
        for n in range(1, m + 1):
            if m % n == 0:
                K = realize(SubgroupSpec(kind, n), at_level=m)
                assert K.level == m
                assert K.elements == congruence_filter(kind, n, m)

    def test_sl2_elements_sorted(self):
        for m in range(1, 31):
            elements = full_sl2(m).elements
            assert list(elements) == sorted(elements)

    @pytest.mark.parametrize("kind", ["gamma0", "gamma1", "gamma"])
    def test_level_errors(self, kind):
        with pytest.raises(LevelTooLarge, match="^level 31 exceeds cap 30$"):
            realize(SubgroupSpec(kind, 31))
        with pytest.raises(LevelTooLarge, match="^level 35 exceeds cap 30$"):
            realize(SubgroupSpec(kind, 5), at_level=35)
        with pytest.raises(LevelTooLarge, match="^level 8 exceeds cap 7$"):
            realize(SubgroupSpec(kind, 4), at_level=8, level_cap=7)
        for m in (0, -5):
            with pytest.raises(ValueError, match="^level must be positive$"):
                realize(SubgroupSpec(kind, 5), at_level=m)
        with pytest.raises(ValueError,
                           match="^unknown subgroup kind 'bogus'$"):
            SubgroupSpec("bogus", 5)
        with pytest.raises(ValueError, match="must be a multiple"):
            realize(SubgroupSpec(kind, 5), at_level=12)
        assert realize(SubgroupSpec(kind, 31), level_cap=31).level == 31


def conjugation_normal(gamma, gamma1):
    """The reference rule: g h g^-1 lies in gamma1 for all g, h."""
    n, members = gamma.level, frozenset(gamma1.elements)
    return all(mat_mul(mat_mul(g, h, n), mat_inv(g, n), n) in members
               for g in gamma.elements for h in gamma1.elements)


NORMALITY_PAIRS = (
    [(SubgroupSpec("gamma0", n), SubgroupSpec("gamma1", n))
     for n in range(1, 21)]
    + [(SubgroupSpec("full", 1), SubgroupSpec("gamma", n)) for n in range(1, 7)]
    + [(SubgroupSpec("gamma", n), SubgroupSpec("gamma", 2 * n))
       for n in range(1, 16)]
    + [(SubgroupSpec("gamma0", 2), SubgroupSpec("gamma0", 4)),
       (SubgroupSpec("gamma0", 4), SubgroupSpec("gamma1", 8)),
       (SubgroupSpec("gamma0", 4), SubgroupSpec("gamma", 4)),
       (SubgroupSpec("gamma1", 4), SubgroupSpec("gamma", 8))]
    + [(SubgroupSpec("full", 1), SubgroupSpec(kind, n))
       for kind in ("gamma0", "gamma1") for n in (2, 3, 4, 6)]
    + [(SubgroupSpec("gamma0", n), SubgroupSpec("gamma0", 2 * n))
       for n in (2, 3, 5)]
)


class TestNormalityByCosets:
    """quotient compares each right coset with the left coset of its first
    element; that agrees with conjugating every element of gamma1."""

    @pytest.mark.parametrize("specs", NORMALITY_PAIRS,
                             ids=[f"{g.label()}/{g1.label()}"
                                  for g, g1 in NORMALITY_PAIRS])
    def test_agrees_with_conjugation(self, specs):
        level = lcm(specs[0].level, specs[1].level)
        gamma, gamma1 = (realize(s, at_level=level) for s in specs)
        if conjugation_normal(gamma, gamma1):
            assert quotient(gamma, gamma1).order == gamma.order // gamma1.order
        else:
            with pytest.raises(NotNormal,
                               match="^gamma1 is not normal in gamma$"):
                quotient(gamma, gamma1)

    def test_both_outcomes_covered(self):
        outcomes = set()
        for specs in NORMALITY_PAIRS:
            level = lcm(specs[0].level, specs[1].level)
            outcomes.add(conjugation_normal(
                *(realize(s, at_level=level) for s in specs)))
        assert outcomes == {True, False}

    def test_not_normal_cli(self, capsys):
        from modmult.cli import main
        assert main(["verify", "--pair", "gamma0:4/gamma1:8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "modmult: NotNormal: gamma1 is not normal in gamma\n"

    def test_not_a_subgroup_before_not_normal(self, capsys):
        from modmult.cli import main
        # gamma0:4 is not in gamma1:4; containment is checked first
        assert main(["verify", "--pair", "gamma1:4/gamma0:4"]) == 2
        assert capsys.readouterr().err == \
            "modmult: NotASubgroup: gamma1 is not contained in gamma\n"


class TestQuotient:
    def test_diamond_5(self):
        g = realize(SubgroupSpec("gamma0", 5))
        g1 = realize(SubgroupSpec("gamma1", 5))
        G = quotient(g, g1)
        assert G.order == 4
        assert any(len(power_row(G, i)) == 4 for i in range(4))  # cyclic
        assert G.iota is not None and G.iota != G.identity
        assert not G.iota_trivial
        assert G.elements[G.iota][3] % 5 == 4  # d-entry of the -I coset
        assert G.mu_proj == 2

    def test_s3(self):
        g = full_sl2(2)
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
        g = full_sl2(5)
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
                assert d_of[G.mul(i, j)] == d_of[i] * d_of[j] % n

    @pytest.mark.parametrize("n", [5, 7, 8, 12])
    def test_group_invariants(self, n):
        G = quotient(realize(SubgroupSpec("gamma0", n)),
                     realize(SubgroupSpec("gamma1", n)))
        assert sum(len(c) for c in G.classes) == G.order
        for i in range(G.order):
            assert G.order % len(power_row(G, i)) == 0
        if G.iota is not None:
            assert G.mul(G.iota, G.iota) == G.identity


def diamond(n):
    return quotient(realize(SubgroupSpec("gamma0", n)),
                    realize(SubgroupSpec("gamma1", n)))


def realized_pairs():
    """Label, Gamma and Gamma1 of every pair of test_cosets.PAIRS
    (Gamma(N)/Gamma(2N) for N <= 15 among them) and of SL2Z/Gamma(N) for
    N <= 5."""
    pairs = PAIRS + [("full", 1, "gamma", n) for n in range(1, 6)]
    return [(f"{a}:{b}/{c}:{d}",
             realize(SubgroupSpec(a, b), at_level=lcm(b, d)),
             realize(SubgroupSpec(c, d), at_level=lcm(b, d)))
            for a, b, c, d in pairs]


def quotients():
    """Label and G of every pair of realized_pairs()."""
    return [(label, quotient(gamma, gamma1))
            for label, gamma, gamma1 in realized_pairs()]


def reference_cosets(gamma, gamma1):
    """right_cosets by products with every element of gamma1 mod the
    level: a new coset at g writes h*g for each h, and gamma1 is normal
    iff each g*h lies in that coset."""
    n = gamma.level
    reps, coset_of = [], {}
    for g in gamma.elements:
        if g in coset_of:
            continue
        i = len(reps)
        reps.append(g)
        for h in gamma1.elements:
            coset_of[mat_mul(h, g, n)] = i
        if any(coset_of.get(mat_mul(g, h, n)) != i for h in gamma1.elements):
            raise NotNormal("gamma1 is not normal in gamma")
    return reps, coset_of


def coset_dict(gamma, gamma1):
    """right_cosets as reference_cosets returns it: coset_of read at every
    element of gamma."""
    reps, coset_of = right_cosets(gamma, gamma1)
    return reps, {g: coset_of(g) for g in gamma.elements}


class TestRightCosets:
    def test_least_reps_and_coset_index(self):
        # the 68 pairs of TestCyclicSubgroups.test_same_as_conjugation
        for label, gamma, gamma1 in realized_pairs():
            n = gamma.level
            reps, coset_of = coset_dict(gamma, gamma1)
            assert all(x < y for x, y in zip(reps, reps[1:])), label
            members = defaultdict(list)
            for x, i in coset_of.items():
                members[i].append(x)
            assert [min(members[i]) for i in range(len(reps))] == reps, label
            assert all(coset_of[mat_mul(h, g, n)] == coset_of[g]
                       for g in gamma.elements for h in gamma1.elements), label

    @pytest.mark.parametrize("spec,bound", [
        # G = Z/29 by whole matrices, one acting element and one check per
        # coset, 58 products, and Z/28 by bottom rows, one acting element
        # and two checks, it and T, per coset, 84, where a product with each
        # element of gamma1 on either side costs 2|Gamma| = 1,624
        (SubgroupSpec("gamma1", 29), 2 * 29),
        (SubgroupSpec("gamma0", 29), 3 * 28)],
        ids=["gamma1:29/gamma:29", "gamma0:29/custom-T:29"])
    def test_products_are_o_of_G(self, spec, bound, monkeypatch):
        import modmult.sl2 as sl2
        gamma1 = realize(SubgroupSpec("gamma", 29) if spec.kind == "gamma1"
                         else SubgroupSpec("custom", 29, (T_MAT,)))
        gamma = realize(spec)
        products = []
        original = sl2.mat_mul

        def counted(*args):
            products.append(args)
            return original(*args)

        monkeypatch.setattr(sl2, "mat_mul", counted)
        right_cosets(gamma, gamma1)
        assert len(products) <= bound

    def test_gamma1_below_the_pair_level(self):
        # Gamma0(2) given mod 4 over Gamma(2), held mod its own level 2:
        # every element of gamma is keyed by its residue mod 2, in the walk
        # and in coset_of, and the cosets are the reference's
        gamma = realize(SubgroupSpec(
            "custom", 4, (T_MAT, (1, 0, 2, 1), (-1, 0, 0, -1))))
        gamma1 = realize(SubgroupSpec("gamma", 2), at_level=4)
        assert (gamma.level, gamma1.own_level) == (4, 2)
        assert gamma.elements == realize(SubgroupSpec("gamma0", 2),
                                         at_level=4).elements
        assert coset_dict(gamma, gamma1) == reference_cosets(gamma, gamma1)
        assert quotient(gamma, gamma1).order == 2

    def test_groups_at_different_levels_refused(self):
        with pytest.raises(NotASubgroup, match="^subgroups live at "
                                               "different levels$"):
            right_cosets(realize(SubgroupSpec("gamma0", 2), at_level=4),
                         realize(SubgroupSpec("gamma", 2)))

    def test_wrong_own_level_refused(self):
        # Gamma1(4) claimed to hold every matrix = I mod 2: its bottom rows
        # mod 2 would merge Gamma0(4)'s two cosets into one, so the group
        # is refused where it is built, as its entries are not reduced mod 2
        with pytest.raises(ValueError, match="own_level 2$"):
            FiniteSubgroup(4, realize(SubgroupSpec("gamma1", 4)).elements,
                           own_level=2)

    def test_key_lookup_is_membership(self):
        # a key shared with an element of gamma differs from it by an
        # element of gamma1, so coset_of raises KeyError exactly outside
        # gamma, with whole-matrix and with bottom-row keys
        for label, gamma, gamma1 in realized_pairs():
            if gamma.level > 12:
                continue
            _, coset_of = right_cosets(gamma, gamma1)
            members = frozenset(gamma.elements)
            for x in full_sl2(gamma.level).elements:
                if x in members:
                    coset_of(x)
                else:
                    with pytest.raises(KeyError):
                        coset_of(x)


    def test_index_checked_whatever_the_key_rule(self, monkeypatch, capsys):
        # bottom-row keys with T outside the group merge the five cosets of
        # Gamma(5) in Gamma1(5) into one: without the index check verify
        # passes with |G| = 1, and no later check sees it
        import modmult.sl2 as sl2
        from modmult.cli import main
        monkeypatch.setattr(sl2, "coset_keys", lambda acting, n: (
            list({h[2:]: h for h in acting}.values()), slice(2, 4)))
        with pytest.raises(WrongIndex):
            right_cosets(realize(SubgroupSpec("gamma1", 5)),
                         realize(SubgroupSpec("gamma", 5)))
        assert main(["verify", "--pair", "gamma1:5/gamma:5",
                     "--kmax", "60"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("modmult: WrongIndex: the cosets of gamma1 "
                                "in gamma number 1, not its index 5\n")


class TestCosetsByD:
    """right_cosets gives the product reference's reps and coset_of for
    every Gamma0(N)/Gamma1(N) at level N, above the default cap too, whose
    cosets d tells apart and which are keyed by bottom rows, and for every
    pair of realized_pairs()."""

    @pytest.mark.parametrize("n", [*range(1, 61), 97, 199])
    def test_equals_right_cosets(self, n):
        gamma, gamma1 = (realize(SubgroupSpec(kind, n), level_cap=n)
                         for kind in ("gamma0", "gamma1"))
        assert coset_dict(gamma, gamma1) == reference_cosets(gamma, gamma1)

    def test_realized_pairs(self):
        for label, gamma, gamma1 in realized_pairs():
            assert coset_dict(gamma, gamma1) == \
                reference_cosets(gamma, gamma1), label


class TestPowers:
    def test_repeated_products(self):
        # the 68 quotients of TestCyclicSubgroups.test_same_as_conjugation:
        # each element's powers, by repeated products, meet the classes
        # that its class's power map lists
        for label, G in quotients():
            orders = []
            for i in range(G.order):
                row = power_row(G, i)
                assert G.power_map[G.class_of[i]] == \
                    tuple(G.class_of[x] for x in row), (label, i)
                orders.append(len(row))
            assert G.exponent == lcm(*orders), label


def conjugacy_classes(G):
    """G's classes by conjugating each element by every element, in
    quotient's order: by size, the order of the least element, and the
    elements' matrices."""
    mul, inv = mul_table(G)
    classes = {tuple(sorted({mul[mul[g][x]][inv[g]] for g in range(G.order)}))
               for x in range(G.order)}
    return sorted(classes, key=lambda cls: (
        len(cls), len(power_row(G, cls[0])), [G.elements[x] for x in cls]))


class TestClasses:
    def test_same_as_conjugation_by_every_element(self):
        for label, G in quotients():
            assert list(G.classes) == conjugacy_classes(G), label
            assert all(G.class_of[x] == k for k, cls in enumerate(G.classes)
                       for x in cls), label

    def test_abelian_iff_every_pair_commutes(self):
        # is_abelian, |G| classes, is the only abelian test: it agrees with
        # G's multiplication table on the 68 quotients, of both kinds
        seen = set()
        for label, G in quotients():
            mul, _ = mul_table(G)
            commute = all(mul[x][y] == mul[y][x]
                          for x in range(G.order) for y in range(x))
            assert G.is_abelian == commute, label
            seen.add(commute)
        assert seen == {True, False}

    @pytest.mark.parametrize("gamma,gamma1,level", [
        (SubgroupSpec("full"), SubgroupSpec("gamma", 5), 5),
        (SubgroupSpec("gamma0", 97), SubgroupSpec("gamma1", 97), 97)],
        ids=["SL2Z/gamma:5", "gamma0:97/gamma1:97"])
    def test_products_per_generator_and_power_row(self, gamma, gamma1, level,
                                                  monkeypatch):
        # beyond the products of its right_cosets call, the greedy
        # generators, the classes as orbits under conjugation by them and
        # one power row per class: at most 3 |G| |gens| + the sum of the
        # class representatives' orders, 766 and 5,357 here, where a
        # multiplication table took |G|^2 = 14,400 and 9,216
        import modmult.sl2 as sl2
        gamma, gamma1 = (realize(spec, at_level=level, level_cap=level)
                         for spec in (gamma, gamma1))
        products = []
        original = sl2.mat_mul

        def counted(*args):
            products.append(args)
            return original(*args)

        monkeypatch.setattr(sl2, "mat_mul", counted)
        right_cosets(gamma, gamma1)
        cosets = len(products)
        products.clear()
        G = quotient(gamma, gamma1)
        monkeypatch.undo()
        bound = (3 * G.order * len(G.generators)
                 + sum(len(power_row(G, cls[0])) for cls in G.classes))
        assert len(products) - cosets <= bound


def generated_subgroup(G, gens, mul):
    """The closure of 1 and gens under products of two elements."""
    sub = {G.identity, *gens}
    while more := {mul[x][y] for x in sub for y in sub} - sub:
        sub |= more
    return sub


class TestGenerators:
    def test_each_outside_the_subgroup_of_the_earlier(self):
        # the 68 quotients: each generator is the least element that the
        # earlier ones do not generate, and all of them generate G
        for label, G in quotients():
            gens, (mul, _) = G.generators, mul_table(G)
            for k, g in enumerate(gens):
                outside = (set(range(G.order))
                           - generated_subgroup(G, gens[:k], mul))
                assert g == min(outside), (label, k)
            assert generated_subgroup(G, gens, mul) == set(range(G.order)), \
                label

    def test_equals_closure_over_the_table(self):
        # the greedy rule closed over G's multiplication table
        for label, G in quotients():
            gens, sub, (mul, _) = [], {G.identity}, mul_table(G)
            for g in range(G.order):
                if g not in sub:
                    gens.append(g)
                    new = sub
                    while new:
                        new = {mul[x][s] for x in new for s in gens} - sub
                        sub |= new
            assert G.generators == tuple(gens), label


def fused_by_conjugation(G):
    """cyclic_subgroups_up_to_conjugacy by conjugating each subgroup by
    every element of G: by order, the subgroup that the least element of
    the first class generates stands for its conjugates."""
    mul, inv = mul_table(G)
    classes = conjugacy_classes(G)
    out, remaining = [], {frozenset(power_row(G, i)) for i in range(G.order)}
    for cls in sorted(classes, key=lambda cls: len(power_row(G, cls[0]))):
        sub = frozenset(power_row(G, cls[0]))
        if sub in remaining:
            remaining -= {frozenset(mul[mul[g][x]][inv[g]] for x in sub)
                          for g in range(G.order)}
            out.append((cls[0], sub))
    assert not remaining
    return out


class TestCyclicSubgroups:
    def test_same_as_conjugation(self):
        # 68 quotients, SL2(Z/5) of order 120 the largest
        for label, G in quotients():
            assert [(c, frozenset(power_row(G, c))) for c, _ in
                    cyclic_subgroups_up_to_conjugacy(G)] == \
                fused_by_conjugation(G), label

    def test_c4(self):
        G = diamond(5)
        subs = cyclic_subgroups_up_to_conjugacy(G)
        assert sorted(len(power_row(G, c)) for c, _ in subs) == [1, 2, 4]

    def test_s3(self):
        G = quotient(full_sl2(2), realize(SubgroupSpec("gamma", 2)))
        subs = cyclic_subgroups_up_to_conjugacy(G)
        assert sorted(len(power_row(G, c)) for c, _ in subs) == [1, 2, 3]
        # every cyclic subgroup is conjugate to exactly one listed subgroup
        listed = [frozenset(power_row(G, c)) for c, _ in subs]
        mul, inv = mul_table(G)
        for i in range(G.order):
            cyc = power_row(G, i)
            orbit = {frozenset(mul[mul[g][y]][inv[g]] for y in cyc)
                     for g in range(G.order)}
            assert sum(1 for s in listed if s in orbit) == 1

    def test_c2xc2(self):
        G = diamond(8)
        subs = cyclic_subgroups_up_to_conjugacy(G)
        assert sorted(len(power_row(G, c)) for c, _ in subs) == [1, 2, 2, 2]

