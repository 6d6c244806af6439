import random
from collections import deque
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

import pytest

from modmult.cosets import (CuspDatum, NonIntegralGenus, PermutationAction,
                            Signature, area_constant_c, branch_points,
                            coset_action, fibre_signature,
                            signature_from_action, subgroup_signature)
from modmult.dimensions import PERIOD, dims
from modmult.reps import QuotientPair
from modmult.sl2 import (DEFAULT_LEVEL_CAP, T_MAT, FiniteSubgroup,
                         NotAGroup, SubgroupSpec, coset_keys, mat_inv, mat_mul,
                         minus_identity, quotient, realize, reduce_mat,
                         sl2_group_order)


def group(kind, n, at_level=None):
    return realize(SubgroupSpec(kind, n), at_level=at_level)


def full_sl2(n, level_cap=DEFAULT_LEVEL_CAP):
    """All of SL2(Z/n)."""
    return realize(SubgroupSpec("full"), n, level_cap=level_cap)


def preimage_subgroup(pair, C):
    """The mod-N subgroup Gamma_C: the union of Gamma1-cosets over C."""
    n = pair.G.level
    elems = {mat_mul(h, pair.G.elements[c], n)
             for c in C for h in pair.gamma1.elements}
    return FiniteSubgroup(n, tuple(sorted(elems)), own_level=n)


def induced(G, C):
    """1_C induced to G, per class, for any subgroup C given by its
    elements: |G| |K n C| / (|K| |C|) at a class K."""
    return tuple(G.order * len(C.intersection(cls)) // (len(cls) * len(C))
                 for cls in G.classes)


def mul_table(G):
    """G's multiplication table and inverses, one product per pair."""
    mul = [[G.mul(x, y) for y in range(G.order)] for x in range(G.order)]
    return mul, [row.index(G.identity) for row in mul]


def power_row(G, i):
    """(1, i, i^2, ..., i^(ord i - 1)), by repeated products."""
    row, x = [G.identity], i
    while x != G.identity:
        row.append(x)
        x = G.mul(x, i)
    return tuple(row)


def cyclic_sets(G, cyclics):
    """The elements of each cyclic subgroup listed as (generator, pi)."""
    return [frozenset(power_row(G, c)) for c, _ in cyclics]


def generated(G, gens, mul):
    """The subgroup of G that the elements gens generate, mul G's table."""
    sub, frontier = {G.identity}, [G.identity]
    while frontier:
        x = frontier.pop()
        for y in (mul[x][g] for g in gens):
            if y not in sub:
                sub.add(y)
                frontier.append(y)
    return frozenset(sub)


def fibre_sig(pair, C):
    """Gamma_C's signature, read from the fibres of Gamma's branch points,
    for the subgroup C of G given by its elements."""
    branch = branch_points(coset_action(pair.gamma), pair.gamma)
    return fibre_signature(pair.G, branch.under(pair.G.coset_index),
                           induced(pair.G, C))


def compose(p, q):
    # permutation acting after q then p... here: apply q, then p
    return tuple(p[q[i]] for i in range(len(q)))


class TestCosetAction:
    def test_trivial_level(self):
        act = coset_action(group("full", 1))
        assert len(act.reps) == 1
        assert act.sigma_S == act.sigma_T == (0,)

    def test_gamma0_5(self):
        act = coset_action(group("gamma0", 5))
        assert len(act.reps) == 6
        assert sum(1 for i, j in enumerate(act.sigma_S) if i == j) == 2

    def test_gamma1_4(self):
        K = group("gamma1", 4)
        act = coset_action(K)
        assert len(act.reps) == 6
        cycles = cycle_lengths(act.sigma_T)
        assert sorted(cycles) == [1, 1, 4]
        assert subgroup_signature(K).mu_sl == 12

    @pytest.mark.parametrize("kind,n", [("gamma0", 11), ("gamma1", 5),
                                        ("gamma", 3), ("gamma0", 24)])
    def test_projective_relations(self, kind, n):
        act = coset_action(group(kind, n))
        ident = tuple(range(len(act.reps)))
        assert compose(act.sigma_S, act.sigma_S) == ident
        sigma_ST = compose(act.sigma_T, act.sigma_S)
        st3 = compose(sigma_ST, compose(sigma_ST, sigma_ST))
        assert st3 == ident


def cycle_lengths(perm):
    seen, out = set(), []
    for i in range(len(perm)):
        if i in seen:
            continue
        x, n = i, 0
        while x not in seen:
            seen.add(x)
            x = perm[x]
            n += 1
        out.append(n)
    return out


class TestSignatures:
    def test_sl2z(self):
        sig = subgroup_signature(group("full", 1))
        assert (sig.genus, sig.nu2, sig.nu3, sig.t, sig.mu_proj) == (0, 1, 1, 1, 1)
        assert sig.minus_I
        assert sig.cusps == (CuspDatum(1, True),)

    def test_gamma0_11(self):
        sig = subgroup_signature(group("gamma0", 11))
        assert sig.genus == 1
        assert (sig.nu2, sig.nu3) == (0, 0)
        assert sig.t == 2
        assert sig.mu_proj == 12

    def test_gamma1_4(self):
        sig = subgroup_signature(group("gamma1", 4))
        assert sig.genus == 0
        assert (sig.nu2, sig.nu3) == (0, 0)
        assert sorted((c.width, c.regular) for c in sig.cusps) == \
            [(1, False), (1, True), (4, True)]
        assert sig.mu_proj == 6
        assert not sig.minus_I

    def test_gamma_2(self):
        sig = subgroup_signature(group("gamma", 2))
        assert sig.genus == 0
        assert (sig.nu2, sig.nu3) == (0, 0)
        assert [c.width for c in sig.cusps] == [2, 2, 2]
        assert sig.mu_proj == 6
        assert sig.minus_I


class TestAreaConstant:
    def test_examples(self):
        assert area_constant_c(subgroup_signature(group("full", 1))) == Fraction(1, 12)
        assert area_constant_c(subgroup_signature(group("gamma0", 5))) == Fraction(1, 2)
        assert area_constant_c(subgroup_signature(group("gamma", 2))) == Fraction(1, 2)

    def test_nonpositive_area(self):
        # c = mu_proj/12 is 0 only without cusps; the branch data with no
        # cusp and an integral genus, the torus and the spheres with four
        # points of order 2 or three of order 3, are refused
        for nu2, nu3 in [(0, 0), (4, 0), (0, 3)]:
            with pytest.raises(ValueError, match="has a cusp"):
                Signature(nu2=nu2, nu3=nu3, cusps=(), minus_I=True)


class TestConstruction:
    """Branch data that no subgroup of SL2(Z) has are refused when the
    signature is built."""

    @pytest.mark.parametrize("nu2,nu3,widths", [
        (1, 0, (1,)), (0, 1, (1,)), (0, 0, (5,)),
        # the Euler formula gives -1
        (4, 0, (3, 3, 3, 3))])
    def test_non_integral_genus(self, nu2, nu3, widths):
        cusps = tuple(CuspDatum(w, True) for w in widths)
        with pytest.raises(NonIntegralGenus):
            Signature(nu2=nu2, nu3=nu3, cusps=cusps, minus_I=True)

    def test_irregular_cusp_with_minus_I(self):
        # Gamma1(4)'s branch data, with -I
        cusps = (CuspDatum(1, True), CuspDatum(1, False), CuspDatum(4, True))
        assert Signature(nu2=0, nu3=0, cusps=cusps, minus_I=False).genus == 0
        with pytest.raises(ValueError, match="irregular"):
            Signature(nu2=0, nu3=0, cusps=cusps, minus_I=True)

    def test_foreign_object_is_unequal(self):
        # SL2Z's signature equals no object but a signature, not even the
        # tuple of the fields it compares
        cusps = (CuspDatum(1, True),)
        sig = Signature(nu2=1, nu3=1, cusps=cusps, minus_I=True)
        assert sig == Signature(nu2=1, nu3=1, cusps=cusps, minus_I=True)
        for other in ((1, 1, cusps, True), None, "SL2Z"):
            assert not sig == other and sig != other


class TestFamilyInvariants:
    @pytest.mark.parametrize("kind", ["gamma0", "gamma1", "gamma"])
    @pytest.mark.parametrize("n", range(1, 26))
    def test_pipeline_consistency(self, kind, n):
        if kind == "gamma" and n > 12:
            return  # keep the suite quick; lower levels already cover it
        K = group(kind, n)
        sig = subgroup_signature(K)
        assert sig.genus >= 0
        assert len(coset_action(K).reps) == sig.mu_proj
        if not sig.minus_I:
            assert sig.nu2 == 0
        else:
            assert all(c.regular for c in sig.cusps)
        assert sig.minus_I == K.contains_minus_I
        assert sig.mu_sl == sl2_group_order(K.level) // K.order

    @pytest.mark.parametrize("n", range(5, 26))
    def test_gamma1_regular_above_4(self, n):
        sig = subgroup_signature(group("gamma1", n))
        assert all(c.regular for c in sig.cusps)

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 8, 11])
    def test_area_multiplicative_in_covering_degree(self, n):
        sig0 = subgroup_signature(group("gamma0", n))
        sig1 = subgroup_signature(group("gamma1", n))
        degree = Fraction(sig1.mu_proj, sig0.mu_proj)
        assert area_constant_c(sig1) == area_constant_c(sig0) * degree

    @pytest.mark.parametrize("kind,n", [("full", 1), ("gamma0", 5),
                                        ("gamma1", 4), ("gamma", 2),
                                        ("gamma0", 11)])
    def test_finite_k_slope_equals_c(self, kind, n):
        sig = subgroup_signature(group(kind, n))
        c = area_constant_c(sig)
        P = PERIOD
        for k in range(4, 4 + 2 * P, 2):
            diff = dims(sig, k + P).dim_M - dims(sig, k).dim_M
            assert Fraction(diff, P) == c


def reference_cusps(K):
    """Sorted (width, regular) of every cusp of K by the SL-level rule.

    The cosets K g of K in SL2(Z/N) carry the right action of T and of -I.
    A cusp is an orbit of <T, -I>; its width is the orbit's size, halved
    when -I is not in K, and it is regular iff its T-cycle has that width.
    """
    n = K.level
    coset_of, reps = {}, []
    for g in full_sl2(n).elements:
        if g not in coset_of:
            for h in K.elements:
                coset_of[mat_mul(h, g, n)] = len(reps)
            reps.append(g)
    t, mi = reduce_mat(T_MAT, n), minus_identity(n)
    sl_T = [coset_of[mat_mul(r, t, n)] for r in reps]
    neg = [coset_of[mat_mul(r, mi, n)] for r in reps]
    seen, out = set(), []
    for i in range(len(reps)):
        if i in seen:
            continue
        orbit, frontier = {i}, [i]
        while frontier:
            x = frontier.pop()
            for y in (sl_T[x], neg[x]):
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        seen |= orbit
        cycle, x = 1, sl_T[i]
        while x != i:
            cycle, x = cycle + 1, sl_T[x]
        width = len(orbit) if K.contains_minus_I else len(orbit) // 2
        out.append((width, cycle == width))
    return sorted(out)


def family_groups():
    """Label and group of Gamma0(N), Gamma1(N) and Gamma(N) for N <= 16."""
    return [(f"{kind}:{n}", group(kind, n))
            for kind in ("gamma0", "gamma1", "gamma") for n in range(1, 17)]


def preimage_groups():
    """Label and group of every Gamma_C of three pairs Gamma/Gamma1."""
    out = []
    for k0, n0, k1, n1 in [("gamma0", 8, "gamma1", 8),
                           ("gamma0", 12, "gamma1", 12),
                           ("gamma1", 4, "gamma", 4)]:
        pair = QuotientPair.build(SubgroupSpec(k0, n0), SubgroupSpec(k1, n1))
        for gen, _ in pair.cyclics:
            C = frozenset(power_row(pair.G, gen))
            out.append((f"{k0}:{n0}/{k1}:{n1}/C{gen}",
                        preimage_subgroup(pair, C)))
    return out


GROUPS = family_groups() + preimage_groups()


class TestRegularityMatchesSlLevelRule:
    """Cusp regularity by r T^w r^-1 in K agrees with the SL-level rule."""

    @pytest.mark.parametrize("label,K", GROUPS,
                             ids=[label for label, _ in GROUPS])
    def test_cusps(self, label, K):
        sig = subgroup_signature(K)
        assert sorted((c.width, c.regular) for c in sig.cusps) == \
            reference_cusps(K)

    def test_irregular_cusps_are_covered(self):
        irregular = [label for label, K in GROUPS
                     if any(not regular for _, regular in reference_cusps(K))]
        assert irregular == ["gamma1:4", "gamma0:8/gamma1:8/C1",
                             "gamma0:12/gamma1:12/C1", "gamma1:4/gamma:4/C1"]


def relabelled(act, seed):
    """The same action with its cosets numbered in a random order."""
    order = list(range(len(act.reps)))
    random.Random(seed).shuffle(order)  # new number -> old number
    new = {old: i for i, old in enumerate(order)}

    def perm(p):
        return tuple(new[p[old]] for old in order)

    sigma_S, sigma_T = perm(act.sigma_S), perm(act.sigma_T)
    return PermutationAction(
        sigma_S=sigma_S, sigma_T=sigma_T,
        reps=tuple(act.reps[old] for old in order))


def lowest_coset_order(act, K):
    """Cusps with the T-cycles ordered by width, then by lowest coset."""
    n, seen, cycles, members = K.level, set(), [], frozenset(K.elements)
    for i in range(len(act.reps)):
        if i not in seen:
            cycles.append(cycle_of(act.sigma_T, i))
            seen.update(cycles[-1])
    out = []
    for cyc in sorted(cycles, key=lambda c: (len(c), c)):
        r = act.reps[cyc[0]]
        conj = mat_mul(mat_mul(r, (1, len(cyc), 0, 1), n), mat_inv(r, n), n)
        out.append(CuspDatum(len(cyc),
                             K.contains_minus_I or conj in members))
    return tuple(out)


def cycle_of(perm, i):
    out, x = [i], perm[i]
    while x != i:
        out.append(x)
        x = perm[x]
    return out


class TestCuspOrder:
    """Cusps are listed by width, regular first."""

    @pytest.mark.parametrize("label,K", GROUPS,
                             ids=[label for label, _ in GROUPS])
    def test_independent_of_coset_numbering(self, label, K):
        act = coset_action(K)
        sig = signature_from_action(act, K)
        assert [(c.width, not c.regular) for c in sig.cusps] == \
            sorted((c.width, not c.regular) for c in sig.cusps)
        for seed in range(3):
            assert signature_from_action(relabelled(act, seed), K) == sig

    @pytest.mark.parametrize("kind", ["gamma0", "gamma1", "gamma"])
    def test_families_keep_lowest_coset_order(self, kind):
        # for the congruence families, regular first agrees with the order
        # of the T-cycles by their lowest coset, so their reports do not move
        for n in range(1, 31):
            K = group(kind, n)
            act = coset_action(K)
            assert signature_from_action(act, K).cusps == \
                lowest_coset_order(act, K), f"{kind}:{n}"


# (kind, level n, a multiple m of n to realize the group at as well)
OWN_LEVEL = [("gamma0", 5, 10), ("gamma0", 4, 24), ("gamma1", 4, 12),
             ("gamma1", 7, 14), ("gamma", 3, 6), ("gamma", 12, 24),
             ("gamma", 5, 30), ("full", 1, 6), ("custom", 4, 8),
             ("custom", 6, 12)]


class TestOwnLevel:
    """A group realized above its level has the coset action of its
    realization at its level: the lookup runs mod its spec's level n, on
    the bottom row when T lies in the group (Gamma0(N), Gamma1(N), SL2Z),
    on the whole matrix otherwise (Gamma(N), and custom:n here, which is
    Gamma(n))."""

    @pytest.mark.parametrize("kind,n,m", OWN_LEVEL)
    def test_same_action_at_a_multiple_of_the_level(self, kind, n, m,
                                                    monkeypatch):
        import modmult.cosets as cosets
        lookups = []
        original = cosets._coset_table

        def recorded(acting, key, own, *args):
            lookups.append((frozenset(acting), key, own))
            return original(acting, key, own, *args)

        monkeypatch.setattr(cosets, "_coset_table", recorded)
        low, high = group(kind, n), group(kind, n, at_level=m)
        act_low, act_high = coset_action(low), coset_action(high)
        # both tables are keyed alike, mod n
        assert len(lookups) == 2 and lookups[0] == lookups[1]
        _, key, own = lookups[0]
        assert own == n
        assert key == (slice(2, 4) if kind in ("gamma0", "gamma1", "full")
                       else slice(0, 4))
        assert len(act_high.reps) == len(act_low.reps)
        assert (act_high.sigma_S, act_high.sigma_T) == \
            (act_low.sigma_S, act_low.sigma_T)
        assert repr(subgroup_signature(high)) == repr(subgroup_signature(low))

    def test_wrong_own_level_refused(self):
        # Gamma1(4) claimed to hold every matrix = I mod 2: its bottom rows
        # mod 2 would close the walk on 3 of its 6 projective cosets, so
        # the group is refused where it is built
        with pytest.raises(ValueError, match="own_level 2$"):
            FiniteSubgroup(4, group("gamma1", 4).elements, own_level=2)

    def test_bad_own_level_refused_at_construction(self):
        # an own_level that is not a positive divisor of the level, a
        # negative residue and a residue not below own_level: each raises,
        # naming own_level
        elements = group("gamma1", 4).elements
        for own in (8, 3, 0):
            with pytest.raises(ValueError, match=f"own_level {own}$"):
                FiniteSubgroup(4, elements, own_level=own)
        for bad in ((1, 0, 0, -1), (1, 4, 0, 1)):
            with pytest.raises(ValueError, match="own_level 4$"):
                FiniteSubgroup(4, elements[:1] + (bad,), own_level=4)

    @pytest.mark.parametrize("residues", [(), ((1, 1, 0, 1),)],
                             ids=["empty", "T-alone"])
    def test_residues_without_identity_refused(self, residues):
        # no residue, which would read as Gamma(4), and T alone, whose walk
        # would end in an IndexError: neither lists I, so neither is a group
        with pytest.raises(ValueError, match="^residues mod 4 do not list I$"):
            FiniteSubgroup(4, residues, own_level=4)

    @pytest.mark.parametrize("level,residues,opened,size", [
        (4, ((1, 0, 0, 1), (1, 1, 0, 1)), 6, 12),
        (3, ((0, 1, 2, 1), (1, 0, 0, 1)), 8, 6),
        (4, ((1, 0, 0, 1), (2, 0, 0, 2)), 24, 16)],
        ids=["I-T-mod-4", "I-ST-mod-3", "I-2I-mod-4"])
    def test_walk_of_a_non_group_refused(self, level, residues, opened, size):
        # the cosets number |SL2(Z/n)| / |+-K mod n|.  I and T mod 4, not
        # closed, closes its walk on 6 of the 12 its 4 residues of +-K
        # imply, and I with (0, 1, -1, 1) mod 3 opens 8 of 6; I with 2I mod
        # 4, whose determinant is 0, gives +-K = {I, 2I, -I} and 16 cosets,
        # and its walk runs to the end of its keys, 24 cosets: one count
        # after the walk refuses each with a typed error
        K = FiniteSubgroup(level, residues, own_level=level)
        for read in (coset_action, subgroup_signature):
            with pytest.raises(NotAGroup, match=(
                    f"^the residues are not a group: their coset walk opened "
                    f"{opened} cosets, not {size}$")):
                read(K)


def whole_matrix_keys(acting, n):
    """coset_keys without its bottom-row rule: whole matrices mod n, with
    acting all of +-K mod n."""
    return acting, slice(0, 4)


def generic_action(K, patch):
    """coset_action keyed by nothing of K but its elements: whole matrices
    mod K.level, with acting all of +-K."""
    import modmult.cosets as cosets
    patch.setattr(cosets, "coset_keys", whole_matrix_keys)
    return coset_action(FiniteSubgroup(K.level, K.elements, own_level=K.level))


T_GEN, S_GEN, MINUS_I = (1, 1, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1)


def custom_specs():
    """Custom groups of level n <= 15: Gamma(n) and the preimages of <T>,
    <S> and <T, -I> mod n."""
    return [SubgroupSpec("custom", n, gens) for n in range(1, 16)
            for gens in ((), (T_GEN,), (S_GEN,), (T_GEN, MINUS_I))]


def family_specs(kind):
    if kind == "full":
        return [SubgroupSpec("full", 1)]
    if kind == "custom":
        return custom_specs()
    return [SubgroupSpec(kind, n) for n in range(1, 31)]


# custom groups of level 97: <T> is Gamma1(97), and <T, diag(5, 39)> is
# Gamma0(97), as 5 generates (Z/97)^x
CUSTOM_97 = {"custom-T": (T_GEN,), "custom-T-diag": (T_GEN, (5, 0, 0, 39))}


class TestKeyedTable:
    """Each realized group, keyed by its own rule (bottom rows mod its
    spec's level when T lies in it, whole matrices otherwise), gives the
    coset table of the generic lookup, whole matrices mod the level K is
    realized at."""

    @pytest.mark.parametrize("kind",
                             ["gamma0", "gamma1", "gamma", "full", "custom"])
    def test_keyed_equals_generic(self, kind, monkeypatch):
        # SL2Z is realized at every level m <= 30
        for spec in family_specs(kind):
            n = spec.level
            for m in (range(1, 31) if kind == "full" else (n, 2 * n)):
                K = realize(spec, at_level=m, level_cap=60)
                keyed = coset_action(K)
                with monkeypatch.context() as patch:
                    assert keyed == generic_action(K, patch), f"{spec} at {m}"

    @pytest.mark.parametrize("kind,bound", [
        # mu_proj * phi(97) and 2 * mu_proj for Gamma1(97)
        ("gamma0", 98 * 96), ("gamma1", 2 * 4704),
        ("custom-T", 2 * 4704), ("custom-T-diag", 98 * 96)])
    def test_keys_are_o_of_the_index(self, kind, bound, monkeypatch):
        import modmult.cosets as cosets
        tables = []
        original = cosets._coset_table

        def recorded(acting, key, n, m):
            reps, perms = original(acting, key, n, m)
            tables.append(len({mat_mul(h, r, n)[key]
                               for r in reps for h in acting}))
            return reps, perms

        monkeypatch.setattr(cosets, "_coset_table", recorded)
        spec = (SubgroupSpec("custom", 97, CUSTOM_97[kind])
                if kind in CUSTOM_97 else SubgroupSpec(kind, 97))
        K = realize(spec, level_cap=200)
        coset_action(K)
        # not one key per element of SL2(Z/97), 912,576 of them
        assert tables == [bound]

    @pytest.mark.parametrize("n", [37, 41])
    def test_verify_report_by_either_route(self, n, monkeypatch, capsys):
        import modmult.cosets as cosets
        from modmult.cli import main
        argv = ["verify", "--pair", f"gamma0:{n}/gamma1:{n}",
                "--level-cap", str(n)]
        keys = []
        original = cosets._coset_table

        def recorded(acting, key, *args):
            keys.append(key)
            return original(acting, key, *args)

        monkeypatch.setattr(cosets, "_coset_table", recorded)
        reports = []
        for whole in (False, True):
            if whole:
                monkeypatch.setattr(cosets, "coset_keys", whole_matrix_keys)
            assert main(argv) == 0
            reports.append(capsys.readouterr().out)
        # keyed by bottom rows, then by whole matrices mod n
        assert keys == [slice(2, 4), slice(0, 4)]
        assert reports[0] == reports[1]


PAIRS = ([("gamma0", n, "gamma1", n) for n in (8, 12, 20, 24, 28)]
         + [("gamma1", 4, "gamma", 4), ("gamma", 12, "gamma", 24),
            ("full", 1, "gamma", 2)]
         # with the above: Gamma0(N)/Gamma1(N) for N <= 30, Gamma(N)/Gamma(2N)
         # and Gamma1(N)/Gamma(N) for N <= 15
         + [("gamma0", n, "gamma1", n) for n in range(1, 31)
            if n not in (8, 12, 20, 24, 28)]
         + [("gamma", n, "gamma", 2 * n) for n in range(1, 16) if n != 12]
         + [("gamma1", n, "gamma", n) for n in range(1, 16) if n != 4]
         + [("gamma0", 3, "gamma", 3), ("gamma0", 4, "gamma", 4)])


def reference_walk(K):
    """coset_action's breadth-first walk with one mat_mul by S or T,
    reduced mod the level, per step: a representative's images are found
    as products, and the cosets are taken from a queue in the order they
    open."""
    n, m = K.own_level, K.level
    acting = {tuple(v % n for v in h) for h in K.elements}
    acting |= {tuple(-v % n for v in h) for h in acting}
    acting, key = coset_keys(acting, n)
    gens = (reduce_mat(S_GEN, m), reduce_mat(T_GEN, m))
    reps = [(1 % m, 0, 0, 1 % m)]
    lookup = {h[key]: 0 for h in acting}
    perms = [{} for _ in gens]
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for g, perm in zip(gens, perms):
            img = mat_mul(reps[i], g, m)
            j = lookup.get(tuple(v % n for v in img)[key])
            if j is None:
                j = len(reps)
                reps.append(img)
                for h in acting:
                    lookup[mat_mul(h, img, n)[key]] = j
                queue.append(j)
            perm[i] = j
    # every coset was taken from the queue once, so each perm is total
    assert all(sorted(perm) == list(range(len(reps))) for perm in perms)
    return PermutationAction(
        sigma_S=tuple(perms[0][i] for i in range(len(reps))),
        sigma_T=tuple(perms[1][i] for i in range(len(reps))),
        reps=tuple(reps))


class TestWalk:
    """S and T applied to a representative in place give the reps and
    permutations of the walk by matrix products."""

    @pytest.mark.parametrize("k0,n0,k1,n1", PAIRS)
    def test_gamma_and_gamma1_of_every_pair(self, k0, n0, k1, n1):
        level = lcm(n0, n1)
        for kind, n in ((k0, n0), (k1, n1)):
            K = group(kind, n, at_level=level)
            assert coset_action(K) == reference_walk(K), (kind, n, level)

    @pytest.mark.parametrize("kind,n,m", OWN_LEVEL)
    def test_own_level_groups(self, kind, n, m):
        for K in (group(kind, n), group(kind, n, at_level=m)):
            assert coset_action(K) == reference_walk(K)


# nonabelian quotients, which QuotientPair builds only with a --table:
# SL2(Z/3), SL2(Z/4), and three Gamma0(N)/Gamma(M) of orders 16 to 162
NONABELIAN = [("full", 1, "gamma", 3), ("full", 1, "gamma", 4),
              ("gamma0", 2, "gamma", 4), ("gamma0", 5, "gamma", 5),
              ("gamma0", 4, "gamma", 8), ("gamma0", 3, "gamma", 9)]


class TestPreimageSignature:
    """Every Gamma_C read from Gamma's branch points and C's permutation
    character equals its signature from a coset table of its own, C cyclic
    or not."""

    @pytest.mark.parametrize("k0,n0,k1,n1", PAIRS,
                             ids=[f"{a}:{b}/{c}:{d}" for a, b, c, d in PAIRS])
    def test_matches_own_coset_table(self, k0, n0, k1, n1):
        pair = QuotientPair.build(SubgroupSpec(k0, n0), SubgroupSpec(k1, n1))
        G = pair.G
        mul, inv = mul_table(G)
        subgroups = {frozenset(mul[mul[g][x]][inv[g]] for x in sub)
                     for sub in cyclic_sets(G, pair.cyclics)
                     for g in range(G.order)}
        # Gamma and Gamma1 themselves
        subgroups |= {frozenset(range(G.order)), frozenset({G.identity})}
        # and every subgroup two elements generate (|G| <= 48 here)
        subgroups |= {generated(G, (a, b), mul) for a in range(G.order)
                      for b in range(a, G.order)}
        for C in subgroups:
            assert repr(fibre_sig(pair, C)) == \
                repr(subgroup_signature(preimage_subgroup(pair, C))), sorted(C)
        # cyclics[0] is the trivial subgroup, whose Gamma_C is Gamma1
        assert pair.cyclic_dims[0].sig == subgroup_signature(pair.gamma1)
        # fibre_sig reads the fibres at C = G too; sig_gamma is Gamma's
        # own coset table
        assert fibre_sig(pair, frozenset(range(G.order))) == pair.sig_gamma

    @pytest.mark.parametrize("k0,n0,k1,n1", NONABELIAN,
                             ids=[f"{a}:{b}/{c}:{d}"
                                  for a, b, c, d in NONABELIAN])
    def test_nonabelian_quotients(self, k0, n0, k1, n1):
        # the fibres need no character table: here h's cycles on the
        # cosets have lengths of more than one size, so the shorter cycles
        # are subtracted from the fixed points of h^d
        m = lcm(n0, n1)
        gamma = realize(SubgroupSpec(k0, n0), at_level=m)
        gamma1 = realize(SubgroupSpec(k1, n1), at_level=m)
        G = quotient(gamma, gamma1)
        assert not G.is_abelian
        branch = subgroup_signature(gamma).branch.under(G.coset_index)
        pair = SimpleNamespace(G=G, gamma1=gamma1)
        mul, _ = mul_table(G)
        for C in {generated(G, (a, b), mul) for a in range(G.order)
                  for b in range(a, G.order)}:
            assert repr(fibre_signature(G, branch, induced(G, C))) == \
                repr(subgroup_signature(preimage_subgroup(pair, C))), sorted(C)

    def test_irregular_cusps_are_covered(self):
        pair = QuotientPair.build(SubgroupSpec("gamma0", 12),
                                  SubgroupSpec("gamma1", 12))
        sigs = [fibre_sig(pair, sub)
                for sub in cyclic_sets(pair.G, pair.cyclics)]
        assert any(sig.eps_irr for sig in sigs)
        assert any(not sig.minus_I and not sig.eps_irr for sig in sigs)


def gauss_bonnet(sig):
    """c from the genus and branch data: (2g - 2 + t + nu2/2 + 2 nu3/3)/2."""
    return Fraction(1, 2) * (2 * sig.genus - 2 + sig.t + Fraction(sig.nu2, 2)
                             + Fraction(2 * sig.nu3, 3))


def projective_index(K):
    """The number of cosets of +-K in SL2(Z/N), from the group orders."""
    index = sl2_group_order(K.level) // K.order
    return index if K.contains_minus_I else index // 2


class TestGaussBonnet:
    """c = mu_proj/12 equals the Gauss-Bonnet area from the genus and the
    branch data, and mu_proj equals the coset count."""

    @pytest.mark.parametrize("label,K", GROUPS,
                             ids=[label for label, _ in GROUPS])
    def test_group(self, label, K):
        sig = subgroup_signature(K)
        assert area_constant_c(sig) == gauss_bonnet(sig)
        assert sig.mu_proj == len(coset_action(K).reps) == projective_index(K)

    @pytest.mark.parametrize("k0,n0,k1,n1", PAIRS,
                             ids=[f"{a}:{b}/{c}:{d}" for a, b, c, d in PAIRS])
    def test_gamma_and_every_gamma_c(self, k0, n0, k1, n1):
        pair = QuotientPair.build(SubgroupSpec(k0, n0), SubgroupSpec(k1, n1))
        G = pair.G
        sigs = [(sub, fibre_sig(pair, sub))
                for sub in cyclic_sets(G, pair.cyclics)]
        sigs.append((frozenset(range(G.order)), pair.sig_gamma))
        for C, sig in sigs:
            assert area_constant_c(sig) == gauss_bonnet(sig), sorted(C)
            assert sig.mu_proj == \
                projective_index(preimage_subgroup(pair, C)), sorted(C)


class WalkTaken(Exception):
    pass


def refuse_walk(K):
    raise WalkTaken(K.level)


def principal_groups():
    """Gamma(N) for N = 2..30 at every level k N <= 60, and the custom
    Gamma(N) (no generators) and +-Gamma(N) (generator -I) for N = 2..15."""
    out = [(f"gamma:{n}@{m}", SubgroupSpec("gamma", n), m)
           for n in range(2, 31) for m in range(n, 61, n)]
    for n in range(2, 16):
        out.append((f"custom:{n}", SubgroupSpec("custom", n), n))
        out.append((f"custom:{n}:-I", SubgroupSpec("custom", n, (MINUS_I,)),
                    n))
    return out


PRINCIPAL = principal_groups()
# the pairs of PAIRS whose Gamma is Gamma(N), N >= 2
PRINCIPAL_PAIRS = [p for p in PAIRS if p[0] == "gamma" and p[1] > 1]


class TestPrincipalCusps:
    """Gamma(n) and +-Gamma(n) take their branch points from +-(a, c) mod n,
    with no coset table, and agree with the walk, the reference."""

    @pytest.mark.parametrize("label,spec,m", PRINCIPAL,
                             ids=[label for label, _, _ in PRINCIPAL])
    def test_signature_equals_the_walk(self, label, spec, m, monkeypatch):
        import modmult.cosets as cosets
        K = realize(spec, at_level=m, level_cap=60)
        with monkeypatch.context() as patch:
            patch.setattr(cosets, "coset_action", refuse_walk)
            sig = subgroup_signature(K)
        assert repr(sig) == repr(signature_from_action(coset_action(K), K))

    @pytest.mark.parametrize("k0,n0,k1,n1", PRINCIPAL_PAIRS,
                             ids=[f"{a}:{b}/{c}:{d}"
                                  for a, b, c, d in PRINCIPAL_PAIRS])
    def test_fibres_equal_the_walk(self, k0, n0, k1, n1):
        pair = QuotientPair.build(SubgroupSpec(k0, n0), SubgroupSpec(k1, n1))
        G = pair.G
        route = pair.sig_gamma.branch.under(G.coset_index)
        walk = branch_points(coset_action(pair.gamma), pair.gamma).under(
            G.coset_index)
        subgroups = cyclic_sets(G, pair.cyclics)
        subgroups.append(frozenset(range(G.order)))
        for C in subgroups:
            assert repr(fibre_signature(G, route, induced(G, C))) == \
                repr(fibre_signature(G, walk, induced(G, C))), sorted(C)

    @pytest.mark.parametrize("pair,walks", [
        ("gamma:12/gamma:24", False), ("gamma:2/gamma:4", False),
        ("gamma0:8/gamma1:8", True), ("gamma1:4/gamma:4", True),
        ("SL2Z/gamma:2", True)])
    def test_build_without_a_coset_table(self, pair, walks, monkeypatch):
        import modmult.cosets as cosets
        from modmult.cli import parse_pair
        monkeypatch.setattr(cosets, "coset_action", refuse_walk)
        if walks:
            with pytest.raises(WalkTaken):
                QuotientPair.build(*parse_pair(pair))
        else:
            QuotientPair.build(*parse_pair(pair))
