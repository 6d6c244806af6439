import json
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from modmult.cosets import subgroup_signature
from modmult.exact import CycloValue, InconsistentSystem
from modmult.reps import (CharacterTable, CharacterTableRequired,
                          ClassMismatch, IndivisibleOrbitTotal, NotAbelian,
                          NotRationalAfterSum, OrthogonalityFailure,
                          QuotientPair, SchemaError,
                          abelian_character_table, artin_decompose,
                          builtin_s3_table, character_table_for,
                          load_character_table, multiplicity_series,
                          parity_class_of, parity_of, permutation_character,
                          rational_characters)
from modmult.sl2 import (FiniteSubgroup, SubgroupSpec,
                         cyclic_subgroups_up_to_conjugacy, enumerate_sl2,
                         mat_mul, quotient, realize)


@pytest.fixture(scope="module")
def diamond5():
    return QuotientPair.build(SubgroupSpec("gamma0", 5),
                              SubgroupSpec("gamma1", 5))


@pytest.fixture(scope="module")
def diamond7():
    return QuotientPair.build(SubgroupSpec("gamma0", 7),
                              SubgroupSpec("gamma1", 7))


@pytest.fixture(scope="module")
def diamond8():
    return QuotientPair.build(SubgroupSpec("gamma0", 8),
                              SubgroupSpec("gamma1", 8))


@pytest.fixture(scope="module")
def s3pair():
    return QuotientPair.build(SubgroupSpec("full", 1),
                              SubgroupSpec("gamma", 2))


def char_order(table, i):
    """Order of a degree-1 character: the least n with chi^n = 1."""
    row = table.values[i]
    power, n = row, 1
    while not all(v == 1 for v in power):
        power = [v * w for v, w in zip(power, row)]
        n += 1
    return n


class TestAbelianTable:
    def test_units_mod_5(self, diamond5):
        table = diamond5.table
        G = table.group
        assert len(table.names) == 4
        orders = sorted(char_order(table, i) for i in range(4))
        assert orders == [1, 2, 4, 4]
        for i in range(4):
            # the Schur scalar at the -I coset: +1 exactly for real characters
            at_minus_I = table.values[i][G.class_of[G.iota]]
            assert at_minus_I == (1 if char_order(table, i) in (1, 2) else -1)

    def test_units_mod_8(self, diamond8):
        table = diamond8.table
        assert len(table.names) == 4
        G = table.group
        for row in table.values:
            for v in row:
                assert v.rational_part() in (1, -1)

    def test_trivial_group(self):
        G = quotient(realize(SubgroupSpec("gamma1", 5)),
                     realize(SubgroupSpec("gamma1", 5)))
        table = abelian_character_table(G)
        assert table.names == ("triv",)

    def test_not_abelian(self, s3pair):
        with pytest.raises(NotAbelian):
            abelian_character_table(s3pair.G)


class TestS3Table:
    def test_builtin(self, s3pair):
        table = s3pair.table
        assert table.provenance == "BuiltinS3"
        assert sorted(table.degrees) == [1, 1, 2]
        G = table.group
        by_order = {G.element_order(c[0]): ci for ci, c in enumerate(G.classes)}
        for name, expect in [("triv", {1: 1, 2: 1, 3: 1}),
                             ("sign", {1: 1, 2: -1, 3: 1}),
                             ("std", {1: 2, 2: 0, 3: -1})]:
            i = table.names.index(name)
            for order, v in expect.items():
                assert table.values[i][by_order[order]] == v

    def test_nonabelian_without_table(self):
        # SL2(Z/3) / trivial is nonabelian of order 24: no built-in table
        g = enumerate_sl2(3)
        g1 = realize(SubgroupSpec("gamma", 3))
        G = quotient(g, g1)
        with pytest.raises(CharacterTableRequired):
            character_table_for(G)


def table_to_doc(table):
    G = table.group
    doc = {"classes": [], "characters": []}
    for cls in G.classes:
        doc["classes"].append({"rep": list(G.elements[cls[0]]),
                               "size": len(cls)})
    for name, deg, row in zip(table.names, table.degrees, table.values):
        vals = [{"order": v.order,
                 "coeffs": {str(j): f"{c.numerator}/{c.denominator}"
                            for j, c in v.coeffs.items()}} for v in row]
        doc["characters"].append({"name": name, "degree": deg, "values": vals})
    return doc


class TestLoadTable:
    def test_roundtrip_via_file(self, s3pair, tmp_path):
        doc = table_to_doc(s3pair.table)
        path = tmp_path / "s3.json"
        path.write_text(json.dumps(doc))
        table = load_character_table(str(path), s3pair.G)
        assert table.names == s3pair.table.names
        assert table.provenance == "UserFile"

    def test_duplicate_character(self, s3pair):
        doc = table_to_doc(s3pair.table)
        doc["characters"][1] = dict(doc["characters"][0], name="dup")
        with pytest.raises(OrthogonalityFailure):
            load_character_table(doc, s3pair.G)

    def test_degree_sum_mismatch(self, s3pair):
        doc = table_to_doc(s3pair.table)
        doc["characters"][2]["degree"] = 3
        with pytest.raises(SchemaError):
            load_character_table(doc, s3pair.G)

    def test_class_size_mismatch(self, s3pair):
        doc = table_to_doc(s3pair.table)
        doc["classes"][1]["size"] = 5
        with pytest.raises(ClassMismatch):
            load_character_table(doc, s3pair.G)

    def test_exact_fraction_strings(self, s3pair, diamond5):
        doc = table_to_doc(diamond5.table)
        table = load_character_table(doc, diamond5.G)
        assert table.degrees == diamond5.table.degrees


# (gamma, gamma1): the four standard pairs, a cyclic G of order 12 and an
# elementary abelian G of order 8
TABLE_PAIRS = [
    (SubgroupSpec("gamma0", 5), SubgroupSpec("gamma1", 5)),
    (SubgroupSpec("gamma0", 7), SubgroupSpec("gamma1", 7)),
    (SubgroupSpec("gamma0", 8), SubgroupSpec("gamma1", 8)),
    (SubgroupSpec("full", 1), SubgroupSpec("gamma", 2)),
    (SubgroupSpec("gamma0", 13), SubgroupSpec("gamma1", 13)),
    (SubgroupSpec("gamma", 12), SubgroupSpec("gamma", 24)),
]


def table_of(gamma, gamma1):
    level = lcm(gamma.level, gamma1.level)
    return character_table_for(quotient(realize(gamma, at_level=level),
                                        realize(gamma1, at_level=level)))


def reference_validate(table):
    """CharacterTable.validate written with CycloValue arithmetic: the same
    checks in the same order, raising the same types and messages."""
    G = table.group
    if any(len(row) != len(G.classes) for row in table.values):
        raise SchemaError("character value rows must match the class count")
    if sum(d * d for d in table.degrees) != G.order:
        raise SchemaError("sum of squared degrees must equal |G|")
    for deg, row in zip(table.degrees, table.values):
        if row[G.class_of[G.identity]].rational_part() != deg:
            raise SchemaError("degree must equal the value at the identity")
    sizes = [len(cls) for cls in G.classes]
    for i, row_i in enumerate(table.values):
        for j in range(i, len(table.values)):
            acc = CycloValue.from_rational(0)
            for size, vi, vj in zip(sizes, row_i, table.values[j]):
                acc = acc + size * (vi * vj.conj())
            ip = acc.rational_part()
            if ip != Fraction(G.order if i == j else 0):
                raise OrthogonalityFailure(
                    f"<{table.names[i]},{table.names[j]}> = {ip}/{G.order}")
    if G.iota is not None:
        for name, deg, row in zip(table.names, table.degrees, table.values):
            v = row[G.class_of[G.iota]]
            if not (v == deg or v == -deg):
                raise SchemaError(
                    f"value of {name} at the -I coset is not a +-1 scalar")


def outcome(check, table):
    """None if the check accepts the table, else (exception type, message)."""
    try:
        check(table)
    except (SchemaError, OrthogonalityFailure) as exc:
        return type(exc), str(exc)
    return None


def mutate(table, rng):
    """One or two random edits of a table's rows, columns or degrees."""
    G = table.group
    degrees = list(table.degrees)
    rows = [list(row) for row in table.values]
    n = len(rows)
    for _ in range(rng.randint(1, 2)):
        ncls = min(map(len, rows))
        r, c = rng.randrange(n), rng.randrange(ncls)
        kind = rng.randrange(9)
        if kind == 0:      # times a root of unity
            o = rng.choice((2, 3, 4, 8, 12, 2 * G.exponent))
            rows[r][c] = rows[r][c] * CycloValue.root_of_unity(o, rng.randrange(o))
        elif kind == 1:    # times a rational
            rows[r][c] = rows[r][c] * rng.choice(
                (Fraction(1, 2), Fraction(-1), Fraction(2), Fraction(3, 2), 0))
        elif kind == 2:    # row plus or minus another row
            s = rng.choice((1, -1))
            other = rows[rng.randrange(n)]
            rows[r] = [v + s * w for v, w in zip(rows[r], other)]
        elif kind == 3:    # swap two classes in every row
            d = rng.randrange(ncls)
            for row in rows:
                row[c], row[d] = row[d], row[c]
        elif kind == 4:    # another degree
            degrees[r] += rng.choice((1, -1))
        elif kind == 5:    # a value too few or too many
            if rng.random() < 0.5:
                rows[r].pop()
            else:
                rows[r].append(CycloValue.from_rational(1))
        elif kind == 6:    # a duplicated row
            rows[r] = list(rows[rng.randrange(n)])
        elif kind == 7:    # the complex conjugate row
            rows[r] = [v.conj() for v in rows[r]]
        else:              # the same value, rewritten with fractions in a
            v = rows[r][c]  # field where -1 = zeta^(o/2)
            o = 2 * lcm(v.order, G.exponent)
            b = rng.randrange(o)
            zero = CycloValue(o, {b: Fraction(1, 3), b + o // 2: Fraction(1, 3)})
            rows[r][c] = v.lift(o) + zero
    return CharacterTable(G, table.names, tuple(degrees),
                          tuple(tuple(row) for row in rows), "test")


@pytest.fixture(scope="module")
def table13():
    return table_of(SubgroupSpec("gamma0", 13), SubgroupSpec("gamma1", 13))


def edited(table, rows=None, degrees=None):
    return CharacterTable(table.group, table.names,
                          table.degrees if degrees is None else tuple(degrees),
                          table.values if rows is None else tuple(rows), "test")


class TestValidate:
    """Every rejection of CharacterTable.validate on the cyclic table of
    Gamma0(13)/Gamma1(13) (exponent 12), with its type and message."""

    def test_row_of_wrong_length(self, table13):
        rows = list(table13.values)
        rows[3] = rows[3][:-1]
        with pytest.raises(SchemaError,
                           match="^character value rows must match the class count$"):
            edited(table13, rows=rows).validate()

    def test_sum_of_squared_degrees(self, table13):
        degrees = (2,) + table13.degrees[1:]
        with pytest.raises(SchemaError,
                           match=r"^sum of squared degrees must equal \|G\|$"):
            edited(table13, degrees=degrees).validate()

    def test_degree_differs_from_value_at_identity(self, table13):
        rows = list(table13.values)
        rows[1] = tuple(v + w for v, w in zip(rows[1], rows[2]))
        with pytest.raises(SchemaError,
                           match="^degree must equal the value at the identity$"):
            edited(table13, rows=rows).validate()

    def test_irrational_inner_product(self, table13):
        G = table13.group
        c = next(ci for ci, cls in enumerate(G.classes)
                 if G.element_order(cls[0]) == 3)
        rows = [list(row) for row in table13.values]
        rows[1][c] = rows[1][c] * CycloValue.root_of_unity(12)
        with pytest.raises(OrthogonalityFailure) as err:
            edited(table13, rows=rows).validate()
        assert str(err.value) == f"<triv,{table13.names[1]}> = None/12"

    def test_user_file_fractions_in_q_zeta_24(self, table13):
        # chi1 written in Q(zeta_24) with thirds that cancel (zeta^12 = -1)
        # loads; halving its value -1 at one class does not
        G = table13.group
        doc = table_to_doc(table13)
        c = next(ci for ci, v in enumerate(table13.values[1]) if v == -1)
        vals = []
        for v in table13.values[1]:
            (a, _), = v.lift(24).coeffs.items()
            b = (a + 1) % 24
            vals.append({"order": 24, "coeffs": {str(a): "1", str(b): "1/3",
                                                 str(b + 12): "1/3"}})
        doc["characters"][1]["values"] = vals
        assert load_character_table(doc, G).names == table13.names
        (a, _), = table13.values[1][c].lift(24).coeffs.items()
        vals[c] = {"order": 24, "coeffs": {str(a): "1/2"}}
        with pytest.raises(OrthogonalityFailure) as err:
            load_character_table(doc, G)
        assert str(err.value) == f"<triv,{table13.names[1]}> = 1/2/12"

    def test_value_at_minus_identity_not_scalar(self, table13):
        # swapping the -I class with a class of order 3 keeps orthogonality
        G = table13.group
        iota = G.class_of[G.iota]
        c = next(ci for ci, cls in enumerate(G.classes)
                 if G.element_order(cls[0]) == 3)
        rows = [list(row) for row in table13.values]
        for row in rows:
            row[iota], row[c] = row[c], row[iota]
        name = next(n for n, row in zip(table13.names, rows)
                    if row[iota] != 1 and row[iota] != -1)
        with pytest.raises(SchemaError) as err:
            edited(table13, rows=rows).validate()
        assert str(err.value) == f"value of {name} at the -I coset is not a +-1 scalar"

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("pair", TABLE_PAIRS[:4],
                             ids=lambda p: f"{p[0].label()}/{p[1].label()}")
    def test_matches_reference_on_mutations(self, pair, seed):
        table = table_of(*pair)
        rng = random.Random(f"{seed}/{pair[0].label()}/{pair[1].label()}")
        seen = set()
        for _ in range(40):
            broken = mutate(table, rng)
            got = outcome(CharacterTable.validate, broken)
            assert got == outcome(reference_validate, broken)
            seen.add(None if got is None else got[0])
        assert OrthogonalityFailure in seen and SchemaError in seen


class TestRationalCharacters:
    def test_units_mod_5_orbits(self, diamond5):
        rats = diamond5.rationals
        assert sorted(r.orbit_size for r in rats) == [1, 1, 2]
        orbit = next(r for r in rats if r.orbit_size == 2)
        G = diamond5.G
        # value 2 at the identity, -2 at the order-2 element, 0 elsewhere
        for ci, cls in enumerate(G.classes):
            order = G.element_order(cls[0])
            expect = {1: 2, 2: -2}.get(order, 0)
            assert orbit.values[ci] == expect

    def test_s3_singletons(self, s3pair):
        assert all(r.orbit_size == 1 for r in s3pair.rationals)

    def test_units_mod_8_singletons(self, diamond8):
        assert len(diamond8.rationals) == 4
        assert all(r.orbit_size == 1 for r in diamond8.rationals)


@pytest.fixture(scope="module", params=TABLE_PAIRS,
                ids=lambda p: f"{p[0].label()}/{p[1].label()}")
def table_of_pair(request):
    return table_of(*request.param)


def reference_rational_characters(table):
    """Galois orbits found by twisting the values themselves, summed as
    CycloValues: (member names, orbit-sum values) per orbit."""
    G = table.group
    m = lcm(G.exponent, *(v.order for row in table.values for v in row))
    rows = [[v.lift(m) for v in row] for row in table.values]

    def twist(v, a):  # zeta_m -> zeta_m^a
        return CycloValue(m, {a * j: c for j, c in v.coeffs.items()})

    out, seen = [], set()
    for i, row in enumerate(rows):
        if i in seen:
            continue
        members = sorted({j for a in range(1, m + 1) if gcd(a, m) == 1
                          for j, other in enumerate(rows)
                          if all(twist(v, a) == w for v, w in zip(row, other))})
        seen.update(members)
        sums = [sum((rows[j][c] for j in members), CycloValue(m))
                for c in range(len(G.classes))]
        out.append((tuple(table.names[j] for j in members),
                    tuple(v.rational_part() for v in sums)))
    return out


class TestGaloisOrbitsFromPowerMaps:
    def test_matches_value_twisting(self, table_of_pair):
        got = [(r.names, r.values) for r in rational_characters(table_of_pair)]
        assert got == reference_rational_characters(table_of_pair)

    def test_user_file_in_larger_cyclotomic_field(self, table13):
        # values written in Q(zeta_{2e}) give the same orbits and sums, also
        # when every other row adds (zeta^b + zeta^(b+12))/3 = 0 to each value
        table = table13
        G = table.group
        doc = table_to_doc(table)
        for r, (ch, row) in enumerate(zip(doc["characters"], table.values)):
            ch["values"] = []
            for v in row:
                (a, c), = v.lift(24).coeffs.items()
                coeffs = {str(a): f"{c}"}
                if r % 2:
                    b = (a + 1) % 24
                    coeffs.update({str(b): "1/3", str(b + 12): "1/3"})
                ch["values"].append({"order": 24, "coeffs": coeffs})
        wide = load_character_table(doc, G)
        assert {v.order for row in wide.values for v in row} == {24}
        got = [(r.names, r.values) for r in rational_characters(wide)]
        assert got == reference_rational_characters(wide)
        assert got == [(r.names, r.values) for r in rational_characters(table)]

    def test_broken_tables_raise(self, diamond5):
        # unvalidated rows of G = C4: a row without its Galois twist, and a
        # row fixed by the power maps whose values lie outside Q(zeta_4)
        G = diamond5.G
        table = diamond5.table
        odd = next(i for i, row in enumerate(table.values)
                   if row[G.class_of[G.iota]] == -1)
        partial = CharacterTable(G, ("triv", "chi"), (1, 1),
                                 (table.values[0], table.values[odd]), "test")
        with pytest.raises(NotRationalAfterSum, match="twist"):
            rational_characters(partial)
        z8 = CycloValue.root_of_unity(8)
        fixed = tuple(CycloValue.from_rational(1)
                      if G.element_order(cls[0]) < 4 else z8
                      for cls in G.classes)
        outside = CharacterTable(G, ("f",), (1,), (fixed,), "test")
        with pytest.raises(NotRationalAfterSum, match="orbit sum"):
            rational_characters(outside)

    def test_square_marks_matrix_is_triangular(self, table_of_pair):
        G = table_of_pair.group
        cyclics = cyclic_subgroups_up_to_conjugacy(G)
        perms = [permutation_character(G, sub) for _, sub in cyclics]
        rows = [G.class_of[gen] for gen, _ in cyclics]
        assert len(rows) == len(rational_characters(table_of_pair))
        for i, cl in enumerate(rows):
            assert perms[i][cl] > 0
            assert all(perms[j][cl] == 0 for j in range(i))


class TestPermutationCharacter:
    def test_c4(self, diamond5):
        G = diamond5.G
        c2 = next(s for _, s in cyclic_subgroups_up_to_conjugacy(G)
                  if len(s) == 2)
        vals = permutation_character(G, c2)
        for ci, cls in enumerate(G.classes):
            order = G.element_order(cls[0])
            assert vals[ci] == (2 if order in (1, 2) else 0)

    def test_s3_c2(self, s3pair):
        G = s3pair.G
        c2 = next(s for _, s in cyclic_subgroups_up_to_conjugacy(G)
                  if len(s) == 2)
        vals = permutation_character(G, c2)
        by_order = {G.element_order(c[0]): ci for ci, c in enumerate(G.classes)}
        assert vals[by_order[1]] == 3
        assert vals[by_order[2]] == 1
        assert vals[by_order[3]] == 0

    def test_whole_group(self, s3pair):
        G = s3pair.G
        vals = permutation_character(G, frozenset(range(G.order)))
        assert vals == (1,) * len(G.classes)


class TestArtin:
    def test_c4_orbit(self, diamond5):
        G = diamond5.G
        cy = cyclic_subgroups_up_to_conjugacy(G)
        assert [len(s) for _, s in cy] == [1, 2, 4]
        orbit = next(r for r in diamond5.rationals if r.orbit_size == 2)
        coeffs = artin_decompose(orbit.values, G, cy)
        assert coeffs == (1, -1, 0)

    def test_s3(self, s3pair):
        G = s3pair.G
        cy = cyclic_subgroups_up_to_conjugacy(G)
        assert [len(s) for _, s in cy] == [1, 2, 3]
        by_name = {r.label: r for r in s3pair.rationals}
        assert artin_decompose(by_name["triv"].values, G, cy) == \
            (Fraction(-1, 2), 1, Fraction(1, 2))
        assert artin_decompose(by_name["std"].values, G, cy) == \
            (Fraction(1, 2), 0, Fraction(-1, 2))

    def test_resubstitution(self, diamond7):
        G = diamond7.G
        cy = diamond7.cyclics
        perms = [permutation_character(G, s) for _, s in cy]
        for rat in diamond7.rationals:
            coeffs = artin_decompose(rat.values, G, cy)
            for ci in range(len(G.classes)):
                total = sum(q * perms[j][ci] for j, q in enumerate(coeffs))
                assert total == rat.values[ci]

    def test_not_constant_on_galois_class_orbits(self, diamond5):
        # the two classes of order 4 are Galois conjugate: a class function
        # that tells them apart is not a rational character
        G = diamond5.G
        order4 = [ci for ci, cls in enumerate(G.classes)
                  if G.element_order(cls[0]) == 4]
        values = [Fraction(ci == order4[0]) for ci in range(len(G.classes))]
        with pytest.raises(InconsistentSystem):
            artin_decompose(values, G, diamond5.cyclics)

    def test_conjugate_subgroups_same_data(self, s3pair):
        # conjugates of a listed cyclic subgroup induce the same character
        # and cut out the same fixed-group signature
        G = s3pair.G
        for _, sub in s3pair.cyclics:
            base_perm = permutation_character(G, sub)
            base_sig = s3pair.subgroup_sig(sub)
            for g in range(G.order):
                conj = frozenset(G.mul[G.mul[g][x]][G.inv[g]] for x in sub)
                assert permutation_character(G, conj) == base_perm
                assert s3pair.subgroup_sig(conj) == base_sig


class TestParity:
    def test_units_mod_5(self, diamond5):
        # the real characters (orders 1 and 2) are Galois singletons and
        # even; the two characters of order 4 form one odd orbit
        G = diamond5.G
        assert sorted(r.orbit_size for r in diamond5.rationals) == [1, 1, 2]
        for rat in diamond5.rationals:
            assert parity_of(rat, G) == ("even" if rat.orbit_size == 1
                                         else "odd")

    def test_s3_all_even(self, s3pair):
        assert all(parity_of(r, s3pair.G) == "even" for r in s3pair.rationals)

    def test_unconstrained_without_minus_I(self):
        pair = QuotientPair.build(SubgroupSpec("gamma1", 5),
                                  SubgroupSpec("gamma", 5))
        assert pair.G.iota is None
        assert all(parity_of(r, pair.G) == "unconstrained"
                   for r in pair.rationals)


class TestMultiplicities:
    def test_diamond5_examples(self, diamond5):
        by = {r.label: r for r in diamond5.rationals}
        triv = multiplicity_series(diamond5, by["triv"], "M", [4])
        assert triv.entries[4] == 3
        chi2 = next(r for r in diamond5.rationals
                    if r.orbit_size == 1 and r.label != "triv")
        assert multiplicity_series(diamond5, chi2, "M", [4]).entries[4] == 2
        orbit = next(r for r in diamond5.rationals if r.orbit_size == 2)
        s = multiplicity_series(diamond5, orbit, "M", [3], split=True)
        assert s.entries[3] == 4
        assert s.per_member[3] == 2

    def test_s3_examples(self, s3pair):
        by = {r.label: r for r in s3pair.rationals}
        assert multiplicity_series(s3pair, by["std"], "M", [4]).entries[4] == 1
        assert multiplicity_series(s3pair, by["sign"], "M", [6]).entries[6] == 1

    def test_parity_vanishing(self, diamond5):
        for rat in diamond5.rationals:
            series = multiplicity_series(diamond5, rat, "M", range(2, 101))
            for k, v in series.entries.items():
                if (series.parity_class == "even" and k % 2) or \
                        (series.parity_class == "odd" and k % 2 == 0):
                    assert v == 0

    def test_fixed_space_reductions(self, diamond5):
        # multiplicity of triv equals dim M_k(Gamma); the full decomposition
        # sums to dim M_k(Gamma1)
        from modmult.dimensions import dims
        by = {r.label: r for r in diamond5.rationals}
        triv = multiplicity_series(diamond5, by["triv"], "M", range(2, 40))
        for k, v in triv.entries.items():
            assert v == dims(diamond5.sig_gamma, k).dim_M
        total = {}
        for rat in diamond5.rationals:
            s = multiplicity_series(diamond5, rat, "M", range(2, 40))
            for k, v in s.entries.items():
                total[k] = total.get(k, 0) + rat.degree * v
        for k, v in total.items():
            assert v == dims(diamond5.sig_gamma1, k).dim_M

    def test_solution_independence(self, diamond7):
        n_cols = len(diamond7.cyclics)
        orders = [None, list(reversed(range(n_cols)))]
        for rat in diamond7.rationals:
            series = [multiplicity_series(diamond7, rat, "M", range(2, 60),
                                          column_order=o) for o in orders]
            assert series[0].entries == series[1].entries

    def test_integrality_up_to_200(self, diamond5, s3pair):
        for pair in (diamond5, s3pair):
            for rat in pair.rationals:
                for kind in ("M", "S"):
                    s = multiplicity_series(pair, rat, kind, range(2, 201))
                    assert all(v >= 0 for v in s.entries.values())

    def test_orbit_split_divisibility(self, diamond5, diamond7):
        for pair in (diamond5, diamond7):
            for rat in pair.rationals:
                for kind in ("M", "S"):
                    s = multiplicity_series(pair, rat, kind, range(2, 101),
                                            split=True)
                    for k, v in s.entries.items():
                        assert s.per_member[k] * rat.orbit_size == v

    def test_weight_one_rejected(self, diamond5, monkeypatch):
        import modmult.reps as reps
        from modmult.dimensions import WeightOneUnsupported
        # rejected before any work: not one dims call, cached or not
        calls = []
        monkeypatch.setattr(reps, "dims", lambda *a: calls.append(a))
        for kind in ("M", "S"):
            with pytest.raises(WeightOneUnsupported):
                multiplicity_series(diamond5, diamond5.rationals[0], kind,
                                    [1, 2])
        assert calls == []


class TestSignatureCache:
    def test_each_signature_computed_once(self, monkeypatch):
        import modmult.cosets as cosets
        tables = []
        original = cosets._coset_table

        def counted(*args, **kwargs):
            tables.append(args[0])
            return original(*args, **kwargs)

        # G = C4 with classes 1, C2, C4; G = (Z/2)^3 with eight
        for specs in [(SubgroupSpec("gamma0", 5), SubgroupSpec("gamma1", 5)),
                      (SubgroupSpec("gamma", 12), SubgroupSpec("gamma", 24))]:
            monkeypatch.setattr(cosets, "_coset_table", counted)
            cosets.coset_action.cache_clear()
            tables.clear()
            pair = QuotientPair.build(*specs)
            pair.period()
            # one coset table, Gamma's, whatever the number of cyclic
            # classes: Gamma1 and each Gamma_C are read from its branch points
            assert len(tables) == 1
            monkeypatch.undo()
            for _, sub in pair.cyclics:
                elems = {mat_mul(h, pair.G.elements[c], pair.level)
                         for c in sub for h in pair.gamma1.elements}
                assert pair.subgroup_sig(sub) == subgroup_signature(
                    FiniteSubgroup(pair.level, tuple(sorted(elems))))


def series_from_dims(pair, rat, kind, weights):
    """Reference multiplicities, summed straight from dims at every weight
    with the Artin coefficients solved afresh."""
    from modmult.dimensions import dims
    coeffs = artin_decompose(rat.values, pair.G, pair.cyclics)
    sigs = [pair.subgroup_sig(sub) for _, sub in pair.cyclics]
    return {k: int(sum(q * dims(sig, k).kind(kind)
                       for q, sig in zip(coeffs, sigs)))
            for k in weights}


NEAR_ZERO = [k for k in range(-4, 12) if k != 1]


class TestDimensionTable:
    """The pair's table reads what dims gives at every weight, negative
    ones included, and runs dims once per group and weight."""

    def test_table_matches_dims_on_every_pair(self):
        from modmult.dimensions import dims
        from test_cosets import PAIRS
        for k0, n0, k1, n1 in PAIRS:
            pair = QuotientPair.build(SubgroupSpec(k0, n0),
                                      SubgroupSpec(k1, n1))
            G = pair.G
            groups = {sub for _, sub in pair.cyclics}
            groups |= {frozenset(range(G.order)), frozenset({G.identity})}
            ks = [k for k in range(-4, 4 + 3 * pair.period()) if k != 1]
            for C in groups:
                sig = pair.subgroup_sig(C)
                for kind in ("M", "S"):
                    want = [dims(sig, k).kind(kind) for k in ks]
                    # the second read comes from the table, backwards
                    assert pair.dims_of(C, kind, ks) == want, (k0, n0, k1, n1)
                    assert pair.dims_of(C, kind, ks[::-1]) == want[::-1]

    @pytest.mark.parametrize("weight_lists", [
        [NEAR_ZERO], [[40, 4], range(2, 101)], [[-70, 300, -3], NEAR_ZERO]],
        ids=["negative", "sparse", "far"])
    def test_series_match_dims(self, weight_lists):
        for specs in [(SubgroupSpec("gamma0", 5), SubgroupSpec("gamma1", 5)),
                      (SubgroupSpec("full", 1), SubgroupSpec("gamma", 2)),
                      (SubgroupSpec("gamma0", 12), SubgroupSpec("gamma1", 12))]:
            pair = QuotientPair.build(*specs)
            for weights in weight_lists:
                for kind in ("M", "S"):
                    for rat in pair.rationals:
                        series = multiplicity_series(pair, rat, kind, weights)
                        assert series.entries == \
                            series_from_dims(pair, rat, kind, weights)

    def test_negative_weights_through_the_cli(self, capsys):
        from modmult.cli import main
        pair = QuotientPair.build(SubgroupSpec("gamma0", 5),
                                  SubgroupSpec("gamma1", 5))
        for lo in (-1, -3):
            assert main(["mult", "--pair", "gamma0:5/gamma1:5",
                         f"--weights={lo}..0"]) == 0
            rows = capsys.readouterr().out.splitlines()
            assert rows[0] == "rep,k,multiplicity"
            assert rows[1:] == [
                f"{rat.label},{k},{int(k == 0 and rat.label == 'triv')}"
                for rat in pair.rationals for k in range(lo, 1)]
        assert "triv,-1,0" in rows

    def test_run_verify_calls_dims_once_per_group_and_weight(self,
                                                             monkeypatch):
        import modmult.reps as reps
        from modmult.verify import VerificationConfig, _parity_ks, run_verify
        calls = []
        original = reps.dims

        def counted(sig, k):
            calls.append((id(sig), k))
            return original(sig, k)

        monkeypatch.setattr(reps, "dims", counted)
        specs = (SubgroupSpec("gamma0", 5), SubgroupSpec("gamma1", 5))
        kmax = 60
        report = run_verify(VerificationConfig(*specs, kmax=kmax))
        assert report["pass"] is True
        # the (group, weight) values verify needs: the series read each
        # Gamma_C with a nonzero Artin coefficient, the identity Gamma1 and
        # the monitor Gamma, each at its weights
        pair = QuotientPair.build(*specs)
        G = pair.G
        weights = [k for k in range(kmax + 1) if k != 1]
        used = {(frozenset({G.identity}), k) for k in weights}
        for rat in pair.rationals:
            coeffs = artin_decompose(rat.values, G, pair.cyclics)
            used |= {(sub, k) for q, (_, sub) in zip(coeffs, pair.cyclics)
                     if q for k in weights}
            used |= {(frozenset(range(G.order)), k) for k in
                     _parity_ks(parity_class_of(rat, G), 4, kmax)}
        assert len(set(calls)) == len(calls) == len(used)


class TestArtinCache:
    """Each character's Artin coefficients are solved once per pair and
    column order; M and S share them."""

    @pytest.fixture
    def solves(self, monkeypatch):
        import modmult.reps as reps
        calls = []
        original = reps.solve_linear_exact

        def counted(A, b, column_order=None):
            calls.append(column_order)
            return original(A, b, column_order=column_order)

        monkeypatch.setattr(reps, "solve_linear_exact", counted)
        return calls

    def test_run_verify_solves_once_per_character(self, solves):
        from modmult.verify import VerificationConfig, run_verify
        specs = (SubgroupSpec("gamma0", 5), SubgroupSpec("gamma1", 5))
        report = run_verify(VerificationConfig(*specs, kmax=60))
        n_rationals = len(QuotientPair.build(*specs).rationals)
        assert n_rationals == 3
        assert len(report["reps"]) == 2 * n_rationals  # M and S
        assert solves == [None] * n_rationals

    def test_column_order_is_part_of_the_key(self, solves):
        pair = QuotientPair.build(SubgroupSpec("gamma0", 7),
                                  SubgroupSpec("gamma1", 7))
        reverse = list(reversed(range(len(pair.cyclics))))
        for rat in pair.rationals:
            solves.clear()
            series = [multiplicity_series(pair, rat, kind, range(2, 40),
                                          column_order=order)
                      for order in (None, reverse, None, reverse)
                      for kind in ("M", "S")]
            # one solve per column order, each with its own order
            assert solves == [None, reverse]
            assert series[0].entries == series[2].entries
            assert series[1].entries == series[3].entries
            assert pair.artin_coefficients(rat) == \
                pair.artin_coefficients(rat, reverse) == \
                artin_decompose(rat.values, pair.G, pair.cyclics)


def sym_power_multiplicities(m):
    """Independent oracle for the S3 pair: the weight-2m forms of the
    principal level-2 group are Sym^m of the 2-dimensional irreducible,
    since the weight-2 slice generates the ring freely.  Multiplicities
    follow from explicit character arithmetic on S3."""
    # character of Sym^m(std) on (e, transposition, 3-cycle)
    chi_e = m + 1
    chi_t = 1 if m % 2 == 0 else 0
    chi_c = [1, -1, 0][m % 3]
    # inner products against the three irreducibles (class sizes 1, 3, 2)
    def ip(r_e, r_t, r_c):
        val = chi_e * r_e + 3 * chi_t * r_t + 2 * chi_c * r_c
        assert val % 6 == 0
        return val // 6
    return {"triv": ip(1, 1, 1), "sign": ip(1, -1, 1), "std": ip(2, 0, -1)}


class TestIndependentOracle:
    @pytest.mark.parametrize("k", range(2, 61, 2))
    def test_s3_pair_matches_symmetric_powers(self, s3pair, k):
        expect = sym_power_multiplicities(k // 2)
        for rat in s3pair.rationals:
            s = multiplicity_series(s3pair, rat, "M", [k])
            assert s.entries[k] == expect[rat.label], (k, rat.label)
