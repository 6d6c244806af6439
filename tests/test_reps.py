import json
import random
import re
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest

from modmult.cosets import subgroup_signature
from modmult.exact import (CycloValue, InconsistentSystem, integer_rows,
                           reduce_cyclotomic, solve_linear_exact)
from modmult.reps import (CharacterTable, CharacterTableRequired,
                          ClassMismatch, NotAbelian, OrthogonalityFailure,
                          QuotientPair, SchemaError,
                          abelian_character_table, artin_decompose,
                          builtin_s3_table, character_table_for,
                          load_character_table, multiplicity_series,
                          pair_series, parity_of, permutation_character,
                          rational_characters)
from modmult.sl2 import (FiniteSubgroup, QuotientGroup, SubgroupSpec,
                         cyclic_subgroups_up_to_conjugacy, mat_mul, quotient,
                         realize)
from test_cosets import (PAIRS, cyclic_sets, fibre_sig, full_sl2, mul_table,
                         power_row)


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


def reference_abelian_table(G):
    """(exponent rows, names, generators) of abelian_character_table by its
    former extension loop, which multiplied its way to each power of g and
    kept the current subgroup as a set of its own; the generators are those
    G.generators lists."""
    e = G.exponent
    mul, _ = mul_table(G)
    chars = [{G.identity: 0}]
    subgroup = {G.identity}
    generators = []
    for g in range(G.order):
        if g in subgroup:
            continue
        generators.append(g)
        m, p = 1, g
        while p not in subgroup:
            p = mul[p][g]
            m += 1
        new_chars = []
        for chi in chars:
            t = chi[p]
            for s in range(e):
                if (m * s - t) % e:
                    continue
                ext = dict(chi)
                for h, th in chi.items():
                    x = h
                    for j in range(1, m):
                        x = mul[x][g]
                        ext[x] = (th + s * j) % e
                new_chars.append(ext)
        chars = new_chars
        x = g
        base = list(subgroup)
        for _ in range(1, m):
            for h in base:
                subgroup.add(mul[h][x])
            x = mul[x][g]
    class_reps = [cls[0] for cls in G.classes]
    rows = sorted(tuple(chi[r] for r in class_reps) for chi in chars)
    names = tuple("triv" if not any(row) else f"chi{i}"
                  for i, row in enumerate(rows))
    return tuple(rows), names, tuple(generators)


class TestAbelianTable:
    def test_same_as_reference_extension(self):
        from test_sl2 import quotients
        groups = [G for _, G in quotients() if G.is_abelian]
        groups.append(quotient(realize(SubgroupSpec("gamma0", 97),
                                       level_cap=97),
                               realize(SubgroupSpec("gamma1", 97),
                                       level_cap=97)))
        for G in groups:
            table = abelian_character_table(G)
            assert (exponent_rows(table), table.names, G.generators) == \
                reference_abelian_table(G)
        assert len(groups) == 56

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
        by_order = {len(row): ci for ci, row in enumerate(G.power_map)}
        for name, expect in [("triv", {1: 1, 2: 1, 3: 1}),
                             ("sign", {1: 1, 2: -1, 3: 1}),
                             ("std", {1: 2, 2: 0, 3: -1})]:
            i = table.names.index(name)
            for order, v in expect.items():
                assert table.values[i][by_order[order]] == v

    def test_abelian_group_of_order_6_refused(self, diamond7):
        # Gamma0(7)/Gamma1(7) is Z/6, which has no S3 table
        assert diamond7.G.order == 6 and diamond7.G.is_abelian
        with pytest.raises(ClassMismatch, match="^built-in S3 table needs a "
                                                "nonabelian group of order 6$"):
            builtin_s3_table(diamond7.G)

    def test_nonabelian_without_table(self):
        # SL2(Z/3) / trivial is nonabelian of order 24: no built-in table
        g = full_sl2(3)
        g1 = realize(SubgroupSpec("gamma", 3))
        G = quotient(g, g1)
        with pytest.raises(CharacterTableRequired):
            character_table_for(G)

    def test_nonabelian_refused_in_o_of_G_times_generators(self,
                                                           monkeypatch):
        import modmult.sl2 as sl2
        gamma, gamma1 = full_sl2(16), realize(SubgroupSpec("gamma", 16))
        G = quotient(gamma, gamma1)
        # G = SL2(Z/16): the cosets of Gamma(16) = {I} cost 2|Gamma|
        # products, and G's classes 3 |G| |gens| + the sum of the class
        # representatives' orders, 25,188 in all, far short of the
        # |G|^2 = 9,437,184 products of a multiplication table; only
        # character_table_for refuses G
        bound = (2 * gamma.order + 3 * G.order * len(G.generators)
                 + sum(len(row) for row in G.power_map))
        products = []
        original = sl2.mat_mul

        def counted(*args):
            products.append(args)
            return original(*args)

        monkeypatch.setattr(sl2, "mat_mul", counted)
        with pytest.raises(CharacterTableRequired, match=(
                "^nonabelian quotient of order 3072: "
                "supply a character table$")):
            QuotientPair.build(SubgroupSpec("full"), SubgroupSpec("gamma", 16))
        assert len(products) <= bound == 25188


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
        from modmult.cli import parse_table_file
        doc = table_to_doc(s3pair.table)
        path = tmp_path / "s3.json"
        path.write_text(json.dumps(doc))
        table = load_character_table(parse_table_file(str(path)), s3pair.G)
        assert table.names == s3pair.table.names
        assert table.provenance == "UserFile"

    def test_duplicate_character(self, s3pair):
        doc = table_to_doc(s3pair.table)
        doc["characters"][1] = dict(doc["characters"][0], name="dup")
        with pytest.raises(OrthogonalityFailure):
            load_character_table(doc, s3pair.G)

    def test_repeated_name(self, s3pair):
        doc = table_to_doc(s3pair.table)
        for ch in doc["characters"]:
            ch["name"] = "x"
        with pytest.raises(SchemaError,
                           match="^character name 'x' is repeated$"):
            load_character_table(doc, s3pair.G)

    def test_name_is_an_orbit_label(self, diamond5):
        # Z/4: chi1 and chi3 form one orbit; a row named for it would share
        # its label, which keys the series
        doc = table_to_doc(diamond5.table)
        label = next(rat.label for rat in diamond5.rationals
                     if rat.orbit_size > 1)
        single = next(rat.names[0] for rat in diamond5.rationals
                      if rat.orbit_size == 1)
        for ch in doc["characters"]:
            if ch["name"] == single:
                ch["name"] = label
        table = load_character_table(doc, diamond5.G)
        with pytest.raises(SchemaError, match=r"^two Galois orbits are "
                           rf"labelled '{re.escape(label)}'$"):
            rational_characters(table)

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

    def test_value_orders_bounded_by_order_times_exponent(self, s3pair):
        # |G| * exp G = 36 for S3: the value 1 written in Q(zeta_36) loads,
        # in Q(zeta_37) it is refused before any lift
        doc = table_to_doc(s3pair.table)
        value = doc["characters"][0]["values"][0]
        value["order"] = 36
        assert load_character_table(doc, s3pair.G).names == \
            s3pair.table.names
        value["order"] = 37
        with pytest.raises(SchemaError, match="^value orders have lcm 37, "
                                              r"above \|G\| \* exp G = 36$"):
            load_character_table(doc, s3pair.G)

    def test_missing_top_level_key(self, s3pair):
        with pytest.raises(SchemaError,
                           match="^missing top-level key: 'classes'$"):
            load_character_table({"characters": []}, s3pair.G)

    def test_top_level_entry_not_a_list(self, s3pair):
        with pytest.raises(SchemaError,
                           match="^top-level key 'classes' is not a list$"):
            load_character_table({"classes": 5, "characters": []}, s3pair.G)

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


def pair_quotient(gamma, gamma1):
    level = lcm(gamma.level, gamma1.level)
    return quotient(realize(gamma, at_level=level),
                    realize(gamma1, at_level=level))


def table_of(gamma, gamma1):
    return character_table_for(pair_quotient(gamma, gamma1))


def conj(v):
    """The complex conjugate of a CycloValue: zeta^j -> zeta^-j."""
    return CycloValue(v.order, {-j: c for j, c in v.coeffs.items()})


def reference_validate(table):
    """CharacterTable.validate written with CycloValue arithmetic: the same
    checks in the same order, raising the same types and messages."""
    G = table.group
    if any(len(row) != len(G.classes) for row in table.values):
        raise SchemaError("character value rows must match the class count")
    if sum(d * d for d in table.degrees) != G.order:
        raise SchemaError("sum of squared degrees must equal |G|")
    bound = G.order * G.exponent
    m = lcm(*(v.order for row in table.values for v in row))
    if m > bound:
        raise SchemaError(f"value orders have lcm {m}, above "
                          f"|G| * exp G = {bound}")
    for deg, row in zip(table.degrees, table.values):
        if row[G.class_of[G.identity]].rational_part() != deg:
            raise SchemaError("degree must equal the value at the identity")
    sizes = [len(cls) for cls in G.classes]
    for i, row_i in enumerate(table.values):
        for j in range(i, len(table.values)):
            acc = CycloValue.from_rational(0)
            for size, vi, vj in zip(sizes, row_i, table.values[j]):
                acc = acc + size * (vi * conj(vj))
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
    # each row is a character: |K_i||K_j| chi_i chi_j = chi(1) *
    # sum_l a_ijl |K_l| chi_l, a_ijl = #{x in K_i : x^-1 z_l in K_j}
    mul, inv = mul_table(G)
    for name, deg, row in zip(table.names, table.degrees, table.values):
        if deg < 1:
            raise OrthogonalityFailure(f"{name} is not a character: degree {deg}")
        for i, Ki in enumerate(G.classes):
            for j in range(i, len(G.classes)):
                rhs = CycloValue.from_rational(0)
                for l, Kl in enumerate(G.classes):
                    a = sum(G.class_of[mul[inv[x]][Kl[0]]] == j for x in Ki)
                    rhs = rhs + (a * sizes[l]) * row[l]
                if (sizes[i] * sizes[j]) * (row[i] * row[j]) != deg * rhs:
                    raise OrthogonalityFailure(
                        f"{name} is not a character: it breaks the class "
                        f"multiplication at {G.elements[Ki[0]]} * "
                        f"{G.elements[G.classes[j][0]]}")


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
            rows[r][c] = rows[r][c] * CycloValue(o, {rng.randrange(o): 1})
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
            rows[r] = [conj(v) for v in rows[r]]
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
    Gamma0(13)/Gamma1(13) (exponent 12), with its type and message.  Rows of
    roots of unity have exponent rows; when they are not the character
    table, the Z[zeta_m] checks refuse them as reference_validate does."""

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
        c = next(ci for ci, row in enumerate(G.power_map) if len(row) == 3)
        rows = [list(row) for row in table13.values]
        rows[1][c] = rows[1][c] * CycloValue(12, {1: 1})
        broken = edited(table13, rows=rows)
        assert exponent_rows(broken) is not None
        with pytest.raises(OrthogonalityFailure) as err:
            broken.validate()
        assert str(err.value) == f"<triv,{table13.names[1]}> = None/12"
        assert outcome(reference_validate, broken) == \
            (OrthogonalityFailure, str(err.value))

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
        c = next(ci for ci, row in enumerate(G.power_map) if len(row) == 3)
        rows = [list(row) for row in table13.values]
        for row in rows:
            row[iota], row[c] = row[c], row[iota]
        name = next(n for n, row in zip(table13.names, rows)
                    if row[iota] != 1 and row[iota] != -1)
        broken = edited(table13, rows=rows)
        assert exponent_rows(broken) is not None
        with pytest.raises(SchemaError) as err:
            broken.validate()
        assert str(err.value) == f"value of {name} at the -I coset is not a +-1 scalar"
        assert outcome(reference_validate, broken) == \
            (SchemaError, str(err.value))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("pair", TABLE_PAIRS[:4],
                             ids=lambda p: f"{p[0].label()}/{p[1].label()}")
    def test_matches_reference_on_mutations(self, pair, seed):
        # the mutations of an abelian table reach both routes: rows of
        # roots of unity have exponent rows, other values do not
        table = table_of(*pair)
        rng = random.Random(f"{seed}/{pair[0].label()}/{pair[1].label()}")
        seen, routes = set(), set()
        for _ in range(40):
            broken = mutate(table, rng)
            got = outcome(CharacterTable.validate, broken)
            assert got == outcome(reference_validate, broken)
            seen.add(None if got is None else got[0])
            routes.add(exponent_rows(broken) is not None)
        assert OrthogonalityFailure in seen and SchemaError in seen
        assert routes == ({False, True} if table.group.is_abelian
                          else {False})


class TestRationalCharacters:
    def test_units_mod_5_orbits(self, diamond5):
        rats = diamond5.rationals
        assert sorted(r.orbit_size for r in rats) == [1, 1, 2]
        orbit = next(r for r in rats if r.orbit_size == 2)
        G = diamond5.G
        # value 2 at the identity, -2 at the order-2 element, 0 elsewhere
        for ci, row in enumerate(G.power_map):
            expect = {1: 2, 2: -2}.get(len(row), 0)
            assert orbit.values[ci] == expect

    def test_s3_singletons(self, s3pair):
        assert all(r.orbit_size == 1 for r in s3pair.rationals)

    def test_units_mod_8_singletons(self, diamond8):
        assert len(diamond8.rationals) == 4
        assert all(r.orbit_size == 1 for r in diamond8.rationals)

    def test_unchecked_table_of_non_characters_raises(self, diamond5):
        # G = Z/4: triv and the order-4 row chi2 without its conjugate chi3
        # sum to chi2's real part (1, -1, 0, 0), of norm 2, not |G| = 4
        table = diamond5.table
        rows = [table.names.index(name) for name in ("triv", "chi2")]
        broken = CharacterTable(table.group,
                                tuple(table.names[i] for i in rows),
                                tuple(table.degrees[i] for i in rows),
                                tuple(table.values[i] for i in rows), "test")
        with pytest.raises(OrthogonalityFailure,
                           match="^orbit sums are not rational characters$"):
            rational_characters(broken)

    @pytest.mark.parametrize("rows", [
        # the trivial row alone: of norm |G|, but its degree squared is 1
        [0],
        # the trivial row twice in place of chi3: integral, with square
        # degrees summing to 6, but the orbit (triv, triv) has norm 4 |G|
        [0, 0, 1, 2, 4, 5],
        # chi3 = +-1 with each -1 made -1/3: its numerators are chi3's
        [0, 1, 2, "thirds", 4, 5]],
        ids=["degrees", "orthogonality", "integers"])
    def test_each_check_refuses(self, diamond7, rows):
        # G = Z/6, every row of degree 1
        table = diamond7.table
        assert table.names == ("triv", "chi1", "chi2", "chi3", "chi4", "chi5")
        assert exponent_rows(table)[3] == (0, 3, 0, 0, 3, 3)
        thirds = tuple(CycloValue.from_rational(Fraction(-1, 3) if x else 1)
                       for x in exponent_rows(table)[3])
        broken = CharacterTable(
            table.group, tuple(f"row{n}" for n in range(len(rows))),
            (1,) * len(rows),
            tuple(thirds if i == "thirds" else table.values[i] for i in rows),
            "test")
        with pytest.raises(OrthogonalityFailure,
                           match="^orbit sums are not rational characters$"):
            rational_characters(broken)


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


def power_map_orbits(table):
    """Galois orbits by a power-map search: the twist of chi by
    zeta -> zeta^a, a a unit mod exp G, is g -> chi(g^a), so each row's
    twists are looked up through the class power maps, with rows keyed by
    the power-basis coordinates of their values in Q(zeta_m); each orbit is
    summed in those coordinates.  (member names, orbit-sum values) per
    orbit."""
    G = table.group
    e = G.exponent
    m, rows, den = integer_rows(table.values)
    keys = []
    for row in rows:
        key = []
        for value in row:
            vec = [0] * m
            for j, a in value:
                vec[j] += a
            key.append(reduce_cyclotomic(m, vec))
        keys.append(tuple(key))
    index = {key: i for i, key in enumerate(keys)}
    rows_of = [power_row(G, cls[0]) for cls in G.classes]
    power_maps = [[G.class_of[row[a % len(row)]] for row in rows_of]
                  for a in range(1, e + 1) if gcd(a, e) == 1]
    out, seen = [], set()
    for i, key in enumerate(keys):
        if i in seen:
            continue
        members = sorted({index[tuple(key[c] for c in pmap)]
                          for pmap in power_maps})
        seen.update(members)
        sums = []
        for coords in zip(*(keys[j] for j in members)):
            total = [sum(cs) for cs in zip(*coords)]
            assert not any(total[1:])
            sums.append(Fraction(total[0], den))
        out.append((tuple(table.names[j] for j in members), tuple(sums)))
    return out


class TestGaloisOrbitsFromPowerMaps:
    def test_matches_value_twisting(self, table_of_pair):
        got = [(r.names, r.values) for r in rational_characters(table_of_pair)]
        assert got == reference_rational_characters(table_of_pair)

    @pytest.mark.parametrize("sums", [False, True], ids=["roots", "as_sums"])
    def test_matches_power_map_search(self, table_of_pair, sums):
        table = as_sums(table_of_pair) if sums else table_of_pair
        got = [(r.names, r.values) for r in rational_characters(table)]
        assert got == power_map_orbits(table)

    def test_sums_read_without_power_maps_or_reductions(self, table13,
                                                         monkeypatch):
        # an as_sums table has no exponent rows; its traces are read from
        # its integer rows alone
        import modmult.exact as exact
        import modmult.reps as reps
        sums = as_sums(table13)
        sums.validate()  # reduces in Z[zeta_m]: checked before the spies
        calls = []

        def spied(name, f):
            def wrapped(*args):
                calls.append(name)
                return f(*args)
            return wrapped
        for module in (exact, reps):
            monkeypatch.setattr(module, "reduce_cyclotomic",
                                spied("reduce_cyclotomic",
                                      module.reduce_cyclotomic))
        # power_map is an instance field: a property on the class is read
        # in its place
        monkeypatch.setattr(QuotientGroup, "power_map", property(
            lambda G: calls.append("power_map") or vars(G)["power_map"]),
            raising=False)
        got = rational_characters(sums)
        monkeypatch.undo()
        assert calls == []
        assert got == rational_characters(table13)

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

    def test_exponent_keys_match_loaded_table(self, table_of_pair):
        # an abelian table has exponent rows, built in or read from a
        # document, and the S3 table has none; both sum to the same orbits
        table = table_of_pair
        G = table.group
        assert (exponent_rows(table) is not None) == G.is_abelian
        loaded = load_character_table(table_to_doc(table), G)
        assert exponent_rows(loaded) == exponent_rows(table)
        assert rational_characters(loaded) == rational_characters(table)

    def test_square_marks_matrix_is_triangular(self, table_of_pair):
        G = table_of_pair.group
        cyclics = cyclic_subgroups_up_to_conjugacy(G)
        perms = [perm for _, perm in cyclics]
        rows = [G.class_of[gen] for gen, _ in cyclics]
        assert len(rows) == len(rational_characters(table_of_pair))
        for i, cl in enumerate(rows):
            assert perms[i][cl] > 0
            assert all(perms[j][cl] == 0 for j in range(i))


def as_sums(table):
    """The same table with each term c zeta_o^j of a value written as the
    sum -c zeta_3o^(3j+o) - c zeta_3o^(3j+2o): it has no exponent rows, so
    validate and rational_characters take the Z[zeta_m] route."""
    def as_sum(v):
        o = v.order
        coeffs = {}
        for j, c in v.coeffs.items():
            coeffs[3 * j + o] = coeffs.get(3 * j + o, 0) - c
            coeffs[3 * j + 2 * o] = coeffs.get(3 * j + 2 * o, 0) - c
        return CycloValue(3 * o, coeffs)
    return CharacterTable(table.group, table.names, table.degrees,
                          tuple(tuple(map(as_sum, row))
                                for row in table.values), table.provenance)


def exponent_rows(table):
    """The table's exponent rows, each value zeta_m^x read from int_rows as
    x, or None if a degree is not 1, the denominator is not 1 or a value is
    not a single root of unity."""
    m, rows, den = table.int_rows
    if den != 1 or set(table.degrees) != {1} or any(
            len(v) != 1 or v[0][1] != 1 for row in rows for v in row):
        return None
    return tuple(tuple(v[0][0] for v in row) for row in rows)


def with_exponent_rows(table, rows):
    """table with values zeta_e to the given rows, e = exp G."""
    e = table.group.exponent
    return CharacterTable(table.group, table.names, table.degrees, tuple(
        tuple(CycloValue(e, {x: 1}) for x in row) for row in rows),
        table.provenance)


@pytest.fixture(scope="module")
def table97():
    return character_table_for(quotient(
        realize(SubgroupSpec("gamma0", 97), level_cap=97),
        realize(SubgroupSpec("gamma1", 97), level_cap=97)))


class TestExponentRows:
    """A table with exponent rows is checked from them and summed from its
    int_rows, as every table is; the CycloValue oracles reference_validate
    and reference_rational_characters are the check."""

    @pytest.mark.parametrize("k0,n0,k1,n1", PAIRS,
                             ids=[f"{a}:{b}/{c}:{d}" for a, b, c, d in PAIRS])
    def test_same_rational_characters_as_cyclotomic_route(self, k0, n0,
                                                           k1, n1):
        # PAIRS holds Gamma0(N)/Gamma1(N) for every N <= 30; the oracle's
        # class algebra grows as |G|^4, so it checks |G| <= 8 only
        G = pair_quotient(SubgroupSpec(k0, n0), SubgroupSpec(k1, n1))
        if not G.is_abelian:
            if G.order == 6:
                assert exponent_rows(character_table_for(G)) is None
            return
        table = character_table_for(G)
        assert table.provenance == "BuiltinAbelian"
        assert len(exponent_rows(table)) == G.order
        if G.order <= 8:
            assert outcome(reference_validate, table) is None
        assert [(r.names, r.values) for r in rational_characters(table)] == \
            reference_rational_characters(table)
        # the same values written as sums take the Z[zeta_m] route, which
        # must accept them and give the same orbits and sums; for |G| < 3
        # zeta_3e lies outside the field |G| * exp G that validate allows
        if G.order >= 3:
            sums = as_sums(table)
            assert exponent_rows(sums) is None
            sums.validate()
            assert rational_characters(sums) == rational_characters(table)

    def test_same_rational_characters_at_level_97(self, table97):
        # the CycloValue oracle would take minutes: the power-map search is
        # the check, on the roots of unity and on the values written as sums
        assert exponent_rows(table97) is not None and table97.group.order == 96
        for table in (table97, as_sums(table97)):
            got = [(r.names, r.values) for r in rational_characters(table)]
            assert got == power_map_orbits(table)

    def test_table_file_at_level_97_runs_no_cyclotomic_check(
            self, table97, monkeypatch):
        calls = []
        for name in ("_check_gram_matrix", "_check_class_algebra"):
            monkeypatch.setattr(CharacterTable, name,
                                lambda self, *rows, name=name:
                                calls.append(name))
        loaded = load_character_table(table_to_doc(table97), table97.group)
        assert calls == []
        assert exponent_rows(loaded) == exponent_rows(table97)
        assert rational_characters(loaded) == rational_characters(table97)

    def test_rows_in_a_larger_field_run_no_cyclotomic_check(
            self, table13, monkeypatch):
        # Z/12's table with each zeta_12^x written as zeta_24^(2x): its
        # exponent rows are homomorphisms G -> Z/24, read from int_rows
        doc = table_to_doc(table13)
        for ch, row in zip(doc["characters"], table13.values):
            ch["values"] = [{"order": 24,
                             "coeffs": {str(2 * x): "1" for x in v.coeffs}}
                            for v in row]
        calls = []
        for name in ("_check_gram_matrix", "_check_class_algebra"):
            monkeypatch.setattr(CharacterTable, name,
                                lambda self, *rows, name=name:
                                calls.append(name))
        wide = load_character_table(doc, table13.group)
        assert calls == []
        assert wide.int_rows[0] == 24
        assert exponent_rows(wide) == tuple(
            tuple(2 * x for x in row) for row in exponent_rows(table13))
        assert rational_characters(wide) == rational_characters(table13)

    @pytest.mark.parametrize("fault", ["not a homomorphism", "duplicated row",
                                       "-I exponent not 0 or e/2"])
    def test_fault_rejected_like_cyclotomic_validate(self, table13, fault):
        G = table13.group
        e = G.exponent
        iota = G.class_of[G.iota]
        rows = [list(row) for row in exponent_rows(table13)]
        if fault == "not a homomorphism":
            c = next(ci for ci in range(len(G.classes))
                     if ci not in (G.class_of[G.identity], iota))
            rows[3][c] = (rows[3][c] + 1) % e
        elif fault == "duplicated row":
            rows[4] = rows[2]
        else:
            assert rows[5][iota] in (0, e // 2)
            rows[5][iota] = e // 4
        broken = with_exponent_rows(table13, rows)
        assert exponent_rows(broken) == tuple(map(tuple, rows))
        got = outcome(CharacterTable.validate, broken)
        assert got is not None
        assert got == outcome(reference_validate, broken)

    def test_rows_are_checked_along_every_generator(self):
        # on (Z/2)^3, swapping the columns of a and a s, s and a the first
        # two generators, keeps r(x s) = r(x) + r(s) for each row r, and the
        # rows orthonormal; they are not homomorphisms along the others
        G = pair_quotient(SubgroupSpec("gamma", 12), SubgroupSpec("gamma", 24))
        table = character_table_for(G)
        s, a, _ = G.generators
        rows = [list(row) for row in exponent_rows(table)]
        ca, cas = G.class_of[a], G.class_of[G.mul(a, s)]
        for row in rows:
            row[ca], row[cas] = row[cas], row[ca]
        cls = G.class_of
        assert not any((row[cls[x]] + row[cls[s]] - row[cls[G.mul(x, s)]]) % 2
                       for row in rows for x in range(G.order))
        broken = with_exponent_rows(table, rows)
        got = outcome(CharacterTable.validate, broken)
        assert got is not None and got[0] is OrthogonalityFailure
        assert got == outcome(reference_validate, broken)

    def test_minus_identity_check_matches_cyclotomic_values(self):
        # on every abelian quotient of PAIRS with -I in Gamma but not in
        # Gamma1, the exponent rows with each power zeta_e^r multiplied
        # into the values at -I: a shift keeps the Gram matrix, so for r
        # other than 0 and e/2 the first check to fail is the -I check,
        # which the homomorphisms' own rows (r = 0) always pass
        for k0, n0, k1, n1 in PAIRS:
            G = pair_quotient(SubgroupSpec(k0, n0), SubgroupSpec(k1, n1))
            if not G.is_abelian or G.iota is None or G.iota_trivial:
                continue
            table = character_table_for(G)
            e, iota = G.exponent, G.class_of[G.iota]
            for r in range(e):
                rows = [list(row) for row in exponent_rows(table)]
                for row in rows:
                    row[iota] = (row[iota] + r) % e
                moved = with_exponent_rows(table, rows)
                assert exponent_rows(moved) is not None
                got = outcome(CharacterTable.validate, moved)
                if G.order <= 8:
                    assert got == outcome(reference_validate, moved)
                if r == 0:
                    assert got is None
                elif 2 * r != e:
                    assert got == (SchemaError, f"value of {table.names[0]} "
                                   f"at the -I coset is not a +-1 scalar")


class TestIntegerRows:
    """Every table is lifted to integer rows once, for validate and
    rational_characters both, on either route."""

    @pytest.fixture
    def lifts(self, monkeypatch):
        calls = []

        def spy(rows):
            calls.append(len(rows))
            return integer_rows(rows)
        monkeypatch.setattr("modmult.reps.integer_rows", spy)
        return calls

    def test_s3_pair_lifts_its_table_once(self, lifts):
        pair = QuotientPair.build(SubgroupSpec("full", 1),
                                  SubgroupSpec("gamma", 2))
        assert exponent_rows(pair.table) is None
        assert lifts == [3]

    def test_abelian_pair_lifts_its_table_once(self, lifts):
        pair = QuotientPair.build(SubgroupSpec("gamma0", 13),
                                  SubgroupSpec("gamma1", 13))
        assert lifts == [12]
        # the exponent rows are read from that lift, with no other
        assert exponent_rows(pair.table) is not None
        assert lifts == [12]

    def test_table_file_lifted_once(self, table13, lifts):
        loaded = load_character_table(table_to_doc(as_sums(table13)),
                                      table13.group)
        assert exponent_rows(loaded) is None
        assert rational_characters(loaded) == rational_characters(table13)
        assert lifts == [12]


def swapped_columns_doc(gamma, gamma1, orders, sums=False):
    """The table of gamma/gamma1 as a --table document, its values roots of
    unity or, with sums, written as_sums, with the values at a class of each
    of the two element orders swapped in every row; neither class is the
    identity or -I."""
    G = pair_quotient(gamma, gamma1)
    table = character_table_for(G)
    doc = table_to_doc(as_sums(table) if sums else table)
    picked = []
    for order in orders:
        picked.append(next(ci for ci, cls in enumerate(G.classes)
                           if len(G.power_map[ci]) == order
                           and cls[0] != G.iota and ci not in picked))
    a, b = picked
    for ch in doc["characters"]:
        ch["values"][a], ch["values"][b] = ch["values"][b], ch["values"][a]
    return G, doc


# the two tables of orthonormal rows that are not characters: two classes
# of order 2 of (Z/2)^3 swapped, and classes of order 3 and 4 of Z/12
SWAPPED_TABLES = {
    "gamma:12/gamma:24": (SubgroupSpec("gamma", 12), SubgroupSpec("gamma", 24),
                          (2, 2)),
    "gamma0:13/gamma1:13": (SubgroupSpec("gamma0", 13),
                            SubgroupSpec("gamma1", 13), (3, 4)),
}


class TestClassAlgebra:
    """A --table file's rows must multiply like the class sums; the
    CycloValue version of the check is in reference_validate."""

    @pytest.mark.parametrize("name", SWAPPED_TABLES)
    def test_swapped_columns_rejected(self, name):
        # in roots of unity the exponent rows are not homomorphisms, and the
        # Z[zeta_m] checks refuse the rows as they do written as sums
        for sums in (False, True):
            G, doc = swapped_columns_doc(*SWAPPED_TABLES[name], sums=sums)
            with pytest.raises(OrthogonalityFailure, match=(
                    r"^chi\d+ is not a character: it breaks the "
                    r"class multiplication at \(.*\) \* \(.*\)$")):
                load_character_table(doc, G)

    @pytest.mark.parametrize("k0,n0,k1,n1", PAIRS,
                             ids=[f"{a}:{b}/{c}:{d}" for a, b, c, d in PAIRS])
    def test_every_abelian_table_loads(self, k0, n0, k1, n1):
        # in roots of unity the exponent rows are checked; written as sums
        # (for |G| >= 3, see as_sums) the Z[zeta_m] Gram and class-algebra
        # checks run
        G = pair_quotient(SubgroupSpec(k0, n0), SubgroupSpec(k1, n1))
        if not G.is_abelian:
            return
        table = character_table_for(G)
        for sums in (False, True) if G.order >= 3 else (False,):
            doc = table_to_doc(as_sums(table) if sums else table)
            loaded = load_character_table(doc, G)
            assert (exponent_rows(loaded) is None) == sums
            assert loaded.names == table.names
            assert rational_characters(loaded) == rational_characters(table)

    @pytest.mark.parametrize("pair", TABLE_PAIRS,
                             ids=lambda p: f"{p[0].label()}/{p[1].label()}")
    def test_columns_permuted_by_a_power_map_load(self, pair):
        # chi(x^u) for a unit u mod exp G is the Galois twist of chi, so the
        # rows are the same characters in another order, in roots of unity
        # and written as sums
        G = pair_quotient(*pair)
        table = character_table_for(G)
        e = G.exponent
        for doc in (table_to_doc(table), table_to_doc(as_sums(table))):
            for u in (u for u in range(2, e) if gcd(u, e) == 1):
                pmap = [row[u % len(row)] for row in G.power_map]
                moved = json.loads(json.dumps(doc))
                for ch, row in zip(moved["characters"], doc["characters"]):
                    ch["values"] = [row["values"][c] for c in pmap]
                loaded = load_character_table(moved, G)
                assert sorted(r.values
                              for r in rational_characters(loaded)) == \
                    sorted(r.values for r in rational_characters(table))

    def test_negated_row_rejected(self, s3pair):
        # -sign with degree -1 is orthonormal and -1 at the identity
        doc = table_to_doc(s3pair.table)
        sign = doc["characters"][1]
        assert sign["name"] == "sign"
        sign["degree"] = -1
        for v in sign["values"]:
            v["coeffs"] = {j: str(-Fraction(c)) for j, c in v["coeffs"].items()}
        with pytest.raises(OrthogonalityFailure,
                           match="^sign is not a character: degree -1$"):
            load_character_table(doc, s3pair.G)


def coset_count_character(G, C):
    """1_C induced to G, at each class the number of left cosets xC that
    its first element fixes."""
    cosets, covered = [], set()
    for x in range(G.order):
        if x not in covered:
            coset = frozenset(G.mul(x, c) for c in C)
            covered |= coset
            cosets.append((x, coset))
    return tuple(sum(1 for x, coset in cosets if G.mul(cls[0], x) in coset)
                 for cls in G.classes)


class TestPermutationCharacter:
    def test_same_as_coset_count(self):
        from test_sl2 import quotients
        count = 0
        for label, G in quotients():
            for c, perm in cyclic_subgroups_up_to_conjugacy(G):
                assert perm == permutation_character(G, c) == \
                    coset_count_character(G, frozenset(power_row(G, c))), \
                    (label, c)
                count += 1
        assert count > 200

    def test_c4(self, diamond5):
        G = diamond5.G
        c2 = next(c for c, _ in cyclic_subgroups_up_to_conjugacy(G)
                  if len(power_row(G, c)) == 2)
        vals = permutation_character(G, c2)
        for ci, cls in enumerate(G.classes):
            order = len(power_row(G, cls[0]))
            assert vals[ci] == (2 if order in (1, 2) else 0)

    def test_s3_c2(self, s3pair):
        G = s3pair.G
        c2 = next(c for c, _ in cyclic_subgroups_up_to_conjugacy(G)
                  if len(power_row(G, c)) == 2)
        vals = permutation_character(G, c2)
        by_order = {len(power_row(G, c[0])): ci
                    for ci, c in enumerate(G.classes)}
        assert vals[by_order[1]] == 3
        assert vals[by_order[2]] == 1
        assert vals[by_order[3]] == 0

    def test_whole_group(self, diamond5):
        # G = Z/4, generated by each element of order 4
        G = diamond5.G
        for c in range(G.order):
            if len(power_row(G, c)) == G.order:
                vals = permutation_character(G, c)
                assert vals == (1,) * len(G.classes)


class TestArtin:
    def test_c4_orbit(self, diamond5):
        G = diamond5.G
        cy = cyclic_subgroups_up_to_conjugacy(G)
        assert [len(power_row(G, c)) for c, _ in cy] == [1, 2, 4]
        orbit = next(r for r in diamond5.rationals if r.orbit_size == 2)
        assert artin_decompose([orbit.values], G, cy) == [(1, -1, 0)]

    def test_s3(self, s3pair):
        G = s3pair.G
        cy = cyclic_subgroups_up_to_conjugacy(G)
        assert [len(power_row(G, c)) for c, _ in cy] == [1, 2, 3]
        by_name = {r.label: r for r in s3pair.rationals}
        targets = [by_name[name].values for name in ("triv", "std")]
        assert artin_decompose(targets, G, cy) == [
            (Fraction(-1, 2), 1, Fraction(1, 2)),
            (Fraction(1, 2), 0, Fraction(-1, 2))]

    def test_resubstitution(self, diamond7):
        G = diamond7.G
        cy = diamond7.cyclics
        perms = [permutation_character(G, c) for c, _ in cy]
        rats = diamond7.rationals
        solved = artin_decompose([rat.values for rat in rats], G, cy)
        assert len(solved) == len(rats)
        for rat, coeffs in zip(rats, solved):
            for ci in range(len(G.classes)):
                total = sum(q * perms[j][ci] for j, q in enumerate(coeffs))
                assert total == rat.values[ci]

    def test_every_column_order(self):
        # on each pair of at most five cyclic subgroups, every order of the
        # marks matrix's columns gives the coefficients the pair solved
        from itertools import permutations
        for k0, n0, k1, n1 in PAIRS:
            pair = QuotientPair.build(SubgroupSpec(k0, n0),
                                      SubgroupSpec(k1, n1))
            if len(pair.cyclics) > 5:
                continue
            targets = [rat.values for rat in pair.rationals]
            for order in permutations(range(len(pair.cyclics))):
                assert artin_decompose(targets, pair.G, pair.cyclics,
                                       column_order=order) \
                    == artin_decompose(targets, pair.G, pair.cyclics)

    def test_column_order_must_permute_the_columns(self, diamond5):
        G = diamond5.G
        values = diamond5.rationals[0].values
        for order in ([0, 1], [0, 0, 1], [0, 1, 3]):
            with pytest.raises(ValueError, match="permutation of the columns"):
                artin_decompose([values], G, diamond5.cyclics,
                                column_order=order)

    def test_not_constant_on_galois_class_orbits(self, diamond5):
        # the two classes of order 4 are Galois conjugate: a class function
        # that tells them apart is not a rational character
        G = diamond5.G
        order4 = [ci for ci, row in enumerate(G.power_map) if len(row) == 4]
        values = [Fraction(ci == order4[0]) for ci in range(len(G.classes))]
        with pytest.raises(InconsistentSystem):
            artin_decompose([values], G, diamond5.cyclics)

    @pytest.mark.parametrize("pair", TABLE_PAIRS,
                             ids=lambda p: f"{p[0].label()}/{p[1].label()}")
    def test_integer_check_matches_fraction_check(self, pair):
        # the indicator of each class: constant on the Galois class orbits
        # or not, the outcome is the Fraction check's, message included
        G = pair_quotient(*pair)
        cy = cyclic_subgroups_up_to_conjugacy(G)
        perms = [perm for _, perm in cy]
        rows = [G.class_of[gen] for gen, _ in cy]
        A = [[perm[cl] for perm in perms] for cl in rows]
        outcomes = set()
        for c in range(len(G.classes)):
            values = [Fraction(ci == c, 3) for ci in range(len(G.classes))]
            x = solve_linear_exact(A, [values[cl] for cl in rows])
            bad = [cl for cl, want in enumerate(values)
                   if sum(q * perm[cl] for q, perm in zip(x, perms)) != want]
            if bad:
                with pytest.raises(InconsistentSystem) as err:
                    artin_decompose([values], G, cy)
                assert str(err.value) == \
                    f"no Artin decomposition: mismatch at class {bad[0]}"
            else:
                assert artin_decompose([values], G, cy) == [tuple(x)]
            outcomes.add(bool(bad))
        # Z/12 has classes that are Galois conjugate and classes that are not
        if G.order == 12:
            assert outcomes == {True, False}

    def test_conjugate_subgroups_same_data(self, s3pair):
        # conjugates of a listed cyclic subgroup induce the same character
        # and cut out the same fixed-group signature
        G = s3pair.G
        mul, inv = mul_table(G)
        for c, base_perm in s3pair.cyclics:
            base_sig = fibre_sig(s3pair, frozenset(power_row(G, c)))
            for g in range(G.order):
                conj = mul[mul[g][c]][inv[g]]
                assert permutation_character(G, conj) == base_perm
                assert fibre_sig(s3pair, frozenset(power_row(G, conj))) == \
                    base_sig


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
        # -I lies in Gamma(2), so its coset is the identity, where each
        # rational character is its aggregate degree
        G = s3pair.G
        assert G.iota == G.identity and G.iota_trivial
        assert all(parity_of(r, s3pair.G) == "even" for r in s3pair.rationals)

    def test_mixed_orbit_refused(self, diamond5):
        # a value at -I that is neither +agg nor -agg would put members of
        # one orbit in both parities
        G = diamond5.G
        rat = next(r for r in diamond5.rationals if r.orbit_size == 2)
        iota = G.class_of[G.iota]
        for v in (0, 1, -1, 3):
            values = list(rat.values)
            values[iota] = Fraction(v)
            with pytest.raises(ValueError, match="^orbit members do not "
                                                 "share a parity$"):
                parity_of(rat._replace(values=tuple(values)), G)

    def test_unconstrained_without_minus_I(self):
        pair = QuotientPair.build(SubgroupSpec("gamma1", 5),
                                  SubgroupSpec("gamma", 5))
        assert pair.G.iota is None
        assert all(parity_of(r, pair.G) == "all" for r in pair.rationals)


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

    def test_unknown_kind_refused(self, diamond5):
        with pytest.raises(ValueError,
                           match="^kind must be 'M' or 'S', got 'X'$"):
            multiplicity_series(diamond5, diamond5.rationals[0], "X", [4])

    def test_rational_by_name(self, diamond5):
        orbit = next(r for r in diamond5.rationals if r.orbit_size == 2)
        assert diamond5.rational_by_name("triv").label == "triv"
        assert diamond5.rational_by_name(orbit.names[1]) is orbit
        assert diamond5.rational_by_name(orbit.label) is orbit
        with pytest.raises(KeyError,
                           match="no character or orbit named 'nope'"):
            diamond5.rational_by_name("nope")

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
            assert v == dims(diamond5.cyclic_dims[0].sig, k).dim_M

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
        import modmult.dimensions as dimensions
        from modmult.dimensions import WeightOneUnsupported
        # rejected before any work: not one dims call, cached or not
        calls = []
        monkeypatch.setattr(dimensions, "dims", lambda *a: calls.append(a))
        for kind in ("M", "S"):
            with pytest.raises(WeightOneUnsupported):
                multiplicity_series(diamond5, diamond5.rationals[0], kind,
                                    [1, 2])
        assert calls == []


class TestSignatureCache:
    def test_each_signature_computed_once(self, monkeypatch):
        import modmult.cosets as cosets
        import modmult.reps as reps
        tables, passes, signatures = [], [], []
        original = cosets._coset_table

        def counted(acting, key, n, *args):
            tables.append((key, n))
            return original(acting, key, n, *args)

        def counter(calls, function):
            def wrapped(*args, **kwargs):
                calls.append(args)
                return function(*args, **kwargs)
            return wrapped

        # G = C4 with classes 1, C2, C4; G = (Z/2)^3 with eight
        for specs, lookups in [
                ((SubgroupSpec("gamma0", 5), SubgroupSpec("gamma1", 5)),
                 [(slice(2, 4), 5)]),
                ((SubgroupSpec("gamma", 12), SubgroupSpec("gamma", 24)),
                 [])]:
            monkeypatch.setattr(cosets, "_coset_table", counted)
            for name in ("branch_points", "_principal_branch_points"):
                monkeypatch.setattr(cosets, name,
                                    counter(passes, getattr(cosets, name)))
            signed = counter(signatures, cosets.subgroup_signature)
            for module in (cosets, reps):
                monkeypatch.setattr(module, "subgroup_signature", signed)
            tables.clear()
            passes.clear()
            signatures.clear()
            pair = QuotientPair.build(*specs)
            pair.period()
            # at most one coset table, Gamma's, and one set of branch
            # points, whatever the number of cyclic classes: Gamma's
            # signature keeps them, and Gamma1 and each Gamma_C are fibres
            # over them.  Gamma0(5) is keyed by bottom rows mod 5; Gamma(12)
            # has no coset table, its cusps are read from +-(a, c) mod 12
            assert tables == lookups
            assert len(passes) == 1 and signatures == [(pair.gamma,)]
            monkeypatch.undo()
            if lookups:
                assert pair.sig_gamma.branch == cosets.branch_points(
                    cosets.coset_action(pair.gamma), pair.gamma)
            for sub, table in zip(cyclic_sets(pair.G, pair.cyclics),
                                  pair.cyclic_dims):
                elems = {mat_mul(h, pair.G.elements[c], pair.G.level)
                         for c in sub for h in pair.gamma1.elements}
                assert table.sig == fibre_sig(pair, sub) == subgroup_signature(
                    FiniteSubgroup(pair.G.level, tuple(sorted(elems)),
                                   own_level=pair.G.level))


class TestOneQuotient:
    @pytest.mark.parametrize("gamma,gamma1", [
        (SubgroupSpec("gamma0", 25), SubgroupSpec("gamma1", 25)),
        (SubgroupSpec("gamma", 12), SubgroupSpec("gamma", 24))],
        ids=["gamma0:25/gamma1:25", "gamma:12/gamma:24"])
    def test_cosets_and_generators_found_once(self, gamma, gamma1,
                                              monkeypatch):
        # G = Z/20 and (Z/2)^3, abelian of order != 6: build numbers G's
        # cosets and finds its generators once, in quotient, and
        # G.is_abelian alone lets it through to its table
        import modmult.sl2 as sl2
        calls = []

        def counted(name, function):
            def wrapped(*args):
                calls.append(name)
                return function(*args)
            return wrapped

        for name in ("right_cosets", "generators"):
            monkeypatch.setattr(sl2, name, counted(name, getattr(sl2, name)))
        pair = QuotientPair.build(gamma, gamma1)
        assert sorted(calls) == ["generators", "right_cosets"]
        assert pair.G.is_abelian and pair.table.provenance == "BuiltinAbelian"


class TestSignatureHash:
    """A signature's hash and equality leave out its branch points, so
    build gives one table to the groups of equal signatures, whether read
    from a coset table, computed from the fibres or written by hand.  The
    series, the identity and the monitor hash no signature: the pair holds
    its tables by position."""

    @pytest.fixture(scope="class")
    def gamma12(self):
        # Gamma(12)/Gamma(24): 8 cyclic classes, 3 signatures, 48 cusps on
        # Gamma's
        return QuotientPair.build(SubgroupSpec("gamma", 12),
                                  SubgroupSpec("gamma", 24))

    def test_hash_leaves_out_branch_points(self, gamma12):
        from modmult.cosets import CuspDatum, Signature
        from modmult.dimensions import DimTable
        G = gamma12.G
        read = gamma12.sig_gamma
        fibre = fibre_sig(gamma12, frozenset(range(G.order)))
        by_hand = Signature(read.nu2, read.nu3,
                            tuple(CuspDatum(c.width, c.regular)
                                  for c in read.cusps), read.minus_I)
        assert read.branch is not None
        assert fibre.branch is None and by_hand.branch is None
        assert read == fibre == by_hand
        assert hash(read) == hash(fibre) == hash(by_hand)
        # each finds the table keyed by the other
        assert {read: gamma12.gamma_dims}[by_hand] is gamma12.gamma_dims
        assert {by_hand: DimTable(by_hand)}[read].sig is by_hand

    def test_series_hash_no_signature(self, gamma12, monkeypatch):
        from modmult.cosets import Signature
        from modmult.verify import (check_decomposition_identity,
                                    monitor_lower_bound)
        # G = (Z/2)^3 with 8 cyclic classes and 3 signatures, and G = S3
        s3 = QuotientPair.build(SubgroupSpec("full", 1),
                                SubgroupSpec("gamma", 2))
        calls = []

        def counted(name, function):
            def wrapped(*args):
                calls.append(name)
                return function(*args)
            return wrapped

        for name in ("__hash__", "__eq__"):
            monkeypatch.setattr(Signature, name,
                                counted(name, getattr(Signature, name)))
        weights = [k for k in range(0, 61) if k != 1]
        for pair in (gamma12, s3):
            backwards = list(range(len(pair.cyclics)))[::-1]
            for kind in ("M", "S"):
                for rat in pair.rationals:
                    series = multiplicity_series(pair, rat, kind, weights)
                    multiplicity_series(pair, rat, kind, weights, split=True)
                    multiplicity_series(pair, rat, kind, weights,
                                        column_order=backwards)
                    monitor_lower_bound(pair, series, 24, 60)
                check_decomposition_identity(pair, kind, weights)
        assert calls == []
        # the counters are live: build compares signatures
        QuotientPair.build(SubgroupSpec("full", 1), SubgroupSpec("gamma", 2))
        assert "__hash__" in calls


def series_from_dims(pair, rat, kind, weights):
    """Reference multiplicities, summed straight from dims at every weight
    with the Artin coefficients solved afresh."""
    from modmult.dimensions import dims
    coeffs, = artin_decompose([rat.values], pair.G, pair.cyclics)
    sigs = [fibre_sig(pair, sub)
            for sub in cyclic_sets(pair.G, pair.cyclics)]
    return {k: int(sum(q * dims(sig, k).kind(kind)
                       for q, sig in zip(coeffs, sigs)))
            for k in weights}


def sum_vector(pair, rat):
    """rat's Artin coefficients summed per signature of the Gamma_C, the
    zero sums dropped: characters with equal vectors have equal series."""
    sums = {}
    coeffs, = artin_decompose([rat.values], pair.G, pair.cyclics)
    for q, table in zip(coeffs, pair.cyclic_dims, strict=True):
        sums[table.sig] = sums.get(table.sig, 0) + q
    return tuple((sig, q) for sig, q in sums.items() if q)


def sorted_labels(rats):
    return sorted(rat.label for rat in rats)


NEAR_ZERO = [k for k in range(-4, 12) if k != 1]


class TestDimensionTable:
    """The pair's tables read what dims gives at every weight, negative
    and far ones included.  dims reads a group's signature alone, so the
    pair keeps one table per distinct signature of Gamma1, the Gamma_C and
    Gamma: it runs dims on one quasi-period per signature, [3, 3 + 2P),
    whatever the weights read, and leaves k < 3 to dims.  build adds the
    coefficients of the C whose Gamma_C share a signature, a series reads
    the dimensions once per nonzero sum, and pair_series computes one
    series per distinct sums."""

    def test_table_matches_dims_on_every_pair(self):
        from modmult.dimensions import dims
        from test_cosets import PAIRS
        for k0, n0, k1, n1 in PAIRS:
            pair = QuotientPair.build(SubgroupSpec(k0, n0),
                                      SubgroupSpec(k1, n1))
            G = pair.G
            for C, table in zip(cyclic_sets(G, pair.cyclics),
                                pair.cyclic_dims, strict=True):
                assert table.sig == fibre_sig(pair, C), (k0, n0, k1, n1)
            # Gamma1 (C = {1}) and Gamma (C = G) have tables too
            gamma1 = fibre_sig(pair, frozenset({G.identity}))
            gamma = fibre_sig(pair, frozenset(range(G.order)))
            assert pair.cyclic_dims[0].sig == gamma1
            assert pair.gamma_dims.sig == gamma == pair.sig_gamma
            # equal signatures share one table object, distinct ones don't
            tables = [*pair.cyclic_dims, pair.gamma_dims]
            for a in tables:
                for b in tables:
                    assert (a is b) == (a.sig == b.sig), (k0, n0, k1, n1)
            # k = 26 is the edge a table starting at k = 2 gets wrong
            ks = [k for k in range(-4, 4 + 3 * pair.period()) if k != 1]
            ks += [3000, 3001, 12345]
            for table in dict.fromkeys(tables):
                sig = table.sig
                for kind in ("M", "S"):
                    want = [dims(sig, k).kind(kind) for k in ks]
                    # the second read comes from the table, backwards
                    assert table.read(kind, ks) == want, (k0, n0, k1, n1)
                    assert table.read(kind, ks[::-1]) == want[::-1]

    @pytest.mark.parametrize("weight_lists", [
        [NEAR_ZERO], [[40, 4], range(2, 101)], [[-70, 300, -3], NEAR_ZERO]],
        ids=["negative", "sparse", "far"])
    def test_series_match_dims(self, weight_lists):
        for specs in [(SubgroupSpec("gamma0", 5), SubgroupSpec("gamma1", 5)),
                      (SubgroupSpec("full", 1), SubgroupSpec("gamma", 2)),
                      (SubgroupSpec("gamma0", 12), SubgroupSpec("gamma1", 12)),
                      # 8 cyclic classes each, with 3 and 5 signatures
                      (SubgroupSpec("gamma", 12), SubgroupSpec("gamma", 24)),
                      (SubgroupSpec("gamma0", 24), SubgroupSpec("gamma1", 24))]:
            pair = QuotientPair.build(*specs)
            for weights in weight_lists:
                for kind in ("M", "S"):
                    for rat in pair.rationals:
                        series = multiplicity_series(pair, rat, kind, weights)
                        assert series.entries == \
                            series_from_dims(pair, rat, kind, weights)

    def test_shared_signatures_on_every_pair(self):
        from modmult.verify import VerificationConfig, run_verify
        weights = [k for k in range(-4, 61) if k != 1] + [3000, 12345]
        shared = []
        for k0, n0, k1, n1 in PAIRS:
            specs = (SubgroupSpec(k0, n0), SubgroupSpec(k1, n1))
            pair = QuotientPair.build(*specs)
            sigs = [fibre_sig(pair, sub)
                    for sub in cyclic_sets(pair.G, pair.cyclics)]
            if len(set(sigs)) == len(sigs):
                continue
            shared.append((k0, n0, k1, n1))
            backwards = list(range(len(pair.cyclics)))[::-1]
            for rat in pair.rationals:
                for kind in ("M", "S"):
                    series = multiplicity_series(pair, rat, kind, weights)
                    assert series.entries == series_from_dims(
                        pair, rat, kind, weights), (k0, n0, k1, n1)
                    assert multiplicity_series(
                        pair, rat, kind, weights,
                        column_order=backwards).entries == series.entries
            assert run_verify(VerificationConfig(*specs, kmax=60))["pass"]
        # the SL2(Z) normaliser of Gamma(N)/Gamma(2N) maps a cyclic C to
        # subgroups not conjugate to it in G, with Gamma_C's signature
        assert len(shared) == 13
        assert ("gamma", 12, "gamma", 24) in shared

    def test_shared_vectors_give_each_characters_own_series(self):
        weights = [k for k in range(0, 61) if k != 1] + [3000]
        repeating, counts = [], Counter()
        for k0, n0, k1, n1 in PAIRS:
            specs = (SubgroupSpec(k0, n0), SubgroupSpec(k1, n1))
            pair = QuotientPair.build(*specs)
            vectors = [sum_vector(pair, rat) for rat in pair.rationals]
            counts.update(characters=len(vectors), vectors=len(set(vectors)))
            if len(set(vectors)) == len(vectors):
                continue
            repeating.append((k0, n0, k1, n1))
            for kind in ("M", "S"):
                shared = pair_series(pair, kind, weights)
                for rat, series in zip(pair.rationals, shared,
                                       strict=True):
                    # the character's own series, on a freshly built pair
                    fresh = QuotientPair.build(*specs)
                    own = multiplicity_series(
                        fresh, fresh.rational_by_name(rat.label), kind,
                        weights)
                    assert series == own, (k0, n0, k1, n1, kind, rat.label)
                # each series has a dict of its own, so an edit to one
                # changes no other series and no later one
                for a in range(len(shared)):
                    for b in range(a):
                        assert shared[a].entries is not shared[b].entries
                want = dict(shared[-1].entries)
                for series in shared:
                    series.entries.clear()
                again = multiplicity_series(pair, pair.rationals[-1], kind,
                                            weights)
                assert again.entries == want
        assert counts == {"characters": 277, "vectors": 240}
        assert len(repeating) == 13
        assert ("gamma", 12, "gamma", 24) in repeating

    def test_kept_totals_stay_bounded_over_many_weight_lists(self):
        # a pair keeps no totals between calls, so a pair asked for many
        # weight lists holds none of them
        import gc
        import tracemalloc
        specs = (SubgroupSpec("gamma0", 5), SubgroupSpec("gamma1", 5))
        pair, fresh = QuotientPair.build(*specs), QuotientPair.build(*specs)
        # triv, whose series reads one table: the cheapest of the three
        rat = pair.rationals[0]
        own = multiplicity_series(fresh, fresh.rational_by_name(rat.label),
                                  "M", range(2, 1002))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for n in range(3, 1003):
                series = multiplicity_series(pair, rat, "M", range(2, n))
                # the same weights of the series of a freshly built pair
                assert series == own._replace(
                    entries={k: own.entries[k] for k in range(2, n)})
            del series
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 1_000_000

    def test_one_table_and_one_read_per_signature(self, monkeypatch):
        import modmult.dimensions as dimensions
        calls = []
        original = dimensions.dims

        def counted(sig, k):
            calls.append((sig, k))
            return original(sig, k)

        monkeypatch.setattr(dimensions, "dims", counted)
        pair = QuotientPair.build(SubgroupSpec("gamma", 12),
                                  SubgroupSpec("gamma", 24))
        monkeypatch.undo()
        sigs = [fibre_sig(pair, sub)
                for sub in cyclic_sets(pair.G, pair.cyclics)]
        groups = set(sigs) | {pair.sig_gamma}
        # 8 cyclic classes and Gamma, with 4 signatures between them
        assert (len(sigs), len(set(sigs)), len(groups)) == (8, 3, 4)
        quasi_period = list(range(3, 3 + 2 * dimensions.PERIOD))
        assert Counter(calls) == Counter(
            (sig, k) for sig in groups for k in quasi_period)
        tables = dict.fromkeys([*pair.cyclic_dims, pair.gamma_dims])
        assert [table.sig for table in tables] == list(dict.fromkeys(
            [*sigs, pair.sig_gamma]))

        reads = []
        original_read = dimensions.DimTable.read

        def spied(self, kind, weights):
            reads.append(self.sig)
            return original_read(self, kind, weights)

        monkeypatch.setattr(dimensions.DimTable, "read", spied)
        for rat in pair.rationals:
            vector = sum_vector(pair, rat)
            for kind in ("M", "S"):
                reads.clear()
                first = multiplicity_series(pair, rat, kind, range(2, 40))
                # each call reads each table of a nonzero sum once: the
                # second call, keeping nothing from the first, reads again
                again = multiplicity_series(pair, rat, kind, range(2, 40))
                want = Counter(sig for sig, _ in vector)
                assert Counter(reads) == want + want
                assert len(want) <= 3
                assert again == first

    def test_table_sums_split_characters_as_signatures(self):
        # build's sums, keyed by table object, are sum_vector's, keyed by
        # signature; characters with equal sums share their aggregate
        # degree and parity class, which the checks read besides entries
        counts = Counter()
        for k0, n0, k1, n1 in PAIRS:
            pair = QuotientPair.build(SubgroupSpec(k0, n0),
                                      SubgroupSpec(k1, n1))
            by_sums, by_vector = {}, {}
            for rat in pair.rationals:
                sums = pair.table_sums[rat]
                assert all(type(n) is type(d) is int and n and d > 0
                           for _, n, d in sums)
                assert tuple((t.sig, Fraction(n, d)) for t, n, d in sums) \
                    == sum_vector(pair, rat), (k0, n0, k1, n1)
                by_sums.setdefault(sums, set()).add(rat)
                by_vector.setdefault(sum_vector(pair, rat), set()).add(rat)
            assert sorted(map(sorted_labels, by_sums.values())) \
                == sorted(map(sorted_labels, by_vector.values()))
            for rats in by_sums.values():
                assert len({(rat.aggregate_degree, parity_of(rat, pair.G))
                            for rat in rats}) == 1, (k0, n0, k1, n1)
            counts.update(characters=len(pair.rationals),
                          classes=len(by_sums))
        assert counts == {"characters": 277, "classes": 240}

    def spy_series(self, monkeypatch):
        """Record the label of each multiplicity_series call and the
        signature of each DimTable read."""
        import modmult.dimensions as dimensions
        import modmult.reps as reps
        calls, reads = [], []
        original_series, original_read = (reps.multiplicity_series,
                                          dimensions.DimTable.read)

        def series(pair, rat, *args, **kwargs):
            calls.append(rat.label)
            return original_series(pair, rat, *args, **kwargs)

        def read(table, kind, weights):
            reads.append(table.sig)
            return original_read(table, kind, weights)

        monkeypatch.setattr(reps, "multiplicity_series", series)
        monkeypatch.setattr(dimensions.DimTable, "read", read)
        return calls, reads

    def first_of_each_sums(self, pair):
        """The first character of each distinct sums, and the signatures
        its series reads."""
        firsts = {}
        for rat in pair.rationals:
            firsts.setdefault(pair.table_sums[rat], rat)
        return ([rat.label for rat in firsts.values()],
                Counter(sig for rat in firsts.values()
                        for sig, _ in sum_vector(pair, rat)))

    def test_pair_series_reads_once_per_sums(self, monkeypatch):
        specs = (SubgroupSpec("gamma", 12), SubgroupSpec("gamma", 24))
        pair = QuotientPair.build(*specs)
        labels, want = self.first_of_each_sums(pair)
        weights = [k for k in range(-4, 61) if k != 1] + [3000]
        calls, reads = self.spy_series(monkeypatch)
        for kind in ("M", "S"):
            calls.clear()
            reads.clear()
            shared = pair_series(pair, kind, weights)
            # the SL2(Z) normaliser pairs up the 8 characters: 4 sums, so
            # each kind reads for 4 of them
            assert (len(shared), calls) == (8, labels)
            assert len(labels) == 4
            assert Counter(reads) == want
            for rat, series in zip(pair.rationals, shared, strict=True):
                assert series == multiplicity_series(pair, rat, kind,
                                                     weights)

    @pytest.mark.parametrize("split", [False, True], ids=["totals", "split"])
    def test_mult_reads_once_per_sums(self, split, monkeypatch, capsys):
        import csv
        import io

        from modmult.cli import main
        specs = (SubgroupSpec("gamma", 12), SubgroupSpec("gamma", 24))
        pair = QuotientPair.build(*specs)
        labels, want = self.first_of_each_sums(pair)
        weights = range(2, 3001)
        expected = io.StringIO()
        rows = csv.writer(expected)
        rows.writerow(["rep", "k", "multiplicity"])
        for rat in pair.rationals:
            series = multiplicity_series(pair, rat, "S", weights, split=split)
            for name in rat.names if split else [rat.label]:
                values = series.per_member if split else series.entries
                rows.writerows((name, k, values[k]) for k in weights)
        calls, reads = self.spy_series(monkeypatch)
        argv = ["mult", "--pair", "gamma:12/gamma:24", "--kind", "S",
                "--weights", "2..3000"]
        assert main(argv + ["--split"] * split) == 0
        assert calls == labels and len(labels) == 4
        assert Counter(reads) == want
        assert capsys.readouterr().out == expected.getvalue()

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

    def test_period_is_12_without_signatures(self, monkeypatch):
        import modmult.cosets as cosets
        import modmult.reps as reps
        from modmult.dimensions import PERIOD
        pair = QuotientPair.build(SubgroupSpec("gamma0", 7),
                                  SubgroupSpec("gamma1", 7))

        def refused(*args):
            raise AssertionError("period() ran signature code")

        for module, name in [(reps, "fibre_signature"),
                             (reps, "subgroup_signature"),
                             (cosets, "fibre_signature"),
                             (cosets, "subgroup_signature")]:
            monkeypatch.setattr(module, name, refused)
        assert pair.period() == PERIOD == 12

    def test_run_verify_dims_calls_do_not_grow_with_kmax(self, monkeypatch):
        import modmult.dimensions as dimensions
        from modmult.verify import VerificationConfig, run_verify
        calls = []
        original = dimensions.dims

        def counted(sig, k):
            calls.append((sig, k))
            return original(sig, k)

        monkeypatch.setattr(dimensions, "dims", counted)
        specs = (SubgroupSpec("gamma0", 5), SubgroupSpec("gamma1", 5))
        counts = []
        for kmax in (60, 600):
            calls.clear()
            report = run_verify(VerificationConfig(*specs, kmax=kmax))
            assert report["pass"] is True
            counts.append(len(calls))
            # from k = 3 on, dims runs only on one table's weights
            assert all(k < 3 + 2 * dimensions.PERIOD
                       for _, k in calls if k >= 3)
        assert counts[0] == counts[1]


class TestArtinSolves:
    """build forms the marks matrix once and solves each character's Artin
    coefficients once, M and S share them, and a given column order solves
    afresh with that order."""

    @pytest.fixture
    def solves(self, monkeypatch):
        # the marks matrix is upper triangular in the cyclic subgroups'
        # order, so a column's last nonzero row is the subgroup it belongs to
        import modmult.reps as reps
        calls = []
        original = reps.solve_linear_exact

        def counted(A, b):
            calls.append([max(i for i, row in enumerate(A) if row[j])
                          for j in range(len(A))])
            return original(A, b)

        monkeypatch.setattr(reps, "solve_linear_exact", counted)
        return calls

    def test_build_solves_once_per_character(self, solves):
        from modmult.verify import VerificationConfig, run_verify
        specs = (SubgroupSpec("gamma0", 5), SubgroupSpec("gamma1", 5))
        pair = QuotientPair.build(*specs)
        assert len(pair.rationals) == 3
        natural = [list(range(len(pair.cyclics)))] * 3
        assert solves == natural
        for rat in pair.rationals:
            for kind in ("M", "S"):
                multiplicity_series(pair, rat, kind, range(2, 40))
        # the series only read what build solved
        assert solves == natural
        solves.clear()
        report = run_verify(VerificationConfig(*specs, kmax=60))
        assert len(report["reps"]) == 2 * 3  # M and S
        assert solves == natural

    def test_build_forms_the_marks_matrix_once(self, solves, monkeypatch):
        # Z/28: 6 cyclic subgroups and 6 rational characters, each
        # permutation character formed once, with its cyclic subgroup, and
        # one solve per character
        import modmult.sl2 as sl2
        perms = []
        original = sl2.permutation_character

        def counted(G, c):
            perms.append(c)
            return original(G, c)

        monkeypatch.setattr(sl2, "permutation_character", counted)
        pair = QuotientPair.build(SubgroupSpec("gamma0", 29),
                                  SubgroupSpec("gamma1", 29))
        assert len(pair.cyclics) == len(pair.rationals) == 6
        assert perms == [gen for gen, _ in pair.cyclics]
        assert solves == [list(range(6))] * 6

    def test_column_order_solves_afresh(self, solves):
        pair = QuotientPair.build(SubgroupSpec("gamma0", 7),
                                  SubgroupSpec("gamma1", 7))
        reverse = list(reversed(range(len(pair.cyclics))))
        for rat in pair.rationals:
            solves.clear()
            series = [multiplicity_series(pair, rat, kind, range(2, 40),
                                          column_order=order)
                      for order in (None, reverse, None, reverse)
                      for kind in ("M", "S")]
            # no solve without an order, one with each given order
            assert solves == [reverse] * 4
            assert series[0].entries == series[2].entries
            assert series[1].entries == series[3].entries
            assert artin_decompose([rat.values], pair.G, pair.cyclics) \
                == artin_decompose([rat.values], pair.G, pair.cyclics,
                                   column_order=reverse)


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
