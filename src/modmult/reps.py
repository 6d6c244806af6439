"""Multiplicities of irreducible characters of G = Gamma/Gamma1 in the
weight-k form spaces of Gamma1, computed exactly from fixed-subspace
dimensions over cyclic subgroups plus Artin-induction linear algebra.
"""
from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from . import ModmultError
from .cosets import (Signature, area_constant_c, fibre_signature,
                     subgroup_signature)
from .dimensions import PERIOD, DimTable, WeightOneUnsupported
from .exact import (CycloValue, InconsistentSystem, euler_phi, integer_rows,
                    mobius, reduce_cyclotomic, solve_linear_exact)
from .sl2 import (DEFAULT_LEVEL_CAP, FiniteSubgroup, QuotientGroup,
                  SubgroupSpec, cyclic_subgroups_up_to_conjugacy,
                  permutation_character, quotient, realize)


class NotAbelian(ModmultError, ValueError):
    pass


class SchemaError(ModmultError, ValueError):
    pass


class OrthogonalityFailure(ModmultError, ValueError):
    pass


class ClassMismatch(ModmultError, ValueError):
    pass


class IndivisibleOrbitTotal(ModmultError):
    """An orbit total did not divide by the orbit size under --split."""


class CharacterTableRequired(ModmultError, ValueError):
    """Nonabelian quotient without a built-in or user-supplied table."""


class CharacterTable:
    """Exact character data of G, values indexed by G's conjugacy classes.

    Every check and every orbit sum reads the values through int_rows, one
    lift to Z[zeta_m] over one denominator.  A table whose degrees are all
    1, whose denominator is 1 and whose lifted values are each a single term
    zeta_m^x has exponent rows x: validate accepts rows that are |G|
    distinct homomorphisms G -> Z/m without the Z[zeta_m] checks."""

    def __init__(self, group: QuotientGroup, names: tuple[str, ...],
                 degrees: tuple[int, ...],
                 values: tuple[tuple[CycloValue, ...], ...], provenance: str):
        self.group, self.names, self.degrees = group, names, degrees
        self.values, self.provenance = values, provenance

    @cached_property
    def int_rows(self):
        """integer_rows of the values, lifted once for validate and
        rational_characters."""
        return integer_rows(self.values)

    def validate(self):
        G = self.group
        ncls = len(G.classes)
        if any(len(row) != ncls for row in self.values):
            raise SchemaError("character value rows must match the class count")
        if sum(d * d for d in self.degrees) != G.order:
            raise SchemaError("sum of squared degrees must equal |G|")
        # every value lies in Q(zeta_e), e = exp G, so a field larger than
        # |G| * e is refused before anything is lifted to it
        m = lcm(*(v.order for row in self.values for v in row))
        if m > G.order * G.exponent:
            raise SchemaError(f"value orders have lcm {m}, above "
                              f"|G| * exp G = {G.order * G.exponent}")
        for deg, row in zip(self.degrees, self.values):
            at_id = row[G.class_of[G.identity]].rational_part()
            if at_id != deg:
                raise SchemaError("degree must equal the value at the identity")
        # homomorphisms r have 2 r(-I) = r(1) = 0 mod m: the -I check below
        # cannot fail on exponent rows
        if self._check_exponent_rows():
            return
        self._check_gram_matrix(*self.int_rows)
        if G.iota is not None:
            iota = G.class_of[G.iota]
            for name, deg, row in zip(self.names, self.degrees, self.values):
                v = row[iota]
                if not (v == deg or v == -deg):
                    raise SchemaError(
                        f"value of {name} at the -I coset is not a +-1 scalar")
        self._check_class_algebra(*self.int_rows)

    def _check_gram_matrix(self, m, rows, den):
        """<chi_i, chi_j> = |G| delta_ij, computed in Z[x]/(x^m - 1): the
        table is scaled by its denominator, and conj(zeta^b) = zeta^(m - b)."""
        G = self.group
        sizes = [len(cls) for cls in G.classes]
        for i, row_i in enumerate(rows):
            for j in range(i, len(rows)):
                acc = [0] * m
                for size, vi, vj in zip(sizes, row_i, rows[j]):
                    for a, x in vi:
                        for b, y in vj:
                            acc[(a - b) % m] += size * x * y
                coords = reduce_cyclotomic(m, acc)
                ip = (None if any(coords[1:])
                      else Fraction(coords[0], den * den))
                if ip != (G.order if i == j else 0):
                    raise OrthogonalityFailure(
                        f"<{self.names[i]},{self.names[j]}> = {ip}/{G.order}")

    def _check_class_algebra(self, m, rows, den):
        """Each orthonormal row chi is an irreducible character: its degree
        is positive and omega(K) = |K| chi(K) / chi(1) multiplies like the
        class sums, omega(K_i) omega(K_j) = sum_l a_ijl omega(K_l) with
        a_ijl = #{x in K_i : x^-1 z_l in K_j}, z_l in K_l (Burnside's
        relations, as used by Dixon, Numer. Math. 10, 1967).  Then omega is
        the central character of an irreducible psi, and chi = psi.  Over
        the table's denominator, in Z[x]/(x^m - 1):
        |K_i||K_j| chi_i chi_j = chi(1) sum_l a_ijl |K_l| chi_l, where
        a_ijl |K_l| = #{(x, y) in K_i x K_j : xy in K_l}
        = |K_j| #{x in K_i : x z_j in K_l}, z_j in K_j."""
        G = self.group
        cls = G.class_of
        sizes = [len(K) for K in G.classes]
        # (i, j) -> {l: a_ijl |K_l|} for classes i <= j
        terms: dict[tuple[int, int], dict[int, int]] = {}
        for i, K in enumerate(G.classes):
            for j in range(i, len(G.classes)):
                t = terms[i, j] = {}
                for x in K:
                    l = cls[G.mul(x, G.classes[j][0])]
                    t[l] = t.get(l, 0) + sizes[j]
        products = sorted(terms.items())
        for name, deg, row in zip(self.names, self.degrees, rows):
            if deg < 1:
                raise OrthogonalityFailure(
                    f"{name} is not a character: degree {deg}")
            scale = deg * den
            for (i, j), t in products:
                vec = [0] * m
                w = sizes[i] * sizes[j]
                for a, x in row[i]:
                    for b, y in row[j]:
                        vec[(a + b) % m] += w * x * y
                for l, c in t.items():
                    for a, x in row[l]:
                        vec[a] -= scale * c * x
                if any(reduce_cyclotomic(m, vec)):
                    zi, zj = (G.elements[G.classes[k][0]] for k in (i, j))
                    raise OrthogonalityFailure(
                        f"{name} is not a character: it breaks the class "
                        f"multiplication at {zi} * {zj}")

    def _check_exponent_rows(self) -> bool:
        """Whether the table has exponent rows that are |G| distinct
        homomorphisms G -> Z/m, and so all of G's characters, orthogonal and
        irreducible.  A row r is one if r(x s) = r(x) + r(s) for every x and
        every generator s of G: each element is a word in the generators.
        validate checks every other table in Z[zeta_m], and so refuses
        exponent rows that are not G's table as it refuses any table."""
        G = self.group
        m, lifted, den = self.int_rows
        if den != 1 or set(self.degrees) != {1} or any(
                len(v) != 1 or v[0][1] != 1 for row in lifted for v in row):
            return False
        rows = [tuple(v[0][0] for v in row) for row in lifted]
        if not len(set(rows)) == len(rows) == G.order:
            return False
        cls = G.class_of
        steps = [(cls[x], cls[G.mul(x, s)], cls[s])
                 for x in range(G.order) for s in G.generators]
        return not any((row[x] + row[s] - row[y]) % m
                       for row in rows for x, y, s in steps)


def abelian_character_table(G: QuotientGroup) -> CharacterTable:
    """All |G| degree-1 characters of an abelian G, built by extending
    characters one generator at a time; values are exact roots of unity."""
    if not G.is_abelian:
        raise NotAbelian("quotient group is not abelian")
    e = G.exponent
    chars: list[dict[int, int]] = [{G.identity: 0}]  # element -> exponent of zeta_e
    for g in G.generators:
        # classes are singletons: g's powers are its power map's classes
        pg = [G.classes[k][0] for k in G.power_map[G.class_of[g]]]
        # m = least positive power of g in the current subgroup, the key
        # set of chars[0]: its meet with <g> has ord g / m elements
        m = len(pg) // sum(x in chars[0] for x in pg)
        steps = [(h, j, G.mul(h, pg[j])) for h in chars[0] for j in range(m)]
        new_chars = []
        for chi in chars:
            t = chi[pg[m % len(pg)]]
            for s in range(e):
                if (m * s - t) % e == 0:
                    new_chars.append({x: (chi[h] + s * j) % e
                                      for h, j, x in steps})
        chars = new_chars

    assert len(chars) == G.order
    class_reps = [cls[0] for cls in G.classes]
    rows = sorted(tuple(chi[r] for r in class_reps) for chi in chars)
    zeta = [CycloValue(e, {exp: 1}) for exp in range(e)]
    table = CharacterTable(
        group=G, names=tuple("triv" if not any(row) else f"chi{i}"
                             for i, row in enumerate(rows)),
        degrees=(1,) * G.order,
        values=tuple(tuple(zeta[exp] for exp in row) for row in rows),
        provenance="BuiltinAbelian")
    table.validate()
    return table


def builtin_s3_table(G: QuotientGroup) -> CharacterTable:
    """S3's table from permutation characters, in G's class order:
    sign = 1_C3^G - 1 and std = 1_C2^G - 1 for subgroups C3 and C2 of
    orders 3 and 2."""
    if G.order != 6 or G.is_abelian:
        raise ClassMismatch("built-in S3 table needs a nonabelian group of order 6")
    # each subgroup of order 2 or 3 is cyclic, and any C2 gives 1_C2^G
    gen = {len(row): G.classes[k][0] for k, row in enumerate(G.power_map)}
    rows = [(1,) * len(G.classes)] + [
        tuple(v - 1 for v in permutation_character(G, gen[n]))
        for n in (3, 2)]
    table = CharacterTable(
        group=G, names=("triv", "sign", "std"), degrees=(1, 1, 2),
        values=tuple(tuple(map(CycloValue.from_rational, row)) for row in rows),
        provenance="BuiltinS3")
    table.validate()
    return table


def load_character_table(doc, G: QuotientGroup) -> CharacterTable:
    """Validate a character table given as a JSON document (cli's
    parse_table_file reads one from a file).

    Schema: {"classes": [{"rep": [a,b,c,d], "size": s}, ...],
             "characters": [{"name": ..., "degree": d,
                             "values": [{"order": n, "coeffs": {"j": "p/q"}}]}]}
    Values are listed in the file's class order and re-indexed onto G.
    """
    for key in ("classes", "characters"):
        if key not in doc:
            raise SchemaError(f"missing top-level key: {key!r}")
        if not isinstance(doc[key], list):
            raise SchemaError(f"top-level key {key!r} is not a list")
    cls_docs, char_docs = doc["classes"], doc["characters"]
    if len(cls_docs) != len(G.classes):
        raise ClassMismatch(
            f"file has {len(cls_docs)} classes, group has {len(G.classes)}")
    perm = []  # file class position -> G class index
    seen = set()
    for cd in cls_docs:
        try:
            a, b, c, d = (int(x) for x in cd["rep"])
            size = int(cd["size"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad class entry: {cd!r}") from exc
        ci = G.class_of[G.coset_index((a, b, c, d))]
        if ci in seen:
            raise ClassMismatch("two file classes map to the same class of G")
        seen.add(ci)
        if size != len(G.classes[ci]):
            raise ClassMismatch(f"class size {size} != {len(G.classes[ci])}")
        perm.append(ci)

    names, degrees, values = [], [], []
    for ch in char_docs:
        try:
            name = str(ch["name"])
            degree = int(ch["degree"])
            vals = list(ch["values"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad character entry: {exc}") from exc
        if name in names:
            raise SchemaError(f"character name {name!r} is repeated")
        if len(vals) != len(cls_docs):
            raise SchemaError(f"character {name} has {len(vals)} values")
        row = [None] * len(G.classes)
        for pos, vd in enumerate(vals):
            try:
                coeffs = {int(j): Fraction(s) for j, s in vd["coeffs"].items()}
                row[perm[pos]] = CycloValue(int(vd["order"]), coeffs)
            except (KeyError, TypeError, ValueError, AttributeError,
                    ZeroDivisionError) as exc:
                raise SchemaError(f"bad value entry in {name}: {exc}") from exc
        names.append(name)
        degrees.append(degree)
        values.append(tuple(row))
    table = CharacterTable(group=G, names=tuple(names), degrees=tuple(degrees),
                           values=tuple(values), provenance="UserFile")
    table.validate()
    return table


def character_table_for(G: QuotientGroup, table_source=None) -> CharacterTable:
    if table_source is not None:
        return load_character_table(table_source, G)
    if G.is_abelian:
        return abelian_character_table(G)
    if G.order == 6:
        return builtin_s3_table(G)
    raise CharacterTableRequired(
        f"nonabelian quotient of order {G.order}: supply a character table")


class RationalCharacter(NamedTuple):
    """A Galois orbit of characters; the orbit-summed values are rational."""

    names: tuple[str, ...]
    values: tuple[Fraction, ...]    # orbit-sum value per conjugacy class
    degree: int                     # degree of each orbit member

    @property
    def orbit_size(self) -> int:
        return len(self.names)

    @property
    def aggregate_degree(self) -> int:
        return self.degree * self.orbit_size

    @property
    def label(self) -> str:
        if len(self.names) == 1:
            return self.names[0]
        return "orbit(" + "+".join(self.names) + ")"


def rational_characters(table: CharacterTable) -> tuple[RationalCharacter, ...]:
    """Partition the table into Galois orbits and sum each orbit exactly.

    With m the lcm of the value orders, Tr chi(K), the trace of chi(K)
    from Q(zeta_m) to Q, is the sum of chi^s(K) over Gal(Q(zeta_m)/Q).
    It meets each member of chi's orbit phi(m) / |orbit| times, so the
    orbit sums to |orbit| Tr chi / phi(m); Tr zeta_m^j is the Ramanujan
    sum c_m(j) (Hardy and Wright, Thm 272).  Two rows share an orbit iff
    their trace vectors agree: the sums of two orbits are distinct rational
    irreducible characters, nonzero and orthogonal (Serre, Linear
    Representations, 12-13).  A table not validated may sum to class
    functions that are not characters, so the sums are checked.
    """
    m, rows, den = table.int_rows
    c = [_ramanujan_sum(m, j) for j in range(m)]
    trace_of = {value: sum(a * c[j] for j, a in value)
                for value in {value for row in rows for value in row}}
    traces = [tuple([trace_of[value] for value in row]) for row in rows]
    orbits: dict[tuple[int, ...], list[int]] = {}
    for i, trace in enumerate(traces):
        orbits.setdefault(trace, []).append(i)
    scale = euler_phi(m) * den
    out = [RationalCharacter(
        names=tuple(table.names[i] for i in members),
        values=tuple(Fraction(len(members) * t, scale) for t in trace),
        degree=table.degrees[members[0]],
    ) for trace, members in orbits.items()]
    # labels key the series: no name may be another orbit's label
    labels = [rat.label for rat in out]
    if clash := [label for label in labels if labels.count(label) > 1]:
        raise SchemaError(f"two Galois orbits are labelled {clash[0]!r}")
    G, rows = table.group, [[v.numerator for v in r.values] for r in out]
    if (any(v.denominator != 1 for r in out for v in r.values)
            or sum(r.orbit_size * r.degree ** 2 for r in out) != G.order
            or any(sum(len(K) * a * b for K, a, b in zip(G.classes, x, y))
                   != G.order * out[i].orbit_size * (x is y)
                   for i, x in enumerate(rows) for y in rows[i:])):
        raise OrthogonalityFailure("orbit sums are not rational characters")
    return tuple(out)


def _ramanujan_sum(q: int, n: int) -> int:
    """c_q(n), the sum of zeta_q^(u n) over the units u mod q, is
    mu(t) phi(q) / phi(t) with t = q / gcd(q, n) (Hardy and Wright,
    Thm 272)."""
    t = q // gcd(q, n)
    return mobius(t) * euler_phi(q) // euler_phi(t)


def artin_decompose(targets, G: QuotientGroup, cyclics,
                    column_order=None) -> list[tuple[Fraction, ...]]:
    """Exact coefficients expressing each rational class function of
    targets as a combination of permutation characters of cyclic subgroups,
    one tuple per target.

    A rational class function is fixed by its values at one generator of
    each cyclic subgroup (Serre, Linear Representations, 13.1), and at
    those classes the marks matrix is upper triangular with a positive
    diagonal, so the system is square and nonsingular.  cyclics holds each
    subgroup's generator and permutation character, and the matrix is
    formed once per call; each target is solved on its own, as
    solve_linear_exact takes one right-hand side.
    ``column_order``, a permutation of the cyclic subgroups, orders the
    matrix's columns and so the elimination's pivots; the coefficients do
    not depend on it.  Each solution is then checked at every class, in
    integers over the coefficients' common denominator D; a function that
    is not constant on the Galois class orbits raises InconsistentSystem.
    """
    perms = [perm for _, perm in cyclics]
    order = list(range(len(perms)) if column_order is None else column_order)
    if sorted(order) != list(range(len(perms))):
        raise ValueError("column_order must be a permutation of the columns")
    rows = [G.class_of[gen] for gen, _ in cyclics]
    A = [[perms[j][cl] for j in order] for cl in rows]
    out = []
    for target in targets:
        y = solve_linear_exact(A, [target[cl] for cl in rows])
        x = [q for _, q in sorted(zip(order, y))]
        D = lcm(*(q.denominator for q in x))
        scaled = [q.numerator * (D // q.denominator) for q in x]
        for cl, want in enumerate(target):
            got = sum(a * perm[cl] for a, perm in zip(scaled, perms))
            if got * want.denominator != D * want.numerator:
                raise InconsistentSystem(
                    f"no Artin decomposition: mismatch at class {cl}")
        out.append(tuple(x))
    return out


def parity_of(rat: RationalCharacter, G: QuotientGroup) -> str:
    """Which weights can carry this character: 'even', 'odd', or 'all',
    from the Schur scalar at -I."""
    if G.iota is None:
        return "all"
    sign = rat.values[G.class_of[G.iota]] / rat.aggregate_degree
    if sign == 1:
        return "even"
    if sign == -1:
        return "odd"
    raise ValueError("orbit members do not share a parity")


class MultiplicitySeries(NamedTuple):
    """k -> multiplicity of a character (or Galois-orbit total) in M_k or S_k."""

    rep_label: str
    kind: str                       # "M" or "S"
    entries: dict[int, int]         # orbit totals
    per_member: dict[int, int] | None
    parity_class: str               # "even", "odd", or "all"
    degree: int
    orbit_size: int

    @property
    def aggregate_degree(self) -> int:
        return self.degree * self.orbit_size


class QuotientPair:
    """The pair (Gamma, Gamma1) with everything the engine derives from it,
    built by build and only read after."""

    def __init__(self, gamma_spec: SubgroupSpec, gamma1_spec: SubgroupSpec,
                 gamma: FiniteSubgroup, gamma1: FiniteSubgroup,
                 G: QuotientGroup, table: CharacterTable,
                 rationals: tuple[RationalCharacter, ...], cyclics: list,
                 sig_gamma: Signature, c: Fraction,
                 cyclic_dims: tuple, gamma_dims: DimTable, table_sums: dict):
        self.gamma_spec, self.gamma1_spec = gamma_spec, gamma1_spec
        self.gamma, self.gamma1 = gamma, gamma1
        self.G, self.table, self.rationals = G, table, rationals
        self.cyclics, self.sig_gamma, self.c = cyclics, sig_gamma, c
        # the DimTable of each Gamma_C, aligned with cyclics, and Gamma's:
        # dims reads a signature alone, so the groups that share one share
        # its table
        self.cyclic_dims, self.gamma_dims = cyclic_dims, gamma_dims
        # each rational character -> its Artin coefficients summed per
        # table (_table_sums): characters with equal sums have equal series
        self.table_sums = table_sums

    @classmethod
    def build(cls, gamma_spec: SubgroupSpec, gamma1_spec: SubgroupSpec,
              table_source=None, level_cap: int = DEFAULT_LEVEL_CAP) -> "QuotientPair":
        level = lcm(gamma_spec.level, gamma1_spec.level)
        gamma = realize(gamma_spec, at_level=level, level_cap=level_cap)
        gamma1 = realize(gamma1_spec, at_level=level, level_cap=level_cap)
        G = quotient(gamma, gamma1)
        table = character_table_for(G, table_source)
        rats = rational_characters(table)
        cyclics = cyclic_subgroups_up_to_conjugacy(G)
        sig_gamma = subgroup_signature(gamma)
        branch = sig_gamma.branch.under(G.coset_index)
        sigs = [fibre_signature(G, branch, perm) for _, perm in cyclics]
        # the only signature comparisons: equal signatures share a table
        tables: dict = {}
        *cyclic_dims, gamma_dims = (
            tables.get(sig) or tables.setdefault(sig, DimTable(sig))
            for sig in [*sigs, sig_gamma])
        artin = artin_decompose([rat.values for rat in rats], G, cyclics)
        return cls(
            gamma_spec=gamma_spec, gamma1_spec=gamma1_spec,
            gamma=gamma, gamma1=gamma1, G=G, table=table, rationals=rats,
            cyclics=cyclics, sig_gamma=sig_gamma,
            c=area_constant_c(sig_gamma),
            cyclic_dims=tuple(cyclic_dims), gamma_dims=gamma_dims,
            table_sums={rat: _table_sums(q, cyclic_dims)
                        for rat, q in zip(rats, artin)},
        )

    def rational_by_name(self, name: str) -> RationalCharacter:
        for rat in self.rationals:
            if name in rat.names or name == rat.label:
                return rat
        raise KeyError(f"no character or orbit named {name!r}")

    def period(self) -> int:
        """The quasi-period of every series of the pair (see PERIOD)."""
        return PERIOD


def _table_sums(coeffs, cyclic_dims) -> tuple:
    """The q_C summed per DimTable, hashed by identity, as (table,
    numerator, denominator) with the zero sums dropped."""
    by_table: dict = {}
    for q, table in zip(coeffs, cyclic_dims):
        by_table[table] = by_table.get(table, 0) + q
    return tuple((t, q.numerator, q.denominator)
                 for t, q in by_table.items() if q)


def multiplicity_series(pair: QuotientPair, rat: RationalCharacter, kind: str,
                        weights, split: bool = False,
                        column_order=None) -> MultiplicitySeries:
    """Exact orbit-total multiplicities of rat in M_k or S_k over the weights.

    With split=True the per-character values (orbit total / orbit size) are
    included; a divisibility failure raises IndivisibleOrbitTotal.

    The dimensions are read once per table of rat's nonzero per-table
    sums (pair.table_sums), and nothing is kept between calls.
    """
    if kind not in ("M", "S"):
        raise ValueError(f"kind must be 'M' or 'S', got {kind!r}")
    ks = tuple(sorted(set(weights)))
    if 1 in ks:
        raise WeightOneUnsupported("weight 1 is not supported")
    sums = pair.table_sums[rat] if column_order is None else _table_sums(
        *artin_decompose([rat.values], pair.G, pair.cyclics,
                         column_order=column_order), pair.cyclic_dims)
    terms = [(Fraction(n, d), t.read(kind, ks)) for t, n, d in sums]
    entries = {}
    for i, k in enumerate(ks):
        total = Fraction(0)
        for q, dim in terms:
            total += q * dim[i]
        if total.denominator != 1 or total < 0:
            raise ArithmeticError(
                f"multiplicity of {rat.label} at k={k} is {total}")
        entries[k] = int(total)
    return _series(pair, rat, kind, entries, split)


def _series(pair, rat, kind, entries, split) -> MultiplicitySeries:
    """rat's series from its orbit totals, split among its members if asked."""
    per_member = None
    if split:
        per_member = {}
        for k, total in entries.items():
            if total % rat.orbit_size:
                raise IndivisibleOrbitTotal(
                    f"{rat.label} at k={k}: total {total} not divisible "
                    f"by orbit size {rat.orbit_size}")
            per_member[k] = total // rat.orbit_size
    return MultiplicitySeries(
        rep_label=rat.label, kind=kind, entries=entries,
        per_member=per_member, parity_class=parity_of(rat, pair.G),
        degree=rat.degree, orbit_size=rat.orbit_size,
    )


def pair_series(pair: QuotientPair, kind: str, weights,
                split: bool = False) -> list[MultiplicitySeries]:
    """Every rational character's series, aligned with pair.rationals:
    multiplicity_series runs once per distinct per-table sums, and each
    later character with those sums gets its own copy of the entries."""
    entries: dict = {}  # per-table sums -> the first character's entries
    out = []
    for rat in pair.rationals:
        sums = pair.table_sums[rat]
        out.append(multiplicity_series(pair, rat, kind, weights, split)
                   if sums not in entries
                   else _series(pair, rat, kind, dict(entries[sums]), split))
        entries.setdefault(sums, out[-1].entries)
    return out
