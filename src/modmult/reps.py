"""Multiplicities of irreducible characters of G = Gamma/Gamma1 in the
weight-k form spaces of Gamma1, computed exactly from fixed-subspace
dimensions over cyclic subgroups plus Artin-induction linear algebra.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .cosets import (BranchPoints, Signature, area_constant_c, branch_points,
                     coset_action, fibre_signature, subgroup_signature)
from .dimensions import WeightOneUnsupported, dims, quasi_period
from .exact import (CycloValue, InconsistentSystem, integer_rows,
                    reduce_cyclotomic, solve_linear_exact)
from .sl2 import (DEFAULT_LEVEL_CAP, FiniteSubgroup, QuotientGroup,
                  SubgroupSpec, cyclic_subgroups_up_to_conjugacy, quotient,
                  realize)


class NotAbelian(ValueError):
    pass


class SchemaError(ValueError):
    pass


class OrthogonalityFailure(ValueError):
    pass


class ClassMismatch(ValueError):
    pass


class NotRationalAfterSum(Exception):
    """A Galois-orbit sum failed to be rational; indicates a broken table."""


class IndivisibleOrbitTotal(Exception):
    """An orbit total did not divide by the orbit size under --split."""


class CharacterTableRequired(ValueError):
    """Nonabelian quotient without a built-in or user-supplied table."""


@dataclass(frozen=True)
class CharacterTable:
    """Exact character data of G, values indexed by G's conjugacy classes."""

    group: QuotientGroup
    names: tuple[str, ...]
    degrees: tuple[int, ...]
    values: tuple[tuple[CycloValue, ...], ...]
    provenance: str

    def validate(self):
        G = self.group
        ncls = len(G.classes)
        if any(len(row) != ncls for row in self.values):
            raise SchemaError("character value rows must match the class count")
        if sum(d * d for d in self.degrees) != G.order:
            raise SchemaError("sum of squared degrees must equal |G|")
        for deg, row in zip(self.degrees, self.values):
            at_id = row[G.class_of[G.identity]].rational_part()
            if at_id != deg:
                raise SchemaError("degree must equal the value at the identity")
        # Gram matrix in Z[x]/(x^m - 1): each row is scaled by its
        # denominator, and conj(zeta^b) = zeta^(m - b)
        m, rows, dens = integer_rows(self.values)
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
                      else Fraction(coords[0], dens[i] * dens[j]))
                if ip != (G.order if i == j else 0):
                    raise OrthogonalityFailure(
                        f"<{self.names[i]},{self.names[j]}> = {ip}/{G.order}")
        if G.iota is not None:
            for name, deg, row in zip(self.names, self.degrees, self.values):
                v = row[G.class_of[G.iota]]
                if not (v == deg or v == -deg):
                    raise SchemaError(
                        f"value of {name} at the -I coset is not a +-1 scalar")


def abelian_character_table(G: QuotientGroup) -> CharacterTable:
    """All |G| degree-1 characters of an abelian G, built by extending
    characters one generator at a time; values are exact roots of unity."""
    if not G.is_abelian:
        raise NotAbelian("quotient group is not abelian")
    e = G.exponent
    chars: list[dict[int, int]] = [{G.identity: 0}]  # element -> exponent of zeta_e
    subgroup = {G.identity}
    for g in range(G.order):
        if g in subgroup:
            continue
        # m = least positive power of g landing in the current subgroup
        m, p = 1, g
        while p not in subgroup:
            p = G.mul[p][g]
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
                        x = G.mul[x][g]
                        ext[x] = (th + s * j) % e
                new_chars.append(ext)
        chars = new_chars
        x = g
        base = list(subgroup)
        for _ in range(1, m):
            for h in base:
                subgroup.add(G.mul[h][x])
            x = G.mul[x][g]

    assert len(chars) == G.order
    class_reps = [cls[0] for cls in G.classes]
    rows = sorted(tuple(chi[r] for r in class_reps) for chi in chars)
    names = []
    values = []
    for i, row in enumerate(rows):
        names.append("triv" if not any(row) else f"chi{i}")
        values.append(tuple(CycloValue(e, {exp: 1}) for exp in row))
    table = CharacterTable(group=G, names=tuple(names),
                           degrees=(1,) * G.order, values=tuple(values),
                           provenance="BuiltinAbelian")
    table.validate()
    return table


def builtin_s3_table(G: QuotientGroup) -> CharacterTable:
    """The classical S3 table, matched to G's classes by element order."""
    if G.order != 6 or G.is_abelian:
        raise ClassMismatch("built-in S3 table needs a nonabelian group of order 6")
    by_order = {}
    for ci, cls in enumerate(G.classes):
        by_order[G.element_order(cls[0])] = ci
    if sorted(by_order) != [1, 2, 3]:
        raise ClassMismatch("classes do not look like S3")
    data = {
        "triv": (1, {1: 1, 2: 1, 3: 1}),
        "sign": (1, {1: 1, 2: -1, 3: 1}),
        "std": (2, {1: 2, 2: 0, 3: -1}),
    }
    names, degrees, values = [], [], []
    for name, (deg, vals) in data.items():
        row = [None] * len(G.classes)
        for order, v in vals.items():
            row[by_order[order]] = CycloValue.from_rational(v)
        names.append(name)
        degrees.append(deg)
        values.append(tuple(row))
    table = CharacterTable(group=G, names=tuple(names), degrees=tuple(degrees),
                           values=tuple(values), provenance="BuiltinS3")
    table.validate()
    return table


def load_character_table(source, G: QuotientGroup) -> CharacterTable:
    """Load and validate a character table from a JSON file or dict.

    Schema: {"classes": [{"rep": [a,b,c,d], "size": s}, ...],
             "characters": [{"name": ..., "degree": d,
                             "values": [{"order": n, "coeffs": {"j": "p/q"}}]}]}
    Values are listed in the file's class order and re-indexed onto G.
    """
    if isinstance(source, (str, bytes)):
        with open(source) as fh:
            doc = json.load(fh)
    else:
        doc = source
    try:
        cls_docs = doc["classes"]
        char_docs = doc["characters"]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"missing top-level key: {exc}") from exc
    if len(cls_docs) != len(G.classes):
        raise ClassMismatch(
            f"file has {len(cls_docs)} classes, group has {len(G.classes)}")
    perm = []  # file class position -> G class index
    seen = set()
    for cd in cls_docs:
        try:
            rep = tuple(int(x) for x in cd["rep"])
            size = int(cd["size"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad class entry: {cd!r}") from exc
        ci = G.class_of[G.coset_index(rep)]
        if ci in seen:
            raise ClassMismatch(f"two file classes map to the same class of G")
        seen.add(ci)
        if size != len(G.classes[ci]):
            raise ClassMismatch(f"class size {size} != {len(G.classes[ci])}")
        perm.append(ci)

    names, degrees, values = [], [], []
    for ch in char_docs:
        try:
            name = str(ch["name"])
            degree = int(ch["degree"])
            vals = ch["values"]
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad character entry: {exc}") from exc
        if len(vals) != len(cls_docs):
            raise SchemaError(f"character {name} has {len(vals)} values")
        row = [None] * len(G.classes)
        for pos, vd in enumerate(vals):
            try:
                order = int(vd["order"])
                coeffs = {int(j): Fraction(s) for j, s in vd["coeffs"].items()}
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError(f"bad value entry in {name}: {exc}") from exc
            row[perm[pos]] = CycloValue(order, coeffs)
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


@dataclass(frozen=True)
class RationalCharacter:
    """A Galois orbit of characters; the orbit-summed values are rational."""

    names: tuple[str, ...]
    indices: tuple[int, ...]
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

    The twist of chi by zeta -> zeta^a (a a unit mod exp G) is g -> chi(g^a),
    so each row's twists are found through the class power maps, with rows
    keyed by the power-basis coordinates of their values in Q(zeta_m).
    """
    G = table.group
    e = G.exponent
    # keys are integer coordinates in Q(zeta_m), scaled by one denominator
    m, rows, dens = integer_rows(table.values)
    den = lcm(*dens)
    keys = []
    for row, row_den in zip(rows, dens):
        scale = den // row_den
        key = []
        for value in row:
            vec = [0] * m
            for j, a in value:
                vec[j] = a * scale
            key.append(reduce_cyclotomic(m, vec))
        keys.append(tuple(key))
    index = {key: i for i, key in enumerate(keys)}
    power_maps = [[G.class_of[G.power(cls[0], a)] for cls in G.classes]
                  for a in range(1, e + 1) if gcd(a, e) == 1]

    out = []
    seen: set[int] = set()
    for i, key in enumerate(keys):
        if i in seen:
            continue
        twists = [index.get(tuple(key[c] for c in pmap)) for pmap in power_maps]
        if None in twists:
            raise NotRationalAfterSum(
                f"Galois twist of {table.names[i]} is not in the table")
        members = sorted(set(twists))
        seen.update(members)
        vals = []
        for coords in zip(*(keys[j] for j in members)):
            total = [sum(cs) for cs in zip(*coords)]
            if any(total[1:]):
                raise NotRationalAfterSum("orbit sum is not rational")
            vals.append(Fraction(total[0], den))
        out.append(RationalCharacter(
            names=tuple(table.names[i] for i in members),
            indices=tuple(members),
            values=tuple(vals),
            degree=table.degrees[members[0]],
        ))
    return tuple(out)


def permutation_character(G: QuotientGroup, C: frozenset) -> tuple[int, ...]:
    """Values per conjugacy class of the character induced from the trivial
    character of the cyclic subgroup C, via the action on left cosets."""
    cs = sorted(C)
    cosets = []
    covered = set()
    for x in range(G.order):
        if x in covered:
            continue
        coset = frozenset(G.mul[x][c] for c in cs)
        covered |= coset
        cosets.append((x, coset))
    vals = []
    for cls in G.classes:
        g = cls[0]
        vals.append(sum(1 for x, coset in cosets if G.mul[g][x] in coset))
    return tuple(vals)


def artin_decompose(target_values, G: QuotientGroup, cyclics=None,
                    column_order=None) -> tuple[Fraction, ...]:
    """Exact coefficients expressing a rational class function as a
    combination of permutation characters of cyclic subgroups.

    A rational class function is fixed by its values at one generator of
    each cyclic subgroup (Serre, Linear Representations, 13.1), and at
    those classes the marks matrix is upper triangular with a positive
    diagonal, so the system is square and nonsingular.  The solution is
    then checked at every class; a function that is not constant on the
    Galois class orbits raises InconsistentSystem.
    """
    if cyclics is None:
        cyclics = cyclic_subgroups_up_to_conjugacy(G)
    perms = [permutation_character(G, sub) for _, sub in cyclics]
    rows = [G.class_of[gen] for gen, _ in cyclics]
    A = [[perm[cl] for perm in perms] for cl in rows]
    x = solve_linear_exact(A, [target_values[cl] for cl in rows],
                           column_order=column_order)
    for cl, want in enumerate(target_values):
        if sum(q * perm[cl] for q, perm in zip(x, perms)) != want:
            raise InconsistentSystem(
                f"no Artin decomposition: mismatch at class {cl}")
    return tuple(x)


def parity_of(rat: RationalCharacter, G: QuotientGroup) -> str:
    """'even', 'odd', or 'unconstrained' from the Schur scalar at -I."""
    if G.iota is None:
        return "unconstrained"
    if G.iota_trivial:
        return "even"
    sign = rat.values[G.class_of[G.iota]] / rat.aggregate_degree
    if sign == 1:
        return "even"
    if sign == -1:
        return "odd"
    raise ValueError("orbit members do not share a parity")


@dataclass(frozen=True)
class MultiplicitySeries:
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


# weights per block of the dimension table
_BLOCK = 64


@dataclass
class QuotientPair:
    """The pair (Gamma, Gamma1) with everything the engine derives from it."""

    gamma_spec: SubgroupSpec
    gamma1_spec: SubgroupSpec
    level: int
    gamma: FiniteSubgroup
    gamma1: FiniteSubgroup
    G: QuotientGroup
    table: CharacterTable
    rationals: tuple[RationalCharacter, ...]
    cyclics: list
    sig_gamma: Signature
    sig_gamma1: Signature
    c: Fraction
    # every Gamma_C signature is read from Gamma's branch points
    _branch: BranchPoints = field(repr=False)
    _sig_cache: dict = field(default_factory=dict, repr=False)
    _artin_cache: dict = field(default_factory=dict, repr=False)
    # the dimension table: C -> {k // _BLOCK: [dim M_k, dim S_k, ...]}
    # for Gamma_C, None where dims has not run; blocks keep a negative
    # weight from wrapping round to another's slot, and a distant weight
    # costs one block, not a list reaching out to it
    _dims: dict = field(default_factory=dict, repr=False)

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
        # the coset action that gave sig_gamma, kept by coset_action
        branch = branch_points(coset_action(gamma), gamma, G.coset_index)
        sig_gamma1 = fibre_signature(G, branch, frozenset({G.identity}))
        return cls(
            gamma_spec=gamma_spec, gamma1_spec=gamma1_spec, level=level,
            gamma=gamma, gamma1=gamma1, G=G, table=table, rationals=rats,
            cyclics=cyclics, sig_gamma=sig_gamma, sig_gamma1=sig_gamma1,
            c=area_constant_c(sig_gamma), _branch=branch,
            _sig_cache={frozenset({G.identity}): sig_gamma1,
                        frozenset(range(G.order)): sig_gamma},
        )

    def subgroup_sig(self, C: frozenset) -> Signature:
        sig = self._sig_cache.get(C)
        if sig is None:
            sig = fibre_signature(self.G, self._branch, C)
            self._sig_cache[C] = sig
        return sig

    def dims_of(self, C: frozenset, kind: str, weights) -> list[int]:
        """dim M_k (kind "M") or dim S_k (kind "S") of Gamma_C at each of
        the weights, in order, as plain ints.  Gamma1 is C = {1} and Gamma
        is C = G; every caller on the pair shares one table, so dims runs at
        most once per group and weight."""
        if kind not in ("M", "S"):
            raise ValueError(f"unknown kind {kind!r}")
        j = 0 if kind == "M" else 1
        sig = self.subgroup_sig(C)
        blocks = self._dims.setdefault(C, {})
        out = []
        for k in weights:
            b, i = divmod(k, _BLOCK)
            block = blocks.get(b)
            if block is None:
                block = blocks[b] = [None] * (2 * _BLOCK)
            i *= 2
            if block[i] is None:
                d = dims(sig, k)
                block[i], block[i + 1] = d.dim_M, d.dim_S
            out.append(block[i + j])
        return out

    def artin_coefficients(self, rat: RationalCharacter,
                           column_order=None) -> tuple[Fraction, ...]:
        """rat's Artin coefficients over the cyclic classes, solved once
        per character and column order."""
        key = (rat.values, None if column_order is None else tuple(column_order))
        coeffs = self._artin_cache.get(key)
        if coeffs is None:
            coeffs = artin_decompose(rat.values, self.G, self.cyclics,
                                     column_order=column_order)
            self._artin_cache[key] = coeffs
        return coeffs

    def rational_by_name(self, name: str) -> RationalCharacter:
        for rat in self.rationals:
            if name in rat.names or name == rat.label:
                return rat
        raise KeyError(f"no character or orbit named {name!r}")

    def period(self) -> int:
        ps = [quasi_period(self.sig_gamma), quasi_period(self.sig_gamma1)]
        ps += [quasi_period(self.subgroup_sig(sub)) for _, sub in self.cyclics]
        return lcm(*ps)


def multiplicity_series(pair: QuotientPair, rat: RationalCharacter, kind: str,
                        weights, split: bool = False,
                        column_order=None) -> MultiplicitySeries:
    """Exact orbit-total multiplicities of rat in M_k or S_k over the weights.

    With split=True the per-character values (orbit total / orbit size) are
    included; a divisibility failure raises IndivisibleOrbitTotal.
    """
    if kind not in ("M", "S"):
        raise ValueError(f"kind must be 'M' or 'S', got {kind!r}")
    ks = sorted(set(weights))
    if 1 in ks:
        raise WeightOneUnsupported("weight 1 is not supported")
    coeffs = pair.artin_coefficients(rat, column_order)
    terms = [(q, pair.dims_of(sub, kind, ks))
             for q, (_, sub) in zip(coeffs, pair.cyclics) if q]
    entries = {}
    for i, k in enumerate(ks):
        total = Fraction(0)
        for q, dim in terms:
            total += q * dim[i]
        if total.denominator != 1 or total < 0:
            raise ArithmeticError(
                f"multiplicity of {rat.label} at k={k} is {total}")
        entries[k] = int(total)
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
        per_member=per_member, parity_class=parity_class_of(rat, pair.G),
        degree=rat.degree, orbit_size=rat.orbit_size,
    )


def parity_class_of(rat: RationalCharacter, G: QuotientGroup) -> str:
    """Which weights can carry this character: 'even', 'odd', or 'all'."""
    p = parity_of(rat, G)
    return "all" if p == "unconstrained" else p
