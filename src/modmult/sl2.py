"""Finite matrix groups mod N: every subgroup realized from its residue
classes, and quotient groups Gamma/Gamma1 with their conjugacy classes,
cyclic subgroups and power maps.
"""
from __future__ import annotations

from functools import cached_property
from math import gcd, lcm

from . import ModmultError
from .exact import _prime_factors

Mat = tuple[int, int, int, int]

DEFAULT_LEVEL_CAP = 30


class LevelTooLarge(ModmultError, ValueError):
    pass


class NotAGroup(ModmultError, ValueError):
    pass


class NotASubgroup(ModmultError, ValueError):
    pass


class NotNormal(ModmultError, ValueError):
    pass


class WrongIndex(ModmultError, ValueError):
    pass


def mat_mul(x: Mat, y: Mat, n: int) -> Mat:
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % n, (a * f + b * h) % n,
            (c * e + d * g) % n, (c * f + d * h) % n)


def mat_inv(x: Mat, n: int) -> Mat:
    a, b, c, d = x
    return (d % n, (-b) % n, (-c) % n, a % n)


def identity_mat(n: int) -> Mat:
    return (1 % n, 0, 0, 1 % n)


def minus_identity(n: int) -> Mat:
    return ((-1) % n, 0, 0, (-1) % n)


S_MAT: Mat = (0, -1, 1, 0)
T_MAT: Mat = (1, 1, 0, 1)


def reduce_mat(x, n: int) -> Mat:
    a, b, c, d = x
    m = (a % n, b % n, c % n, d % n)
    if (m[0] * m[3] - m[1] * m[2]) % n != 1 % n:
        raise NotAGroup(f"matrix {x} has determinant != 1 mod {n}")
    return m


def sl2_group_order(n: int) -> int:
    """|SL2(Z/n)| = n^3 prod_{p | n} (1 - 1/p^2)."""
    order = n ** 3
    for p in _prime_factors(n):
        order = order // (p * p) * (p * p - 1)
    return order


class FiniteSubgroup:
    """A subgroup of SL2(Z/M), M = level, held as residues, the sorted
    list of its matrices mod n = own_level (n | M): it is every matrix mod
    M whose residue mod n is listed, so it holds every matrix = I mod n,
    and coset_keys keys its cosets mod n.  For every group realize returns
    n is the spec's level.  Residues that do not list I are refused; their
    closure under products is not checked.  A group is equal only to
    itself.
    """

    def __init__(self, level: int, residues: tuple[Mat, ...], own_level: int):
        if (own_level < 1 or level % own_level
                or set().union(*residues) - set(range(own_level))):
            raise ValueError(f"need residues in [0, n), n | level {level}: "
                             f"own_level {own_level}")
        self.level, self.residues, self.own_level = level, residues, own_level
        self.residue_set = frozenset(residues)
        if identity_mat(own_level) not in self.residue_set:
            raise ValueError(f"residues mod {own_level} do not list I")
        self.contains_minus_I = minus_identity(own_level) in self.residue_set

    @cached_property
    def elements(self) -> tuple[Mat, ...]:
        """The sorted elements mod the level: each residue's classes."""
        m, n = self.level, self.own_level
        return self.residues if m == n else tuple(sorted(
            x for a, b, c, d in self.residues
            for x in _congruence_elements(m, n, a, b, c) if x[3] % n == d))

    @property
    def order(self) -> int:
        return (len(self.residues) * sl2_group_order(self.level)
                // sl2_group_order(self.own_level))


def _congruence_elements(m: int, n: int, a0: int | None, b0: int | None,
                         c0: int | None) -> tuple[Mat, ...]:
    """The elements of SL2(Z/M) whose a, b, c entries are congruent mod N
    (N | M) to a0, b0, c0 (None: any residue), in increasing order.

    a, b and c run over their allowed residues and d over the solutions of
    ad = 1 + bc mod M.  The conditions of Gamma1(N) and Gamma(N) on d follow
    from the determinant: c = 0 and a = 1 mod N force d = 1 mod N.
    """
    def allowed(r):
        return range(m) if r is None else range(r % n, m, n)

    out = []
    for a in allowed(a0):
        g = gcd(a, m)
        step = m // g
        inv = pow(a // g, -1, step)
        for b in allowed(b0):
            for c in allowed(c0):
                t = (1 + b * c) % m
                if t % g:
                    continue
                d0 = (t // g) * inv % step
                out.extend((a, b, c, d0 + j * step) for j in range(g))
    return tuple(out)


class SubgroupSpec:
    """Specification of a finite-index subgroup of SL2(Z) by congruence data.

    kind is one of "full" (all of SL2(Z)), "gamma0", "gamma1", "gamma"
    (principal), or "custom" (generated closure of explicit matrices).
    Two specs are equal when their kind, level and generators are.
    """

    def __init__(self, kind: str, level: int = 1,
                 generators: tuple[Mat, ...] = ()):
        if kind not in ("full", "gamma0", "gamma1", "gamma", "custom"):
            raise ValueError(f"unknown subgroup kind {kind!r}")
        if level < 1:
            raise ValueError("level must be positive")
        self.kind, self.level, self.generators = kind, level, generators

    def __eq__(self, other):
        if other.__class__ is not SubgroupSpec:
            return NotImplemented
        return ((self.kind, self.level, self.generators)
                == (other.kind, other.level, other.generators))

    def __hash__(self):
        return hash((self.kind, self.level, self.generators))

    def label(self) -> str:
        if self.kind == "full":
            return "SL2Z"
        if self.kind == "custom":
            return f"custom:{self.level}"
        return f"{self.kind}:{self.level}"


# the residues of (a, b, c) mod N that define each congruence family;
# SL2Z is the family with no condition, at N = 1
CONGRUENCE_RESIDUES = {
    "full": (None, None, None),
    "gamma0": (None, None, 0),
    "gamma1": (1, None, 0),
    "gamma": (1, 0, 0),
}


def realize(spec: SubgroupSpec, at_level: int | None = None,
            level_cap: int = DEFAULT_LEVEL_CAP) -> FiniteSubgroup:
    """The mod-M image of the subgroup, M a multiple of the spec level N,
    held as its residues mod N."""
    m = at_level if at_level is not None else spec.level
    if m % spec.level:
        raise ValueError("realization level must be a multiple of the spec level")
    if m < 1:
        raise ValueError("level must be positive")
    if m > level_cap:
        raise LevelTooLarge(f"level {m} exceeds cap {level_cap}")
    n = spec.level
    if spec.kind in CONGRUENCE_RESIDUES:
        return FiniteSubgroup(m, _congruence_elements(
            n, n, *CONGRUENCE_RESIDUES[spec.kind]), own_level=n)
    # custom: the generated closure mod N
    gens = [reduce_mat(g, n) for g in spec.generators]
    closure = {identity_mat(n)}
    frontier = list(closure)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = mat_mul(x, g, n)
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    return FiniteSubgroup(m, tuple(sorted(closure)), own_level=n)


class QuotientGroup:
    """The finite quotient G = Gamma/Gamma1 on canonical coset representatives."""

    def __init__(self, level: int, elements: tuple[Mat, ...], identity: int,
                 classes: tuple[tuple[int, ...], ...],
                 class_of: tuple[int, ...],
                 power_map: tuple[tuple[int, ...], ...], iota: int | None,
                 generators: tuple[int, ...], coset_of):
        self.level, self.elements, self.identity = level, elements, identity
        self.classes, self.class_of, self.iota = classes, class_of, iota
        # power_map[K] = the classes of r^0, r, ..., r^(ord r - 1),
        # r = classes[K][0]
        self.power_map = power_map
        # each element outside the subgroup the earlier ones generate
        self.generators = generators
        # an element of Gamma -> the index of its coset (right_cosets)
        self.coset_of = coset_of

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def iota_trivial(self) -> bool:
        """Whether -I lies in Gamma1: iff its coset is the identity's."""
        return self.iota == self.identity

    @property
    def mu_proj(self) -> int:
        if self.iota is None or self.iota_trivial:
            return self.order
        return self.order // 2

    def mul(self, x: int, y: int) -> int:
        """The index of the product of elements x and y."""
        return self.coset_of(mat_mul(self.elements[x], self.elements[y],
                                     self.level))

    @cached_property
    def exponent(self) -> int:
        return lcm(*map(len, self.power_map))

    @property
    def is_abelian(self) -> bool:
        # every class is then a singleton
        return len(self.classes) == self.order

    def coset_index(self, mat) -> int:
        m = reduce_mat(mat, self.level)
        try:
            return self.coset_of(m)
        except KeyError:
            raise NotASubgroup(f"matrix {mat} is not in the ambient group") from None


def coset_keys(acting, n: int):
    """(acting, key) that number the right cosets H*x of a group H holding
    every matrix = I mod n, from acting = H mod n: H*x is keyed by the
    entries key picks from h*x mod n for h in the returned acting.  If T
    is in H mod n, so is every upper unipotent matrix, and two matrices
    with one bottom row differ by one on the left: the key is the bottom
    row, with one acting element per bottom row, phi(N) for +-Gamma0(N)
    and 2 for +-Gamma1(N) (Cremona, Algorithms for Modular Elliptic
    Curves, ch. 2).  Otherwise it is the whole matrix."""
    if reduce_mat(T_MAT, n) in acting:
        return list({h[2:]: h for h in acting}.values()), slice(2, 4)
    return acting, slice(0, 4)


def right_cosets(gamma: FiniteSubgroup, gamma1: FiniteSubgroup):
    """The right cosets gamma1*g of gamma1 in gamma as (reps, coset_of):
    reps the least element of each coset, in increasing order, and
    coset_of each element of gamma -> the index of its coset, a KeyError
    outside gamma.

    Each g is keyed mod n = gamma1.own_level by coset_keys; a new key opens
    a coset, and a matrix with a key of gamma lies in gamma1*gamma = gamma.
    Raises NotASubgroup unless gamma1 lies in gamma, NotNormal unless x*s
    lies in each new coset gamma1*x for the acting elements s and, with
    bottom-row keys, T, which generate gamma1 mod n, and WrongIndex unless
    the cosets number |gamma|/|gamma1|, orders counted from the residues,
    whatever the key rule."""
    if gamma.level != gamma1.level:
        raise NotASubgroup("subgroups live at different levels")
    n = gamma.own_level
    if not gamma.residue_set.issuperset(
            (a % n, b % n, c % n, d % n) for a, b, c, d in gamma1.elements):
        raise NotASubgroup("gamma1 is not contained in gamma")
    n = gamma1.own_level
    acting, key = coset_keys(gamma1.residue_set, n)
    checks = acting + [reduce_mat(T_MAT, n)] if key == slice(2, 4) else acting
    reps, index = [], {}
    for g in gamma.elements:
        x = (g[0] % n, g[1] % n, g[2] % n, g[3] % n)
        if x[key] not in index:
            i = len(reps)
            reps.append(g)
            for h in acting:
                index[mat_mul(h, x, n)[key]] = i
            if any(index.get(mat_mul(x, s, n)[key]) != i for s in checks):
                raise NotNormal("gamma1 is not normal in gamma")
    if len(reps) * gamma1.order != gamma.order:
        raise WrongIndex(f"the cosets of gamma1 in gamma number {len(reps)}"
                         f", not its index {gamma.order // gamma1.order}")
    return reps, lambda g: index[
        (g[0] % n, g[1] % n, g[2] % n, g[3] % n)[key]]


def generators(reps, coset_of, n: int):
    """The greedy generators of Gamma/Gamma1, from right_cosets' (reps,
    coset_of) at level n: each the first coset outside the subgroup the
    earlier ones generate."""
    sub, gens = {coset_of(identity_mat(n))}, []
    for i, x in enumerate(reps):
        if i not in sub:
            yield i
            gens.append(x)
            new = {coset_of(mat_mul(reps[y], x, n)) for y in sub} - sub
            while new:
                sub |= new
                new = {coset_of(mat_mul(reps[y], s, n))
                       for y in new for s in gens} - sub


def quotient(gamma: FiniteSubgroup, gamma1: FiniteSubgroup) -> QuotientGroup:
    """Build Gamma/Gamma1 with conjugacy classes and the coset of -I located.

    Each class is an orbit under conjugation by the greedy generators, and
    its least element r takes one row of products, r^0, r, r^2, ..."""
    reps, coset_of = right_cosets(gamma, gamma1)
    n = gamma.level
    identity = coset_of(identity_mat(n))
    gens = tuple(generators(reps, coset_of, n))
    conj = [(mat_inv(reps[s], n), reps[s]) for s in gens]

    seen, raw = [False] * len(reps), []
    for i in range(len(reps)):
        if seen[i]:
            continue
        seen[i], orbit = True, [i]
        for y in orbit:
            for a, b in conj:
                z = coset_of(mat_mul(mat_mul(a, reps[y], n), b, n))
                if not seen[z]:
                    seen[z] = True
                    orbit.append(z)
        row, x = [identity], i
        while x != identity:
            row.append(x)
            x = coset_of(mat_mul(reps[x], reps[i], n))
        raw.append((sorted(orbit), row))

    raw.sort(key=lambda c: (len(c[0]), len(c[1]), [reps[i] for i in c[0]]))
    class_of = [0] * len(reps)
    for k, (cls, _) in enumerate(raw):
        for i in cls:
            class_of[i] = k

    return QuotientGroup(
        level=n, elements=tuple(reps), identity=identity,
        classes=tuple(tuple(cls) for cls, _ in raw),
        class_of=tuple(class_of),
        power_map=tuple(tuple(class_of[x] for x in row) for _, row in raw),
        iota=(coset_of(minus_identity(n)) if gamma.contains_minus_I
              else None),
        generators=gens, coset_of=coset_of,
    )


def permutation_character(G: QuotientGroup, c: int) -> tuple[int, ...]:
    """Values per conjugacy class of the character induced from the trivial
    character of C = <c>: |G| |K n C| / (|K| |C|) at a class K (Serre,
    Linear Representations, 7.2), |K n C| counted on the power map of c's
    class."""
    row = G.power_map[G.class_of[c]]
    meet = [0] * len(G.classes)
    for k in row:
        meet[k] += 1
    return tuple(G.order * m // (len(cls) * len(row))
                 for m, cls in zip(meet, G.classes))


def cyclic_subgroups_up_to_conjugacy(G: QuotientGroup):
    """All cyclic subgroups of G, one per conjugacy class of subgroups.

    Returns a deterministically ordered list of (generator index,
    permutation character), by order and then by the first class whose
    least element generates one: the trivial subgroup first.  <c> and <d>
    are conjugate iff the same classes meet them: c is then conjugate into
    <d> and d into <c>, so the two have one size.
    """
    first: dict[frozenset, int] = {}
    for k in sorted(range(len(G.classes)), key=lambda k: len(G.power_map[k])):
        first.setdefault(frozenset(G.power_map[k]), G.classes[k][0])
    return [(c, permutation_character(G, c)) for c in first.values()]
