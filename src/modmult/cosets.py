"""Fuchsian signatures of preimages in SL2(Z) of subgroups K of SL2(Z/N),
computed from the permutation action of S and T on cosets, or for Gamma(n)
and +-Gamma(n) from the classes +-(a, c) mod n, including regular/irregular
cusp classification and the area constant c.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import NamedTuple

from . import ModmultError
from .sl2 import (FiniteSubgroup, Mat, NotAGroup, QuotientGroup, S_MAT,
                  T_MAT, coset_keys, identity_mat, mat_inv, mat_mul,
                  minus_identity, reduce_mat, sl2_group_order)


class NonIntegralGenus(ModmultError):
    """The Euler formula gives a genus that is not a non-negative integer:
    no subgroup of SL2(Z) has these branch data."""


class PermutationAction(NamedTuple):
    """Right-multiplication action of S and T on projective cosets of K in
    SL2(Z/N), with a representative of each coset."""

    sigma_S: tuple[int, ...]
    sigma_T: tuple[int, ...]
    reps: tuple[Mat, ...]


class CuspDatum(NamedTuple):
    """A cusp's width and regularity: a plain tuple, so a signature's
    cusps hash and compare in C."""

    width: int
    regular: bool


class Signature:
    """Branch data of a finite-index subgroup of SL2(Z): its numbers of
    elliptic points of order 2 and 3, its cusps and whether it holds -I.
    The rest follows (Shimura, Prop. 1.40): mu_proj, the index in PSL2(Z),
    is the sum of the cusp widths, mu_sl is mu_proj with -I and 2 mu_proj
    without, and the genus is 1 + mu_proj/12 - nu2/4 - nu3/3 - t/2.
    A signature from subgroup_signature keeps the group's branch points;
    its equality, hash and repr read the other four fields alone."""

    def __init__(self, nu2: int, nu3: int, cusps: tuple[CuspDatum, ...],
                 minus_I: bool, branch: BranchPoints | None = None):
        if not cusps:
            raise ValueError("every finite-index subgroup of SL2(Z) has a cusp")
        if minus_I and any(not c.regular for c in cusps):
            raise ValueError("irregular cusps require -I absent")
        self.nu2, self.nu3, self.cusps, self.minus_I = nu2, nu3, cusps, minus_I
        self.branch = branch
        self.genus  # refuses branch data with no genus

    def __eq__(self, other):
        if other.__class__ is not Signature:
            return NotImplemented
        return ((self.nu2, self.nu3, self.cusps, self.minus_I)
                == (other.nu2, other.nu3, other.cusps, other.minus_I))

    def __hash__(self):
        return hash((self.nu2, self.nu3, self.cusps, self.minus_I))

    def __repr__(self):
        return (f"Signature(nu2={self.nu2!r}, nu3={self.nu3!r}, "
                f"cusps={self.cusps!r}, minus_I={self.minus_I!r})")

    @property
    def t(self) -> int:
        return len(self.cusps)

    @property
    def mu_proj(self) -> int:
        return sum(c.width for c in self.cusps)

    @property
    def mu_sl(self) -> int:
        return self.mu_proj if self.minus_I else 2 * self.mu_proj

    @cached_property
    def genus(self) -> int:
        mu, t = self.mu_proj, self.t
        g = (1 + Fraction(mu, 12) - Fraction(self.nu2, 4)
             - Fraction(self.nu3, 3) - Fraction(t, 2))
        if g.denominator != 1 or g < 0:
            raise NonIntegralGenus(
                f"genus {g} from mu={mu}, nu2={self.nu2}, nu3={self.nu3}, t={t}")
        return int(g)

    @cached_property
    def eps_reg(self) -> int:
        return sum(1 for c in self.cusps if c.regular)

    @cached_property
    def eps_irr(self) -> int:
        return sum(1 for c in self.cusps if not c.regular)


def _coset_table(size: int, acting, key: slice, n: int, m: int):
    """The size right cosets in SL2(Z/m) of a group +-K that contains every
    matrix = I mod n (n | m), explored from the identity by right
    multiplication by S, then T.  x S = (b, -a, d, -c) and
    x T = (a, a + b, c, c + d) for x = (a, b, c, d) are written out mod m.

    A matrix is keyed by the entries key picks from it mod n.  A new coset
    met at x writes the keys of h x for h in acting, elements of +-K mod n
    that must reach every key of the coset.  Returns a representative mod m
    of each coset and the permutations of the cosets by S and by T.
    Raises NotAGroup if the walk opens more or fewer than size cosets.
    """
    reps = [identity_mat(m)]
    lookup = {h[key]: 0 for h in acting}
    sigma_S, sigma_T = [0] * size, [0] * size
    queue = [0]
    try:
        while queue:
            i = queue.pop()
            a, b, c, d = reps[i]
            for img, perm in (((b, -a % m, d, -c % m), sigma_S),
                              ((a, (a + b) % m, c, (c + d) % m), sigma_T)):
                k = (img[0] % n, img[1] % n, img[2] % n, img[3] % n)[key]
                j = lookup.get(k)
                if j is None:
                    j = len(reps)
                    reps.append(img)
                    for h in acting:
                        lookup[mat_mul(h, img, n)[key]] = j
                    queue.append(j)
                perm[i] = j
    except IndexError:  # perm[i] for a coset i past size
        pass
    if len(reps) != size:
        raise NotAGroup(f"the residues are not a group: their coset walk "
                        f"opened {len(reps)} cosets, not {size}")
    return tuple(reps), (tuple(sigma_S), tuple(sigma_T))


def coset_action(K: FiniteSubgroup) -> PermutationAction:
    """Permutations of S and T on projective cosets of K, keyed mod n =
    K.own_level by coset_keys on +-K mod n."""
    n, m = K.own_level, K.level
    size = sl2_group_order(m) // K.order // (1 if K.contains_minus_I else 2)
    acting = K.residue_set
    if not K.contains_minus_I:
        acting |= {tuple(-v % n for v in h) for h in acting}
    reps, (sigma_S, sigma_T) = _coset_table(size, *coset_keys(acting, n), n, m)
    return PermutationAction(sigma_S=sigma_S, sigma_T=sigma_T, reps=reps)


def _cycles(perm):
    seen = [False] * len(perm)
    out = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        cyc = []
        x = i
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = perm[x]
        out.append(cyc)
    return out


class BranchPoints(NamedTuple):
    """The elliptic points and cusps of a group, each with the generator of
    its stabiliser, as a matrix or as its image in a quotient."""

    elliptic2: tuple                # generator at each point of order 2
    elliptic3: tuple                # generator at each point of order 3
    cusps: tuple                    # (width, eps, generator) of each cusp

    def under(self, image) -> BranchPoints:
        """The same points, each generator passed through image."""
        return BranchPoints(tuple(map(image, self.elliptic2)),
                            tuple(map(image, self.elliptic3)),
                            tuple((w, e, image(y)) for w, e, y in self.cusps))


def branch_points(act: PermutationAction, K: FiniteSubgroup) -> BranchPoints:
    """K's branch points, read from its coset action act.

    A coset +-K r fixed by S or ST, or a T-cycle of width w from it, has the
    stabiliser generator eps r x r^-1 with x = S, ST or T^w, and eps = 1 iff
    r x r^-1 itself lies in K.
    """
    n, own = K.level, K.own_level

    def stabiliser(r, x):
        y = mat_mul(mat_mul(r, x, n), mat_inv(r, n), n)
        if (y[0] % own, y[1] % own, y[2] % own, y[3] % own) in K.residue_set:
            return 1, y
        return -1, tuple(-v % n for v in y)

    s = reduce_mat(S_MAT, n)
    st = mat_mul(s, reduce_mat(T_MAT, n), n)
    return BranchPoints(
        elliptic2=tuple(stabiliser(act.reps[i], s)[1]
                        for i, j in enumerate(act.sigma_S) if i == j),
        elliptic3=tuple(stabiliser(act.reps[i], st)[1]
                        for i, j in enumerate(act.sigma_S)
                        if act.sigma_T[j] == i),
        cusps=tuple((len(cyc), *stabiliser(act.reps[cyc[0]],
                                           (1, len(cyc), 0, 1)))
                    for cyc in _cycles(act.sigma_T)),
    )


def signature_from_action(act: PermutationAction, K: FiniteSubgroup) -> Signature:
    """Signature of the preimage in SL2(Z) of K, with its branch points."""
    branch = branch_points(act, K)
    # the cusp r(oo) of width w is regular iff r T^w r^-1 is in K, not -K;
    # every cusp is when -I is in K
    cusps = [CuspDatum(width=width, regular=eps == 1)
             for width, eps, _ in branch.cusps]
    return _signature(len(branch.elliptic2), len(branch.elliptic3), cusps,
                      K.contains_minus_I, branch)


def _signature(nu2: int, nu3: int, cusps: list[CuspDatum], minus_i: bool,
               branch: BranchPoints | None = None) -> Signature:
    """The signature with these branch data."""
    # by width, regular first: independent of how the cosets are numbered
    cusps.sort(key=lambda c: (c.width, not c.regular))
    return Signature(nu2, nu3, tuple(cusps), minus_i, branch)


def fibre_signature(G: QuotientGroup, branch: BranchPoints,
                    perm: tuple[int, ...]) -> Signature:
    """Signature of Gamma_C, the preimage in Gamma of a subgroup C of G,
    from Gamma's branch points with their generators' images in G and
    perm, C's permutation character, per class of G.

    Riemann-Hurwitz for X(Gamma_C) -> X(Gamma): with C' = C<iota>, the
    points over a branch point with generator image h are the cycles of
    h's permutation C'x -> C'xh.  g fixes pi'(g) cosets C'x: pi' = perm,
    but (perm(g) + perm(iota g))/2 for iota outside C (iota is in C iff
    perm(iota) = perm(1)).  So h has n_l l-cycles, pi'(h^d) = sum over
    m | d of m n_m, solved in increasing l (Moebius inversion) until they
    cover the pi'(1) cosets.  Over an elliptic point the 1-cycles are
    elliptic points of Gamma_C; over a cusp (w, eps, h) an l-cycle from
    C'x is a cusp of width w l, regular iff -I is in Gamma_C, or
    eps^l = 1 and x h^l x^-1 is in C.  For iota outside C, eps = 1 and
    g_l of them are: an m-cycle, m | d, gives 2m cosets Cx fixed by h^d
    if regular or d/m even, so perm(h^d) = 2 sum over m | d of m (n_m if
    d/m is even, else g_m).  Each distinct (w, eps, h) is read once.
    """
    cl, iota = G.class_of, G.iota
    minus_i = iota is not None and perm[cl[iota]] == perm[0]
    split = iota is not None and not minus_i
    fixed = [(v + perm[cl[G.mul(iota, cls[0])]]) // 2 for v, cls in zip(
        perm, G.classes)] if split else perm
    cusps = []
    for (width, eps, h), count in Counter(branch.cusps).items():
        row = G.power_map[cl[h]]
        cycles, o, left = {}, len(row), fixed[0]
        for l in (l for l in range(1, o + 1) if o % l == 0 and left):
            k, short = row[l % o], [(m, *cycles[m]) for m in cycles
                                    if l % m == 0]
            n = g = (fixed[k] - sum(m * nm for m, nm, _ in short)) // l
            if split:
                g = (perm[k] // 2 - sum(m * (gm if l // m % 2 else nm)
                                        for m, nm, gm in short)) // l
            cycles[l], left = (n, g), left - l * n
            regular = g if minus_i or eps == 1 or l % 2 == 0 else 0
            cusps += ([CuspDatum(width=width * l, regular=True)] * regular
                      + [CuspDatum(width=width * l, regular=False)]
                      * (n - regular)) * count
    return _signature(sum(fixed[cl[h]] for h in branch.elliptic2),
                      sum(fixed[cl[h]] for h in branch.elliptic3), cusps,
                      minus_i)


def _principal_branch_points(K: FiniteSubgroup) -> BranchPoints:
    """The branch points of K = Gamma(n) or +-Gamma(n), n = K.own_level >= 2,
    realized at level M (Diamond-Shurman, 3.8-3.9): no elliptic points, and
    one cusp a/c of width n for each +-(a, c) mod n with gcd(a, c, n) = 1.
    Lifted to coprime integers (c or n for c, a + n i for a), its
    stabiliser is generated by I + n [[-ac, a^2], [-c^2, ac]] mod M, which
    is = I mod n, so lies in K: eps = 1.
    """
    n, m = K.own_level, K.level
    cusps = []
    for c in range(n):
        for a in range(n):
            if gcd(a, c, n) != 1 or (a, c) > (-a % n, -c % n):
                continue
            c1, a1 = c or n, a
            while gcd(a1, c1) != 1:
                a1 += n
            y = ((1 - n * a1 * c1) % m, n * a1 * a1 % m, -n * c1 * c1 % m,
                 (1 + n * a1 * c1) % m)
            cusps.append((n, 1, y))
    return BranchPoints(elliptic2=(), elliptic3=(), cusps=tuple(cusps))


def subgroup_signature(K: FiniteSubgroup) -> Signature:
    """Signature of the preimage in SL2(Z) of K, with its branch points.

    With n = K.own_level >= 2 and every residue of K = +-I mod n, K is
    Gamma(n) or +-Gamma(n), and its branch points are read from +-(a, c)
    mod n, O(n^2) pairs; any other K walks its coset table, O(index).
    """
    n = K.own_level
    if n > 1 and K.residue_set <= {identity_mat(n), minus_identity(n)}:
        branch = _principal_branch_points(K)
        return _signature(0, 0, [CuspDatum(width=n, regular=True)]
                          * len(branch.cusps), K.contains_minus_I, branch)
    return signature_from_action(coset_action(K), K)


def area_constant_c(sig: Signature) -> Fraction:
    """c = area(Gamma\\H)/4pi = mu_proj/12, as SL2(Z)\\H has area pi/3.

    By the Euler formula this is (2g - 2 + t + nu2/2 + 2 nu3/3)/2, the
    Gauss-Bonnet area."""
    return Fraction(sig.mu_proj, 12)
