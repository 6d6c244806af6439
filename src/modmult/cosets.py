"""Fuchsian signatures of preimages in SL2(Z) of subgroups K of SL2(Z/N),
computed from the permutation action of S and T on cosets, including
regular/irregular cusp classification and the area constant c.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .sl2 import (FiniteSubgroup, Mat, S_MAT, T_MAT, identity_mat, mat_inv,
                  mat_mul, minus_identity, reduce_mat, sl2_group_order)


class NonIntegralGenus(Exception):
    """Internal inconsistency: the Euler-characteristic genus is not a
    non-negative integer.  Must never fire on pipeline-produced actions."""


class NonPositiveArea(ValueError):
    pass


@dataclass(frozen=True)
class PermutationAction:
    """Right-multiplication action of S and T on projective cosets of K in
    SL2(Z/N)."""

    size: int                      # number of projective cosets
    sigma_S: tuple[int, ...]
    sigma_T: tuple[int, ...]
    sigma_ST: tuple[int, ...]
    reps: tuple[Mat, ...]          # a representative of each coset
    minus_I: bool
    sl_size: int


@dataclass(frozen=True)
class CuspDatum:
    width: int
    regular: bool


@dataclass(frozen=True)
class Signature:
    """Geometric data of a Fuchsian group of the first kind.

    mu_proj / mu_sl are indices in PSL2(Z) / SL2(Z) when the signature comes
    from the congruence pipeline; user-supplied signatures may leave them None.
    """

    genus: int
    elliptic_orders: tuple[int, ...]
    cusps: tuple[CuspDatum, ...]
    minus_I: bool
    mu_proj: int | None = None
    mu_sl: int | None = None

    @cached_property
    def nu2(self) -> int:
        return sum(1 for e in self.elliptic_orders if e == 2)

    @cached_property
    def nu3(self) -> int:
        return sum(1 for e in self.elliptic_orders if e == 3)

    @cached_property
    def t(self) -> int:
        return len(self.cusps)

    @cached_property
    def eps_reg(self) -> int:
        return sum(1 for c in self.cusps if c.regular)

    @cached_property
    def eps_irr(self) -> int:
        return sum(1 for c in self.cusps if not c.regular)

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be non-negative")
        if any(e < 2 for e in self.elliptic_orders):
            raise ValueError("elliptic orders must be >= 2")
        if self.minus_I and any(not c.regular for c in self.cusps):
            raise ValueError("irregular cusps require -I absent")


def _coset_table(subgroup: frozenset, n: int, gens: tuple[Mat, ...],
                 find: tuple[Mat, ...] = ()):
    """Right cosets H\\G explored by right multiplication by gens, which must
    generate SL2(Z/N) and be reduced mod n.

    Returns the coset representatives, for each generator its permutation
    of the cosets, and the coset of each reduced matrix in find.
    """
    size = sl2_group_order(n) // len(subgroup)
    elt_to_coset = dict.fromkeys(subgroup, 0)
    reps = [identity_mat(n)]
    perms = [[0] * size for _ in gens]
    queue = [0]
    while queue:
        i = queue.pop()
        for g, perm in zip(gens, perms):
            img = mat_mul(reps[i], g, n)
            j = elt_to_coset.get(img)
            if j is None:
                j = len(reps)
                reps.append(img)
                for h in subgroup:
                    elt_to_coset[mat_mul(h, img, n)] = j
                queue.append(j)
            perm[i] = j
    return (tuple(reps), [tuple(perm) for perm in perms],
            tuple(elt_to_coset[x] for x in find))


def coset_action(K: FiniteSubgroup) -> PermutationAction:
    """Permutations of S, T and ST on projective cosets of K."""
    return normal_coset_action(K, ())[0]


def normal_coset_action(K: FiniteSubgroup, lifts: tuple[Mat, ...]):
    """The coset action of K and the coset K g of each g in lifts.

    Left multiplication by a g that normalises K permutes the cosets of K,
    commutes with S and T and sends K to K g, which therefore fixes it; see
    preimage_signature.  The lookup that finds K g is dropped on return.
    """
    n = K.level
    minus_i = K.contains_minus_I
    if minus_i:
        kp = K.element_set
    else:
        mi = minus_identity(n)
        kp = K.element_set | frozenset(mat_mul(mi, x, n) for x in K.elements)

    gens = (reduce_mat(S_MAT, n), reduce_mat(T_MAT, n))
    reps, (sigma_S, sigma_T), starts = _coset_table(kp, n, gens, lifts)
    act = PermutationAction(
        size=len(reps), sigma_S=sigma_S, sigma_T=sigma_T,
        sigma_ST=tuple(sigma_T[j] for j in sigma_S), reps=reps,
        minus_I=minus_i, sl_size=sl2_group_order(n) // K.order,
    )
    return act, starts


def _left_translation(act: PermutationAction, start: int) -> list[int]:
    """Left multiplication by g on the cosets, given start = the coset of g.

    It commutes with S and T and sends coset 0 to start, so one walk of the
    S/T Schreier graph from coset 0, mirrored from start, fixes it.
    """
    img = [-1] * act.size
    img[0] = start
    stack = [0]
    perms = (act.sigma_S, act.sigma_T)
    while stack:
        i = stack.pop()
        for perm in perms:
            j = perm[i]
            if img[j] < 0:
                img[j] = perm[img[i]]
                stack.append(j)
    return img


def preimage_signature(act: PermutationAction, starts,
                       K: FiniteSubgroup) -> Signature:
    """Signature of K from the coset action act of a subgroup H normal in K.

    starts holds the coset H g of one g in each coset of H in K.  The
    cosets of K are the orbits of the left translations by these g on the
    cosets of H, and S and T act on the orbits as induced.
    """
    lefts = [_left_translation(act, s) for s in set(starts) if s]
    orbit_of = [-1] * act.size
    firsts = []
    for x in range(act.size):
        if orbit_of[x] < 0:
            orbit_of[x] = len(firsts)
            for left in lefts:
                orbit_of[left[x]] = len(firsts)
            firsts.append(x)
    sigma_S = tuple(orbit_of[act.sigma_S[x]] for x in firsts)
    sigma_T = tuple(orbit_of[act.sigma_T[x]] for x in firsts)
    induced = PermutationAction(
        size=len(firsts), sigma_S=sigma_S, sigma_T=sigma_T,
        sigma_ST=tuple(sigma_T[j] for j in sigma_S),
        reps=tuple(act.reps[x] for x in firsts),
        minus_I=K.contains_minus_I,
        sl_size=sl2_group_order(K.level) // K.order,
    )
    return signature_from_action(induced, K)


def _cycles(perm: tuple[int, ...]):
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


def signature_from_action(act: PermutationAction, K: FiniteSubgroup) -> Signature:
    """Signature of the preimage in SL2(Z) of K."""
    nu2 = sum(1 for i, j in enumerate(act.sigma_S) if i == j)
    nu3 = sum(1 for i, j in enumerate(act.sigma_ST) if i == j)
    t_cycles = _cycles(act.sigma_T)

    # the cusp r(oo) of width w is regular iff r T^w r^-1 is in K, not -K
    n = K.level
    cusps = []
    for cyc in t_cycles:
        width = len(cyc)
        r = act.reps[cyc[0]]
        regular = act.minus_I or mat_mul(
            mat_mul(r, (1, width, 0, 1), n), mat_inv(r, n), n) in K.element_set
        cusps.append(CuspDatum(width=width, regular=regular))
    # by width, regular first: independent of how the cosets are numbered
    cusps.sort(key=lambda c: (c.width, not c.regular))

    mu = act.size
    t = len(cusps)
    g = Fraction(1) + Fraction(mu, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) - Fraction(t, 2)
    if g.denominator != 1 or g < 0:
        raise NonIntegralGenus(f"genus {g} from mu={mu}, nu2={nu2}, nu3={nu3}, t={t}")

    return Signature(
        genus=int(g),
        elliptic_orders=(2,) * nu2 + (3,) * nu3,
        cusps=tuple(cusps),
        minus_I=act.minus_I,
        mu_proj=mu,
        mu_sl=act.sl_size,
    )


def subgroup_signature(K: FiniteSubgroup) -> Signature:
    return signature_from_action(coset_action(K), K)


def area_constant_c(sig: Signature) -> Fraction:
    """c = area(Gamma\\H)/4pi via Gauss-Bonnet, as an exact rational."""
    c = Fraction(1, 2) * (2 * sig.genus - 2 + sig.t
                          + sum(Fraction(e - 1, e) for e in sig.elliptic_orders))
    if c <= 0:
        raise NonPositiveArea(f"signature has non-positive area: c = {c}")
    return c
