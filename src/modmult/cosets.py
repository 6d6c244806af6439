"""Fuchsian signatures of preimages in SL2(Z) of subgroups K of SL2(Z/N),
computed from the permutation action of S and T on cosets, including
regular/irregular cusp classification and the area constant c.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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

    @property
    def nu2(self) -> int:
        return sum(1 for e in self.elliptic_orders if e == 2)

    @property
    def nu3(self) -> int:
        return sum(1 for e in self.elliptic_orders if e == 3)

    @property
    def t(self) -> int:
        return len(self.cusps)

    @property
    def eps_reg(self) -> int:
        return sum(1 for c in self.cusps if c.regular)

    @property
    def eps_irr(self) -> int:
        return sum(1 for c in self.cusps if not c.regular)

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be non-negative")
        if any(e < 2 for e in self.elliptic_orders):
            raise ValueError("elliptic orders must be >= 2")
        if self.minus_I and any(not c.regular for c in self.cusps):
            raise ValueError("irregular cusps require -I absent")


def _coset_table(subgroup: frozenset, n: int, gens: tuple[Mat, ...]):
    """Right cosets H\\G explored by right multiplication by gens, which must
    generate SL2(Z/N) and be reduced mod n.

    Returns the coset representatives and, for each generator, its
    permutation of the cosets.
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
    return tuple(reps), [tuple(perm) for perm in perms]


def coset_action(K: FiniteSubgroup) -> PermutationAction:
    """Permutations of S, T and ST on projective cosets of K."""
    n = K.level
    minus_i = K.contains_minus_I
    if minus_i:
        kp = K.element_set
    else:
        mi = minus_identity(n)
        kp = K.element_set | frozenset(mat_mul(mi, x, n) for x in K.elements)

    gens = (reduce_mat(S_MAT, n), reduce_mat(T_MAT, n))
    reps, (sigma_S, sigma_T) = _coset_table(kp, n, gens)
    return PermutationAction(
        size=len(reps), sigma_S=sigma_S, sigma_T=sigma_T,
        sigma_ST=tuple(sigma_T[j] for j in sigma_S), reps=reps,
        minus_I=minus_i, sl_size=sl2_group_order(n) // K.order,
    )


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
    for cyc in sorted(t_cycles, key=lambda c: (len(c), c)):
        width = len(cyc)
        r = act.reps[cyc[0]]
        regular = act.minus_I or mat_mul(
            mat_mul(r, (1, width, 0, 1), n), mat_inv(r, n), n) in K.element_set
        cusps.append(CuspDatum(width=width, regular=regular))

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
