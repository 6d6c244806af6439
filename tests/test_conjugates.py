"""A pair and its conjugate by g in SL2(Z) give the same multiplicities.

For g in SL2(Z), (g Gamma g^-1, g Gamma1 g^-1) has G' = G through
x -> g x g^-1, and f -> f|g^-1 is an equivariant isomorphism of M_k and
S_k, so the characters matched through that map have equal series, and
the matched cyclic subgroups have equal Gamma_C signatures.  The
conjugates of Gamma0(N) and Gamma1(N) by S, L = [[1, 0], [1, 1]] and ST
hold no T mod N: their cosets take whole-matrix keys where the families
take bottom rows, and they are realized as the closure of their
generators.
"""
import pytest

from modmult.reps import QuotientPair, multiplicity_series
from modmult.sl2 import (S_MAT, T_MAT, SubgroupSpec, mat_inv, mat_mul,
                         realize, reduce_mat)

# S = [[0, -1], [1, 0]], L = [[1, 0], [1, 1]] and ST = [[0, -1], [1, 1]]
CONJUGATORS = {"S": S_MAT, "L": (1, 0, 1, 1), "ST": (0, -1, 1, 1)}
PAIRS = ([("gamma0", n, "gamma1", n) for n in range(2, 17)]
         + [("gamma1", n, "gamma", n) for n in range(2, 11)])
WEIGHTS = [k for k in range(61) if k != 1]


def conjugate(spec, g):
    """g K g^-1 as a custom spec: the conjugates of K's residues mod N."""
    n = spec.level
    g, g_inv = reduce_mat(g, n), mat_inv(reduce_mat(g, n), n)
    return SubgroupSpec("custom", n, tuple(
        mat_mul(mat_mul(g, x, n), g_inv, n) for x in realize(spec).residues))


def class_map(pair, image, g):
    """Each class of pair.G -> the class of image.G holding g x g^-1."""
    G, H, m = pair.G, image.G, pair.level
    g, g_inv = reduce_mat(g, m), mat_inv(reduce_mat(g, m), m)
    return [H.class_of[H.coset_index(mat_mul(mat_mul(g, G.elements[cls[0]],
                                                     m), g_inv, m))]
            for cls in G.classes]


def matched(items, image_items, phi):
    """Each class function of items -> the one of image_items that reads
    the same through phi."""
    out = []
    for values in items:
        found = [i for i, other in enumerate(image_items)
                 if all(other[phi[k]] == v for k, v in enumerate(values))]
        assert len(found) == 1, values
        out.append(found[0])
    return out


@pytest.mark.parametrize("name", CONJUGATORS)
@pytest.mark.parametrize("k0,n0,k1,n1", PAIRS,
                         ids=[f"{a}:{b}/{c}:{d}" for a, b, c, d in PAIRS])
def test_conjugate_pair(k0, n0, k1, n1, name):
    g = CONJUGATORS[name]
    specs = (SubgroupSpec(k0, n0), SubgroupSpec(k1, n1))
    pair = QuotientPair.build(*specs)
    image = QuotientPair.build(*(conjugate(spec, g) for spec in specs))
    # neither conjugate holds T, so both take whole-matrix keys
    for spec in (image.gamma_spec, image.gamma1_spec):
        assert reduce_mat(T_MAT, spec.level) not in realize(spec).residue_set
    assert image.G.order == pair.G.order
    phi = class_map(pair, image, g)
    assert sorted(phi) == list(range(len(pair.G.classes)))
    assert image.sig_gamma == pair.sig_gamma
    # cyclic subgroups, matched by their permutation characters
    cyclics = matched([perm for _, perm in pair.cyclics],
                      [perm for _, perm in image.cyclics], phi)
    for i, j in enumerate(cyclics):
        assert image.cyclic_dims[j].sig == pair.cyclic_dims[i].sig
    rats = matched([rat.values for rat in pair.rationals],
                   [rat.values for rat in image.rationals], phi)
    for rat, j in zip(pair.rationals, rats):
        for kind in ("M", "S"):
            assert multiplicity_series(
                image, image.rationals[j], kind, WEIGHTS).entries == \
                multiplicity_series(pair, rat, kind, WEIGHTS).entries, \
                (rat.label, kind)
