"""modmult: exact multiplicities of Gamma/Gamma1-characters in spaces of
modular forms and cusp forms, with an exact slope-verification harness."""

__version__ = "0.1.0"


# defined before the submodules below are imported: each error class of
# theirs derives from it
class ModmultError(Exception):
    """Base of modmult's typed errors; the CLI reports each in one line."""


from .cosets import (CuspDatum, PermutationAction, Signature, area_constant_c,
                     coset_action, signature_from_action, subgroup_signature)
from .dimensions import DimResult, DimTable, dims
from .exact import (CycloValue, InconsistentSystem, cyclotomic_poly,
                    euler_phi, mobius, solve_linear_exact)
from .reps import (CharacterTable, MultiplicitySeries, QuotientPair,
                   RationalCharacter, abelian_character_table,
                   artin_decompose, load_character_table,
                   multiplicity_series, pair_series, parity_of,
                   permutation_character, rational_characters)
from .sl2 import (FiniteSubgroup, QuotientGroup, SubgroupSpec,
                  cyclic_subgroups_up_to_conjugacy, quotient, realize)

__all__ = [name for name in dir() if not name.startswith("_")]
