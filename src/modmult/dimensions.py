"""Exact dimensions of M_k and S_k for a signature, at every supported
weight, by Riemann-Roch (Shimura, Thms 2.23 and 2.25).
"""
from __future__ import annotations

from dataclasses import dataclass

from . import ModmultError
from .cosets import Signature


class WeightOneUnsupported(ModmultError, ValueError):
    """Weight 1 dimensions are not Riemann-Roch computable."""


class OddOrderViolation(ModmultError, ValueError):
    """Odd weight without -I requires no elliptic point of order 2."""


@dataclass(frozen=True)
class DimResult:
    dim_M: int
    dim_S: int

    def kind(self, which: str) -> int:
        if which == "M":
            return self.dim_M
        if which == "S":
            return self.dim_S
        raise ValueError(f"unknown kind {which!r}")


def dims(sig: Signature, k: int) -> DimResult:
    """Exact (dim M_k, dim S_k) for the group with the given signature."""
    if k == 1:
        raise WeightOneUnsupported("weight 1 is not supported")
    if k < 0:
        return DimResult(0, 0)
    if k == 0:
        return DimResult(1, 0)
    if sig.minus_I and k % 2 == 1:
        return DimResult(0, 0)
    g, t = sig.genus, sig.t
    if k == 2:
        return DimResult(g + t - 1, g)
    # floor(k (e - 1) / 2e) at each elliptic point of order e = 2, 3
    elliptic = sig.nu2 * (k // 4) + sig.nu3 * (k // 3)
    if k % 2 == 0:
        s = (k - 1) * (g - 1) + elliptic + (k // 2 - 1) * t
        m = s + t
    else:
        if sig.nu2:
            raise OddOrderViolation(
                "odd weight with an elliptic point of order 2 and no -I")
        s2 = (2 * ((k - 1) * (g - 1) + elliptic) + (k - 2) * sig.eps_reg
              + (k - 1) * sig.eps_irr)
        if s2 % 2:
            raise ArithmeticError(f"non-integral dimension {s2}/2")
        s = s2 // 2
        m = s + sig.eps_reg
    return DimResult(m, s)

