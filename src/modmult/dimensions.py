"""Exact dimensions of M_k and S_k for a signature, at every supported
weight, plus the quasi-period that makes the weight-graded dimension
sequence exactly linear-plus-periodic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import ModmultError
from .cosets import Signature


class WeightOneUnsupported(ModmultError, ValueError):
    """Weight 1 dimensions are not Riemann-Roch computable."""


class OddOrderViolation(ModmultError, ValueError):
    """Odd weight without -I requires all elliptic orders odd."""


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


def _as_int(x: Fraction) -> int:
    if x.denominator != 1:
        raise ArithmeticError(f"non-integral dimension {x}")
    return int(x)


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
        s = g
        m = g + t - 1 if t > 0 else g
        return DimResult(m, s)
    elliptic = sum(k * (e - 1) // (2 * e) for e in sig.elliptic_orders)
    if k % 2 == 0:
        s = (k - 1) * (g - 1) + elliptic + (k // 2 - 1) * t
        m = s + t
    else:
        if any(e % 2 == 0 for e in sig.elliptic_orders):
            raise OddOrderViolation(
                "odd weight with an even elliptic order and no -I")
        s = _as_int(Fraction((k - 1) * (g - 1) + elliptic)
                    + Fraction(k - 2, 2) * sig.eps_reg
                    + Fraction(k - 1, 2) * sig.eps_irr)
        m = s + sig.eps_reg
    return DimResult(m, s)


def quasi_period(sig: Signature) -> int:
    """P with dims(sig, .) exactly linear-plus-P-periodic on each parity."""
    return lcm(2, 12, *(2 * e for e in sig.elliptic_orders))
