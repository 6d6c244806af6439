"""Exact dimensions of M_k and S_k for a signature, at every supported
weight, by Riemann-Roch (Shimura, Thms 2.23 and 2.25), and their tables
over one quasi-period.
"""
from __future__ import annotations

from typing import NamedTuple

from . import ModmultError
from .cosets import Signature


class WeightOneUnsupported(ModmultError, ValueError):
    """Weight 1 dimensions are not Riemann-Roch computable."""


class OddOrderViolation(ModmultError, ValueError):
    """Odd weight without -I requires no elliptic point of order 2."""


class DimResult(NamedTuple):
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


# dims reads k only through floor(k/4), floor(k/3) and the parity of k,
# which repeat with period 12: one period for every signature
PERIOD = 12


class DimTable:
    """dim M_k and dim S_k of one signature at any weights.

    For k >= 3 both are A*k + B(k mod P), P = PERIOD (Shimura, Thms 2.23
    and 2.25), so the table runs dims on [3, 3 + 2P) alone and keeps, per
    kind, base[r] and step[r] = dim(k + P) - dim(k): every k = 3 + t*P + r
    reads base[r] + t*step[r].  k = 2, the exception of Riemann-Roch, and
    k <= 1 go to dims itself."""

    def __init__(self, sig: Signature):
        self.sig = sig
        ds = [dims(sig, k) for k in range(3, 3 + 2 * PERIOD)]
        self.rows = {}
        for kind in ("M", "S"):
            vals = [d.kind(kind) for d in ds]
            self.rows[kind] = (vals[:PERIOD],
                               [b - a for a, b in zip(vals, vals[PERIOD:])])

    def read(self, kind: str, weights) -> list[int]:
        """dim M_k (kind "M") or dim S_k (kind "S") at each of the weights,
        in order, as plain ints."""
        if kind not in self.rows:
            raise ValueError(f"unknown kind {kind!r}")
        base, step = self.rows[kind]
        out = []
        for k in weights:
            if k < 3:
                out.append(dims(self.sig, k).kind(kind))
            else:
                t, r = divmod(k - 3, PERIOD)
                out.append(base[r] + t * step[r])
        return out
