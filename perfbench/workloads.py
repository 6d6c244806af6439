"""The benchmark's workloads: fixed verify calls, one layer dominating each.

Every pair stays within the CLI's default level cap of 30.  The levels 37
and 41 of the bench ladder need ``--level-cap`` and 6-11 s per pair, which
would make every run too long; they are left out on purpose.
"""
from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kmax: int
    pairs: tuple[str, ...]
    why: str

    def calls(self) -> list[list[str]]:
        """The argv of every verify call of one pass, in canonical order."""
        return [verify_argv(pair, self.kmax) for pair in self.pairs]


def verify_argv(pair: str, kmax: int) -> list[str]:
    return ["verify", "--pair", pair, "--kmax", str(kmax)]


WORKLOADS = {w.name: w for w in (
    Workload(
        "char-table", 100,
        ("gamma0:25/gamma1:25", "gamma0:29/gamma1:29"),
        "abelian G of order 20 and 28: cyclotomic character-table work "
        "(reps/exact) dominates, growing about as |G|^3"),
    Workload(
        "coset-action", 100,
        ("gamma:12/gamma:24", "gamma:13/gamma:26", "gamma:14/gamma:28",
         "gamma:15/gamma:30"),
        "G of order 6 or 8 but 4608-8640 projective cosets: coset "
        "signatures (cosets) dominate, character tables barely run"),
    Workload(
        "long-series", 3000,
        ("SL2Z/gamma:2", "gamma0:7/gamma1:7", "gamma0:8/gamma1:8"),
        "small groups at kmax 3000: dimension formulas, series and verify "
        "loops dominate; table and coset work stays under 1%"),
)}


def pass_orders(workload: Workload, seed: int):
    """Yield the calls of each successive pass, shuffled by the seed.

    The seed changes only the order of the calls within a pass, never the
    calls themselves, so no metric depends on it.
    """
    rng = random.Random(seed)
    while True:
        calls = workload.calls()
        rng.shuffle(calls)
        yield calls
