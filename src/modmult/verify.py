"""End-to-end verification: exact quasi-linear slope detection for
multiplicity series, the finite-k decomposition identity, the even-offset
lower-bound monitor, and the structured PASS/FAIL report.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
# not called here (the pair's table calls dims); perfbench/tests checks
# that the tracer wraps modmult.verify.dims, so the name stays
from .dimensions import dims  # noqa: F401
from .reps import (MultiplicitySeries, QuotientPair, RationalCharacter,
                   multiplicity_series, parity_class_of)
from .sl2 import DEFAULT_LEVEL_CAP, SubgroupSpec


class WindowTooSmall(ValueError):
    pass


class InvalidOffsetBound(ValueError):
    """The lower-bound monitor's offset bound is odd or negative."""


class IdentityViolation(Exception):
    """The exact decomposition identity sum(deg * mult) = dim failed."""


@dataclass(frozen=True)
class VerificationConfig:
    gamma_spec: SubgroupSpec
    gamma1_spec: SubgroupSpec
    kmax: int = 100
    kinds: tuple[str, ...] = ("M", "S")
    reps: str | tuple[str, ...] = "all"
    split: bool = False
    offset_bound: int = 24          # even offsets only
    table_source: object = None
    level_cap: int = DEFAULT_LEVEL_CAP

    def __post_init__(self):
        if self.offset_bound < 0 or self.offset_bound % 2:
            raise InvalidOffsetBound(
                f"offset bound must be even and >= 0, got {self.offset_bound}")


@dataclass(frozen=True)
class SlopeReport:
    rep_label: str
    kind: str
    parity_class: str
    slope: Fraction
    target: Fraction
    window: tuple[int, int]
    exact_match: bool
    quasi_linear: bool
    max_deviation: Fraction


@dataclass(frozen=True)
class LowerBoundReport:
    rep_label: str
    kind: str
    offset: int | None              # minimal even offset, None when not found


def _parity_ks(parity_class: str, lo: int, hi: int):
    ks = []
    for k in range(lo, hi + 1):
        if k == 1:
            continue
        if parity_class == "even" and k % 2:
            continue
        if parity_class == "odd" and k % 2 == 0:
            continue
        ks.append(k)
    return ks


def detect_slope(series: MultiplicitySeries, P: int, c: Fraction) -> SlopeReport:
    """Finite differences at stride P over the window [k0, k0+3P]; the
    sequence is declared exact iff the stride-P differences are constant and
    the slope equals c times the aggregate degree."""
    k0 = 4 if series.parity_class != "odd" else 5
    ks = _parity_ks(series.parity_class, k0, k0 + 3 * P)
    missing = [k for k in ks if k not in series.entries]
    if missing:
        raise WindowTooSmall(
            f"series for {series.rep_label} lacks weights {missing[:4]}...")
    diffs = {series.entries[k + P] - series.entries[k]
             for k in ks if k + P <= k0 + 3 * P}
    quasi_linear = len(diffs) == 1
    slope = Fraction(diffs.pop(), P) if quasi_linear else Fraction(0)
    agg = series.aggregate_degree
    target = c * agg
    deviation = max(abs(Fraction(series.entries[k], k * agg) - c) for k in ks)
    return SlopeReport(
        rep_label=series.rep_label, kind=series.kind,
        parity_class=series.parity_class, slope=slope, target=target,
        window=(k0, k0 + 3 * P),
        exact_match=quasi_linear and slope == target,
        quasi_linear=quasi_linear, max_deviation=deviation,
    )


def check_decomposition_identity(pair: QuotientPair, kind: str, weights,
                                 series_by_rep=None) -> dict[int, bool]:
    """Exact check that sum over irreducibles of degree * multiplicity equals
    dim of the weight-k space of Gamma1; raises IdentityViolation on failure."""
    if series_by_rep is None:
        series_by_rep = {
            rat.label: multiplicity_series(pair, rat, kind, weights)
            for rat in pair.rationals
        }
    out = {}
    ks = [k for k in sorted(set(weights)) if k != 1]
    gamma1 = frozenset({pair.G.identity})
    for k, rhs in zip(ks, pair.dims_of(gamma1, kind, ks)):
        lhs = sum(rat.degree * series_by_rep[rat.label].entries[k]
                  for rat in pair.rationals)
        if lhs != rhs:
            raise IdentityViolation(
                f"pair {pair.gamma_spec.label()}/{pair.gamma1_spec.label()} "
                f"kind {kind} k={k}: sum deg*mult = {lhs} but dim = {rhs}; "
                f"components: " + ", ".join(
                    f"{rat.label}(deg {rat.degree}) -> "
                    f"{series_by_rep[rat.label].entries[k]}"
                    for rat in pair.rationals))
        out[k] = True
    return out


def monitor_lower_bound(pair: QuotientPair, series: MultiplicitySeries,
                        offset_bound: int, kmax: int) -> LowerBoundReport:
    """Minimal even offset n0 <= bound with
    multiplicity_k >= aggregate_degree * dim M_{k-n0}(Gamma) for every
    in-parity weight k in [n0+4, kmax]; the weight set must be non-empty."""
    agg = series.aggregate_degree
    # every k - n0 below is in the parity class and lies in [4, kmax]
    js = _parity_ks(series.parity_class, 4, kmax)
    gamma = frozenset(range(pair.G.order))
    dim_gamma = dict(zip(js, pair.dims_of(gamma, "M", js)))
    for n0 in range(0, offset_bound + 1, 2):
        ks = [k for k in _parity_ks(series.parity_class, n0 + 4, kmax)
              if k in series.entries]
        if not ks:
            continue
        if all(series.entries[k] >= agg * dim_gamma[k - n0] for k in ks):
            return LowerBoundReport(rep_label=series.rep_label,
                                    kind=series.kind, offset=n0)
    return LowerBoundReport(rep_label=series.rep_label, kind=series.kind,
                            offset=None)


def _fmt_frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _slope_report_dict(r: SlopeReport) -> dict:
    return {
        "rep": r.rep_label, "kind": r.kind, "parity_class": r.parity_class,
        "slope": _fmt_frac(r.slope), "target": _fmt_frac(r.target),
        "window": list(r.window), "exact_match": r.exact_match,
        "quasi_linear": r.quasi_linear,
        "max_deviation": _fmt_frac(r.max_deviation),
    }


def run_verify(config: VerificationConfig) -> dict:
    """Run the full verification for one pair and return the report dict.

    report["pass"] is True iff every slope matches exactly, every identity
    holds, parity vanishing is clean, the degree-square preflight holds, and
    a lower-bound offset was found for every rep and kind.
    """
    pair = QuotientPair.build(config.gamma_spec, config.gamma1_spec,
                              table_source=config.table_source,
                              level_cap=config.level_cap)
    G = pair.G
    P = pair.period()
    if config.kmax < 5 + 3 * P:
        raise WindowTooSmall(
            f"kmax {config.kmax} below slope window bound {5 + 3 * P}")

    if config.reps == "all":
        rats = list(pair.rationals)
    else:
        rats = [pair.rational_by_name(name) for name in config.reps]

    # preflight: sum of squared degrees over each parity class = mu_proj
    preflight = {}
    for pclass in sorted({parity_class_of(r, G) for r in pair.rationals}):
        total = sum(r.degree ** 2 * r.orbit_size for r in pair.rationals
                    if parity_class_of(r, G) == pclass)
        preflight[pclass] = (total == G.mu_proj)

    weights = [k for k in range(0, config.kmax + 1) if k != 1]
    ok = all(preflight.values())
    rep_reports = []
    series_cache: dict[str, dict[str, MultiplicitySeries]] = {}
    findings = []
    for kind in sorted(config.kinds):
        for rat in rats:
            series = multiplicity_series(pair, rat, kind, weights,
                                         split=config.split)
            series_cache.setdefault(kind, {})[rat.label] = series
            slope = detect_slope(series, P, pair.c)
            bound = monitor_lower_bound(pair, series, config.offset_bound,
                                        config.kmax)
            # parity vanishing off the parity class
            parity_ok = all(
                v == 0 for k, v in series.entries.items()
                if (series.parity_class == "even" and k % 2)
                or (series.parity_class == "odd" and k % 2 == 0 and k > 0))
            # periodic-offset bound: |s_k - c*agg*k| stays within the window max
            agg = series.aggregate_degree
            in_class = _parity_ks(series.parity_class, slope.window[0],
                                  slope.window[1])
            offset_bound_const = max(abs(series.entries[k] - pair.c * agg * k)
                                     for k in in_class)
            bounded = all(abs(series.entries[k] - pair.c * agg * k)
                          <= offset_bound_const
                          for k in _parity_ks(series.parity_class, 2, config.kmax))
            # the deviation bound implies the liminf, so scan only without it
            liminf_ok = bounded or all(
                series.entries[k] >= pair.c * agg * k - offset_bound_const
                for k in _parity_ks(series.parity_class, 2, config.kmax))
            if not slope.exact_match:
                findings.append(f"slope mismatch: {kind}/{rat.label}")
            if bound.offset is None:
                findings.append(f"no lower-bound offset: {kind}/{rat.label}")
            if not (parity_ok and bounded):
                findings.append(f"series anomaly: {kind}/{rat.label}")
            ok = ok and slope.exact_match and parity_ok and bounded \
                and bound.offset is not None
            rep_reports.append({
                "slope": _slope_report_dict(slope),
                "lower_bound": {"rep": rat.label, "kind": kind,
                                "offset": bound.offset},
                "parity_vanishing": parity_ok,
                "deviation_bounded": bounded,
                "liminf_holds": liminf_ok,
            })

    identity = {}
    for kind in sorted(config.kinds):
        per_k = check_decomposition_identity(pair, kind, weights,
                                             series_by_rep=series_cache[kind])
        identity[kind] = {str(k): v for k, v in sorted(per_k.items())}

    sig = pair.sig_gamma
    report = {
        "tool_version": __version__,
        "pair": {
            "gamma": config.gamma_spec.label(),
            "gamma1": config.gamma1_spec.label(),
            "level": pair.level,
            "mu_sl": G.mu_sl,
            "mu_proj": G.mu_proj,
            "minus_I_in_gamma": G.iota is not None,
            "minus_I_in_gamma1": G.iota_trivial,
            "c": _fmt_frac(pair.c),
            "signature_gamma": signature_record(sig),
        },
        "period": P,
        "kmax": config.kmax,
        "preflight_degree_squares": preflight,
        "reps": rep_reports,
        "identity": identity,
        "findings": sorted(findings),
        "pass": ok,
    }
    return report


def signature_record(sig) -> dict:
    from .cosets import area_constant_c
    return {
        "genus": sig.genus,
        "nu2": sig.nu2,
        "nu3": sig.nu3,
        "cusps": [{"width": c.width, "regular": c.regular} for c in sig.cusps],
        "mu_proj": sig.mu_proj,
        "mu_sl": sig.mu_sl,
        "minus_I": sig.minus_I,
        "c": _fmt_frac(area_constant_c(sig)),
    }
