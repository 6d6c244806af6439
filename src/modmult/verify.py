"""End-to-end verification: exact quasi-linear slope detection for
multiplicity series, the finite-k decomposition identity, the even-offset
lower-bound monitor, and the structured PASS/FAIL report.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import ModmultError, __version__
from .cosets import area_constant_c
from .dimensions import PERIOD
# not called here (the pair's table calls dims); perfbench/tests checks
# that the tracer wraps modmult.verify.dims, so the name stays
from .dimensions import dims  # noqa: F401
from .reps import MultiplicitySeries, QuotientPair, pair_series, parity_of
from .sl2 import DEFAULT_LEVEL_CAP, SubgroupSpec


class WindowTooSmall(ModmultError, ValueError):
    pass


class InvalidOffsetBound(ModmultError, ValueError):
    """The lower-bound monitor's offset bound is odd or negative."""


# the most weights one command reads: verify reads kmax of them (0 and
# 2..kmax), dims and mult one for each weight of their range
MAX_WEIGHTS = 100_000


class TooManyWeights(ModmultError, ValueError):
    """kmax asks for more than MAX_WEIGHTS weights."""


class IdentityViolation(ModmultError):
    """The exact decomposition identity sum(deg * mult) = dim failed."""


class VerificationConfig:
    def __init__(self, gamma_spec: SubgroupSpec, gamma1_spec: SubgroupSpec,
                 kmax: int = 100, offset_bound: int = 24,  # even offsets only
                 table_source: object = None,
                 level_cap: int = DEFAULT_LEVEL_CAP):
        if offset_bound < 0 or offset_bound % 2:
            raise InvalidOffsetBound(
                f"offset bound must be even and >= 0, got {offset_bound}")
        if kmax > MAX_WEIGHTS:
            raise TooManyWeights(
                f"kmax {kmax} asks for more than {MAX_WEIGHTS} weights")
        if kmax < 5 + 3 * PERIOD:
            raise WindowTooSmall(
                f"kmax {kmax} below slope window bound {5 + 3 * PERIOD}")
        self.gamma_spec, self.gamma1_spec = gamma_spec, gamma1_spec
        self.kmax, self.offset_bound = kmax, offset_bound
        self.table_source, self.level_cap = table_source, level_cap


class SlopeReport(NamedTuple):
    rep_label: str
    kind: str
    parity_class: str
    slope: Fraction
    target: Fraction
    window: tuple[int, int]
    exact_match: bool
    quasi_linear: bool
    max_deviation: Fraction
    deviation_bounded: bool
    liminf_holds: bool


class LowerBoundReport(NamedTuple):
    rep_label: str
    kind: str
    offset: int | None              # minimal even offset, None when not found


def _parity_ks(parity_class: str, lo: int, hi: int):
    skip = {"even": 1, "odd": 0}.get(parity_class)
    return [k for k in range(lo, hi + 1) if k % 2 != skip]


def detect_slope(series: MultiplicitySeries, P: int, c: Fraction) -> SlopeReport:
    """Finite differences at stride P over the window [k0, k0+3P]; the
    sequence is declared exact iff the stride-P differences are constant and
    the slope equals c times the aggregate degree.

    With c*agg = n/d, every deviation is read from dev_k = s_k d - n k over
    the series' in-parity weights k >= 2: max_deviation is the largest
    |dev_k| / (k agg d) over the window, whose largest |dev_k| is the bound
    B; the deviation is bounded iff |dev_k| <= B at every k, and the liminf
    holds iff dev_k >= -B at every k."""
    k0 = 4 if series.parity_class != "odd" else 5
    ks = _parity_ks(series.parity_class, k0, k0 + 3 * P)
    s = series.entries
    missing = [k for k in ks if k not in s]
    if missing:
        raise WindowTooSmall(
            f"series for {series.rep_label} lacks weights {missing[:4]}...")
    diffs = {s[k + P] - s[k] for k in ks if k + P <= k0 + 3 * P}
    quasi_linear = len(diffs) == 1
    slope = Fraction(diffs.pop(), P) if quasi_linear else Fraction(0)
    agg = series.aggregate_degree
    target = c * agg
    n, d = target.numerator, target.denominator
    dev = {k: s[k] * d - n * k
           for k in _parity_ks(series.parity_class, 2, max(s)) if k in s}
    # the largest |dev_k| / k over the window, found by cross-multiplying
    top, k_top = 0, 1
    for k in ks:
        if abs(dev[k]) * k_top > top * k:
            top, k_top = abs(dev[k]), k
    bound = max(abs(dev[k]) for k in ks)
    bounded = all(abs(v) <= bound for v in dev.values())
    return SlopeReport(
        rep_label=series.rep_label, kind=series.kind,
        parity_class=series.parity_class, slope=slope, target=target,
        window=(k0, k0 + 3 * P),
        exact_match=quasi_linear and slope == target,
        quasi_linear=quasi_linear,
        max_deviation=Fraction(top, k_top * agg * d),
        deviation_bounded=bounded,
        # the deviation bound implies the liminf, so scan only without it
        liminf_holds=bounded or all(v >= -bound for v in dev.values()),
    )


def check_decomposition_identity(pair: QuotientPair, kind: str, weights,
                                 series_by_rep=None) -> dict[int, bool]:
    """Exact check that sum over irreducibles of degree * multiplicity equals
    dim of the weight-k space of Gamma1; raises IdentityViolation on failure."""
    if series_by_rep is None:
        series_by_rep = {rat.label: series for rat, series in zip(
            pair.rationals, pair_series(pair, kind, weights))}
    out = {}
    ks = [k for k in sorted(set(weights)) if k != 1]
    terms = [(rat.degree, series_by_rep[rat.label].entries)
             for rat in pair.rationals]
    # cyclics[0] is the trivial subgroup, whose Gamma_C is Gamma1
    for k, rhs in zip(ks, pair.cyclic_dims[0].read(kind, ks)):
        lhs = sum(degree * entries[k] for degree, entries in terms)
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
    # Gamma's dimensions at the in-parity weights js in [4, kmax], read
    # once; js[n0 // step:] are the k >= n0 + 4, zipped with their k - n0
    step = 1 if series.parity_class == "all" else 2
    js = _parity_ks(series.parity_class, 4, kmax)
    dim_gamma = pair.gamma_dims.read("M", js)
    ms = [series.entries.get(k) for k in js]
    for n0 in range(0, offset_bound + 1, 2):
        tail = ms[n0 // step:]
        if all(m is None for m in tail):
            continue
        if all(m is None or m >= agg * d for m, d in zip(tail, dim_gamma)):
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

    # preflight: sum of squared degrees over each parity class = mu_proj
    preflight = {}
    for pclass in sorted({parity_of(r, G) for r in pair.rationals}):
        total = sum(r.degree ** 2 * r.orbit_size for r in pair.rationals
                    if parity_of(r, G) == pclass)
        preflight[pclass] = (total == G.mu_proj)

    weights = [k for k in range(0, config.kmax + 1) if k != 1]
    rep_reports = []
    identity = {}
    findings = []
    for kind in ("M", "S"):
        # one kind's series at a time: the identity below needs no other
        series_by_rep = {}
        # equal per-table sums give equal series, aggregate degrees and
        # parity classes, all that the checks read: they run once per sums
        checked = {}
        for rat, series in zip(pair.rationals,
                               pair_series(pair, kind, weights)):
            series_by_rep[rat.label] = series
            key = pair.table_sums[rat]
            if (done := checked.get(key)) is None:
                # parity vanishing off the parity class
                parity_ok = all(
                    v == 0 for k, v in series.entries.items()
                    if (series.parity_class == "even" and k % 2)
                    or (series.parity_class == "odd" and k % 2 == 0
                        and k > 0))
                done = checked[key] = (
                    detect_slope(series, P, pair.c),
                    monitor_lower_bound(pair, series, config.offset_bound,
                                        config.kmax).offset,
                    parity_ok)
            slope, offset, parity_ok = done
            slope = slope._replace(rep_label=rat.label)
            if not slope.exact_match:
                findings.append(f"slope mismatch: {kind}/{rat.label}")
            if offset is None:
                findings.append(f"no lower-bound offset: {kind}/{rat.label}")
            if not (parity_ok and slope.deviation_bounded):
                findings.append(f"series anomaly: {kind}/{rat.label}")
            rep_reports.append({
                "slope": _slope_report_dict(slope),
                "lower_bound": {"rep": rat.label, "kind": kind,
                                "offset": offset},
                "parity_vanishing": parity_ok,
                "deviation_bounded": slope.deviation_bounded,
                "liminf_holds": slope.liminf_holds,
            })
        per_k = check_decomposition_identity(pair, kind, weights,
                                             series_by_rep=series_by_rep)
        identity[kind] = {str(k): v for k, v in sorted(per_k.items())}

    sig = pair.sig_gamma
    report = {
        "tool_version": __version__,
        "pair": {
            "gamma": config.gamma_spec.label(),
            "gamma1": config.gamma1_spec.label(),
            "level": G.level,
            "mu_sl": G.order,
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
        "pass": all(preflight.values()) and not findings,
    }
    return report


def signature_record(sig) -> dict:
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
