import csv
import io
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from modmult.reps import MultiplicitySeries, QuotientPair, multiplicity_series
from modmult.sl2 import SubgroupSpec
from modmult.verify import (VerificationConfig, WindowTooSmall, _parity_ks,
                            check_decomposition_identity, detect_slope,
                            monitor_lower_bound, run_verify)
from test_cosets import PAIRS


@pytest.fixture(scope="module")
def s3pair():
    return QuotientPair.build(SubgroupSpec("full", 1),
                              SubgroupSpec("gamma", 2))


@pytest.fixture(scope="module")
def diamond5():
    return QuotientPair.build(SubgroupSpec("gamma0", 5),
                              SubgroupSpec("gamma1", 5))


def series_for(pair, label, kind="M", kmax=None):
    P = pair.period()
    kmax = kmax if kmax is not None else 5 + 3 * P
    ks = [k for k in range(0, kmax + 1) if k != 1]
    rat = pair.rational_by_name(label)
    return multiplicity_series(pair, rat, kind, ks)


class TestDetectSlope:
    def test_s3_slopes(self, s3pair):
        P = s3pair.period()
        expect = {"triv": Fraction(1, 12), "sign": Fraction(1, 12),
                  "std": Fraction(1, 6)}
        for label, target in expect.items():
            r = detect_slope(series_for(s3pair, label), P, s3pair.c)
            assert r.quasi_linear
            assert r.slope == r.target == target
            assert r.exact_match

    def test_diamond5_slopes(self, diamond5):
        P = diamond5.period()
        for rat in diamond5.rationals:
            s = multiplicity_series(
                diamond5, rat, "S",
                [k for k in range(0, 5 + 3 * P + 1) if k != 1])
            r = detect_slope(s, P, diamond5.c)
            assert r.exact_match
            assert r.slope == Fraction(1, 2) * rat.orbit_size

    def test_odd_class_window_starts_at_5(self, diamond5):
        P = diamond5.period()
        orbit = next(r for r in diamond5.rationals if r.orbit_size == 2)
        s = multiplicity_series(
            diamond5, orbit, "M",
            [k for k in range(0, 5 + 3 * P + 1) if k != 1])
        r = detect_slope(s, P, diamond5.c)
        assert r.window == (5, 5 + 3 * P)
        assert r.exact_match

    def test_missing_weights(self, s3pair):
        s = series_for(s3pair, "triv", kmax=20)
        with pytest.raises(WindowTooSmall):
            detect_slope(s, s3pair.period(), s3pair.c)

    def test_not_quasi_linear(self, s3pair):
        fake = MultiplicitySeries(
            rep_label="fake", kind="M",
            entries={k: k * k for k in range(0, 42) if k != 1},
            per_member=None, parity_class="all", degree=1, orbit_size=1)
        r = detect_slope(fake, 12, s3pair.c)
        assert not r.quasi_linear
        assert not r.exact_match


# the nine pairs of perfbench/golden/
GOLDEN_PAIRS = ["gamma0:25/gamma1:25", "gamma0:29/gamma1:29",
                "gamma:12/gamma:24", "gamma:13/gamma:26", "gamma:14/gamma:28",
                "gamma:15/gamma:30", "SL2Z/gamma:2", "gamma0:7/gamma1:7",
                "gamma0:8/gamma1:8"]


def fraction_max_deviation(series, c, window):
    """detect_slope's max_deviation as a Fraction maximum."""
    agg = series.aggregate_degree
    return max(abs(Fraction(series.entries[k], k * agg) - c)
               for k in _parity_ks(series.parity_class, *window))


class TestMaxDeviation:
    """detect_slope's integer maximum against the Fraction one it replaces."""

    @pytest.mark.parametrize("text", GOLDEN_PAIRS)
    def test_matches_fraction_maximum(self, text):
        from modmult.cli import parse_pair
        pair = QuotientPair.build(*parse_pair(text))
        ks = [k for k in range(0, 5 + 3 * pair.period() + 1) if k != 1]
        rng = random.Random(text)
        for kind in ("M", "S"):
            for rat in pair.rationals:
                series = multiplicity_series(pair, rat, kind, ks)
                report = detect_slope(series, pair.period(), pair.c)
                assert report.max_deviation == \
                    fraction_max_deviation(series, pair.c, report.window)
                # entries moved up or down, to 0, and a larger degree
                for _ in range(4):
                    entries = dict(series.entries)
                    for k in rng.sample(sorted(entries), 3):
                        entries[k] = rng.choice(
                            (0, entries[k] + rng.randint(-40, 40)))
                    moved = series._replace(entries=entries,
                                            degree=rng.choice((1, 2, 3)))
                    assert detect_slope(moved, pair.period(), pair.c)\
                        .max_deviation == fraction_max_deviation(
                            moved, pair.c, report.window)


class TestDecompositionIdentity:
    def test_examples(self, s3pair, diamond5):
        assert check_decomposition_identity(s3pair, "M", [4]) == {4: True}
        assert check_decomposition_identity(diamond5, "M", [3, 4]) == \
            {3: True, 4: True}

    def test_detects_violation(self, diamond5):
        from modmult.verify import IdentityViolation
        good = {rat.label: multiplicity_series(diamond5, rat, "M", [4])
                for rat in diamond5.rationals}
        bad = dict(good)
        label = diamond5.rationals[0].label
        tampered = good[label]
        bad[label] = MultiplicitySeries(
            rep_label=tampered.rep_label, kind="M",
            entries={4: tampered.entries[4] + 1}, per_member=None,
            parity_class=tampered.parity_class, degree=tampered.degree,
            orbit_size=tampered.orbit_size)
        with pytest.raises(IdentityViolation):
            check_decomposition_identity(diamond5, "M", [4],
                                         series_by_rep=bad)

    @pytest.mark.parametrize("kind", ["M", "S"])
    def test_holds_to_200(self, diamond5, kind):
        ks = [k for k in range(0, 201) if k != 1]
        assert len(check_decomposition_identity(diamond5, kind, ks)) == 200


class TestLowerBoundMonitor:
    def test_trivial_character_needs_no_offset(self, diamond5):
        s = series_for(diamond5, "triv", kmax=100)
        r = monitor_lower_bound(diamond5, s, offset_bound=24, kmax=100)
        assert r.offset == 0

    def test_std_offset(self, s3pair):
        s = series_for(s3pair, "std", kmax=100)
        r = monitor_lower_bound(s3pair, s, offset_bound=24, kmax=100)
        assert r.offset == 8

    def test_std_violates_small_offsets(self, s3pair):
        # at weight 16 the multiplicity is 3 but 2*dim M_12 = 4, so
        # offsets 0, 2, and 4 all fail; 6 fails at weight 18; 8 holds
        s = series_for(s3pair, "std", kmax=100)
        for k in s.entries:
            assert s.entries[k] == _std_mult_gamma2(k)
        assert s.entries[16] == 3
        for n0 in (0, 2, 4, 6):
            ok = all(s.entries[k] >= 2 * _dim_m_sl2z(k - n0)
                     for k in range(n0 + 4, 101, 2))
            assert not ok
        assert all(s.entries[k] >= 2 * _dim_m_sl2z(k - 8)
                   for k in range(12, 101, 2))
        r = monitor_lower_bound(s3pair, s, offset_bound=6, kmax=100)
        assert r.offset is None

    def test_offset_respects_definition(self, s3pair, diamond5):
        for pair in (s3pair, diamond5):
            for rat in pair.rationals:
                for kind in ("M", "S"):
                    s = multiplicity_series(
                        pair, rat, kind,
                        [k for k in range(0, 101) if k != 1])
                    r = monitor_lower_bound(pair, s, 24, 100)
                    assert r.offset is not None
                    from modmult.dimensions import dims
                    agg = s.aggregate_degree
                    for k, v in s.entries.items():
                        if k < r.offset + 4:
                            continue
                        if s.parity_class == "even" and k % 2:
                            continue
                        if s.parity_class == "odd" and k % 2 == 0:
                            continue
                        assert v >= agg * dims(pair.sig_gamma,
                                               k - r.offset).dim_M


def _dim_m_sl2z(k):
    if k < 0 or k % 2:
        return 0
    return k // 12 + (0 if k % 12 == 2 else 1)


def _std_mult_gamma2(k):
    # M_{2n}(Gamma(2)) = Sym^n(std) as an S_3-module, since
    # M_*(Gamma(2)) = C[theta_3^4, theta_4^4] and S_3 acts on the
    # weight-2 space by std; odd weights vanish because -I is in Gamma(2)
    if k < 0 or k % 2:
        return 0
    n = k // 2
    return (n + 1 - (1, -1, 0)[n % 3]) // 3


def fraction_deviation_checks(series, c, window, kmax):
    """The deviation bound and the liminf scan in Fraction arithmetic, the
    liminf scanned whether or not the bound holds."""
    target = c * series.aggregate_degree
    s = series.entries
    bound = max(abs(s[k] - target * k)
                for k in _parity_ks(series.parity_class, *window))
    ks = _parity_ks(series.parity_class, 2, kmax)
    return (all(abs(s[k] - target * k) <= bound for k in ks),
            all(s[k] >= target * k - bound for k in ks))


def deviation_checks(series, P, c):
    """detect_slope's (deviation_bounded, liminf_holds)."""
    report = detect_slope(series, P, c)
    return report.deviation_bounded, report.liminf_holds


class TestDeviationChecks:
    """detect_slope's integer deviation and liminf decisions against the
    Fraction scans they replace."""

    @pytest.mark.parametrize("k0,n0,k1,n1", PAIRS,
                             ids=[f"{a}:{b}/{c}:{d}" for a, b, c, d in PAIRS])
    def test_match_fraction_reference(self, k0, n0, k1, n1):
        pair = QuotientPair.build(SubgroupSpec(k0, n0), SubgroupSpec(k1, n1))
        ks = [k for k in range(0, 101) if k != 1]
        for kind in ("M", "S"):
            for rat in pair.rationals:
                series = multiplicity_series(pair, rat, kind, ks)
                r = detect_slope(series, pair.period(), pair.c)
                assert (r.deviation_bounded, r.liminf_holds) == \
                    fraction_deviation_checks(series, pair.c, r.window, 100)

    def test_entry_at_and_past_the_bound(self, diamond5):
        # one entry moved to each edge of the band c*k +- B and one past it:
        # raised past it, only the liminf holds; lowered past it, neither
        series = series_for(diamond5, "triv", kmax=100)
        c, k, P = diamond5.c, 96, diamond5.period()
        window = detect_slope(series, P, c).window
        target = c * series.aggregate_degree
        bound = max(abs(series.entries[j] - target * j)
                    for j in _parity_ks(series.parity_class, *window))
        hi, lo = target * k + bound, target * k - bound
        assert hi.denominator == lo.denominator == 1 and lo > 0
        cases = {int(hi): (True, True), int(hi) + 1: (False, True),
                 int(lo): (True, True), int(lo) - 1: (False, False)}
        for value, expect in cases.items():
            off = series._replace(entries={**series.entries, k: value})
            assert deviation_checks(off, P, c) == expect, value
            assert fraction_deviation_checks(off, c, window, 100) == expect
        # past the band at k + 2 and on its lower edge at k: the liminf scan
        # runs and holds
        off = series._replace(entries={**series.entries, k: int(lo),
                                      k + 2: int(hi + 2 * target) + 1})
        assert deviation_checks(off, P, c) == (False, True)
        assert fraction_deviation_checks(off, c, window, 100) == (False, True)


class TestRunVerify:
    def test_pass_and_shape(self):
        config = VerificationConfig(SubgroupSpec("gamma0", 5),
                                    SubgroupSpec("gamma1", 5), kmax=100)
        report = run_verify(config)
        assert report["pass"] is True
        assert report["findings"] == []
        assert report["period"] == 12
        assert report["pair"]["c"] == "1/2"
        assert all(report["preflight_degree_squares"].values())
        assert len(report["reps"]) == 2 * 3  # two kinds, three rationals
        for rr in report["reps"]:
            assert rr["slope"]["exact_match"]
            assert rr["lower_bound"]["offset"] is not None

    def test_window_too_small(self):
        # refused by the config itself, so before run_verify
        with pytest.raises(WindowTooSmall, match="^kmax 10 below slope "
                                                 "window bound 41$"):
            VerificationConfig(SubgroupSpec("gamma0", 5),
                               SubgroupSpec("gamma1", 5), kmax=10)

    def test_window_too_small_before_any_group(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a pair was built")

        monkeypatch.setattr(QuotientPair, "build", refused)
        for kmax in (-1, 0, 10, 40):
            with pytest.raises(WindowTooSmall):
                run_verify(VerificationConfig(SubgroupSpec("gamma0", 97),
                                              SubgroupSpec("gamma1", 97),
                                              kmax=kmax, level_cap=97))
        # 41 = 5 + 3 * PERIOD is the smallest window, and reaches build
        with pytest.raises(AssertionError, match="a pair was built"):
            run_verify(VerificationConfig(SubgroupSpec("gamma0", 5),
                                          SubgroupSpec("gamma1", 5),
                                          kmax=41))

    @pytest.mark.parametrize("k,add_M,add_S,findings", [
        # a step of one period that grows with k: the slope moves
        (16, 1, 1, ["series anomaly: M/triv", "series anomaly: S/triv",
                    "slope mismatch: M/triv", "slope mismatch: S/triv"]),
        # k = 2 lies below the slope window, but the deviation bound reads it
        (2, 5, 0, ["series anomaly: M/triv"])], ids=["k16", "M2"])
    def test_wrong_dims_fail(self, k, add_M, add_S, findings, monkeypatch,
                             capsys):
        # a constant added to dim M_k and dim S_k of every group is the
        # trivial representation added to each space: the identity still
        # holds, and only triv's series moves
        import modmult.dimensions
        original = modmult.dimensions.dims

        def wrong(sig, weight):
            d = original(sig, weight)
            if weight != k:
                return d
            return modmult.dimensions.DimResult(d.dim_M + add_M,
                                                d.dim_S + add_S)

        monkeypatch.setattr(modmult.dimensions, "dims", wrong)
        report = run_verify(VerificationConfig(SubgroupSpec("gamma0", 5),
                                               SubgroupSpec("gamma1", 5),
                                               kmax=60))
        assert report["pass"] is False
        assert report["findings"] == findings
        code, out, err = run_cli(["verify", "--pair", "gamma0:5/gamma1:5",
                                  "--kmax", "60"], capsys)
        assert (code, err) == (1, "")
        assert json.loads(out) == report

    def test_deterministic(self):
        config = VerificationConfig(SubgroupSpec("full", 1),
                                    SubgroupSpec("gamma", 2), kmax=60)
        a = json.dumps(run_verify(config), sort_keys=True)
        b = json.dumps(run_verify(config), sort_keys=True)
        assert a == b

    def test_odd_offset_bound_rejected(self):
        with pytest.raises(ValueError):
            VerificationConfig(SubgroupSpec("gamma0", 5),
                               SubgroupSpec("gamma1", 5), offset_bound=3)


def own_entry(pair, series, kmax, offset_bound=24):
    """The reps entry of one series, from detect_slope and
    monitor_lower_bound run on that series alone."""
    from modmult.verify import _slope_report_dict
    slope = detect_slope(series, pair.period(), pair.c)
    bound = monitor_lower_bound(pair, series, offset_bound, kmax)
    skip = {"even": 1, "odd": 0}.get(series.parity_class)
    parity_ok = all(v == 0 for k, v in series.entries.items()
                    if k % 2 == skip and k > 0)
    return {"slope": _slope_report_dict(slope),
            "lower_bound": {"rep": series.rep_label, "kind": series.kind,
                            "offset": bound.offset},
            "parity_vanishing": parity_ok,
            "deviation_bounded": slope.deviation_bounded,
            "liminf_holds": slope.liminf_holds}


class TestChecksPerDistinctSeries:
    """run_verify runs the slope, lower-bound and parity checks once per
    kind and distinct per-table sums of the Artin coefficients
    (pair.table_sums), and gives every character its own labelled entry.
    Equal sums give equal series, aggregate degrees and parity classes;
    the tests count the distinct series among the characters' own."""

    def spy(self, monkeypatch):
        """Record each check's (name, kind, pair), and each DimTable read
        made inside monitor_lower_bound."""
        import modmult.dimensions as dimensions
        import modmult.verify as verify
        calls, reads, inside = [], [], []

        def slope(series, *args):
            calls.append(("detect_slope", series.kind, None))
            return original_slope(series, *args)

        def bound(pair, series, *args):
            calls.append(("monitor_lower_bound", series.kind, pair))
            inside.append(True)
            try:
                return original_bound(pair, series, *args)
            finally:
                inside.pop()

        def read(table, kind, weights):
            if inside:
                reads.append(table)
            return original_read(table, kind, weights)

        original_slope = verify.detect_slope
        original_bound = verify.monitor_lower_bound
        original_read = dimensions.DimTable.read
        monkeypatch.setattr(verify, "detect_slope", slope)
        monkeypatch.setattr(verify, "monitor_lower_bound", bound)
        monkeypatch.setattr(dimensions.DimTable, "read", read)
        return calls, reads

    def entries_from_own_series(self, specs, kmax):
        pair = QuotientPair.build(*specs)
        weights = [k for k in range(kmax + 1) if k != 1]
        distinct = Counter()
        entries = []
        for kind in ("M", "S"):
            for rat in pair.rationals:
                series = multiplicity_series(pair, rat, kind, weights)
                distinct[kind, series.aggregate_degree, series.parity_class,
                         tuple(series.entries.values())] += 1
                entries.append(own_entry(pair, series, kmax))
        return entries, Counter(kind for kind, *_ in distinct)

    @pytest.mark.parametrize("kmax", [100, 3000])
    def test_shared_series_checked_once(self, kmax, monkeypatch):
        specs = (SubgroupSpec("gamma", 12), SubgroupSpec("gamma", 24))
        calls, _ = self.spy(monkeypatch)
        report = run_verify(VerificationConfig(*specs, kmax=kmax))
        monkeypatch.undo()
        # the 8 characters have 4 distinct series per kind
        entries, distinct = self.entries_from_own_series(specs, kmax)
        assert len(entries) == 2 * 8
        assert distinct == {"M": 4, "S": 4}
        assert Counter((name, kind) for name, kind, _ in calls) == {
            (name, kind): 4 for kind in ("M", "S")
            for name in ("detect_slope", "monitor_lower_bound")}
        assert report["reps"] == entries
        assert report["pass"]

    def test_distinct_series_checked_each(self, monkeypatch):
        specs = (SubgroupSpec("gamma0", 25), SubgroupSpec("gamma1", 25))
        calls, reads = self.spy(monkeypatch)
        report = run_verify(VerificationConfig(*specs, kmax=100))
        monkeypatch.undo()
        # 6 characters, 6 distinct series per kind: 4 even, 2 odd
        entries, distinct = self.entries_from_own_series(specs, 100)
        assert distinct == {"M": 6, "S": 6}
        assert Counter((name, kind) for name, kind, _ in calls) == {
            (name, kind): 6 for kind in ("M", "S")
            for name in ("detect_slope", "monitor_lower_bound")}
        assert report["reps"] == entries
        # Gamma's dimensions are read once for each parity class
        pair = calls[-1][2]
        assert reads == [pair.gamma_dims] * 2


def s3_table_doc(broken=None):
    """The SL2Z/Gamma(2) character table (triv, sign, std) as a --table
    document, or broken: a wrong degree, class size or duplicated row, a
    class missing, two reps of one class of G, a row of two values, a
    class rep of three integers, a coefficient 1/0, a value of order 0 or
    10**6, coefficients given as a list, values given as a number, two
    rows of one name or six distinct rows of degree 1 in sixth roots of
    unity."""
    pair = QuotientPair.build(SubgroupSpec("full", 1), SubgroupSpec("gamma", 2))
    G, table = pair.G, pair.table
    doc = {"classes": [{"rep": list(G.elements[cls[0]]), "size": len(cls)}
                       for cls in G.classes],
           "characters": [
               {"name": name, "degree": deg,
                "values": [{"order": v.order,
                            "coeffs": {str(j): str(c)
                                       for j, c in v.coeffs.items()}}
                           for v in row]}
               for name, deg, row in zip(table.names, table.degrees,
                                         table.values)]}
    chars = doc["characters"]
    if broken == "degree":
        chars[2]["degree"] = 3
    elif broken == "size":
        doc["classes"][1]["size"] += 1
    elif broken == "duplicate":
        chars[1]["values"] = chars[0]["values"]
    elif broken == "class-count":
        doc["classes"].pop()
    elif broken == "same-class":
        # the file lists G's classes in order: a second element of G's
        # class 1 stands for class 2
        doc["classes"][2]["rep"] = list(G.elements[G.classes[1][-1]])
    elif broken == "short-values":
        chars[0]["values"].pop()
    elif broken == "short-rep":
        doc["classes"][0]["rep"] = doc["classes"][0]["rep"][:3]
    elif broken == "zero-denominator":
        chars[0]["values"][0]["coeffs"]["0"] = "1/0"
    elif broken == "zero-order":
        chars[0]["values"][0]["order"] = 0
    elif broken == "huge-order":
        # still the value 1, but in Q(zeta_m) with m far above |G| * exp G
        chars[0]["values"][0]["order"] = 10 ** 6
    elif broken == "coeff-list":
        chars[0]["values"][0]["coeffs"] = ["1"]
    elif broken == "values-number":
        chars[0]["values"] = 3.5
    elif broken == "dup-name":
        chars[1]["name"] = chars[0]["name"]
    elif broken == "linear":
        # exponent rows, but S3 has two homomorphisms to Z/6, not six
        one = G.class_of[G.identity]
        doc["characters"] = [
            {"name": f"lin{k}", "degree": 1,
             "values": [{"order": 6, "coeffs": {str(k * (c != one)): "1"}}
                        for c in range(len(G.classes))]}
            for k in range(6)]
    return doc


# argv -> the typed error main reports; a --table argument names a broken
# s3_table_doc
CLI_ERRORS = [
    (["verify", "--pair", "gamma0:37/gamma1:37"], "LevelTooLarge"),
    (["verify", "--pair", "SL2Z/gamma:3"], "CharacterTableRequired"),
    (["verify", "--pair", "gamma0:5/gamma1:5", "--kmax", "10"],
     "WindowTooSmall"),
    (["verify", "--pair", "gamma1:5/gamma0:5"], "NotASubgroup"),
    (["verify", "--pair", "SL2Z/gamma0:2"], "NotNormal"),
    (["mult", "--pair", "gamma0:3/gamma:3", "--weights", "7..7", "--split"],
     "IndivisibleOrbitTotal"),
    (["verify", "--pair", "SL2Z/gamma:2", "--table", "degree"], "SchemaError"),
    (["verify", "--pair", "SL2Z/gamma:2", "--table", "size"], "ClassMismatch"),
    (["verify", "--pair", "SL2Z/gamma:2", "--table", "duplicate"],
     "OrthogonalityFailure"),
    (["verify", "--pair", "SL2Z/gamma:2", "--table", "class-count"],
     "ClassMismatch"),
    (["verify", "--pair", "SL2Z/gamma:2", "--table", "same-class"],
     "ClassMismatch"),
    (["verify", "--pair", "SL2Z/gamma:2", "--table", "short-values"],
     "SchemaError"),
    (["mult", "--pair", "SL2Z/gamma:2", "--weights", "2..4", "--table",
      "short-rep"], "SchemaError"),
    (["mult", "--pair", "SL2Z/gamma:2", "--weights", "2..4", "--table",
      "zero-denominator"], "SchemaError"),
    (["mult", "--pair", "SL2Z/gamma:2", "--weights", "2..4", "--table",
      "zero-order"], "SchemaError"),
    (["mult", "--pair", "SL2Z/gamma:2", "--weights", "2..4", "--table",
      "huge-order"], "SchemaError"),
    (["mult", "--pair", "SL2Z/gamma:2", "--weights", "2..4", "--table",
      "coeff-list"], "SchemaError"),
    (["mult", "--pair", "SL2Z/gamma:2", "--weights", "2..4", "--table",
      "values-number"], "SchemaError"),
    (["mult", "--pair", "SL2Z/gamma:2", "--weights", "4..6", "--table",
      "dup-name"], "SchemaError"),
    (["verify", "--pair", "SL2Z/gamma:2", "--table", "linear"],
     "OrthogonalityFailure"),
    (["verify", "--pair", "gamma0:5/gamma1:5", "--offset-bound", "3"],
     "InvalidOffsetBound"),
]

# each entry's error name; an error met before is told apart by the entry's
# last argument, its broken table mode
CLI_ERROR_IDS = []
for _argv, _error in CLI_ERRORS:
    CLI_ERROR_IDS.append(f"{_error}-{_argv[-1]}" if _error in CLI_ERROR_IDS
                         else _error)


def test_every_error_class_is_a_modmult_error():
    # main reports a ModmultError in one line with status 2, so an error
    # class without that base would end in a traceback
    import importlib
    import pkgutil

    import modmult
    errors = []
    for info in pkgutil.iter_modules(modmult.__path__):
        module = importlib.import_module(f"modmult.{info.name}")
        errors += [obj for obj in vars(module).values()
                   if isinstance(obj, type) and issubclass(obj, Exception)
                   and obj.__module__ == module.__name__]
    assert len(errors) == 19
    assert all(issubclass(e, modmult.ModmultError) for e in errors)
    # each keeps its ValueError base, if it had one
    assert sorted(e.__name__ for e in errors if not issubclass(e, ValueError)) \
        == ["IdentityViolation", "InconsistentSystem", "IndivisibleOrbitTotal",
            "NonIntegralGenus"]


def run_cli(argv, capsys):
    """main's exit status, stdout and stderr."""
    from modmult.cli import main
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCli:
    def run(self, argv, capsys):
        return run_cli(argv, capsys)[:2]

    def test_signature_text(self, capsys):
        code, out = self.run(["signature", "--group", "gamma1:4"], capsys)
        assert code == 0
        assert "genus       0" in out
        assert "1*" in out  # the irregular width-1 cusp

    def test_signature_json(self, capsys):
        code, out = self.run(["signature", "--group", "SL2Z",
                              "--format", "json"], capsys)
        doc = json.loads(out)
        assert (doc["genus"], doc["nu2"], doc["nu3"]) == (0, 1, 1)
        assert doc["c"] == "1/12"

    def test_dims_csv(self, capsys):
        code, out = self.run(["dims", "--group", "SL2Z",
                              "--weights", "10..14", "--kind", "S"], capsys)
        rows = [ln.split(",") for ln in out.strip().splitlines()]
        assert rows[0] == ["k", "dim_S"]
        assert ["12", "1"] in rows

    def test_dims_json_matches_csv(self, capsys):
        argv = ["dims", "--group", "gamma0:11", "--weights", "2..20",
                "--kind", "S"]
        code, out = self.run(argv + ["--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert (doc["group"], doc["kind"]) == ("gamma0:11", "S")
        code, out = self.run(argv, capsys)
        assert code == 0
        rows = {row["k"]: int(row["dim_S"])
                for row in csv.DictReader(io.StringIO(out))}
        assert doc["dims"] == rows
        assert list(rows) == [str(k) for k in range(2, 21)]
        assert rows["2"] == 1  # the elliptic curve X0(11)

    def test_mult_csv(self, capsys):
        code, out = self.run(["mult", "--pair", "gamma0:5/gamma1:5",
                              "--weights", "4..4"], capsys)
        rows = set(out.strip().splitlines()[1:])
        assert any(r.startswith("triv,4,3") for r in rows)

    def test_one_parser_per_process(self, capsys, monkeypatch):
        # main builds its parser on its first call and reuses it, after an
        # argparse error and after a typed error too; each command prints
        # what it prints with a freshly built parser
        from modmult import cli
        original, built = cli.build_parser, []

        def counted():
            built.append(original())
            return built[-1]

        def fresh(argv):
            args = original().parse_args(argv)
            code = args.func(args)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counted)
        with pytest.raises(SystemExit) as exc:
            cli.main(["dims", "--group", "gamma0:5", "--weights", "x..4"])
        assert exc.value.code == 2
        assert "is not an integer" in capsys.readouterr().err
        code, out, err = run_cli(["verify", "--pair", "gamma0:5/gamma1:5",
                                  "--offset-bound", "3"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("modmult: InvalidOffsetBound: ")
        for argv in [
                ["signature", "--group", "gamma1:4"],
                ["dims", "--group", "gamma0:11", "--weights", "2..30",
                 "--kind", "S", "--format", "json"],
                ["mult", "--pair", "SL2Z/gamma:2", "--weights", "2..20"],
                ["verify", "--pair", "gamma:2/gamma:4", "--kmax", "60"],
                ["signature", "--group", "SL2Z", "--format", "json"],
                ["mult", "--pair", "gamma0:5/gamma1:5", "--weights", "2..9",
                 "--kind", "S", "--split", "--format", "json"]]:
            assert run_cli(argv, capsys) == fresh(argv), argv
        assert len(built) == 1
        cli._parser.cache_clear()

    @pytest.mark.parametrize("weights,ks", [("-4..0", range(-4, 1)),
                                            ("-3", [-3])])
    @pytest.mark.parametrize("command", [
        ["dims", "--group", "gamma0:5"],
        ["mult", "--pair", "gamma0:5/gamma1:5"]], ids=["dims", "mult"])
    def test_negative_weights_after_a_space(self, command, weights, ks,
                                            capsys):
        spaced = self.run(command + ["--weights", weights], capsys)
        joined = self.run(command + [f"--weights={weights}"], capsys)
        assert spaced == joined
        code, out = spaced
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert sorted({int(row["k"]) for row in rows}) == list(ks)
        if command[0] == "dims" and 0 in ks:
            assert rows[-1] == {"k": "0", "dim_M": "1"}

    def test_mult_split_json(self, capsys):
        code, out = self.run(["mult", "--pair", "gamma0:5/gamma1:5",
                              "--weights", "3..3", "--split",
                              "--format", "json"], capsys)
        doc = json.loads(out)["multiplicities"]
        members = [rep for rep in doc if doc[rep].get("3") == 2]
        assert len(members) == 2  # the two members of the odd orbit

    @pytest.mark.xfail(strict=True, reason="mult --split divides an orbit "
                       "total evenly; Riemann-Roch gives the order-15 orbit's "
                       "members 16, 14, 14, 16, 12, 14, 14, 12")
    def test_split_of_unequal_galois_conjugates(self, capsys):
        pair = QuotientPair.build(SubgroupSpec("gamma1", 15),
                                  SubgroupSpec("gamma", 15))
        [orbit] = [rat for rat in pair.rationals if rat.orbit_size == 8]
        code, out = self.run(["mult", "--pair", "gamma1:15/gamma:15",
                              "--weights", "3..3", "--kind", "S", "--split"],
                             capsys)
        assert code == 0
        split = {row["rep"]: int(row["multiplicity"])
                 for row in csv.DictReader(io.StringIO(out))}
        assert len({split[name] for name in orbit.names}) > 1

    def test_verify_refuses_split(self, capsys):
        # verify prints orbit totals only; --split belongs to mult
        from modmult.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--pair", "gamma0:3/gamma:3", "--split"])
        assert exc.value.code == 2
        assert "--split" in capsys.readouterr().err

    def test_verify_exit_zero(self, capsys):
        code, out = self.run(["verify", "--pair", "SL2Z/gamma:2",
                              "--kmax", "60"], capsys)
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_custom_group_file(self, capsys, tmp_path):
        path = tmp_path / "principal2.txt"
        path.write_text("2\n# no generators: the principal congruence group\n")
        code, out = self.run(["signature", "--group", f"custom:{path}",
                              "--format", "json"], capsys)
        doc = json.loads(out)
        assert doc["mu_proj"] == 6
        assert [c["width"] for c in doc["cusps"]] == [2, 2, 2]

    def test_bad_spec_rejected(self, capsys):
        from modmult.cli import main
        with pytest.raises(SystemExit):
            main(["signature", "--group", "gamma9:5"])

    @pytest.mark.parametrize("weights", ["1..1", "0..4", "5..2"])
    @pytest.mark.parametrize("argv", [["dims", "--group", "gamma0:5"],
                                      ["mult", "--pair", "gamma0:5/gamma1:5"]],
                             ids=["dims", "mult"])
    def test_weight_one_and_empty_ranges_rejected(self, argv, weights,
                                                  capsys):
        from modmult.cli import main
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--weights", weights])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"weight range {weights!r}" in captured.err

    @pytest.mark.parametrize("weights,reason", [
        ("x..4", "start 'x'"), ("..4", "start ''"), ("2..y", "end 'y'"),
        ("2..", "end ''"), ("2..4.5", "end '4.5'"), ("x", "weight 'x'")])
    def test_non_integer_weight_ends_rejected(self, weights, reason, capsys):
        from modmult.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["dims", "--group", "gamma0:5", "--weights", weights])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"weight range {weights!r}: {reason} is not an integer" \
            in captured.err

    @pytest.mark.parametrize("argv,error", CLI_ERRORS, ids=CLI_ERROR_IDS)
    def test_typed_error_is_one_line_with_status_2(self, argv, error,
                                                   capsys, tmp_path):
        argv = list(argv)
        if "--table" in argv:
            i = argv.index("--table") + 1
            path = tmp_path / f"{argv[i]}.json"
            path.write_text(json.dumps(s3_table_doc(argv[i])))
            argv[i] = str(path)
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"modmult: {error}: ")
        assert err.count("\n") == 1

    def test_not_a_group(self, capsys, tmp_path):
        path = tmp_path / "singular.txt"
        path.write_text("2\n1 1 1 1\n")
        code, _, err = run_cli(["signature", "--group", f"custom:{path}"],
                                capsys)
        assert (code, err) == (2, "modmult: NotAGroup: matrix (1, 1, 1, 1) "
                                  "has determinant != 1 mod 2\n")

    def test_failed_verify_keeps_status_1(self, capsys):
        # no offset within bound 0 for std (it needs 8): a FAIL report
        code, out, err = run_cli(["verify", "--pair", "SL2Z/gamma:2",
                                   "--kmax", "60", "--offset-bound", "0"],
                                  capsys)
        assert code == 1
        assert json.loads(out)["pass"] is False
        assert err == ""

    def test_table_file_accepted(self, capsys, tmp_path):
        path = tmp_path / "s3.json"
        path.write_text(json.dumps(s3_table_doc()))
        code, out, _ = run_cli(["verify", "--pair", "SL2Z/gamma:2",
                                 "--kmax", "60", "--table", str(path)], capsys)
        assert code == 0 and json.loads(out)["pass"] is True

    def test_table_class_rep_outside_gamma(self, capsys, tmp_path):
        from test_reps import table_to_doc
        for pair, rep in (
                # S is in SL2(Z/5) but not in Gamma0(5): bottom-row keys
                ("gamma0:5/gamma1:5", (0, -1, 1, 0)),
                # diag(2, 3) is in SL2(Z/5) but not in Gamma1(5): whole
                # matrices are the keys
                ("gamma1:5/gamma:5", (2, 0, 0, 3))):
            built = QuotientPair.build(*(SubgroupSpec(g.split(":")[0], 5)
                                         for g in pair.split("/")))
            doc = table_to_doc(built.table)
            doc["classes"][1]["rep"] = list(rep)
            path = tmp_path / "outside.json"
            path.write_text(json.dumps(doc))
            code, out, err = run_cli(["verify", "--pair", pair,
                                      "--table", str(path)], capsys)
            assert (code, out) == (2, ""), pair
            assert err == (f"modmult: NotASubgroup: matrix {rep} is not "
                           "in the ambient group\n")

    @pytest.mark.parametrize("pair", ["gamma:12/gamma:24",
                                      "gamma0:13/gamma1:13"])
    def test_table_of_non_characters_rejected(self, pair, capsys, tmp_path):
        # orthonormal rows with two columns swapped pass the degree, Gram
        # and -I checks; the class algebra rejects them, in roots of unity
        # (rows that are not homomorphisms) and written as sums
        from test_reps import SWAPPED_TABLES, swapped_columns_doc
        for sums in (False, True):
            _, doc = swapped_columns_doc(*SWAPPED_TABLES[pair], sums=sums)
            path = tmp_path / "swapped.json"
            path.write_text(json.dumps(doc))
            code, out, err = run_cli(["verify", "--pair", pair, "--table",
                                      str(path)], capsys)
            assert (code, out) == (2, "")
            assert err.startswith("modmult: OrthogonalityFailure: chi")
            assert " is not a character: " in err and err.count("\n") == 1

    @pytest.mark.parametrize("content", [None, "{", "", '"s3.json"'],
                             ids=["missing", "truncated", "empty", "string"])
    def test_unreadable_table_file(self, content, capsys, tmp_path):
        from modmult.cli import main
        path = tmp_path / "table.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--pair", "SL2Z/gamma:2", "--table", str(path)])
        assert exc.value.code == 2
        assert str(path) in capsys.readouterr().err


class TestWeightBound:
    """More than MAX_WEIGHTS weights are refused before any is read; no
    test here runs a command's work, so a missing guard fails them without
    allocating the weights."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        import modmult.cli

        def refused(*args, **kwargs):
            raise AssertionError("the command ran past its arguments")

        for name in ("dims", "pair_series", "run_verify"):
            monkeypatch.setattr(modmult.cli, name, refused)

    def test_config_refuses_kmax_past_bound(self):
        from modmult.verify import MAX_WEIGHTS, TooManyWeights
        g, g1 = SubgroupSpec("gamma0", 5), SubgroupSpec("gamma1", 5)
        for kmax in (MAX_WEIGHTS + 1, 10 ** 11):
            with pytest.raises(TooManyWeights, match=f"^kmax {kmax} asks for "
                                                     f"more than {MAX_WEIGHTS} "
                                                     f"weights$"):
                VerificationConfig(g, g1, kmax=kmax)

    def test_config_accepts_kmax_at_bound(self):
        # constructed only: running it reads MAX_WEIGHTS weights
        from modmult.verify import MAX_WEIGHTS
        config = VerificationConfig(SubgroupSpec("gamma0", 5),
                                    SubgroupSpec("gamma1", 5),
                                    kmax=MAX_WEIGHTS)
        assert config.kmax == MAX_WEIGHTS

    def test_parse_weights_refuses_ranges_past_bound(self):
        import argparse

        from modmult.cli import parse_weights
        from modmult.verify import MAX_WEIGHTS
        # 10**40 is past sys.maxsize, where len() of a range overflows
        for end in (MAX_WEIGHTS + 2, 10 ** 11, 10 ** 40):
            text = f"2..{end}"
            with pytest.raises(argparse.ArgumentTypeError,
                               match=f"^weight range '{text}' holds more "
                                     f"than {MAX_WEIGHTS} weights$"):
                parse_weights(text)

    def test_parse_weights_accepts_range_at_bound(self):
        from modmult.cli import parse_weights
        from modmult.verify import MAX_WEIGHTS
        assert len(parse_weights(f"2..{MAX_WEIGHTS + 1}")) == MAX_WEIGHTS
        assert len(parse_weights(f"{-MAX_WEIGHTS + 1}..0")) == MAX_WEIGHTS

    def test_verify_refuses_huge_kmax_in_one_line(self, no_work, capsys):
        code, out, err = run_cli(["verify", "--pair", "gamma0:5/gamma1:5",
                                  "--kmax", "100000000000"], capsys)
        assert (code, out) == (2, "")
        assert err == ("modmult: TooManyWeights: kmax 100000000000 asks for "
                       "more than 100000 weights\n")

    @pytest.mark.parametrize("argv", [["dims", "--group", "gamma0:5"],
                                      ["mult", "--pair", "gamma0:5/gamma1:5"]],
                             ids=["dims", "mult"])
    def test_huge_weight_range_rejected(self, argv, no_work, capsys):
        from modmult.cli import main
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--weights", "2..100000000000"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: argument --weights: weight range "
                                     "'2..100000000000' holds more than "
                                     "100000 weights\n")


class TestVerificationScript:
    """scripts/run_verification.py exits 1 when a pair fails, so a typed
    error is one stderr line with status 2, as the modmult command gives."""

    @pytest.fixture
    def script_main(self):
        import importlib.util
        from pathlib import Path
        path = (Path(__file__).resolve().parents[1] / "scripts"
                / "run_verification.py")
        spec = importlib.util.spec_from_file_location("run_verification", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.main

    @pytest.mark.parametrize("kmax,line", [
        ("10", "WindowTooSmall: kmax 10 below slope window bound 41"),
        ("200000", "TooManyWeights: kmax 200000 asks for more than 100000 "
                   "weights")], ids=["small", "huge"])
    def test_typed_error_in_one_line(self, script_main, kmax, line, capsys,
                                     tmp_path):
        assert script_main(["--kmax", kmax, "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"run_verification: {line}\n"
        assert list(tmp_path.iterdir()) == []

    def test_refused_run_makes_no_directory(self, script_main, tmp_path):
        out = tmp_path / "new"
        assert script_main(["--kmax", "10", "--out", str(out)]) == 2
        assert not out.exists()


class TestParseSpecs:
    def test_pair_with_absolute_custom_paths(self, tmp_path):
        from modmult.cli import parse_pair
        path = tmp_path / "dir.d" / "principal2.txt"
        path.parent.mkdir()
        path.write_text("2\n")
        custom = SubgroupSpec("custom", 2, ())
        assert parse_pair(f"custom:{path}/gamma:4") == (
            custom, SubgroupSpec("gamma", 4))
        assert parse_pair(f"SL2Z/custom:{path}") == (
            SubgroupSpec("full", 1), custom)
        assert parse_pair(f"custom:{path}/custom:{path}") == (custom, custom)

    def test_pair_without_second_spec(self):
        import argparse
        from modmult.cli import parse_pair
        with pytest.raises(argparse.ArgumentTypeError, match="bad group spec"):
            parse_pair("gamma0:5/foo")
        with pytest.raises(argparse.ArgumentTypeError, match="<spec>/<spec>"):
            parse_pair("gamma0:5")

    @pytest.mark.parametrize("content", [None, "", "# only a comment\n"],
                             ids=["missing", "empty", "comment-only"])
    def test_bad_custom_file(self, content, capsys, tmp_path):
        from modmult.cli import main
        path = tmp_path / "group.txt"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main(["signature", "--group", f"custom:{path}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"custom group file {str(path)!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,reason", [
        (["verify", "--pair", "gamma0:0/gamma1:0"],
         "argument --pair: group spec 'gamma0:0': level must be positive"),
        (["signature", "--group", "gamma0:-3"],
         "argument --group: group spec 'gamma0:-3': level must be positive"),
        (["signature", "--group", "gamma1:x"],
         "argument --group: group spec 'gamma1:x': level 'x' is not an "
         "integer"),
    ], ids=["pair-level-0", "group-level-negative", "group-level-text"])
    def test_bad_level_says_why(self, argv, reason, capsys):
        from modmult.cli import main
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: {reason}\n")
        assert "invalid parse_" not in err

    @pytest.mark.parametrize("content,reason", [
        ("0\n", "level must be positive"),
        ("-2\n1 1 0 1\n", "level must be positive"),
        ("four\n", "level 'four' is not an integer"),
        ("4\n1 1 0 one\n", "generator entry 'one' is not an integer"),
        ("4\n1 1/2 0 1\n", "generator entry '1/2' is not an integer"),
        ("4\n1 1 0\n", "generators need four integers per line"),
        ("4 1 1 0 1\n", "the level line must hold the level alone"),
    ], ids=["level-0", "level-negative", "level-text", "entry-text",
            "entry-fraction", "three-entries", "level-line-extra"])
    def test_bad_custom_file_says_why(self, content, reason, capsys,
                                      tmp_path):
        import argparse
        from modmult.cli import main, parse_group_spec
        path = tmp_path / "group.txt"
        path.write_text(content)
        message = f"custom group file {str(path)!r}: {reason}"
        with pytest.raises(argparse.ArgumentTypeError) as exc:
            parse_group_spec(f"custom:{path}")
        assert str(exc.value) == message
        with pytest.raises(SystemExit) as exc:
            main(["signature", "--group", f"custom:{path}"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument --group: "
                                                f"{message}\n")
