"""Command-line interface: modmult {signature, dims, mult, verify}."""
from __future__ import annotations

import argparse
import csv
import functools
import json
import re
import sys

from . import ModmultError
from .cosets import subgroup_signature
from .dimensions import DimTable
from .reps import QuotientPair, pair_series
from .sl2 import DEFAULT_LEVEL_CAP, SubgroupSpec, realize
from .verify import (MAX_WEIGHTS, VerificationConfig, run_verify,
                     signature_record)

# a '/' that starts the second spec of a pair; custom paths may contain '/'
_SECOND_SPEC = re.compile(r"/(?=SL2Z$|gamma0:|gamma1:|gamma:|custom:)")


def parse_group_spec(text: str) -> SubgroupSpec:
    """Grammar: SL2Z | gamma0:N | gamma1:N | gamma:N | custom:<path>.

    A custom file starts with a line holding the level alone, followed by
    one generator per line as four integers a b c d.
    """
    if text == "SL2Z":
        return SubgroupSpec("full", 1)
    if ":" not in text:
        raise argparse.ArgumentTypeError(f"bad group spec {text!r}")
    kind, _, arg = text.partition(":")
    if kind in ("gamma0", "gamma1", "gamma"):
        where = f"group spec {text!r}"
        return _subgroup_spec(where, kind, _integer(where, "level", arg))
    if kind == "custom":
        where = f"custom group file {arg!r}"
        try:
            with open(arg) as fh:
                lines = [ln.split() for ln in fh if ln.strip()
                         and not ln.lstrip().startswith("#")]
        except OSError as exc:
            raise argparse.ArgumentTypeError(
                f"cannot read {where}: {exc.strerror}") from None
        if not lines:
            raise argparse.ArgumentTypeError(f"{where} has no level line")
        if len(lines[0]) != 1:
            raise argparse.ArgumentTypeError(
                f"{where}: the level line must hold the level alone")
        level = _integer(where, "level", lines[0][0])
        gens = tuple(tuple(_integer(where, "generator entry", x) for x in row)
                     for row in lines[1:])
        if any(len(g) != 4 for g in gens):
            raise argparse.ArgumentTypeError(
                f"{where}: generators need four integers per line")
        return _subgroup_spec(where, "custom", level, gens)
    raise argparse.ArgumentTypeError(f"unknown group kind {kind!r}")


def _integer(where: str, what: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{where}: {what} {text!r} is not an integer") from None


def _subgroup_spec(where: str, kind: str, level: int, gens=()) -> SubgroupSpec:
    try:
        return SubgroupSpec(kind, level, gens)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{where}: {exc}") from None


def parse_weights(text: str) -> range:
    lo, sep, hi = text.partition("..")
    where = f"weight range {text!r}"
    start = _integer(where, "start" if sep else "weight", lo)
    weights = range(start, (_integer(where, "end", hi) if sep else start) + 1)
    if not weights:
        raise argparse.ArgumentTypeError(f"weight range {text!r} is empty")
    # not len(weights), which overflows past sys.maxsize
    if weights.stop - weights.start > MAX_WEIGHTS:
        raise argparse.ArgumentTypeError(
            f"weight range {text!r} holds more than {MAX_WEIGHTS} weights")
    if 1 in weights:
        raise argparse.ArgumentTypeError(
            f"weight range {text!r} contains k = 1, which is not supported")
    return weights


def parse_pair(text: str) -> tuple[SubgroupSpec, SubgroupSpec]:
    cut = _SECOND_SPEC.search(text) or re.search("/", text)
    if cut is None:
        raise argparse.ArgumentTypeError("pair must be <spec>/<spec>")
    return (parse_group_spec(text[:cut.start()]),
            parse_group_spec(text[cut.end():]))


def parse_table_file(path: str) -> dict:
    """Read a character-table JSON file; the loader validates its content."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot read character table {path!r}: {exc.strerror}") from None
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"character table {path!r} is not JSON: {exc}") from None
    # the loader reads the keys of one JSON object
    if not isinstance(doc, dict):
        raise argparse.ArgumentTypeError(
            f"character table {path!r} is not a JSON object")
    return doc


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def cmd_signature(args) -> int:
    K = realize(args.group, level_cap=args.level_cap)
    sig = subgroup_signature(K)
    record = signature_record(sig)
    if args.format == "json":
        print(_dump_json(record))
    else:
        print(f"group       {args.group.label()}")
        print(f"genus       {record['genus']}")
        print(f"nu2, nu3    {record['nu2']}, {record['nu3']}")
        cusps = " ".join(f"{c['width']}{'' if c['regular'] else '*'}"
                         for c in record["cusps"])
        print(f"cusps       {cusps}   (* = irregular)")
        print(f"mu_proj     {record['mu_proj']}")
        print(f"mu_sl       {record['mu_sl']}")
        print(f"minus_I     {record['minus_I']}")
        print(f"c           {record['c']}")
    return 0


def cmd_dims(args) -> int:
    K = realize(args.group, level_cap=args.level_cap)
    sig = subgroup_signature(K)
    rows = list(zip(args.weights, DimTable(sig).read(args.kind, args.weights)))
    if args.format == "json":
        print(_dump_json({"group": args.group.label(), "kind": args.kind,
                          "dims": {str(k): d for k, d in rows}}))
    else:
        w = csv.writer(sys.stdout)
        w.writerow(["k", f"dim_{args.kind}"])
        w.writerows(rows)
    return 0


def cmd_mult(args) -> int:
    g, g1 = args.pair
    pair = QuotientPair.build(g, g1, table_source=args.table,
                              level_cap=args.level_cap)
    out = []
    for rat, series in zip(pair.rationals, pair_series(
            pair, args.kind, args.weights, split=args.split)):
        values = series.per_member if args.split else series.entries
        for name in rat.names if args.split else [series.rep_label]:
            out += [(name, k, values[k]) for k in args.weights]
    if args.format == "json":
        doc = {}
        for rep, k, v in out:
            doc.setdefault(rep, {})[str(k)] = v
        print(_dump_json({"pair": f"{g.label()}/{g1.label()}",
                          "kind": args.kind, "multiplicities": doc}))
    else:
        w = csv.writer(sys.stdout)
        w.writerow(["rep", "k", "multiplicity"])
        w.writerows(out)
    return 0


def cmd_verify(args) -> int:
    g, g1 = args.pair
    config = VerificationConfig(
        gamma_spec=g, gamma1_spec=g1, kmax=args.kmax,
        offset_bound=args.offset_bound, table_source=args.table,
        level_cap=args.level_cap,
    )
    report = run_verify(config)
    print(_dump_json(report))
    return 0 if report["pass"] else 1


SPLIT_HELP = ("print each orbit total divided evenly among the orbit's "
              "members. Galois conjugates need not have equal multiplicity, "
              "so an even split is printed whenever the total divides and "
              "can be wrong (gamma1:15/gamma:15, S at k=3); a total that "
              "does not divide raises IndivisibleOrbitTotal (gamma0:3/"
              "gamma:3 at k=7, where an orbit of 2 characters has total 5)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="modmult",
        description="Exact multiplicities of quotient-group characters in "
                    "spaces of modular forms, with slope verification.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--level-cap", type=int, default=DEFAULT_LEVEL_CAP,
                        help="guard on the enumeration level N")

    sp = sub.add_parser("signature", help="print the Fuchsian signature")
    sp.add_argument("--group", type=parse_group_spec, required=True)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    common(sp)
    sp.set_defaults(func=cmd_signature)

    sp = sub.add_parser("dims", help="exact dimensions of M_k or S_k")
    sp.add_argument("--group", type=parse_group_spec, required=True)
    sp.add_argument("--weights", type=parse_weights, required=True,
                    metavar="a..b")
    sp.add_argument("--kind", choices=("M", "S"), default="M")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    common(sp)
    sp.set_defaults(func=cmd_dims)

    sp = sub.add_parser("mult", help="exact multiplicities per character")
    sp.add_argument("--pair", type=parse_pair, required=True,
                    metavar="SPEC/SPEC")
    sp.add_argument("--weights", type=parse_weights, required=True,
                    metavar="a..b")
    sp.add_argument("--kind", choices=("M", "S"), default="M")
    sp.add_argument("--table", type=parse_table_file, default=None,
                    help="character table JSON for nonabelian quotients")
    sp.add_argument("--split", action="store_true", help=SPLIT_HELP)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    common(sp)
    sp.set_defaults(func=cmd_mult)

    sp = sub.add_parser("verify", help="run the full verification harness")
    sp.add_argument("--pair", type=parse_pair, required=True,
                    metavar="SPEC/SPEC")
    sp.add_argument("--kmax", type=int, default=100)
    sp.add_argument("--offset-bound", type=int, default=24)
    sp.add_argument("--table", type=parse_table_file, default=None)
    sp.add_argument("--format", choices=("json",), default="json")
    common(sp)
    sp.set_defaults(func=cmd_verify)
    return p


# a weight or weight range with a negative start, which argparse would
# take for an option
_NEGATIVE_WEIGHTS = re.compile(r"-\d+(\.\..*)?")


def _join_negative_weights(argv: list[str]) -> list[str]:
    """argv with '--weights -a..b' written '--weights=-a..b'."""
    out = []
    for arg in argv:
        if out and out[-1] == "--weights" and _NEGATIVE_WEIGHTS.fullmatch(arg):
            out[-1] = f"--weights={arg}"
        else:
            out.append(arg)
    return out


# built on the first call, not at import, and reused by every later call
@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(_join_negative_weights(argv))
    # every typed error of modmult is reported in one line, with status 2
    try:
        return args.func(args)
    except ModmultError as exc:
        print(f"modmult: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
