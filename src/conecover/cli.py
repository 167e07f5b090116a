"""Command line interface.

Every command writes pure data (JSON, one object per line for streams) to
stdout; diagnostics go to stderr.  Exit codes encode the verdict: 0 for a
positive answer, 1 for a negative one, 2 when undecided or when the input
could not be read.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import Counter

from .angles import decide_admissible, parse_angles
from .branch_data import (
    BranchDatum,
    enumerate_data,
    parse_datum,
    read_decimal,
    require_int,
    validate_datum,
)
from .families import FAMILIES, FAMILY_IDS, all_instances
from .lift import (
    VERDICT_CERTIFIED,
    VERDICT_ORACLE,
    VERDICT_REALIZABLE,
    VERDICT_UNKNOWN,
    CertificationRefused,
    ExceptionalityCertificate,
    certify_exceptional,
    classify,
    require_grid_bounds,
    search_certificate,
    verify_certificate,
)
from .monodromy import (
    DEFAULT_BUDGET,
    REALIZABLE,
    UNREALIZABLE,
    MonodromyWitness,
    find_witness,
    verify_witness,
)


def _emit(obj) -> None:
    print(json.dumps(obj))


def _read_json(path: str):
    if path == "-":
        return json.load(sys.stdin, parse_int=read_decimal)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_int=read_decimal)


_INTEGER = re.compile(r"-?[0-9]+")


def _integer(text: str) -> int:
    """The type of every integer option: ASCII digits, optionally after '-'."""
    try:
        if _INTEGER.fullmatch(text):
            return read_decimal(text, "an integer")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError("expected ASCII digits, optionally after '-'")


def _budget(value: int) -> int | None:
    if value < 0:
        raise ValueError(f"--budget must be 0 (unlimited) or positive, got {value}")
    return None if value == 0 else value


def cmd_validate(args) -> int:
    datum = parse_datum(args.datum)
    report = validate_datum(datum)
    out = report.to_json()
    out["datum"] = datum.to_json()
    _emit(out)
    return 0 if report.ok else 1


def cmd_admissible(args) -> int:
    verdict = decide_admissible(parse_angles(args.angles))
    _emit(verdict.to_json())
    return 0 if verdict.admissible else 1


def cmd_certify(args) -> int:
    datum = parse_datum(args.datum)
    if args.beta is None:
        extras = tuple(parse_angles(text) for text in args.extra)
        cert = search_certificate(datum, args.max_numerator, args.max_denominator, extras)
        if cert is None:
            _emit({"certified": False, "reason": "no witness found"})
            return 1
    else:
        try:
            cert = certify_exceptional(datum, parse_angles(args.beta))
        except CertificationRefused as refusal:
            out = {"certified": False, "reason": refusal.kind,
                   "base_verdict": refusal.base_verdict.to_json()}
            if refusal.lifted_verdict is not None:
                out["lifted_verdict"] = refusal.lifted_verdict.to_json()
            _emit(out)
            return 1
    _emit(cert.to_json())
    return 0


def cmd_realize(args) -> int:
    budget = _budget(args.budget)
    datum = parse_datum(args.datum)
    result = find_witness(datum, budget=budget)
    out = {"status": result.status, "nodes": result.nodes, "datum": datum.to_json()}
    if result.witness is not None:
        out["witness"] = result.witness.to_json()
    _emit(out)
    return {REALIZABLE: 0, UNREALIZABLE: 1}.get(result.status, 2)


def cmd_enumerate(args) -> int:
    for datum in enumerate_data(args.degree, args.branch_points):
        _emit(datum.to_json())
    return 0


def cmd_catalog(args) -> int:
    require_grid_bounds(args.max_numerator, args.max_denominator)
    budget = _budget(args.budget)
    summary: dict[int, Counter] = {}
    for degree in range(2, args.max_degree + 1):
        counts: Counter = Counter()
        for datum in enumerate_data(degree, args.branch_points):
            row = classify(datum, args.max_numerator, args.max_denominator, budget)
            counts[row.verdict] += 1
            _emit(row.to_json())
        summary[degree] = counts
    if args.table:
        print(_summary_table(summary))
    else:
        _emit({"summary": {str(d): dict(c) for d, c in summary.items()}})
    return 0


def _summary_table(summary: dict[int, Counter]) -> str:
    verdicts = (VERDICT_REALIZABLE, VERDICT_CERTIFIED, VERDICT_ORACLE, VERDICT_UNKNOWN)
    header = ["degree"] + list(verdicts) + ["total"]
    rows = [header]
    for degree in sorted(summary):
        counts = summary[degree]
        rows.append([str(degree)] + [str(counts.get(v, 0)) for v in verdicts]
                    + [str(sum(counts.values()))])
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    return "\n".join("  ".join(cell.rjust(w) for cell, w in zip(row, widths))
                     for row in rows)


def _parse_params(text: str) -> dict[str, int]:
    params = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, _, value = map(str.strip, piece.partition("="))
        if not _INTEGER.fullmatch(value):
            raise ValueError(f"bad parameter {piece!r}: expected name=integer")
        if name in params:
            raise ValueError(f"parameter {name} is given twice")
        params[name] = read_decimal(value, f"parameter {name}")
    return params


def _build_family(family_id: str, params: dict[str, int]):
    builder, need = FAMILIES[family_id]
    if set(params) != set(need):
        raise ValueError(f"family {family_id} takes parameters {','.join(need)}")
    return builder(*(params[name] for name in need))


def cmd_families(args) -> int:
    if args.degree is not None:
        for instance in all_instances(args.degree):
            _emit(instance.to_json())
        return 0
    instance = _build_family(args.family, _parse_params(args.params or ""))
    _emit(instance.to_json())
    return 0


def cmd_verify_certificate(args) -> int:
    obj = _read_json(args.path)
    cert = ExceptionalityCertificate.from_json(obj)
    valid = verify_certificate(cert)
    _emit({"valid": valid})
    return 0 if valid else 1


def cmd_verify_witness(args) -> int:
    obj = _read_json(args.path)
    raw = obj["datum"]
    datum = parse_datum(raw) if isinstance(raw, str) else BranchDatum.from_json(raw)
    # The degrees are compared before any cycle is parsed, since parsing
    # allocates a permutation of the witness's claimed degree.
    claim = obj["witness"]
    valid = (require_int(claim["degree"], "witness 'degree'") == datum.degree
             and verify_witness(datum, MonodromyWitness.from_json(claim).perms))
    _emit({"valid": valid})
    return 0 if valid else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conecover",
        description="Decide spherical cone-metric admissibility and certify "
                    "exceptional branch data for covers of the sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the combinatorial cover constraints")
    p.add_argument("datum", help="text `d: p,p | p,p` or JSON {degree, rows}")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("admissible", help="decide a cone-angle vector")
    p.add_argument("angles", help="comma-separated exact angles, e.g. 1/2,2/3,2/3")
    p.set_defaults(func=cmd_admissible)

    p = sub.add_parser("certify", help="certify a datum exceptional via angle lifting")
    p.add_argument("datum")
    p.add_argument("--beta", help="try exactly this base vector instead of searching")
    p.add_argument("--extra", action="append", default=[], metavar="ANGLES",
                   help="extra search candidates, tried before the grid")
    p.add_argument("--max-numerator", type=_integer, default=6)
    p.add_argument("--max-denominator", type=_integer, default=6)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("realize", help="search for a monodromy witness")
    p.add_argument("datum")
    p.add_argument("--budget", type=_integer, default=DEFAULT_BUDGET,
                   help="backtrack node limit, 0 for unlimited")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("enumerate", help="stream all valid data, one JSON per line")
    p.add_argument("--degree", type=_integer, required=True)
    p.add_argument("--branch-points", type=_integer, required=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("catalog", help="classify every datum up to a degree")
    p.add_argument("--max-degree", type=_integer, required=True)
    p.add_argument("--branch-points", type=_integer, default=3)
    p.add_argument("--budget", type=_integer, default=DEFAULT_BUDGET,
                   help="oracle node limit, 0 for unlimited")
    p.add_argument("--max-numerator", type=_integer, default=6)
    p.add_argument("--max-denominator", type=_integer, default=6)
    p.add_argument("--table", action="store_true",
                   help="render the summary as a text table")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("families", help="emit known exceptional family instances")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--degree", type=_integer, help="all instances of this degree")
    group.add_argument("--family", choices=FAMILY_IDS)
    p.add_argument("--params", help="family parameters, e.g. k=3,j1=1,j2=2")
    p.set_defaults(func=cmd_families)

    p = sub.add_parser("verify-certificate", help="recheck a certificate JSON file")
    p.add_argument("path", help="file path or - for stdin")
    p.set_defaults(func=cmd_verify_certificate)

    p = sub.add_parser("verify-witness", help="recheck a realize output JSON file")
    p.add_argument("path", help="file path or - for stdin")
    p.set_defaults(func=cmd_verify_witness)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: bad JSON: {exc}", file=sys.stderr)
        return 2
    except (KeyError, TypeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
