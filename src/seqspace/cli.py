"""Command-line surface: classify, witness, norm, and scan.

Exit codes: 0 success, 2 invalid input, 3 a certificate or cross-check
failed, 4 a resource cap was exceeded.  Floating-point output is printed
with 17 significant digits (lossless to re-parse); rationals print as
"p/q".  For witness, norm and scan, ``--cap`` sets the index cap, which every
weight, window and prefix read honours, exact ones included.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from .exceptions import CapExceededError, CertificationError, InputError
from .functionals import _digit_limit, _value_to_string
from .norms import garling_norm, lorentz_norm
from .oracles import garling_norm_bruteforce
from .weights import DEFAULT_INDEX_CAP, WeightFamily, parse_weight_spec
from .witness import (
    DEFAULT_SLACK,
    find_block_lengths,
    load_certificate_json,
    reverify_certificate_dict,
    verify_certificate,
)


def _family(args) -> WeightFamily:
    if not args.family:
        raise InputError("a weight family is required (-w)")
    return parse_weight_spec(args.family, index_cap=args.cap)


def _emit_json(data: dict) -> None:
    print(json.dumps(data, indent=2))


def cmd_classify(args) -> int:
    fam = _family(args)
    c = fam.classify()
    report = {
        "family": fam.spec,
        "branch": c.branch.value,
        "constant": None if c.constant is None else _value_to_string(c.constant),
        "evidence": c.evidence,
    }
    if args.output == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["family", "branch", "constant", "evidence"])
        writer.writerow(
            [report["family"], report["branch"], report["constant"] or "", report["evidence"]]
        )
    else:
        _emit_json(report)
    return 0


def cmd_witness(args) -> int:
    if args.verify_only:
        # the certificate fixes the family, mode and blocks
        search = {"-r": args.r, "-w": args.family, "--mode": args.mode, "--slack": args.slack}
        for flag, value in search.items():
            if value is not None:
                raise InputError(f"{flag} does not act with --verify-only")
        data = load_certificate_json(args.verify_only)
        cert = reverify_certificate_dict(data, cap=args.cap)
        _emit_json(cert.to_json_dict())
        return 0
    if args.r is None:
        raise InputError("witness requires -r (blocks to build) or --verify-only")
    fam = _family(args)
    mode = args.mode or "float"
    slack = DEFAULT_SLACK if args.slack is None else args.slack
    d = find_block_lengths(fam, args.r, slack=slack, mode=mode)
    cert = verify_certificate(fam, d, mode=mode)
    _emit_json(cert.to_json_dict())
    return 0


def _load_vector(path: str) -> list[float]:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read vector file {path}: {exc}") from exc
    if not isinstance(data, list) or not data:
        raise InputError("vector file must be a non-empty JSON array")
    out = []
    for entry in data:
        try:
            if isinstance(entry, (int, float)) and not isinstance(entry, bool):
                out.append(float(entry))
            elif isinstance(entry, str):
                out.append(float(Fraction(entry)) if "/" in entry else float(entry))
            else:
                raise InputError(f"bad vector entry {entry!r}")
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad vector entry {entry!r}") from exc
        except OverflowError as exc:
            raise InputError("vector entries must be finite") from exc
    return out


def cmd_norm(args) -> int:
    fam = _family(args)
    b = _load_vector(args.vector)
    gar = garling_norm(b, fam, args.p)
    lor = lorentz_norm(b, fam, args.p)
    report = {
        "family": fam.spec,
        "p": _value_to_string(args.p),
        "garling": {
            "value": _value_to_string(gar.value),
            "p": _value_to_string(gar.p),
            "selector": [int(i) for i in gar.selector],
        },
        "lorentz": {
            "value": _value_to_string(lor.value),
            "p": _value_to_string(lor.p),
            "selector": [int(i) for i in lor.selector],
        },
    }
    if args.oracle:
        reference = garling_norm_bruteforce(b, fam, args.p)
        report["oracle"] = {"garling": _value_to_string(reference)}
        if not math.isclose(reference, gar.value, rel_tol=1e-9, abs_tol=1e-12):
            _emit_json(report)
            raise CertificationError(
                f"selection norm {gar.value!r} disagrees with the subset "
                f"enumeration {reference!r}"
            )
    _emit_json(report)
    return 0


SCAN_COLUMNS = [
    "r",
    "d_r",
    "A",
    "B",
    "ratio",
    "certified",
    "symmetric_defect",
    "inclusion_gap",
]


def cmd_scan(args) -> int:
    if args.rmax < 1:
        raise InputError(f"--rmax must be >= 1, got {args.rmax}")
    fam = _family(args)
    writer = csv.writer(sys.stdout)
    d: list[int] = []
    for r in range(1, args.rmax + 1):
        d = find_block_lengths(fam, r, slack=args.slack, mode=args.mode, initial=d)
        cert = verify_certificate(fam, d, mode=args.mode)
        # the reversal defect and the inclusion gap of the witness are both A / B
        defect = _value_to_string(float(cert.ratio))
        if r == 1:  # the header follows the first row's precondition checks
            writer.writerow(SCAN_COLUMNS)
        writer.writerow(
            [
                r,
                d[-1],
                _value_to_string(cert.A_value),
                _value_to_string(cert.B_value),
                _value_to_string(cert.ratio),
                _value_to_string(r / 6.0),
                defect,
                defect,
            ]
        )
        sys.stdout.flush()
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "-w",
        dest="family",
        metavar="FAMILY",
        help="weight family: power:A | harmonic | ctail:C | explicit:FILE.json",
    )


def _add_search(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--mode", choices=("float", "rational"), default="float", help="arithmetic mode"
    )
    sub.add_argument(
        "--slack",
        type=float,
        default=DEFAULT_SLACK,
        help="multiplicative search margin in [0, 0.1]",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqspace",
        description="Weighted sequence-space norms, pairing functionals, "
        "and certified block witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify", help="summable / bounded-below / vanishing-non-summable verdict"
    )
    _add_common(p_classify)
    p_classify.add_argument(
        "--output", choices=("json", "csv"), default="json", help="report format"
    )
    p_classify.set_defaults(func=cmd_classify, cap=DEFAULT_INDEX_CAP)  # no cap acts here

    p_witness = sub.add_parser(
        "witness", help="build and certify a block witness, or re-check one"
    )
    _add_common(p_witness)
    _add_search(p_witness)
    p_witness.add_argument("-r", type=int, default=None, help="number of blocks")
    p_witness.add_argument(
        "--verify-only",
        metavar="FILE",
        default=None,
        help="re-derive an existing certificate from scratch",
    )
    # None marks a search flag left unset, which --verify-only requires
    p_witness.set_defaults(func=cmd_witness, mode=None, slack=None)

    p_norm = sub.add_parser("norm", help="selection and rearranged norms of a vector")
    _add_common(p_norm)
    p_norm.add_argument("vector", help="JSON array of decimal or 'p/q' strings")
    p_norm.add_argument("-p", type=float, default=1.0, help="norm exponent >= 1")
    p_norm.add_argument(
        "--oracle", action="store_true", help="cross-check against brute force"
    )
    p_norm.set_defaults(func=cmd_norm)

    p_scan = sub.add_parser(
        "scan", help="per-r CSV: blocks, bounds, ratio, defect, and gap"
    )
    _add_common(p_scan)
    _add_search(p_scan)
    p_scan.add_argument("-r", "--rmax", dest="rmax", type=int, default=3)
    p_scan.set_defaults(func=cmd_scan)
    for p_capped in (p_witness, p_norm, p_scan):
        p_capped.add_argument("--cap", type=int, default=DEFAULT_INDEX_CAP, help="index cap")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # exact certificates carry integers of any length: lift the interpreter's
    # integer/string digit limit (Python >= 3.10.7) for this call only
    limit = _digit_limit()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 3
    except CapExceededError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 4
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())
