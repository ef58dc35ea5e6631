"""Command-line driver.

Subcommands:
  construct  build the modular equilateral set (optionally its
             midpoints and the embedding into standard coordinates)
             and write certificates
  verify     re-derive a certificate's claim from its raw points
  search     run the exhaustive oracle and write a search certificate
  tables     print sharp dimensions, admissible characteristics,
             rank-law and eigenvalue-collapse tables

Exit codes: 0 success / verified / exhausted, 1 verification failure or
construction obstruction, 2 usage or schema error, 3 search budget hit.
"""

import argparse
import sys

from . import certificate, construct, geometry, search, srg
from .field import field_make
from .linalg import NotIsometric, gram_rank_law

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _make_field(args):
    try:
        return field_make(args.p, args.k)
    except ValueError as exc:  # NotPrime etc. are ValueErrors
        raise UsageError(str(exc))


class UsageError(Exception):
    pass


def _midpoint_out_path(path):
    if path.endswith(".json"):
        return path[:-len(".json")] + ".midpoints.json"
    return path + ".midpoints"


def cmd_construct(args):
    f = _make_field(args)
    try:
        params = construct.ModularParams(f, args.d, args.b)
    except construct.NotModular:
        raise UsageError("p does not divide d+2 (p=%d, d=%d)" % (args.p, args.d))
    except construct.ZeroScale:
        raise UsageError("scale b must be nonzero")
    s = construct.modular_equilateral(params)
    if args.embed == "standard":
        try:
            s = construct.embed_standard(s)
        except NotIsometric as exc:
            print("embedding failed: %s" % exc, file=sys.stderr)
            return EXIT_FAIL
    d = params.d
    meta = certificate.construction_meta(
        "modular_equilateral", params,
        certificate.bounds_block(d, len(s), f, target="equilateral"))
    cert = certificate.make(
        s, certificate.equilateral_claim(f, params.delta), meta)
    certificate.write(cert, args.out)
    print("wrote %s (%d equilateral points)" % (args.out, len(s)))
    if args.midpoints:
        mid = construct.midpoints(s)
        n = len(s)
        mmeta = certificate.construction_meta(
            "midpoints", params,
            certificate.bounds_block(d, len(mid.points), f))
        mmeta["source_equilateral"] = {"p": args.p, "k": args.k, "d": d,
                                       "b": mmeta["b"]}
        if n >= 4:
            report = srg.srg_check(mid.graph, srg.expected_params(n))
            report["n"] = n
            mmeta["srg_report"] = report
        claim = certificate.two_distance_claim(f, mid.d4, mid.d2)
        mcert = certificate.make(mid.points, claim, mmeta)
        mpath = _midpoint_out_path(args.out)
        certificate.write(mcert, mpath)
        print("wrote %s (%d midpoints)" % (mpath, len(mid.points)))
    return EXIT_OK


def cmd_verify(args):
    try:
        report = certificate.verify(args.path)
    except certificate.SchemaError as exc:
        print("schema error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except certificate.VerificationFailure as exc:
        print("verification failed: %s" % exc, file=sys.stderr)
        return EXIT_FAIL
    if report.get("srg") == "skipped":
        print("note: SRG recheck skipped (no meta.srg_report)",
              file=sys.stderr)
    print("verified: %s, %d points" % (report["classification"],
                                       report["n_points"]))
    return EXIT_OK


def cmd_search(args):
    f = _make_field(args)
    fixed = None
    if args.fix_values:
        try:
            fixed = [int(v) for v in args.fix_values.split(",")]
        except ValueError:
            raise UsageError("--fix-values must be comma-separated integers")
    try:
        problem = search.SearchProblem(
            f, args.d, args.mode, fixed_values=fixed,
            budget_secs=args.budget_secs, canonical=args.canonical)
    except (search.TooLarge, ValueError) as exc:
        raise UsageError(str(exc))
    if args.mode == search.MODE_EQUILATERAL:
        result = search.max_equilateral(problem)
    else:
        result = search.max_two_distance(problem)
    meta = {
        "search": {
            "mode": args.mode,
            "max_size": result.max_size,
            "exhausted": result.exhausted,
            "nodes": result.stats["nodes"],
            "seconds": round(result.stats["seconds"], 3),
        },
        "dimension": args.d,
        "bounds": certificate.bounds_block(args.d, result.max_size, f),
    }
    if result.bound_status is not None:
        meta["search"]["bound_status"] = result.bound_status
        meta["search"]["both_values"] = result.both_values
    if args.out and result.max_size >= 2:
        cls = geometry.classify(result.witness)
        if isinstance(cls, geometry.Equilateral):
            claim = certificate.equilateral_claim(f, cls.delta)
        elif isinstance(cls, geometry.TwoDistance):
            a, b = sorted(cls.values)
            claim = certificate.two_distance_claim(f, a, b)
        else:
            raise AssertionError("search witness must be equilateral or "
                                 "two-distance, got %r" % cls)
        # stats vary run to run; strip them in canonical mode so the
        # file is byte-stable
        if args.canonical:
            del meta["search"]["nodes"]
            del meta["search"]["seconds"]
        cert = certificate.make(result.witness, claim, meta)
        certificate.write(cert, args.out)
    print("max %s size in GF(%d^%d)^%d: %d (%s)"
          % (args.mode, args.p, args.k, args.d, result.max_size,
             "exhausted" if result.exhausted else "budget hit"))
    return EXIT_OK if result.exhausted else EXIT_BUDGET


def cmd_tables(args):
    if args.d is not None:
        chars = construct.admissible_chars(args.d)
        if chars:
            print("d=%d: admissible odd characteristics %s"
                  % (args.d, ", ".join(map(str, chars))))
        else:
            print("d=%d: none (d+2 is a power of two)" % args.d)
        return EXIT_OK
    if args.p is None or args.max_d is None:
        raise UsageError("tables needs either --d or both --p and --max-d")
    f = _make_field(args)
    dims = construct.sharp_dimensions(args.p, args.max_d)
    print("sharp dimensions for p=%d up to d=%d: %s"
          % (args.p, args.max_d, ", ".join(map(str, dims)) or "none"))
    print("rank of I+J (size n-1) over GF(%d):" % args.p)
    for n in range(2, args.max_d + 3):
        print("  n=%2d  rank=%2d  (%s)" % (
            n, gram_rank_law(n, f),
            "p | n: drops to n-2" if n % args.p == 0 else "n-1"))
    print("eigenvalue collapse mod %d:" % args.p)
    for n in range(4, args.max_d + 3):
        rep = srg.eigen_collapse(n, args.p)
        print("  n=%2d  2(n-2)=%d  n-4=%d  collapse=%s  third distinct=%s"
              % (n, rep["top_mod_p"], rep["mid_mod_p"],
                 rep["collapse"], rep["third_distinct"]))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ffdist",
        description="equilateral and two-distance point sets over finite fields")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="modular equilateral construction")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--k", type=int, default=1)
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--b", type=int, default=1,
                   help="nonzero scale, an element encoding taken mod q")
    c.add_argument("--midpoints", action="store_true",
                   help="also emit the midpoint two-distance certificate")
    c.add_argument("--embed", choices=["ambient", "standard"],
                   default="ambient")
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="re-verify a certificate file")
    v.add_argument("path")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("search", help="exhaustive oracle search")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--k", type=int, default=1)
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--mode", choices=[search.MODE_EQUILATERAL,
                                      search.MODE_TWO_DISTANCE],
                   required=True)
    s.add_argument("--fix-values", default=None,
                   help="comma-separated element encodings, taken mod q")
    s.add_argument("--budget-secs", type=float, default=60.0)
    s.add_argument("--canonical", action="store_true",
                   help="deterministic lexicographically-least witness")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_search)

    t = sub.add_parser("tables", help="reference tables")
    t.add_argument("--p", type=int, default=None)
    t.add_argument("--k", type=int, default=1)
    t.add_argument("--max-d", type=int, default=None)
    t.add_argument("--d", type=int, default=None)
    t.set_defaults(func=cmd_tables)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
