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
construction obstruction, 2 usage or schema error or an unwritable
output file, 3 search budget hit.
"""

import argparse
import sys
from functools import partial

from . import certificate, construct, geometry, search, srg
from .field import field_make
from .linalg import LawViolated, NotIsometric, gram_rank_law

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# tables --max-d: the rank table costs about max_d^4 field operations
# (2.7 s at p = 3 and the ceiling, on one core of a 2-vCPU Xeon)
TABLES_MAX_D = 100


def _make_field(args):
    try:
        return field_make(args.p, args.k)
    except ValueError as exc:  # NotPrime etc. are ValueErrors
        raise UsageError(str(exc))


class UsageError(Exception):
    pass


def _write(cert, path, s):
    try:
        certificate.write(cert, path, s)
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (path, exc.strerror or exc))


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
    except ValueError as exc:  # ZeroScale, or a dimension below 1
        raise UsageError(str(exc))
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
    _write(cert, args.out, s)
    print("wrote %s (%d equilateral points)" % (args.out, len(s)))
    if args.midpoints:
        mid = construct.midpoints(s)
        n = len(s)
        mmeta = certificate.construction_meta(
            "midpoints", params,
            certificate.bounds_block(d, len(mid.points), f))
        mmeta["source_equilateral"] = {"p": args.p, "k": args.k, "d": d,
                                       "b": mmeta["b"]}
        if n >= 4:  # construct.midpoints proved the lemma: T(n) holds
            mmeta["srg_report"] = srg.passing_report(n)
            claim = certificate.two_distance_claim(f, mid.d4, mid.d2)
        else:  # the 3 midpoints of a triangle are pairwise at delta/4
            claim = certificate.equilateral_claim(f, mid.d4)
        mcert = certificate.make(mid.points, claim, mmeta)
        mpath = _midpoint_out_path(args.out)
        _write(mcert, mpath, mid.points)
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
            raise LawViolated("search witness must be equilateral or "
                              "two-distance, got %r" % cls)
        # stats vary run to run; strip them in canonical mode so the
        # file is byte-stable
        if args.canonical:
            del meta["search"]["nodes"]
            del meta["search"]["seconds"]
        cert = certificate.make(result.witness, claim, meta)
        _write(cert, args.out, result.witness)
    print("max %s size in GF(%d^%d)^%d: %d (%s)"
          % (args.mode, args.p, args.k, args.d, result.max_size,
             "exhausted" if result.exhausted else "budget hit"))
    if args.out and result.max_size < 2:
        print("note: no certificate written (max size < 2)", file=sys.stderr)
    return EXIT_OK if result.exhausted else EXIT_BUDGET


def cmd_tables(args):
    if args.d is not None:
        try:
            chars = construct.admissible_chars(args.d)
        except ValueError as exc:  # d < 1, or past trial division
            raise UsageError(str(exc))
        if chars:
            print("d=%d: admissible odd characteristics %s"
                  % (args.d, ", ".join(map(str, chars))))
        else:
            print("d=%d: none (d+2 is a power of two)" % args.d)
        return EXIT_OK
    if args.p is None or args.max_d is None:
        raise UsageError("tables needs either --d or both --p and --max-d")
    if args.max_d < 1:
        raise UsageError("--max-d: dimension must be >= 1")
    if args.max_d > TABLES_MAX_D:
        raise UsageError("--max-d: at most %d (the rank table's cost grows "
                         "as max-d^4)" % TABLES_MAX_D)
    f = _make_field(args)
    dims = construct.sharp_dimensions(args.p, args.max_d)
    print("sharp dimensions for p=%d up to d=%d: %s"
          % (args.p, args.max_d, ", ".join(map(str, dims)) or "none"))
    print("rank of I+J (size n-1) over %r:" % f)
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


def _construct_arguments(c):
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


def _verify_arguments(v):
    v.add_argument("path")
    v.set_defaults(func=cmd_verify)


def _search_arguments(s):
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


def _tables_arguments(t):
    t.add_argument("--p", type=int, default=None)
    t.add_argument("--k", type=int, default=1)
    t.add_argument("--max-d", type=int, default=None)
    t.add_argument("--d", type=int, default=None)
    t.set_defaults(func=cmd_tables)


# name -> (help in the command list, adds the command's arguments)
COMMANDS = {
    "construct": ("modular equilateral construction", _construct_arguments),
    "verify": ("re-verify a certificate file", _verify_arguments),
    "search": ("exhaustive oracle search", _search_arguments),
    "tables": ("reference tables", _tables_arguments),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ffdist",
        description="equilateral and two-distance point sets over finite fields")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


class _Reparse(Exception):
    """An argv that only the full parser may report on."""


class _CommandParser(argparse.ArgumentParser):
    """One command's parser; it reports nothing itself.  So the formatter
    that add_argument builds to check each metavar gets a fixed width in
    place of one read from the terminal (shutil.get_terminal_size)."""

    def __init__(self, prog):
        super().__init__(prog=prog, add_help=False, formatter_class=partial(
            argparse.HelpFormatter, width=80))

    def error(self, message):
        raise _Reparse


def parse(argv):
    """Namespace of argv, as build_parser() parses it.

    When argv[0] names a command, only that command's parser is built
    (the full parser costs several times as much). It has no -h, so
    help, like every error, falls through to the full parser, which
    prints the usage and messages and raises SystemExit."""
    if argv and argv[0] in COMMANDS:
        parser = _CommandParser("ffdist " + argv[0])
        COMMANDS[argv[0]][1](parser)
        try:
            return parser.parse_args(
                argv[1:], argparse.Namespace(command=argv[0]))
        except _Reparse:
            pass
    return build_parser().parse_args(argv)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parse(argv)
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
