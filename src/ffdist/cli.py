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

Each command's arguments are data in COMMANDS: parse() reads well-formed
argv from it, and build_parser() builds from it the parser for the rest.
"""

import argparse
import sys

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


def _write(s, path, claim, meta):
    try:
        certificate.write(s, path, claim, meta)
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
    _write(s, args.out, certificate.equilateral_claim(f, params.delta),
           certificate.construction_meta("modular_equilateral", params, s))
    print("wrote %s (%d equilateral points)" % (args.out, len(s)))
    if args.midpoints:
        mid = construct.midpoints(s)
        n = len(s)
        mmeta = certificate.construction_meta("midpoints", params, mid.points)
        mmeta["source_equilateral"] = {"p": args.p, "k": args.k, "d": params.d,
                                       "b": mmeta["b"]}
        if n >= 4:  # construct.midpoints proved the lemma: T(n) holds
            mmeta["srg_report"] = srg.passing_report(n)
            claim = certificate.two_distance_claim(f, mid.d4, mid.d2)
        else:  # the 3 midpoints of a triangle are pairwise at delta/4
            claim = certificate.equilateral_claim(f, mid.d4)
        mpath = _midpoint_out_path(args.out)
        _write(mid.points, mpath, claim, mmeta)
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
    try:  # "" is a usage error too, not an unrestricted search
        fixed = (None if args.fix_values is None
                 else [int(v) for v in args.fix_values.split(",")])
    except ValueError:
        raise UsageError("--fix-values must be comma-separated integers")
    try:
        problem = search.SearchProblem(
            f, args.d, args.mode, fixed_values=fixed,
            budget_secs=args.budget_secs, canonical=args.canonical)
    except (search.TooLarge, ValueError) as exc:
        raise UsageError(str(exc))
    result = (search.max_equilateral if args.mode == search.MODE_EQUILATERAL
              else search.max_two_distance)(problem)
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
        meta = certificate.derived_meta(result.witness, cls)
        if args.mode == search.MODE_EQUILATERAL:  # records its size only
            meta["search"] = {"max_size": meta["search"]["max_size"]}
        meta["search"].update(mode=args.mode, exhausted=result.exhausted)
        if not args.canonical:  # stats vary run to run
            meta["search"].update(nodes=result.stats["nodes"],
                                  seconds=round(result.stats["seconds"], 3))
        _write(result.witness, args.out, claim, meta)
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


# the field and dimension arguments of construct and search
_SPACE = [("--p", dict(type=int, required=True)),
          ("--k", dict(type=int, default=1)),
          ("--d", dict(type=int, required=True))]

# name -> (help in the command list, the command, its arguments: (flag,
# add_argument keywords), a flag without "--" being a positional)
COMMANDS = {
    "construct": ("modular equilateral construction", cmd_construct, [
        *_SPACE,
        ("--b", dict(type=int, default=1,
                     help="nonzero scale, an element encoding taken mod q")),
        ("--midpoints", dict(action="store_true", help="also emit the "
                             "midpoint two-distance certificate")),
        ("--embed", dict(choices=["ambient", "standard"], default="ambient")),
        ("--out", dict(required=True))]),
    "verify": ("re-verify a certificate file", cmd_verify, [("path", {})]),
    "search": ("exhaustive oracle search", cmd_search, [
        *_SPACE,
        ("--mode", dict(choices=[search.MODE_EQUILATERAL,
                                 search.MODE_TWO_DISTANCE], required=True)),
        ("--fix-values", dict(
            help="comma-separated element encodings, taken mod q")),
        ("--budget-secs", dict(type=float, default=60.0)),
        ("--canonical", dict(action="store_true", help="deterministic "
                             "lexicographically-least witness")),
        ("--out", {})]),
    "tables": ("reference tables", cmd_tables, [
        ("--p", dict(type=int)), ("--k", dict(type=int, default=1)),
        ("--max-d", dict(type=int)), ("--d", dict(type=int))]),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ffdist",
        description="equilateral and two-distance point sets over finite fields")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, arguments) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            command.add_argument(flag, **keywords)
        command.set_defaults(func=func)
    return parser


def _read(name, argv):
    """Command name's Namespace of argv, read from its COMMANDS entry, or
    None where build_parser() may read argv otherwise."""
    _, func, arguments = COMMANDS[name]
    keywords = dict(arguments)
    positionals = [flag for flag in keywords if flag[0] != "-"]
    given = {}
    rest = iter(argv)
    for arg in rest:
        if arg[:1] != "-" and positionals:
            given[positionals.pop(0)] = arg
            continue
        flag, eq, value = arg.partition("=")
        kw = keywords.get(flag) if flag[:2] == "--" else None
        if kw is None or flag in given or eq and kw.get("action"):
            return None
        if kw.get("action"):  # store_true
            given[flag] = True
            continue
        if not eq:
            value = next(rest, "-")
        if value[:1] in ("", "-"):
            return None
        try:
            given[flag] = kw.get("type", str)(value)
        except ValueError:
            return None
        if given[flag] not in kw.get("choices", [given[flag]]):
            return None
    args = argparse.Namespace(command=name, func=func)
    for flag, kw in arguments:
        if flag not in given and (kw.get("required") or flag[0] != "-"):
            return None
        setattr(args, flag.lstrip("-").replace("-", "_"), given.get(
            flag, kw.get("default", False if kw.get("action") else None)))
    return args


def parse(argv):
    """Namespace of argv, as build_parser() parses it.

    When argv[0] names a command, the rest is read from its COMMANDS
    entry if it holds only exact --name value, --name=value and flags,
    each once, no value empty or starting with "-", the verify positional
    and every required option; values go through the same type and
    choices.  Anything else (abbreviations, negative numbers, "--", -h,
    repeats, every error) falls through to the full parser, so usage,
    help, error texts and exit codes stay argparse's own."""
    args = _read(argv[0], argv[1:]) if argv and argv[0] in COMMANDS else None
    return args if args is not None else build_parser().parse_args(argv)


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
