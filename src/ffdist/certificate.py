"""Certificate files: serializable, re-verifiable claims.

A certificate stores the field, the raw points, and a claim
(equilateral with its common value, or two-distance with its value
pair) plus bound bookkeeping.  Verification re-derives the claim from
the points alone (by the midpoint lemma or the pair census, see
_classify) and checks the stored bookkeeping against it.

Files are deterministic JSON (sorted keys, fixed indentation, trailing
newline) so identical inputs produce byte-identical certificates.
dumps writes json.dumps(indent=2, sort_keys=True) byte for byte, but
formats "points" from the encodings of the PointSet it was made from, as
an indent turns off json's C encoder.  load decodes all points in
whole-list passes; only a malformed point is read alone, to name it.
"""

import json
import math
from itertools import chain, repeat
from operator import mod

from . import construct, geometry
from . import field as field_mod
from . import srg as srg_mod
from .geometry import PointSet, FORM_STANDARD, FORM_SUM_ZERO, OffHyperplane
from .linalg import horner


class SchemaError(ValueError):
    """Malformed certificate file (CLI exit code 2)."""


class VerificationFailure(ValueError):
    """Well-formed certificate whose claim does not hold (exit code 1)."""


def field_block(f):
    block = {"p": f.p, "k": f.k}
    if f.modulus is not None:
        block["modulus"] = list(f.modulus)
    return block


def points_block(s):
    f = s.field
    if f.k == 1:
        return [list(p) for p in s.points]
    form = {a: f.serialize(a) for a in set(chain.from_iterable(s.points))}
    return [list(map(list, map(form.__getitem__, p))) for p in s.points]


def equilateral_claim(f, delta):
    return {"type": "equilateral", "delta": f.serialize(delta)}


def two_distance_claim(f, a, b):
    return {"type": "two_distance", "values": [f.serialize(a), f.serialize(b)]}


def construction_meta(construction, params, bounds):
    """meta of a construct certificate; params is a ModularParams."""
    return {"construction": construction, "dimension": params.d,
            "b": params.field.serialize(params.b), "bounds": bounds}


def bounds_block(d, n_points, f=None, target="two_distance"):
    blok = geometry.blokhuis_bound(d)
    block = {"blokhuis": blok}
    if f is not None:
        block["equilateral_upper"] = geometry.equilateral_upper(f, d)
    reference = (blok if target == "two_distance"
                 else block["equilateral_upper"])
    block["attained_flag"] = geometry.bound_status(n_points, reference)
    return block


def make(s, claim, meta):
    return {
        "version": 1,
        "field": field_block(s.field),
        "ambient_dim": s.ambient_dim,
        "form": s.form,
        "points": points_block(s),
        "claim": claim,
        "meta": meta,
    }


def _json_list(items, indent):
    """Item texts joined as json.dumps(indent=2) nests a list at indent."""
    inner = "\n" + " " * (indent + 2)
    return ("[" + inner + ("," + inner).join(items) + "\n" + " " * indent
            + "]" if items else "[]")


def _points_text(s):
    """The "points" text of a certificate made from s: each distinct
    element formatted once, and joined point by point."""
    f = s.field
    texts = {a: repr(a) if f.k == 1 else
             _json_list(list(map(repr, f.serialize(a))), 6)
             for a in set(chain.from_iterable(s.points))}
    return _json_list([_json_list(list(map(texts.__getitem__, x)), 4)
                       for x in s.points], 2)


def dumps(cert, s=None):
    """json.dumps(cert, indent=2, sort_keys=True) + "\n", byte for byte.
    Given s, cert must be make(s, ...) unchanged, s of int coordinates;
    then "points" is formatted from s, as an indent turns off json's C
    encoder."""
    if s is None:
        return json.dumps(cert, indent=2, sort_keys=True) + "\n"
    rest = json.dumps(dict(cert, points=0), indent=2, sort_keys=True)
    text = '\n  "points": ' + _points_text(s)
    return rest.replace('\n  "points": 0', text, 1) + "\n"


def write(cert, path, s=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(cert, s))


# ---------------------------------------------------------------------------
# loading and verification
# ---------------------------------------------------------------------------

def _schema(cond, msg):
    if not cond:
        raise SchemaError(msg)


def _is_int(x):
    """A JSON integer; JSON true/false load as bool, a subclass of int."""
    return type(x) is int


def _element(f, v, what):
    """Field element from its JSON form, or SchemaError."""
    parts = v if isinstance(v, list) else [v]
    _schema(all(_is_int(x) for x in parts),
            "bad %s %r: not an integer or integer array" % (what, v))
    try:
        return f.deserialize(v)
    except ValueError as exc:
        raise SchemaError("bad %s: %s" % (what, exc))


def _decode(f, dim, raw):
    """Encodings of the JSON points raw, as tuples: one flatten and type
    check per level of nesting and one Horner over all coefficients, or
    for a malformed point _decode_each's SchemaError."""
    p, k, flat = f.p, f.k, raw
    for size in (dim, k) if k > 1 else (dim,):  # coordinates, coefficients
        if not ({list}.issuperset(map(type, flat))
                and {size}.issuperset(map(len, flat))):
            return _decode_each(f, dim, raw)
        flat = list(chain.from_iterable(flat))
    if not {int}.issuperset(map(type, flat)):
        return _decode_each(f, dim, raw)
    values = set(flat)  # a mod only when some value needs it
    if min(values) < 0 or max(values) >= p:
        flat = list(map(mod, flat, repeat(p)))
    return list(zip(*[iter(horner(flat, p, k))] * dim))


def _decode_each(f, dim, raw):
    """_decode point by point: names the first malformed point."""
    points = []
    for rp in raw:
        _schema(isinstance(rp, list) and len(rp) == dim,
                "point of wrong length")
        points.append(tuple(_element(f, c, "coordinate") for c in rp))
    return points


def _claimed(f, claim):
    """The geometry.Equilateral or TwoDistance a JSON claim states, or
    SchemaError."""
    _schema(isinstance(claim, dict), "missing claim")
    ctype = claim.get("type")
    if ctype == "equilateral":
        _schema("delta" in claim, "equilateral claim needs delta")
        delta = _element(f, claim["delta"], "claim value")
        _schema(delta != f.zero, "delta must be nonzero")
        return geometry.Equilateral(delta)
    _schema(ctype == "two_distance", "unknown claim type %r" % (ctype,))
    vals = claim.get("values")
    _schema(isinstance(vals, list) and len(vals) == 2,
            "two_distance claim needs two values")
    a, b = (_element(f, v, "claim value") for v in vals)
    _schema(a != b, "two_distance values must be distinct")
    _schema(a != f.zero and b != f.zero,
            "two_distance values must be nonzero")
    return geometry.TwoDistance(a, b)


def load(path):
    """Parse and schema-check a certificate; returns (cert, PointSet, the
    claimed geometry.Equilateral or TwoDistance)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cert = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: bad JSON, bad UTF-8, or an integer literal past
        # Python's digit limit; RecursionError: nesting past the stack
        raise SchemaError("cannot read certificate: %s" % exc)
    _schema(isinstance(cert, dict), "certificate must be a JSON object")
    _schema(cert.get("version") == 1, "unsupported certificate version")
    fb = cert.get("field")
    _schema(isinstance(fb, dict) and _is_int(fb.get("p"))
            and _is_int(fb.get("k")), "bad field block")
    modulus = fb.get("modulus")
    _schema(modulus is None or isinstance(modulus, list)
            and all(map(_is_int, modulus)), "bad field modulus")
    try:
        f = field_mod.field_make(fb["p"], fb["k"], modulus)
    except ValueError as exc:  # NotPrime etc. are ValueErrors
        raise SchemaError("bad field: %s" % exc)
    dim = cert.get("ambient_dim")
    _schema(_is_int(dim) and dim >= 1, "bad ambient_dim")
    form = cert.get("form")
    _schema(form in (FORM_STANDARD, FORM_SUM_ZERO), "bad form")
    raw_points = cert.get("points")
    _schema(isinstance(raw_points, list) and len(raw_points) >= 2,
            "need at least 2 points")
    points = _decode(f, dim, raw_points)
    _schema(len(set(points)) == len(points), "points must be distinct")
    claimed = _claimed(f, cert.get("claim"))
    try:
        s = PointSet(f, dim, form, points)
    except OffHyperplane as exc:
        raise VerificationFailure(str(exc))
    return cert, s, claimed


def verify(path):
    """Recompute the claim, meta.dimension, meta.bounds and meta.search
    from the raw points and diff them against the stored ones.  The
    report's "srg" is "ok", or "skipped" for a two-distance claim without
    meta.srg_report; "checks" says which checks "passed" or were
    "skipped" ("exhausted" always); "method" is _classify's.  Raises
    SchemaError (exit 2) or VerificationFailure (exit 1)."""
    cert, s, claimed = load(path)
    f, claim = s.field, cert["claim"]
    cls, method = _classify(s, claimed)
    if type(cls) is not type(claimed):
        raise VerificationFailure("points classify as %r, claim says %s"
                                  % (cls, claim["type"]))
    if cls != claimed and isinstance(cls, geometry.Equilateral):
        raise VerificationFailure(
            "common distance is %r, claim says %r"
            % (f.serialize(cls.delta), claim["delta"]))
    if cls != claimed:
        raise VerificationFailure(
            "distance values %r do not match claim %r"
            % (sorted(map(f.serialize, cls.values)), claim["values"]))
    meta = cert.get("meta", {})
    _schema(isinstance(meta, dict), "meta must be an object")
    checks = {"classification": "passed", **dict.fromkeys(
        ("dimension", "bounds", "search", "exhausted", "srg"), "skipped")}
    report = {"classification": repr(cls), "n_points": len(s),
              "method": method, "checks": checks}
    d, size = s.dimension(), len(s)
    dim = meta.get("dimension", d)
    _schema(_is_int(dim) and dim >= 1,
            "meta.dimension must be an integer >= 1")
    target = ("equilateral" if meta.get("construction")
              == "modular_equilateral" else "two_distance")
    status = geometry.bound_status(size, geometry.blokhuis_bound(d))
    want = {"dimension": d, "bounds": bounds_block(d, size, f, target),
            "search": {"max_size": size, "bound_status": status,
                       "both_values": isinstance(cls, geometry.TwoDistance)}}
    for name in filter(meta.__contains__, want):
        _bookkeeping("meta." + name, meta[name], want[name])
        checks[name] = "passed"
    if "srg_report" in meta:
        srg_report = meta["srg_report"]
        _schema(isinstance(srg_report, dict),
                "meta.srg_report must be an object")
        n = srg_report.get("n")
        _schema(_is_int(n) and n >= 4,
                "meta.srg_report.n must be an integer >= 4")
        _verify_srg(s, claimed, srg_report, recheck=method == "census")
        report["srg"] = "ok"
        checks["srg"] = "passed"
    elif isinstance(claimed, geometry.TwoDistance):
        report["srg"] = "skipped"
    return report


def _bookkeeping(name, stored, want):
    """VerificationFailure unless stored equals want as JSON (true is not
    1, nor 10.0 10); a dict want is compared on the keys stored holds."""
    if isinstance(want, dict):
        _schema(isinstance(stored, dict), "%s must be an object" % name)
        for key in filter(stored.__contains__, want):
            _bookkeeping(name + "." + key, stored[key], want[key])
    elif type(stored) is not type(want) or stored != want:
        raise VerificationFailure("%s is %s, the points give %s" % (
            name, json.dumps(stored), json.dumps(want)))


def _classify(s, claimed):
    """geometry.classify(s) and its "method": "midpoint_lemma" for a
    two-distance claim on the midpoints (construct.midpoint_sources) of
    sources at Equilateral(delta), which are at TwoDistance(delta/4,
    delta/2) with the graph T(n); else "census", from all pairs."""
    xs = (isinstance(claimed, geometry.TwoDistance)
          and construct.midpoint_sources(s))
    if xs:  # distinct, on the same hyperplane as s
        f = s.field
        cls = geometry.classify(PointSet(f, s.ambient_dim, s.form, xs))
        if isinstance(cls, geometry.Equilateral):
            half = f.inv(f.add(f.one, f.one))
            d2 = f.mul(cls.delta, half)
            return geometry.TwoDistance(f.mul(d2, half), d2), "midpoint_lemma"
    return geometry.classify(s), "census"


def _verify_srg(s, claimed, stored, recheck):
    """The midpoint graph is T(n), n = stored["n"], and stored is
    srg.passing_report(n).  With recheck (no lemma proof) the graph is
    built for both values as delta/4: the claim has no value order, and
    in characteristic 3 the wrong one gives the well-formed complement."""
    n = stored["n"]
    if not isinstance(claimed, geometry.TwoDistance):
        raise VerificationFailure("srg_report on a non two-distance claim")
    if len(s) != math.comb(n, 2):
        raise VerificationFailure("point count does not match C(n,2)")
    if recheck:
        failures = []
        for value in sorted(claimed.values):
            try:
                rows = srg_mod.midpoint_graph(s, value)
            except srg_mod.BadDistanceValue as exc:
                failures.append(str(exc))
                continue
            result = srg_mod.srg_check(rows, n)
            if result["ok"]:
                break
            failures.append(result["failure"])
        else:
            raise VerificationFailure("SRG recheck failed for either edge "
                                      "value: %s" % "; ".join(failures))
    # equal as JSON ("ok": 1 fails), and shallow before it is dumped
    want = json.dumps(srg_mod.passing_report(n), sort_keys=True)
    if (stored != json.loads(want)
            or json.dumps(stored, sort_keys=True) != want):
        raise VerificationFailure(
            "meta.srg_report is not the report of T(%d)" % n)
