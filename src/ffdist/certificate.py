"""Certificate files: serializable, re-verifiable claims.

A certificate stores the field, the raw points, and a claim
(equilateral with its common value, or two-distance with its value
pair) plus bound bookkeeping.  Verification ignores everything stored
except the points and re-derives the claim from scratch.

Files are deterministic JSON (sorted keys, fixed indentation, trailing
newline) so identical inputs produce byte-identical certificates.
"""

import json
import math

from . import field as field_mod
from . import geometry
from . import srg as srg_mod
from .geometry import PointSet, FORM_STANDARD, FORM_SUM_ZERO, OffHyperplane


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
    return [[f.serialize(c) for c in p] for p in s.points]


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
    if target == "two_distance":
        reference = blok
    else:
        reference = block["equilateral_upper"]
    if n_points > reference:
        block["attained_flag"] = "exceeded"
    elif n_points == reference:
        block["attained_flag"] = "attained"
    else:
        block["attained_flag"] = "unreached"
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


def dumps(cert):
    return json.dumps(cert, indent=2, sort_keys=True) + "\n"


def write(cert, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(cert))


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


def load(path):
    """Parse and schema-check a certificate; returns (cert, PointSet)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cert = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
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
    points = []
    for rp in raw_points:
        _schema(isinstance(rp, list) and len(rp) == dim,
                "point of wrong length")
        points.append(tuple(_element(f, c, "coordinate") for c in rp))
    _schema(len(set(points)) == len(points), "points must be distinct")
    claim = cert.get("claim")
    _schema(isinstance(claim, dict), "missing claim")
    ctype = claim.get("type")
    if ctype == "equilateral":
        _schema("delta" in claim, "equilateral claim needs delta")
        delta = _element(f, claim["delta"], "claim value")
        _schema(delta != f.zero, "delta must be nonzero")
    elif ctype == "two_distance":
        vals = claim.get("values")
        _schema(isinstance(vals, list) and len(vals) == 2,
                "two_distance claim needs two values")
        a, b = (_element(f, v, "claim value") for v in vals)
        _schema(a != b, "two_distance values must be distinct")
        _schema(a != f.zero and b != f.zero,
                "two_distance values must be nonzero")
    else:
        raise SchemaError("unknown claim type %r" % ctype)
    try:
        s = PointSet(f, dim, form, points)
    except OffHyperplane as exc:
        raise VerificationFailure(str(exc))
    return cert, s


def verify(path):
    """Recompute the claim from the raw points and diff it against the
    stored one.  Returns a report dict, whose "srg" is "ok" after the
    SRG recheck and "skipped" for a two-distance claim without
    meta.srg_report; raises SchemaError (exit 2) or VerificationFailure
    (exit 1)."""
    cert, s = load(path)
    f = s.field
    claim = cert["claim"]
    cls = geometry.classify(s)
    if claim["type"] == "equilateral":
        if not isinstance(cls, geometry.Equilateral):
            raise VerificationFailure(
                "points classify as %r, claim says equilateral" % cls)
        if cls.delta != f.deserialize(claim["delta"]):
            raise VerificationFailure(
                "common distance is %r, claim says %r"
                % (f.serialize(cls.delta), claim["delta"]))
    else:
        if not isinstance(cls, geometry.TwoDistance):
            raise VerificationFailure(
                "points classify as %r, claim says two_distance" % cls)
        want = frozenset(f.deserialize(v) for v in claim["values"])
        if cls.values != want:
            raise VerificationFailure(
                "distance values %r do not match claim %r"
                % (sorted(map(f.serialize, cls.values)), claim["values"]))
    meta = cert.get("meta", {})
    _schema(isinstance(meta, dict), "meta must be an object")
    report = {"classification": repr(cls), "n_points": len(s)}
    bounds = meta.get("bounds")
    if isinstance(bounds, dict) and "blokhuis" in bounds:
        d = meta.get("dimension", s.dimension())
        _schema(_is_int(d) and d >= 1,
                "meta.dimension must be an integer >= 1")
        if bounds["blokhuis"] != geometry.blokhuis_bound(d):
            raise VerificationFailure("stored blokhuis value is wrong")
    if "srg_report" in meta:
        srg_report = meta["srg_report"]
        _schema(isinstance(srg_report, dict),
                "meta.srg_report must be an object")
        n = srg_report.get("n")
        _schema(_is_int(n) and n >= 4,
                "meta.srg_report.n must be an integer >= 4")
        _verify_srg(s, claim, n)
        report["srg"] = "ok"
    elif claim["type"] == "two_distance":
        report["srg"] = "skipped"
    return report


def _verify_srg(s, claim, n):
    """The midpoint graph of a valid certificate is the triangular graph
    T(n) for one of the two claimed values as the edge value delta/4.
    Both are tried: the value order is not part of the claim, and in
    characteristic 3 each value is twice the other, so the graph for
    the wrong one (the complement of T(n)) is also well formed."""
    f = s.field
    if claim["type"] != "two_distance":
        raise VerificationFailure("srg_report on a non two-distance claim")
    if len(s) != math.comb(n, 2):
        raise VerificationFailure("point count does not match C(n,2)")
    params = srg_mod.expected_params(n)
    failures = []
    for value in claim["values"]:
        edge = f.deserialize(value)
        try:
            g = srg_mod.midpoint_graph(s, f.mul(f.coerce(4), edge))
        except srg_mod.BadDistanceValue as exc:
            failures.append(str(exc))
            continue
        result = srg_mod.srg_check(g, params)
        if result["ok"]:
            return
        failures.append(result["failure"])
    raise VerificationFailure("SRG recheck failed for either edge value: %s"
                              % "; ".join(failures))
