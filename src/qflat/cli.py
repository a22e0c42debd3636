"""Command-line entry point: one subcommand per operation family.

Every subcommand is one row of COMMANDS: its name, its handler, its help
text and its arguments.  A handler reads its inputs, makes its call and
returns (document, lines) without printing anything; `main` alone prints,
the text lines by default, or with --json exactly one JSON document with
all exact values rendered as strings, so identical inputs give
byte-identical output.  A handler imports what it uses in its own body, so
a `qf` process loads only the modules its subcommand runs.

Exit code 1 means exactly that the document says "pass": false (a bound
or certificate that did not hold).  Every input error is a ValueError and
gives exit 2 with one `qf: ...` line on stderr.  Anything else is exit 0,
also when the reader of stdout closes the pipe early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .gram import parse_gram_text


def _read(path, parse):
    """parse(text of path); unreadable or malformed files name the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as err:
        raise ValueError(f"cannot read {path}: {err.strerror}") from err
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


def _form(path):
    return _read(path, parse_gram_text)


def _isometry(text):
    """A JSON {"matrix": rows} text; 2x2 input is lifted to its symmetric
    square, 3x3 input is used directly."""
    from .pingpong import symmetric_square
    doc = json.loads(text)
    rows = doc.get("matrix") if isinstance(doc, dict) else None
    if not isinstance(rows, list) or not rows:
        raise ValueError('expected an object with a "matrix" field')
    if not all(isinstance(r, list) and all(type(x) is int for x in r)
               for r in rows):
        raise ValueError("matrix entries must be integers")
    matrix = tuple(map(tuple, rows))
    if len(matrix) == 2 and all(len(r) == 2 for r in matrix):
        return symmetric_square(matrix)
    if len(matrix) == 3 and all(len(r) == 3 for r in matrix):
        return matrix
    raise ValueError("expected a 2x2 or 3x3 matrix")


def _parse_vector(text, n):
    try:
        v = tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError as err:
        raise ValueError(f"bad vector {text!r}") from err
    if len(v) != n:
        raise ValueError(f"vector has {len(v)} entries, the form needs {n}")
    return v


def _parse_fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise ValueError(f"bad rational {text!r}") from err


def _words(row):
    return " ".join(str(x) for x in row)


def _verdict(passed):
    return "PASS" if passed else "FAIL"


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (document, text lines)


def _cmd_enumerate(args):
    from .enumeration import representation_count, short_vectors
    form = _form(args.form)
    doc = {"form_hash": form.form_hash, "m": args.norm}
    if args.count:
        doc["count"] = representation_count(form, args.norm)
        return doc, [str(doc["count"])]
    listing = short_vectors(form, args.norm, expand=True)
    hits = [v for v in listing.vectors if form.value(v) == args.norm]
    doc.update(count=len(hits), vectors=[list(v) for v in hits])
    return doc, [_words(v) for v in hits]


def _cmd_density(args):
    from .localform import local_density
    if args.m < 1:
        raise ValueError(f"--m must be a positive integer, got {args.m}")
    d = local_density(_form(args.form), args.p, args.m, k_max=args.kmax)
    return ({"p": args.p, "m": args.m, "value": str(d.value),
             "stabilized_at_k": d.k,
             "method": d.method}, [str(d.value)])


def _cmd_infdensity(args):
    from .localform import infinity_density
    iv = infinity_density(args.n, args.disc, _parse_fraction(args.m),
                          bits=args.precision)
    return ({"p": "inf", "n": args.n, "disc": args.disc, "m": args.m,
             "value": [str(iv.lo), str(iv.hi)]},
            [f"[{iv.lo} , {iv.hi}]",
             f"~ [{float(iv.lo):.12g}, {float(iv.hi):.12g}]"])


def _cmd_jordan(args):
    from .localform import jordan_decompose_odd
    form = _form(args.form)
    if args.p == 2:
        raise ValueError("jordan handles odd primes; use split2 for p = 2")
    blocks = jordan_decompose_odd(form, args.p, args.k).blocks
    return ({"p": args.p, "k": args.k,
             "blocks": [{"exponent": b.exponent, "units": list(b.units)}
                        for b in blocks]},
            [f"p^{b.exponent} * <{', '.join(str(u) for u in b.units)}>"
             for b in blocks])


def _cmd_split2(args):
    from .localform import two_adic_split
    res = two_adic_split(_form(args.form), K=args.k)
    lines = [f"{kind}: {mat}" for kind, mat in res.blocks]
    if res.remainder:
        lines.append(f"remainder: {res.remainder}")
    return ({"k": args.k,
             "blocks": [{"kind": kind, "gram": [list(r) for r in mat]}
                        for kind, mat in res.blocks],
             "remainder": [list(r) for r in res.remainder]}, lines)


def _cmd_saturate(args):
    from .lattice import Lattice, invariant_factors, saturate
    lat = saturate(Lattice.standard(_form(args.form)))
    factors = invariant_factors(lat)
    return ({"basis": [[str(x) for x in row] for row in lat.basis],
             "invariant_factors": list(factors)},
            ["basis:", *("  " + _words(row) for row in lat.basis),
             "invariant factors: " + _words(factors)])


def _cmd_dual(args):
    from .lattice import Lattice, dual_lattice
    lat = dual_lattice(Lattice.standard(_form(args.form)))
    return ({"basis": [[str(x) for x in row] for row in lat.basis]},
            [_words(row) for row in lat.basis])


def _cmd_factors(args):
    from .lattice import Lattice, invariant_factors
    factors = invariant_factors(Lattice.standard(_form(args.form)))
    return {"invariant_factors": list(factors)}, [_words(factors)]


def _cmd_reflect(args):
    from .hyperbolic import reflect
    form = _form(args.form)
    v = _parse_vector(args.root, form.n)
    image = reflect(form, v, _parse_vector(args.vector, form.n))
    return {"vector": [str(c) for c in image]}, [_words(image)]


def _cmd_classify_root(args):
    from .hyperbolic import NegativeRoot, PositiveRoot, classify_root
    form = _form(args.form)
    result = classify_root(form, _parse_vector(args.vector, form.n))
    if isinstance(result, (PositiveRoot, NegativeRoot)):
        kind = "positive" if isinstance(result, PositiveRoot) else "negative"
        return ({"kind": kind, "vector": list(result.vector)},
                [f"{kind} root"])
    return ({"kind": "not-root", "reason": result.reason},
            [f"not a root: {result.reason}"])


def _cmd_complement(args):
    from .hyperbolic import complement_form
    form = _form(args.form)
    comp = complement_form(form, _parse_vector(args.vector, form.n))
    return {"gram": [list(r) for r in comp.matrix]}, comp.text().splitlines()


def _cmd_meet(args):
    from .hyperbolic import HyperplaneOf, Whole, classify_hyperplane_meet
    f, q, t = _form(args.form), _form(args.q), _form(args.t)
    v = _parse_vector(args.vector, f.n)
    result = classify_hyperplane_meet(f, q, t, v, alpha=args.alpha)
    if isinstance(result, Whole):
        return {"meet": "whole"}, ["whole"]
    if isinstance(result, HyperplaneOf):
        root = list(result.root.vector)
        return ({"meet": "hyperplane", "root": root},
                ["hyperplane of root " + _words(root)])
    return {"meet": "empty"}, ["empty"]


def _cmd_mass_check(args):
    from .enumeration import automorphism_order
    from .massledger import GenusInput, siegel_check
    form = _form(args.form)
    order = automorphism_order(form) if args.order is None else args.order
    tol = _parse_fraction(args.tol)
    report = siegel_check(GenusInput((form,), (order,)), args.m,
                          prime_bound=args.primes, tol=tol,
                          bits=args.precision)
    iv = report.rhs.interval
    return report.to_json_dict(), [
        f"average representation count: {report.lhs}",
        f"density product in [{float(iv.lo):.9f}, {float(iv.hi):.9f}]",
        f"primes up to {args.primes}, tolerance {tol}: "
        + _verdict(report.passed),
    ]


def _cmd_ledger41(args):
    from .massledger import bounds_ledger_41
    report = bounds_ledger_41(bits=args.precision)
    lines = [f"{item.name}: {_verdict(item.passed)}" for item in report.items]
    failed = "".join(f"{i.name} failed; " for i in report.items
                     if not i.passed and i.name != "two-adic-claim")
    lines.append(f"bounds: {_verdict(report.bounds_passed)}"
                 f" ({failed}two-adic-claim is reported, not judged)")
    return ({"check": "ledger41",
             "items": [i.to_json_dict() for i in report.items],
             "pass": report.bounds_passed}, lines)


def _cmd_prop41(args):
    from .massledger import prop41_arithmetic
    report = prop41_arithmetic(
        king_mass=_parse_fraction(args.king),
        e8_order=args.e8_order,
        ct_bound=_parse_fraction(args.ct),
    )
    return report.to_json_dict(), report.lines()


def _cmd_pingpong(args):
    from .pingpong import (LABELS, NotHyperbolic, SearchExhausted,
                           SharedEndpoint, schottky_certify)
    g1, g2 = _read(args.g1, _isometry), _read(args.g2, _isometry)
    try:
        cert = schottky_certify(g1, g2, m_max=args.mmax)
    except (NotHyperbolic, SharedEndpoint, SearchExhausted) as err:
        return ({"check": "schottky", "pass": False, "error": str(err)},
                [f"no certificate: {err}"])
    return {**cert.to_json_dict(), "pass": True}, [
        f"free for m = {cert.m}",
        f"  base: {_words(cert.base)}",
        *(f"  normal {label}: {_words(a)}"
          for label, a in zip(LABELS, cert.normals)),
        *(f"  certified: ({a}, {b}) = {ab} < 0, "
          f"({a}, {b})^2 = {ab * ab} > {aabb} = ({a}, {a})({b}, {b})"
          for a, b, ab, aabb in cert.inequalities()),
        f"word audit: {cert.words_checked} reduced words, none trivial",
    ]


def _cmd_autord(args):
    from .enumeration import automorphism_search
    form = _form(args.form)
    search = automorphism_search(form, dim_limit=args.dim_limit)
    return ({"form_hash": form.form_hash, "order": search.order,
             "levels": list(search.levels), "nodes": search.nodes},
            [str(search.order)])


# ---------------------------------------------------------------------------
# parser wiring: (name, handler, help, [(flag, add_argument options)])


def _opt(flag, help_text, **options):
    return flag, dict(options, help=help_text)


FORM = _opt("--form", "Gram matrix file", required=True)
PRECISION = _opt("--precision", "interval precision in bits", type=int)

COMMANDS = [
    ("enumerate", _cmd_enumerate,
     "count or list integer vectors of a given norm",
     [FORM, _opt("--norm", "target value m", required=True, type=int),
      _opt("--count", "print the count only", action="store_true")]),
    ("density", _cmd_density,
     "exact p-adic representation density of a form",
     [FORM, _opt("--p", "prime", required=True, type=int),
      _opt("--m", "represented value", required=True, type=int),
      _opt("--kmax", "cap on the level the density is evaluated at, "
           "v_p(m)+1 (v_2(m)+3 at p = 2); above it, exit 2 (default: no cap)",
           type=int)]),
    ("infdensity", _cmd_infdensity,
     "certified interval for the archimedean density",
     [_opt("--n", "dimension", required=True, type=int),
      _opt("--disc", "absolute determinant", required=True, type=int),
      _opt("--m", "represented value (rational)", required=True),
      PRECISION]),
    ("jordan", _cmd_jordan,
     "odd-p Jordan decomposition into unit blocks times p-powers",
     [FORM, _opt("--p", "odd prime", required=True, type=int),
      _opt("--k", "working precision exponent (default 12)", type=int,
           default=12)]),
    ("split2", _cmd_split2, "split off 2-adic hyperbolic-type blocks",
     [FORM, _opt("--k", "working precision exponent (default 8)", type=int,
                 default=8)]),
    ("saturate", _cmd_saturate,
     "enlarge until the invariant factors are squarefree", [FORM]),
    ("dual", _cmd_dual, "basis of the dual lattice", [FORM]),
    ("factors", _cmd_factors,
     "invariant factors of the discriminant group", [FORM]),
    ("reflect", _cmd_reflect, "apply a root reflection to a vector",
     [FORM, _opt("--root", "root vector, e.g. 1,-1,0", required=True),
      _opt("--vector", "vector to reflect", required=True)]),
    ("classify-root", _cmd_classify_root,
     "positive root, negative root, or neither",
     [FORM, _opt("--vector", "candidate root", required=True)]),
    ("complement", _cmd_complement,
     "Gram matrix of the orthogonal complement of a vector",
     [FORM, _opt("--vector", "anisotropic vector", required=True)]),
    ("meet", _cmd_meet,
     "meet of a root hyperplane with the hyperboloid of a block",
     [_opt("--form", "full Gram matrix file", required=True),
      _opt("--q", "hyperboloid block file", required=True),
      _opt("--t", "positive tail block file", required=True),
      _opt("--vector", "root of the full form", required=True),
      _opt("--alpha", "scale of the q block inside the form (default 1)",
           type=int, default=1)]),
    ("mass-check", _cmd_mass_check,
     "weighted representation count against the density product",
     [FORM, _opt("--m", "represented value", required=True, type=int),
      _opt("--primes", "truncate the product at this prime bound", type=int,
           default=10_000),
      _opt("--tol", "relative tolerance (default 1/50)", default="1/50"),
      _opt("--order", "automorphism group order, if already known",
           type=int),
      PRECISION]),
    ("ledger41", _cmd_ledger41,
     "the dimension-41 inequality ledger, every bound certified",
     [PRECISION]),
    ("prop41", _cmd_prop41,
     "the mass chain from the king mass to the class-count bound",
     [_opt("--king", "mass of the reference genus (rational)",
           default="10968923/2"),
      _opt("--e8-order", "automorphism order of the reference root lattice",
           type=int, default=696729600),
      _opt("--ct", "edge-count upper bound (rational)", default="1/20")]),
    ("pingpong", _cmd_pingpong,
     "ping-pong certificate that two isometries power to a free pair",
     [_opt("--g1", 'JSON file {"matrix": rows}; 2x2 lifts to its '
           "symmetric square", required=True),
      _opt("--g2", "second generator, same form", required=True),
      _opt("--mmax", "largest power to try (default 20)", type=int,
           default=20)]),
    ("autord", _cmd_autord, "order of the automorphism group",
     [FORM, _opt("--dim-limit", "refuse forms above this dimension "
                 "(default 8)", type=int, default=8)]),
]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qf",
        description="Exact arithmetic for integral quadratic forms: "
        "enumeration, local densities, mass bounds, hyperbolic geometry, "
        "and free-group certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, arguments in COMMANDS:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true",
                       help="emit one JSON document instead of text")
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        document, lines = args.func(args)
        if args.json:
            lines = [json.dumps(document, sort_keys=True,
                                separators=(",", ":"))]
    except ValueError as err:
        print(f"qf: {err}", file=sys.stderr)
        return 2
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left: the flush at interpreter exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1 if document.get("pass") is False else 0


if __name__ == "__main__":
    sys.exit(main())
