"""Command-line entry point: one subcommand per operation family.

Reports print as plain text by default; every subcommand accepts --json
and then emits exactly one JSON document with all exact values rendered
as strings, so identical inputs give byte-identical output.  Exit code 0
means success or PASS, 1 a checked failure (a bound or certificate that
did not hold), 2 a usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .enumeration import automorphism_order, representation_count, short_vectors
from .gram import GramFormatError, parse_gram_text
from .hyperbolic import (HyperplaneOf, NegativeRoot, PositiveRoot, Whole,
                         classify_hyperplane_meet, classify_root,
                         complement_form, reflect)
from .lattice import Lattice, dual_lattice, invariant_factors, saturate
from .localform import (infinity_density, jordan_decompose_odd, local_density,
                        two_adic_split)
from .massledger import (GenusInput, bounds_ledger_41, prop41_arithmetic,
                         siegel_check)
from .pingpong import (NotHyperbolic, SearchExhausted, SharedEndpoint,
                       UnsupportedBoundary, schottky_certify, symmetric_square)


class InputError(Exception):
    """Bad file contents or option values; reported on stderr, exit 2."""


class CheckFailed(Exception):
    """A verification ran to completion and did not hold; exit 1."""

    def __init__(self, message, document=None):
        super().__init__(message)
        self.document = document


def _load_form(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_gram_text(fh.read())
    except OSError as err:
        raise InputError(f"cannot read {path}: {err.strerror}") from err
    except GramFormatError as err:
        raise InputError(f"{path}: {err}") from err


def _load_isometry(path):
    """Read a JSON {"matrix": rows} file; 2x2 input is lifted to its
    symmetric square, 3x3 input is used directly."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err.strerror}") from err
    except json.JSONDecodeError as err:
        raise InputError(f"{path}: {err}") from err
    rows = doc.get("matrix") if isinstance(doc, dict) else None
    if not isinstance(rows, list) or not rows:
        raise InputError(f'{path}: expected an object with a "matrix" field')
    try:
        matrix = tuple(tuple(int(x) for x in row) for row in rows)
    except (TypeError, ValueError) as err:
        raise InputError(f"{path}: matrix entries must be integers") from err
    if len(matrix) == 2 and all(len(r) == 2 for r in matrix):
        try:
            return symmetric_square(matrix)
        except ValueError as err:
            raise InputError(f"{path}: {err}") from err
    if len(matrix) == 3 and all(len(r) == 3 for r in matrix):
        return matrix
    raise InputError(f"{path}: expected a 2x2 or 3x3 matrix")


def _parse_vector(text, n):
    try:
        v = tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError as err:
        raise InputError(f"bad vector {text!r}") from err
    if len(v) != n:
        raise InputError(f"vector has {len(v)} entries, the form needs {n}")
    return v


def _parse_fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise InputError(f"bad rational {text!r}") from err


def _emit(args, document, text_lines):
    if args.json:
        print(json.dumps(document, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


def _interval_pair(iv):
    return [str(iv.lo), str(iv.hi)]


# ---------------------------------------------------------------------------
# subcommand handlers; each returns an exit code


def _cmd_enumerate(args):
    form = _load_form(args.form)
    if args.count:
        count = representation_count(form, args.norm)
        _emit(args, {"form_hash": form.form_hash, "m": args.norm,
                     "count": count}, [str(count)])
        return 0
    listing = short_vectors(form, args.norm, expand=True)
    hits = [v for v in listing.vectors if form.value(v) == args.norm]
    doc = {"form_hash": form.form_hash, "m": args.norm,
           "count": len(hits), "vectors": [list(v) for v in hits]}
    _emit(args, doc, [" ".join(str(x) for x in v) for v in hits])
    return 0


def _cmd_density(args):
    if args.m < 1:
        raise InputError(f"--m must be a positive integer, got {args.m}")
    form = _load_form(args.form)
    d = local_density(form, args.p, args.m, k_max=args.kmax)
    doc = {"p": args.p, "m": args.m, "value": str(d.value),
           "stabilized_at_k": d.k if d.stabilized else None,
           "method": d.method}
    _emit(args, doc, [str(d.value)])
    return 0


def _cmd_infdensity(args):
    iv = infinity_density(args.n, args.disc, _parse_fraction(args.m),
                          bits=args.precision)
    doc = {"p": "inf", "n": args.n, "disc": args.disc, "m": args.m,
           "value": _interval_pair(iv)}
    _emit(args, doc, [f"[{iv.lo} , {iv.hi}]",
                      f"~ [{float(iv.lo):.12g}, {float(iv.hi):.12g}]"])
    return 0


def _cmd_jordan(args):
    form = _load_form(args.form)
    if args.p == 2:
        raise InputError("jordan handles odd primes; use split2 for p = 2")
    dec = jordan_decompose_odd(form, args.p, args.k)
    blocks = [{"exponent": b.exponent, "units": list(b.units)}
              for b in dec.blocks]
    lines = [f"p^{b.exponent} * <{', '.join(str(u) for u in b.units)}>"
             for b in dec.blocks]
    _emit(args, {"p": args.p, "k": args.k, "blocks": blocks}, lines)
    return 0


def _cmd_split2(args):
    form = _load_form(args.form)
    res = two_adic_split(form, K=args.k)
    blocks = [{"kind": kind, "gram": [list(r) for r in mat]}
              for kind, mat in res.blocks]
    lines = [f"{kind}: {mat}" for kind, mat in res.blocks]
    if res.remainder:
        lines.append(f"remainder: {res.remainder}")
    _emit(args, {"k": args.k, "blocks": blocks,
                 "remainder": [list(r) for r in res.remainder]}, lines)
    return 0


def _cmd_saturate(args):
    form = _load_form(args.form)
    lat = saturate(Lattice.standard(form))
    factors = invariant_factors(lat)
    doc = {"basis": [[str(x) for x in row] for row in lat.basis],
           "invariant_factors": list(factors)}
    lines = ["basis:"]
    lines += ["  " + " ".join(str(x) for x in row) for row in lat.basis]
    lines.append("invariant factors: " + " ".join(str(f) for f in factors))
    _emit(args, doc, lines)
    return 0


def _cmd_dual(args):
    form = _load_form(args.form)
    lat = dual_lattice(Lattice.standard(form))
    doc = {"basis": [[str(x) for x in row] for row in lat.basis]}
    _emit(args, doc,
          [" ".join(str(x) for x in row) for row in lat.basis])
    return 0


def _cmd_factors(args):
    form = _load_form(args.form)
    factors = invariant_factors(Lattice.standard(form))
    _emit(args, {"invariant_factors": list(factors)},
          [" ".join(str(f) for f in factors)])
    return 0


def _cmd_reflect(args):
    form = _load_form(args.form)
    v = _parse_vector(args.root, form.n)
    x = _parse_vector(args.vector, form.n)
    image = reflect(form, v, x)
    _emit(args, {"vector": [str(c) for c in image]},
          [" ".join(str(c) for c in image)])
    return 0


def _cmd_classify_root(args):
    form = _load_form(args.form)
    v = _parse_vector(args.vector, form.n)
    result = classify_root(form, v)
    if isinstance(result, PositiveRoot):
        doc = {"kind": "positive", "vector": list(result.vector)}
        lines = ["positive root"]
    elif isinstance(result, NegativeRoot):
        doc = {"kind": "negative", "vector": list(result.vector)}
        lines = ["negative root"]
    else:
        doc = {"kind": "not-root", "reason": result.reason}
        lines = [f"not a root: {result.reason}"]
    _emit(args, doc, lines)
    return 0


def _cmd_complement(args):
    form = _load_form(args.form)
    v = _parse_vector(args.vector, form.n)
    comp = complement_form(form, v)
    _emit(args, {"gram": [list(r) for r in comp.matrix]},
          comp.text().splitlines())
    return 0


def _cmd_meet(args):
    f = _load_form(args.form)
    q = _load_form(args.q)
    t = _load_form(args.t)
    v = _parse_vector(args.vector, f.n)
    result = classify_hyperplane_meet(f, q, t, v, alpha=args.alpha)
    if isinstance(result, Whole):
        doc, lines = {"meet": "whole"}, ["whole"]
    elif isinstance(result, HyperplaneOf):
        root = list(result.root.vector)
        doc = {"meet": "hyperplane", "root": root}
        lines = ["hyperplane of root " + " ".join(str(x) for x in root)]
    else:
        doc, lines = {"meet": "empty"}, ["empty"]
    _emit(args, doc, lines)
    return 0


def _cmd_mass_check(args):
    form = _load_form(args.form)
    order = args.order
    if order is None:
        order = automorphism_order(form)
    genus = GenusInput((form,), (order,))
    tol = _parse_fraction(args.tol)
    report = siegel_check(genus, args.m, prime_bound=args.primes, tol=tol,
                          bits=args.precision)
    verdict = "PASS" if report.passed else "FAIL"
    iv = report.rhs.interval
    lines = [
        f"average representation count: {report.lhs}",
        f"density product in [{float(iv.lo):.9f}, {float(iv.hi):.9f}]",
        f"primes up to {args.primes}, tolerance {tol}: {verdict}",
    ]
    doc = report.to_json_dict()
    if report.passed:
        _emit(args, doc, lines)
        return 0
    raise CheckFailed("\n".join(lines), doc)


def _cmd_ledger41(args):
    report = bounds_ledger_41(bits=args.precision)
    lines = []
    for item in report.items:
        verdict = "PASS" if item.passed else "FAIL"
        lines.append(f"{item.name}: {verdict}")
    overall = report.bounds_passed
    lines.append("bounds: " + ("PASS" if overall else "FAIL")
                 + " (the two-adic claim is reported as computed)")
    doc = {
        "check": "ledger41",
        "items": [i.to_json_dict() for i in report.items],
        "pass": overall,
    }
    if overall:
        _emit(args, doc, lines)
        return 0
    raise CheckFailed("\n".join(lines), doc)


def _cmd_prop41(args):
    report = prop41_arithmetic(
        king_mass=_parse_fraction(args.king),
        e8_order=args.e8_order,
        ct_bound=_parse_fraction(args.ct),
    )
    ok = report.m1_ok and report.paper_low_ok
    doc = report.to_json_dict()
    if ok:
        _emit(args, doc, report.lines())
        return 0
    raise CheckFailed("\n".join(report.lines()), doc)


def _cmd_pingpong(args):
    g1 = _load_isometry(args.g1)
    g2 = _load_isometry(args.g2)
    try:
        cert = schottky_certify(g1, g2, m_max=args.mmax)
    except (NotHyperbolic, SharedEndpoint, SearchExhausted,
            UnsupportedBoundary) as err:
        raise CheckFailed(
            f"no certificate: {err}",
            {"check": "schottky", "pass": False, "error": str(err)},
        ) from err
    doc = cert.to_json_dict()
    doc["pass"] = True
    lines = [f"free for m = {cert.m}"]
    for box in cert.boxes:
        lines.append(f"  box {box.label}: u in [{box.u_lo}, {box.u_hi}], "
                     f"w in [{box.w_lo}, {box.w_hi}]")
    lines += [f"  certified: {text}" for text in cert.inclusions]
    lines.append(f"word audit: {cert.words_checked} reduced words, "
                 "none trivial")
    _emit(args, doc, lines)
    return 0


def _cmd_autord(args):
    form = _load_form(args.form)
    order = automorphism_order(form, dim_limit=args.dim_limit)
    _emit(args, {"form_hash": form.form_hash, "order": order}, [str(order)])
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qf",
        description="Exact arithmetic for integral quadratic forms: "
        "enumeration, local densities, mass bounds, hyperbolic geometry, "
        "and free-group certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true",
                       help="emit one JSON document instead of text")
        return p

    p = add("enumerate", _cmd_enumerate,
            "count or list integer vectors of a given norm")
    p.add_argument("--form", required=True, help="Gram matrix file")
    p.add_argument("--norm", required=True, type=int, help="target value m")
    p.add_argument("--count", action="store_true",
                   help="print the count only")

    p = add("density", _cmd_density,
            "exact p-adic representation density of a form")
    p.add_argument("--form", required=True, help="Gram matrix file")
    p.add_argument("--p", required=True, type=int, help="prime")
    p.add_argument("--m", required=True, type=int, help="represented value")
    p.add_argument("--kmax", type=int, default=6,
                   help="stabilization depth cap (default 6)")

    p = add("infdensity", _cmd_infdensity,
            "certified interval for the archimedean density")
    p.add_argument("--n", required=True, type=int, help="dimension")
    p.add_argument("--disc", required=True, type=int,
                   help="absolute determinant")
    p.add_argument("--m", required=True, help="represented value (rational)")
    p.add_argument("--precision", type=int, default=None,
                   help="interval precision in bits")

    p = add("jordan", _cmd_jordan,
            "odd-p Jordan decomposition into unit blocks times p-powers")
    p.add_argument("--form", required=True, help="Gram matrix file")
    p.add_argument("--p", required=True, type=int, help="odd prime")
    p.add_argument("--k", type=int, default=12,
                   help="working precision exponent (default 12)")

    p = add("split2", _cmd_split2,
            "split off 2-adic hyperbolic-type blocks")
    p.add_argument("--form", required=True, help="Gram matrix file")
    p.add_argument("--k", type=int, default=8,
                   help="working precision exponent (default 8)")

    p = add("saturate", _cmd_saturate,
            "enlarge until the invariant factors are squarefree")
    p.add_argument("--form", required=True, help="Gram matrix file")

    p = add("dual", _cmd_dual, "basis of the dual lattice")
    p.add_argument("--form", required=True, help="Gram matrix file")

    p = add("factors", _cmd_factors,
            "invariant factors of the discriminant group")
    p.add_argument("--form", required=True, help="Gram matrix file")

    p = add("reflect", _cmd_reflect, "apply a root reflection to a vector")
    p.add_argument("--form", required=True, help="Gram matrix file")
    p.add_argument("--root", required=True, help="root vector, e.g. 1,-1,0")
    p.add_argument("--vector", required=True, help="vector to reflect")

    p = add("classify-root", _cmd_classify_root,
            "positive root, negative root, or neither")
    p.add_argument("--form", required=True, help="Gram matrix file")
    p.add_argument("--vector", required=True, help="candidate root")

    p = add("complement", _cmd_complement,
            "Gram matrix of the orthogonal complement of a vector")
    p.add_argument("--form", required=True, help="Gram matrix file")
    p.add_argument("--vector", required=True, help="anisotropic vector")

    p = add("meet", _cmd_meet,
            "meet of a root hyperplane with the hyperboloid of a block")
    p.add_argument("--form", required=True, help="full Gram matrix file")
    p.add_argument("--q", required=True, help="hyperboloid block file")
    p.add_argument("--t", required=True, help="positive tail block file")
    p.add_argument("--vector", required=True, help="root of the full form")
    p.add_argument("--alpha", type=int, default=1,
                   help="scale of the q block inside the form (default 1)")

    p = add("mass-check", _cmd_mass_check,
            "weighted representation count against the density product")
    p.add_argument("--form", required=True, help="Gram matrix file")
    p.add_argument("--m", required=True, type=int, help="represented value")
    p.add_argument("--primes", type=int, default=10_000,
                   help="truncate the product at this prime bound")
    p.add_argument("--tol", default="1/50",
                   help="relative tolerance (default 1/50)")
    p.add_argument("--order", type=int, default=None,
                   help="automorphism group order, if already known")
    p.add_argument("--precision", type=int, default=None,
                   help="interval precision in bits")

    p = add("ledger41", _cmd_ledger41,
            "the dimension-41 inequality ledger, every bound certified")
    p.add_argument("--precision", type=int, default=None,
                   help="interval precision in bits")

    p = add("prop41", _cmd_prop41,
            "the mass chain from the king mass to the class-count bound")
    p.add_argument("--king", default="10968923/2",
                   help="mass of the reference genus (rational)")
    p.add_argument("--e8-order", type=int, default=696729600,
                   help="automorphism order of the reference root lattice")
    p.add_argument("--ct", default="1/20",
                   help="edge-count upper bound (rational)")

    p = add("pingpong", _cmd_pingpong,
            "ping-pong certificate that two isometries power to a free pair")
    p.add_argument("--g1", required=True,
                   help='JSON file {"matrix": rows}; 2x2 lifts to its '
                   "symmetric square")
    p.add_argument("--g2", required=True, help="second generator, same form")
    p.add_argument("--mmax", type=int, default=20,
                   help="largest power to try (default 20)")

    p = add("autord", _cmd_autord, "order of the automorphism group")
    p.add_argument("--form", required=True, help="Gram matrix file")
    p.add_argument("--dim-limit", type=int, default=8,
                   help="refuse forms above this dimension (default 8)")

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CheckFailed as err:
        if args.json and err.document is not None:
            print(json.dumps(err.document, sort_keys=True,
                             separators=(",", ":")))
        else:
            print(err)
        return 1
    except (InputError, ValueError) as err:
        print(f"qf: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
