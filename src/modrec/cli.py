"""Command-line surface: parse curve configs, dispatch, emit documents.

Exit codes: 0 success, 1 bad input (usage, malformed config, failed
validation), 2 a mathematical identity failed.  Code 2 is the alarm bell:
it never fires on user mistakes, only when the cross-checked mathematics
disagrees, so CI can treat it as a defect signal.

All rational numbers are emitted as "p/q" strings; no floating point
appears in any output.  Output goes to stdout, diagnostics to stderr.

Each handler imports the modules it calls, and ``main`` builds only the
subparser that argv names, so a process pays at start-up only for its own
subcommand's code and parser.  Help and usage errors build every subparser,
so their messages list all the subcommands.  Importing this module loads
only ``errors`` from the package.  The finite-field and numeric queries run
on ints and Fractions and load no symbolic algebra (``exactalg``,
``factored``): ``zeta`` loads ``fields`` and ``curve``; ``count`` and
``mass --curve`` add ``tamagawa``; ``siegel`` adds ``hn`` as well.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import InvariantViolation, ValidationError, check_budget

FORMATS = ("json", "csv", "plain")


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for broken
    mathematics, so remap usage problems to a validation error."""

    def error(self, message):
        raise ValidationError(message)


def _read_config(path):
    """Parse a curve config file; returns the JSON object and its mode."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle, parse_int=_json_int)
    except OSError as exc:
        raise ValidationError("cannot read curve file %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ValidationError("curve file %s is not valid JSON: %s" % (path, exc))
    except ValueError as exc:
        raise ValidationError("curve file %s: %s" % (path, exc))
    if not isinstance(raw, dict):
        raise ValidationError("%s: a curve config must be a JSON object" % path)
    return raw, _field(raw, "mode", str, path)


def _json_int(text):
    """Input integers stay within CPython's default 4300-digit str -> int guard."""
    if len(text.lstrip("-")) > 4300:
        raise ValueError("integer with %d digits exceeds the 4300-digit input limit"
                         % len(text.lstrip("-")))
    return int(text)


def load_curve(path):
    """Read and validate a curve config file; returns CurveData."""
    return _curve_and_model(path)[0]


def _curve_and_model(path):
    """The CurveData of a curve config file, and its HyperellipticModel, whose
    kept counts serve later counts, or None in counts mode."""
    from .curve import CurveData, zeta_from_counts

    raw, mode = _read_config(path)
    if mode == "counts":
        return zeta_from_counts(_field(raw, "q", int, path),
                                _field(raw, "genus", int, path),
                                _int_list(raw, "counts", path)), None
    if mode == "hyperelliptic":
        model = _model(raw, path)
        return CurveData.from_model(model), model
    raise ValidationError("%s: unknown curve mode %r" % (path, mode))


def _model(raw, path):
    from .curve import HyperellipticModel

    h = _int_list(raw, "h", path) if "h" in raw else []
    return HyperellipticModel(p=_field(raw, "p", int, path),
                              k=_field(raw, "k", int, path),
                              f=tuple(_int_list(raw, "f", path)),
                              h=tuple(h))


def _field(raw, name, kind, path):
    if name not in raw:
        raise ValidationError("%s: missing field %r" % (path, name))
    value = raw[name]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise ValidationError("%s: field %r must be %s" % (path, name, kind.__name__))
    return value


def _int_list(raw, name, path):
    value = _field(raw, name, object, path)
    if not isinstance(value, list) or any(isinstance(c, bool) or not isinstance(c, int)
                                          for c in value):
        raise ValidationError("%s: field %r must be a list of integers" % (path, name))
    return value


def _numeric_field(args):
    from .fields import SpecializationField

    return SpecializationField.numeric(load_curve(args.curve))


def _number(c):
    """An int or Fraction as its "p/q" string."""
    from fractions import Fraction

    return str(Fraction(c))


def _poly_doc(poly, **extra):
    doc = dict(extra)
    doc["degree"] = max(poly.degree("t"), 0)
    if poly.is_zero:
        doc["coeffs"] = ["0"]
    else:
        doc["coeffs"] = [_number(c) for c in poly.scalar_coeffs("t")]
    return doc


# -- subcommand handlers -----------------------------------------------------


def _cmd_betti(args):
    from .yangmills import fixed_determinant_poly, moduli_poincare

    if args.fixed_det:
        poly = fixed_determinant_poly(args.n, args.d, args.g)
    else:
        poly = moduli_poincare(args.n, args.d, args.g)
    return _poly_doc(poly, n=args.n, d=args.d, g=args.g), 0


def _cmd_count(args):
    from .tamagawa import fixed_determinant_count, stable_count

    field = _numeric_field(args)
    doc = {"stable_count": _number(stable_count(args.n, args.d, field))}
    if args.fixed_det:
        doc["fixed_det_count"] = _number(fixed_determinant_count(args.n, args.d, field))
    return doc, 0


def _cmd_mass(args):
    from .fields import SpecializationField
    from .tamagawa import ss_mass

    if args.curve:
        if args.mode is not None or args.g is not None:
            raise ValidationError("mass takes --curve, or --mode with --g, not both")
        field = _numeric_field(args)
    elif args.mode in ("betti", "hodge") and args.g is not None:
        field = (SpecializationField.betti(args.g) if args.mode == "betti"
                 else SpecializationField.hodge(args.g))
    else:
        raise ValidationError("mass needs either --curve, or --mode betti|hodge with --g")
    value = ss_mass(args.n, args.d, field)
    doc = {"n": args.n, "d": args.d, "mode": field.mode}
    if field.mode == SpecializationField.NUMERIC:
        doc["value"] = _number(value)
    else:
        from .exactalg import ratfun_to_json

        doc["value"] = ratfun_to_json(value)
    return doc, 0


def _cmd_siegel(args):
    from .tamagawa import siegel_check

    field = _numeric_field(args)
    report = siegel_check(args.n, args.d, field, args.max_codim)
    return report.to_json(), 0


def _cmd_hn_types(args):
    from .hn import enumerate_types

    keyed = enumerate_types(args.n, args.d, args.g, args.max_codim)
    return {
        "n": args.n, "d": args.d, "g": args.g, "max_codim": args.max_codim,
        "types": [[list(part) for part in parts] for _, parts in keyed],
        "codims": [c for c, _ in keyed],
    }, 0


# A divisor count over F_q is an integer of about n bits(q) bits, and its
# arithmetic and printing are quadratic in that length, so symprod --curve
# --n n is charged n bits(q) and refused past this charge, measured over q
# from 2 to 2^61 - 1 at g = 2, 3 and 6 (README.md).
SYMPROD_CHARGE = 650_000


def _cmd_symprod(args):
    from .symprod import divisor_enumerate, sym_count, sym_poincare

    if args.curve:
        if args.g is not None:
            raise ValidationError("symprod takes --curve or --g, not both")
        curve, model = _curve_and_model(args.curve)
        check_budget("symprod at n = %d over q = %d" % (args.n, curve.q), "n bits(q)",
                     args.n * curve.q.bit_length(), SYMPROD_CHARGE)
        doc = {"n": args.n, "count": _number(sym_count(curve, args.n))}
        if args.enumerate:
            if model is None:
                raise ValidationError("%s: divisor enumeration needs a hyperelliptic model"
                                      % args.curve)
            doc["enumerated"] = _number(divisor_enumerate(model, args.n))
        return doc, 0
    if args.g is None:
        raise ValidationError("symprod needs --g (Betti mode) or --curve (counts)")
    if args.enumerate:
        raise ValidationError("symprod --enumerate needs --curve")
    return _poly_doc(sym_poincare(args.g, args.n), g=args.g, n=args.n), 0


def _cmd_matrixdiv(args):
    from .matrixdiv import div_poincare

    return _poly_doc(div_poincare(args.n, args.e, args.g),
                     n=args.n, e=args.e, g=args.g), 0


def _cmd_bridge(args):
    from .matrixdiv import div_bridge_check

    report = div_bridge_check(args.n, args.g, args.e, args.cutoff)
    return report.to_json(), 0 if report.match else 2


def _cmd_kirwan(args):
    from .kirwan import WeightSystem, bb_decomposition, perfection_check, quotient_poincare, strata

    try:
        weights = json.loads(args.weights, parse_int=_json_int)
    except ValueError as exc:
        raise ValidationError("weights must be a JSON integer array: %s" % exc)
    if not isinstance(weights, list) or any(isinstance(w, bool) or not isinstance(w, int)
                                            for w in weights):
        raise ValidationError("weights must be a JSON integer array")
    ws = WeightSystem(tuple(weights))
    if args.op == "strata":
        return {"weights": ws.to_json(), "strata": [
            {"beta": s.beta, "fixed_dim": s.fixed_dim, "codim": s.codim}
            for s in strata(ws)]}, 0
    if args.op == "bb":
        return dict(bb_decomposition(ws).to_json(), weights=ws.to_json()), 0
    if args.op == "perfection":
        report = perfection_check(ws)
        return {
            "weights": ws.to_json(),
            "is_polynomial": report.is_polynomial,
            "series_coeffs": [_number(c)
                              for c in report.series_coefficients(2 * ws.dim + 2)],
        }, 0
    return _poly_doc(quotient_poincare(ws), weights=ws.to_json()), 0


def _cmd_crosscheck(args):
    from .fields import SpecializationField
    from .tamagawa import matches_moduli_polynomial, ss_mass
    from .yangmills import moduli_poincare

    # the polynomial first: the gauge budget bounds rank and genus, the
    # mass budget rank only
    poly = moduli_poincare(args.n, args.d, args.g)
    F = SpecializationField.betti(args.g)
    match = matches_moduli_polynomial(ss_mass(args.n, args.d, F), poly, F)
    return {"match": match}, 0 if match else 2


# Z(q^-i) is a Fraction of about 2 i g bits(q) bits, and its arithmetic and
# printing are quadratic in that length, so zeta --i is charged
# i bits(q) g and refused past this charge, measured over q from 2 to
# 2^61 - 1 at g = 2, 3 and 6 (README.md).
ZETA_CHARGE = 240_000


def _cmd_zeta(args):
    from .fields import SpecializationField

    curve = load_curve(args.curve)
    if args.i is not None:
        check_budget("zeta at i = %d over q = %d at genus %d" % (args.i, curve.q, curve.genus),
                     "i bits(q) g", args.i * curve.q.bit_length() * curve.genus, ZETA_CHARGE)
        field = SpecializationField.numeric(curve)
        return {"i": args.i, "value": _number(field.zeta(args.i))}, 0
    return {
        "genus": curve.genus,
        "q": curve.q,
        "numerator_coeffs": [str(c) for c in curve.coefficients()],
        "class_number": str(curve.class_number()),
        "counts": [str(curve.point_count(r)) for r in range(1, curve.genus + 1)],
    }, 0


# -- emission ------------------------------------------------------------------


def _emit(doc, fmt, stream):
    if fmt == "json":
        stream.write(json.dumps(doc, sort_keys=True) + "\n")
        return
    sep, line = (";", "%s,%s\n") if fmt == "csv" else (" ", "%s  %s\n")
    width = max(map(len, doc)) if fmt == "plain" else 0
    for key in sorted(doc):
        value = doc[key]
        value = sep.join(map(_scalar, value)) if isinstance(value, list) else _scalar(value)
        stream.write(line % (key.ljust(width), value))


def _scalar(value):
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# -- parser --------------------------------------------------------------------


_INT = {"type": int, "required": True}
_FIXED_DET = {"action": "store_true"}

# One row per subcommand: (name, help, arguments as (flag, add_argument
# options)).  The handler of a row is _cmd_<name>, looked up when the parser
# is built.
COMMANDS = (
    ("betti", "moduli Poincare polynomial (coprime case)",
     (("--n", _INT), ("--d", _INT), ("--g", _INT), ("--fixed-det", _FIXED_DET))),
    ("count", "exact stable-bundle count over F_q",
     (("--n", _INT), ("--d", _INT), ("--curve", {"required": True}),
      ("--fixed-det", _FIXED_DET))),
    ("mass", "semistable stacky mass",
     (("--n", _INT), ("--d", _INT), ("--curve", {}), ("--g", {"type": int}),
      ("--mode", {"choices": ("betti", "hodge")}))),
    ("siegel", "mass-formula partial sums and gaps",
     (("--n", _INT), ("--d", _INT), ("--curve", {"required": True}),
      ("--max-codim", {"type": int, "default": 20}))),
    ("hn-types", "filtration types under a codimension bound",
     (("--n", _INT), ("--d", _INT), ("--g", _INT),
      ("--max-codim", {"type": int, "default": 10}))),
    ("symprod", "symmetric powers: polynomial or divisor count",
     (("--n", _INT), ("--g", {"type": int}), ("--curve", {}),
      ("--enumerate", {"action": "store_true",
                       "help": "also run the brute-force divisor oracle"}))),
    ("matrixdiv", "matrix-divisor Betti polynomial",
     (("--n", _INT), ("--e", _INT), ("--g", _INT))),
    ("bridge", "stabilization and classifying-series bridge",
     (("--n", _INT), ("--g", _INT), ("--e", _INT), ("--cutoff", _INT))),
    ("kirwan", "rank-1 torus stratification toolkit",
     (("--weights", {"required": True, "help": "JSON integer array"}),
      ("--op", {"choices": ("strata", "bb", "perfection", "quotient"), "default": "strata"}))),
    ("crosscheck", "arithmetic vs gauge pipeline equality",
     (("--n", _INT), ("--d", _INT), ("--g", _INT))),
    ("zeta", "zeta data of a curve config",
     (("--curve", {"required": True}), ("--i", {"type": int}))),
)


def build_parser(command=None):
    """The modrec parser, with every subparser, or with only the one named
    ``command``: parsing argv that names ``command`` gives the same result
    either way, and building one subparser is the cheaper."""
    parser = _Parser(prog="modrec",
                     description="Exact invariants of moduli of bundles on a curve.")
    parser.add_argument("--format", choices=FORMATS, default="json")
    parser.add_argument("--selftest", action="store_true",
                        help="run the acceptance suite and exit")
    sub = parser.add_subparsers(dest="command")
    for name, help_text, arguments in COMMANDS:
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            for flag, options in arguments:
                p.add_argument(flag, **options)
            p.set_defaults(handler=globals()["_cmd_" + name.replace("-", "_")])
    return parser


def _command(argv):
    """The subcommand that argv plainly names, else None.  Only --format with
    one of its values and --selftest may come before the command word; with
    anything else there (help, an abbreviated option, a usage error) every
    subparser is built, so messages list all the subcommands."""
    words = iter(argv)
    for word in words:
        if word == "--format":
            if next(words, None) not in FORMATS:
                return None
        elif word != "--selftest":
            return word if word in {name for name, _, _ in COMMANDS} else None
    return None


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser(_command(argv))
    try:
        args = parser.parse_args(argv)
        if args.selftest:
            from .acceptance import run_all

            return 0 if run_all(sys.stdout) else 2
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        # answers print in full past the int -> str digit guard (inputs keep
        # it, see _json_int); restoring it leaves no state behind
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            doc, status = args.handler(args)
            _emit(doc, args.format, sys.stdout)
        finally:
            sys.set_int_max_str_digits(limit)
    except ValidationError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except InvariantViolation as exc:
        sys.stderr.write("invariant violation: %s\n" % exc)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
