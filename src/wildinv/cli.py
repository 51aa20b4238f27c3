"""Command line front end: every subcommand prints exactly one JSON document.

Exit codes: 0 success, 1 unknown subcommand, 2 validation error,
3 internal consistency check failed (which should never happen).
"""

import argparse
import json
import sys

from . import addpoly, counts, ff, invariants, rootsys, sympmod
from .errors import TheoremViolation, ValidationError

SUBCOMMANDS = (
    "report",
    "primitivity",
    "swan",
    "quotient",
    "rootsystem",
    "count",
    "anisotropy",
    "prime",
)


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True))
    sys.stdout.write("\n")


def parse_coefficient(tok: str, base):
    """One F_q element: comma-separated coordinates, short vectors padded."""
    tok = tok.strip()
    try:
        coords = [int(t) for t in tok.split(",")]
    except ValueError as exc:
        raise ValidationError(f"bad coefficient {tok!r}") from exc
    if len(coords) > base.n:
        raise ValidationError(f"coefficient {tok!r} has more than {base.n} coordinates")
    coords += [0] * (base.n - len(coords))
    return base.el(coords)


def parse_additive_poly(text: str, p: int, f: int, e: int) -> addpoly.AdditivePoly:
    """-R string to a polynomial: full low-to-high list "c_0;...;c_e", or the
    monomial shorthand of a single entry meaning a_e when e >= 1."""
    base = ff.field_create(p, f)
    entries = [t for t in text.split(";") if t.strip()]
    if not entries:
        raise ValidationError("empty R")
    if len(entries) == 1 and e >= 1:
        coeff = parse_coefficient(entries[0], base)
        coeffs = [base.zero()] * e + [coeff]
    else:
        if len(entries) != e + 1:
            raise ValidationError(
                f"R lists {len(entries)} coefficients but the declared degree e = {e} "
                f"needs {e + 1}"
            )
        coeffs = [parse_coefficient(t, base) for t in entries]
    R = addpoly.AdditivePoly(base, coeffs)
    if R.is_zero() or R.p_degree != e:
        raise ValidationError("leading coefficient a_e must be nonzero")
    return R


def _input_args(sub):
    sub.add_argument("-p", type=int, required=True, help="prime")
    sub.add_argument("-f", type=int, required=True, help="q = p^f")
    sub.add_argument("-R", type=str, required=True, help="coefficients c_0;...;c_e (monomial shorthand: a single entry is a_e)")
    sub.add_argument("-e", type=int, required=True, help="top p-power degree of R")
    sub.add_argument("-m", type=int, required=True, help="twist integer, prime to p")


def _load_input_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read input file {path!r}: {exc.strerror}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValidationError(f"input file {path!r} is not JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ValidationError("input file must hold a JSON object")
    for key in ("p", "f", "R", "e", "m"):
        if key not in spec:
            raise ValidationError(f"input file is missing {key!r}")
    for key in ("p", "f", "e", "m"):
        if type(spec[key]) is not int:
            raise ValidationError(f"input file {key!r} must be an integer")
    rspec = spec["R"]
    if not isinstance(rspec, str) and not (
        isinstance(rspec, list) and all(isinstance(t, str) for t in rspec)
    ):
        raise ValidationError("input file 'R' must be a string or a list of coefficient strings")
    flags = spec.get("flags", {})
    if not isinstance(flags, dict):
        raise ValidationError("input file 'flags' must be a JSON object")
    max_k = flags.get("max_k")
    if max_k is not None and type(max_k) is not int:
        raise ValidationError("input file flag 'max_k' must be an integer or null")
    return spec, flags


def _poly_from_args(args):
    return parse_additive_poly(args.R, args.p, args.f, args.e)


def run(argv) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        sys.stderr.write(_usage())
        return 0 if argv else 1
    cmd = argv[0]
    if cmd not in SUBCOMMANDS:
        sys.stderr.write(f"unknown subcommand {cmd!r}\n{_usage()}")
        return 1
    parser = argparse.ArgumentParser(prog=f"wildinv {cmd}", add_help=True)
    try:
        if cmd == "swan":
            parser.add_argument("-p", type=int, required=True)
            parser.add_argument("-e", type=int, required=True)
            parser.add_argument("-dR", type=int, required=True)
            parser.add_argument("-m", type=int, required=True)
            args = parser.parse_args(argv[1:])
            sw = invariants.swan_conductor(args.p, args.e, args.dR, args.m)
            _emit({"swan": int(sw)})
            return 0

        if cmd == "report":
            parser.add_argument("--input", type=str, default=None, help="JSON input file")
            parser.add_argument("-p", type=int)
            parser.add_argument("-f", type=int)
            parser.add_argument("-R", type=str)
            parser.add_argument("-e", type=int)
            parser.add_argument("-m", type=int)
            parser.add_argument("--curve", action="store_true")
            parser.add_argument("--max-k", type=int, default=None)
            parser.add_argument("--oracle", action="store_true")
            args = parser.parse_args(argv[1:])
            if args.input:
                spec, flags = _load_input_file(args.input)
                rspec = spec["R"]
                if isinstance(rspec, str) and rspec.lstrip().startswith("q="):
                    # the canonical text form carries its own field and degree
                    R = addpoly.parse_additive_poly_text(rspec)
                    if (R.base.p, R.base.n, R.p_degree) != (spec["p"], spec["f"], spec["e"]):
                        raise ValidationError("text-form R disagrees with the declared p, f, e")
                else:
                    R = parse_additive_poly(
                        rspec if isinstance(rspec, str) else ";".join(rspec),
                        spec["p"],
                        spec["f"],
                        spec["e"],
                    )
                m, max_k = spec["m"], flags.get("max_k")
                curve, oracle = flags.get("curve", False), flags.get("oracle", False)
            else:
                if None in (args.p, args.f, args.R, args.e, args.m):
                    raise ValidationError("report needs -p -f -R -e -m or --input")
                R = _poly_from_args(args)
                m, max_k, curve, oracle = args.m, args.max_k, args.curve, args.oracle
            rep = invariants.full_report(
                R.base.p,
                R.base.n,
                list(R.coeffs),
                m,
                curve=bool(curve),
                max_k=max_k,
                oracle=bool(oracle),
            )
            _emit(rep.to_json())
            return 0

        _input_args(parser)
        if cmd == "count":
            parser.add_argument("--max-k", type=int, default=None)
        args = parser.parse_args(argv[1:])
        R = _poly_from_args(args)

        if cmd == "primitivity":
            res = invariants.primitivity(R, args.m)
            _emit(invariants._verdict_json(res))
            return 0

        if cmd == "anisotropy":
            M = sympmod.build(R, args.m)
            anis, wit = sympmod.completely_anisotropic(M)
            doc = {
                "dim": M.dim,
                "d": M.d,
                "completely_anisotropic": anis,
                "witness_basis": None
                if wit is None
                else [ff.format_element(x) for x in wit.field_elements()],
            }
            _emit(doc)
            return 0

        if cmd == "quotient":
            res = invariants.primitivity(R, args.m)
            if res.kind != "imprimitive":
                _emit({"verdict": res.kind, "induction": None})
                return 0
            doc = invariants._verdict_json(res)
            _emit(
                {
                    "verdict": "imprimitive",
                    # p = 2 has a witness but no descent datum
                    "induction": doc.get("induction"),
                    "witness_basis": doc.get("witness_basis"),
                }
            )
            return 0

        if cmd == "rootsystem":
            W, inv = rootsys.monomial_root_system(args.p, args.f, args.e, R.coeffs[-1], args.m)
            label, count_structs = rootsys.classify(W)
            _emit(
                {
                    "root_system": {
                        "a": inv.a,
                        "b": inv.b,
                        "c": inv.c,
                        "e1": inv.b,
                        "e_prime": inv.e_prime,
                        "f_prime": inv.f_prime,
                        "type": label,
                        "symplectic_structures": count_structs,
                        "nu_label": rootsys.nu_label(label),
                    }
                }
            )
            return 0

        if cmd == "count":
            _emit(counts.curve_summary(R, max_k=args.max_k))
            return 0

        if cmd == "prime":
            E = addpoly.e_poly(R)
            doc = {"e_poly_prime": addpoly.is_prime(E)}
            # the transport route applies when d_R = p^t + 1 with f | t; d_R = 1
            # gives x = 0, which no power of p reaches
            k, x = 0, addpoly.scaling_order(R) - 1
            while x and x % R.p == 0:
                x //= R.p
                k += 1
            if x == 1 and k >= 1 and k % args.f == 0:
                try:
                    cs = addpoly.coeff_transport(E, k)
                except ValidationError:
                    cs = None
                if cs is not None:
                    doc["transport"] = {
                        "t": k,
                        "irreducible": addpoly.classical_is_irreducible(cs),
                        "reciprocal": addpoly.is_reciprocal(cs),
                    }
                    # reducible transport always certifies a decomposition;
                    # the converse only binds within the p^t-power subring
                    if not doc["transport"]["irreducible"] and doc["e_poly_prime"]:
                        raise TheoremViolation("a reducible transport must make E composite")
            _emit(doc)
            return 0

        raise AssertionError("unreachable")
    except ValidationError as exc:
        _emit({"error": str(exc)})
        return 2
    except TheoremViolation as exc:
        _emit({"error": f"internal consistency violation: {exc}"})
        return 3
    except SystemExit as exc:
        # argparse parse failure: normalize to the validation exit code
        code = exc.code if isinstance(exc.code, int) else 2
        return 2 if code else 0


def _usage() -> str:
    return (
        "usage: wildinv <subcommand> [options]\n"
        "subcommands: " + ", ".join(SUBCOMMANDS) + "\n"
        "try: wildinv report -p 3 -f 1 -R \"1\" -e 1 -m 1\n"
    )


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
